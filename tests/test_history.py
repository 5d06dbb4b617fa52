import math
import re
import time
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from eoscatter.grid import GridSpec
from eoscatter.history import DelayBuffer, HistoryError, RetardedSum, lag_reader


def _fill(buf, func, n):
    for k in range(n):
        buf.append(func(buf.t0 + k * buf.dt))


@given(
    coeffs=st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3)),
    frac=st.floats(0.0, 1.0),
    level=st.integers(1, 17),
)
@settings(max_examples=80, deadline=None)
def test_quadratic_read_back_is_exact(coeffs, frac, level):
    a, b, c = coeffs
    q = lambda t: a * t**2 + b * t + c
    buf = DelayBuffer(t0=0.0, dt=0.125, window=3.0)
    _fill(buf, q, 20)
    t = (level + frac) * buf.dt
    t = min(t, buf.latest_t)
    if t <= buf.t0:
        return
    assert buf.query(t) == pytest.approx(q(t), rel=1e-11, abs=1e-11)


def test_prehistory_is_zero_even_with_nonzero_seed():
    buf = DelayBuffer(t0=0.0, dt=0.1, window=1.0)
    _fill(buf, lambda t: 5.0 + t, 8)
    assert buf.query(-0.3) == 0.0
    assert buf.query(0.0) == 0.0  # the switch-on instant itself reads as zero
    assert buf.query(0.1) == pytest.approx(5.1)


def test_query_beyond_newest_sample_raises():
    buf = DelayBuffer(t0=0.0, dt=0.1, window=1.0)
    _fill(buf, lambda t: t, 5)
    with pytest.raises(HistoryError, match="newest"):
        buf.query(0.5)
    nodal = DelayBuffer(t0=0.0, dt=0.1, window=1.0, shape=(3,))
    _fill(nodal, lambda t: np.full(3, t), 5)
    with pytest.raises(HistoryError, match="newest"):
        nodal.query_each(0.5 - np.array([0.05, 0.0, 0.25]))


def test_query_older_than_window_raises():
    buf = DelayBuffer(t0=0.0, dt=0.1, window=0.5)  # keeps ~9 levels
    _fill(buf, lambda t: t, 40)
    with pytest.raises(HistoryError, match="retained"):
        buf.query(0.05)
    nodal = DelayBuffer(t0=0.0, dt=0.1, window=0.5, shape=(3,))
    _fill(nodal, lambda t: np.full(3, t), 40)
    with pytest.raises(HistoryError, match="retained"):
        nodal.query_each(3.9 - np.array([0.05, 1.5, 0.25]))


def test_first_interval_bracket_reads_level_minus_one_as_zero():
    # inside the first interval the bracket is levels -1, 0, 1, level -1
    # read as zero: the parabola through (-dt, 0), (0, q0), (dt, q1)
    q = lambda t: 3.0 * t**2 - t + 2.0
    buf = DelayBuffer(t0=0.0, dt=0.2, window=2.0)
    _fill(buf, q, 6)
    x = 0.07 / 0.2
    want = q(0.0) * (1.0 - x * x) + q(0.2) * x * (x + 1.0) / 2.0
    assert buf.query(0.07) == pytest.approx(want, rel=1e-12)


def test_two_samples_read_the_parabola_through_zero_before_t0():
    # samples 0 and 4 at levels 0 and 1, and the zero of level -1: the
    # parabola 8t(t + 0.5)
    buf = DelayBuffer(t0=0.0, dt=0.5, window=2.0)
    buf.append(0.0)
    buf.append(4.0)
    assert buf.query(0.25) == pytest.approx(1.5)


def test_nodal_query_each():
    # components zero at t0: a read in the first interval is the parabola
    # through (-dt, 0), (0, 0), (dt, f(dt)), every later read is f itself
    n, dt = 6, 0.1
    f = lambda t: np.cos(0.3 + np.arange(n)) * t**2 + np.arange(n) * t
    buf = DelayBuffer(t0=0.0, dt=dt, window=2.0, shape=(n,))
    _fill(buf, f, 12)
    times = np.array([0.33, -0.2, 0.0, 1.1, 0.74, 0.05])
    got = buf.query_each(times)
    for i, t in enumerate(times):
        x = t / dt
        want = (0.0 if t <= 0.0 else f(dt)[i] * x * (x + 1.0) / 2.0 if t < dt
                else f(t)[i])
        assert got[i] == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_non_finite_query_times_are_rejected():
    # t > t0 is false for nan, so a nan query read as zero
    buf = DelayBuffer(t0=0.0, dt=0.1, window=1.0)
    nodal = DelayBuffer(t0=0.0, dt=0.1, window=1.0, shape=(3,))
    _fill(buf, lambda t: 1.0, 4)
    _fill(nodal, lambda t: np.ones(3), 4)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"query time {bad!r} is not finite"):
            buf.query(bad)
        with pytest.raises(ValueError, match=f"query time {bad!r} is not finite"):
            nodal.query_each([0.25, bad, 0.3])


def test_pair_history_query():
    buf = DelayBuffer(t0=0.0, dt=0.25, window=3.0, shape=(2,))
    _fill(buf, lambda t: np.array([t**2, 1.0 - t]), 10)
    got = buf.query(0.8)
    assert_allclose(got, [0.64, 0.2], rtol=1e-12, atol=1e-13)


def test_ring_keeps_enough_history_for_transit_delays():
    # mimic the solver's sizing: window = transit + 2 dt
    transit, dt = 1.5, 0.01
    buf = DelayBuffer(t0=0.0, dt=dt, window=transit + 2 * dt)
    q = lambda t: np.sin(t)
    _fill(buf, q, 600)
    t = buf.latest_t - transit
    assert buf.query(t) == pytest.approx(np.sin(t), abs=1e-6)


def test_nonfinite_construction_is_rejected():
    for kw in ({"dt": float("nan")}, {"dt": float("inf")},
               {"window": float("inf")}, {"window": float("nan")},
               {"t0": float("nan")}):
        args = {"t0": 0.0, "dt": 0.1, "window": 1.0, **kw}
        with pytest.raises(ValueError):
            DelayBuffer(**args)


# -- the read rule in closed form ---------------------------------------------

# Every reader against formulas, not against DelayBuffer, which shares the
# rule.  dt and t0 are short binary fractions; the lags are below dt (the
# first live level is 1), whole multiples of dt, and fractions of dt.
T0, DT = -0.75, 0.25
LAGS = DT * np.array([0.4, 0.75, 1.0, 2.0, 2.5, 3.3])
READERS = ("query", "query_each", "read_after", "read_before", "push")


def _reads(sample, levels):
    """Each reader's read of the samples ``sample(k)`` at ``t0 + n*dt -
    lag``, n < levels, for every lag: reader -> (levels, lags) array, nan
    where the reader makes no read (a read before the append of level n
    needs lag >= dt)."""
    reads = {name: np.full((levels, LAGS.size), np.nan) for name in READERS}
    buf = DelayBuffer(T0, DT, LAGS.max() + 2 * DT)
    nodal = DelayBuffer(T0, DT, LAGS.max() + 2 * DT, shape=LAGS.shape)
    series = array("d")
    lagged = [lag_reader(series, T0, DT, lag) for lag in LAGS]
    sums = [RetardedSum(T0, DT, [lag]) for lag in LAGS]
    for n in range(levels):
        s = sample(n)
        t = T0 + n * DT - LAGS
        buf.append(s)
        nodal.append(np.full(LAGS.shape, s))
        reads["query_each"][n] = nodal.query_each(t)
        for i, lag in enumerate(LAGS):
            if lag >= DT:
                reads["read_before"][n, i] = lagged[i](n)[0]
        series.append(s)
        for i, lag in enumerate(LAGS):
            reads["read_after"][n, i] = lagged[i](n)[0]
            reads["push"][n, i] = sums[i].push([s])
            reads["query"][n, i] = buf.query(t[i])
    return reads


def test_a_series_vanishing_one_level_before_t0_reads_back_exactly():
    # zero before t0 and, from t0 on, a quadratic with a root at t0 - dt:
    # the rule's zero at level -1 lies on it, so every read is exact
    p = lambda t: (t - T0 + DT) * (0.7 * (t - T0) / DT + 1.3)
    levels = 24
    reads = _reads(lambda k: p(T0 + k * DT), levels)
    for n in range(levels):
        for i, lag in enumerate(LAGS):
            t = T0 + n * DT - lag
            want = p(t) if t > T0 else 0.0
            for name in READERS:
                got = reads[name][n, i]
                if not np.isnan(got):
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, n, lag)


def test_first_live_read_is_the_parabola_through_zero_before_t0():
    # samples s0 != 0, s1, ...: the first live read, at level x in (0, 1],
    # is the parabola through (-1, 0), (0, s0), (1, s1), and every read
    # before it is exactly zero
    s = np.random.default_rng(4).uniform(0.5, 1.5, 12)
    reads = _reads(lambda k: s[k], s.size)
    for i, lag in enumerate(LAGS):
        first = next(n for n in range(s.size) if T0 + n * DT - lag > T0)
        x = (first * DT - lag) / DT
        assert 0.0 < x <= 1.0
        want = s[0] * (1.0 - x * x) + s[1] * x * (x + 1.0) / 2.0
        for name in READERS:
            if name == "read_before" and lag < DT:
                continue
            got = reads[name][:, i]
            assert np.all(got[:first] == 0.0), (name, lag)
            assert got[first] == pytest.approx(want, rel=1e-12), (name, lag)


# -- fixed-lag sums ------------------------------------------------------------


def _check_sum_every_level(t0, dt, delays, levels, draw):
    """Feed samples ``draw(n)`` (nonzero at t0 too) to a RetardedSum and to a
    DelayBuffer, and compare every level's sum with the sum of query_each
    reads, relative to the summed magnitudes (the terms may have both
    signs)."""
    buf = DelayBuffer(t0, dt, float(np.max(delays)) + 2 * dt,
                      shape=delays.shape)
    reader = RetardedSum(t0, dt, delays)
    for n in range(levels):
        sample = draw(delays.size)
        buf.append(sample)
        terms = buf.query_each(t0 + n * dt - delays)
        scale = np.sum(np.abs(terms))
        assert abs(reader.push(sample) - np.sum(terms)) <= 1e-12 * scale, n


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("dt_cfl", [0.4, 0.9, 1.1])
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_fixed_lag_sum_matches_query_each_every_step(epsilon, dt_cfl, direction):
    # the solver's setting: nodal current, delays (x - a0)/c1 or (a1 - x)/c1,
    # summed at every level from the first one on, so the start-up (live
    # prefix, each node's first read with its zero level -1) is covered.  At
    # epsilon = 0, dt_cfl = 0.4 some offsets delay/dt are whole numbers; at
    # dt_cfl = 1.1 several nodes share a lag, so their reads land on one
    # level.
    g = GridSpec(0.0, 3.0, 24, epsilon=epsilon)
    c1 = 2.0
    dt = dt_cfl * g.dx / c1
    transit = g.length / c1
    delays = (g.x - g.a0) / c1 if direction == "left" else (g.a1 - g.x) / c1
    rng = np.random.default_rng(7)
    _check_sum_every_level(0.0, dt, delays, int(1.5 * transit / dt) + 4,
                           lambda n: rng.normal(size=n))


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("dt_cfl", [0.4, 0.9, 1.1])
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_folded_push_is_the_sum_of_separate_readers(epsilon, dt_cfl, direction):
    # in verification mode the solver pushes current + residual source into
    # one reader; that is the sum of a reader of each, to rounding
    g = GridSpec(0.0, 3.0, 24, epsilon=epsilon)
    c1 = 2.0
    dt = dt_cfl * g.dx / c1
    delays = (g.x - g.a0) / c1 if direction == "left" else (g.a1 - g.x) / c1
    rng = np.random.default_rng(11)
    folded, current, source = (RetardedSum(0.0, dt, delays) for _ in range(3))
    for n in range(int(1.5 * g.length / c1 / dt) + 4):
        j, s = rng.normal(size=(2, g.n))
        got = folded.push(j + s)
        assert type(got) is float
        assert abs(got - (current.push(j) + source.push(s))) <= 1e-12 * g.n, n


@given(
    start=st.floats(-40.0, 40.0),
    dt=st.floats(1e-3, 1.0),
    lags=st.lists(st.one_of(st.integers(0, 12), st.floats(0.0, 12.0)),
                  min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_fixed_lag_sum_matches_query_each_for_any_delays(start, dt, lags, seed):
    # whole-number offsets delay/dt (integer draws) put a node's retarded
    # time on a level, where query_each's float test decides whether the
    # node is live; offsets below 1 make level 1 the first live level.
    # t0 is drawn in steps: query_each's fractional level (t - d - t0)/dt
    # carries a rounding error of about eps*|t0|/dt, which at t0/dt = 1000
    # already moves a single read by 1e-12 of its size.  Samples of one sign
    # keep each read of a few nodes from cancelling to a value far smaller
    # than its samples, where that rounding alone exceeds the bound.
    rng = np.random.default_rng(seed)
    delays = np.array(lags, dtype=float) * dt
    _check_sum_every_level(start * dt, dt, delays, int(max(lags)) + 6,
                           lambda n: rng.uniform(0.5, 1.5, size=n))


def test_fixed_lag_sum_matches_query_each_past_several_window_moves():
    # the pending sums slide over a buffer of 2*span numbers and move back
    # to its front every span = max(lag) + 2 levels; 3*span + 5 levels move
    # them three times
    g = GridSpec(0.0, 3.0, 24, epsilon=0.5)
    dt = 0.9 * g.dx / 2.0
    delays = (g.x - g.a0) / 2.0
    span = math.ceil(delays.max() / dt) + 2
    rng = np.random.default_rng(5)
    _check_sum_every_level(0.0, dt, delays, 3 * span + 5,
                           lambda n: rng.normal(size=n))


def test_steady_push_allocates_no_span_sized_block():
    # a push adds N reads into the pending sums in place: no temporary of
    # the span's size, also across the window's move back to the front,
    # which falls inside the 200 traced pushes
    g = GridSpec(0.0, 3.0, 1600)
    dt = 0.4 * g.dx / 2.0
    delays = (g.x - g.a0) / 2.0
    span = math.ceil(delays.max() / dt) + 2
    assert span * 8 > 2 * g.n * 8  # a span-sized block stands out
    reader = RetardedSum(0.0, dt, delays)
    j = np.random.default_rng(3).normal(size=g.n)
    for _ in range(span - 100):
        reader.push(j)
    tracemalloc.start()
    try:
        for _ in range(200):
            reader.push(j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < span * 8


def test_fixed_lag_sum_before_any_arrival_is_zero():
    reader = RetardedSum(0.0, 0.1, np.array([0.5, 0.7, 0.9]))
    assert [reader.push(np.full(3, 1.0 + 0.1 * k)) for k in range(4)] == [0.0] * 4


def test_fixed_lag_sum_rejects_bad_input():
    for delays in (np.array([0.1, -0.2, 0.3]), np.array([0.1, np.nan]),
                   np.array([np.inf]), np.ones((2, 2)), np.array([])):
        with pytest.raises(ValueError):
            RetardedSum(0.0, 0.1, delays)
    for t0, dt in ((np.nan, 0.1), (0.0, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError):
            RetardedSum(t0, dt, np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        RetardedSum(0.0, 0.1, np.ones(3)).push(np.ones(4))


# -- fixed-lag trace reads -----------------------------------------------------


@st.composite
def lag_setups(draw):
    """``(t0, dt, lag, exact)``: ``lag`` from dt to 50*dt, a whole or a
    fractional multiple of dt.  With ``exact`` every number is a short
    binary fraction, so the oracle's fractional level
    ``(t0 + n*dt - lag - t0)/dt`` carries no rounding."""
    whole = draw(st.integers(1, 50))
    if draw(st.booleans()):
        dt = 2.0 ** -draw(st.integers(0, 10))
        t0 = draw(st.integers(-160, 160)) * dt / 4
        lag = (whole + draw(st.integers(0, 7)) / 8) * dt
        return t0, dt, lag, True
    dt = draw(st.floats(1e-3, 1.0))
    t0 = draw(st.one_of(st.floats(-5.0, 5.0), st.floats(-40.0, 40.0).map(lambda s: s * dt)))
    lag = draw(st.one_of(st.just(float(whole)), st.floats(1.0, 50.0))) * dt
    return t0, dt, lag, False


@settings(max_examples=300, deadline=None)
@given(setup=lag_setups(), width=st.sampled_from([1, 2]),
       read_first=st.booleans(), seed=st.integers(0, 2**16))
def _reader_matches_delay_buffer(setup, width, read_first, seed):
    # Every read, from before t0 through the first live levels into the
    # steady bracket and on for as many levels again, against the oracle,
    # with the read of level n before its row is appended (the march's
    # order) or after it.  Agreement is to 1e-15 relative to the bracket's
    # magnitude; off the exact draws the oracle's fractional level carries
    # a rounding error of about eps*(|t0| + |t_next| + lag)/dt levels, which
    # the reader's once-computed weights do not share, so the bound scales
    # with that count.
    t0, dt, lag, exact = setup
    rng = np.random.default_rng(seed)
    series = array("d")
    read = lag_reader(series, t0, dt, lag, width)
    oracle = DelayBuffer(t0, dt, lag + 2 * dt, shape=(width,))
    peak = 0.0
    for n in range(2 * int(lag / dt) + 8):
        sample = rng.uniform(0.5, 1.5, width) * rng.choice([-1.0, 1.0], width)
        peak = max(peak, np.max(np.abs(sample)))
        if not read_first:
            series.extend(sample)
            oracle.append(sample)
        t_next = t0 + n * dt
        got, want = read(n), oracle.query(t_next - lag)
        assert len(got) == width and all(type(v) is float for v in got)
        if t_next - lag <= t0:
            assert got == [0.0] * width, n
        levels = 1.0 if exact else 1.0 + (abs(t0) + abs(t_next) + lag) / dt
        assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * levels * 3 * peak, n
        if read_first:
            series.extend(sample)
            oracle.append(sample)


def test_fixed_lag_reader_matches_delay_buffer_query():
    tic = time.perf_counter()
    _reader_matches_delay_buffer()
    assert time.perf_counter() - tic < 20.0


def test_fixed_lag_reader_prehistory_and_first_levels():
    # lag 2.5 levels: levels 0-2 read before t0 (zero, although the samples
    # there are not), level 3 reads the bracket -1, 0, 1 at 0.5 with level
    # -1 zero, and from level 4 on the bracket of stored samples, where a
    # quadratic in time reads back exactly
    dt, lag = 0.25, 0.625
    q = lambda t: 2.0 + t - 3.0 * t * t
    series = array("d")
    read = lag_reader(series, 0.0, dt, lag)
    got = []
    for n in range(12):
        series.append(q(n * dt))
        got.append(read(n)[0])
    assert got[:3] == [0.0, 0.0, 0.0]
    assert got[3] == pytest.approx(q(0.0) * 0.75 + q(dt) * 0.375, rel=1e-14)
    for n in range(4, 12):
        assert got[n] == pytest.approx(q(n * dt - lag), rel=1e-14)


def test_fixed_lag_reader_rejects_bad_input():
    series = array("d")
    for t0, dt, lag in ((math.nan, 0.1, 1.0), (0.0, 0.0, 1.0), (0.0, math.inf, 1.0),
                        (0.0, 0.1, -0.1), (0.0, 0.1, math.nan)):
        with pytest.raises(ValueError):
            lag_reader(series, t0, dt, lag)
    # a read needing a row the series does not hold yet: lag 0.95 reads
    # level 99 from the rows of levels 88-90, so 90 rows are too few
    read = lag_reader(series, 0.0, 0.1, 0.95, width=2)
    for n in range(90):
        series.extend((n, -n))
    with pytest.raises(HistoryError, match="beyond the newest row"):
        read(99)
    series.extend((90, -90))
    assert read(99) == pytest.approx([99 - 9.5, 9.5 - 99], rel=1e-14)
    # a width of 0 or less read empty rows
    for width in (0, -3, True, 1.0, 2.5, "2", None):
        with pytest.raises(ValueError, match=f"^width must be a finite integer >= 1, "
                           f"got {re.escape(repr(width))}$"):
            lag_reader(series, 0.0, 0.1, 1.0, width=width)
    assert lag_reader(series, 0.0, 0.1, 1.0, width=np.int64(2))(0) == [0.0, 0.0]
