import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from eoscatter.grid import GridSpec
from eoscatter.history import DelayBuffer, FixedLagReader, HistoryError, RetardedSum


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


def test_left_edge_bracket_uses_first_three_samples():
    # inside the first interval the parabola through samples {0,1,2} is used
    q = lambda t: 3.0 * t**2 - t + 2.0
    buf = DelayBuffer(t0=0.0, dt=0.2, window=2.0)
    _fill(buf, q, 6)
    assert buf.query(0.07) == pytest.approx(q(0.07), rel=1e-12)


def test_two_sample_fallback_is_linear():
    buf = DelayBuffer(t0=0.0, dt=0.5, window=2.0)
    buf.append(0.0)
    buf.append(4.0)
    assert buf.query(0.25) == pytest.approx(2.0)


def test_nodal_query_each():
    n = 6
    f = lambda t: np.cos(0.3 + np.arange(n)) * t**2 + np.arange(n) * t
    buf = DelayBuffer(t0=0.0, dt=0.1, window=2.0, shape=(n,))
    _fill(buf, f, 12)
    times = np.array([0.33, -0.2, 0.0, 1.1, 0.74, 0.05])
    got = buf.query_each(times)
    for i, t in enumerate(times):
        want = 0.0 if t <= 0.0 else f(t)[i]
        assert got[i] == pytest.approx(want, rel=1e-11, abs=1e-12)


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
    # summed at every level from the first one on, so the warm-up (live
    # prefix, clipped wavefront node, two-sample start) is covered.  At
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
    # node is live; offsets below 1 make the first read two-sample linear.
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


# -- fixed-lag trace reader ----------------------------------------------------


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
    # steady bracket and past a full turn of the ring, against the oracle,
    # with the read of level n before its append (model 2's order) or after
    # it (model 1's).  Agreement is to 1e-15 relative to the bracket's
    # magnitude; off the exact draws the oracle's fractional level carries
    # a rounding error of about eps*(|t0| + |t_next| + lag)/dt levels, which
    # the reader's once-computed weights do not share, so the bound scales
    # with that count.
    t0, dt, lag, exact = setup
    rng = np.random.default_rng(seed)
    reader = FixedLagReader(t0, dt, lag, width)
    oracle = DelayBuffer(t0, dt, lag + 2 * dt, shape=(width,))
    peak = 0.0
    for n in range(2 * int(lag / dt) + 8):
        sample = rng.uniform(0.5, 1.5, width) * rng.choice([-1.0, 1.0], width)
        peak = max(peak, np.max(np.abs(sample)))
        if not read_first:
            reader.append(tuple(sample))
            oracle.append(sample)
        t_next = t0 + n * dt
        got, want = reader.read(n), oracle.query(t_next - lag)
        assert all(type(v) is float for v in got)
        if t_next - lag <= t0:
            assert got == (0.0,) * width, n
        levels = 1.0 if exact else 1.0 + (abs(t0) + abs(t_next) + lag) / dt
        assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * levels * 3 * peak, n
        if read_first:
            reader.append(tuple(sample))
            oracle.append(sample)


def test_fixed_lag_reader_matches_delay_buffer_query():
    tic = time.perf_counter()
    _reader_matches_delay_buffer()
    assert time.perf_counter() - tic < 20.0


def test_fixed_lag_reader_prehistory_and_first_levels():
    # lag 2.5 levels: levels 0-2 read before t0 (zero, although the samples
    # there are not), level 3 reads the clamped bracket 0, 1, 2 at 0.5, and
    # from level 4 on the steady bracket; a quadratic in time reads back
    # exactly from the first live level on
    dt, lag = 0.25, 0.625
    q = lambda t: 2.0 + t - 3.0 * t * t
    reader = FixedLagReader(0.0, dt, lag)
    got = []
    for n in range(12):
        reader.append((q(n * dt),))
        got.append(reader.read(n)[0])
    assert got[:3] == [0.0, 0.0, 0.0]
    for n in range(3, 12):
        assert got[n] == pytest.approx(q(n * dt - lag), rel=1e-14)


def test_fixed_lag_reader_keeps_a_bounded_ring():
    dt, lag = 0.1, 0.95  # floor(lag/dt) + 3 = 12 levels kept
    reader = FixedLagReader(0.0, dt, lag, width=2)
    for n in range(100):
        reader.append((n, -n))
    assert reader.read(99) == pytest.approx((99 - 9.5, 9.5 - 99), rel=1e-14)
    with pytest.raises(HistoryError, match="older"):
        reader.read(95 - 12)
    with pytest.raises(HistoryError, match="beyond"):
        reader.read(120)


def test_fixed_lag_reader_rejects_bad_input():
    for t0, dt, lag in ((math.nan, 0.1, 1.0), (0.0, 0.0, 1.0), (0.0, math.inf, 1.0),
                        (0.0, 0.1, -0.1), (0.0, 0.1, math.nan)):
        with pytest.raises(ValueError):
            FixedLagReader(t0, dt, lag)
    with pytest.raises(ValueError, match="width"):
        FixedLagReader(0.0, 0.1, 1.0, width=2).append((1.0,))
    # a width of 0 or less stored and returned empty tuples
    for width in (0, -3, True, 1.0, 2.5, "2", None):
        with pytest.raises(ValueError, match="width must be a positive integer"):
            FixedLagReader(0.0, 0.1, 1.0, width=width)
    assert FixedLagReader(0.0, 0.1, 1.0, width=np.int64(2)).read(0) == (0.0, 0.0)
