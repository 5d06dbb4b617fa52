import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from eoscatter.grid import GridSpec
from eoscatter.history import DelayBuffer, HistoryError


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


def test_query_older_than_window_raises():
    buf = DelayBuffer(t0=0.0, dt=0.1, window=0.5)  # keeps ~9 levels
    _fill(buf, lambda t: t, 40)
    with pytest.raises(HistoryError, match="retained"):
        buf.query(0.05)


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


@pytest.mark.parametrize("direction", ["left", "right"])
@pytest.mark.parametrize("dt_cfl", [0.4, 0.9])
@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
def test_fixed_lag_sum_matches_query_each_every_step(epsilon, dt_cfl, direction):
    # the solver's setting: nodal current history, delays (x - a0)/c1 or
    # (a1 - x)/c1, window transit + 2 dt, read at every new level from the
    # first one on, so the warm-up (live prefix, clipped wavefront node,
    # two-sample start) is covered.  At epsilon = 0, dt_cfl = 0.4 some
    # offsets delay/dt are whole numbers.  Nonzero samples at t0 check the
    # causal mask.
    g = GridSpec(0.0, 3.0, 24, epsilon=epsilon)
    c1 = 2.0
    dt = dt_cfl * g.dx / c1
    transit = g.length / c1
    delays = (g.x - g.a0) / c1 if direction == "left" else (g.a1 - g.x) / c1
    buf = DelayBuffer(0.0, dt, transit + 2 * dt, shape=(g.n,))
    reader = buf.fixed_lag(delays)
    rng = np.random.default_rng(7)
    buf.append(rng.normal(size=g.n))
    for n in range(int(1.5 * transit / dt) + 3):
        t_next = (n + 1) * dt
        buf.append(rng.normal(size=g.n))
        terms = buf.query_each(t_next - delays)
        # relative to the summed magnitudes: the terms have both signs
        scale = np.sum(np.abs(terms))
        assert abs(reader(t_next) - np.sum(terms)) <= 1e-12 * scale, n


def test_fixed_lag_sum_before_any_arrival_is_zero():
    buf = DelayBuffer(0.0, 0.1, 2.0, shape=(3,))
    _fill(buf, lambda t: np.full(3, 1.0 + t), 4)
    assert buf.fixed_lag(np.array([0.5, 0.7, 0.9]))(0.3) == 0.0


def test_fixed_lag_sum_keeps_history_checks():
    delays = np.array([0.05, 0.15, 0.25])
    buf = DelayBuffer(0.0, 0.1, 0.5, shape=(3,))  # keeps ~9 levels
    reader = buf.fixed_lag(delays)
    _fill(buf, lambda t: np.full(3, t), 5)
    with pytest.raises(HistoryError, match="newest"):
        reader(0.5)  # one level past the newest sample, at t = 0.4
    assert reader(0.4) == pytest.approx(3 * 0.4 - delays.sum(), rel=1e-12)

    short = DelayBuffer(0.0, 0.1, 0.5, shape=(3,))
    reader = short.fixed_lag(np.array([0.05, 1.5, 0.25]))
    _fill(short, lambda t: np.full(3, t), 40)
    with pytest.raises(HistoryError, match="retained"):
        reader(3.9)
    with pytest.raises(HistoryError, match="retained"):
        short.query_each(3.9 - np.array([0.05, 1.5, 0.25]))


def test_fixed_lag_sum_rejects_bad_input():
    buf = DelayBuffer(0.0, 0.1, 1.0, shape=(3,))
    with pytest.raises(ValueError):
        buf.fixed_lag(np.ones(4))
    with pytest.raises(ValueError):
        buf.fixed_lag(np.array([0.1, -0.2, 0.3]))
    reader = buf.fixed_lag(np.array([0.1, 0.2, 0.3]))
    _fill(buf, lambda t: np.full(3, t), 8)
    with pytest.raises(ValueError, match="time level"):
        reader(0.55)
