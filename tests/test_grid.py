import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from eoscatter.grid import GridSpec, Material1, Material2, SpatialOps

from oracles import dense_d1_closed, dense_d1_confined, dense_d2_closed


def test_fine_grid_midpoint_layout():
    g = GridSpec(0.0, 3.0, 1600, 1.0)
    assert g.dx == pytest.approx(3.0 / 1600, rel=1e-15)
    assert g.x[0] == pytest.approx(0.5 * g.dx, rel=1e-15)
    assert g.gap_a0 == pytest.approx(0.5 * g.dx, rel=1e-15)
    assert g.gap_a1 == pytest.approx(0.5 * g.dx, rel=1e-12)


def test_nodes_small_grid_eps0():
    g = GridSpec(0.0, 1.0, 4, 0.0)
    assert g.dx == pytest.approx(0.2)
    assert_allclose(g.x, [0.2, 0.4, 0.6, 0.8], rtol=1e-15)
    # uniform including the gaps to both boundaries
    assert g.gap_a0 == pytest.approx(g.dx)
    assert g.gap_a1 == pytest.approx(g.dx)


def test_nodes_small_grid_eps1():
    # hand-derived: dx = (4+1)/(4*5) = 0.25, nodes at (i + 1/2) dx
    g = GridSpec(0.0, 1.0, 4, 1.0)
    assert g.dx == pytest.approx(0.25)
    assert_allclose(g.x, [0.125, 0.375, 0.625, 0.875], rtol=1e-15)


@given(
    a0=st.floats(-5.0, 5.0),
    length=st.floats(0.1, 10.0),
    n=st.integers(4, 60),
    eps=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_grid_family_invariants(a0, length, n, eps):
    g = GridSpec(a0, a0 + length, n, eps)
    assert g.x.shape == (n,)
    assert np.all(np.diff(g.x) > 0)
    # interior spacing is exactly dx
    assert_allclose(np.diff(g.x), g.dx, rtol=1e-12)
    # nodes stay strictly inside (a0, a1)
    assert g.x[0] > g.a0 and g.x[-1] < g.a1
    assert g.gap_a0 == pytest.approx((1.0 - 0.5 * eps) * g.dx, rel=1e-12)
    # dx interpolates between the two uniform layouts
    assert length / (n + 1) - 1e-15 <= g.dx <= length / n + 1e-15


def test_grid_validation():
    with pytest.raises(ValueError, match=r"^N must be a finite integer >= 4, got 3$"):
        GridSpec(0.0, 1.0, 3, 1.0)
    with pytest.raises(ValueError, match="epsilon"):
        GridSpec(0.0, 1.0, 8, 1.5)
    with pytest.raises(ValueError, match="a1"):
        GridSpec(1.0, 1.0, 8, 1.0)


def test_grid_rejects_a_length_that_is_not_finite():
    # both ends are finite, but a1 - a0 overflows: this built a grid with
    # length, dx and every node inf
    with pytest.raises(ValueError, match=r"^a1 - a0 must be finite, got inf$"):
        GridSpec(-1e308, 1e308, 8)
    assert GridSpec(-0.5e308, 0.5e308, 8).length == 1e308


@pytest.mark.parametrize("value", [True, False, "1", None])
@pytest.mark.parametrize("name", ["a0", "a1", "epsilon"])
def test_grid_rejects_a_coordinate_or_epsilon_that_is_not_a_number(name, value):
    # GridSpec(True, 3.0, 8, True) built a grid on [1, 3] at epsilon 1, and a
    # string or None raised TypeError
    params = {"a0": 0.0, "a1": 3.0, "n": 8, "epsilon": 1.0, name: value}
    with pytest.raises(ValueError,
                       match=f"^{name} must be a finite number, got {value!r}$"):
        GridSpec(**params)


def test_grid_rejects_non_integer_node_count():
    for n in (100.5, 100.0, True, "100"):
        with pytest.raises(ValueError, match="integer"):
            GridSpec(0.0, 1.0, n)
    assert GridSpec(0.0, 1.0, np.int64(100)).x.size == 100


def test_material_validation():
    with pytest.raises(ValueError, match="c1"):
        Material1(c1=0.0, c0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
    with pytest.raises(ValueError, match="nu0"):
        Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=-1.0, alpha=0.0, beta=0.0, gamma=0.0)
    m = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
    assert m.c1 == pytest.approx(2.0)
    assert m.c0 == pytest.approx(1.0)


def test_edge_weights_match_half_gap_forms():
    # at epsilon = 1 the trace-closed edge rules must reduce to the classic
    # half-spacing coefficients
    g = GridSpec(0.0, 2.0, 8, 1.0)
    ops = SpatialOps(g)
    dx = g.dx
    assert_allclose(ops.wl1, [-4.0 / (3 * dx), 1.0 / dx, 1.0 / (3 * dx)], rtol=1e-13)
    assert_allclose(ops.wl2, [8.0 / (3 * dx**2), -4.0 / dx**2, 4.0 / (3 * dx**2)], rtol=1e-13)
    assert_allclose(ops.wr1, [-1.0 / (3 * dx), -1.0 / dx, 4.0 / (3 * dx)], rtol=1e-13)
    assert_allclose(ops.wr2, [4.0 / (3 * dx**2), -4.0 / dx**2, 8.0 / (3 * dx**2)], rtol=1e-13)


def test_stencils_match_longhand_route():
    rng = np.random.default_rng(7)
    g = GridSpec(-1.0, 2.0, 9, 1.0)
    ops = SpatialOps(g)
    u = rng.standard_normal(g.n)
    ua0, ua1 = rng.standard_normal(2)
    assert_allclose(ops.d1_closed(u, ua0, ua1), dense_d1_closed(u, ua0, ua1, g.dx), rtol=1e-13)
    assert_allclose(ops.d2_closed(u, ua0, ua1), dense_d2_closed(u, ua0, ua1, g.dx), rtol=1e-13)
    assert_allclose(ops.d1_confined(u), dense_d1_confined(u, g.dx), rtol=1e-13)


@given(
    eps=st.floats(0.0, 1.0),
    n=st.integers(4, 40),
    coeffs=st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)),
)
@settings(max_examples=60, deadline=None)
def test_stencils_exact_on_quadratics(eps, n, coeffs):
    a, b, c = coeffs
    g = GridSpec(0.5, 2.5, n, eps)
    ops = SpatialOps(g)
    p = lambda x: a * x**2 + b * x + c
    u = p(g.x)
    d1 = ops.d1_closed(u, p(g.a0), p(g.a1))
    d2 = ops.d2_closed(u, p(g.a0), p(g.a1))
    assert_allclose(d1, 2 * a * g.x + b, rtol=1e-9, atol=1e-9)
    assert_allclose(d2, np.full(n, 2 * a), rtol=1e-7, atol=1e-7)
    assert_allclose(ops.d1_confined(u), 2 * a * g.x + b, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["c1", "c0"])
def test_material1_rejects_nonfinite_speeds(name, value):
    params = dict(c1=2.0, c0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
    with pytest.raises(ValueError, match=name):
        Material1(**{**params, name: value})


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["mu1", "nu1", "mu0", "nu0"])
def test_material2_rejects_nonfinite_coefficients(name, value):
    params = dict(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0,
                  alpha=0.0, beta=0.0, gamma=0.0)
    with pytest.raises(ValueError, match=name):
        Material2(**{**params, name: value})
