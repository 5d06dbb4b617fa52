"""Propagator assembly, spectral radii, and the stable time-step window."""

import math

import numpy as np
import pytest

from eoscatter import stability
from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.model1 import Scenario1, State1, interior_step_m1
from eoscatter.model2 import Scenario2, State2, interior_step_m2
from eoscatter.stability import (
    EigenSolverError,
    assemble_propagator,
    decomposition_check,
    homogeneous_run,
    scan_stability,
    spectral_radius,
    stability_bounds,
    stability_radius,
)

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
# reaction-free twins: with alpha=0 and zero charge/current the full steppers
# reduce to the homogeneous field updates the propagator encodes
FREE1 = Material1(c1=2.0, c0=1.0, alpha=0.0, beta=0.3, gamma=8.0)
FREE2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=0.0, beta=0.3, gamma=8.0)


def grid(n, eps=1.0):
    return GridSpec(a0=0.0, a1=1.0, n=n, epsilon=eps)


# ---------------------------------------------------------------------------
# spectral radius
# ---------------------------------------------------------------------------

def test_radius_identity_and_diagonal():
    assert spectral_radius(np.eye(5)) == pytest.approx(1.0)
    assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)


def test_radius_companion_matrix_golden_ratio():
    # z^2 - z - 1 has roots (1 +- sqrt(5))/2; the larger is the golden ratio
    comp = np.array([[1.0, 1.0], [1.0, 0.0]])
    assert spectral_radius(comp) == pytest.approx((1 + math.sqrt(5)) / 2,
                                                  rel=1e-10)


def test_radius_rejects_non_finite_input():
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(EigenSolverError, match="eigenvalue"):
        spectral_radius(bad)


# ---------------------------------------------------------------------------
# propagator assembly
# ---------------------------------------------------------------------------

def test_interior_rows_carry_the_advection_stencil():
    g = grid(4, eps=0.0)
    dt = 0.3 * g.dx / MAT1.c1
    m = assemble_propagator(1, g, MAT1, dt)
    assert m.shape == (4, 4)
    nu = MAT1.c1 * dt / g.dx
    diffuse = 0.5 * nu * nu
    drift = 0.5 * nu
    for i in (1, 2):
        assert m[i, i - 1] == pytest.approx(diffuse - drift, rel=1e-13)
        assert m[i, i] == pytest.approx(1.0 - 2.0 * diffuse, rel=1e-13)
        assert m[i, i + 1] == pytest.approx(diffuse + drift, rel=1e-13)
    assert m[1, 3] == 0.0 and m[2, 0] == 0.0
    # the edge rows reach only their two nearest nodes
    assert m[0, 2] == 0.0 and m[0, 3] == 0.0
    assert m[3, 0] == 0.0 and m[3, 1] == 0.0


def test_zero_vector_maps_to_zero():
    g = grid(32)
    p = assemble_propagator(2, g, MAT2, 0.1 * g.dx)
    assert np.all(p @ np.zeros(64) == 0.0)


def test_probe_fidelity_against_full_stepper_model1():
    g = grid(64)
    dt = 0.4 * g.dx / FREE1.c1
    scn = Scenario1(grid=g, mat=FREE1, dt=dt, t_end=1.0)
    p = assemble_propagator(1, g, FREE1, dt)
    rng = np.random.default_rng(11)
    for _ in range(10):
        phi = rng.standard_normal(g.n)
        state = State1(phi=phi.copy(), rho=np.zeros(g.n), j=np.zeros(g.n),
                       phi_a0=0.0, phi_a1=0.0, n=0, t=0.0)
        new_phi, new_rho, new_j = interior_step_m1(state, scn)
        rel = np.max(np.abs(p @ phi - new_phi)) / np.max(np.abs(new_phi))
        assert rel < 1e-13
        assert np.all(new_rho == 0.0) and np.all(new_j == 0.0)


def test_probe_fidelity_against_full_stepper_model2():
    g = grid(64)
    dt = 0.4 * g.dx / FREE2.c1
    scn = Scenario2(grid=g, mat=FREE2, dt=dt, t_end=1.0)
    p = assemble_propagator(2, g, FREE2, dt)
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = rng.standard_normal(2 * g.n)
        state = State2(phi=u[:g.n].copy(), psi=u[g.n:].copy(),
                       rho=np.zeros(g.n), j=np.zeros(g.n),
                       phi_a0=0.0, psi_a0=0.0, phi_a1=0.0, psi_a1=0.0,
                       n=0, t=0.0)
        new_phi, new_psi, _, _ = interior_step_m2(state, scn)
        got = p @ u
        want = np.concatenate([new_phi, new_psi])
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-13


def test_two_field_spectrum_is_the_union_of_signed_branches():
    # far from the CFL edge the dense eigensolve is reliable, and the
    # assembled doubled matrix must carry exactly the +-c branch spectra
    g = grid(60)
    dt = 0.4 * g.dx / 2.0
    m2 = assemble_propagator(2, g, MAT2, dt)
    rep = decomposition_check(g, MAT2, dt)
    plus = rep.m_even + 2.0 * rep.m_odd
    minus = rep.m_even - 2.0 * rep.m_odd
    ev2 = np.sort_complex(np.linalg.eigvals(m2))
    evu = np.sort_complex(np.concatenate([np.linalg.eigvals(plus),
                                          np.linalg.eigvals(minus)]))
    # eigenvalues of these nonnormal matrices carry a few orders of
    # rounding amplification even in the tame regime; the structural match
    # is far below the eigenvalue spacing
    assert np.max(np.abs(ev2 - evu)) < 1e-5


def test_invalid_inputs_rejected():
    # the model and material checks of every entry point: the two tests below
    g = grid(16)
    with pytest.raises(ValueError, match="dt"):
        assemble_propagator(1, g, MAT1, 0.0)
    with pytest.raises(ValueError, match="scan_points"):
        stability_bounds(1, g, MAT1, scan_points=8)
    with pytest.raises(ValueError, match="epsilon"):
        scan_stability(1, MAT1, 16, [1.5])


def lab_calls(model, g, mat):
    """Every lab entry point that takes a model and a material, at a small
    stable step."""
    return {"assemble_propagator": lambda: assemble_propagator(model, g, mat, 0.01),
            "stability_radius": lambda: stability_radius(model, g, mat, 0.01),
            "stability_bounds": lambda: stability_bounds(model, g, mat, scan_points=16),
            "scan_stability": lambda: scan_stability(model, mat, 16, [1.0],
                                                     scan_points=16),
            "homogeneous_run": lambda: homogeneous_run(model, g, mat, 0.01, 3)}


@pytest.mark.parametrize("model, mat, expected, given", [
    (1, MAT2, "Material1", "Material2"), (2, MAT1, "Material2", "Material1"),
    (1, None, "Material1", "NoneType"), (2, None, "Material2", "NoneType")],
    ids=["m1", "m2", "m1-none", "m2-none"])
def test_every_lab_entry_point_rejects_the_other_models_material(
        model, mat, expected, given):
    # stability_radius(1, grid, Material2) gave a radius, the model-2 entry
    # points died on a missing attribute, and homogeneous_run raised the
    # scenario's TypeError: one mistake, three outcomes.  The window search
    # read mat.c1 before its check, so None was an AttributeError there.
    g = grid(16)
    calls = lab_calls(model, g, mat)
    if model == 2:
        calls["decomposition_check"] = lambda: decomposition_check(g, mat, 0.01)
    for call in calls.values():
        with pytest.raises(TypeError,
                           match=f"model {model} needs a {expected}, got {given}"):
            call()


@pytest.mark.parametrize("model", [0, 3, -1, 1.5, None, "1", [1], True, 1.0,
                                   np.float64(2.0)])
@pytest.mark.parametrize("mat", [MAT1, MAT2], ids=["m1", "m2"])
def test_every_lab_entry_point_rejects_an_unknown_model(model, mat):
    # True and 1.0 compare equal to 1, and np.float64(2.0) to 2: only an
    # integer that is not a bool names a model
    for call in lab_calls(model, grid(16), mat).values():
        with pytest.raises(ValueError, match="model must be 1 or 2"):
            call()


@pytest.mark.parametrize("model, mat", [(1, MAT1), (2, MAT2)], ids=["m1", "m2"])
def test_a_numpy_integer_names_its_model(model, mat):
    g = grid(16)
    for call in lab_calls(np.int64(model), g, mat).values():
        call()
    assert stability_radius(np.int64(model), g, mat, 0.01) == \
        stability_radius(model, g, mat, 0.01)


BAD_STEPS = [-0.01, 0.0, math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("dt", BAD_STEPS)
def test_lab_rejects_a_bad_step(dt):
    # stability_radius(dt=-0.01) gave a radius, assemble_propagator(dt=inf)
    # a NaN matrix and homogeneous_run ran with a negative or NaN step
    g = grid(16)
    calls = [lambda: stability_radius(1, g, MAT1, dt),
             lambda: stability_radius(2, g, MAT2, dt),
             lambda: assemble_propagator(1, g, MAT1, dt),
             lambda: assemble_propagator(2, g, MAT2, dt),
             lambda: decomposition_check(g, MAT2, dt),
             lambda: homogeneous_run(1, g, MAT1, dt, 3),
             lambda: homogeneous_run(2, g, MAT2, dt, 3)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"^dt must be a positive finite number, got {dt!r}$"):
            call()


@pytest.mark.parametrize("steps", [-1, 2.5, 3.0, True, "3", None])
def test_homogeneous_run_rejects_a_bad_step_count(steps):
    # steps=-1 raised IndexError and steps=2.5 a numpy TypeError
    with pytest.raises(ValueError, match=f"^steps must be a finite integer >= 0, "
                       f"got {steps!r}$"):
        homogeneous_run(1, grid(16), MAT1, 0.01, steps)


def test_homogeneous_run_takes_any_non_negative_integer_count():
    g = grid(16)
    assert homogeneous_run(1, g, MAT1, 0.01, 0).shape == (1,)
    assert np.array_equal(homogeneous_run(2, g, MAT2, 0.01, np.int64(4)),
                          homogeneous_run(2, g, MAT2, 0.01, 4))


@pytest.mark.parametrize("model", [1, 2])
def test_homogeneous_run_draws_phi_then_psi(model):
    # the envelope of the scenario's own passes with zero traces, stepped
    # from fields drawn from the seed in state order
    g, dt = grid(16), 0.01
    if model == 1:
        (phi_pass,) = Scenario1(grid=g, mat=MAT1, dt=dt, t_end=1.0).lw_pass

        def step(phi):
            return [phi_pass(phi, 0.0, 0.0, phi, 0.0, 0.0)]
    else:
        phi_pass, psi_pass = Scenario2(grid=g, mat=MAT2, dt=dt, t_end=1.0).lw_pass

        def step(phi, psi):
            return [phi_pass(phi, 0.0, 0.0, psi, 0.0, 0.0),
                    psi_pass(psi, 0.0, 0.0, phi, 0.0, 0.0)]
    rng = np.random.default_rng(3)
    fields = [rng.standard_normal(g.n) for _ in range(model)]
    env = [max(np.max(np.abs(f)) for f in fields)]
    for _ in range(5):
        fields = step(*fields)
        env.append(max(np.max(np.abs(f)) for f in fields))
    mat = MAT1 if model == 1 else MAT2
    assert np.array_equal(homogeneous_run(model, g, mat, dt, 5, seed=3), env)


# ---------------------------------------------------------------------------
# stable window
# ---------------------------------------------------------------------------

def test_window_two_sided_and_contains_working_step():
    dom = stability_bounds(1, grid(100), MAT1)
    assert 0.0 < dom.tau1 < 0.4 < dom.tau2
    assert not dom.empty
    assert len(dom.samples) == 64
    taus = [s[0] for s in dom.samples]
    assert taus == sorted(taus)


def test_empty_window_is_representable():
    # every scanned step below the lower edge is unstable
    dom = stability_bounds(1, grid(64), MAT1, dt_max_factor=0.25,
                           scan_points=16)
    assert dom.empty
    assert math.isnan(dom.tau1) and math.isnan(dom.tau2)
    assert len(dom.samples) == 16


@pytest.mark.parametrize("epsilons", [[1.0], [0.0, 0.5, 1.0]],
                         ids=["single", "three"])
@pytest.mark.parametrize("model, mat", [(1, MAT1), (2, MAT2)], ids=["m1", "m2"])
def test_scan_single_epsilon_matches_bounds(model, mat, epsilons):
    rows = scan_stability(model, mat, 80, epsilons, scan_points=24)
    assert len(rows) == len(epsilons)
    for row, eps in zip(rows, epsilons):
        dom = stability_bounds(model, grid(80, eps), mat, scan_points=24)
        assert row == dom


def test_scan_ignores_eos_threads(monkeypatch):
    monkeypatch.setenv("EOS_THREADS", "abc")
    rows = scan_stability(1, MAT1, 40, [1.0], scan_points=16)
    assert rows == [stability_bounds(1, grid(40), MAT1, scan_points=16)]


@pytest.mark.parametrize("control, value", [
    ("bisect_tol", 0.0), ("bisect_tol", -1e-4), ("bisect_tol", math.nan),
    ("bisect_tol", math.inf), ("dt_max_factor", 0.0),
    ("dt_max_factor", -1.0), ("dt_max_factor", math.nan),
    ("dt_max_factor", math.inf), ("bisect_tol", True), ("dt_max_factor", True),
])
def test_scan_controls_must_be_positive_and_finite(control, value):
    # zero or negative values leave the bisection without progress; True ran
    # a scan as 1.0, where the config rejects it
    with pytest.raises(ValueError, match=control):
        stability_bounds(1, grid(16), MAT1, **{control: value})


@pytest.mark.parametrize("epsilon", [True, False, "0.5", -0.5, 1.5, math.nan])
def test_scan_epsilons_are_checked_by_the_grid(epsilon):
    # [True] scanned epsilon = 1.0, and ["0.5"] epsilon = 0.5
    with pytest.raises(ValueError, match="^epsilon must"):
        scan_stability(1, MAT1, 20, [epsilon])


@pytest.mark.parametrize("value", [16.5, 16.0, True, "16"])
def test_scan_points_must_be_an_integer(value):
    # 16.5 used to run 17 samples
    with pytest.raises(ValueError, match="scan_points"):
        stability_bounds(1, grid(16), MAT1, scan_points=value)


@pytest.mark.parametrize("runs, want", [
    ([(1, 4), (6, 9)], (6, 9)),     # equally wide: the later run
    ([(1, 5), (8, 11)], (1, 5)),    # a wider earlier run
    ([(0, 2), (4, 7), (9, 12)], (9, 12)),
    ([(3, 16)], (3, 16)),           # reaching the top of the scan
])
def test_the_window_is_the_widest_stable_run(monkeypatch, runs, want):
    """The window search's eigensolve (``_branch_radius``) driven by a fixed
    pattern over 16 scan points: point k (1-based, at tau = k/16) is stable
    when some run ``(a, b)`` has ``a < k <= b``, and the bisection lands
    halfway between scan points."""
    g = grid(16)

    def fake(probe, c, dt):
        k = 16.0 * dt * MAT1.c1 / g.dx
        return 0.5 if any(a + 0.5 < k < b + 0.5 for a, b in runs) else 2.0

    monkeypatch.setattr(stability, "_branch_radius", fake)
    dom = stability_bounds(1, g, MAT1, dt_max_factor=1.0, scan_points=16)
    assert [rho < 1.0 for _, rho in dom.samples] == [
        any(a < k <= b for a, b in runs) for k in range(1, 17)]
    lo, hi = want
    assert dom.tau1 == pytest.approx((lo + 0.5) / 16.0, rel=1e-4)
    if hi == 16:  # no upper transition: the top sample
        assert dom.tau2 == dom.samples[-1][0] == pytest.approx(1.0, abs=1e-15)
    else:
        assert dom.tau2 == pytest.approx((hi + 0.5) / 16.0, rel=1e-4)


def test_a_window_that_reaches_the_scan_top_ends_there():
    # the upper edge at epsilon = 1 lies above 0.6, so the stable run takes
    # the scan's last point and no upper transition is bisected
    g = grid(40)
    full = stability_bounds(1, g, MAT1, scan_points=16)
    assert full.tau2 > 0.6
    dom = stability_bounds(1, g, MAT1, dt_max_factor=0.6, scan_points=16)
    assert 0.0 < dom.tau1 < 0.6
    assert dom.tau2 == dom.samples[-1][0]
    assert dom.tau2 == pytest.approx(0.6, abs=1e-15)


def test_bisection_stops_at_float_resolution():
    # a tolerance below the float spacing must still end once the bracket
    # ends are adjacent floats
    fine = stability_bounds(1, grid(40), MAT1, scan_points=16, bisect_tol=1e-300)
    dom = stability_bounds(1, grid(40), MAT1, scan_points=16)
    assert fine.tau1 == pytest.approx(dom.tau1, rel=1e-4)
    assert fine.tau2 == pytest.approx(dom.tau2, rel=1e-4)


def plain_bisection(bad, good, stable, tol):
    """The edge in one ``(unstable dt, stable dt)`` bracket, bisected alone."""
    while abs(good - bad) > tol * 0.5 * (good + bad):
        mid = 0.5 * (bad + good)
        if mid in (bad, good):
            break
        if stable(mid):
            good = mid
        else:
            bad = mid
    return 0.5 * (bad + good)


@pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-300])
def test_the_search_finds_the_edges_of_a_plain_bisection(monkeypatch, tol):
    # Synthetic, eigensolver-free radii on three grids, stable for tau in
    # (lo, hi): a window from the scan floor, one to the scan top (0.9) and
    # none.  Every edge equals, bit for bit, the bisection of its own bracket.
    n, points, factor, c = 30, 16, 0.9, MAT1.c1
    windows = {0.0: (0.0, math.e / 5.0), 0.5: (math.pi / 11.0, 2.0), 1.0: (2.0, 2.0)}
    calls = []

    def stable(g, dt):
        lo, hi = windows[g.epsilon]
        return lo < dt * c / g.dx < hi

    def fake(g, speed, dt):  # the probe is the grid itself
        calls.append((g.epsilon, dt))
        return 0.5 if stable(g, dt) else 1.5

    monkeypatch.setattr(stability, "_diff_matrices", lambda g: g)
    monkeypatch.setattr(stability, "_branch_radius", fake)
    monkeypatch.setattr(stability, "_processes", lambda tasks: 1)
    floor, top, empty = scan_stability(1, MAT1, n, list(windows), scan_points=points,
                                       dt_max_factor=factor, bisect_tol=tol)

    def scan(g):
        return g.dx / c * factor * np.arange(1, points + 1) / points

    def edge(g, bad, good):
        dt = plain_bisection(bad, good, lambda dt: stable(g, dt), tol)
        return (dt * c / g.dx).hex()

    # from the scan floor: no eigensolve below the first scanned step
    g = grid(n, 0.0)
    row, k = scan(g), sum(stable(g, dt) for dt in scan(g))
    assert floor.tau1.hex() == floor.samples[0][0].hex() == (row[0] * c / g.dx).hex()
    assert floor.tau2.hex() == edge(g, row[k], row[k - 1])
    assert min(dt for eps, dt in calls if eps == 0.0) == row[0]
    # to the scan top
    g = grid(n, 0.5)
    row, k = scan(g), sum(not stable(g, dt) for dt in scan(g))
    assert top.tau1.hex() == edge(g, row[k - 1], row[k])
    assert top.tau2.hex() == top.samples[-1][0].hex() == (row[-1] * c / g.dx).hex()
    # no stable step
    assert empty.empty and math.isnan(empty.tau2)
    assert 0 < k < points and len(calls) > 3 * points


@pytest.mark.parametrize("model, mat", [(1, MAT1), (2, MAT2)], ids=["m1", "m2"])
def test_a_scan_of_no_epsilon_is_empty(model, mat):
    assert scan_stability(model, mat, 16, []) == []
    # and checks its model all the same: a model 3 scan of nothing was []
    with pytest.raises(ValueError, match="model must be 1 or 2"):
        scan_stability(3, mat, 16, [])


def test_uniform_window_no_narrower_than_stretched():
    rows = scan_stability(1, MAT1, 80, [0.0, 1.0], scan_points=24,
                          bisect_tol=1e-3)
    uniform, stretched = rows
    if uniform.empty or stretched.empty:
        pytest.fail("expected stable windows at both stretchings")
    assert (uniform.tau2 - uniform.tau1) >= (stretched.tau2 - stretched.tau1)


def test_window_classification_matches_time_stepping():
    g = grid(64)
    dom = stability_bounds(1, g, MAT1, scan_points=32)
    inside = 0.5 * (dom.tau1 + dom.tau2) * g.dx / MAT1.c1
    below = 0.8 * dom.tau1 * g.dx / MAT1.c1
    env = homogeneous_run(1, g, MAT1, inside, 640, seed=3)
    q = len(env) // 4
    assert env[-q:].max() <= env[:q].max() * (1 + 1e-6)
    env = homogeneous_run(1, g, MAT1, below, 640, seed=3)
    assert env.max() > 10.0 * env[0]


# ---------------------------------------------------------------------------
# structure: even/odd split and block form
# ---------------------------------------------------------------------------

def test_even_odd_split_is_exact():
    g = grid(48)
    rep = decomposition_check(g, MAT2, 0.4 * g.dx / 2.0)
    assert rep.split_residual < 1e-13
    assert rep.odd_interior_diag == 0.0


def test_block_reconstruction_matches_assembled_pair_matrix():
    g = grid(48)
    rep = decomposition_check(g, MAT2, 0.4 * g.dx / 2.0)
    assert rep.block_error < 1e-12


def test_block_scaling_with_asymmetric_coupling():
    # same product mu1*nu1 (same speed), different split between the fields
    skew = Material2(mu1=4.0, nu1=1.0, mu0=1.0, nu0=1.0,
                     alpha=0.0, beta=0.0, gamma=0.0)
    g = grid(40)
    rep = decomposition_check(g, skew, 0.3 * g.dx / 2.0)
    assert rep.block_error < 1e-12


def test_signed_branch_steppers_agree_with_matrices():
    # the +c branch of the pair is model 1's pass at c1 = c = 2
    g = grid(40)
    dt = 0.35 * g.dx / 2.0
    rep = decomposition_check(g, MAT2, dt)
    (phi_pass,) = Scenario1(grid=g, mat=MAT1, dt=dt, t_end=1.0).lw_pass
    assert MAT1.c1 == 2.0
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.n)
    plus = (rep.m_even + 2.0 * rep.m_odd) @ v
    assert np.max(np.abs(plus - phi_pass(v, 0.0, 0.0, v, 0.0, 0.0))) < 1e-13


# ---------------------------------------------------------------------------
# homogeneous runs
# ---------------------------------------------------------------------------

def test_envelope_shape_and_determinism():
    g = grid(32)
    env = homogeneous_run(2, g, MAT2, 0.2 * g.dx / 2.0, 25, seed=9)
    assert env.shape == (26,)
    assert env[0] > 0.0
    again = homogeneous_run(2, g, MAT2, 0.2 * g.dx / 2.0, 25, seed=9)
    assert np.array_equal(env, again)


def test_pair_step_constant_state_with_matching_bc_is_inert():
    g = grid(32)
    phi_pass, psi_pass = Scenario2(grid=g, mat=MAT2, dt=0.01, t_end=1.0).lw_pass
    phi = np.full(g.n, 1.3)
    psi = np.full(g.n, -0.4)
    nphi = phi_pass(phi, 1.3, 1.3, psi, -0.4, -0.4)
    npsi = psi_pass(psi, -0.4, -0.4, phi, 1.3, 1.3)
    assert np.max(np.abs(nphi - 1.3)) < 1e-14
    assert np.max(np.abs(npsi + 0.4)) < 1e-14
