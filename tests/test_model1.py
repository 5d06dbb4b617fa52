"""One-potential solver: stepping, boundary rules, and verification runs."""

import time

import numpy as np
import pytest

from eoscatter.grid import GridSpec, Material1, SpatialOps
from eoscatter.history import DelayBuffer, RetardedSum
from eoscatter.mms import ManufacturedFields1
from eoscatter.model1 import (
    DivergenceError,
    Scenario1,
    State1,
    boundary_a0_m1,
    boundary_a1_m1,
    interior_step_m1,
    run_m1,
)
from eoscatter.sources import GaussianSource

from oracles import model1_left_trace, reference_step_m1, step_increments_longhand

MAT = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
FREE = Material1(c1=2.0, c0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
PULSE = GaussianSource(
    amplitude=5.0, x_center=4.0, space_rate=36.0, t_center=0.5, time_rate=4.0
)


def scenario(n=100, mat=MAT, cfl=0.4, t_end=2.0, **kw):
    grid = GridSpec(0.0, 3.0, n)
    dt = cfl * grid.dx / mat.c1
    return Scenario1(grid=grid, mat=mat, dt=dt, t_end=t_end, **kw)


def test_null_run_is_exactly_zero():
    res = run_m1(scenario(n=16, t_end=1.0), snapshot_times=[0.5])
    assert np.all(res.phi_a0 == 0.0)
    assert np.all(res.phi_a1 == 0.0)
    assert np.all(res.final.phi == 0.0)
    assert np.all(res.final.rho == 0.0)
    assert np.all(res.final.j == 0.0)
    (t_snap, snap), = res.snapshots
    assert t_snap == 0.5 and np.all(snap.phi == 0.0)


def test_quadratic_profile_steps_exactly():
    scn = scenario(n=20, mat=FREE)
    g = scn.grid
    state = State1(
        phi=g.x**2, rho=np.zeros(g.n), j=np.zeros(g.n),
        phi_a0=g.a0**2, phi_a1=g.a1**2, n=0, t=0.0,
    )
    phi, rho, j = interior_step_m1(state, scn)
    c1, dt = FREE.c1, scn.dt
    want = g.x**2 + dt * c1 * 2.0 * g.x + 0.5 * dt**2 * c1**2 * 2.0
    assert np.max(np.abs(phi - want)) < 1e-12
    assert np.all(rho == 0.0) and np.all(j == 0.0)


def test_single_step_matches_longhand_oracle():
    scn = scenario(n=40)
    g = scn.grid
    rng = np.random.default_rng(7)
    state = State1(
        phi=rng.standard_normal(g.n), rho=rng.standard_normal(g.n),
        j=rng.standard_normal(g.n), phi_a0=0.37, phi_a1=-0.52, n=0, t=0.0,
    )
    got = interior_step_m1(state, scn)
    want = reference_step_m1(
        state.phi, state.rho, state.j, state.phi_a0, state.phi_a1,
        MAT.c1, MAT.alpha, MAT.beta, MAT.gamma, g.dx, scn.dt,
    )
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-13


def test_terms_step_matches_longhand_oracle():
    """Random residual terms, handed to the step as the increments the oracle
    forms from them, step as the longhand step of the terms does."""
    scn = scenario(n=40)
    g = scn.grid
    rng = np.random.default_rng(8)
    state = State1(
        phi=rng.standard_normal(g.n), rho=rng.standard_normal(g.n),
        j=rng.standard_normal(g.n), phi_a0=0.37, phi_a1=-0.52, n=0, t=0.0,
    )
    terms = {k: rng.standard_normal(g.n) for k in
             ("phi", "phi_dx", "phi_dt", "rho", "rho_dt", "j", "j_dx")}
    terms_next = {k: rng.standard_normal(g.n) for k in terms}
    got = interior_step_m1(state, scn, *(step_increments_longhand(r, MAT, scn.dt)
                                         for r in (terms, terms_next)))
    want = reference_step_m1(
        state.phi, state.rho, state.j, state.phi_a0, state.phi_a1,
        MAT.c1, MAT.alpha, MAT.beta, MAT.gamma, g.dx, scn.dt,
        terms, terms_next,
    )
    homogeneous = interior_step_m1(state, scn)
    for a, b, h in zip(got, want, homogeneous):
        assert np.max(np.abs(a - b)) < 1e-13
        assert np.max(np.abs(a - h)) > 1e-6  # the terms took part


def test_boundary_a0_all_masked_is_zero():
    scn = scenario(n=8)
    g = scn.grid
    dt = 0.05
    scn = Scenario1(grid=g, mat=MAT, dt=dt, t_end=1.0)
    j_hist = DelayBuffer(0.0, dt, scn.transit + 2 * dt, shape=(g.n,))
    pa1_hist = DelayBuffer(0.0, dt, scn.transit + 2 * dt)
    for _ in range(4):
        j_hist.append(np.ones(g.n))
        pa1_hist.append(1.0)
    # earliest node arrival is gap_a0/c1; query before that
    t_next = 0.5 * g.gap_a0 / MAT.c1
    assert t_next < g.gap_a0 / MAT.c1
    # the march hands over the sum times the node weight dx/c1
    current = g.dx / MAT.c1 * np.sum(j_hist.query_each(t_next - (g.x - g.a0) / MAT.c1))
    assert boundary_a0_m1(current, pa1_hist.query(t_next - scn.transit)) == 0.0


def test_boundary_a0_delayed_passthrough():
    g = GridSpec(0.0, 3.0, 8)
    dt = 0.4
    scn = Scenario1(grid=g, mat=MAT, dt=dt, t_end=2.0)
    j_hist = DelayBuffer(0.0, dt, scn.transit + 2 * dt, shape=(g.n,))
    pa1_hist = DelayBuffer(0.0, dt, scn.transit + 2 * dt)
    for _ in range(7):
        j_hist.append(np.zeros(g.n))
        pa1_hist.append(1.0)
    # past the transit 1.5 and its first interval, so the delayed constant
    # passes through exactly
    t_next = 2.2
    assert scn.transit < t_next
    current = g.dx / MAT.c1 * np.sum(j_hist.query_each(t_next - (g.x - g.a0) / MAT.c1))
    got = boundary_a0_m1(current, pa1_hist.query(t_next - scn.transit))
    assert got == pytest.approx(1.0, abs=1e-13)


def test_mms_step_local_error_is_third_order():
    errs = {}
    for n in (100, 200):
        scn = scenario(n=n, mms=ManufacturedFields1.demo())
        g, t = scn.grid, 1.9
        mms = scn.mms
        state = State1(
            phi=mms.phi.value(g.x, t), rho=mms.rho.value(g.x, t),
            j=mms.j.value(g.x, t),
            phi_a0=float(mms.phi.value(g.a0, t)),
            phi_a1=float(mms.phi.value(g.a1, t)), n=0, t=t,
        )
        increments_at = scn.residuals(mms, scn.mat).at(g.x, scn.dt)
        inc = increments_at(t), increments_at(t + scn.dt)
        phi, rho, j = interior_step_m1(state, scn, *inc)
        t1 = t + scn.dt
        errs[n] = (
            np.max(np.abs(phi - mms.phi.value(g.x, t1))),
            np.max(np.abs(rho - mms.rho.value(g.x, t1))),
            np.max(np.abs(j - mms.j.value(g.x, t1))),
        )
    # dt scales with dx, so one-step errors should shrink ~8x per refinement
    assert 6.0 < errs[100][0] / errs[200][0] < 10.0
    assert errs[100][1] / errs[200][1] > 4.0
    assert errs[100][2] / errs[200][2] > 4.0


def test_divergence_error_names_step():
    grid = GridSpec(0.0, 3.0, 16)
    dt = 3.0 * grid.dx / MAT.c1  # far beyond the stable window
    scn = Scenario1(
        grid=grid, mat=MAT, dt=dt, t_end=2000 * dt,
        mms=ManufacturedFields1.demo(),
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step"):
            run_m1(scn)


def test_trace_delay_identity_with_material_response_off():
    scn = scenario(n=200, mat=FREE, t_end=4.0, source=PULSE)
    res = run_m1(scn)
    shift = round(scn.transit / scn.dt)
    assert shift == 500
    got = res.phi_a0[shift:]
    want = res.phi_a1[:-shift]
    peak = np.max(np.abs(res.phi_a1))
    assert peak > 0.1  # the incident actually arrived
    assert np.max(np.abs(got - want)) < 1e-9 * peak


def test_transfer_function_oracle_delays_a_matched_slab():
    # alpha = gamma = 0 leaves H(s) = exp(-s*T), a pure delay; T = 0.5 is
    # 50 whole steps, so the oracle shifts the samples by 50
    dt = 0.01
    t = dt * np.arange(400)
    right = np.exp(-(((t - 1.0) / 0.1) ** 2))
    got = model1_left_trace(right, dt, length=1.0, c1=2.0, alpha=0.0, gamma=0.0)
    want = np.concatenate((np.zeros(50), right[:-50]))
    assert np.max(np.abs(got - want)) < 1e-8


def test_left_trace_converges_at_order_two_to_the_transfer_function_oracle():
    # fig2's source and material with beta = 0, where the slab is linear:
    # the left trace against H(s) applied to the march's own right trace, so
    # the incident quadrature drops out.  Errors over max read 2.60e-4,
    # 6.53e-5, 1.62e-5 and 3.99e-6 (orders 2.00, 2.01, 2.02)
    tic = time.perf_counter()
    mat = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.0, gamma=8.0)
    source = GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0)
    errors = []
    for n in (100, 200, 400, 800):
        g = GridSpec(0.0, 3.0, n, 1.0)
        scn = Scenario1(grid=g, mat=mat, dt=0.4 * g.dx / mat.c1, t_end=4.0,
                        source=source)
        res = run_m1(scn)
        want = model1_left_trace(res.phi_a1, scn.dt, length=g.length, c1=mat.c1,
                                 alpha=mat.alpha, gamma=mat.gamma)
        errors.append(np.max(np.abs(res.phi_a0 - want)) / np.max(np.abs(want)))
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((orders > 1.9) & (orders < 2.1)), (errors, orders)
    assert time.perf_counter() - tic < 30.0


def test_scenario_rejects_source_inside_domain():
    bad = GaussianSource(1.0, 2.0, 36.0, 0.5, 4.0)  # support straddles a1=3
    with pytest.raises(ValueError, match="support"):
        scenario(source=bad)


def test_scenario_rejects_nonfinite_times():
    for kw in ({"t_end": float("inf")}, {"t_end": float("nan")},
               {"t0": float("-inf")}, {"t0": float("nan")}):
        with pytest.raises(ValueError, match="finite"):
            scenario(**kw)


def test_boundary_a0_fixed_lag_reader_matches_direct_sum():
    # the solver's left sum, a RetardedSum fed every level and weighted by
    # dx/c1 as the march weights it, against the trace written out from
    # query_each reads of the whole current history
    scn = scenario(n=12, t_end=1.0)
    g = scn.grid
    delays = (g.x - g.a0) / MAT.c1
    j_hist = DelayBuffer(0.0, scn.dt, scn.transit + 2 * scn.dt, shape=(g.n,))
    pa1_hist = DelayBuffer(0.0, scn.dt, scn.transit + 2 * scn.dt)
    left = RetardedSum(0.0, scn.dt, delays)
    rng = np.random.default_rng(3)
    for level in range(40):
        j = rng.normal(size=g.n)
        j_hist.append(j)
        current = left.push(j)
        pa1_hist.append(rng.normal())
    t_next = 39 * scn.dt
    want = (g.dx / MAT.c1 * np.sum(j_hist.query_each(t_next - delays))
            + pa1_hist.query(t_next - scn.transit))
    got = boundary_a0_m1(g.dx / MAT.c1 * current, pa1_hist.query(t_next - scn.transit))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_scenario_rejects_double_driving():
    with pytest.raises(ValueError, match="both"):
        scenario(source=PULSE, mms=ManufacturedFields1.demo())


def test_mms_run_tracks_exact_solution():
    scn = scenario(n=100, mms=ManufacturedFields1.demo(), t_end=2.0)
    res = run_m1(scn)
    g = scn.grid
    t = res.final.t
    err = np.max(np.abs(res.final.phi - scn.mms.phi.value(g.x, t)))
    ref = np.max(np.abs(scn.mms.phi.value(g.x, t)))
    assert ref > 0.5  # the pulse is inside the domain at t_end
    assert err < 0.05 * ref


def frozen_phi_growth(n: int, big_phi: float, amp: float = 1e-8) -> float:
    """Growth per time unit of the step's (rho, j) response at k*dx = pi/2,
    with phi and both traces held at ``big_phi`` (fig2's material with
    alpha = 0, so zero rho and j are a steady state): the spectral radius of
    the 4x4 one-step map of the (cos, sin) mode coefficients of rho and j,
    read at a mid-grid node pair, to the power 1/dt."""
    mat = Material1(c1=2.0, c0=1.0, alpha=0.0, beta=0.3, gamma=8.0)
    scn = scenario(n=n, mat=mat, cfl=0.4)
    i = np.arange(n)
    modes = (np.cos(0.5 * np.pi * i), np.sin(0.5 * np.pi * i))
    pair = slice(n // 2, n // 2 + 2)
    basis = np.array([modes[0][pair], modes[1][pair]]).T
    cols = []
    for field in ("rho", "j"):
        for mode in modes:
            kicked = {"rho": np.zeros(n), "j": np.zeros(n), field: amp * mode}
            state = State1(phi=np.full(n, big_phi), **kicked,
                           phi_a0=big_phi, phi_a1=big_phi, n=0, t=0.0)
            _, rho, j = interior_step_m1(state, scn)
            cols.append(np.concatenate([np.linalg.solve(basis, f[pair] / amp)
                                        for f in (rho, j)]))
    radius = np.max(np.abs(np.linalg.eigvals(np.array(cols).T)))
    return radius ** (1.0 / scn.dt)


def test_frozen_phi_density_current_growth_rises_with_n():
    # the rho/j subsystem at frozen phi is ill-posed wherever beta*phi != 0:
    # per time unit the step's k*dx = pi/2 mode grows x4.2, x19.8, x222,
    # x7.86e3 at phi = 1 and x1.24 ... x27.5 at phi = 0.28 (N = 400 ... 3200)
    tic = time.perf_counter()
    for big_phi in (1.0, 0.28):
        growth = [frozen_phi_growth(n, big_phi) for n in (400, 800, 1600, 3200)]
        assert all(a < b for a, b in zip(growth, growth[1:])), (big_phi, growth)
        if big_phi == 1.0:
            assert growth[2] > 100.0
    assert time.perf_counter() - tic < 1.0
