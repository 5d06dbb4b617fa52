"""Two-potential solver: stepping, coupled boundary solves, verification."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoscatter.grid import GridSpec, Material2
from eoscatter.history import DelayBuffer
from eoscatter.mms import ManufacturedFields2
from eoscatter.model2 import (
    DivergenceError,
    Scenario2,
    State2,
    boundary_map,
    boundary_update_m2,
    interior_step_m2,
    run_m2,
)
from eoscatter.sources import RUN_QUAD_REL_TOL, GaussianSource

from oracles import (
    gaussian_line_integral,
    model2_face_systems,
    model2_traces,
    reference_step_m2,
    slab_reflection_traces,
    step_increments_longhand,
)

MAT = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MATCHED = Material2(
    mu1=1.0, nu1=1.0, mu0=1.0, nu0=1.0, alpha=0.0, beta=0.0, gamma=0.0
)
PULSE = GaussianSource(
    amplitude=1.0, x_center=4.0, space_rate=36.0, t_center=1.0, time_rate=4.0
)


def scenario(n=100, mat=MAT, cfl=0.4, t_end=2.0, **kw):
    grid = GridSpec(0.0, 3.0, n)
    dt = cfl * grid.dx / mat.c1
    return Scenario2(grid=grid, mat=mat, dt=dt, t_end=t_end, **kw)


def test_both_face_maps_solve_their_systems_of_determinant_det():
    # the paper's systems from the oracle; det = 2*c1*c0 + mu0*nu1 + mu1*nu0
    # by hand, for MAT and for a material with mu != nu (c1 = 2, c0 = 1)
    asym = Material2(mu1=3.0, nu1=4.0 / 3.0, mu0=2.0, nu0=0.5,
                     alpha=-1.0, beta=0.3, gamma=8.0)
    for mat, det in ((MAT, 8.0), (asym, 49.0 / 6.0)):
        left, right, mix_out, mix_back = model2_face_systems(mat)
        a, b, c, d = boundary_map(mat)
        assert np.linalg.det(left) == pytest.approx(det, rel=1e-14)
        assert np.linalg.det(right) == pytest.approx(det, rel=1e-14)
        assert np.allclose(left @ [[a, b], [c, d]], mix_out, atol=1e-14)
        assert np.allclose(right @ [[a, -b], [-c, d]], mix_back, atol=1e-14)


def test_null_run_is_exactly_zero():
    res = run_m2(scenario(n=16, t_end=1.0))
    for series in (res.phi_a0, res.psi_a0, res.phi_a1, res.psi_a1):
        assert np.all(series == 0.0)
    for arr in (res.final.phi, res.final.psi, res.final.rho, res.final.j):
        assert np.all(arr == 0.0)


def test_quadratic_profile_steps_exactly():
    free = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0,
                     alpha=0.0, beta=0.0, gamma=0.0)
    scn = scenario(n=20, mat=free)
    g = scn.grid
    state = State2(
        phi=g.x**2, psi=g.x**2, rho=np.zeros(g.n), j=np.zeros(g.n),
        phi_a0=g.a0**2, psi_a0=g.a0**2, phi_a1=g.a1**2, psi_a1=g.a1**2,
        n=0, t=0.0,
    )
    phi, psi, rho, j = interior_step_m2(state, scn)
    dt = scn.dt
    want_phi = g.x**2 + dt * free.mu1 * 2.0 * g.x + 0.5 * dt**2 * (
        free.mu1 * free.nu1 * 2.0
    )
    want_psi = g.x**2 + dt * free.nu1 * 2.0 * g.x + 0.5 * dt**2 * (
        free.mu1 * free.nu1 * 2.0
    )
    assert np.max(np.abs(phi - want_phi)) < 1e-12
    assert np.max(np.abs(psi - want_psi)) < 1e-12
    assert np.all(rho == 0.0) and np.all(j == 0.0)


def test_single_step_matches_longhand_oracle():
    scn = scenario(n=40)
    g = scn.grid
    rng = np.random.default_rng(11)
    state = State2(
        phi=rng.standard_normal(g.n), psi=rng.standard_normal(g.n),
        rho=rng.standard_normal(g.n), j=rng.standard_normal(g.n),
        phi_a0=0.21, psi_a0=-0.4, phi_a1=0.9, psi_a1=0.05, n=0, t=0.0,
    )
    got = interior_step_m2(state, scn)
    want = reference_step_m2(
        state.phi, state.psi, state.rho, state.j,
        state.phi_a0, state.phi_a1, state.psi_a0, state.psi_a1,
        MAT.mu1, MAT.nu1, MAT.alpha, MAT.beta, MAT.gamma, g.dx, scn.dt,
    )
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-13


def test_terms_step_matches_longhand_oracle():
    """Random residual terms, handed to the step as the increments the oracle
    forms from them, step as the longhand step of the terms does."""
    # mu1 != nu1, so a swapped coupling coefficient shows
    mat = Material2(mu1=3.0, nu1=4.0 / 3.0, mu0=2.0, nu0=0.5,
                    alpha=-1.0, beta=0.3, gamma=8.0)
    scn = scenario(n=40, mat=mat)
    g = scn.grid
    rng = np.random.default_rng(12)
    state = State2(
        phi=rng.standard_normal(g.n), psi=rng.standard_normal(g.n),
        rho=rng.standard_normal(g.n), j=rng.standard_normal(g.n),
        phi_a0=0.21, psi_a0=-0.4, phi_a1=0.9, psi_a1=0.05, n=0, t=0.0,
    )
    terms = {k: rng.standard_normal(g.n) for k in
             ("phi", "phi_dx", "phi_dt", "psi", "psi_dx", "psi_dt",
              "rho", "rho_dt", "j", "j_dx")}
    terms_next = {k: rng.standard_normal(g.n) for k in terms}
    got = interior_step_m2(state, scn, *(step_increments_longhand(r, mat, scn.dt)
                                         for r in (terms, terms_next)))
    want = reference_step_m2(
        state.phi, state.psi, state.rho, state.j,
        state.phi_a0, state.phi_a1, state.psi_a0, state.psi_a1,
        mat.mu1, mat.nu1, mat.alpha, mat.beta, mat.gamma, g.dx, scn.dt,
        terms, terms_next,
    )
    homogeneous = interior_step_m2(state, scn)
    for a, b, h in zip(got, want, homogeneous):
        assert np.max(np.abs(a - b)) < 1e-13
        assert np.max(np.abs(a - h)) > 1e-6  # the terms took part


def histories(scn, fill_j=0.0, fill_pair=(0.0, 0.0), levels=6):
    g = scn.grid
    window = scn.transit + 2 * scn.dt
    j_hist = DelayBuffer(scn.t0, scn.dt, window, shape=(g.n,))
    p0 = DelayBuffer(scn.t0, scn.dt, window, shape=(2,))
    p1 = DelayBuffer(scn.t0, scn.dt, window, shape=(2,))
    for _ in range(levels):
        j_hist.append(np.full(g.n, fill_j))
        p0.append(np.array(fill_pair))
        p1.append(np.array(fill_pair))
    return j_hist, p0, p1


def current_sums(scn, j_hist, t_next):
    """The leftward and rightward boundary integrals of the current: the
    retarded sums, read with query_each, times the node weight dx/c1."""
    g, c1 = scn.grid, scn.mat.c1
    return tuple(g.dx / c1 * np.sum(j_hist.query_each(t_next - delays))
                 for delays in ((g.x - g.a0) / c1, (g.a1 - g.x) / c1))


def test_boundary_update_zero_histories_zero_incident():
    g = GridSpec(0.0, 3.0, 8)
    scn = Scenario2(grid=g, mat=MAT, dt=0.3, t_end=2.0)
    j_hist, p0, p1 = histories(scn)
    left, right = current_sums(scn, j_hist, 1.2)
    delay = 1.2 - scn.transit
    got = boundary_update_m2(boundary_map(MAT), left, right, p0.query(delay),
                             p1.query(delay), scn.incident(np.array([1.2]))[0].tolist())
    assert got == (0.0, 0.0, 0.0, 0.0)


def test_boundary_update_constant_incident_pair():
    g = GridSpec(0.0, 3.0, 8)
    mat = MAT
    scn = Scenario2(grid=g, mat=mat, dt=0.3, t_end=2.0, source=PULSE)
    j_hist, p0, p1 = histories(scn)
    left, right = current_sums(scn, j_hist, 1.2)
    delay = 1.2 - scn.transit
    got = boundary_update_m2(boundary_map(mat), left, right, p0.query(delay),
                             p1.query(delay), (1.0, mat.nu0 / mat.c0))
    assert got[:2] == (0.0, 0.0)
    rhs = 2.0 * mat.c0 * np.array([1.0, mat.nu0 / mat.c0])
    want = np.linalg.solve(model2_face_systems(mat)[1], rhs)
    assert got[2] == pytest.approx(want[0], rel=1e-13)
    assert got[3] == pytest.approx(want[1], rel=1e-13)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.tuples(*[st.floats(0.2, 5.0)] * 4), seed=st.integers(0, 2**16))
def test_float_solves_match_linalg_solve(coeffs, seed):
    # the closed-form float solves (boundary_map for both faces and the
    # incident pair's drive) against np.linalg.solve of the paper's two systems;
    # rounding is bounded componentwise, |A| |x| for A @ x
    mu1, nu1, mu0, nu0 = coeffs
    mat = Material2(mu1=mu1, nu1=nu1, mu0=mu0, nu0=nu0,
                    alpha=-1.0, beta=0.3, gamma=8.0)
    sys_left, sys_right, mix_out, mix_back = model2_face_systems(mat)
    rng = np.random.default_rng(seed)
    left, right, psi0, psi1, p0, q0, p1, q1, pe, se = rng.normal(size=10).tolist()
    face = boundary_map(mat)
    # the march hands over each retarded sum times the node weight dx/c1
    w = GridSpec(0.0, 3.0, 8).dx / mat.c1
    got = boundary_update_m2(face, w * left, w * right, (p0, q0), (p1, q1), (pe, se),
                             (w * psi0, w * psi1))
    assert all(type(v) is float for v in got)
    x0 = np.array([w * left + p1, w * psi0 + q1])
    incoming = np.array([[mat.c0, mat.mu0], [mat.nu0, mat.c0]])
    inc = incoming @ np.array([pe, se])
    x1 = np.array([w * right + p0, w * psi1 + q0])
    want0 = np.linalg.solve(sys_left, mix_out @ x0)
    want1 = np.linalg.solve(sys_right, mix_back @ x1 + inc)
    size0 = np.abs(np.linalg.inv(sys_left)) @ np.abs(mix_out) @ np.abs(x0)
    size1 = np.abs(np.linalg.inv(sys_right)) @ (np.abs(mix_back) @ np.abs(x1) + np.abs(inc))
    assert np.all(np.abs(np.array(got[:2]) - want0) <= 1e-14 * size0)
    assert np.all(np.abs(np.array(got[2:]) - want1) <= 1e-14 * size1)
    # an incident pair (psi = nu0*phi/c0, as incident_pair builds it) comes
    # in whole: its drive, the right face's traces when every sum and
    # delayed pair is zero, is right^-1 @ (2*c0*pair)
    pair = np.array([pe, mat.nu0 * pe / mat.c0])
    got_inc = np.array(boundary_update_m2(face, 0.0, 0.0, (0.0, 0.0), (0.0, 0.0),
                                          pair.tolist())[2:])
    inc = 2.0 * mat.c0 * pair
    size = np.abs(np.linalg.inv(sys_right)) @ np.abs(inc)
    assert np.all(np.abs(got_inc - np.linalg.solve(sys_right, inc)) <= 1e-14 * size)


def test_mms_step_local_error_is_third_order():
    errs = {}
    for n in (100, 200):
        scn = scenario(n=n, mms=ManufacturedFields2.demo())
        g, t = scn.grid, 1.9
        mms = scn.mms
        state = State2(
            phi=mms.phi.value(g.x, t), psi=mms.psi.value(g.x, t),
            rho=mms.rho.value(g.x, t), j=mms.j.value(g.x, t),
            phi_a0=float(mms.phi.value(g.a0, t)),
            psi_a0=float(mms.psi.value(g.a0, t)),
            phi_a1=float(mms.phi.value(g.a1, t)),
            psi_a1=float(mms.psi.value(g.a1, t)), n=0, t=t,
        )
        increments_at = scn.residuals(mms, scn.mat).at(g.x, scn.dt)
        inc = increments_at(t), increments_at(t + scn.dt)
        out = interior_step_m2(state, scn, *inc)
        t1 = t + scn.dt
        exact = (
            mms.phi.value(g.x, t1), mms.psi.value(g.x, t1),
            mms.rho.value(g.x, t1), mms.j.value(g.x, t1),
        )
        errs[n] = [np.max(np.abs(a - b)) for a, b in zip(out, exact)]
    assert 6.0 < errs[100][0] / errs[200][0] < 10.0
    assert 6.0 < errs[100][1] / errs[200][1] < 10.0
    assert errs[100][2] / errs[200][2] > 4.0
    assert errs[100][3] / errs[200][3] > 4.0


def test_mms_run_tracks_exact_solution():
    scn = scenario(n=100, mms=ManufacturedFields2.demo(), t_end=2.0)
    res = run_m2(scn)
    g, t = scn.grid, res.final.t
    for name in ("phi", "psi"):
        num = getattr(res.final, name)
        ex = getattr(scn.mms, name).value(g.x, t)
        ref = np.max(np.abs(ex))
        assert ref > 0.5
        assert np.max(np.abs(num - ex)) < 0.05 * ref


def test_divergence_error_names_step():
    grid = GridSpec(0.0, 3.0, 16)
    dt = 3.0 * grid.dx / MAT.c1
    scn = Scenario2(
        grid=grid, mat=MAT, dt=dt, t_end=500 * dt, mms=ManufacturedFields2.demo()
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step"):
            run_m2(scn)


def test_impedance_matched_medium_is_transparent():
    scn = scenario(n=200, mat=MATCHED, t_end=4.0, source=PULSE)
    res = run_m2(scn)
    peak = np.max(np.abs(res.phi_a1))
    assert peak > 0.1
    # no reflection: the left-going component at the right boundary stays tiny
    reflected = (MATCHED.c0 * res.phi_a1 - MATCHED.mu0 * res.psi_a1) / (
        2.0 * MATCHED.c0
    )
    assert np.max(np.abs(reflected)) < 2e-2 * peak
    # interior field equals the freely propagating incident wave
    g = scn.grid
    t = res.final.t
    delays = (g.a1 - g.x) / MATCHED.c0
    want = np.interp(t - delays, res.times, res.phi_a1)
    err = np.max(np.abs(res.final.phi - want))
    assert err < 2e-2 * peak


MISMATCHED = Material2(mu1=3.0, nu1=4.0 / 3.0, mu0=2.0, nu0=0.5,
                       alpha=0.0, beta=0.0, gamma=0.0)


def test_mismatched_slab_matches_the_reflection_series():
    # Z1 = 1.5 against Z0 = 2: both boundary systems reflect part of each
    # pass back into the slab, which the matched medium above never does.
    # The traces carry no interior stencil error (no current, so the
    # retarded sums are zero), which leaves the incident quadrature's
    # tolerance as the bound; on these grids the errors read 1.3e-7 to
    # 6.4e-7 of max.
    tic = time.perf_counter()
    m, src = MISMATCHED, PULSE

    def incident(s):
        return gaussian_line_integral(
            src.amplitude, src.x_center, src.space_rate, src.t_center,
            src.time_rate, a1=3.0, c0=m.c0, t=s, t0=0.0,
            x_lo=src.support[0], x_hi=src.support[1]) / (2.0 * m.c0)

    for eps in (0.0, 0.5, 1.0):
        for n in (100, 200, 400, 800):
            g = GridSpec(0.0, 3.0, n, epsilon=eps)
            res = run_m2(Scenario2(grid=g, mat=m, dt=0.4 * g.dx / m.c1,
                                   t_end=6.0, source=src))
            want = np.array([slab_reflection_traces(
                incident, t, length=3.0, mu1=m.mu1, nu1=m.nu1, mu0=m.mu0,
                nu0=m.nu0) for t in res.times.tolist()]).T
            got = (res.phi_a0, res.psi_a0, res.phi_a1, res.psi_a1)
            for name, a, b in zip(("phi_a0", "psi_a0", "phi_a1", "psi_a1"),
                                  got, want):
                err = np.max(np.abs(a - b)) / np.max(np.abs(b))
                assert err < RUN_QUAD_REL_TOL, (eps, n, name, err)
    assert time.perf_counter() - tic < 60.0


def _slab(mat):
    """``mat``'s coefficients as the keywords of ``model2_traces``."""
    return dict(mu1=mat.mu1, nu1=mat.nu1, mu0=mat.mu0, nu0=mat.nu0,
                alpha=mat.alpha, gamma=mat.gamma)


def test_transfer_function_oracle_matches_the_reflection_series():
    # alpha = gamma = 0 on the mismatched slab: the damped FFT against the
    # multiple-reflection series, a one-pass transit of 1.5 = 300 steps
    dt = 0.005
    t = dt * np.arange(1600)

    def pulse(s):
        return math.exp(-(((s - 1.0) / 0.15) ** 2))

    got = model2_traces([pulse(s) for s in t.tolist()], dt, length=3.0,
                        **_slab(MISMATCHED))
    want = np.array([slab_reflection_traces(
        pulse, s, length=3.0, mu1=MISMATCHED.mu1, nu1=MISMATCHED.nu1,
        mu0=MISMATCHED.mu0, nu0=MISMATCHED.nu0) for s in t.tolist()]).T
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_transfer_function_oracle_delays_a_matched_slab():
    # equal impedances (Z1 = Z0 = 1) and no current: phi crosses a0 one
    # transit T = length/c1 = 0.5 (50 whole steps) after it arrives, with
    # psi = phi/Z0, and nothing is reflected back out at a1
    dt = 0.01
    t = dt * np.arange(400)
    f = np.exp(-(((t - 1.0) / 0.1) ** 2))
    mat = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
    delayed = np.concatenate((np.zeros(50), f[:-50]))
    got = model2_traces(f, dt, length=1.0, **_slab(mat))
    for a, b in zip(got, (delayed, delayed, f, f)):
        assert np.max(np.abs(a - b)) < 1e-8


def test_traces_converge_at_order_two_to_the_transfer_function_oracle():
    # fig4's source on the mismatched slab with a current (alpha = -1,
    # gamma = 8, beta = 0, where the slab is linear), against H(s) applied
    # to the march's own incident phi row, so the incident quadrature drops
    # out.  The a0 traces carry the largest error, 5.99e-5 to 8.57e-7 of
    # max (orders 2.05, 2.05, 2.03); the a1 traces read 3.5e-6 to 4.0e-8
    # and converge faster than order 2 on these grids (2.17, 2.17, 2.13),
    # so their bound is one-sided
    tic = time.perf_counter()
    mat = replace(MISMATCHED, alpha=-1.0, gamma=8.0)
    errors = []
    for n in (100, 200, 400, 800):
        g = GridSpec(0.0, 3.0, n, 1.0)
        scn = Scenario2(grid=g, mat=mat, dt=0.4 * g.dx / mat.c1, t_end=4.0,
                        source=PULSE)
        res = run_m2(scn)
        want = model2_traces(scn.incident(res.times)[:, 0], scn.dt, length=g.length,
                             **_slab(mat))
        got = (res.phi_a0, res.psi_a0, res.phi_a1, res.psi_a1)
        errors.append([np.max(np.abs(a - b)) / np.max(np.abs(b))
                       for a, b in zip(got, want)])
    orders = np.log2(np.divide(errors[:-1], errors[1:]))
    assert np.all((orders[:, :2] > 1.9) & (orders[:, :2] < 2.1)), (errors, orders)
    assert np.all(orders[:, 2:] > 1.9), (errors, orders)
    assert time.perf_counter() - tic < 30.0


def test_scenario_rejects_nonfinite_times():
    for kw in ({"t_end": float("inf")}, {"t0": float("nan")}):
        with pytest.raises(ValueError, match="finite"):
            scenario(**kw)


def test_both_models_share_the_run_quadrature_tolerance():
    from eoscatter import model1, model2, sources

    assert model1.RUN_QUAD_REL_TOL == model2.RUN_QUAD_REL_TOL == sources.RUN_QUAD_REL_TOL
    scn = scenario(source=PULSE)
    times = np.linspace(0.0, scn.t_end, 41)
    want = np.stack(sources.incident_pair(PULSE, scn.grid.a1, scn.mat, scn.t0,
                                          times, sources.RUN_QUAD_REL_TOL),
                    axis=-1)
    assert np.array_equal(scn.incident(times), want)
