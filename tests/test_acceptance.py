"""Acceptance gate: the eleven primary checks, one test (and one printed
pass line) per criterion.

Each test pins the stated tolerance and the stated runtime budget.  The
printed line carries the measured numbers so a log of this file doubles as
the acceptance record; run with ``pytest -s`` (or ``-rA``) to see the lines.
"""

import time

import numpy as np
import pytest

from eoscatter import (
    GaussianSource,
    GridSpec,
    ManufacturedFields1,
    ManufacturedFields2,
    Material1,
    Material2,
    Scenario1,
    Scenario2,
    assemble_propagator,
    characteristic_integral,
    convergence_order,
    decomposition_check,
    homogeneous_run,
    incident_pair,
    mms_run,
    run_m1,
    run_m2,
    stability_bounds,
)
from eoscatter.cli import main
from eoscatter.model1 import interior_step_m1, State1
from eoscatter.model2 import interior_step_m2, State2

from oracles import gaussian_line_integral

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0,
                 alpha=-1.0, beta=0.3, gamma=8.0)
SRC1 = GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0)
SRC2 = GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)


def _passed(num: str, detail: str) -> None:
    print(f"criterion {num}: PASS — {detail}")


def _mms_ladder(model: int, mat, family, budget: float) -> None:
    tic = time.perf_counter()
    reports = []
    for n in (100, 200, 400):
        grid = GridSpec(0.0, 3.0, n)
        dt = 0.4 * grid.dx / mat.c1
        reports.append(mms_run(model, family, grid, mat, dt, 2.0))
    orders = convergence_order(reports)
    for field, seq in orders.items():
        for p in seq:
            assert 1.8 < p < 2.2, f"{field} order {p} outside [1.8, 2.2]"

    grid = GridSpec(0.0, 3.0, 1600)
    fine = mms_run(model, family, grid, mat, 0.4 * grid.dx / mat.c1, 2.0)
    worst = max(fine.linf.values())
    assert worst < 1e-3, f"fine-grid Linf {worst} >= 1e-3"

    elapsed = time.perf_counter() - tic
    assert elapsed < budget
    flat = {f: [round(p, 3) for p in seq] for f, seq in orders.items()}
    return f"orders {flat}, Linf@1600 {worst:.3e}, {elapsed:.1f}s"


def test_c01_mms_convergence_model1():
    detail = _mms_ladder(1, MAT1, ManufacturedFields1.demo(), 60.0)
    _passed("01 mms model 1", detail)


def test_c02_mms_convergence_model2():
    detail = _mms_ladder(2, MAT2, ManufacturedFields2.demo(), 120.0)
    _passed("02 mms model 2", detail)


def test_c03_null_and_causality():
    tic = time.perf_counter()

    # no source, no manufactured fields: everything stays exactly zero
    grid = GridSpec(0.0, 3.0, 200)
    r1 = run_m1(Scenario1(grid=grid, mat=MAT1, dt=0.4 * grid.dx / 2.0,
                          t_end=2.0))
    assert np.all(r1.phi_a0 == 0.0) and np.all(r1.phi_a1 == 0.0)
    assert np.all(r1.final.phi == 0.0) and np.all(r1.final.rho == 0.0)
    assert np.all(r1.final.j == 0.0)
    r2 = run_m2(Scenario2(grid=grid, mat=MAT2, dt=0.4 * grid.dx / 2.0,
                          t_end=2.0))
    for series in (r2.phi_a0, r2.psi_a0, r2.phi_a1, r2.psi_a1):
        assert np.all(series == 0.0)
    for arr in (r2.final.phi, r2.final.psi, r2.final.rho, r2.final.j):
        assert np.all(arr == 0.0)

    # driven runs: the left trace carries nothing before the incident signal
    # has reached the right boundary and crossed the interior at speed c1.
    # "Nothing" is enforced at 1e-15 of the trace maximum: interior stepping
    # leaks a numerically silent precursor (measured <= 2e-20 of max here)
    # because the stencil's grid speed exceeds c1, so a bitwise-zero check is
    # not attainable; see the repository notes.
    dusts = []
    grid = GridSpec(0.0, 3.0, 1600)
    dt = 0.4 * grid.dx / 2.0
    transit = grid.length / 2.0
    run1 = run_m1(Scenario1(grid=grid, mat=MAT1, dt=dt, t_end=2.5,
                            source=SRC1))
    run2 = run_m2(Scenario2(grid=grid, mat=MAT2, dt=dt, t_end=2.5,
                            source=SRC2))
    for times, right, lefts in (
        (run1.times, run1.phi_a1, (run1.phi_a0,)),
        (run2.times, run2.phi_a1, (run2.phi_a0, run2.psi_a0)),
    ):
        t_arrival = times[np.nonzero(right != 0.0)[0][0]]
        pre = times < t_arrival + transit - dt  # one-step slack
        assert np.any(right != 0.0)
        for left in lefts:
            dust = np.max(np.abs(left[pre])) / np.max(np.abs(left))
            assert dust <= 1e-15, f"pre-causal leakage {dust} of max"
            dusts.append(dust)

    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    _passed("03 null + causality",
            f"zero runs bitwise zero; pre-causal dust <= {max(dusts):.2e} "
            f"of max, {elapsed:.1f}s")


def test_c04_delay_identity():
    tic = time.perf_counter()
    grid = GridSpec(0.0, 3.0, 800)
    mat = Material1(c1=2.0, c0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
    dt = 0.4 * grid.dx / mat.c1
    lag = grid.length / mat.c1 / dt
    assert abs(lag - round(lag)) < 1e-9  # transit is a whole number of steps
    lag = int(round(lag))
    res = run_m1(Scenario1(grid=grid, mat=mat, dt=dt, t_end=4.0, source=SRC1))
    rel = (np.max(np.abs(res.phi_a0[lag:] - res.phi_a1[:-lag]))
           / np.max(np.abs(res.phi_a1)))
    assert rel < 1e-3
    elapsed = time.perf_counter() - tic
    assert elapsed < 20.0
    _passed("04 delay identity", f"rel Linf {rel:.3e}, {elapsed:.1f}s")


def test_c05_impedance_matched_transparency():
    tic = time.perf_counter()
    grid = GridSpec(0.0, 3.0, 400)
    mat = Material2(mu1=2.0, nu1=2.0, mu0=2.0, nu0=2.0,
                    alpha=0.0, beta=0.3, gamma=8.0)
    dt = 0.4 * grid.dx / mat.c1
    res = run_m2(Scenario2(grid=grid, mat=mat, dt=dt, t_end=4.0, source=SRC2))
    incident = np.array([incident_pair(SRC2, grid.a1, mat, 0.0, t)
                         for t in res.times])
    reflected = max(np.max(np.abs(res.phi_a1 - incident[:, 0])),
                    np.max(np.abs(res.psi_a1 - incident[:, 1])))
    reference = mms_run(2, ManufacturedFields2.demo(), grid, mat, dt, 2.0)
    bound = 5.0 * reference.linf["phi"]
    assert reflected < bound, f"reflected {reflected} vs 5x mms {bound}"
    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    _passed("05 matched transparency",
            f"reflected {reflected:.3e} < {bound:.3e}, {elapsed:.1f}s")


def test_c06_quadrature_vs_closed_form():
    tic = time.perf_counter()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for src, c0 in ((SRC1, 1.0), (SRC2, 1.0)):
        for t in rng.uniform(0.1, 4.0, size=50):
            got = characteristic_integral(src, 3.0, c0, 0.0, float(t))
            want = gaussian_line_integral(
                src.amplitude, src.x_center, src.space_rate, src.t_center,
                src.time_rate, a1=3.0, c0=c0, t=float(t), t0=0.0,
                x_lo=src.support[0], x_hi=src.support[1])
            worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-8
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    _passed("06 quadrature vs erf",
            f"worst rel err {worst:.3e} over 2x50 random times, {elapsed:.1f}s")


def test_c07_stability_anchor():
    tic = time.perf_counter()
    grid = GridSpec(0.0, 1.0, 200, epsilon=1.0)
    dom = stability_bounds(1, grid, MAT1)
    assert 0.0 < dom.tau1 < 0.4 < dom.tau2
    elapsed = time.perf_counter() - tic
    assert elapsed < 120.0
    _passed("07 stability anchor",
            f"window ({dom.tau1:.6f}, {dom.tau2:.6f}) brackets 0.4, "
            f"{elapsed:.1f}s")


def test_c08_cross_model_coincidence():
    tic = time.perf_counter()
    details = []
    for eps in (0.5, 1.0):
        grid = GridSpec(0.0, 1.0, 200, epsilon=eps)
        d1 = stability_bounds(1, grid, MAT1)
        d2 = stability_bounds(2, grid, MAT2)
        for k, (a, b) in enumerate(((d1.tau1, d2.tau1), (d1.tau2, d2.tau2)),
                                   start=1):
            rel = abs(a - b) / a
            assert rel < 1e-3, f"eps={eps} tau{k}: {a} vs {b} rel {rel}"
            details.append(f"eps={eps} tau{k} rel {rel:.2e}")
    elapsed = time.perf_counter() - tic
    assert elapsed < 300.0
    _passed("08 cross-model windows", f"{'; '.join(details)}, {elapsed:.1f}s")


def test_c09_criterion_soundness():
    tic = time.perf_counter()
    grid = GridSpec(0.0, 1.0, 200, epsilon=1.0)
    growths = {}
    for model, mat in ((1, MAT1), (2, MAT2)):
        dt_unit = grid.dx / mat.c1
        for tau, expect_stable in ((0.33, False), (0.45, True),
                                   (0.70, True), (0.80, False)):
            env = homogeneous_run(model, grid, mat, tau * dt_unit, 2000)
            assert np.all(np.isfinite(env))
            ratio = env[-1] / env[0]
            growths[(model, tau)] = ratio
            if expect_stable:
                assert ratio < 0.5, f"model {model} tau={tau} held at {ratio}"
            else:
                assert ratio > 10.0, f"model {model} tau={tau} grew only {ratio}"
    elapsed = time.perf_counter() - tic
    assert elapsed < 60.0
    shown = {k: f"{v:.2e}" for k, v in growths.items()}
    _passed("09 window soundness", f"growth ratios {shown}, {elapsed:.1f}s")


def test_c10_probe_fidelity_and_block_structure():
    tic = time.perf_counter()
    grid = GridSpec(0.0, 1.0, 60, epsilon=0.7)
    free1 = Material1(c1=2.0, c0=1.0, alpha=0.0, beta=0.0, gamma=0.0)
    free2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0,
                      alpha=0.0, beta=0.0, gamma=0.0)
    dt = 0.4 * grid.dx / 2.0
    rng = np.random.default_rng(11)
    zeros = np.zeros(grid.n)

    m1 = assemble_propagator(1, grid, free1, dt)
    scn1 = Scenario1(grid=grid, mat=free1, dt=dt, t_end=10 * dt)
    worst = 0.0
    for _ in range(10):
        v = rng.standard_normal(grid.n)
        state = State1(v.copy(), zeros.copy(), zeros.copy(), 0.0, 0.0, 0, 0.0)
        stepped, _, _ = interior_step_m1(state, scn1)
        worst = max(worst, np.max(np.abs(m1 @ v - stepped))
                    / np.max(np.abs(stepped)))

    m2 = assemble_propagator(2, grid, free2, dt)
    scn2 = Scenario2(grid=grid, mat=free2, dt=dt, t_end=10 * dt)
    for _ in range(10):
        v = rng.standard_normal(2 * grid.n)
        state = State2(v[:grid.n].copy(), v[grid.n:].copy(), zeros.copy(),
                       zeros.copy(), 0.0, 0.0, 0.0, 0.0, 0, 0.0)
        phi, psi, _, _ = interior_step_m2(state, scn2)
        stepped = np.concatenate([phi, psi])
        worst = max(worst, np.max(np.abs(m2 @ v - stepped))
                    / np.max(np.abs(stepped)))
    assert worst < 1e-13

    report = decomposition_check(grid, free2, dt)
    assert report.block_error < 1e-12
    elapsed = time.perf_counter() - tic
    assert elapsed < 10.0
    _passed("10 probe fidelity",
            f"stepper mismatch {worst:.2e}, block reconstruction "
            f"{report.block_error:.2e}, {elapsed:.1f}s")


def test_c11_byte_identical_reruns(tmp_path):
    tic = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig2-run-m1", "--out", str(a)]) == 0
    assert main(["run", "--preset", "fig2-run-m1", "--out", str(b)]) == 0
    names = ["boundary.csv"] + [f"snapshot_{t}.csv"
                                for t in ("1.0", "2.0", "3.0", "4.0")]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    elapsed = time.perf_counter() - tic
    _passed("11 determinism",
            f"{len(names)} files byte-identical across reruns, {elapsed:.1f}s")
