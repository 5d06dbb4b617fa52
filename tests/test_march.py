"""The marching core both solvers share: checks made once for both models."""

import math
import tracemalloc
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoscatter import model1, model2
from eoscatter.grid import GridSpec, Material1, Material2, SpatialOps
from eoscatter.march import DivergenceError
from eoscatter.mms import GaussianBump, ManufacturedFields1, ManufacturedFields2
from eoscatter.model1 import Scenario1, State1, run_m1
from eoscatter.model2 import Scenario2, State2, run_m2
from eoscatter.sources import GaussianSource

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MODELS = {1: (Scenario1, run_m1, MAT1), 2: (Scenario2, run_m2, MAT2)}
FIELDS = {1: ManufacturedFields1, 2: ManufacturedFields2}


def null_scenario(model, t_end=1.0, **kw):
    scenario, _, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, 16)
    return scenario(grid=grid, mat=mat, dt=0.4 * grid.dx / mat.c1, t_end=t_end, **kw)


@pytest.mark.parametrize("model", [1, 2])
def test_run_rejects_snapshot_times_outside_the_run(model):
    run = MODELS[model][1]
    scn = null_scenario(model)
    for t_req in (5.0, -3.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="snapshot time"):
            run(scn, snapshot_times=[t_req])
    # both ends are kept, with the configuration parser's 1e-12 slack
    res = run(scn, snapshot_times=[0.0, 1.0 + 1e-13])
    assert [t for t, _ in res.snapshots] == [0.0, 1.0 + 1e-13]
    assert [s.n for _, s in res.snapshots] == [0, scn.steps]


@pytest.mark.parametrize("model, step", [(1, 576), (2, 507)])
def test_a_diverging_run_raises_no_numpy_warning(model, step):
    # fig2's and fig4's material and source at N = 55 and dt_cfl 0.2: the
    # interior step overflowed, and numpy warned, before the finiteness
    # check raised
    scenario, run, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, 55)
    src = GaussianSource(amplitude=5.0 if model == 1 else 1.0, x_center=4.0,
                         space_rate=36.0, t_center=0.5 if model == 1 else 1.0,
                         time_rate=4.0)
    scn = scenario(grid=grid, mat=mat, dt=0.2 * grid.dx / mat.c1, t_end=4.0,
                   source=src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run(scn)
    assert info.value.step == step


@pytest.mark.parametrize("model, mat, mms, expected", [
    (1, MAT2, None, "Material1"),
    (1, MAT1, ManufacturedFields2.demo(), "ManufacturedFields1"),
    (2, MAT1, None, "Material2"),
    (2, MAT2, ManufacturedFields1.demo(), "ManufacturedFields2"),
])
def test_scenario_rejects_the_other_models_inputs(model, mat, mms, expected):
    scenario = MODELS[model][0]
    grid = GridSpec(0.0, 3.0, 16)
    with pytest.raises(TypeError, match=expected):
        scenario(grid=grid, mat=mat, dt=0.01, t_end=1.0, mms=mms)


@pytest.mark.parametrize("model", [1, 2])
def test_snapshots_own_their_arrays(model):
    run = MODELS[model][1]
    res = run(null_scenario(model), snapshot_times=[1.0])
    (_, snap), final = res.snapshots[0], res.final
    assert snap.n == final.n
    snap.phi[0] = 1.0
    assert final.phi[0] == 0.0 and np.all(final.rho == 0.0)


STEPPERS = {1: (model1, "interior_step_m1"), 2: (model2, "interior_step_m2")}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("model, field", [
    (1, "phi"), (1, "rho"), (1, "j"),
    (2, "phi"), (2, "psi"), (2, "rho"), (2, "j"),
])
def test_one_bad_value_in_any_field_stops_the_run(monkeypatch, model, field, bad):
    module, name = STEPPERS[model]
    step = getattr(module, name)
    scn = null_scenario(model)
    at = 3

    def poisoned(state, *args):
        fields = list(step(state, *args))
        if state.n + 1 == at:
            k = scn.field_names.index(field)
            fields[k] = fields[k].copy()
            fields[k][5] = bad
        return tuple(fields)

    monkeypatch.setattr(module, name, poisoned)
    with pytest.raises(DivergenceError) as info:
        MODELS[model][1](scn, snapshot_times=[0.0])
    err = info.value
    t = scn.t0 + at * scn.dt
    assert str(err) == f"non-finite fields at step {at} (t = {t:.6g})"
    assert err.step == at
    part = err.partial
    assert part.final.n == at - 1 and len(part.times) == at
    assert [s.n for _, s in part.snapshots] == [0]
    for name in scn.field_names:
        assert np.all(getattr(part.final, name) == 0.0)


@pytest.mark.parametrize("model", [1, 2])
def test_huge_finite_fields_are_not_divergence(monkeypatch, model):
    """Values whose sum overflows are still finite and must pass the check."""
    module, name = STEPPERS[model]
    scn = null_scenario(model, t_end=0.1)

    def huge(state, *args):
        return tuple(np.full(scn.grid.n, 1e308) for _ in scn.field_names)

    monkeypatch.setattr(module, name, huge)
    with np.errstate(over="ignore", invalid="ignore"):
        res = MODELS[model][1](scn)
    assert res.final.n == scn.steps and np.all(res.final.rho == 1e308)


@pytest.mark.parametrize("model", [1, 2])
def test_boundary_sums_keep_no_nodal_history(model):
    # a production-size run: the retarded current sums need O(N) memory, not
    # an N-wide ring over the whole transit (49 MiB here)
    scenario, run, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, 1600)
    dt = 0.4 * grid.dx / mat.c1
    source = GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)
    scn = scenario(grid=grid, mat=mat, dt=dt, t_end=20 * dt, source=source)
    tracemalloc.start()
    try:
        res = run(scn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.final.n == 20
    assert peak < 8 * 2**20


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("drive", ["source", "mms", "null"])
def test_closures_trade_in_python_floats(monkeypatch, model, drive):
    # the traces a closure starts with and returns every step are Python
    # floats: numpy scalars would cost the per-step scalar work several
    # times over
    module = {1: model1, 2: model2}[model]
    name = f"_closure_m{model}"
    closure, seen = getattr(module, name), []

    def spy(scn, j0, terms, incident):
        start, close = closure(scn, j0, terms, incident)
        seen.append(start)

        def spied(n, j, terms):
            seen.append(close(n, j, terms))
            return seen[-1]
        return start, spied

    monkeypatch.setattr(module, name, spy)
    kw = {"source": {"source": GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)},
          "mms": {"mms": FIELDS[model].demo()}, "null": {}}[drive]
    scn = null_scenario(model, t_end=3.0, **kw)
    res = MODELS[model][1](scn)
    assert len(seen) == scn.steps + 1
    assert {type(v) for traces in seen for v in traces} == {float}
    assert np.max(np.abs(res.phi_a0)) > 0.0 or drive == "null"


class Supported:
    """A zero source on the support ``support``, as a duck-typed source."""

    def __init__(self, support):
        self.support = support

    def __call__(self, x, t):
        return np.zeros(np.broadcast(x, t).shape)


@pytest.mark.parametrize("support", [(math.nan, 5.0), (4.0, math.nan), (5.0, 4.0)])
@pytest.mark.parametrize("model", [1, 2])
def test_scenario_rejects_a_support_that_is_not_lo_below_hi(model, support):
    # a NaN lower end passed the check that the support starts beyond a1
    with pytest.raises(ValueError, match="support"):
        null_scenario(model, source=Supported(support))
    null_scenario(model, source=Supported((4.0, 5.0)))


@pytest.mark.parametrize("model", [1, 2])
def test_manufactured_potentials_must_be_quiet_at_the_start(model):
    # the boundary histories are zero before t0, so the exact potentials
    # must be too; the demo pulse reaches [3, 6] by t = 1.5
    scenario, _, mat = MODELS[model]
    grid, demo = GridSpec(3.0, 6.0, 100), FIELDS[model].demo()
    with pytest.raises(ValueError, match="phi is not quiet"):
        scenario(grid=grid, mat=mat, dt=0.01, t_end=2.0, t0=1.5, mms=demo)
    scenario(grid=grid, mat=mat, dt=0.01, t_end=2.0, mms=demo)
    if model == 2:
        loud = replace(demo, psi=GaussianBump(1.0, 4.5, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="psi is not quiet"):
            scenario(grid=grid, mat=mat, dt=0.01, t_end=2.0, mms=loud)


@pytest.mark.parametrize("n, t_end", [(40, 1.0), (1600, 0.1)])
@pytest.mark.parametrize("model", [1, 2])
def test_manufactured_sources_are_evaluated_once_per_level(monkeypatch, model,
                                                           n, t_end):
    """The nodal evaluator is built once per run, and each level's nodal
    terms are evaluated once with it, K = max(1, 2048 // N) levels per call
    (at N = 40 in blocks of 51 levels and a last one of 17, at N = 1600 one
    scalar call per level), and carried into the next step and into the
    retarded sums: no source is evaluated at retarded points, and the exact
    right traces are evaluated before the loop.  A level makes one N-node
    exponential, model 2's demo psi being phi's pulse; the two bumps keep
    their x factors and make one exponential of the times each."""
    scenario, run, mat = MODELS[model]
    module, name = STEPPERS[model]
    grid = GridSpec(0.0, 3.0, n)
    scn = scenario(grid=grid, mat=mat, dt=0.4 * grid.dx / mat.c1, t_end=t_end,
                   mms=FIELDS[model].demo())
    times = scn.t0 + scn.dt * np.arange(scn.steps + 1)
    block = max(1, 2048 // n)
    exp, at, step = np.exp, scn.residuals.at, getattr(module, name)
    exps = [0, 0, 0]  # N-node exps and exp calls in the evaluator, others
    inside = [False]
    built, nodal, retarded, steps = [], [], [], []

    def counted_exp(z, *args, **kw):
        if inside[0]:
            if np.shape(z)[-1:] == (grid.n,):
                exps[0] += np.size(z) // grid.n
            exps[1] += 1
        else:
            exps[2] += 1
        return exp(z, *args, **kw)

    def spied_at(self, x):
        built.append(x)
        terms_at = at(self, x)

        def spied_terms_at(t, order=2):
            if np.shape(t) in ((), (min(block, len(times) - len(nodal)), 1)):
                nodal.extend(np.ravel(t).tolist())
            else:
                retarded.append(t)
            inside[0] = True
            try:
                return terms_at(t, order)
            finally:
                inside[0] = False

        return spied_terms_at

    def spied_step(state, *args):
        steps.append((state.n, exps[2], args[1:]))
        return step(state, *args)

    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(scn.residuals, "at", spied_at)
    monkeypatch.setattr(module, name, spied_step)
    run(scn)
    monkeypatch.undo()
    calls = -(-len(times) // block)
    assert exps[:2] == [len(times), 3 * calls]
    assert {others for _, others, _ in steps} == {steps[0][1]}  # none in the loop
    assert len(built) == 1 and np.array_equal(built[0], grid.x)
    assert nodal == times.tolist()
    assert retarded == []
    # the terms a step is given are those of a fresh evaluation, bit for bit
    sources = scn.residuals(scn.mms, scn.mat)
    for at_n, _, levels in steps:
        for level, got in zip((at_n, at_n + 1), levels, strict=True):
            want = sources.src_terms(grid.x, times[level].item())
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)


def unfused_step(state, scn, terms=None, terms_next=None):
    """The interior step composed of :class:`SpatialOps`' per-derivative
    stencils, the operators the stability lab probes: the Taylor step of the
    potentials and the density, then the Heun corrector of the current."""
    ops, m, dt, s = SpatialOps(scn.grid), scn.mat, scn.dt, state
    r, r1 = defaultdict(float, terms or {}), defaultdict(float, terms_next or {})
    f = (m.alpha - m.beta * s.rho) * s.phi - m.gamma * s.j
    dj = ops.d1_confined(s.j)
    dphi = ops.d1_closed(s.phi, s.phi_a0, s.phi_a1)
    d2phi = ops.d2_closed(s.phi, s.phi_a0, s.phi_a1)
    if isinstance(scn, Scenario1):
        potentials = [s.phi + dt * (m.c1 * dphi + s.j + r["phi"]) + 0.5 * dt**2 * (
            m.c1**2 * d2phi + m.c1 * dj + f + m.c1 * r["phi_dx"] + r["phi_dt"]
            + r["j"])]
    else:
        dpsi = ops.d1_closed(s.psi, s.psi_a0, s.psi_a1)
        d2psi = ops.d2_closed(s.psi, s.psi_a0, s.psi_a1)
        c2 = m.mu1 * m.nu1
        potentials = [
            s.phi + dt * (m.mu1 * dpsi + s.j + r["phi"]) + 0.5 * dt**2 * (
                c2 * d2phi + f + r["j"] + m.mu1 * r["psi_dx"] + r["phi_dt"]),
            s.psi + dt * (m.nu1 * dphi + r["psi"]) + 0.5 * dt**2 * (
                c2 * d2psi + m.nu1 * dj + m.nu1 * r["phi_dx"] + r["psi_dt"]),
        ]
    rho = s.rho + dt * (-dj + r["rho"]) + 0.5 * dt**2 * (
        -ops.d1_confined(f) + r["rho_dt"] - r["j_dx"])
    j_pred = s.j + dt * (f + r["j"])
    f_next = (m.alpha - m.beta * rho) * potentials[0] - m.gamma * j_pred + r1["j"]
    return (*potentials, rho, 0.5 * (s.j + j_pred + dt * f_next))


TERM_NAMES = ("phi", "phi_dx", "phi_dt", "psi", "psi_dx", "psi_dt",
              "rho", "rho_dt", "j", "j_dx")


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from([1, 2]), n=st.integers(4, 60),
       epsilon=st.floats(0.0, 1.0), cfl=st.floats(0.05, 1.0),
       speeds=st.lists(st.floats(0.25, 4.0), min_size=4, max_size=4),
       response=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       with_terms=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fused_step_is_the_scheme_the_stability_lab_probes(
        model, n, epsilon, cfl, speeds, response, with_terms, seed):
    """The one-pass interior step equals the composition of the stencils
    :mod:`eoscatter.stability` builds its matrices from, on every grid of
    the family, with and without manufactured terms."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(0.0, 1.0, n, epsilon)
    if model == 1:
        mat, state_cls, step = Material1(*speeds[:2], *response), State1, model1.interior_step_m1
    else:
        mat, state_cls, step = Material2(*speeds, *response), State2, model2.interior_step_m2
    scn = MODELS[model][0](grid=grid, mat=mat, dt=cfl * grid.dx / mat.c1,
                           t_end=1.0)
    fields = [rng.standard_normal(n) for _ in scn.field_names]
    state = state_cls(*fields, *rng.standard_normal(2 * model), 0, 0.0)
    terms = terms_next = None
    if with_terms:
        terms = {k: rng.standard_normal(n) for k in TERM_NAMES}
        terms_next = {"j": rng.standard_normal(n)}
    got = step(state, scn, terms, terms_next)
    want = unfused_step(state, scn, terms, terms_next)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
