"""The marching core both solvers share: checks made once for both models."""

import inspect
import json
import math
import pickle
import tracemalloc
import warnings
from array import array
from collections import defaultdict
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eoscatter import cli, model1, model2
from eoscatter.config import parse_config
from eoscatter.grid import GridSpec, Material1, Material2, SpatialOps
from eoscatter.history import DelayBuffer
from eoscatter.march import DivergenceError, _levels, interior_step, march
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


@pytest.mark.parametrize("model, n, cfl, t_end, step", [
    pytest.param(1, 55, 0.2, 40.0, 576, id="1-576"),
    pytest.param(2, 55, 0.2, 40.0, 507, id="2-507"),
    pytest.param(2, 80, 0.3, 40.0, 688, id="2-688"),
    pytest.param(2, 40, 2.0, 4.0, 30, id="2-30"),
    pytest.param(1, 40, 2.0, 4.0, 28, id="1-28"),
])
def test_a_diverging_run_raises_no_numpy_warning(model, n, cfl, t_end, step):
    # fig2's and fig4's material and source on unstable steps: the interior
    # step overflowed, and numpy warned, before the finiteness check raised.
    # Each pinned step is the first whose output has a non-finite field;
    # the march finds it from the current and psi alone
    scenario, run, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, n)
    src = GaussianSource(amplitude=5.0 if model == 1 else 1.0, x_center=4.0,
                         space_rate=36.0, t_center=0.5 if model == 1 else 1.0,
                         time_rate=4.0)
    scn = scenario(grid=grid, mat=mat, dt=cfl * grid.dx / mat.c1, t_end=t_end,
                   source=src)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as info:
            run(scn)
    assert info.value.step == step
    final = info.value.partial.final
    assert final.n == step - 1
    for name in scn.field_names:
        assert np.all(np.isfinite(getattr(final, name)))


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


@pytest.mark.parametrize("grid", [None, (0.0, 3.0, 16)])
@pytest.mark.parametrize("model", [1, 2])
def test_scenario_rejects_a_grid_that_is_not_a_gridspec(model, grid):
    # None raised AttributeError from the transit check
    scenario, _, mat = MODELS[model]
    with pytest.raises(TypeError, match=f"{scenario.__name__} needs a GridSpec"):
        scenario(grid=grid, mat=mat, dt=0.01, t_end=1.0)


@pytest.mark.parametrize("module, name, names", [
    (model1, "State1", ("phi", "rho", "j", "phi_a0", "phi_a1", "n", "t")),
    (model2, "State2", ("phi", "psi", "rho", "j", "phi_a0", "psi_a0",
                        "phi_a1", "psi_a1", "n", "t")),
    (model1, "Run1Result", ("scenario", "times", "phi_a0", "phi_a1",
                            "snapshots", "final")),
    (model2, "Run2Result", ("scenario", "times", "phi_a0", "psi_a0", "phi_a1",
                            "psi_a1", "snapshots", "final")),
])
def test_the_built_state_and_result_classes_keep_their_public_identity(
        module, name, names):
    # the march builds these from each model's potentials; their fields,
    # positional order, module and name are what callers and pickle see
    cls = getattr(module, name)
    assert tuple(f.name for f in fields(cls)) == names
    assert tuple(inspect.signature(cls).parameters) == names
    assert (cls.__module__, cls.__qualname__, cls.__name__) == (module.__name__, name, name)


@pytest.mark.parametrize("model", [1, 2])
def test_a_state_and_a_result_survive_a_pickle_round_trip(model):
    source = GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)
    res = MODELS[model][1](null_scenario(model, t_end=0.5, source=source),
                           snapshot_times=[0.25])
    back = pickle.loads(pickle.dumps(res))
    assert type(back) is type(res) and type(back.final) is type(res.final)
    assert back.scenario == res.scenario
    for got, want in ((back.final, res.final), (back.snapshots[0][1], res.snapshots[0][1])):
        for f in fields(want):
            np.testing.assert_array_equal(getattr(got, f.name), getattr(want, f.name))
    for f in fields(res)[1:-2]:  # the times and the trace series
        np.testing.assert_array_equal(getattr(back, f.name), getattr(res, f.name))
    assert np.max(np.abs(res.phi_a1)) > 0.0


@pytest.mark.parametrize("model, other", [(1, 2), (2, 1)])
def test_runner_rejects_the_other_models_scenario(model, other):
    run, expected = MODELS[model][1], MODELS[model][0].__name__
    for scn in (null_scenario(other), null_scenario(other, mms=FIELDS[other].demo())):
        with pytest.raises(TypeError, match=expected):
            run(scn)


@pytest.mark.parametrize("model", [1, 2])
def test_null_run_incident_is_zeros(model):
    # in every mode the incident rows have one column per potential, model
    # 1's a column of one; a null run's are +0.0 and verification's exact
    source = GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)
    for kw in ({}, {"mms": FIELDS[model].demo()}, {"source": source}):
        scn = null_scenario(model, t_end=3.0, **kw)
        times = scn.t0 + scn.dt * np.arange(scn.steps + 1)
        for t in (times, scn.t0):
            got = scn.incident(t)
            assert got.shape == np.shape(t) + (model,)
            if not kw:
                assert np.all(got == 0.0) and not np.any(np.signbit(got))
            elif "mms" in kw:
                for k, p in enumerate(scn.potentials):
                    assert np.array_equal(got[..., k], getattr(scn.mms, p).value(3.0, t))
        assert np.max(np.abs(scn.incident(times))) > 0.0 or not kw


@pytest.mark.parametrize("model", [1, 2])
def test_verification_step_without_increments_raises(model):
    module, name = STEPPERS[model]
    scn = null_scenario(model, mms=FIELDS[model].demo())
    g, t = scn.grid, 0.5
    fields = [getattr(scn.mms, p).value(g.x, t) for p in scn.field_names]
    traces = [float(getattr(scn.mms, p).value(a, t))
              for a in (g.a0, g.a1) for p in scn.potentials]
    state = (State1 if model == 1 else State2)(*fields, *traces, 0, t)
    with pytest.raises(ValueError, match="residual increments"):
        getattr(module, name)(state, scn)
    increments_at = scn.residuals(scn.mms, scn.mat).at(g.x, scn.dt)
    stepped = getattr(module, name)(state, scn, increments_at(t),
                                    increments_at(t + scn.dt))
    assert len(stepped) == len(scn.field_names)


@pytest.mark.parametrize("model", [1, 2])
def test_null_run_outputs_are_positive_zeros(model):
    """Acceptance criterion c03's null runs (N = 200 to t = 2): every trace
    and every field stays +0.0, so their CSV cells read 0 and never -0."""
    scenario, run, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, 200)
    res = run(scenario(grid=grid, mat=mat, dt=0.4 * grid.dx / 2.0, t_end=2.0),
              snapshot_times=[1.0])
    arrays = [getattr(res, f"{p}_{side}") for side in ("a0", "a1")
              for p in res.scenario.potentials]
    for state in (res.final, res.snapshots[0][1]):
        arrays += [getattr(state, name) for name in res.scenario.field_names]
    for a in arrays:
        assert np.all(a == 0.0) and not np.any(np.signbit(a))


@pytest.mark.parametrize("model", [1, 2])
def test_snapshots_own_their_arrays(model):
    # every distinct requested time gets a copy of its level, two times on
    # one level included, in request order; a snapshot of the final level is
    # a copy of the final state, which no change to a snapshot reaches
    run, scn = MODELS[model][1], null_scenario(model)
    at, near = 3 * scn.dt, 3.25 * scn.dt
    res = run(scn, snapshot_times=[at, near, at, scn.t_end])
    final = res.final
    assert [t for t, _ in res.snapshots] == [at, near, scn.t_end]
    assert [s.n for _, s in res.snapshots] == [3, 3, final.n]
    states = [s for _, s in res.snapshots] + [final]
    assert states[-2] is not final
    arrays = [getattr(s, name) for s in states for name in scn.field_names]
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])
    for snap in states[:-1]:
        for name in scn.field_names:
            getattr(snap, name)[0] = 1.0
    for name in scn.field_names:
        assert np.all(getattr(final, name) == 0.0)


STEPPERS = {1: (model1, "interior_step_m1"), 2: (model2, "interior_step_m2")}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("model, field", [
    (1, "phi"), (1, "rho"), (1, "j"),
    (2, "phi"), (2, "psi"), (2, "rho"), (2, "j"),
])
def test_one_bad_value_in_any_field_stops_the_run(monkeypatch, model, field, bad):
    module, name = STEPPERS[model]
    step = getattr(module, name)
    scn = null_scenario(model, source=GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0))
    at = 3

    def poisoned(state, *args, **kw):
        # the bad value enters the step that makes level `at`, in a copy:
        # the march tests only the fields that the step's arithmetic does
        # not fold into the new current
        if state.n + 1 == at:
            state = state.copy()
            getattr(state, field)[5] = bad
        return step(state, *args, **kw)

    # the partial result holds exactly levels 0 to at - 1, as a clean run
    # gives them: the times, the traces, the snapshots up to level at - 1
    # and that level's state, none of the poisoned level's
    before, failing = (at - 1) * scn.dt, at * scn.dt
    clean = MODELS[model][1](scn, snapshot_times=[before])
    monkeypatch.setattr(module, name, poisoned)
    with pytest.raises(DivergenceError) as info:
        MODELS[model][1](scn, snapshot_times=[0.0, before, failing, 1.0])
    err = info.value
    assert str(err) == f"non-finite fields at step {at} (t = {failing:.6g})"
    assert err.step == at
    part = err.partial
    assert part.final.n == at - 1 and len(part.times) == at
    assert [(t, s.n) for t, s in part.snapshots] == [(0.0, 0), (before, at - 1)]
    np.testing.assert_array_equal(part.times, clean.times[:at])
    for p in scn.potentials:
        for k in (f"{p}_a0", f"{p}_a1"):
            np.testing.assert_array_equal(getattr(part, k), getattr(clean, k)[:at])
    for name in scn.field_names:
        np.testing.assert_array_equal(getattr(part.final, name),
                                      getattr(clean.snapshots[0][1], name))
    assert np.max(np.abs(part.phi_a1)) > 0.0


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("drive", ["null", "source", "mms"])
def test_the_level_stream_yields_each_level_once_in_order(model, drive):
    """``_levels`` yields levels 0 to ``steps``, each once and in order, at
    ``t0 + n*dt``, each after its trace row; a level's density and current
    arrays are those of the level two before it, and the march records
    exactly these levels."""
    kw = {"null": {"t0": 0.7, "t_end": 1.7}, "mms": {"mms": FIELDS[model].demo()},
          "source": {"t0": 0.7, "t_end": 1.7,
                     "source": GaussianSource(1.0, 4.0, 36.0, 1.2, 4.0)}}[drive]
    scn = null_scenario(model, **kw)
    names = [f"{p}_{a}" for a in ("a0", "a1") for p in scn.potentials]
    series, states = array("d"), []
    for state in _levels(scn, series, interior_step):
        assert series[-len(names):].tolist() == [getattr(state, k) for k in names]
        states.append(state)
    assert [s.n for s in states] == list(range(scn.steps + 1))
    assert [s.t for s in states] == [scn.t0 + n * scn.dt for n in range(scn.steps + 1)]
    assert len(series) == len(names) * len(states)
    for older, newer in zip(states, states[2:]):
        assert newer.rho is older.rho and newer.j is older.j
    res = march(scn, [s.t for s in states[:-1]])  # the last level passes t_end
    assert res.times.tolist() == [s.t for s in states] and res.final.n == scn.steps
    assert np.array_equal(np.column_stack([getattr(res, k) for k in names]),
                          np.reshape(series, (len(states), -1)))
    assert [(t, s.n) for t, s in res.snapshots] == [(s.t, s.n) for s in states[:-1]]


@settings(max_examples=300, deadline=None)
@given(model=st.sampled_from([1, 2]), n=st.integers(4, 30),
       epsilon=st.floats(0.0, 1.0), cfl=st.floats(0.05, 2.0),
       response=st.lists(st.sampled_from([0.0, 1.0, -3.0]) | st.floats(-10.0, 10.0),
                         min_size=3, max_size=3),
       field=st.integers(0, 3), node=st.integers(0, 29),
       bad=st.sampled_from([math.inf, -math.inf, math.nan, None]),
       zeros=st.sampled_from(["none", "phi", "all"]),
       huge=st.integers(0, 3), scale=st.sampled_from([1.0, 1e300, 1e306, 1e308]),
       with_increments=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_the_march_flags_a_step_exactly_when_some_field_is_non_finite(
        model, n, epsilon, cfl, response, field, node, bad, zeros, huge, scale,
        with_increments, seed):
    """The march tests the new current (and model 2's psi) for finiteness:
    a step whose inputs carry one non-finite value (or none) at one node of
    one field, on a random state, is flagged exactly when some output field
    is non-finite.  Zero fields and a zero response (``beta = 0``) put the
    0*inf products in reach, and one field scaled near the largest float
    lets the step overflow from finite inputs."""
    rng = np.random.default_rng(seed)
    scenario, _, mat = MODELS[model]
    grid = GridSpec(0.0, 1.0, n, epsilon)
    mat = replace(mat, **dict(zip(("alpha", "beta", "gamma"), response)))
    dt = cfl * grid.dx / mat.c1
    scn = scenario(grid=grid, mat=mat, dt=dt, t_end=dt)  # one step
    module, name = STEPPERS[model]
    real, state_cls = getattr(module, name), (State1, State2)[model - 1]
    fields = [rng.standard_normal(n) for _ in scn.field_names]
    if zeros != "none":
        for k in range(1 if zeros == "phi" else len(fields)):
            fields[k][:] = 0.0
    with np.errstate(over="ignore"):
        fields[huge % len(fields)] *= scale
    if bad is not None:
        fields[field % len(fields)][node % n] = bad
    inc = inc_next = None
    if with_increments:
        inc, inc_next = ({k: rng.standard_normal(n) for k in INCREMENT_NAMES}
                         for _ in range(2))
    every_field = []

    def step(state, scn, _inc, _inc_next, **kw):
        start = state_cls(*fields, *rng.standard_normal(2 * model), 0, 0.0)
        out = real(start, scn, inc, inc_next, **kw)
        every_field.append(bool(np.isfinite(np.concatenate(out)).all()))
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        try:
            march(scn, (), step)
            flagged = False
        except DivergenceError:
            flagged = True
    assert every_field and flagged == (not every_field[0])


def test_a_pair_step_that_overflows_psi_alone_is_flagged(monkeypatch):
    """psi is the one field outside the new current: a psi alternating at
    1e308 on a uniform grid (traces continuing the pattern) has no slope
    but rounding, so phi, rho and j stay finite while the curvature term
    overflows psi."""
    grid = GridSpec(0.0, 3.0, 16, epsilon=0.0)
    dt = 1.5 * grid.dx / MAT2.c1
    scn = Scenario2(grid=grid, mat=MAT2, dt=dt, t_end=dt)
    zeros = np.zeros(grid.n)
    psi = 1e308 * (-1.0) ** np.arange(grid.n)
    start = State2(zeros, psi, zeros, zeros, 0.0, -psi[0], 0.0, -psi[-1], 0, 0.0)
    step, outputs = model2.interior_step_m2, []

    def overflowing(state, scn, *args, **kw):
        outputs.append(step(start, scn, *args, **kw))
        return outputs[-1]

    monkeypatch.setattr(model2, "interior_step_m2", overflowing)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as info:
        run_m2(scn)
    assert info.value.step == 1
    phi, psi_new, rho, j = outputs[0]
    assert np.isfinite(np.concatenate((phi, rho, j))).all()
    assert not np.isfinite(psi_new).all()


@pytest.mark.parametrize("model", [1, 2])
def test_huge_finite_fields_are_not_divergence(monkeypatch, model):
    """Values whose sum overflows are still finite and must pass the check."""
    module, name = STEPPERS[model]
    scn = null_scenario(model, t_end=0.1)

    def huge(state, *args, **kw):
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
def test_steady_steps_take_no_page_faults(monkeypatch, model):
    """A null run at N = 25 600 (0.2 MiB per nodal array, above glibc's
    initial 128 KiB mmap threshold): over steps 100 to 300 the march takes
    fewer than one minor page fault per step, by ``getrusage`` of this
    process.  The whole run's faults are its set-up, before step 3."""
    resource = pytest.importorskip("resource")
    scenario, run, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, 25600)
    dt = 0.4 * grid.dx / mat.c1
    scn = scenario(grid=grid, mat=mat, dt=dt, t_end=301 * dt)
    module, name = STEPPERS[model]
    step, faults = getattr(module, name), {}

    def counted(state, *args, **kw):
        if state.n in (100, 300):
            faults[state.n] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        return step(state, *args, **kw)

    monkeypatch.setattr(module, name, counted)
    run(scn)
    assert (faults[300] - faults[100]) / 200 < 1.0


@pytest.mark.parametrize("model", [1, 2])
def test_a_step_given_buffers_allocates_no_nodal_array(monkeypatch, model):
    """Given its ``out=`` buffers, the interior step's only N-wide
    allocations are its closed passes' ``np.correlate`` outputs.  Here the
    passes hand back their outputs made beforehand, so the traced peak of
    the step stays below one nodal array, and the step returns what a step
    with fresh arrays returns, its density and current in the first two
    buffers."""
    n = 20000
    scenario, _, mat = MODELS[model]
    grid = GridSpec(0.0, 3.0, n)
    scn = scenario(grid=grid, mat=mat, dt=0.4 * grid.dx / mat.c1, t_end=1.0)
    module, name = STEPPERS[model]
    rng = np.random.default_rng(model)
    step, s = getattr(module, name), (State1, State2)[model - 1](
        *rng.standard_normal((len(scn.field_names), n)),
        *rng.standard_normal(2 * model).tolist(), 0, 0.0)
    expected = step(s, scn)

    # each pass's arguments as the potential half gives them
    if model == 1:
        args = [(s.phi, s.phi_a0, s.phi_a1, s.phi, s.phi_a0, s.phi_a1)]
    else:
        args = [(s.phi, s.phi_a0, s.phi_a1, s.psi, s.psi_a0, s.psi_a1),
                (s.psi, s.psi_a0, s.psi_a1, s.phi, s.phi_a0, s.phi_a1)]
    made = [closed(*a) for closed, a in zip(scn.lw_pass, args, strict=True)]
    monkeypatch.setitem(scn.__dict__, "lw_pass",
                        tuple(lambda *a, k=k: made[k] for k in range(len(made))))
    out = np.empty((4, n))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fields = step(s, scn, out=out)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * n
    assert np.shares_memory(fields[-2], out[0]) and np.shares_memory(fields[-1], out[1])
    for got, want in zip(fields, expected):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("drive", ["source", "mms", "null"])
def test_closures_trade_in_python_floats(monkeypatch, model, drive):
    # the traces the march starts with and a model's trace update returns
    # every step are Python floats: numpy scalars would cost the per-step
    # scalar work several times over.  The start row is the quiet start at
    # a0 and the incident row at t0 at a1
    scenario, seen = MODELS[model][0], []
    traces = scenario.traces

    def spy(scn, sums, delayed, incident):
        seen.append(traces(scn, sums, delayed, incident))
        return seen[-1]

    monkeypatch.setattr(scenario, "traces", spy)
    kw = {"source": {"source": GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)},
          "mms": {"mms": FIELDS[model].demo()}, "null": {}}[drive]
    scn = null_scenario(model, t_end=3.0, **kw)
    res = MODELS[model][1](scn, snapshot_times=[0.0])
    start = res.snapshots[0][1]
    names = [f"{p}_{a}" for a in ("a0", "a1") for p in scn.potentials]
    seen.insert(0, tuple(getattr(start, name) for name in names))
    assert len(seen) == scn.steps + 1
    assert {type(v) for traces in seen for v in traces} == {float}
    assert seen[0] == (0.0,) * model + tuple(np.reshape(scn.incident(scn.t0), -1))
    assert [getattr(res, name)[0] for name in names] == list(seen[0])
    assert np.max(np.abs(res.phi_a0)) > 0.0 or drive == "null"


@pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("drive", ["source", "mms"])
@pytest.mark.parametrize("model", [1, 2])
def test_each_delayed_row_is_the_runs_own_series_one_transit_back(monkeypatch, model,
                                                                   drive, epsilon):
    # the march keeps one record of its traces, the series it returns, and
    # reads the row one transit back from it: every row a model's trace
    # update gets equals DelayBuffer.query of that series, to the bound of
    # the reader's own oracle test (tests/test_history.py).  The source run
    # starts at t0 = 1.5, so the reads' first live level is t0's
    scenario, run, mat = MODELS[model]
    traces, seen = scenario.traces, []

    def spy(scn, sums, delayed, incident):
        seen.append(list(delayed))
        return traces(scn, sums, delayed, incident)

    monkeypatch.setattr(scenario, "traces", spy)
    t0 = 1.5 if drive == "source" else 0.0
    kw = ({"source": GaussianSource(1.0, 4.0, 36.0, t0 + 0.5, 4.0)} if drive == "source"
          else {"mms": FIELDS[model].demo()})
    grid = GridSpec(0.0, 3.0, 16, epsilon)
    scn = scenario(grid=grid, mat=mat, dt=0.9 * grid.dx / mat.c1, t0=t0,
                   t_end=t0 + 4.0, **kw)
    res = run(scn)
    rows = np.column_stack([getattr(res, f"{p}_{a}")
                            for a in ("a0", "a1") for p in scn.potentials])
    assert len(seen) == scn.steps and rows.shape == (scn.steps + 1, 2 * model)
    oracle = DelayBuffer(t0, scn.dt, scn.t_end - t0, shape=(2 * model,))
    oracle.append(rows[0])
    peak = np.max(np.abs(rows[0]))
    for n, got in enumerate(seen, start=1):
        t_next = t0 + n * scn.dt
        want = oracle.query(t_next - scn.transit)
        levels = 1.0 + (abs(t0) + abs(t_next) + scn.transit) / scn.dt
        assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * levels * 3 * peak, n
        oracle.append(rows[n])
        peak = max(peak, np.max(np.abs(rows[n])))
    assert np.max(np.abs(seen)) > 0.0


TRACED = ((model1, "boundary_a0_m1"), (model1, "boundary_a1_m1"),
          (model2, "boundary_update_m2"))


@pytest.mark.parametrize("model", [1, 2])
@pytest.mark.parametrize("drive", ["source", "mms", "cli-run", "cli-mms"])
def test_each_step_calls_the_traced_boundary_updates_once(monkeypatch, tmp_path,
                                                          model, drive):
    # the benchmark times the boundary updates, and counts steps and runs, by
    # wrapping these module globals (a runner also where the command line
    # imported it): a trace update that bound them earlier would time
    # nothing, and since interior_step_m1/_m2 are aliases of
    # march.interior_step, a march that called that directly would count no
    # step
    module = (model1, model2)[model - 1]
    step, run = f"interior_step_m{model}", f"run_m{model}"
    counts = defaultdict(int)
    for owner, name in (*TRACED, (module, step), (module, run), (cli, run)):
        def counted(*args, real=getattr(owner, name), name=name, **kw):
            counts[name] += 1
            return real(*args, **kw)
        monkeypatch.setattr(owner, name, counted)
    if drive in ("source", "mms"):
        kw = {"source": {"source": GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0)},
              "mms": {"mms": FIELDS[model].demo()}}[drive]
        scenarios = [null_scenario(model, t_end=0.5, **kw)]
        scenarios[0].run()
    else:
        mode = drive[4:]
        config = {"model": model, "grid": {"a0": 0.0, "a1": 3.0, "N": 20},
                  "material": asdict(MODELS[model][2]), "t_end": 0.5}
        if mode == "run":
            config["source"] = {"kind": "gaussian",
                                **asdict(GaussianSource(1.0, 4.0, 36.0, 1.0, 4.0))}
        else:
            config["mms"] = {"n_ladder": [20, 40]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        scenarios = parse_config(path, default_mode=mode).scenarios
        assert cli.main([mode, str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(scenarios) == (2 if drive == "cli-mms" else 1)
    steps = sum(scn.steps for scn in scenarios)
    names = {1: ("boundary_a0_m1", "boundary_a1_m1"), 2: ("boundary_update_m2",)}[model]
    assert dict(counts) == {**dict.fromkeys(names, steps), step: steps,
                            run: len(scenarios)}


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
def test_a_source_at_the_boundary_drives_nothing_at_the_start(model):
    # the incident cone is cut at a1 + c0*(t - t0), so a support that starts
    # within the 1e-12 allowance below a1 still reads exactly zero at t0,
    # however strong the source is there
    a1 = 3.0
    source = GaussianSource(amplitude=1e6, x_center=a1, space_rate=36.0,
                            t_center=0.0, time_rate=4.0,
                            support=(a1 - 5e-13, a1 + 1.0))
    scn = null_scenario(model, source=source)
    assert scn.grid.a1 == a1
    assert np.all(scn.incident(scn.t0) == 0.0)
    assert np.max(np.abs(scn.incident(scn.t0 + scn.dt))) > 0.0


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
    increments are evaluated once with it, K = max(1, 2048 // N) levels per call
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

    def spied_at(self, x, dt):
        built.append((x, dt))
        increments_at = at(self, x, dt)

        def spied_increments_at(t):
            if np.shape(t) in ((), (min(block, len(times) - len(nodal)), 1)):
                nodal.extend(np.ravel(t).tolist())
            else:
                retarded.append(t)
            inside[0] = True
            try:
                return increments_at(t)
            finally:
                inside[0] = False

        return spied_increments_at

    def spied_step(state, *args, **kw):
        steps.append((state.n, exps[2], args[1:]))
        return step(state, *args, **kw)

    monkeypatch.setattr(np, "exp", counted_exp)
    monkeypatch.setattr(scn.residuals, "at", spied_at)
    monkeypatch.setattr(module, name, spied_step)
    run(scn)
    monkeypatch.undo()
    calls = -(-len(times) // block)
    assert exps[:2] == [len(times), 3 * calls]
    assert {others for _, others, _ in steps} == {steps[0][1]}  # none in the loop
    assert len(built) == 1 and np.array_equal(built[0][0], grid.x)
    assert built[0][1] == scn.dt
    assert nodal == times.tolist()
    assert retarded == []
    # the increments a step is given are those of a fresh evaluation, bit for bit
    increments_at = scn.residuals(scn.mms, scn.mat).at(grid.x, scn.dt)
    for at_n, _, levels in steps:
        for level, got in zip((at_n, at_n + 1), levels, strict=True):
            want = increments_at(times[level].item())
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)


def unfused_step(state, scn, inc=None, inc_next=None):
    """The interior step composed of :class:`SpatialOps`' per-derivative
    stencils, the operators the stability lab probes: the Taylor step of the
    potentials and the density, then the Heun corrector of the current,
    each field plus its residual increment."""
    ops, m, dt, s = SpatialOps(scn.grid), scn.mat, scn.dt, state
    r, r1 = defaultdict(float, inc or {}), defaultdict(float, inc_next or {})
    f = (m.alpha - m.beta * s.rho) * s.phi - m.gamma * s.j
    dj = ops.d1_confined(s.j)
    dphi = ops.d1_closed(s.phi, s.phi_a0, s.phi_a1)
    d2phi = ops.d2_closed(s.phi, s.phi_a0, s.phi_a1)
    if isinstance(scn, Scenario1):
        potentials = [s.phi + dt * (m.c1 * dphi + s.j) + 0.5 * dt**2 * (
            m.c1**2 * d2phi + m.c1 * dj + f) + r["phi"]]
    else:
        dpsi = ops.d1_closed(s.psi, s.psi_a0, s.psi_a1)
        d2psi = ops.d2_closed(s.psi, s.psi_a0, s.psi_a1)
        c2 = m.mu1 * m.nu1
        potentials = [
            s.phi + dt * (m.mu1 * dpsi + s.j) + 0.5 * dt**2 * (c2 * d2phi + f) + r["phi"],
            s.psi + dt * m.nu1 * dphi + 0.5 * dt**2 * (c2 * d2psi + m.nu1 * dj) + r["psi"],
        ]
    rho = s.rho - dt * dj - 0.5 * dt**2 * ops.d1_confined(f) + r["rho"]
    # the current's increment is dt/2 times its source, so the predictor
    # j + dt*(f + s_j) adds twice it
    j_pred = s.j + dt * f + 2.0 * r["j"]
    f_next = (m.alpha - m.beta * rho) * potentials[0] - m.gamma * j_pred
    return (*potentials, rho, 0.5 * (s.j + j_pred + dt * f_next) + r1["j"])


INCREMENT_NAMES = ("phi", "psi", "rho", "j", "s_phi", "s_psi")


@settings(max_examples=200, deadline=None)
@given(model=st.sampled_from([1, 2]), n=st.integers(4, 60),
       epsilon=st.floats(0.0, 1.0), cfl=st.floats(0.05, 1.0),
       speeds=st.lists(st.floats(0.25, 4.0), min_size=4, max_size=4),
       response=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       with_increments=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fused_step_is_the_scheme_the_stability_lab_probes(
        model, n, epsilon, cfl, speeds, response, with_increments, seed):
    """The one-pass interior step equals the composition of the stencils
    :mod:`eoscatter.stability` builds its matrices from, on every grid of
    the family, with and without manufactured increments."""
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
    inc = inc_next = None
    if with_increments:
        inc, inc_next = ({k: rng.standard_normal(n) for k in INCREMENT_NAMES}
                         for _ in range(2))
    got = step(state, scn, inc, inc_next)
    want = unfused_step(state, scn, inc, inc_next)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
