"""Properties of whole runs, drawn at random: causality and finite output
inside the stable window.  Each test runs its examples at small N and holds
its own time budget."""

import math
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.model1 import Scenario1, run_m1
from eoscatter.model2 import Scenario2, run_m2
from eoscatter.sources import GaussianSource
from eoscatter.stability import stability_bounds

MODELS = {1: (Scenario1, run_m1), 2: (Scenario2, run_m2)}
PRESET_MATERIALS = {
    1: Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0),
    2: Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0),
}


def jitter(draw, value):
    return value * draw(st.floats(0.8, 1.25))


@st.composite
def materials(draw, model):
    """The presets' materials with every coefficient scaled by 0.8-1.25."""
    mat = PRESET_MATERIALS[model]
    return type(mat)(**{k: jitter(draw, v) for k, v in vars(mat).items()})


@st.composite
def gaussian_sources(draw):
    """The fig2 pulse, jittered as the benchmark's seeds jitter it: the
    support starts at or beyond a1 = 3."""
    return GaussianSource(
        amplitude=jitter(draw, 5.0), x_center=4.0 + draw(st.floats(0.0, 0.05)),
        space_rate=36.0, t_center=0.5 + draw(st.floats(-0.05, 0.05)),
        time_rate=4.0)


def left_traces(res):
    return [res.phi_a0] + ([res.psi_a0] if hasattr(res, "psi_a0") else [])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), model=st.sampled_from([1, 2]), n=st.integers(50, 80),
       cfl=st.floats(0.4, 0.75))
def _causal(data, model, n, cfl):
    # The presets' materials, and cfl inside the stable window at epsilon =
    # 1, (0.366, 0.765).  The scheme's domain of dependence grows by a node
    # per step, faster than c1, so the incident's Gaussian tail leaks ahead
    # of the signal: at most 2e-14 of the peak at N = 50, but 3e-12 at N = 30.
    scenario, run = MODELS[model]
    mat = PRESET_MATERIALS[model]
    source = data.draw(gaussian_sources())
    grid = GridSpec(0.0, 3.0, n)
    # the incident signal reaches a1 when the causal interval meets the
    # source support, and cannot reach a0 before one more transit
    crossed = (source.support[0] - grid.a1) / mat.c0 + grid.length / mat.c1
    scn = scenario(grid=grid, mat=mat, dt=cfl * grid.dx / mat.c1,
                   t_end=crossed + 1.0, source=source)
    res = run(scn)
    early = res.times < crossed
    assert early.sum() > 10
    for trace in left_traces(res):
        peak = np.max(np.abs(trace))
        assert peak > 1e-3
        assert np.max(np.abs(trace[early])) <= 1e-12 * peak


def test_left_trace_is_quiet_until_the_signal_can_have_crossed():
    tic = time.perf_counter()
    _causal()
    assert time.perf_counter() - tic < 20.0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), model=st.sampled_from([1, 2]), n=st.integers(8, 40),
       epsilon=st.floats(0.0, 1.0), where=st.floats(0.0, 1.0))
def _finite(data, model, n, epsilon, where):
    scenario, run = MODELS[model]
    mat = data.draw(materials(model))
    grid = GridSpec(0.0, 3.0, n, epsilon)
    window = stability_bounds(model, grid, mat, scan_points=16)
    assert not window.empty
    cfl = window.tau1 + where * (window.tau2 - window.tau1)
    scn = scenario(grid=grid, mat=mat, dt=cfl * grid.dx / mat.c1,
                   t_end=4.0, source=data.draw(gaussian_sources()))
    res = run(scn)  # a non-finite field raises DivergenceError
    assert res.final.n == scn.steps
    for name in scn.field_names:
        assert np.all(np.isfinite(getattr(res.final, name)))
    assert all(math.isfinite(v) for v in np.concatenate(left_traces(res)))


def test_runs_inside_the_stable_window_stay_finite():
    tic = time.perf_counter()
    _finite()
    assert time.perf_counter() - tic < 20.0
