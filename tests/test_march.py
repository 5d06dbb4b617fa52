"""The marching core both solvers share: checks made once for both models."""

import math

import numpy as np
import pytest

from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.mms import ManufacturedFields1, ManufacturedFields2
from eoscatter.model1 import Scenario1, run_m1
from eoscatter.model2 import Scenario2, run_m2

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MODELS = {1: (Scenario1, run_m1, MAT1), 2: (Scenario2, run_m2, MAT2)}


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
