"""Error reporting and observed-order extraction for verification runs."""

import math

import numpy as np
import pytest

from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.mms import (
    ErrorReport,
    ManufacturedFields1,
    ManufacturedFields2,
    ZeroField,
    convergence_order,
    mms_report,
    mms_run,
)
from eoscatter.model1 import Scenario1, run_m1
from eoscatter.model2 import Scenario2, run_m2

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)


def _grid(n):
    return GridSpec(a0=0.0, a1=3.0, n=n)


def _dt(grid, c1, cfl=0.4):
    return cfl * grid.dx / c1


def fake_report(n, errs, dt=None):
    dt = 1.0 / n if dt is None else dt
    return ErrorReport(model=1, n=n, dt=dt, t_end=1.0, runtime=0.0,
                       linf=dict(errs), l2=dict(errs), trace_linf={}, linf_x={})


def test_zero_fields_give_exactly_zero_errors():
    exact = ManufacturedFields1(phi=ZeroField(), j=ZeroField(), rho=ZeroField())
    g = _grid(40)
    rep = mms_run(1, exact, g, MAT1, _dt(g, MAT1.c1), 0.5)
    assert all(v == 0.0 for v in rep.linf.values())
    assert all(v == 0.0 for v in rep.l2.values())
    assert all(v == 0.0 for v in rep.trace_linf.values())


def test_order_arithmetic_on_fabricated_errors():
    reps = [fake_report(100, {"phi": 4e-3, "j": 5e-2}),
            fake_report(200, {"phi": 1e-3, "j": 5e-2})]
    orders = convergence_order(reps)
    assert orders["phi"][0] == pytest.approx(2.0)
    assert orders["j"][0] == pytest.approx(0.0)


def test_order_undefined_when_an_error_vanishes():
    reps = [fake_report(100, {"phi": 0.0}), fake_report(200, {"phi": 1e-3})]
    assert math.isnan(convergence_order(reps)["phi"][0])
    reps = [fake_report(100, {"phi": 1e-3}), fake_report(200, {"phi": 0.0})]
    assert math.isnan(convergence_order(reps)["phi"][0])


def test_order_input_validation():
    with pytest.raises(ValueError, match="two reports"):
        convergence_order([fake_report(100, {"phi": 1.0})])
    with pytest.raises(ValueError, match="double"):
        convergence_order([fake_report(100, {"phi": 1.0}),
                           fake_report(300, {"phi": 1.0})])
    with pytest.raises(ValueError, match="proportional"):
        convergence_order([fake_report(100, {"phi": 1.0}, dt=0.01),
                           fake_report(200, {"phi": 1.0}, dt=0.01)])


def test_report_carries_run_metadata():
    g = _grid(50)
    dt = _dt(g, MAT1.c1)
    rep = mms_run(1, ManufacturedFields1.demo(), g, MAT1, dt, 0.5)
    assert rep.model == 1 and rep.n == 50 and rep.dt == dt
    assert rep.runtime > 0.0
    # final time lands within one step of the requested horizon
    assert abs(rep.t_end - 0.5) <= dt


def test_model1_small_ladder_is_second_order():
    reps = []
    for n in (50, 100):
        g = _grid(n)
        reps.append(mms_run(1, ManufacturedFields1.demo(), g, MAT1,
                            _dt(g, MAT1.c1), 2.0))
    orders = convergence_order(reps)
    for name in ("phi", "rho", "j"):
        assert 1.6 < orders[name][0] < 2.4, (name, orders[name])


def test_model2_report_has_both_potentials():
    g = _grid(50)
    rep = mms_run(2, ManufacturedFields2.demo(), g, MAT2, _dt(g, 2.0), 0.5)
    assert set(rep.linf) == {"phi", "psi", "rho", "j"}
    assert set(rep.trace_linf) == {"phi_a0", "phi_a1", "psi_a0", "psi_a1"}
    assert all(v > 0.0 for v in rep.linf.values())


@pytest.mark.parametrize("model", [1, 2])
def test_report_locates_each_fields_worst_node(model):
    scenario, run, mat, exact = ((Scenario1, run_m1, MAT1, ManufacturedFields1.demo())
                                 if model == 1 else
                                 (Scenario2, run_m2, MAT2, ManufacturedFields2.demo()))
    g = _grid(60)
    dt = _dt(g, mat.c1)
    rep = mms_run(model, exact, g, mat, dt, 1.0)
    final = run(scenario(grid=g, mat=mat, dt=dt, t_end=1.0, mms=exact)).final
    assert rep.linf_x.keys() == rep.linf.keys()
    for name in rep.linf:
        err = np.abs(getattr(final, name) - getattr(exact, name).value(g.x, final.t))
        worst = np.argmax(err)
        assert rep.linf_x[name] == g.x[worst]
        assert rep.linf[name] == err[worst] > 0.0


def test_trace_errors_track_the_boundary_series():
    g = _grid(80)
    rep = mms_run(1, ManufacturedFields1.demo(), g, MAT1, _dt(g, MAT1.c1), 1.0)
    # the right trace is imposed exactly in verification mode
    assert rep.trace_linf["phi_a1"] < 1e-14
    assert 0.0 < rep.trace_linf["phi_a0"] < 1e-2


def test_invalid_model_number_rejected():
    g = _grid(40)
    with pytest.raises(ValueError, match="model"):
        mms_run(3, ManufacturedFields1.demo(), g, MAT1, 0.01, 0.5)


@pytest.mark.parametrize("model", [1, 2])
def test_report_of_a_built_scenario_is_the_wrapper_report(model):
    # mms_run builds the scenario and measures it with mms_report
    scenario, mat, exact = ((Scenario1, MAT1, ManufacturedFields1.demo()) if model == 1
                            else (Scenario2, MAT2, ManufacturedFields2.demo()))
    g = _grid(40)
    dt = _dt(g, 2.0)
    scn = scenario(grid=g, mat=mat, dt=dt, t_end=0.5, mms=exact)
    got, want = mms_report(model, scn), mms_run(model, exact, g, mat, dt, 0.5)
    assert (got.linf, got.l2, got.trace_linf, got.dt, got.t_end) == \
        (want.linf, want.l2, want.trace_linf, want.dt, want.t_end)
    with pytest.raises(ValueError, match="manufactured"):
        mms_report(model, scenario(grid=g, mat=mat, dt=dt, t_end=0.5))
