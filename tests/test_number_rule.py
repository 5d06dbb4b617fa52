"""One number rule for every numeric input.

Every public numeric parameter is checked by ``grid.check_real`` (a finite
real number, not a bool, optionally positive) or ``grid.check_integer`` (an
integer, not a bool, at least a minimum, within the float range), and a bad
value raises ValueError naming the parameter: never TypeError or
OverflowError.
"""

import math
import re
import tracemalloc
from array import array

import numpy as np
import pytest

from eoscatter.grid import (MAX_FLOATS, GridSpec, Material1, Material2, check_integer,
                           check_real, check_size)
from eoscatter.history import DelayBuffer, RetardedSum, lag_reader
from eoscatter.mms import ArctanGaussianPulse, GaussianBump
from eoscatter.model1 import Scenario1
from eoscatter.model2 import Scenario2
from eoscatter.sources import GaussianSource, incident_series
from eoscatter.stability import (assemble_propagator, decomposition_check,
                                 homogeneous_run, scan_stability, stability_bounds,
                                 stability_radius)

GRID = dict(a0=0.0, a1=3.0, n=40, epsilon=1.0)
MAT1 = dict(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = dict(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
PULSE = dict(amplitude=1.0, ramp_rate=1.0, rate=4.0, drift=4.0, center=6.0, t_shift=1.0)
BUMP = dict(amplitude=1.0, x_center=1.1, x_width=0.3, t_center=1.2, t_width=0.32)
SOURCE = dict(amplitude=5.0, x_center=4.0, space_rate=36.0, t_center=0.5, time_rate=4.0)
QUAD = dict(a1=3.0, c0=1.0, t0=0.0, rel_tol=1e-6, panel_cap=1 << 16)
RUN = dict(dt=0.01, t_end=1.0, t0=0.0)
G, M1, M2 = GridSpec(**GRID), Material1(**MAT1), Material2(**MAT2)
LAB = GridSpec(0.0, 1.0, 16)


def _keywords(label, build, good, named=None):
    """One case per keyword of ``good``: ``label.keyword`` -> (the name the
    message starts with, ``build`` with that keyword set to a value, the
    keyword's good value)."""
    named = named or {}
    return {f"{label}.{k}": (named.get(k, k),
                             lambda v, k=k: build(**{**good, k: v}), good[k])
            for k in good}


CASES = {
    **_keywords("GridSpec", GridSpec, GRID, {"n": "N"}),
    **_keywords("Material1", Material1, MAT1),
    **_keywords("Material2", Material2, MAT2),
    **_keywords("ArctanGaussianPulse", ArctanGaussianPulse, PULSE),
    **_keywords("GaussianBump", GaussianBump, BUMP),
    **_keywords("GaussianSource", GaussianSource, SOURCE),
    "GaussianSource.support[0]": (
        "support lo", lambda v: GaussianSource(**SOURCE, support=(v, 4.5)), 3.5),
    "GaussianSource.support[1]": (
        "support hi", lambda v: GaussianSource(**SOURCE, support=(3.5, v)), 4.5),
    **_keywords("incident_series", lambda **kw: incident_series(
        GaussianSource(**SOURCE), times=[1.0], **kw), QUAD),
    **_keywords("DelayBuffer", DelayBuffer, dict(t0=0.0, dt=0.1, window=1.0)),
    **_keywords("RetardedSum", lambda **kw: RetardedSum(delays=[0.5], **kw),
                dict(t0=0.0, dt=0.1)),
    **_keywords("lag_reader", lambda **kw: lag_reader(array("d"), **kw),
                dict(t0=0.0, dt=0.1, lag=1.0, width=2)),
    **_keywords("Scenario1", lambda **kw: Scenario1(grid=G, mat=M1, **kw), RUN),
    **_keywords("Scenario2", lambda **kw: Scenario2(grid=G, mat=M2, **kw), RUN),
    "Scenario.snapshot_levels": ("snapshot time", lambda v: Scenario1(
        grid=G, mat=M1, **RUN).snapshot_levels([0.5, v]), 1.0),
    **_keywords("stability_radius", lambda **kw: stability_radius(
        grid=LAB, mat=M1, **kw), dict(model=1, dt=0.01)),
    **_keywords("assemble_propagator", lambda **kw: assemble_propagator(
        2, LAB, M2, **kw), dict(dt=0.01)),
    **_keywords("decomposition_check", lambda **kw: decomposition_check(
        LAB, M2, **kw), dict(dt=0.01)),
    **_keywords("homogeneous_run", lambda **kw: homogeneous_run(
        1, LAB, M1, **kw), dict(dt=0.01, steps=3)),
    **_keywords("stability_bounds", lambda **kw: stability_bounds(1, LAB, M1, **kw),
                dict(dt_max_factor=1.25, scan_points=16, bisect_tol=1e-4)),
}

BAD = [True, "1", None, math.nan, math.inf, 10**400]


@pytest.mark.parametrize("bad", BAD, ids=["True", "str", "None", "nan", "inf", "10**400"])
@pytest.mark.parametrize("case", CASES)
def test_every_numeric_parameter_rejects_what_is_not_a_finite_number(case, bad):
    name, call, _ = CASES[case]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be "):
        call(bad)


def test_each_case_fails_only_for_its_bad_value():
    for name, call, good in CASES.values():
        call(good)


def test_the_checks_return_plain_floats_and_ints():
    assert type(check_real("x", 3)) is float and check_real("x", 3) == 3.0
    assert type(check_real("x", np.float32(0.5))) is float
    assert type(check_integer("n", np.int64(5), 4)) is int
    assert check_real("x", -math.inf, finite=False) == -math.inf
    assert check_real("x", 10**400, finite=False) == math.inf
    # classes keep what the checks make of a value
    assert type(Material1(c1=2, c0=1, alpha=0, beta=0, gamma=0).c1) is float
    grid = GridSpec(0, 3, np.int64(8))
    assert (type(grid.a0), type(grid.n)) == (float, int)


@pytest.mark.parametrize("call, message", [
    (lambda: check_real("x", "1"), "x must be a finite number, got '1'"),
    (lambda: check_real("dt", 0.0, positive=True),
     "dt must be a positive finite number, got 0.0"),
    (lambda: check_real("lo", math.nan, finite=False), "lo must be a number, got nan"),
    (lambda: check_integer("N", 3, 4), "N must be a finite integer >= 4, got 3"),
    (lambda: check_integer("N", 10**400, 4),
     "N must be a finite integer >= 4, got 100000000000000000...0000000000000000000"),
])
def test_the_checks_word_their_rules(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# -- the size rule -------------------------------------------------------------

# Each input asks for one array past MAX_FLOATS, by the name the message
# starts with.  Each of these failed to allocate (MemoryError, for the
# scenario only at its run) before the check, and none may allocate now.
SIZES = {
    "Scenario1": ("t0, t_end and dt", lambda: Scenario1(grid=G, mat=M1, dt=0.01,
                                                        t_end=1e15)),
    "Scenario2": ("t0, t_end and dt", lambda: Scenario2(grid=G, mat=M2, dt=0.01,
                                                        t_end=1e15)),
    "Scenario.t0": ("t0, t_end and dt", lambda: Scenario1(grid=G, mat=M1, dt=0.01,
                                                          t0=-1e300, t_end=1e300)),
    "homogeneous_run": ("steps", lambda: homogeneous_run(1, LAB, M1, 0.01, 10**15)),
    "DelayBuffer.window": ("window, dt and shape",
                           lambda: DelayBuffer(0.0, 0.1, window=1e17)),
    "DelayBuffer.shape": ("window, dt and shape",
                          lambda: DelayBuffer(0.0, 0.1, 1.0, shape=(10**9, 10**9))),
    "RetardedSum": ("delays and dt", lambda: RetardedSum(0.0, 1e-3, [1e14])),
    "lag_reader.width": ("lag, dt and width",
                         lambda: lag_reader(array("d"), 0.0, 0.1, 1.0, 10**15)),
    "lag_reader.lag": ("lag, dt and width",
                       lambda: lag_reader(array("d"), 0.0, 1e-300, 1e10)),
    "stability_bounds.N": ("N = 1000000", lambda: stability_bounds(
        1, GridSpec(0.0, 1.0, 10**6), M1)),
    "stability_bounds.scan_points": ("scan_points", lambda: stability_bounds(
        1, LAB, M1, scan_points=10**15)),
    "scan_stability": ("N = 1000000", lambda: scan_stability(2, M2, 10**6, [1.0])),
}


@pytest.mark.parametrize("case", SIZES)
def test_every_size_past_the_limit_is_refused_before_it_is_allocated(case):
    name, call = SIZES[case]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} would need .* "
                           f"float64 numbers in one array, more than the "
                           f"{MAX_FLOATS} allowed$"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_the_size_rule_allows_the_limit_itself():
    check_size("x", MAX_FLOATS)
    with pytest.raises(ValueError, match=f"^x would need {MAX_FLOATS + 1} "):
        check_size("x", MAX_FLOATS + 1)
    for count in (math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="^x would need "):
            check_size("x", count)
