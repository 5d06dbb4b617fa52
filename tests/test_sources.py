"""Quadrature of the retarded source integral against the erf closed form."""

import json
import math
import operator
import os
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoscatter import sources
from eoscatter.grid import Material1, Material2
from eoscatter.sources import (
    GaussianSource,
    QuadratureError,
    TabulatedSource,
    _BLOCK_POINTS,
    _check_block,
    _composite_midpoint,
    characteristic_integral,
    incident_pair,
    incident_series,
    incident_trace,
)

from oracles import gaussian_line_integral

# The two bundled demo sources: a strong narrow pulse and a unit one.
PULSE_M1 = GaussianSource(
    amplitude=5.0, x_center=4.0, space_rate=36.0, t_center=0.5, time_rate=4.0
)
PULSE_M2 = GaussianSource(
    amplitude=1.0, x_center=4.0, space_rate=36.0, t_center=1.0, time_rate=4.0
)


class Sampled:
    """A Gaussian seen only as a callable with a support: no completed
    square, so the quadrature samples it as ``source(x, t_ret)``."""

    def __init__(self, pulse):
        self.pulse, self.support = pulse, pulse.support

    def __call__(self, x, t):
        return self.pulse(x, t)


SAMPLED_M1, SAMPLED_M2 = Sampled(PULSE_M1), Sampled(PULSE_M2)


def closed_form(src: GaussianSource, *, a1, c0, t, t0=0.0):
    return gaussian_line_integral(
        src.amplitude,
        src.x_center,
        src.space_rate,
        src.t_center,
        src.time_rate,
        a1=a1,
        c0=c0,
        t=t,
        t0=t0,
        x_lo=src.support[0],
        x_hi=src.support[1],
    )


def test_empty_cone_is_exactly_zero():
    assert characteristic_integral(PULSE_M1, 3.0, 1.0, 0.0, 0.0) == 0.0
    assert characteristic_integral(PULSE_M1, 3.0, 1.0, 0.0, -2.0) == 0.0


def test_support_right_of_cone_is_exactly_zero():
    far = GaussianSource(1.0, 40.0, 36.0, 0.5, 4.0)
    assert characteristic_integral(far, 3.0, 1.0, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("t", [0.6, 1.0, 1.8, 2.7])
def test_gaussian_matches_erf_closed_form(t):
    got = characteristic_integral(PULSE_M1, 3.0, 1.0, 0.0, t)
    want = closed_form(PULSE_M1, a1=3.0, c0=1.0, t=t)
    assert want != 0.0
    assert abs(got - want) < 1e-8 * abs(want)


def test_second_demo_source_at_t_two():
    got = characteristic_integral(PULSE_M2, 3.0, 1.0, 0.0, 2.0)
    want = closed_form(PULSE_M2, a1=3.0, c0=1.0, t=2.0)
    assert abs(got - want) < 1e-8 * abs(want)


@settings(max_examples=20, deadline=None)
@given(t=st.floats(0.05, 3.0), c0=st.floats(0.5, 2.0))
def test_erf_agreement_at_random_times(t, c0):
    got = characteristic_integral(PULSE_M1, 3.0, c0, 0.0, t)
    want = closed_form(PULSE_M1, a1=3.0, c0=c0, t=t)
    assert abs(got - want) <= 1e-8 * abs(want) + 1e-13


def test_trace_is_integral_over_speed():
    for c0 in (1.0, 2.0):
        mat = Material1(c1=2.0, c0=c0, alpha=-1.0, beta=0.3, gamma=8.0)
        trace = incident_trace(PULSE_M1, 3.0, mat, 0.0, 1.3)
        integral = characteristic_integral(PULSE_M1, 3.0, c0, 0.0, 1.3)
        assert trace == integral / c0


def test_demo_sources_are_silent_at_start():
    mat = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
    assert abs(incident_trace(PULSE_M1, 3.0, mat, 0.0, 0.0)) < 1e-12
    assert abs(incident_trace(PULSE_M2, 3.0, mat, 0.0, 0.0)) < 1e-12


def test_incident_pair_ratio_and_prefactors():
    mat = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
    phi, psi = incident_pair(PULSE_M2, 3.0, mat, 0.0, 2.0)
    base = characteristic_integral(PULSE_M2, 3.0, mat.c0, 0.0, 2.0)
    assert phi == base / (2.0 * mat.c0)
    assert psi == mat.nu0 * phi / mat.c0
    assert phi != 0.0

    zero_phi, zero_psi = incident_pair(PULSE_M2, 3.0, mat, 0.0, 0.0)
    assert zero_phi == 0.0 and zero_psi == 0.0


# -- whole series at once --------------------------------------------------------


def doubled_midpoint(src, a1, c0, t0, t, rel_tol):
    """Per-time panel doubling written out on its own, one time at a time."""
    lo = max(a1, src.support[0])
    hi = min(src.support[1], a1 + c0 * (t - t0))
    if hi <= lo:
        return 0.0

    def estimate(panels):
        width = (hi - lo) / panels
        mids = lo + width * (np.arange(panels) + 0.5)
        return float(np.sum(src(mids, t - (mids - a1) / c0))) * width

    panels, prev = 8, estimate(8)
    while True:
        panels *= 2
        cur = estimate(panels)
        if abs(cur - prev) <= 1e-300 + rel_tol * abs(cur):
            return cur
        prev = cur


def test_incident_series_is_the_per_time_quadrature_exactly(tmp_path):
    tab = TabulatedSource.from_csv(bilinear_csv(tmp_path))
    mat1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
    mat2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.5, alpha=-1.0, beta=0.3,
                     gamma=8.0)
    # tight tolerances push the panel count past the block size, so times
    # are also split across blocks; a Gaussian's completed-square path is
    # per time too, but it rounds differently from the longhand
    times = 0.025 * np.arange(120)
    for src, tol in ((SAMPLED_M1, 1e-6), (SAMPLED_M1, 1e-10),
                     (SAMPLED_M2, 1e-10), (tab, 1e-6), (PULSE_M1, 1e-6),
                     (PULSE_M1, 1e-10), (PULSE_M2, 1e-10)):
        series = incident_series(src, 3.0, mat2.c0, 0.0, times, tol)
        each = [characteristic_integral(src, 3.0, mat2.c0, 0.0, t, tol)
                for t in times]
        assert np.array_equal(series, each)
        if tol == 1e-6 and not isinstance(src, GaussianSource):
            alone = [doubled_midpoint(src, 3.0, mat2.c0, 0.0, t, tol)
                     for t in times]
            assert np.array_equal(series, alone)
    for src in (PULSE_M1, SAMPLED_M1, tab):
        trace = incident_trace(src, 3.0, mat1, 0.0, times, 1e-6)
        assert np.array_equal(
            trace, [incident_trace(src, 3.0, mat1, 0.0, t, 1e-6) for t in times])
        phi, psi = incident_pair(src, 3.0, mat2, 0.0, times, 1e-6)
        pairs = [incident_pair(src, 3.0, mat2, 0.0, t, 1e-6) for t in times]
        assert np.array_equal(phi, [p[0] for p in pairs])
        assert np.array_equal(psi, [p[1] for p in pairs])


def test_long_rows_are_the_full_row_sum_exactly(monkeypatch):
    # each of these times stops at 2**16 to 2**20 panels, so every estimate
    # past 2**13 panels is summed in pieces; the longhand sums whole rows
    times = [0.2, 0.5, 0.9, 1.3]
    long_times = set()
    rows = sources._midpoint_rows

    def spy(f, lo, hi, t, panels):
        if panels > _BLOCK_POINTS:
            long_times.update(t.tolist())
        return rows(f, lo, hi, t, panels=panels)

    monkeypatch.setattr(sources, "_midpoint_rows", spy)
    series = incident_series(SAMPLED_M1, 3.0, 1.0, 0.0, times, 1e-10)
    assert long_times == set(times)
    alone = [doubled_midpoint(SAMPLED_M1, 3.0, 1.0, 0.0, t, 1e-10)
             for t in times]
    assert np.array_equal(series, alone)


@pytest.mark.parametrize("block", [1 << 7, 1 << 10, 1 << 13])
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_series_does_not_depend_on_the_block_size(tmp_path, monkeypatch,
                                                  block, tol):
    # short rows (to 2**10 panels) and long ones (to 2**19) at 1e-10
    times = 0.1 * np.arange(31)
    tab = TabulatedSource.from_csv(bilinear_csv(tmp_path))
    picked = times[[3, 9, 14, 16, 22]]
    for src, t in ((SAMPLED_M1, picked), (PULSE_M1, picked), (tab, times)):
        want = incident_series(src, 3.0, 1.0, 0.0, t, tol)
        with monkeypatch.context() as m:
            m.setattr(sources, "_BLOCK_POINTS", block)
            got = incident_series(src, 3.0, 1.0, 0.0, t, tol)
        assert np.array_equal(got, want)


def stop_panels(monkeypatch, src, t, tol):
    """The panel count at which one time's doubling stops, and its value."""
    levels = []
    rows = sources._midpoint_rows

    def spy(*args, panels):
        levels.append(panels)
        return rows(*args, panels=panels)

    with monkeypatch.context() as m:
        m.setattr(sources, "_midpoint_rows", spy)
        value = characteristic_integral(src, 3.0, 1.0, 0.0, t, tol)
    return max(levels), value


NARROW = GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0, support=(3.8, 4.3))


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("pulse", [PULSE_M1, PULSE_M2, NARROW],
                         ids=["m1", "m2", "narrow"])
def test_completed_square_stops_where_sampling_stops(monkeypatch, pulse, tol):
    # with a1 = 3 and c0 = 1 the cone edge 3 + t sweeps the support from
    # t = support[0] - 3 to t = support[1] - 3; each time stops at the same
    # panel count on both paths and the two estimates differ only in rounding
    plain = Sampled(pulse)
    for t in np.linspace(pulse.support[0] - 2.95, 2.6, 18):
        panels, got = stop_panels(monkeypatch, pulse, t, tol)
        want_panels, want = stop_panels(monkeypatch, plain, t, tol)
        assert panels == want_panels
        assert got != 0.0 and abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("pulse", [PULSE_M1, PULSE_M2], ids=["m1", "m2"])
@pytest.mark.parametrize("c0", [0.5, 1.0, 2.0])
def test_completed_square_is_the_integrand(pulse, c0):
    rng = np.random.default_rng(7)
    a1, t0 = 3.0, 0.0
    t = rng.uniform(t0, 3.0, 400)
    hi = np.minimum(pulse.support[1], a1 + c0 * (t - t0))
    keep = hi > pulse.support[0]
    t, hi = t[keep], hi[keep]
    x = pulse.support[0] + rng.uniform(0.0, 1.0, t.size) * (hi - pulse.support[0])
    amp, mu, rt = pulse.completed_square(a1, c0, t)
    assert amp.shape == mu.shape == t.shape and isinstance(rt, float)
    want = pulse(x, t - (x - a1) / c0)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(amp * np.exp(-(rt * (x - mu)) ** 2), want,
                               rtol=1e-13, atol=0.0)


def test_a_square_past_float_range_falls_back_to_sampling():
    # at c0 = 1e-155 the rate time_rate/c0**2 overflows, and the completed
    # square would turn the trace into NaN; at c0 = 1e160 it underflows to
    # nothing beside space_rate, which the square handles
    with np.errstate(over="ignore", invalid="ignore"):
        for c0, times, exact in ((1e-155, [2e155, 3e155], True),
                                 (1e160, [3e-161, 1e-160, 0.5], False)):
            got = incident_series(PULSE_M1, 3.0, c0, 0.0, times, 1e-10)
            want = incident_series(SAMPLED_M1, 3.0, c0, 0.0, times, 1e-10)
            assert np.all(np.isfinite(got))
            if exact:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
                assert np.all(got > 0.0)


def pieces_summed(row, piece):
    """``piece``-value sums of ``row`` added in a balanced pairwise tree."""
    sums = np.array([np.sum(row[k:k + piece])
                     for k in range(0, row.size, piece)])
    while sums.size > 1:
        sums = sums[0::2] + sums[1::2]
    return sums[0]


def test_piece_sums_in_a_pairwise_tree_are_numpys_row_sum():
    # the long-row quadrature rests on numpy summing a contiguous row
    # pairwise down to 128-value leaves; a wide spread of magnitudes makes
    # any other order round differently
    rng = np.random.default_rng(0)
    sequential = smaller_leaf = 0
    for e in range(14, 21):
        row = rng.standard_normal(1 << e) * np.exp(rng.uniform(-20, 20, 1 << e))
        want = np.sum(row[None], axis=-1)[0]
        assert pieces_summed(row, _BLOCK_POINTS) == want
        assert pieces_summed(row, 128) == want
        sums = [np.sum(row[k:k + _BLOCK_POINTS])
                for k in range(0, row.size, _BLOCK_POINTS)]
        sequential += reduce(operator.add, sums) != want
        smaller_leaf += pieces_summed(row, 64) != want
    # the check can fail: a left-to-right fold of the pieces, or pieces
    # below numpy's leaf, round differently on some of these rows
    assert sequential > 0 and smaller_leaf > 0


def test_block_is_a_power_of_two_of_at_least_numpys_leaf():
    _check_block(_BLOCK_POINTS)
    assert _BLOCK_POINTS * 8 <= 64 * 1024
    for bad in (0, 64, 100, 3 << 12, (1 << 13) + 1):
        with pytest.raises(ValueError, match="power of two >= 128"):
            _check_block(bad)


PAGE_FAULT_PROBE = """
import json, resource
import numpy as np
from eoscatter import Scenario1, load_preset
from eoscatter.sources import RUN_QUAD_REL_TOL, incident_series

cfg = load_preset("fig2-run-m1")
scn = Scenario1(grid=cfg.grid, mat=cfg.mat, dt=cfg.dt, t_end=cfg.t_end,
                source=cfg.source)

def faults(times, tol):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    incident_series(scn.source, scn.grid.a1, scn.mat.c0, scn.t0, times, tol)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

steps = scn.t0 + scn.dt * np.arange(scn.steps + 1)
print(json.dumps([steps.size, faults(steps, RUN_QUAD_REL_TOL),
                  faults(0.025 * np.arange(120), 1e-10)]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts glibc's page faults")
def test_quadrature_temporaries_do_not_fault_pages():
    # 128 KiB temporaries sat at glibc's mmap threshold, and each was
    # mapped and faulted in afresh: about 160 k and 270 k minor faults
    src = str(Path(sources.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", PAGE_FAULT_PROBE], env=env,
                         check=True, capture_output=True, text=True).stdout
    times, run_faults, tight_faults = json.loads(out)
    assert times == 10_668
    assert run_faults < 10_000 and tight_faults < 10_000


def test_incident_series_is_zero_before_arrival():
    # support [4, 6] is 1 away from a1 = 3: with c0 = 2 and t0 = 0.5 the
    # causal cone reaches it at t = 1
    far = GaussianSource(5.0, 5.0, 36.0, 1.5, 4.0)
    times = np.linspace(-1.0, 3.0, 81)
    got = incident_series(far, 3.0, 2.0, 0.5, times)
    assert np.all(got[times <= 1.0] == 0.0)
    assert np.all(got[times > 1.0] != 0.0)


def test_incident_series_panel_cap_raises():
    with pytest.raises(QuadratureError, match="panels"):
        incident_series(PULSE_M1, 3.0, 1.0, 0.0, [0.5, 1.0], rel_tol=1e-12,
                        panel_cap=32)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["c0", "rel_tol"])
def test_quadrature_rejects_a_bad_speed_or_tolerance(name, bad):
    # a NaN c0 read 0.0, and a NaN rel_tol refined to the panel cap
    args = {"c0": 1.0, "rel_tol": 1e-6, name: bad}
    for call in (lambda: incident_series(PULSE_M1, 3.0, args["c0"], 0.0, [1.0],
                                         args["rel_tol"]),
                 lambda: characteristic_integral(PULSE_M1, 3.0, args["c0"], 0.0,
                                                 1.0, args["rel_tol"])):
        with pytest.raises(ValueError, match=f"^{name} must be a positive finite "
                           f"number, got {bad!r}$"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_quadrature_rejects_a_nonfinite_time(bad):
    # a NaN time read 0.0, and so did a non-finite a1
    with pytest.raises(ValueError, match="finite"):
        incident_series(PULSE_M1, 3.0, 1.0, 0.0, [0.5, bad, 1.5])
    with pytest.raises(ValueError, match="finite"):
        characteristic_integral(PULSE_M1, 3.0, 1.0, 0.0, bad)
    with pytest.raises(ValueError, match="t0"):
        incident_series(PULSE_M1, 3.0, 1.0, bad, [0.5, 1.5])
    mat1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
    mat2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3,
                     gamma=8.0)
    for call in (lambda: incident_series(PULSE_M1, bad, 1.0, 0.0, [0.5, 1.5]),
                 lambda: characteristic_integral(PULSE_M1, bad, 1.0, 0.0, 1.5),
                 lambda: incident_trace(PULSE_M1, bad, mat1, 0.0, 1.5),
                 lambda: incident_pair(PULSE_M1, bad, mat2, 0.0, [0.5, 1.5])):
        with pytest.raises(ValueError, match="a1"):
            call()


class Supported:
    """A unit source on the support ``support``, as a duck-typed source."""

    def __init__(self, support):
        self.support = support

    def __call__(self, x, t):
        return np.ones(np.broadcast(x, t).shape)


@pytest.mark.parametrize("support", [(math.nan, 5.0), (4.0, math.nan), (5.0, 4.0),
                                     (4.0, 4.0), (4.0,), "45", None])
def test_quadrature_rejects_a_support_that_is_not_lo_below_hi(support):
    # (nan, 5) integrated from a1 and read [1, 2] at t = 1, 2; (4, nan) and
    # the reversed (5, 4) read all zeros
    with pytest.raises(ValueError, match="support"):
        incident_series(Supported(support), 3.0, 1.0, 0.0, [1.0, 2.0])
    with pytest.raises(ValueError, match="support"):
        characteristic_integral(Supported(support), 3.0, 1.0, 0.0, 2.0)


def test_quadrature_takes_a_support_of_any_two_numbers():
    # integers, numpy scalars and an open upper end are two numbers lo < hi
    for support in ((4, 5), np.array([4.0, 5.0]), (4.0, math.inf)):
        got = incident_series(Supported(support), 3.0, 1.0, 0.0, [1.0, 1.5, 1.75])
        np.testing.assert_allclose(got, [0.0, 0.5, 0.75], rtol=1e-12)


@pytest.mark.parametrize("cap", [0, -5, 8, 15, 12.5, 32.0, True, None, "64"])
def test_quadrature_rejects_a_bad_panel_cap(cap):
    # 0, -5, 8 and 12.5 raised "stalled at 8 panels ... change inf"
    for call in (lambda: incident_series(PULSE_M1, 3.0, 1.0, 0.0, [1.0],
                                         panel_cap=cap),
                 lambda: characteristic_integral(PULSE_M1, 3.0, 1.0, 0.0, 1.0,
                                                 panel_cap=cap)):
        with pytest.raises(ValueError, match=f"^panel_cap must be a finite integer "
                           f">= 16, got {re.escape(repr(cap))}$"):
            call()


def test_smallest_panel_cap_refines_once():
    got = incident_series(PULSE_M1, 3.0, 1.0, 0.0, [0.0, 1.0], 0.1,
                          panel_cap=np.int64(16))
    assert got[0] == 0.0 and got[1] != 0.0
    with pytest.raises(QuadratureError, match="stalled at 16 panels"):
        incident_series(PULSE_M1, 3.0, 1.0, 0.0, [1.0], 1e-12, panel_cap=16)


def test_quadrature_error_names_the_time_as_a_float():
    with pytest.raises(QuadratureError, match=r"at t=1\.0 \(rel_tol=1e-12\)$"):
        incident_series(PULSE_M1, 3.0, 1.0, 0.0, np.array([1.0]), 1e-12,
                        panel_cap=32)


def test_midpoint_halving_cuts_error_fourfold():
    exact = math.e - 1.0
    err = [abs(_composite_midpoint(np.exp, 0.0, 1.0, n) - exact) for n in (64, 128)]
    assert 3.5 < err[0] / err[1] < 4.5


def test_panel_cap_raises_with_achieved_error():
    with pytest.raises(QuadratureError, match="panels"):
        characteristic_integral(
            PULSE_M1, 3.0, 1.0, 0.0, 1.0, rel_tol=1e-12, panel_cap=32
        )


# -- tabulated sources -------------------------------------------------------


def bilinear_csv(tmp_path):
    path = tmp_path / "src.csv"
    xs = [4.0, 4.5, 5.0]
    ts = [0.0, 1.0, 2.0]
    rows = ["x,t,value"]
    for x in xs:
        for t in ts:
            rows.append(f"{x},{t},{2.0 + 3.0 * x - t + 0.5 * x * t}")
    path.write_text("\n".join(rows) + "\n")
    return path


def test_tabulated_reproduces_bilinear_function(tmp_path):
    src = TabulatedSource.from_csv(bilinear_csv(tmp_path))
    assert src.support == (4.0, 5.0)
    for x, t in [(4.2, 0.3), (4.5, 1.0), (4.9, 1.7), (4.0, 0.0), (5.0, 2.0)]:
        want = 2.0 + 3.0 * x - t + 0.5 * x * t
        assert src(x, t) == pytest.approx(want, abs=1e-12)


def test_tabulated_outside_rectangle_is_zero(tmp_path):
    src = TabulatedSource.from_csv(bilinear_csv(tmp_path))
    assert src(3.9, 1.0) == 0.0
    assert src(5.1, 1.0) == 0.0
    assert src(4.5, -0.1) == 0.0
    assert src(4.5, 2.1) == 0.0


def test_tabulated_constant_integrates_to_overlap_length():
    src = TabulatedSource(
        x=np.array([4.0, 5.0]),
        t=np.array([0.0, 10.0]),
        values=np.ones((2, 2)),
    )
    got = characteristic_integral(src, 3.0, 1.0, 0.0, 5.0)
    assert got == pytest.approx(1.0, abs=1e-12)


def test_tabulated_rejects_ragged_csv(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,t,value\n4.0,0.0,1.0\n4.0,1.0,1.0\n5.0,0.0,1.0\n")
    with pytest.raises(ValueError, match="rectangular"):
        TabulatedSource.from_csv(path)


def test_tabulated_rejects_duplicate_csv_rows(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("x,t,value\n4.0,0.0,1.0\n4.0,1.0,1.0\n5.0,0.0,1.0\n"
                    "5.0,1.0,1.0\n4.0,1.0,2.0\n")
    with pytest.raises(ValueError, match=r"duplicate.*\(4\.0, 1\.0\)"):
        TabulatedSource.from_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_tabulated_csv_names_a_non_finite_value(tmp_path, cell):
    # a nan cell was reported as a grid that is not rectangular, and an inf
    # one without its row
    path = tmp_path / "bad.csv"
    path.write_text(f"x,t,value\n4.0,0.0,1.0\n4.0,1.0,{cell}\n5.0,0.0,1.0\n"
                    "5.0,1.0,1.0\n")
    with pytest.raises(ValueError, match=r"^sample values must be finite, got "
                       r"-?(nan|inf) at \(x, t\) = \(4\.0, 1\.0\)$"):
        TabulatedSource.from_csv(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["amplitude", "x_center", "space_rate",
                                  "t_center", "time_rate", "support"])
def test_gaussian_source_rejects_nonfinite_parameters(name, value):
    # a NaN space_rate gave support (nan, nan), which passed the scenario's
    # support check and ran to all-zero traces; a NaN amplitude ran the
    # panel doubling to its cap
    params = dict(amplitude=5.0, x_center=4.0, space_rate=36.0,
                  t_center=0.5, time_rate=4.0)
    params[name] = (3.5, value) if name == "support" else value
    with pytest.raises(ValueError, match="finite"):
        GaussianSource(**params)


@pytest.mark.parametrize("support", [(4.5,), (4.0, 4.5, 5.0), (4.5, 4.0), (4.5, 4.5),
                                     "ab", 4.0, (4.0, "x"), (True, 5), (4.0, True)])
def test_gaussian_source_rejects_a_support_that_is_not_two_numbers_lo_below_hi(support):
    # a one-number support raised IndexError and a three-number one was
    # accepted, until a scenario rejected it; a string, a number or a
    # non-numeric end raised TypeError in the finiteness test; a bool end
    # was kept as the number it equals, which the config rejects
    with pytest.raises(ValueError, match="support"):
        GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0, support=support)


def test_gaussian_source_keeps_a_given_support_as_two_floats():
    # a list support was kept as the list: the source was unhashable and
    # unequal to the same source built with a tuple
    src = GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0, support=[3, 5])
    assert src.support == (3.0, 5.0)
    assert all(type(v) is float for v in src.support)
    assert src == GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0, support=(3.0, 5.0))
    assert hash(src) == hash(GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0,
                                            support=np.array([3.0, 5.0])))


@pytest.mark.parametrize("x, t", [([3.0, math.nan, 5.0], [0.0, 1.0]),
                                  ([3.0, 5.0], [0.0, math.inf])])
def test_tabulated_source_rejects_nonfinite_coordinates(x, t):
    with pytest.raises(ValueError, match="finite"):
        TabulatedSource(x=np.array(x), t=np.array(t),
                        values=np.ones((len(x), len(t))))
