"""Analytic derivatives and residual sources vs finite-difference oracles."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eoscatter.config import load_preset
from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.history import RetardedSum
from eoscatter.mms import (
    ArctanGaussianPulse,
    GaussianBump,
    ManufacturedFields1,
    ManufacturedFields2,
    ResidualSources1,
    ResidualSources2,
    ZeroField,
)

from oracles import (
    bump_derivatives_longhand,
    fd4_dt,
    fd4_dx,
    pulse_derivatives_longhand,
    residual_terms_longhand,
    step_increments_longhand,
)

MAT1 = Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
MAT2 = Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3, gamma=8.0)
# mu1 != nu1, so a source that read the coupling matrix transposed shows
MAT2_UNEQUAL = Material2(mu1=3.0, nu1=4.0 / 3.0, mu0=2.0, nu0=0.5,
                         alpha=-1.0, beta=0.3, gamma=8.0)

POINTS = [(0.3, 0.4), (1.0, 1.1), (2.2, 1.9), (1.55, 0.75)]
DT = 0.006  # the step of the increments, the N = 100 rung's at dt_cfl 0.4


def term(fields, mat, name):
    """The oracle's residual term ``name`` as a function of ``(x, t)``."""
    return lambda x, t: residual_terms_longhand(fields, mat, x, t)[name]


def check_derivatives(f, tol=1e-8):
    for x, t in POINTS:
        assert f.dx(x, t) == pytest.approx(fd4_dx(f.value, x, t), abs=tol)
        assert f.dt(x, t) == pytest.approx(fd4_dt(f.value, x, t), abs=tol)
        assert f.dxx(x, t) == pytest.approx(fd4_dx(f.dx, x, t), abs=tol)
        assert f.dxt(x, t) == pytest.approx(fd4_dt(f.dx, x, t), abs=tol)
        assert f.dxt(x, t) == pytest.approx(fd4_dx(f.dt, x, t), abs=tol)
        assert f.dtt(x, t) == pytest.approx(fd4_dt(f.dt, x, t), abs=tol)


def test_pulse_derivatives_match_finite_differences():
    check_derivatives(ManufacturedFields1.demo().phi)


def test_bump_derivatives_match_finite_differences():
    check_derivatives(ManufacturedFields1.demo().j)
    check_derivatives(ManufacturedFields1.demo().rho)


def test_pulse_matches_longhand_formula():
    p = ManufacturedFields1.demo().phi
    x, t = 1.7, 1.1
    want = (
        (2.0 * 1.0 / math.pi)
        * math.atan((1.0 * t) ** 2)
        * math.exp(-4.0 * (x - 6.0 + 4.0 * (t - 1.0)) ** 2)
    )
    assert p.value(x, t) == pytest.approx(want, rel=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(-3.0, 9.0),
    amp=st.floats(0.1, 3.0),
    ramp=st.floats(0.2, 2.0),
)
def test_pulse_starts_quiet(x, amp, ramp):
    p = ArctanGaussianPulse(
        amplitude=amp, ramp_rate=ramp, rate=4.0, drift=4.0, center=6.0, t_shift=1.0
    )
    assert p.value(x, 0.0) == 0.0
    assert p.dx(x, 0.0) == 0.0


def test_demo_families_start_quiet_on_a_grid():
    x = np.linspace(0.0, 3.0, 200)
    f1 = ManufacturedFields1.demo()
    f2 = ManufacturedFields2.demo()
    assert np.all(f1.phi.value(x, 0.0) == 0.0)
    assert np.all(f2.phi.value(x, 0.0) == 0.0)
    assert np.all(f2.psi.value(x, 0.0) == 0.0)


@pytest.mark.parametrize("cls, potentials", [
    (ManufacturedFields1, ("phi",)), (ManufacturedFields2, ("phi", "psi"))])
def test_demo_gives_every_potential_one_pulse_object(cls, potentials):
    demo = cls.demo()
    assert cls.potentials == potentials
    assert [f.name for f in dataclasses.fields(cls)] == [*potentials, "j", "rho"]
    assert all(getattr(demo, p) is demo.phi for p in potentials)
    assert isinstance(demo.phi, ArctanGaussianPulse)


@pytest.mark.parametrize("cls", [ManufacturedFields1, ManufacturedFields2])
def test_manufactured_fields_survive_a_pickle_round_trip(cls):
    demo = cls.demo()
    back = pickle.loads(pickle.dumps(demo))
    assert type(back) is cls and back == demo
    assert cls.__module__ == "eoscatter.mms"
    with pytest.raises(dataclasses.FrozenInstanceError):
        back.phi = ZeroField()


def test_zero_fields_give_zero_sources():
    src = ResidualSources1(
        ManufacturedFields1(ZeroField(), ZeroField(), ZeroField()), MAT1
    )
    for x, t in POINTS:
        inc = src.at(x, DT)(t)
        assert sorted(inc) == ["j", "phi", "rho", "s_phi"]
        assert all(v == 0.0 for v in inc.values())


def test_residual_closure_model1():
    """The oracle's terms, and the sources' ``s_phi``, are what the fields
    leave over in each equation."""
    f = ManufacturedFields1.demo()
    src = ResidualSources1(f, MAT1)
    for x, t in POINTS:
        terms = residual_terms_longhand(f, MAT1, x, t)
        assert src.at(x, DT)(t)["s_phi"] == pytest.approx(terms["phi"], abs=1e-13)
        r1 = f.phi.dt(x, t) - MAT1.c1 * f.phi.dx(x, t) - f.j.value(x, t) - terms["phi"]
        r2 = f.rho.dt(x, t) + f.j.dx(x, t) - terms["rho"]
        r3 = (
            f.j.dt(x, t)
            - (MAT1.alpha - MAT1.beta * f.rho.value(x, t)) * f.phi.value(x, t)
            + MAT1.gamma * f.j.value(x, t)
            - terms["j"]
        )
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12 and abs(r3) < 1e-12


def test_residual_closure_model2():
    f = ManufacturedFields2.demo()
    src = ResidualSources2(f, MAT2)
    for x, t in POINTS:
        terms = residual_terms_longhand(f, MAT2, x, t)
        inc = src.at(x, DT)(t)
        for p in ("phi", "psi"):
            assert inc["s_" + p] == pytest.approx(terms[p], abs=1e-13)
        r1 = f.phi.dt(x, t) - MAT2.mu1 * f.psi.dx(x, t) - f.j.value(x, t) - terms["phi"]
        r2 = f.psi.dt(x, t) - MAT2.nu1 * f.phi.dx(x, t) - terms["psi"]
        r3 = f.rho.dt(x, t) + f.j.dx(x, t) - terms["rho"]
        r4 = (
            f.j.dt(x, t)
            - (MAT2.alpha - MAT2.beta * f.rho.value(x, t)) * f.phi.value(x, t)
            + MAT2.gamma * f.j.value(x, t)
            - terms["j"]
        )
        assert max(abs(r1), abs(r2), abs(r3), abs(r4)) < 1e-12


def test_residual_closure_model2_with_unequal_coupling():
    # mu1 != nu1 and psi a pulse of its own, so a source that read the
    # coupling matrix transposed, or psi for phi, would show here; the
    # demo material's mu1 = nu1 hides the first
    mat = MAT2_UNEQUAL
    f = own_psi_family()
    src = ResidualSources2(f, mat)
    for x, t in POINTS:
        inc = src.at(x, DT)(t)
        r1 = f.phi.dt(x, t) - mat.mu1 * f.psi.dx(x, t) - f.j.value(x, t) - inc["s_phi"]
        r2 = f.psi.dt(x, t) - mat.nu1 * f.phi.dx(x, t) - inc["s_psi"]
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12
        terms = residual_terms_longhand(f, mat, x, t)
        assert abs(terms["phi"] - inc["s_phi"]) < 1e-12
        assert abs(terms["psi"] - inc["s_psi"]) < 1e-12
    # the coupling terms are not negligible at every point
    assert max(abs(f.psi.dx(x, t)) for x, t in POINTS) > 0.1
    assert max(abs(f.phi.dx(x, t)) for x, t in POINTS) > 0.1
    check_source_derivatives(
        f, mat, SOURCE_DERIVATIVES + [("psi_dx", "psi", fd4_dx), ("psi_dt", "psi", fd4_dt)])


def test_source_via_finite_differenced_fields_model1():
    f = ManufacturedFields1.demo()
    src = ResidualSources1(f, MAT1)
    for x, t in POINTS:
        indirect = (
            fd4_dt(f.phi.value, x, t)
            - MAT1.c1 * fd4_dx(f.phi.value, x, t)
            - f.j.value(x, t)
        )
        assert src.at(x, DT)(t)["s_phi"] == pytest.approx(indirect, abs=1e-8)


def check_source_derivatives(fields, mat, derived):
    """Each ``(derivative, term, fd)`` of ``derived`` among the oracle's
    terms against the fourth-order finite difference ``fd`` of its term."""
    for x, t in POINTS:
        terms = residual_terms_longhand(fields, mat, x, t)
        for name, of, fd in derived:
            want = fd(term(fields, mat, of), x, t)
            assert terms[name] == pytest.approx(want, abs=1e-8), name


SOURCE_DERIVATIVES = [("phi_dx", "phi", fd4_dx), ("phi_dt", "phi", fd4_dt),
                      ("rho_dt", "rho", fd4_dt), ("j_dx", "j", fd4_dx)]


def test_source_derivatives_model1():
    check_source_derivatives(ManufacturedFields1.demo(), MAT1, SOURCE_DERIVATIVES)


def test_source_derivatives_model2():
    check_source_derivatives(
        ManufacturedFields2.demo(), MAT2,
        SOURCE_DERIVATIVES + [("psi_dx", "psi", fd4_dx), ("psi_dt", "psi", fd4_dt)])


# The point sets the solvers evaluate fields on: one point, the nodes at one
# time, and the retarded points (one time per node).
_NODES = np.linspace(0.0, 3.0, 41)
SHAPES = {
    "scalar": (1.55, 0.75),
    "nodes": (_NODES, 1.3),
    "retarded": (_NODES, 1.9 - _NODES / 2.0),
}
METHODS = ("value", "dx", "dt", "dxx", "dxt", "dtt")
FIELDS = {
    "pulse": ManufacturedFields1.demo().phi,
    "pulse-slow-ramp": ArctanGaussianPulse(
        amplitude=0.7, ramp_rate=0.6, rate=3.0, drift=-1.5, center=1.0, t_shift=0.2),
    "bump-j": ManufacturedFields1.demo().j,
    "bump-rho": ManufacturedFields1.demo().rho,
}


def close_to(got, want, rel):
    """``got`` equals ``want`` within ``rel`` of max|want| (or exactly 0)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", FIELDS)
def test_jet_matches_the_six_methods_and_its_lower_orders(name, shape):
    f, (x, t) = FIELDS[name], SHAPES[shape]
    jet = f.at(x)(t)
    assert len(jet) == 6
    for k, method in enumerate(METHODS):
        assert close_to(jet[k], getattr(f, method)(x, t), 1e-15), method


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", [*FIELDS, "zero"])
def test_jet_matches_the_longhand_derivatives(name, shape):
    """The evaluator ``at(x)``, all six entries."""
    x, t = SHAPES[shape]
    if name == "zero":
        f = ZeroField()
        want = [np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)] * 6
    else:
        f = FIELDS[name]
        longhand = (pulse_derivatives_longhand if name.startswith("pulse")
                    else bump_derivatives_longhand)
        want = longhand(f, x, t)
    got = f.at(x)(t)
    assert len(got) == 6
    for k, method in enumerate(METHODS):
        assert close_to(got[k], want[k], 1e-13), method


@pytest.mark.parametrize("shape", SHAPES)
def test_zero_field_jet_is_zeros_of_the_broadcast_shape(shape):
    x, t = SHAPES[shape]
    want = np.broadcast(np.asarray(x), np.asarray(t)).shape
    jet = ZeroField().at(x)(t)
    assert len(jet) == 6
    for a in jet:
        assert a.shape == want and np.all(a == 0.0)


def test_folded_source_sums_are_third_order_close_to_exact_retarded_sums():
    # The solver pushes the nodal phi and psi residual sources of each level
    # into the retarded sums beside the current, so each node's source is
    # read at its retarded time by the quadratic rule of the current.  Its
    # gap to the masked sum of the sources at the retarded times, weighted by
    # dx/c1 as in the traces, must fall 8x per doubling: third order.
    src = ResidualSources2(ManufacturedFields2.demo(), MAT2)
    c1 = MAT2.c1
    gaps = []
    for n in (100, 200, 400, 800):
        g = GridSpec(0.0, 3.0, n)
        dt = 0.4 * g.dx / c1
        t = dt * np.arange(int(np.ceil(2.0 / dt - 1e-9)) + 1)
        sets = ((g.x - g.a0) / c1, (g.a1 - g.x) / c1)
        readers = [[RetardedSum(0.0, dt, delays) for _ in range(2)]
                   for delays in sets]
        increments_at = src.at(g.x, dt)
        folded = np.array([
            [[reader.push(inc["s_" + p]) for reader, p in zip(pair, ("phi", "psi"))]
             for pair in readers]
            for inc in map(increments_at, t)])
        gap = 0.0
        for block in np.array_split(np.arange(t.size), t.size // 256 + 1):
            for side, delays in enumerate(sets):
                at = t[block, None] - delays
                exact = increments_at(at)
                for k, p in enumerate(("phi", "psi")):
                    want = np.sum(np.where(at > 0.0, exact["s_" + p], 0.0), axis=1)
                    gap = max(gap, np.max(np.abs(folded[block, side, k] - want)))
        gaps.append(g.dx / c1 * gap)
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert all(7.0 < r < 9.0 for r in ratios), (gaps, ratios)


# -- the x-only evaluators: ``Field.at`` and ``ResidualSources*.at`` ---------

FAMILIES = st.one_of(
    st.builds(ArctanGaussianPulse, amplitude=st.floats(-3.0, 3.0),
              ramp_rate=st.floats(-2.0, 2.0), rate=st.floats(0.1, 8.0),
              drift=st.floats(-5.0, 5.0), center=st.floats(-3.0, 9.0),
              t_shift=st.floats(-1.0, 2.0)),
    st.builds(GaussianBump, amplitude=st.floats(-3.0, 3.0),
              x_center=st.floats(-1.0, 4.0), x_width=st.floats(0.1, 3.0),
              t_center=st.floats(0.0, 3.0), t_width=st.floats(0.1, 3.0)),
    st.just(ZeroField()),
)
LATER = 0.3  # a second time for the same evaluator


@settings(max_examples=60, deadline=None)
@given(f=FAMILIES, shape=st.sampled_from(sorted(SHAPES)))
def test_field_at_equals_jet_bit_for_bit(f, shape):
    """One evaluator ``at(x)`` serves every time: its jets equal those of an
    evaluator built afresh for the call, bit for bit, and on the nodes a
    ``(K, 1)`` column of times gives row k equal to the jet at time k."""
    x, t = SHAPES[shape]
    jet_at = f.at(x)
    for when in (t, np.add(t, LATER)):
        got, want = jet_at(when), f.at(x)(when)
        assert len(got) == len(want) == 6
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    if shape == "nodes":
        times = [t, t + LATER]
        rows = jet_at(np.array(times)[:, None])
        for k, when in enumerate(times):
            for a, b in zip(rows, jet_at(when), strict=True):
                assert a.shape == (2, x.size) and np.array_equal(a[k], b)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("model", [1, 2])
def test_source_at_equals_fresh_increments_bit_for_bit(model, shape):
    """One evaluator ``at(x, dt)`` serves every time: its increments equal
    those of an evaluator built afresh for the call, bit for bit."""
    x, t = SHAPES[shape]
    src = (ResidualSources1(ManufacturedFields1.demo(), MAT1) if model == 1
           else ResidualSources2(ManufacturedFields2.demo(), MAT2))
    increments_at = src.at(x, DT)
    for when in (t, np.add(t, LATER)):
        got, want = increments_at(when), src.at(x, DT)(when)
        assert got.keys() == want.keys()
        assert all(np.array_equal(got[k], want[k]) for k in want)


def own_psi_family() -> ManufacturedFields2:
    """Model 2's demo family with a psi pulse of its own, amplitude 0.5."""
    demo = ManufacturedFields2.demo()
    return ManufacturedFields2(phi=demo.phi,
                               psi=ArctanGaussianPulse(**{**vars(demo.phi),
                                                          "amplitude": 0.5}),
                               j=demo.j, rho=demo.rho)


SOURCES = {
    "m1-demo": lambda: ResidualSources1(ManufacturedFields1.demo(), MAT1),
    "m2-demo": lambda: ResidualSources2(ManufacturedFields2.demo(), MAT2),
    "m2-own-psi": lambda: ResidualSources2(own_psi_family(), MAT2),
    "m2-own-psi-unequal": lambda: ResidualSources2(own_psi_family(), MAT2_UNEQUAL),
}


@pytest.mark.parametrize("epsilon", [0.0, 1.0])
@pytest.mark.parametrize("family", SOURCES)
def test_increments_equal_the_longhand_oracle(family, epsilon):
    """The increments equal the oracle's ``dt*s + dt**2/2*(...)`` of its
    longhand terms to rounding, on the nodes at one time, at the retarded
    points (one time per node) and at a column of times."""
    src, grid = SOURCES[family](), GridSpec(0.0, 3.0, 100, epsilon)
    dt = 0.4 * grid.dx / src.mat.c1
    increments_at = src.at(grid.x, dt)
    for t in (0.75, 1.3, 1.9 - grid.x / 2.0, np.array([[0.4], [1.1], [1.6]])):
        got = increments_at(t)
        terms = residual_terms_longhand(src.fields, src.mat, grid.x, t)
        want = step_increments_longhand(terms, src.mat, dt)
        assert sorted(got) == sorted(want)
        for name, value in want.items():
            assert close_to(got[name], value, 1e-13), name
    # and at one point, where every entry is a numpy scalar
    x, t = SHAPES["scalar"]
    got = src.at(x, dt)(t)
    want = step_increments_longhand(residual_terms_longhand(src.fields, src.mat, x, t),
                                    src.mat, dt)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=1e-13, abs=1e-300), name


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(sorted(SOURCES)), n=st.integers(4, 1100),
       start=st.integers(0, 3000), length=st.integers(1, 64))
# the N = 200 rung's level 221 (t = 0.663), where squaring a float with
# ``**`` and an array with a product rounded the rho bump's time factor apart
@example(family="m1-demo", n=200, start=216, length=8)
def test_blocked_increments_equal_per_level_increments_bit_for_bit(family, n, start,
                                                                   length):
    """One ``increments_at`` call on a ``(K, 1)`` array of level times, as
    the march makes on a coarse grid, gives each level's increments bit for
    bit."""
    src, grid = SOURCES[family](), GridSpec(0.0, 3.0, n)
    dt = 0.4 * grid.dx / src.mat.c1
    times = dt * np.arange(start, start + length)
    increments_at = src.at(grid.x, dt)
    rows = increments_at(times[:, None])
    for k, t in enumerate(times.tolist()):
        want = increments_at(t)
        assert rows.keys() == want.keys()
        for name in want:
            assert rows[name].shape == (length, n)
            assert np.array_equal(rows[name][k], want[name]), (name, t)


def node_exps_per_level(src, monkeypatch) -> int:
    """N-node exponentials in one ``increments_at`` call at a scalar time."""
    x, exp, count = np.linspace(0.0, 3.0, 64), np.exp, [0]

    def counted_exp(z, *args, **kw):
        count[0] += np.size(z) == x.size
        return exp(z, *args, **kw)

    increments_at = src.at(x, DT)
    monkeypatch.setattr(np, "exp", counted_exp)
    increments_at(0.7)
    monkeypatch.undo()
    return count[0]


class Unhashable(ArctanGaussianPulse):
    """The pulse, unhashable: the sources match it by identity alone."""

    __hash__ = None


def test_model2_evaluates_each_distinct_pulse_once(monkeypatch):
    demo = ManufacturedFields2.demo()
    # what the configuration builds when ``pulse_psi`` is absent: an equal
    # pulse, not the same object
    cfg = load_preset("fig3-mms-m2").mms
    assert cfg.psi == cfg.phi and cfg.psi is not cfg.phi
    x = np.linspace(0.0, 3.0, 64)
    for fields, want in ((demo, 1), (cfg, 1), (own_psi_family(), 2)):
        src = ResidualSources2(fields, MAT2)
        assert node_exps_per_level(src, monkeypatch) == want
        # a shared jet changes no increment: psi evaluated on its own gives the same
        alone = ResidualSources2(ManufacturedFields2(
            fields.phi, Unhashable(**vars(fields.psi)), fields.j, fields.rho), MAT2)
        assert node_exps_per_level(alone, monkeypatch) == 2
        got, ref = src.at(x, DT)(0.7), alone.at(x, DT)(0.7)
        assert all(np.array_equal(got[k], ref[k]) for k in ref)
    assert node_exps_per_level(
        ResidualSources1(ManufacturedFields1.demo(), MAT1), monkeypatch) == 1


def test_unhashable_fields_are_matched_by_identity(monkeypatch):
    demo = ManufacturedFields2.demo()
    phi = Unhashable(**vars(demo.phi))
    for psi, want in ((phi, 1), (Unhashable(**vars(demo.phi)), 2)):
        assert psi == phi
        src = ResidualSources2(ManufacturedFields2(phi, psi, demo.j, demo.rho), MAT2)
        assert node_exps_per_level(src, monkeypatch) == want


BAD_PULSES = [dict(rate=0.0), dict(rate=-1.0), dict(amplitude=math.nan),
              dict(drift=math.inf), dict(center=-math.inf), dict(t_shift=math.nan),
              dict(ramp_rate=math.inf)]
BAD_BUMPS = [dict(x_width=0.0), dict(x_width=-0.3), dict(t_width=0.0),
             dict(t_width=-1.0), dict(amplitude=math.inf),
             dict(x_center=math.nan), dict(t_center=-math.inf)]


@pytest.mark.parametrize("field, bad", [("phi", bad) for bad in BAD_PULSES]
                         + [("j", bad) for bad in BAD_BUMPS])
def test_fields_reject_degenerate_parameters(field, bad):
    demo = getattr(ManufacturedFields1.demo(), field)
    with pytest.raises(ValueError, match=next(iter(bad))):
        type(demo)(**{**vars(demo), **bad})
