"""Manufactured-solution machinery for verifying both solvers.

The trick: pick closed-form fields, compute the residual they leave in each
evolution equation, and feed those residuals back in as extra sources.  The
chosen fields are then an exact solution of the extended system, so the
solver's output can be compared against them directly.

This module supplies the closed-form field families (with the analytic
derivatives the second-order stepper needs), the residual-source bundles
for both models, and the error/convergence reporting used by the
verification runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .grid import Material1, Material2


# Positions in a jet ``(value, dx, dt, dxx, dxt, dtt)``; a jet of order 0, 1
# or 2 holds the first 1, 3 or 6 of them.
VALUE, DX, DT, DXX, DXT, DTT = range(6)


def _view(method: str, key, *args):
    """A method ``(x, t)`` that returns entry ``key`` of
    ``self.<method>(x, t, *args)``."""

    def view(self, x, t):
        return getattr(self, method)(x, t, *args)[key]

    view.__doc__ = f"Entry {key!r} of :meth:`{method}`."
    return view


def _check_params(obj, positive) -> None:
    """ValueError unless every field of ``obj`` is finite and those named in
    ``positive`` are > 0."""
    for name, v in vars(obj).items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    for name in positive:
        if not getattr(obj, name) > 0.0:
            raise ValueError(f"{name} must be positive")


class Field:
    """Base of the field families: a family supplies :meth:`at`, which
    computes the factors that depend on ``x`` alone once; :meth:`jet` and
    the six one-derivative methods are views of it."""

    def at(self, x):
        """``jet_at(t, order=2)``: the jet ``(value, dx, dt, dxx, dxt, dtt)``
        at ``(x, t)`` for the fixed points ``x``, cut after the entries of
        ``order`` (0: the value; 1: up to ``dt``; 2: all six).

        ``x`` and ``t`` broadcast.  For the nodes ``x`` of shape ``(N,)``
        and a ``(K, 1)`` array of times every entry has shape ``(K, N)``,
        and its row k equals the entry for the scalar time ``t[k, 0]`` bit
        for bit.
        """
        raise NotImplementedError

    def jet(self, x, t, order: int = 2) -> tuple:
        """The jet at ``(x, t)``: ``self.at(x)(t, order)``."""
        return self.at(x)(t, order)

    value = _view("jet", VALUE, 0)
    dx = _view("jet", DX, 1)
    dt = _view("jet", DT, 1)
    dxx = _view("jet", DXX)
    dxt = _view("jet", DXT)
    dtt = _view("jet", DTT)


class ZeroField(Field):
    """The identically-zero field; every derivative vanishes too."""

    def at(self, x):
        def jet_at(t, order: int = 2) -> tuple:
            shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
            return tuple(np.zeros(shape) for _ in range((1, 3, 6)[order]))

        return jet_at


@dataclass(frozen=True)
class ArctanGaussianPulse(Field):
    """A drifting Gaussian envelope switched on smoothly from zero.

    ``value = (2*amplitude/pi) * arctan((ramp_rate*t)**2)
              * exp(-rate*(x - center + drift*(t - t_shift))**2)``

    The arctan ramp vanishes at t = 0 together with its first time
    derivative, so the field starts from quiet initial data.  Every
    parameter must be finite and ``rate`` positive.
    """

    amplitude: float
    ramp_rate: float
    rate: float
    drift: float
    center: float
    t_shift: float

    def __post_init__(self) -> None:
        _check_params(self, ("rate",))

    def at(self, x):
        """See :meth:`Field.at`; keeps ``x - center``, and each call makes
        one ``exp``, one ``arctan`` and one ``t*t``."""
        xc = x - self.center
        scale = 2.0 * self.amplitude / math.pi

        def jet_at(t, order: int = 2) -> tuple:
            bt = self.ramp_rate * t
            s = bt * bt
            ramp = scale * np.arctan(s)
            u = xc + self.drift * (t - self.t_shift)
            env = np.exp(-self.rate * (u * u))
            value = ramp * env
            if order == 0:
                return (value,)
            # The envelope moves with u_t = drift * u_x, so d/dt acts on it
            # as drift * d/dx; what is left of d/dt hits the ramp.
            b2 = self.ramp_rate**2
            den = 1.0 + s * s
            ramp_t = scale * 2.0 * b2 * t / den
            p = -2.0 * self.rate * u
            dx = p * value
            w = ramp_t * env
            dt = w + self.drift * dx
            if order == 1:
                return value, dx, dt
            ramp_tt = scale * 2.0 * b2 * (1.0 - 3.0 * s * s) / (den * den)
            dxx = (p * p - 2.0 * self.rate) * value
            wx = p * w
            dxt = wx + self.drift * dxx
            dtt = ramp_tt * env + self.drift * (wx + dxt)
            return value, dx, dt, dxx, dxt, dtt

        return jet_at


@dataclass(frozen=True)
class GaussianBump(Field):
    """Separable bump ``amp * exp(-((x-x_center)/x_width)**2 - ((t-t_center)/t_width)**2)``.

    Every parameter must be finite and both widths positive.
    """

    amplitude: float
    x_center: float
    x_width: float
    t_center: float
    t_width: float

    def __post_init__(self) -> None:
        _check_params(self, ("x_width", "t_width"))

    def at(self, x):
        """See :meth:`Field.at`; keeps the x factor ``X``, ``P*X`` and
        ``(P*P - 2/x_width**2)*X`` (``P`` its log-derivative), so each call
        makes one ``exp`` of ``t`` and six products with them."""
        sx = x - self.x_center
        x_fac = self.amplitude * np.exp(-((sx / self.x_width) ** 2))
        p = -2.0 * sx / self.x_width**2
        x_dx = p * x_fac
        x_dxx = (p * p - 2.0 / self.x_width**2) * x_fac

        def jet_at(t, order: int = 2) -> tuple:
            st = t - self.t_center
            # ``**`` is C ``pow`` on a float but a product on an array, and
            # the two can round one ulp apart; ``float_power`` is ``pow`` on both
            t_fac = np.exp(-np.float_power(st / self.t_width, 2.0))
            v = t_fac * x_fac
            if order == 0:
                return (v,)
            q = -2.0 * st / self.t_width**2
            t_dt = q * t_fac
            dx, dt = t_fac * x_dx, t_dt * x_fac
            if order == 1:
                return v, dx, dt
            t_dtt = (q * q - 2.0 / self.t_width**2) * t_fac
            return v, dx, dt, t_fac * x_dxx, t_dt * x_dx, t_dtt * x_fac

        return jet_at


@dataclass(frozen=True)
class ManufacturedFields1:
    """Closed-form (potential, current, density) triple for the one-potential model."""

    phi: object
    j: object
    rho: object

    @classmethod
    def demo(cls) -> "ManufacturedFields1":
        """The bundled verification family (quiet start, support near the domain)."""
        return cls(
            phi=ArctanGaussianPulse(
                amplitude=1.0, ramp_rate=1.0, rate=4.0, drift=4.0, center=6.0, t_shift=1.0
            ),
            j=GaussianBump(1.0, 1.1, 0.3, 1.2, 0.32),
            rho=GaussianBump(1.0, 1.3, 1.0, 1.3, 0.33),
        )


@dataclass(frozen=True)
class ManufacturedFields2:
    """Closed-form (phi, psi, current, density) quadruple for the two-potential model."""

    phi: object
    psi: object
    j: object
    rho: object

    @classmethod
    def demo(cls) -> "ManufacturedFields2":
        """Model 1's family (:meth:`ManufacturedFields1.demo`), with ``psi``
        the same pulse as ``phi``."""
        one = ManufacturedFields1.demo()
        return cls(phi=one.phi, psi=one.phi, j=one.j, rho=one.rho)


@dataclass(frozen=True)
class ResidualSources1:
    """Per-equation residual sources that make ``fields`` solve the extended model.

    ``src_phi`` / ``src_rho`` / ``src_j`` are the extra terms in the
    potential, density and current equations; the ``_dx`` / ``_dt``
    companions are the analytic derivatives the second-order time step
    consumes.  :meth:`at` builds them from one jet per field, and
    :meth:`src_terms` and the single-term methods are views of it.
    """

    fields: ManufacturedFields1
    mat: Material1

    potentials = ("phi",)

    def at(self, x):
        """``terms_at(t, order=2)``: the residual terms at ``(x, t)`` by name
        (``phi``, ``phi_dx``, ...) for the fixed points ``x``, whose x-only
        factors each field computes once (:meth:`Field.at`).

        Order 2 gives every term, order 1 only the potential equations'
        terms (``phi``, and ``psi`` in model 2) from first-order jets
        (``src_phi``, ``src_psi``).  Each distinct field is evaluated once
        per call: equal fields (for hashable ones such as the frozen field
        families) or one object under two names share a jet, so model 2's
        ``psi`` costs nothing more when it is ``phi``'s pulse.  A ``(K, 1)``
        array of times gives every term at K levels, row k equal to the
        call at ``t[k, 0]`` bit for bit (:meth:`Field.at`).
        """
        m = self.mat
        groups = {}  # (evaluator, names) per distinct field
        for name in self.potentials + ("rho", "j"):
            field = getattr(self.fields, name)
            key = (field,)  # equal fields share a key
            try:
                hash(key)
            except TypeError:  # unhashable: matched by identity alone
                key = id(field)
            groups.setdefault(key, (field.at(x), []))[1].append(name)
        groups = list(groups.values())

        def terms_at(t, order: int = 2) -> dict:
            jets = {}
            for jet_at, names in groups:
                jets.update(dict.fromkeys(names, jet_at(t, order)))
            terms = self._potential_terms(jets, order)
            if order == 1:
                return terms
            phi, rho, j = jets["phi"], jets["rho"], jets["j"]
            resp = m.alpha - m.beta * rho[VALUE]
            terms["rho"] = rho[DT] + j[DX]
            terms["rho_dt"] = rho[DTT] + j[DXT]
            terms["j"] = j[DT] - resp * phi[VALUE] + m.gamma * j[VALUE]
            terms["j_dx"] = (j[DXT] - resp * phi[DX]
                             + m.beta * rho[DX] * phi[VALUE] + m.gamma * j[DX])
            return terms

        return terms_at

    def src_terms(self, x, t, order: int = 2) -> dict:
        """The residual terms at ``(x, t)``: ``self.at(x)(t, order)``."""
        return self.at(x)(t, order)

    def _potential_terms(self, jets: dict, order: int) -> dict:
        phi, j, c1 = jets["phi"], jets["j"], self.mat.c1
        terms = {"phi": phi[DT] - c1 * phi[DX] - j[VALUE]}
        if order == 2:
            terms["phi_dx"] = phi[DXT] - c1 * phi[DXX] - j[DX]
            terms["phi_dt"] = phi[DTT] - c1 * phi[DXT] - j[DT]
        return terms

    src_phi = _view("src_terms", "phi", 1)
    src_phi_dx = _view("src_terms", "phi_dx")
    src_phi_dt = _view("src_terms", "phi_dt")
    src_rho = _view("src_terms", "rho")
    src_j = _view("src_terms", "j")
    src_rho_dt = _view("src_terms", "rho_dt")
    src_j_dx = _view("src_terms", "j_dx")


@dataclass(frozen=True)
class ResidualSources2(ResidualSources1):
    """Residual sources for the two-potential model (see :class:`ResidualSources1`,
    whose density and current terms it inherits)."""

    fields: ManufacturedFields2
    mat: Material2

    potentials = ("phi", "psi")

    def _potential_terms(self, jets: dict, order: int) -> dict:
        phi, psi, j, m = jets["phi"], jets["psi"], jets["j"], self.mat
        terms = {"phi": phi[DT] - m.mu1 * psi[DX] - j[VALUE],
                 "psi": psi[DT] - m.nu1 * phi[DX]}
        if order == 2:
            terms["phi_dx"] = phi[DXT] - m.mu1 * psi[DXX] - j[DX]
            terms["phi_dt"] = phi[DTT] - m.mu1 * psi[DXT] - j[DT]
            terms["psi_dx"] = psi[DXT] - m.nu1 * phi[DXX]
            terms["psi_dt"] = psi[DTT] - m.nu1 * phi[DXT]
        return terms

    src_psi = _view("src_terms", "psi", 1)
    src_psi_dx = _view("src_terms", "psi_dx")
    src_psi_dt = _view("src_terms", "psi_dt")


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one verification run against its manufactured solution.

    ``linf`` / ``l2`` are per-field norms over the internal nodes at the
    final step (the discrete L2 carries a sqrt(dx) weight); ``trace_linf``
    holds the worst boundary-trace deviation over the whole run, and
    ``linf_x`` the position of each field's worst node.
    """

    model: int
    n: int
    dt: float
    t_end: float
    runtime: float
    linf: dict
    l2: dict
    trace_linf: dict
    linf_x: dict


def _solver(model: int):
    """The scenario class and the runner of model 1 or 2."""
    # The solver modules import the field families from here, so pull them
    # in lazily to keep the import graph acyclic.
    if model == 1:
        from .model1 import Scenario1, run_m1
        return Scenario1, run_m1
    if model == 2:
        from .model2 import Scenario2, run_m2
        return Scenario2, run_m2
    raise ValueError("model must be 1 or 2")


def mms_report(model: int, scn) -> ErrorReport:
    """Run the model's verification scenario ``scn`` and measure its errors
    against the manufactured fields ``scn.mms``."""
    runner = _solver(model)[1]
    exact, grid = scn.mms, scn.grid
    if exact is None:
        raise ValueError("mms_report needs a scenario with manufactured fields")
    tic = time.perf_counter()
    res = runner(scn)
    runtime = time.perf_counter() - tic

    t_final = res.final.t
    linf, l2, linf_x = {}, {}, {}
    for name in scn.field_names:
        err = np.abs(getattr(res.final, name)
                     - getattr(exact, name).value(grid.x, t_final))
        worst = int(np.argmax(err))
        linf[name] = float(err[worst])
        linf_x[name] = float(grid.x[worst])
        l2[name] = float(math.sqrt(grid.dx * float(np.sum(err**2))))
    trace_linf = {}
    for side, a in (("a0", grid.a0), ("a1", grid.a1)):
        for p in scn.potentials:
            err = getattr(res, f"{p}_{side}") - getattr(exact, p).value(a, res.times)
            trace_linf[f"{p}_{side}"] = float(np.max(np.abs(err)))
    return ErrorReport(model, grid.n, scn.dt, t_final, runtime, linf, l2,
                       trace_linf, linf_x)


def mms_run(model: int, exact, grid, mat, dt: float, t_end: float) -> ErrorReport:
    """:func:`mms_report` of the model's scenario built from these inputs."""
    scenario = _solver(model)[0]
    return mms_report(model, scenario(grid=grid, mat=mat, dt=dt, t_end=t_end,
                                      mms=exact))


def convergence_order(reports) -> dict:
    """Observed per-field orders from an N-doubling ladder of reports.

    Each consecutive pair contributes ``log2(e_k / e_{k+1})`` per field
    (based on the L-infinity norms).  A pair with a vanishing error has no
    defined order and reports NaN.
    """
    reports = list(reports)
    if len(reports) < 2:
        raise ValueError("need at least two reports")
    for a, b in zip(reports, reports[1:]):
        if b.n != 2 * a.n:
            raise ValueError("reports must double N between entries")
        if not math.isclose(b.dt * b.n, a.dt * a.n, rel_tol=0.02):
            raise ValueError("reports must keep dt proportional to dx")
    orders = {}
    for name in reports[0].linf:
        ladder = []
        for a, b in zip(reports, reports[1:]):
            ea, eb = a.linf[name], b.linf[name]
            if ea == 0.0 or eb == 0.0:
                ladder.append(math.nan)
            else:
                ladder.append(math.log2(ea / eb))
        orders[name] = ladder
    return orders
