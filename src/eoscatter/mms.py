"""Manufactured-solution machinery for verifying both solvers.

The trick: pick closed-form fields, compute the residual they leave in each
evolution equation, and feed those residuals back in as extra sources.  The
chosen fields are then an exact solution of the extended system, so the
solver's output can be compared against them directly.

This module supplies the closed-form field families (with the analytic
derivatives the second-order stepper needs), the residual sources of both
models as the increments a step adds, and the error/convergence reporting
used by the verification runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, make_dataclass

import numpy as np

from .grid import Material1, Material2, check_fields, drivers


# Positions in a jet ``(value, dx, dt, dxx, dxt, dtt)``.
VALUE, DX, DT, DXX, DXT, DTT = range(6)


def _entry(key: int):
    """A method ``(x, t)`` that returns entry ``key`` of the jet at
    ``(x, t)``, ``self.at(x)(t)[key]``."""

    def entry(self, x, t):
        return self.at(x)(t)[key]

    entry.__doc__ = f"Entry {key} of the jet at ``(x, t)``."
    return entry


class Field:
    """Base of the field families: a family supplies :meth:`at`, which
    computes the factors that depend on ``x`` alone once; the six
    one-derivative methods read its entries."""

    def at(self, x):
        """``jet_at(t)``: the jet ``(value, dx, dt, dxx, dxt, dtt)`` at
        ``(x, t)`` for the fixed points ``x``.

        ``x`` and ``t`` broadcast.  For the nodes ``x`` of shape ``(N,)``
        and a ``(K, 1)`` array of times every entry has shape ``(K, N)``,
        and its row k equals the entry for the scalar time ``t[k, 0]`` bit
        for bit.
        """
        raise NotImplementedError

    value = _entry(VALUE)
    dx = _entry(DX)
    dt = _entry(DT)
    dxx = _entry(DXX)
    dxt = _entry(DXT)
    dtt = _entry(DTT)


class ZeroField(Field):
    """The identically-zero field; every derivative vanishes too."""

    def at(self, x):
        def jet_at(t) -> tuple:
            shape = np.broadcast(np.asarray(x), np.asarray(t)).shape
            return tuple(np.zeros(shape) for _ in range(6))

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
        check_fields(self, positive=("rate",))

    def at(self, x):
        """See :meth:`Field.at`; keeps ``x - center``, and each call makes
        one ``exp``, one ``arctan`` and one ``t*t``."""
        xc = x - self.center
        scale = 2.0 * self.amplitude / math.pi

        def jet_at(t) -> tuple:
            bt = self.ramp_rate * t
            s = bt * bt
            ramp = scale * np.arctan(s)
            u = xc + self.drift * (t - self.t_shift)
            env = np.exp(-self.rate * (u * u))
            value = ramp * env
            # The envelope moves with u_t = drift * u_x, so d/dt acts on it
            # as drift * d/dx; what is left of d/dt hits the ramp.
            b2 = self.ramp_rate**2
            den = 1.0 + s * s
            ramp_t = scale * 2.0 * b2 * t / den
            p = -2.0 * self.rate * u
            dx = p * value
            w = ramp_t * env
            dt = w + self.drift * dx
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
        check_fields(self, positive=("x_width", "t_width"))

    def at(self, x):
        """See :meth:`Field.at`; keeps the x factor ``X``, ``P*X`` and
        ``(P*P - 2/x_width**2)*X`` (``P`` its log-derivative), so each call
        makes one ``exp`` of ``t`` and six products with them."""
        sx = x - self.x_center
        x_fac = self.amplitude * np.exp(-((sx / self.x_width) ** 2))
        p = -2.0 * sx / self.x_width**2
        x_dx = p * x_fac
        x_dxx = (p * p - 2.0 / self.x_width**2) * x_fac

        def jet_at(t) -> tuple:
            st = t - self.t_center
            # ``**`` is C ``pow`` on a float but a product on an array, and
            # the two can round one ulp apart; ``float_power`` is ``pow`` on both
            t_fac = np.exp(-np.float_power(st / self.t_width, 2.0))
            v = t_fac * x_fac
            q = -2.0 * st / self.t_width**2
            t_dt = q * t_fac
            dx, dt = t_fac * x_dx, t_dt * x_fac
            t_dtt = (q * q - 2.0 / self.t_width**2) * t_fac
            return v, dx, dt, t_fac * x_dxx, t_dt * x_dx, t_dtt * x_fac

        return jet_at


def _manufactured(name: str, potentials: tuple[str, ...]) -> type:
    """The frozen dataclass ``name`` of closed-form fields for the model
    whose potentials are ``potentials``: its fields are the potentials, then
    the current ``j`` and the density ``rho``, and it keeps ``potentials``."""
    names = (*potentials, "j", "rho")

    def demo(cls):
        """The bundled verification family (quiet start, support near the
        domain): one pulse object for every potential."""
        pulse = ArctanGaussianPulse(amplitude=1.0, ramp_rate=1.0, rate=4.0,
                                    drift=4.0, center=6.0, t_shift=1.0)
        return cls(**dict.fromkeys(cls.potentials, pulse),
                   j=GaussianBump(1.0, 1.1, 0.3, 1.2, 0.32),
                   rho=GaussianBump(1.0, 1.3, 1.0, 1.3, 0.33))

    cls = make_dataclass(name, [(f, object) for f in names], frozen=True, namespace={
        "__doc__": f"Closed-form ``({', '.join(names)})`` fields of a model.",
        "potentials": potentials, "demo": classmethod(demo)})
    cls.__module__ = __name__  # where pickle looks it up
    return cls


ManufacturedFields1 = _manufactured("ManufacturedFields1", ("phi",))
ManufacturedFields2 = _manufactured("ManufacturedFields2", ("phi", "psi"))


@dataclass(frozen=True)
class ResidualSources:
    """The residual sources that make ``fields`` solve the extended model:
    with ``resp = alpha - beta*rho``, ``s_k = u_k,t - A_kl*u_l,x - e1_k*j``
    for a potential ``u_k`` (``A_kl`` the one non-zero entry of its row of
    ``mat.coupling``), ``s_rho = rho_t + j_x`` and ``s_j = j_t - resp*phi +
    gamma*j``."""

    fields: ManufacturedFields1 | ManufacturedFields2
    mat: Material1 | Material2

    def at(self, x, dt):
        """``increments_at(t)``: what a step of ``dt`` adds at ``(x, t)``, by
        name, for the fixed points ``x``, whose x-only factors each field
        computes once (:meth:`Field.at`): ``phi`` (and ``psi``) ``dt*s_k +
        dt**2/2*(s_k,t + A_kl*s_l,x + e1_k*s_j)``, ``rho`` ``dt*s_rho +
        dt**2/2*(s_rho,t - s_j,x)``, ``j`` ``dt/2*s_j`` (the Heun corrector
        adds it at both of a step's levels) and ``s_phi`` (and ``s_psi``)
        ``s_k``, which the boundary integrals read.  The terms that cancel
        (``A_kl*u_l,xt``, ``j_t`` and ``j_xt``) are never formed.

        Each distinct field is evaluated once per call: equal fields (for
        hashable ones such as the frozen field families) or one object
        under two names share a jet, so model 2's ``psi`` costs nothing
        more when it is ``phi``'s pulse.  A ``(K, 1)`` array of times gives
        every increment at K levels, row k equal to the call at ``t[k, 0]``
        bit for bit (:meth:`Field.at`).
        """
        m, A, potentials = self.mat, self.mat.coupling, self.fields.potentials
        h, h2, drive = 0.5 * dt, 0.5 * dt * dt, drivers(A)
        # per potential u_k: its name, u_l that drives it with a = A_kl, u_m
        # that drives u_l with b = A_lm, -a*b, -a*e1_l and e1_k
        halves = [(p, potentials[l], potentials[drive[l][0]], a,
                   -a * drive[l][1], -a if l == 0 else 0.0, k == 0)
                  for k, (p, (l, a)) in enumerate(zip(potentials, drive))]
        groups = {}  # (evaluator, names) per distinct field
        for name in potentials + ("rho", "j"):
            field = getattr(self.fields, name)
            key = (field,)  # equal fields share a key
            try:
                hash(key)
            except TypeError:  # unhashable: matched by identity alone
                key = id(field)
            groups.setdefault(key, (field.at(x), []))[1].append(name)
        groups = list(groups.values())

        def increments_at(t) -> dict:
            # augmented assignments act on fresh temporaries, never on jets
            jets = {}
            for jet_at, names in groups:
                jets.update(dict.fromkeys(names, jet_at(t)))
            phi, rho, j = jets["phi"], jets["rho"], jets["j"]
            resp = m.alpha - m.beta * rho[VALUE]
            react = m.gamma * j[VALUE]  # gamma*j - resp*phi, s_j less j_t
            react -= resp * phi[VALUE]
            inc = {}
            for p, q, w, a, ab, ae, current in halves:
                u = jets[p]
                s = u[DT] - a * jets[q][DX]
                second = u[DTT] + ab * jets[w][DXX]
                if ae:
                    second += ae * j[DX]
                if current:
                    s -= j[VALUE]
                    second += react
                second *= h2
                second += dt * s
                inc[p], inc["s_" + p] = second, s
            second = rho[DTT] + resp * phi[DX]
            second -= (m.beta * rho[DX]) * phi[VALUE]
            second -= m.gamma * j[DX]
            second *= h2
            second += dt * (rho[DT] + j[DX])
            react += j[DT]
            react *= h
            inc["rho"], inc["j"] = second, react
            return inc

        return increments_at


#: the residual sources of model 1 and of model 2, one class over ``A``
ResidualSources1 = ResidualSources2 = ResidualSources


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one verification run against its manufactured solution.

    ``linf`` / ``l2`` are per-field norms over the internal nodes at the
    final step (the discrete L2 carries a sqrt(dx) weight); ``trace_linf``
    holds the worst boundary-trace deviation over the whole run, and
    ``linf_x`` the position of each field's worst node.
    """

    n: int
    dt: float
    t_end: float
    runtime: float
    linf: dict
    l2: dict
    trace_linf: dict
    linf_x: dict


def mms_report(scn) -> ErrorReport:
    """Run the verification scenario ``scn`` (:meth:`Scenario1.run` or
    :meth:`Scenario2.run`) and measure its errors against the manufactured
    fields ``scn.mms``."""
    exact, grid = scn.mms, scn.grid
    if exact is None:
        raise ValueError("mms_report needs a scenario with manufactured fields")
    tic = time.perf_counter()
    res = scn.run()
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
    return ErrorReport(grid.n, scn.dt, t_final, runtime, linf, l2, trace_linf,
                       linf_x)


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
