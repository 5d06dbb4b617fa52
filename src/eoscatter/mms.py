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
from dataclasses import dataclass

import numpy as np

from .grid import Material1, Material2


class ZeroField:
    """The identically-zero field; every derivative vanishes too."""

    def _zeros(self, x, t):
        return np.zeros(np.broadcast(np.asarray(x), np.asarray(t)).shape)

    value = dx = dt = dxx = dxt = dtt = _zeros


@dataclass(frozen=True)
class ArctanGaussianPulse:
    """A drifting Gaussian envelope switched on smoothly from zero.

    ``value = (2*amplitude/pi) * arctan((ramp_rate*t)**2)
              * exp(-rate*(x - center + drift*(t - t_shift))**2)``

    The arctan ramp vanishes at t = 0 together with its first time
    derivative, so the field starts from quiet initial data.
    """

    amplitude: float
    ramp_rate: float
    rate: float
    drift: float
    center: float
    t_shift: float

    def _ramp(self, t):
        return (2.0 * self.amplitude / math.pi) * np.arctan((self.ramp_rate * t) ** 2)

    def _ramp_dt(self, t):
        b2 = self.ramp_rate**2
        return (2.0 * self.amplitude / math.pi) * 2.0 * b2 * t / (1.0 + b2**2 * t**4)

    def _ramp_dtt(self, t):
        b2 = self.ramp_rate**2
        den = 1.0 + b2**2 * t**4
        return (
            (2.0 * self.amplitude / math.pi)
            * (2.0 * b2 * den - 8.0 * b2**3 * t**4)
            / den**2
        )

    def _env(self, x, t):
        u = x - self.center + self.drift * (t - self.t_shift)
        return u, np.exp(-self.rate * u**2)

    def value(self, x, t):
        _, env = self._env(x, t)
        return self._ramp(t) * env

    def dx(self, x, t):
        u, env = self._env(x, t)
        return self._ramp(t) * (-2.0 * self.rate * u) * env

    def dt(self, x, t):
        u, env = self._env(x, t)
        return (self._ramp_dt(t) - self._ramp(t) * 2.0 * self.rate * u * self.drift) * env

    def dxx(self, x, t):
        u, env = self._env(x, t)
        return self._ramp(t) * (4.0 * self.rate**2 * u**2 - 2.0 * self.rate) * env

    def dxt(self, x, t):
        u, env = self._env(x, t)
        curve = 4.0 * self.rate**2 * u**2 - 2.0 * self.rate
        return (
            self._ramp_dt(t) * (-2.0 * self.rate * u) + self._ramp(t) * self.drift * curve
        ) * env

    def dtt(self, x, t):
        u, env = self._env(x, t)
        curve = 4.0 * self.rate**2 * u**2 - 2.0 * self.rate
        return (
            self._ramp_dtt(t)
            + 2.0 * self._ramp_dt(t) * (-2.0 * self.rate * u) * self.drift
            + self._ramp(t) * self.drift**2 * curve
        ) * env


@dataclass(frozen=True)
class GaussianBump:
    """Separable bump ``amp * exp(-((x-x_center)/x_width)**2 - ((t-t_center)/t_width)**2)``."""

    amplitude: float
    x_center: float
    x_width: float
    t_center: float
    t_width: float

    def _core(self, x, t):
        p = -2.0 * (x - self.x_center) / self.x_width**2
        q = -2.0 * (t - self.t_center) / self.t_width**2
        v = self.amplitude * np.exp(
            -(((x - self.x_center) / self.x_width) ** 2)
            - ((t - self.t_center) / self.t_width) ** 2
        )
        return p, q, v

    def value(self, x, t):
        return self._core(x, t)[2]

    def dx(self, x, t):
        p, _, v = self._core(x, t)
        return p * v

    def dt(self, x, t):
        _, q, v = self._core(x, t)
        return q * v

    def dxx(self, x, t):
        p, _, v = self._core(x, t)
        return (p**2 - 2.0 / self.x_width**2) * v

    def dtt(self, x, t):
        _, q, v = self._core(x, t)
        return (q**2 - 2.0 / self.t_width**2) * v

    def dxt(self, x, t):
        p, q, v = self._core(x, t)
        return p * q * v


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
        pulse = dict(ramp_rate=1.0, rate=4.0, drift=4.0, center=6.0, t_shift=1.0)
        return cls(
            phi=ArctanGaussianPulse(amplitude=1.0, **pulse),
            psi=ArctanGaussianPulse(amplitude=1.0, **pulse),
            j=GaussianBump(1.0, 1.1, 0.3, 1.2, 0.32),
            rho=GaussianBump(1.0, 1.3, 1.0, 1.3, 0.33),
        )


@dataclass(frozen=True)
class ResidualSources1:
    """Per-equation residual sources that make ``fields`` solve the extended model.

    ``src_phi`` / ``src_rho`` / ``src_j`` are the extra terms in the
    potential, density and current equations; the ``_dx`` / ``_dt``
    companions are the analytic derivatives the second-order time step
    consumes.
    """

    fields: ManufacturedFields1
    mat: Material1

    def src_phi(self, x, t):
        f = self.fields
        return f.phi.dt(x, t) - self.mat.c1 * f.phi.dx(x, t) - f.j.value(x, t)

    def src_phi_dx(self, x, t):
        f = self.fields
        return f.phi.dxt(x, t) - self.mat.c1 * f.phi.dxx(x, t) - f.j.dx(x, t)

    def src_phi_dt(self, x, t):
        f = self.fields
        return f.phi.dtt(x, t) - self.mat.c1 * f.phi.dxt(x, t) - f.j.dt(x, t)

    def src_rho(self, x, t):
        f = self.fields
        return f.rho.dt(x, t) + f.j.dx(x, t)

    def src_rho_dt(self, x, t):
        f = self.fields
        return f.rho.dtt(x, t) + f.j.dxt(x, t)

    def src_j(self, x, t):
        f, m = self.fields, self.mat
        return (
            f.j.dt(x, t)
            - (m.alpha - m.beta * f.rho.value(x, t)) * f.phi.value(x, t)
            + m.gamma * f.j.value(x, t)
        )

    def src_j_dx(self, x, t):
        f, m = self.fields, self.mat
        return (
            f.j.dxt(x, t)
            - (m.alpha - m.beta * f.rho.value(x, t)) * f.phi.dx(x, t)
            + m.beta * f.rho.dx(x, t) * f.phi.value(x, t)
            + m.gamma * f.j.dx(x, t)
        )


@dataclass(frozen=True)
class ResidualSources2(ResidualSources1):
    """Residual sources for the two-potential model (see :class:`ResidualSources1`,
    whose density and current terms it inherits)."""

    fields: ManufacturedFields2
    mat: Material2

    def src_phi(self, x, t):
        f = self.fields
        return f.phi.dt(x, t) - self.mat.mu1 * f.psi.dx(x, t) - f.j.value(x, t)

    def src_phi_dx(self, x, t):
        f = self.fields
        return f.phi.dxt(x, t) - self.mat.mu1 * f.psi.dxx(x, t) - f.j.dx(x, t)

    def src_phi_dt(self, x, t):
        f = self.fields
        return f.phi.dtt(x, t) - self.mat.mu1 * f.psi.dxt(x, t) - f.j.dt(x, t)

    def src_psi(self, x, t):
        f = self.fields
        return f.psi.dt(x, t) - self.mat.nu1 * f.phi.dx(x, t)

    def src_psi_dx(self, x, t):
        f = self.fields
        return f.psi.dxt(x, t) - self.mat.nu1 * f.phi.dxx(x, t)

    def src_psi_dt(self, x, t):
        f = self.fields
        return f.psi.dtt(x, t) - self.mat.nu1 * f.phi.dxt(x, t)


@dataclass(frozen=True)
class ErrorReport:
    """Errors of one verification run against its manufactured solution.

    ``linf`` / ``l2`` are per-field norms over the internal nodes at the
    final step (the discrete L2 carries a sqrt(dx) weight); ``trace_linf``
    holds the worst boundary-trace deviation over the whole run.
    """

    model: int
    n: int
    dt: float
    t_end: float
    runtime: float
    linf: dict
    l2: dict
    trace_linf: dict


def mms_run(model: int, exact, grid, mat, dt: float, t_end: float) -> ErrorReport:
    """Run one source-extended scenario and measure errors against ``exact``."""
    import time

    # The solver modules import the field families from here, so pull them
    # in lazily to keep the import graph acyclic.
    if model == 1:
        from .model1 import Scenario1 as scenario, run_m1 as runner
    elif model == 2:
        from .model2 import Scenario2 as scenario, run_m2 as runner
    else:
        raise ValueError("model must be 1 or 2")

    scn = scenario(grid=grid, mat=mat, dt=dt, t_end=t_end, mms=exact)
    tic = time.perf_counter()
    res = runner(scn)
    runtime = time.perf_counter() - tic

    t_final = res.final.t
    linf, l2 = {}, {}
    for name in scn.field_names:
        err = np.abs(getattr(res.final, name)
                     - getattr(exact, name).value(grid.x, t_final))
        linf[name] = float(np.max(err))
        l2[name] = float(math.sqrt(grid.dx * float(np.sum(err**2))))
    trace_linf = {}
    for side, a in (("a0", grid.a0), ("a1", grid.a1)):
        for p in scn.potentials:
            err = getattr(res, f"{p}_{side}") - getattr(exact, p).value(a, res.times)
            trace_linf[f"{p}_{side}"] = float(np.max(np.abs(err)))
    return ErrorReport(model, grid.n, dt, t_final, runtime, linf, l2, trace_linf)


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
