"""One-potential transient scattering solver.

Interior nodes advance with a Lax-Wendroff step for the potential and the
density plus a Heun (modified-Euler) corrector for the current.  The
boundary closes through retarded data instead of local conditions: the
left trace is rebuilt every step from the delayed nodal current plus the
delayed right trace (zero prehistory keeps it causal), while the right
trace comes from the external source's characteristic integral -- or from
the exact fields when a manufactured-solution bundle is attached.  The
time loop is shared with model 2 (:mod:`eoscatter.march`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import ClosedPass, Material1, SpatialOps, confined_pass
# DivergenceError and RUN_QUAD_REL_TOL are imported for re-export too.
from .march import DivergenceError, FieldState, Scenario, interior_step, march
from .mms import ManufacturedFields1, ResidualSources1
from .sources import RUN_QUAD_REL_TOL, incident_trace


@dataclass
class State1(FieldState):
    """Nodal fields plus boundary traces at one time level."""

    phi: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    phi_a0: float
    phi_a1: float
    n: int
    t: float


class Scenario1(Scenario):
    """A complete model-1 run description (see :class:`march.Scenario`)."""

    potentials = ("phi",)
    material = Material1
    manufactured = ManufacturedFields1
    residuals = ResidualSources1

    @cached_property
    def lw_pass(self) -> tuple[ClosedPass]:
        """One pass per potential, built once: ``phi + dt*c1*D1(phi) +
        (dt*c1)**2/2*D2(phi)``."""
        a = self.dt * self.mat.c1
        return (ClosedPass(SpatialOps(self.grid), a, 0.5 * a * a),)

    def incident(self, t):
        if self.mms is not None:
            return self.mms.phi.value(self.grid.a1, t)
        if self.source is None:
            return np.zeros(np.shape(t))
        return incident_trace(self.source, self.grid.a1, self.mat, self.t0, t,
                              RUN_QUAD_REL_TOL)

    def traces(self, sums, delayed, incident) -> tuple[float, float]:
        """``(phi_a0, phi_a1)`` from the retarded current sum, the delayed
        right trace and the incident value (:meth:`march.Scenario.traces`)."""
        (left,) = sums
        return (boundary_a0_m1(self, left, delayed[1]),
                boundary_a1_m1(self, incident[0]))

    def run(self, snapshot_times=()) -> Run1Result:
        """:func:`run_m1` of this scenario, the module's ``run_m1`` as it
        is when called (so a wrapper put there sees the run)."""
        return run_m1(self, snapshot_times)


@dataclass
class Run1Result:
    """Trajectory summary: boundary series, requested snapshots, final state."""

    scenario: Scenario1
    times: np.ndarray
    phi_a0: np.ndarray
    phi_a1: np.ndarray
    snapshots: list[tuple[float, State1]] = field(default_factory=list)
    final: State1 | None = None


def interior_step_m1(
    state: State1,
    scn: Scenario1,
    terms: dict | None = None, terms_next: dict | None = None, out=None,
):
    """Advance the interior fields one step using level-n boundary traces.

    Returns the new ``(phi, rho, j)`` arrays; the caller supplies the
    level-(n+1) traces afterwards.  In verification mode ``terms`` and
    ``terms_next`` are the residual terms at the nodes at levels n and
    n + 1, including the analytic derivatives folded into the second-order
    Taylor coefficients.  ``out``: the buffers of :func:`march.interior_step`.
    """
    return interior_step(state, scn, _potential_m1, terms, terms_next, out)


def _potential_m1(state, scn, terms, g, tmp):
    """The potential half of :func:`interior_step_m1`: the Lax-Wendroff step
    ``phi + dt*(c1*D1(phi) + j) + dt**2/2*(c1**2*D2(phi) + c1*D1(j) + f)``,
    regrouped as ``lw_pass(phi) + dt*g + (dt**2*c1/2)*D1(j)``."""
    m, dt = scn.mat, scn.dt
    (phi_pass,) = scn.lw_pass
    phi, a0, a1 = state.phi, state.phi_a0, state.phi_a1
    new = phi_pass(phi, a0, a1, phi, a0, a1)
    new += np.multiply(dt, g, out=tmp)
    new += confined_pass(state.j, 0.5 * dt * dt * m.c1, scn.grid.dx, tmp)
    if terms is not None:
        new += dt * terms["phi"] + 0.5 * dt**2 * (
            m.c1 * terms["phi_dx"] + terms["phi_dt"] + terms["j"])
    return (new,)


def boundary_a1_m1(scn: Scenario1, incident: float) -> float:
    """Right-boundary trace: ``incident``, the value of
    :meth:`Scenario1.incident` at its level (the source's incident trace,
    the exact field in verification mode, zero in a null run)."""
    return float(incident)


def boundary_a0_m1(scn: Scenario1, current: float, delayed_a1: float) -> float:
    """Left-boundary trace from the delayed nodal current plus the delayed
    right trace.

    ``current`` is the retarded current sum: every node at its own delay
    ``(x - a0)/c1`` behind the new level, zero at or before the start time
    (the causal mask), as a :class:`RetardedSum` gives it.  In verification
    mode it is the sum of the current plus the potential equation's residual
    source, read by the same rule.  ``delayed_a1`` is the right trace one
    transit time behind the new level, as a :class:`FixedLagReader` reads
    it.
    """
    return scn.grid.dx / scn.mat.c1 * current + delayed_a1


def run_m1(scn: Scenario1, snapshot_times=()) -> Run1Result:
    """Advance a model-1 scenario from the start time to ``t_end`` with
    :func:`march.march`; TypeError unless ``scn`` is a :class:`Scenario1`."""
    if not isinstance(scn, Scenario1):
        raise TypeError(f"run_m1 needs a Scenario1, got {type(scn).__name__}")
    return march(scn, snapshot_times, State1, Run1Result, interior_step_m1)
