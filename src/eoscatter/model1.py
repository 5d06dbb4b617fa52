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

from .grid import Material1
# DivergenceError and RUN_QUAD_REL_TOL are imported for re-export too.
from .march import DivergenceError, Scenario, interior_step, march
from .mms import ManufacturedFields1
from .sources import RUN_QUAD_REL_TOL, incident_trace


class Scenario1(Scenario, state="State1", result="Run1Result"):
    """A complete model-1 run description (see :class:`march.Scenario`)."""

    potentials = ("phi",)
    material = Material1
    manufactured = ManufacturedFields1

    def drive(self, t) -> tuple:
        """``(phi,)``: the source's :func:`incident_trace` at ``t``."""
        return (incident_trace(self.source, self.grid.a1, self.mat, self.t0, t,
                               RUN_QUAD_REL_TOL),)

    def traces(self, sums, delayed, incident) -> tuple[float, float]:
        """``(phi_a0, phi_a1)`` from the current's integral, the delayed right
        trace and the incident value (:meth:`march.Scenario.traces`)."""
        (left,) = sums
        return boundary_a0_m1(left, delayed[1]), boundary_a1_m1(incident[0])

    def run(self, snapshot_times=()) -> Run1Result:
        """:func:`run_m1` of this scenario, the module's ``run_m1`` as it
        is when called (so a wrapper put there sees the run)."""
        return run_m1(self, snapshot_times)


State1, Run1Result = Scenario1.State, Scenario1.Result
#: the traced name of the interior step, which :func:`run_m1` reads when called
interior_step_m1 = interior_step


def boundary_a1_m1(incident: float) -> float:
    """Right-boundary trace: ``incident``, the value of
    :meth:`Scenario1.incident` at its level (the source's incident trace,
    the exact field in verification mode, zero in a null run)."""
    return float(incident)


def boundary_a0_m1(current: float, delayed_a1: float) -> float:
    """Left-boundary trace from the delayed nodal current plus the delayed
    right trace.

    ``current`` is the current's boundary integral: the retarded sum of
    every node at its own delay ``(x - a0)/c1`` behind the new level, zero
    at or before the start time (the causal mask), times the node weight
    ``dx/c1``, as :func:`march._levels` gives it.  In verification mode it is
    the integral of the current plus the potential equation's residual
    source, read by the same rule.  ``delayed_a1`` is the right trace one
    transit time behind the new level, which :func:`march._levels` reads from
    the run's trace series (:func:`history.lag_reader`).
    """
    return current + delayed_a1


def run_m1(scn: Scenario1, snapshot_times=()) -> Run1Result:
    """Advance a model-1 scenario from the start time to ``t_end`` with
    :func:`march.march`; TypeError unless ``scn`` is a :class:`Scenario1`."""
    if not isinstance(scn, Scenario1):
        raise TypeError(f"run_m1 needs a Scenario1, got {type(scn).__name__}")
    return march(scn, snapshot_times, interior_step_m1)
