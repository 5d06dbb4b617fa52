"""Two-potential transient scattering solver.

Waves now travel both ways, so each boundary carries a pair of traces and
the delayed update rules couple them through 2x2 systems: the left system
collects what flowed leftward (delayed nodal current plus the delayed
right pair), the right system collects the rightward flow plus the
incident pair contributed by the external source.  Both system matrices
share one determinant, which is positive for any admissible material.
The time loop is shared with model 1 (:mod:`eoscatter.march`).
"""

from __future__ import annotations

from functools import cached_property

from .grid import Material2
# DivergenceError and RUN_QUAD_REL_TOL are imported for re-export too.
from .march import DivergenceError, Scenario, interior_step, march
from .mms import ManufacturedFields2
from .sources import RUN_QUAD_REL_TOL, incident_pair


def boundary_map(mat: Material2) -> tuple[float, float, float, float]:
    """``(a, b, c, d)`` with ``[[a, b], [c, d]] = left^-1 @ mix_out``, which
    solves the left system ``[[c1 + c0, mu1 - mu0], [nu1 - nu0, c1 + c0]]``
    for ``mix_out @ x``, ``mix_out = [[c1, mu1], [nu1, c1]]``.  The right
    system ``[[c1 + c0, mu0 - mu1], [nu0 - nu1, c1 + c0]]`` for ``mix_back
    @ x``, ``mix_back = [[c1, -mu1], [-nu1, c1]]``, is solved by the same
    map with its off-diagonals negated, ``[[a, -b], [-c, d]]``.  Both
    systems' determinant is ``det = 2*c1*c0 + mu0*nu1 + mu1*nu0`` (using
    ``c**2 = mu*nu``), positive for any admissible material."""
    c1, c0, mu1, nu1, mu0, nu0 = mat.c1, mat.c0, mat.mu1, mat.nu1, mat.mu0, mat.nu0
    det = 2.0 * c1 * c0 + mu0 * nu1 + mu1 * nu0
    return ((c1 * c0 + mu0 * nu1) / det, (c0 * mu1 + c1 * mu0) / det,
            (c0 * nu1 + c1 * nu0) / det, (c1 * c0 + mu1 * nu0) / det)


class Scenario2(Scenario, state="State2", result="Run2Result"):
    """A complete model-2 run description (see :class:`march.Scenario`)."""

    potentials = ("phi", "psi")
    material = Material2
    manufactured = ManufacturedFields2

    def drive(self, t) -> tuple:
        """``(phi, psi)``: the source's :func:`incident_pair` at ``t``."""
        return incident_pair(self.source, self.grid.a1, self.mat, self.t0, t,
                             RUN_QUAD_REL_TOL)

    @cached_property
    def _face(self) -> tuple[float, float, float, float]:
        """The :func:`boundary_map` of the material, worked out once."""
        return boundary_map(self.mat)

    def traces(self, sums, delayed, incident) -> tuple[float, float, float, float]:
        """Both boundary systems solved by :func:`boundary_update_m2` (see
        :meth:`march.Scenario.traces`); the ``psi`` integrals are zero
        outside verification mode."""
        left, right, *psi_sums = sums
        return boundary_update_m2(self._face, left, right, delayed[:2],
                                  delayed[2:], incident, psi_sums or (0.0, 0.0))

    def run(self, snapshot_times=()) -> Run2Result:
        """:func:`run_m2` of this scenario, the module's ``run_m2`` as it
        is when called (so a wrapper put there sees the run)."""
        return run_m2(self, snapshot_times)


State2, Run2Result = Scenario2.State, Scenario2.Result
#: the traced name of the interior step, which :func:`run_m2` reads when called
interior_step_m2 = interior_step


def boundary_update_m2(face, left: float, right: float, delayed0, delayed1,
                       incident, psi_sums=(0.0, 0.0)):
    """Solve both boundary systems at a new level through ``face``, the
    :func:`boundary_map` of the scenario's material.

    ``left`` and ``right`` are the boundary integrals, retarded sums times
    the node weight ``dx/c1`` as :func:`march._levels` gives them, over the
    leftward delays ``(x - a0)/c1`` and the rightward ones ``(a1 - x)/c1``
    of the ``phi`` equation's right-hand side: the current, plus in
    verification mode the ``phi`` residual source.  ``psi_sums`` are the
    same two integrals of the ``psi`` residual source (zero outside
    verification mode).  ``delayed0`` and ``delayed1`` are the left and
    right trace pairs one transit time behind the new level, which
    :func:`march._levels` reads from the run's trace series
    (:func:`history.lag_reader`).  ``incident`` is the level's
    exterior pair at ``a1`` (:meth:`Scenario2.incident`), whose incoming
    part ``[[c0, mu0], [nu0, c0]] @ pair`` (``2*c0*pair`` for an incident
    pair) enters the right system solved, ``[[d, b], [c, a]] @ pair``.
    Returns ``(phi_a0, psi_a0, phi_a1, psi_a1)``, Python floats when the
    inputs are (scalar arithmetic: numpy's overhead on 2x2 arrays outweighs
    it).
    """
    a, b, c, d = face
    psi0, psi1 = psi_sums
    p, q = delayed1
    u, v = left + p, psi0 + q
    phi_a0, psi_a0 = a * u + b * v, c * u + d * v
    p, q = delayed0
    u, v = right + p, psi1 + q
    p, q = incident
    return (phi_a0, psi_a0, a * u - b * v + (d * p + b * q),
            d * v - c * u + (c * p + a * q))


def run_m2(scn: Scenario2, snapshot_times=()) -> Run2Result:
    """Advance a model-2 scenario from the start time to ``t_end`` with
    :func:`march.march`; TypeError unless ``scn`` is a :class:`Scenario2`."""
    if not isinstance(scn, Scenario2):
        raise TypeError(f"run_m2 needs a Scenario2, got {type(scn).__name__}")
    return march(scn, snapshot_times, interior_step_m2)
