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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import ClosedPass, GridSpec, Material2, SpatialOps, confined_pass
from .history import FixedLagReader, RetardedSum
# DivergenceError and RUN_QUAD_REL_TOL are imported for re-export too.
from .march import DivergenceError, FieldState, Scenario, interior_step, march
from .mms import ManufacturedFields2, ResidualSources2
from .sources import RUN_QUAD_REL_TOL, incident_pair

@dataclass
class State2(FieldState):
    """Nodal fields plus both boundary trace pairs at one time level."""

    phi: np.ndarray
    psi: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    phi_a0: float
    psi_a0: float
    phi_a1: float
    psi_a1: float
    n: int
    t: float


def _compose(a: np.ndarray, b: np.ndarray) -> tuple:
    """``a @ b`` of two 2x2 arrays, as nested tuples of Python floats.
    Written out, as ``incident_terms`` uses ``einsum``: a run's first
    ``@`` would set up the BLAS, about 0.4 MiB of resident memory."""
    (a00, a01), (a10, a11) = a.tolist()
    (b00, b01), (b10, b11) = b.tolist()
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


class BoundaryMatrices:
    """The two 2x2 boundary systems and their exact inverses.

    Both determinants equal ``2*c1*c0 + mu0*nu1 + mu1*nu0``, strictly
    positive for positive material coefficients, so the solves are always
    well posed.  ``mix_out`` / ``mix_back`` are the interior combination
    matrices applied to the delayed data on the left and right side
    respectively.  ``left_out`` and ``right_back`` are ``left_inv @
    mix_out`` and ``right_inv @ mix_back`` as nested tuples of floats, the
    forms the per-step solves use.
    """

    def __init__(self, mat: Material2) -> None:
        c1, c0 = mat.c1, mat.c0
        self.left = np.array(
            [[c1 + c0, mat.mu1 - mat.mu0], [mat.nu1 - mat.nu0, c1 + c0]]
        )
        self.right = np.array(
            [[c1 + c0, mat.mu0 - mat.mu1], [mat.nu0 - mat.nu1, c1 + c0]]
        )
        self.det = 2.0 * c1 * c0 + mat.mu0 * mat.nu1 + mat.mu1 * mat.nu0
        self.left_inv = self._inv2(self.left)
        self.right_inv = self._inv2(self.right)
        self.mix_out = np.array([[c1, mat.mu1], [mat.nu1, c1]])
        self.mix_back = np.array([[c1, -mat.mu1], [-mat.nu1, c1]])
        self.left_out = _compose(self.left_inv, self.mix_out)
        self.right_back = _compose(self.right_inv, self.mix_back)

    @staticmethod
    def _inv2(m: np.ndarray) -> np.ndarray:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


class Scenario2(Scenario):
    """A complete model-2 run description (see :class:`march.Scenario`)."""

    potentials = ("phi", "psi")
    material = Material2
    manufactured = ManufacturedFields2
    residuals = ResidualSources2

    @staticmethod
    def check_step(dt: float, grid: GridSpec, mat: Material2) -> None:
        """Model 2's rule on the time step: ``dt`` may not exceed the
        boundary transit time ``(a1 - a0)/c1`` (ValueError otherwise)."""
        if dt > grid.length / mat.c1:
            raise ValueError(
                "time step exceeds the boundary transit time; the coupled "
                "trace solves need the opposite pair one level back"
            )

    @cached_property
    def lw_pass(self) -> tuple[ClosedPass, ClosedPass]:
        """``phi + h*D2(phi) + dt*mu1*D1(psi)`` and ``psi + h*D2(psi) +
        dt*nu1*D1(phi)``, ``h = dt**2*c1**2/2``, built once."""
        ops, m, dt = SpatialOps(self.grid), self.mat, self.dt
        h = 0.5 * dt * dt * m.mu1 * m.nu1
        return ClosedPass(ops, dt * m.mu1, h), ClosedPass(ops, dt * m.nu1, h)

    def incident(self, t):
        """The incident pair at ``t`` (in verification mode the exact pair
        of traces there, in a null run zeros), stacked along the last axis."""
        if self.mms is not None:
            pair = [getattr(self.mms, p).value(self.grid.a1, t)
                    for p in self.potentials]
        elif self.source is None:
            return np.zeros(np.shape(t) + (2,))
        else:
            pair = incident_pair(self.source, self.grid.a1, self.mat, self.t0, t,
                                 RUN_QUAD_REL_TOL)
        return np.stack(pair, axis=-1)

    def run(self, snapshot_times=()) -> Run2Result:
        """:func:`run_m2` of this scenario, the module's ``run_m2`` as it
        is when called (so a wrapper put there sees the run)."""
        return run_m2(self, snapshot_times)


@dataclass
class Run2Result:
    scenario: Scenario2
    times: np.ndarray
    phi_a0: np.ndarray
    psi_a0: np.ndarray
    phi_a1: np.ndarray
    psi_a1: np.ndarray
    snapshots: list[tuple[float, State2]] = field(default_factory=list)
    final: State2 | None = None


def interior_step_m2(
    state: State2,
    scn: Scenario2,
    terms: dict | None = None, terms_next: dict | None = None, out=None,
):
    """Advance the four interior fields one step with level-n traces;
    ``out``: the buffers of :func:`march.interior_step`."""
    return interior_step(state, scn, _potential_m2, terms, terms_next, out)


def _potential_m2(state, scn, terms, g, tmp):
    """The potential half of :func:`interior_step_m2`: Lax-Wendroff steps
    for the coupled pair, each one pass of :attr:`Scenario2.lw_pass` plus
    its current term, ``dt*g`` for ``phi`` and ``(dt**2*nu1/2)*D1(j)`` for
    ``psi``."""
    m, dt, s = scn.mat, scn.dt, state
    phi_pass, psi_pass = scn.lw_pass
    phi = phi_pass(s.phi, s.phi_a0, s.phi_a1, s.psi, s.psi_a0, s.psi_a1)
    phi += np.multiply(dt, g, out=tmp)
    psi = psi_pass(s.psi, s.psi_a0, s.psi_a1, s.phi, s.phi_a0, s.phi_a1)
    psi += confined_pass(s.j, 0.5 * dt * dt * m.nu1, scn.grid.dx, tmp)
    if terms is not None:
        phi += dt * terms["phi"] + 0.5 * dt**2 * (
            terms["j"] + m.mu1 * terms["psi_dx"] + terms["phi_dt"])
        psi += dt * terms["psi"] + 0.5 * dt**2 * (
            m.nu1 * terms["phi_dx"] + terms["psi_dt"])
    return phi, psi


def incident_terms(scn: Scenario2, bm: BoundaryMatrices, pairs) -> np.ndarray:
    """The right system's incident term per level, solved through
    ``bm.right_inv``: ``right_inv @ (2*c0*pair)`` for each incident pair of
    ``pairs`` (rows of :meth:`Scenario2.incident`), one row per level.

    In verification mode the rows hold the exact traces, and the role of
    the incident pair is played by their combination that turns the
    right-hand update rule into an identity for the manufactured fields.
    """
    m = scn.mat
    if scn.mms is not None:
        drive = np.array([[m.c0, m.mu0], [m.nu0, m.c0]])
    else:
        drive = 2.0 * m.c0 * np.eye(2)
    return np.einsum("lj,ij->li", pairs, _compose(bm.right_inv, drive))


def _apply(mat, u: float, v: float) -> tuple[float, float]:
    """``mat @ (u, v)`` for a 2x2 ``mat`` of nested float tuples, in scalar
    arithmetic: numpy's per-call overhead on 2x2 arrays outweighs the four
    products."""
    (a, b), (c, d) = mat
    return a * u + b * v, c * u + d * v


def boundary_update_m2(
    scn: Scenario2,
    bm: BoundaryMatrices,
    left: float,
    right: float,
    delayed0,
    delayed1,
    incident,
    psi_sums=(0.0, 0.0),
):
    """Solve both boundary systems at a new level.

    ``left`` and ``right`` are the retarded sums over the leftward delays
    ``(x - a0)/c1`` and the rightward ones ``(a1 - x)/c1``, as
    :class:`RetardedSum` gives them, of the ``phi`` equation's right-hand
    side: the current, plus in verification mode the ``phi`` residual
    source.  ``psi_sums`` are the same two sums of the ``psi`` residual
    source (zero outside verification mode).  ``delayed0`` and
    ``delayed1`` are the left and right trace pairs one transit time behind
    the new level, as a :class:`FixedLagReader` reads them, and
    ``incident`` is the level's row of :func:`incident_terms`.  Returns
    ``(phi_a0, psi_a0, phi_a1, psi_a1)``, Python floats when the inputs
    are.
    """
    weight = scn.grid.dx / scn.mat.c1
    psi0, psi1 = psi_sums
    p, q = delayed1
    pair0 = _apply(bm.left_out, weight * left + p, weight * psi0 + q)
    p, q = delayed0
    u, v = _apply(bm.right_back, weight * right + p, weight * psi1 + q)
    inc_u, inc_v = incident
    return (*pair0, u + inc_u, v + inc_v)


def _closure_m2(scn: Scenario2, j0, terms0, incident):
    """Model 2's boundary closure for :func:`march`: the retarded sums of
    both directions, then both boundary systems, then both new pairs."""
    g, bm = scn.grid, BoundaryMatrices(scn.mat)
    # both pairs, left then right, read at one lag
    pairs_hist = FixedLagReader(scn.t0, scn.dt, scn.transit, width=4)
    delays = ((g.x - g.a0) / scn.mat.c1, (g.a1 - g.x) / scn.mat.c1)
    phi_sums = [RetardedSum(scn.t0, scn.dt, d) for d in delays]
    # the psi equation has a right-hand side in verification mode only
    psi_sums = ([RetardedSum(scn.t0, scn.dt, d) for d in delays]
                if scn.mms is not None else None)
    inc = incident_terms(scn, bm, incident)

    def push(j, terms):
        """Both directions' phi sums, and their psi sums."""
        if terms is None:
            return [s.push(j) for s in phi_sums], (0.0, 0.0)
        rhs = j + terms["phi"]
        return ([s.push(rhs) for s in phi_sums],
                [s.push(terms["psi"]) for s in psi_sums])

    push(j0, terms0)
    start = (0.0, 0.0, 0.0, 0.0)
    if scn.mms is not None:
        start = tuple(float(getattr(scn.mms, p).value(a, scn.t0))
                      for a in (g.a0, g.a1) for p in scn.potentials)
    pairs_hist.append(start)

    def close(n: int, j, terms):
        (left, right), psi = push(j, terms)
        delayed = pairs_hist.read(n)
        traces = boundary_update_m2(scn, bm, left, right, delayed[:2],
                                    delayed[2:], inc[n].tolist(), psi)
        pairs_hist.append(traces)
        return traces

    return start, close


def run_m2(scn: Scenario2, snapshot_times=()) -> Run2Result:
    """Advance a model-2 scenario from the start time to ``t_end``.

    Per-step ordering mirrors the one-potential solver: interior step with
    level-n traces, push the new current (plus the residual sources) into
    the retarded sums, solve both boundary systems at the new time from
    histories through level n, then append both pairs (see
    :func:`march.march`).  TypeError unless ``scn`` is a
    :class:`Scenario2`.
    """
    if not isinstance(scn, Scenario2):
        raise TypeError(f"run_m2 needs a Scenario2, got {type(scn).__name__}")
    return march(scn, snapshot_times, State2, Run2Result, interior_step_m2,
                 _closure_m2)
