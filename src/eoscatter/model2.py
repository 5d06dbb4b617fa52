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
from .history import DelayBuffer, RetardedSum
# DivergenceError and RUN_QUAD_REL_TOL are imported for re-export too.
from .march import DivergenceError, FieldState, Scenario, interior_step, march
from .mms import ManufacturedFields2, ResidualSources2
from .sources import RUN_QUAD_REL_TOL, incident_pair

__all__ = [
    "BoundaryMatrices",
    "DivergenceError",
    "Run2Result",
    "Scenario2",
    "State2",
    "boundary_update_m2",
    "check_step",
    "interior_step_m2",
    "run_m2",
]


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


class BoundaryMatrices:
    """The two 2x2 boundary systems and their exact inverses.

    Both determinants equal ``2*c1*c0 + mu0*nu1 + mu1*nu0``, strictly
    positive for positive material coefficients, so the solves are always
    well posed.  ``mix_out`` / ``mix_back`` are the interior combination
    matrices applied to the delayed data on the left and right side
    respectively.
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

    @staticmethod
    def _inv2(m: np.ndarray) -> np.ndarray:
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


def check_step(dt: float, grid: GridSpec, mat: Material2) -> None:
    """Model 2's rule on the time step: ``dt`` may not exceed the boundary
    transit time ``(a1 - a0)/c1`` (ValueError otherwise)."""
    if dt > grid.length / mat.c1:
        raise ValueError(
            "time step exceeds the boundary transit time; the coupled "
            "trace solves need the opposite pair one level back"
        )


class Scenario2(Scenario):
    """A complete model-2 run description (see :class:`march.Scenario`)."""

    potentials = ("phi", "psi")
    material = Material2
    manufactured = ManufacturedFields2
    residuals = ResidualSources2

    def _check_step(self) -> None:
        check_step(self.dt, self.grid, self.mat)

    @cached_property
    def lw_pass(self) -> tuple[ClosedPass, ClosedPass]:
        """``phi + h*D2(phi) + dt*mu1*D1(psi)`` and ``psi + h*D2(psi) +
        dt*nu1*D1(phi)``, ``h = dt**2*c1**2/2``, built once."""
        ops, m, dt = SpatialOps(self.grid), self.mat, self.dt
        h = 0.5 * dt * dt * m.mu1 * m.nu1
        return ClosedPass(ops, dt * m.mu1, h), ClosedPass(ops, dt * m.nu1, h)

    def incident(self, t):
        """The incident pair at ``t`` (in verification mode the exact pair
        of traces there), stacked along the last axis."""
        if self.mms is not None:
            pair = [getattr(self.mms, p).value(self.grid.a1, t)
                    for p in self.potentials]
        else:
            pair = incident_pair(self.source, self.grid.a1, self.mat, self.t0, t,
                                 RUN_QUAD_REL_TOL)
        return np.stack(pair, axis=-1)


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
    sources: ResidualSources2 | None = None,
    terms: dict | None = None, terms_next: dict | None = None,
):
    """Advance the four interior fields one step with level-n traces."""
    return interior_step(state, scn, sources, _potential_m2, terms, terms_next)


def _potential_m2(state, scn, terms, g):
    """The potential half of :func:`interior_step_m2`: Lax-Wendroff steps
    for the coupled pair, each one pass of :attr:`Scenario2.lw_pass` plus
    its current term, ``dt*g`` for ``phi`` and ``(dt**2*nu1/2)*D1(j)`` for
    ``psi``."""
    m, dt, s = scn.mat, scn.dt, state
    phi_pass, psi_pass = scn.lw_pass
    phi = phi_pass(s.phi, s.phi_a0, s.phi_a1, s.psi, s.psi_a0, s.psi_a1)
    phi += dt * g
    psi = psi_pass(s.psi, s.psi_a0, s.psi_a1, s.phi, s.phi_a0, s.phi_a1)
    psi += confined_pass(s.j, 0.5 * dt * dt * m.nu1, scn.grid.dx)
    if terms is not None:
        phi += dt * terms["phi"] + 0.5 * dt**2 * (
            terms["j"] + m.mu1 * terms["psi_dx"] + terms["phi_dt"])
        psi += dt * terms["psi"] + 0.5 * dt**2 * (
            m.nu1 * terms["phi_dx"] + terms["psi_dt"])
    return phi, psi


def _incident_term(scn: Scenario2, pair) -> tuple[float, float]:
    """``2*c0*(incident pair)`` on the right boundary.

    In verification mode ``pair`` holds the exact traces, and the role of
    the incident pair is played by their combination that turns the
    right-hand update rule into an identity for the manufactured fields.
    """
    m = scn.mat
    if scn.mms is not None:
        pe, se = pair
        return m.c0 * pe + m.mu0 * se, m.nu0 * pe + m.c0 * se
    if scn.source is None:
        return 0.0, 0.0
    phi_i, psi_i = pair
    return 2.0 * m.c0 * phi_i, 2.0 * m.c0 * psi_i


def _apply(mat: np.ndarray, u: float, v: float) -> tuple[float, float]:
    """``mat @ (u, v)`` for a 2x2 ``mat``, in scalar arithmetic: numpy's
    per-call overhead on 2x2 arrays outweighs the four products."""
    (a, b), (c, d) = mat.tolist()
    return a * u + b * v, c * u + d * v


def boundary_update_m2(
    scn: Scenario2,
    bm: BoundaryMatrices,
    left: float,
    right: float,
    pair0_hist: DelayBuffer,
    pair1_hist: DelayBuffer,
    t_next: float,
    incident,
    psi_sums=(0.0, 0.0),
):
    """Solve both boundary systems at ``t_next``.

    ``left`` and ``right`` are the retarded sums over the leftward delays
    ``(x - a0)/c1`` and the rightward ones ``(a1 - x)/c1``, as
    :class:`RetardedSum` gives them, of the ``phi`` equation's right-hand
    side: the current, plus in verification mode the ``phi`` residual
    source.  ``psi_sums`` are the same two sums of the ``psi`` residual
    source (zero outside verification mode).  ``incident`` is the value of
    :meth:`Scenario2.incident` at ``t_next`` (not read in a null run).  The
    trace-pair histories reach level n (both new pairs are appended by the
    caller afterwards).  Returns ``(phi_a0, psi_a0, phi_a1, psi_a1)``.
    """
    weight = scn.grid.dx / scn.mat.c1
    phi0, phi1 = left, right
    psi0, psi1 = psi_sums
    delay = t_next - scn.transit
    p, q = pair1_hist.query(delay).tolist()
    pair0 = _apply(bm.left_inv, *_apply(bm.mix_out, weight * phi0 + p,
                                         weight * psi0 + q))
    p, q = pair0_hist.query(delay).tolist()
    u, v = _apply(bm.mix_back, weight * phi1 + p, weight * psi1 + q)
    inc_u, inc_v = _incident_term(scn, incident)
    return (*pair0, *_apply(bm.right_inv, u + inc_u, v + inc_v))


def _closure_m2(scn: Scenario2, j0, terms0, incident):
    """Model 2's boundary closure for :func:`march`: the retarded sums of
    both directions, then both boundary systems, then both new pairs."""
    g, bm = scn.grid, BoundaryMatrices(scn.mat)
    pair0_hist, pair1_hist = (DelayBuffer(scn.t0, scn.dt, scn.window, shape=(2,))
                              for _ in range(2))
    delays = ((g.x - g.a0) / scn.mat.c1, (g.a1 - g.x) / scn.mat.c1)
    phi_sums = [RetardedSum(scn.t0, scn.dt, d) for d in delays]
    # the psi equation has a right-hand side, pushed here, in verification
    # mode only
    psi_sums = [RetardedSum(scn.t0, scn.dt, d) for d in delays]

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
    pair0_hist.append(np.array(start[:2]))
    pair1_hist.append(np.array(start[2:]))

    def close(t_next: float, n: int, j, terms):
        (left, right), psi = push(j, terms)
        traces = boundary_update_m2(scn, bm, left, right, pair0_hist,
                                    pair1_hist, t_next, incident[n], psi)
        pair0_hist.append(np.array(traces[:2]))
        pair1_hist.append(np.array(traces[2:]))
        return traces

    return start, close


def run_m2(scn: Scenario2, snapshot_times=()) -> Run2Result:
    """Advance a model-2 scenario from the start time to ``t_end``.

    Per-step ordering mirrors the one-potential solver: interior step with
    level-n traces, push the new current (plus the residual sources) into
    the retarded sums, solve both boundary systems at the new time from
    histories through level n, then append both pairs (see
    :func:`march.march`).
    """
    return march(scn, snapshot_times, State2, Run2Result, interior_step_m2,
                 _closure_m2)
