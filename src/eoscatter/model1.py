"""One-potential transient scattering solver.

Interior nodes advance with a Lax-Wendroff step for the potential and the
density plus a Heun (modified-Euler) corrector for the current.  The
boundary closes through retarded data instead of local conditions: the
left trace is rebuilt every step from the delayed nodal current plus the
delayed right trace (zero prehistory keeps it causal), while the right
trace comes from the external source's characteristic integral -- or from
the exact fields when a manufactured-solution bundle is attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, Material1, SpatialOps
from .history import DelayBuffer, FixedLagSum
from .mms import ManufacturedFields1, ResidualSources1
from .sources import RUN_QUAD_REL_TOL, incident_trace


class DivergenceError(RuntimeError):
    """Time stepping produced a non-finite field value.

    ``step`` is the level that failed; ``partial`` holds the run result
    truncated to the last finite level so callers can flush what exists.
    """

    def __init__(self, message: str, step: int | None = None, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


@dataclass
class State1:
    """Nodal fields plus boundary traces at one time level."""

    phi: np.ndarray
    rho: np.ndarray
    j: np.ndarray
    phi_a0: float
    phi_a1: float
    n: int
    t: float

    def copy(self) -> "State1":
        return State1(
            self.phi.copy(), self.rho.copy(), self.j.copy(),
            self.phi_a0, self.phi_a1, self.n, self.t,
        )


@dataclass(frozen=True)
class Scenario1:
    """A complete model-1 run description.

    Exactly one driving mode applies: an external ``source`` beyond the
    right boundary (production), a manufactured-solution bundle ``mms``
    (verification), or neither (null run).
    """

    grid: GridSpec
    mat: Material1
    dt: float
    t_end: float
    source: object | None = None
    mms: ManufacturedFields1 | None = None
    t0: float = 0.0
    quad_rel_tol: float = RUN_QUAD_REL_TOL

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("t0 and t_end must be finite")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed the start time")
        if self.source is not None and self.mms is not None:
            raise ValueError(
                "scenario cannot carry both an external source and "
                "manufactured fields"
            )
        if self.source is not None:
            if self.source.support[0] < self.grid.a1 - 1e-12:
                raise ValueError(
                    "external source support must lie beyond the right boundary"
                )
            if abs(incident_trace(self.source, self.grid.a1, self.mat,
                                  self.t0, self.t0, self.quad_rel_tol)) >= 1e-12:
                raise ValueError(
                    "source already influences the boundary at the start time"
                )

    @property
    def transit(self) -> float:
        """Interior one-way travel time between the boundaries."""
        return (self.grid.a1 - self.grid.a0) / self.mat.c1

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t0) / self.dt - 1e-9)))


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
    ops: SpatialOps | None = None,
    sources: ResidualSources1 | None = None,
):
    """Advance the interior fields one step using level-n boundary traces.

    Returns the new ``(phi, rho, j)`` arrays; the caller supplies the
    level-(n+1) traces afterwards.  ``sources`` carries the residual terms
    in verification mode, including the analytic derivatives folded into
    the second-order Taylor coefficients.
    """
    if ops is None:
        ops = SpatialOps(scn.grid)
    if sources is None and scn.mms is not None:
        sources = ResidualSources1(scn.mms, scn.mat)
    m, dt = scn.mat, scn.dt
    x, t = scn.grid.x, state.t
    phi, rho, j = state.phi, state.rho, state.j

    dphi = ops.d1_closed(phi, state.phi_a0, state.phi_a1)
    d2phi = ops.d2_closed(phi, state.phi_a0, state.phi_a1)
    dj = ops.d1_confined(j)
    f = (m.alpha - m.beta * rho) * phi - m.gamma * j
    df = ops.d1_confined(f)

    phi_rate = m.c1 * dphi + j
    phi_curv = m.c1**2 * d2phi + m.c1 * dj + f
    rho_rate = -dj
    rho_curv = -df
    f_now = f
    if sources is not None:
        g_j = sources.src_j(x, t)
        phi_rate = phi_rate + sources.src_phi(x, t)
        phi_curv = phi_curv + m.c1 * sources.src_phi_dx(x, t) \
            + sources.src_phi_dt(x, t) + g_j
        rho_rate = rho_rate + sources.src_rho(x, t)
        rho_curv = rho_curv + sources.src_rho_dt(x, t) - sources.src_j_dx(x, t)
        f_now = f + g_j

    phi_new = phi + dt * phi_rate + 0.5 * dt**2 * phi_curv
    rho_new = rho + dt * rho_rate + 0.5 * dt**2 * rho_curv

    j_pred = j + dt * f_now
    f_next = (m.alpha - m.beta * rho_new) * phi_new - m.gamma * j_pred
    if sources is not None:
        f_next = f_next + sources.src_j(x, t + dt)
    j_new = 0.5 * (j + j_pred + dt * f_next)
    return phi_new, rho_new, j_new


def boundary_a1_m1(scn: Scenario1, t: float, incident: float | None = None) -> float:
    """Right-boundary trace: retarded source integral, or exact fields in
    verification mode, or zero for a null run.

    ``incident`` is the source's trace at ``t`` when the caller has already
    computed it (``run_m1`` takes the whole series in one call).
    """
    if scn.mms is not None:
        return float(scn.mms.phi.value(scn.grid.a1, t))
    if scn.source is None:
        return 0.0
    if incident is not None:
        return float(incident)
    return incident_trace(
        scn.source, scn.grid.a1, scn.mat, scn.t0, t, scn.quad_rel_tol
    )


def boundary_a0_m1(
    scn: Scenario1,
    j_hist: DelayBuffer,
    pa1_hist: DelayBuffer,
    t_next: float,
    sources: ResidualSources1 | None = None,
    left: FixedLagSum | None = None,
) -> float:
    """Left-boundary trace from the delayed nodal current plus the delayed
    right trace.

    Every node contributes at its own retarded time; samples at or before
    the start time are zero (the causal mask).  In verification mode the
    integrand gains the potential-equation residual source, under the same
    mask.  ``left``, a ``j_hist.fixed_lag`` reader over the nodes' delays
    ``(x - a0)/c1``, sums the current faster when ``t_next`` is a time level.
    """
    g, c1 = scn.grid, scn.mat.c1
    delays = (g.x - g.a0) / c1
    if left is not None:
        total = left(t_next)
    else:
        total = float(np.sum(j_hist.query_each(t_next - delays)))
    if sources is not None:
        times = t_next - delays
        total += float(
            np.sum(np.where(times > scn.t0, sources.src_phi(g.x, times), 0.0))
        )
    trace = g.dx / c1 * total
    trace += pa1_hist.query(t_next - scn.transit)
    return trace


def run_m1(scn: Scenario1, snapshot_times=()) -> Run1Result:
    """Advance a model-1 scenario from the start time to ``t_end``.

    Per-step ordering: interior step with level-n traces, append the new
    current to its history, evaluate the right trace at the new time,
    then the left trace (which may consume the fresh right value when the
    transit is shorter than a step), and append the traces.  The left
    trace's fixed-lag reader and the whole incident series are built once,
    before the first step.
    """
    g = scn.grid
    ops = SpatialOps(g)
    sources = ResidualSources1(scn.mms, scn.mat) if scn.mms is not None else None
    window = scn.transit + 2.0 * scn.dt
    j_hist = DelayBuffer(scn.t0, scn.dt, window, shape=(g.n,))
    pa1_hist = DelayBuffer(scn.t0, scn.dt, window)
    left = j_hist.fixed_lag((g.x - g.a0) / scn.mat.c1)
    steps = scn.steps
    times = scn.t0 + scn.dt * np.arange(steps + 1)
    incident = [None] * (steps + 1)
    if scn.source is not None:
        incident = incident_trace(
            scn.source, g.a1, scn.mat, scn.t0, times, scn.quad_rel_tol
        )

    if scn.mms is not None:
        phi = np.asarray(scn.mms.phi.value(g.x, scn.t0), dtype=float)
        rho = np.asarray(scn.mms.rho.value(g.x, scn.t0), dtype=float)
        j = np.asarray(scn.mms.j.value(g.x, scn.t0), dtype=float)
    else:
        phi = np.zeros(g.n)
        rho = np.zeros(g.n)
        j = np.zeros(g.n)
    state = State1(phi, rho, j, 0.0, boundary_a1_m1(scn, scn.t0, incident[0]),
                   0, scn.t0)
    j_hist.append(state.j)
    pa1_hist.append(state.phi_a1)

    wanted = {}
    for t_req in snapshot_times:
        level = min(steps, max(0, int(round((t_req - scn.t0) / scn.dt))))
        wanted.setdefault(level, float(t_req))
    trace0 = np.zeros(steps + 1)
    trace1 = np.zeros(steps + 1)
    trace0[0], trace1[0] = state.phi_a0, state.phi_a1
    snapshots = []
    if 0 in wanted:
        snapshots.append((wanted[0], state.copy()))

    for n in range(steps):
        t_next = scn.t0 + (n + 1) * scn.dt
        phi, rho, j = interior_step_m1(state, scn, ops, sources)
        if not (
            np.all(np.isfinite(phi))
            and np.all(np.isfinite(rho))
            and np.all(np.isfinite(j))
        ):
            raise DivergenceError(
                f"non-finite fields at step {n + 1} (t = {t_next:.6g})",
                step=n + 1,
                partial=Run1Result(
                    scn,
                    times[: n + 1],
                    trace0[: n + 1],
                    trace1[: n + 1],
                    snapshots,
                    state,
                ),
            )
        j_hist.append(j)
        pa1 = boundary_a1_m1(scn, t_next, incident[n + 1])
        pa1_hist.append(pa1)
        pa0 = boundary_a0_m1(scn, j_hist, pa1_hist, t_next, sources, left)
        state = State1(phi, rho, j, pa0, pa1, n + 1, t_next)
        trace0[n + 1] = pa0
        trace1[n + 1] = pa1
        if n + 1 in wanted:
            snapshots.append((wanted[n + 1], state.copy()))

    return Run1Result(scn, times, trace0, trace1, snapshots, state)
