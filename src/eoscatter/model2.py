"""Two-potential transient scattering solver.

Waves now travel both ways, so each boundary carries a pair of traces and
the delayed update rules couple them through 2x2 systems: the left system
collects what flowed leftward (delayed nodal current plus the delayed
right pair), the right system collects the rightward flow plus the
incident pair contributed by the external source.  Both system matrices
share one determinant, which is positive for any admissible material.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, Material2, SpatialOps
from .history import DelayBuffer, FixedLagSum
from .mms import ManufacturedFields2, ResidualSources2
from .model1 import DivergenceError
from .sources import RUN_QUAD_REL_TOL, incident_pair

__all__ = [
    "BoundaryMatrices",
    "DivergenceError",
    "Run2Result",
    "Scenario2",
    "State2",
    "boundary_update_m2",
    "interior_step_m2",
    "run_m2",
]


@dataclass
class State2:
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

    def copy(self) -> "State2":
        return State2(
            self.phi.copy(), self.psi.copy(), self.rho.copy(), self.j.copy(),
            self.phi_a0, self.psi_a0, self.phi_a1, self.psi_a1, self.n, self.t,
        )


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


@dataclass(frozen=True)
class Scenario2:
    """A complete model-2 run description (see :class:`Scenario1`)."""

    grid: GridSpec
    mat: Material2
    dt: float
    t_end: float
    source: object | None = None
    mms: ManufacturedFields2 | None = None
    t0: float = 0.0
    quad_rel_tol: float = RUN_QUAD_REL_TOL

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("t0 and t_end must be finite")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed the start time")
        if self.dt > self.transit:
            raise ValueError(
                "time step exceeds the boundary transit time; the coupled "
                "trace solves need the opposite pair one level back"
            )
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
            start = incident_pair(self.source, self.grid.a1, self.mat,
                                  self.t0, self.t0, self.quad_rel_tol)
            if max(abs(start[0]), abs(start[1])) >= 1e-12:
                raise ValueError(
                    "source already influences the boundary at the start time"
                )

    @property
    def transit(self) -> float:
        return (self.grid.a1 - self.grid.a0) / self.mat.c1

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t0) / self.dt - 1e-9)))


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
    ops: SpatialOps | None = None,
    sources: ResidualSources2 | None = None,
):
    """Advance the four interior fields one step with level-n traces."""
    if ops is None:
        ops = SpatialOps(scn.grid)
    if sources is None and scn.mms is not None:
        sources = ResidualSources2(scn.mms, scn.mat)
    m, dt = scn.mat, scn.dt
    x, t = scn.grid.x, state.t
    phi, psi, rho, j = state.phi, state.psi, state.rho, state.j
    c2 = m.mu1 * m.nu1

    dphi = ops.d1_closed(phi, state.phi_a0, state.phi_a1)
    d2phi = ops.d2_closed(phi, state.phi_a0, state.phi_a1)
    dpsi = ops.d1_closed(psi, state.psi_a0, state.psi_a1)
    d2psi = ops.d2_closed(psi, state.psi_a0, state.psi_a1)
    dj = ops.d1_confined(j)
    f = (m.alpha - m.beta * rho) * phi - m.gamma * j
    df = ops.d1_confined(f)

    phi_rate = m.mu1 * dpsi + j
    phi_curv = c2 * d2phi + f
    psi_rate = m.nu1 * dphi
    psi_curv = c2 * d2psi + m.nu1 * dj
    rho_rate = -dj
    rho_curv = -df
    f_now = f
    if sources is not None:
        g_j = sources.src_j(x, t)
        phi_rate = phi_rate + sources.src_phi(x, t)
        phi_curv = phi_curv + g_j + m.mu1 * sources.src_psi_dx(x, t) \
            + sources.src_phi_dt(x, t)
        psi_rate = psi_rate + sources.src_psi(x, t)
        psi_curv = psi_curv + m.nu1 * sources.src_phi_dx(x, t) \
            + sources.src_psi_dt(x, t)
        rho_rate = rho_rate + sources.src_rho(x, t)
        rho_curv = rho_curv + sources.src_rho_dt(x, t) - sources.src_j_dx(x, t)
        f_now = f + g_j

    phi_new = phi + dt * phi_rate + 0.5 * dt**2 * phi_curv
    psi_new = psi + dt * psi_rate + 0.5 * dt**2 * psi_curv
    rho_new = rho + dt * rho_rate + 0.5 * dt**2 * rho_curv

    j_pred = j + dt * f_now
    f_next = (m.alpha - m.beta * rho_new) * phi_new - m.gamma * j_pred
    if sources is not None:
        f_next = f_next + sources.src_j(x, t + dt)
    j_new = 0.5 * (j + j_pred + dt * f_next)
    return phi_new, psi_new, rho_new, j_new


def _incident_term(scn: Scenario2, t: float, pair=None) -> np.ndarray:
    """``2*c0*(incident pair)`` on the right boundary at time ``t``.

    In verification mode the role of the incident pair is played by the
    combination of the exact traces that turns the right-hand update rule
    into an identity for the manufactured fields.  ``pair`` is the incident
    pair at ``t`` when the caller has already computed it.
    """
    m = scn.mat
    if scn.mms is not None:
        pe = float(scn.mms.phi.value(scn.grid.a1, t))
        se = float(scn.mms.psi.value(scn.grid.a1, t))
        return np.array([m.c0 * pe + m.mu0 * se, m.nu0 * pe + m.c0 * se])
    if scn.source is None:
        return np.zeros(2)
    if pair is None:
        pair = incident_pair(scn.source, scn.grid.a1, m, scn.t0, t,
                             scn.quad_rel_tol)
    phi_i, psi_i = pair
    return 2.0 * m.c0 * np.array([phi_i, psi_i])


def boundary_update_m2(
    scn: Scenario2,
    bm: BoundaryMatrices,
    j_hist: DelayBuffer,
    pair0_hist: DelayBuffer,
    pair1_hist: DelayBuffer,
    t_next: float,
    sources: ResidualSources2 | None = None,
    left: FixedLagSum | None = None,
    right: FixedLagSum | None = None,
    incident=None,
):
    """Solve both boundary systems at ``t_next``.

    ``j_hist`` must reach level n+1; the trace-pair histories reach level
    n (both new pairs are appended by the caller afterwards).  Returns
    ``(phi_a0, psi_a0, phi_a1, psi_a1)``.  ``left`` and ``right`` are
    ``j_hist.fixed_lag`` readers over the leftward delays ``(x - a0)/c1``
    and the rightward ones ``(a1 - x)/c1``, and ``incident`` is the incident
    pair at ``t_next``; each is computed here when not given.
    """
    g, m = scn.grid, scn.mat
    c1 = m.c1
    x = g.x
    weight = g.dx / c1

    def summed(delays: np.ndarray, reader: FixedLagSum | None) -> np.ndarray:
        if reader is not None:
            top = reader(t_next)
        else:
            top = float(np.sum(j_hist.query_each(t_next - delays)))
        if sources is None:
            return np.array([top, 0.0])
        times = t_next - delays
        live = times > scn.t0
        top += float(np.sum(np.where(live, sources.src_phi(x, times), 0.0)))
        bot = float(np.sum(np.where(live, sources.src_psi(x, times), 0.0)))
        return np.array([top, bot])

    delay = t_next - scn.transit
    rhs0 = weight * (bm.mix_out @ summed((x - g.a0) / c1, left))
    rhs0 += bm.mix_out @ pair1_hist.query(delay)
    pair0 = bm.left_inv @ rhs0

    rhs1 = weight * (bm.mix_back @ summed((g.a1 - x) / c1, right))
    rhs1 += bm.mix_back @ pair0_hist.query(delay)
    rhs1 += _incident_term(scn, t_next, incident)
    pair1 = bm.right_inv @ rhs1
    return float(pair0[0]), float(pair0[1]), float(pair1[0]), float(pair1[1])


def run_m2(scn: Scenario2, snapshot_times=()) -> Run2Result:
    """Advance a model-2 scenario from the start time to ``t_end``.

    Per-step ordering mirrors the one-potential solver: interior step with
    level-n traces, append the new current, solve both boundary systems at
    the new time from histories through level n, then append both pairs.
    Both fixed-lag readers and the whole incident series are built once,
    before the first step.
    """
    g = scn.grid
    ops = SpatialOps(g)
    bm = BoundaryMatrices(scn.mat)
    sources = ResidualSources2(scn.mms, scn.mat) if scn.mms is not None else None
    window = scn.transit + 2.0 * scn.dt
    j_hist = DelayBuffer(scn.t0, scn.dt, window, shape=(g.n,))
    pair0_hist = DelayBuffer(scn.t0, scn.dt, window, shape=(2,))
    pair1_hist = DelayBuffer(scn.t0, scn.dt, window, shape=(2,))
    left = j_hist.fixed_lag((g.x - g.a0) / scn.mat.c1)
    right = j_hist.fixed_lag((g.a1 - g.x) / scn.mat.c1)
    steps = scn.steps
    times = scn.t0 + scn.dt * np.arange(steps + 1)
    incident = [None] * (steps + 1)
    if scn.source is not None:
        incident = np.column_stack(incident_pair(
            scn.source, g.a1, scn.mat, scn.t0, times, scn.quad_rel_tol
        ))

    if scn.mms is not None:
        phi = np.asarray(scn.mms.phi.value(g.x, scn.t0), dtype=float)
        psi = np.asarray(scn.mms.psi.value(g.x, scn.t0), dtype=float)
        rho = np.asarray(scn.mms.rho.value(g.x, scn.t0), dtype=float)
        j = np.asarray(scn.mms.j.value(g.x, scn.t0), dtype=float)
        traces = (
            float(scn.mms.phi.value(g.a0, scn.t0)),
            float(scn.mms.psi.value(g.a0, scn.t0)),
            float(scn.mms.phi.value(g.a1, scn.t0)),
            float(scn.mms.psi.value(g.a1, scn.t0)),
        )
    else:
        phi, psi, rho, j = (np.zeros(g.n) for _ in range(4))
        traces = (0.0, 0.0, 0.0, 0.0)
    state = State2(phi, psi, rho, j, *traces, 0, scn.t0)
    j_hist.append(state.j)
    pair0_hist.append(np.array([state.phi_a0, state.psi_a0]))
    pair1_hist.append(np.array([state.phi_a1, state.psi_a1]))

    wanted = {}
    for t_req in snapshot_times:
        level = min(steps, max(0, int(round((t_req - scn.t0) / scn.dt))))
        wanted.setdefault(level, float(t_req))
    series = np.zeros((4, steps + 1))
    series[:, 0] = traces
    snapshots = []
    if 0 in wanted:
        snapshots.append((wanted[0], state.copy()))

    for n in range(steps):
        t_next = scn.t0 + (n + 1) * scn.dt
        phi, psi, rho, j = interior_step_m2(state, scn, ops, sources)
        if not all(
            np.all(np.isfinite(a)) for a in (phi, psi, rho, j)
        ):
            raise DivergenceError(
                f"non-finite fields at step {n + 1} (t = {t_next:.6g})",
                step=n + 1,
                partial=Run2Result(
                    scn,
                    times[: n + 1],
                    series[0, : n + 1],
                    series[1, : n + 1],
                    series[2, : n + 1],
                    series[3, : n + 1],
                    snapshots,
                    state,
                ),
            )
        j_hist.append(j)
        pa0, sa0, pa1, sa1 = boundary_update_m2(
            scn, bm, j_hist, pair0_hist, pair1_hist, t_next, sources,
            left, right, incident[n + 1],
        )
        pair0_hist.append(np.array([pa0, sa0]))
        pair1_hist.append(np.array([pa1, sa1]))
        state = State2(phi, psi, rho, j, pa0, sa0, pa1, sa1, n + 1, t_next)
        series[:, n + 1] = (pa0, sa0, pa1, sa1)
        if n + 1 in wanted:
            snapshots.append((wanted[n + 1], state.copy()))

    return Run2Result(
        scn, times, series[0], series[1], series[2], series[3], snapshots, state
    )
