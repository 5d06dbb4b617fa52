"""The marching core both solvers share.

A model supplies its potentials (``phi``, or ``phi`` and ``psi``), the
potential half of the interior step and the boundary closure; the scenario
checks, the density/current half, the snapshots, the trace series and the
divergence handling live here once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import GridSpec, confined_pass
from .sources import source_support

#: Level-node points per call of the nodal residual evaluator: on a grid of
#: N <= 1024 nodes :func:`march` evaluates ``_BLOCK_POINTS // N`` levels per
#: call, which spreads the fixed cost of the field families' numpy calls; a
#: finer grid keeps one scalar call per level, where a block only costs
#: memory traffic.
_BLOCK_POINTS = 2048


class DivergenceError(RuntimeError):
    """Time stepping produced a non-finite field value.

    ``step`` is the level that failed; ``partial`` holds the run result
    truncated to the last finite level so callers can flush what exists.
    """

    def __init__(self, message: str, step: int | None = None, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


class FieldState:
    """Base of a model's state dataclass: nodal fields and boundary traces
    at one time level."""

    def copy(self):
        """A copy that owns its field arrays."""
        return replace(self, **{k: v.copy() for k, v in vars(self).items()
                                if isinstance(v, np.ndarray)})


@dataclass(frozen=True)
class Scenario:
    """A complete run description.

    Exactly one driving mode applies: an external ``source`` beyond the
    right boundary (production), a manufactured-solution bundle ``mms``
    (verification), or neither (null run).  A model's subclass sets the
    class attributes ``potentials``, ``material``, ``manufactured`` and
    ``residuals`` (its field-name tuple and classes) and supplies
    :meth:`incident`.
    """

    grid: GridSpec
    mat: object
    dt: float
    t_end: float
    source: object | None = None
    mms: object | None = None
    t0: float = 0.0

    def __post_init__(self) -> None:
        expected = [(self.mat, self.material)]
        if self.mms is not None:
            expected.append((self.mms, self.manufactured))
        for value, cls in expected:
            if not isinstance(value, cls):
                raise TypeError(f"{type(self).__name__} needs a {cls.__name__}, "
                                f"got {type(value).__name__}")
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError("t0 and t_end must be finite")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed the start time")
        self.check_step(self.dt, self.grid, self.mat)
        if self.source is not None and self.mms is not None:
            raise ValueError(
                "scenario cannot carry both an external source and "
                "manufactured fields"
            )
        if self.source is not None:
            lo = source_support(self.source)[0]
            if lo < self.grid.a1 - 1e-12:
                raise ValueError(
                    "external source support must lie beyond the right boundary "
                    f"(support starts at {lo!r}, boundary at {self.grid.a1!r})")
            if np.max(np.abs(self.incident(self.t0))) >= 1e-12:
                raise ValueError(
                    "source already influences the boundary at the start time"
                )
        if self.mms is not None:
            at = np.concatenate((self.grid.x, (self.grid.a0, self.grid.a1)))
            for p in self.potentials:  # the trace histories are zero before t0
                if np.max(np.abs(getattr(self.mms, p).value(at, self.t0))) >= 1e-12:
                    raise ValueError(f"manufactured {p} is not quiet at the start time")

    @staticmethod
    def check_step(dt: float, grid: GridSpec, mat) -> None:
        """The model's rule on the time step ``dt`` (ValueError when broken);
        none by default."""

    def incident(self, t):
        """What drives the right boundary at time(s) ``t``: the source's
        incident trace(s), or in verification mode the exact traces there."""
        raise NotImplementedError

    @property
    def field_names(self) -> tuple[str, ...]:
        """The evolved interior fields, in state order."""
        return self.potentials + ("rho", "j")

    @property
    def transit(self) -> float:
        """Interior one-way travel time between the boundaries."""
        return (self.grid.a1 - self.grid.a0) / self.mat.c1

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t0) / self.dt - 1e-9)))

    def snapshot_levels(self, snapshot_times) -> dict:
        """Time level -> requested time, the first request per level kept;
        ValueError for a time outside ``[t0, t_end]`` (``1e-12`` slack)."""
        wanted = {}
        for t_req in map(float, snapshot_times):
            if not self.t0 - 1e-12 <= t_req <= self.t_end + 1e-12:
                raise ValueError(f"snapshot time {t_req!r} outside "
                                 f"[t0, t_end] = [{self.t0!r}, {self.t_end!r}]")
            level = min(self.steps, max(0, int(round((t_req - self.t0) / self.dt))))
            wanted.setdefault(level, t_req)
        return wanted


def interior_step(state, scn: Scenario, potential_half,
                  terms=None, terms_next=None):
    """Advance the interior fields one step using level-n boundary traces.

    ``potential_half(state, scn, terms, g)`` returns the new potentials,
    given the nodal residual terms at level n (or None) and the half-step
    current ``g = j + (dt/2)*f``, ``f`` being the response forcing
    ``(alpha - beta*rho)*phi - gamma*j``.  The density then takes the
    Taylor step ``rho - dt*D1(g)`` and the current a Heun corrector, which
    reads the current's term at level n + 1.  ``terms`` and
    ``terms_next`` are the nodal terms at levels n and n + 1, given together
    (:func:`march` evaluates each level once) or, in verification mode,
    left out and evaluated here.
    """
    m, dt, h = scn.mat, scn.dt, 0.5 * scn.dt
    a, b, c = h * m.alpha, h * m.beta, h * m.gamma  # (dt/2) times the forcing's
    rho, j = state.rho, state.j
    g = (a - b * rho) * state.phi + (1.0 - c) * j
    if terms is None and scn.mms is not None:
        terms_at = scn.residuals(scn.mms, scn.mat).at(scn.grid.x)
        terms, terms_next = terms_at(state.t), terms_at(state.t + dt)
    potentials = potential_half(state, scn, terms, g)

    rho_new = rho + confined_pass(g, -dt, scn.grid.dx)
    if terms is not None:
        rho_new += dt * terms["rho"] + 0.5 * dt**2 * (terms["rho_dt"] - terms["j_dx"])
        g = g + h * terms["j"]
    # Heun: the predictor j + dt*f is 2*g - j, and the corrector g + h*f_next
    j_new = (a - b * rho_new) * potentials[0] + (1.0 - 2.0 * c) * g + c * j
    if terms_next is not None:
        j_new += h * terms_next["j"]
    return (*potentials, rho_new, j_new)


def _level_terms(terms_at, times, n: int):
    """The nodal residual terms at each of ``times`` in turn, from
    ``terms_at(t)`` per level or, on a coarse grid, one ``terms_at`` call on
    a ``(K, 1)`` array of times per K levels, row k the level's terms bit
    for bit (:meth:`eoscatter.mms.Field.at`)."""
    block = max(1, _BLOCK_POINTS // n)
    if block == 1:
        yield from map(terms_at, times.tolist())
        return
    for k in range(0, times.size, block):
        rows = terms_at(times[k:k + block, None])
        for i in range(min(block, times.size - k)):
            yield {name: v[i] for name, v in rows.items()}


def march(scn: Scenario, snapshot_times, state_cls, result_cls, step, closure):
    """Advance ``scn`` from its start time to ``t_end``.

    ``closure(scn, j0, terms, incident)`` runs once, given the start current,
    the start level's nodal residual terms (``terms_at(t0)``, or None)
    and the right-boundary series per level (:meth:`Scenario.incident`);
    it returns the start traces and ``close(n, j, terms)``, the traces at
    level n given the current and the terms there.  Each step runs
    ``step(state, scn, terms, terms_next)`` with the terms at both of its
    levels, then calls ``close``; the nodal evaluator
    ``terms_at = scn.residuals(scn.mms, scn.mat).at(g.x)`` is built once
    per run, and each level's terms are evaluated once with it, in blocks
    of levels on a coarse grid (:func:`_level_terms`), and carried to the
    next step.  A non-finite field raises :class:`DivergenceError`.
    """
    g, t0, dt, steps = scn.grid, scn.t0, scn.dt, scn.steps
    wanted = scn.snapshot_levels(snapshot_times)
    times = t0 + dt * np.arange(steps + 1)
    levels = (_level_terms(scn.residuals(scn.mms, scn.mat).at(g.x), times, g.n)
              if scn.mms is not None else itertools.repeat(None))
    incident = [None] * (steps + 1)
    if scn.source is not None or scn.mms is not None:
        incident = scn.incident(times)

    if scn.mms is not None:
        fields = [np.asarray(getattr(scn.mms, name).value(g.x, t0), dtype=float)
                  for name in scn.field_names]
    else:
        fields = [np.zeros(g.n) for _ in scn.field_names]
    terms = next(levels)
    traces, close = closure(scn, fields[-1], terms, incident)
    state = state_cls(*fields, *traces, 0, t0)
    series = np.zeros((len(traces), steps + 1))
    series[:, 0] = traces
    snapshots = [(wanted[0], state.copy())] if 0 in wanted else []

    # a diverging run overflows before the finiteness check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, steps + 1):
            t_next = t0 + n * dt
            terms_next = next(levels)
            fields = step(state, scn, terms, terms_next)
            # One reduction over all fields: cheaper than one per field.
            if not np.isfinite(np.concatenate(fields)).all():
                raise DivergenceError(
                    f"non-finite fields at step {n} (t = {t_next:.6g})", step=n,
                    partial=result_cls(scn, times[:n], *series[:, :n], snapshots, state),
                )
            traces = close(n, fields[-1], terms_next)
            state = state_cls(*fields, *traces, n, t_next)
            series[:, n] = traces
            if n in wanted:
                snapshots.append((wanted[n], state.copy()))
            terms = terms_next

    return result_cls(scn, times, *series, snapshots, state)
