"""The marching core both solvers share.

A model is data: its potentials (``phi``, or ``phi`` and ``psi``), its
material, whose ``coupling`` is their matrix ``A``, the source's drive at
the right boundary (:meth:`Scenario.drive`) and its trace update
(:meth:`Scenario.traces`).  The state and result classes, the scenario
checks, the Lax-Wendroff passes, the incident rows, the interior step, the
stream of levels (:func:`_levels`: start state, steps, divergence check and
boundary closure) and its one recorder (:func:`march`) live here once.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field, make_dataclass, replace
from functools import cached_property
from operator import attrgetter

import numpy as np

from .grid import (ClosedPass, GridSpec, SpatialOps, check_fields, check_real,
                   check_size, confined_pass, drivers)
from .history import RetardedSum, lag_reader
from .mms import ResidualSources
from .sources import source_support

#: Level-node points per call of the nodal residual evaluator: on a grid of
#: N <= 1024 nodes :func:`_levels` evaluates ``_BLOCK_POINTS // N`` levels per
#: call, which spreads the fixed cost of the field families' numpy calls; a
#: finer grid keeps one scalar call per level, where a block only costs
#: memory traffic.  At N = 1600 blocks of K >= 4 levels ran 1.8-2.4x slower
#: per level than one level per call (timeit, 2-vCPU VM): their fresh
#: temporaries, 51 KB and up, fault their pages in afresh.
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
    class attributes ``potentials``, ``material`` and ``manufactured`` (its
    field-name tuple and classes), names its state and result classes
    (``class Scenario1(Scenario, state="State1", result="Run1Result")``,
    built here as ``State`` and ``Result``) and supplies :meth:`drive`,
    :meth:`traces` and ``run(snapshot_times=())``, its model's runner.
    """

    residuals = ResidualSources

    grid: GridSpec
    mat: object
    dt: float
    t_end: float
    source: object | None = None
    mms: object | None = None
    t0: float = 0.0

    def __init_subclass__(cls, *, state: str, result: str, **kw) -> None:
        """Build the model's nodal ``field_names`` and its state and result
        dataclasses, named ``state`` and ``result``, from its
        ``potentials``."""
        super().__init_subclass__(**kw)
        cls.field_names = (*cls.potentials, "rho", "j")  # in state order
        traces = [f"{p}_{a}" for a in ("a0", "a1") for p in cls.potentials]
        # each set in the model's module, where pickle looks it up, before
        # the next is made (make_dataclass has no module= before Python 3.12)
        cls.State = make_dataclass(state, [
            *((f, np.ndarray) for f in cls.field_names),
            *((f, float) for f in traces), ("n", int), ("t", float)], bases=(FieldState,))
        cls.State.__module__ = cls.__module__
        cls.Result = make_dataclass(result, [
            ("scenario", cls), ("times", np.ndarray), *((f, np.ndarray) for f in traces),
            ("snapshots", list, field(default_factory=list)),
            ("final", cls.State | None, None)])
        cls.Result.__module__ = cls.__module__

    def __post_init__(self) -> None:
        expected = [(self.grid, GridSpec), (self.mat, self.material)]
        if self.mms is not None:
            expected.append((self.mms, self.manufactured))
        for value, cls in expected:
            if not isinstance(value, cls):
                raise TypeError(f"{type(self).__name__} needs a {cls.__name__}, "
                                f"got {type(value).__name__}")
        check_fields(self, positive=("dt",))
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed the start time")
        # the trace series, the march's largest array, holds every level's row
        check_size("t0, t_end and dt", 2 * len(self.potentials)
                   * ((self.t_end - self.t0) / self.dt + 2))
        if self.dt > self.transit:
            raise ValueError("time step exceeds the boundary transit time; "
                             "the traces read their history one transit back")
        if self.source is not None and self.mms is not None:
            raise ValueError("scenario cannot carry both an external source "
                             "and manufactured fields")
        if self.source is not None:
            lo = source_support(self.source)[0]
            if lo < self.grid.a1 - 1e-12:
                raise ValueError(
                    "external source support must lie beyond the right boundary "
                    f"(support starts at {lo!r}, boundary at {self.grid.a1!r})")
        if self.mms is not None:
            at = np.concatenate((self.grid.x, (self.grid.a0, self.grid.a1)))
            for p in self.potentials:  # the trace histories are zero before t0
                if np.max(np.abs(getattr(self.mms, p).value(at, self.t0))) >= 1e-12:
                    raise ValueError(f"manufactured {p} is not quiet at the start time")

    def drive(self, t) -> tuple:
        """The source's incident traces at time(s) ``t``, one per potential."""
        raise NotImplementedError

    def incident(self, t):
        """What drives the right boundary at time(s) ``t``, one column per
        potential along the last axis: the source's :meth:`drive`, in
        verification mode the exact traces there, and zeros in a null run."""
        if self.mms is not None:
            return np.stack([getattr(self.mms, p).value(self.grid.a1, t)
                             for p in self.potentials], axis=-1)
        if self.source is None:
            return np.zeros(np.shape(t) + (len(self.potentials),))
        return np.stack(self.drive(t), axis=-1)

    def traces(self, sums, delayed, incident):
        """A new level's traces, left then right, as Python floats, from the
        boundary integrals ``sums`` (:func:`_levels`), the trace row ``delayed``
        one transit back and the row ``incident`` of :meth:`incident`."""
        raise NotImplementedError

    @cached_property
    def lw_pass(self) -> tuple[ClosedPass, ...]:
        """One pass per potential ``u_k``, built once: ``u_k +
        dt*a*D1(u_l) + (dt*a)*(dt*A_lk)/2*D2(u_k)``, ``a = A_kl`` being the
        one non-zero entry of row k of ``A`` (``mat.coupling``), so that the
        last coefficient is ``dt**2/2*(A**2)_kk``."""
        ops, A, dt = SpatialOps(self.grid), self.mat.coupling, self.dt
        return tuple(ClosedPass(ops, dt * a, 0.5 * (dt * a) * (dt * A[l][k]))
                     for k, (l, a) in enumerate(drivers(A)))

    @cached_property
    def _halves(self) -> tuple:
        """Per potential ``u``, what :func:`interior_step` reads, worked out
        once: the getter of ``u`` and of the potential whose gradient drives
        it (``u``'s row of ``A`` has one non-zero entry), each with its
        traces; ``dt**2/2*(A*e1)_u``; and ``u``'s name."""
        halves, A = [], self.mat.coupling
        for p, row, (l, _) in zip(self.potentials, A, drivers(A)):
            q = self.potentials[l]
            halves.append((attrgetter(p, f"{p}_a0", f"{p}_a1", q, f"{q}_a0", f"{q}_a1"),
                           0.5 * self.dt * self.dt * row[0], p))
        return tuple(halves)

    @property
    def transit(self) -> float:
        """Interior one-way travel time between the boundaries."""
        return (self.grid.a1 - self.grid.a0) / self.mat.c1

    @property
    def steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t0) / self.dt - 1e-9)))

    @property
    def _times(self) -> np.ndarray:  # level n's time t0 + n*dt, n = 0 to steps
        return self.t0 + self.dt * np.arange(self.steps + 1)

    def snapshot_levels(self, snapshot_times) -> dict:
        """Time level -> its distinct requested times, in request order;
        ValueError for a time outside ``[t0, t_end]`` (``1e-12`` slack)."""
        wanted = {}
        for t in dict.fromkeys(check_real("snapshot time", v) for v in snapshot_times):
            if not self.t0 - 1e-12 <= t <= self.t_end + 1e-12:
                raise ValueError(f"snapshot time {t!r} outside "
                                 f"[t0, t_end] = [{self.t0!r}, {self.t_end!r}]")
            level = min(self.steps, max(0, int(round((t - self.t0) / self.dt))))
            wanted.setdefault(level, []).append(t)
        return wanted


def interior_step(state, scn: Scenario, inc=None, inc_next=None, out=None):
    """Advance the interior fields one step using level-n boundary traces.

    Each potential ``u_k`` solves ``u_t = A*u_x + e1*j`` (``A`` is the
    material's ``coupling``) and takes a Lax-Wendroff step: its pass of
    :attr:`Scenario.lw_pass`, plus ``dt*g`` for the first potential, plus
    ``(dt**2/2*(A*e1)_k)*D1(j)``, where ``g = j + (dt/2)*f`` is the
    half-step current, ``f`` being the response forcing ``(alpha -
    beta*rho)*phi - gamma*j``.  The density then takes the Taylor step
    ``rho - dt*D1(g)`` and the current a Heun corrector.  In verification
    mode each field adds its increment at level n, of ``inc``, and the
    corrector the current's at level n + 1, of ``inc_next``
    (:meth:`eoscatter.mms.ResidualSources.at`; :func:`_levels` evaluates
    each level once); stepped without them, it raises ValueError.

    ``out`` is four N-arrays, none of them the state's: the new density and
    current are written into the first two, which are returned after the
    new potentials, and the last two hold ``g`` and scratch.  By default
    they are fresh.
    """
    if inc is None and scn.mms is not None:
        raise ValueError("a verification step needs the residual increments "
                         "at both of its levels")
    m, dt, h = scn.mat, scn.dt, 0.5 * scn.dt
    a, b, c = h * m.alpha, h * m.beta, h * m.gamma  # (dt/2) times the forcing's
    rho, j = state.rho, state.j
    rho_new, j_new, g, tmp = np.empty((4, rho.size)) if out is None else out
    # g = (a - b*rho)*phi + (1 - c)*j
    np.subtract(a, np.multiply(b, rho, out=g), out=g)
    g *= state.phi
    g += np.multiply(1.0 - c, j, out=tmp)
    potentials = []
    for (read, jx, p), lw in zip(scn._halves, scn.lw_pass):
        u = lw(*read(state))
        if not potentials:
            u += np.multiply(dt, g, out=tmp)
        if jx:
            u += confined_pass(j, jx, scn.grid.dx, tmp)
        if inc is not None:
            u += inc[p]
        potentials.append(u)

    np.add(rho, confined_pass(g, -dt, scn.grid.dx, tmp), out=rho_new)
    if inc is not None:
        rho_new += inc["rho"]
        g += inc["j"]
    # Heun: the predictor j + dt*f is 2*g - j, and the corrector g + h*f_next,
    # j_new = (a - b*rho_new)*phi_new + (1 - 2c)*g + c*j [+ h*s_j].  j_new is
    # non-finite at every node where phi_new or rho_new is (IEEE 754: inf*0
    # and 0*inf are NaN, so a zero factor, b = 0 included, cannot hide one):
    # _levels tests j_new in their place, so keep both in this product
    np.subtract(a, np.multiply(b, rho_new, out=j_new), out=j_new)
    j_new *= potentials[0]
    j_new += np.multiply(1.0 - 2.0 * c, g, out=tmp)
    j_new += np.multiply(c, j, out=tmp)
    if inc_next is not None:
        j_new += inc_next["j"]
    return (*potentials, rho_new, j_new)


def _level_terms(increments_at, times, n: int):
    """The nodal residual increments at each of ``times`` in turn, from
    ``increments_at(t)`` per level or, on a coarse grid, one call on a
    ``(K, 1)`` array of times per K levels, row k the level's increments
    bit for bit (:meth:`eoscatter.mms.Field.at`)."""
    block = max(1, _BLOCK_POINTS // n)
    if block == 1:
        yield from map(increments_at, times.tolist())
        return
    for k in range(0, times.size, block):
        rows = increments_at(times[k:k + block, None])
        for i in range(min(block, times.size - k)):
            yield {name: v[i] for name, v in rows.items()}


def _levels(scn: Scenario, series, step):
    """Yield ``scn``'s levels 0 to ``scn.steps`` in order, each a ``scn.State``
    at ``t0 + n*dt`` once its trace row is appended to ``series`` (an empty
    float64 ``array``, the one record of the traces).

    Each step runs ``step(state, scn, inc, inc_next, out=...)`` with the
    nodal residual increments at both of its levels (or None), which one
    ``scn.residuals(scn.mms, scn.mat).at(g.x, dt)`` per run evaluates once
    per level (:func:`_level_terms`), and the buffers of
    :func:`interior_step`: level n + 1's density and current go into level
    n - 1's arrays, so a consumer that keeps a yielded state copies it.  A
    diverging step overflows; :func:`march` silences that with
    ``np.errstate``.

    The boundary closure is the same for both models.  Each level's
    right-hand sides of the potential equations (the current, plus in
    verification mode the increments' ``s_phi``, and each further
    potential's source) go into one :class:`RetardedSum` per direction,
    ``(x - a0)/c1`` and, for a pair, ``(a1 - x)/c1``.  Each sum times the
    node weight ``dx/c1`` is a boundary integral, and the new traces are
    :meth:`Scenario.traces` of those integrals, the row of ``series`` one
    transit back (:func:`history.lag_reader`) and the level's incident
    row; the start row is zeros at a0 and the incident row at a1.

    A step whose new current, or new potential other than ``phi`` (model
    2's ``psi``), is non-finite raises :class:`DivergenceError`; the other
    fields are not tested.  So the stream stops at the first step with a
    non-finite field only for steps that fold their new ``phi`` and ``rho``
    into the new current, as :func:`interior_step` does.
    """
    g, t0, dt, potentials, times = scn.grid, scn.t0, scn.dt, scn.potentials, scn._times
    levels = (_level_terms(scn.residuals(scn.mms, scn.mat).at(g.x, dt), times, g.n)
              if scn.mms is not None else itertools.repeat(None))
    incident = scn.incident(times).tolist()
    # one potential carries waves one way, a pair carries them both ways
    delays = ((g.x - g.a0) / scn.mat.c1, (g.a1 - g.x) / scn.mat.c1)
    sums = [[RetardedSum(t0, dt, d) for d in delays[:len(potentials)]]
            for _ in range(1 if scn.mms is None else len(potentials))]
    weight = g.dx / scn.mat.c1  # every node's share of a boundary integral
    delayed = lag_reader(series, t0, dt, scn.transit, width=2 * len(potentials))

    def push(j, inc):
        """The integrals' new values, by equation, then leftward before rightward."""
        rhs = (j,) if inc is None else (
            j + inc["s_phi"], *(inc["s_" + p] for p in potentials[1:]))
        return [weight * s.push(v) for v, row in zip(rhs, sums) for s in row]

    fields = [np.zeros(g.n) if scn.mms is None else
              np.asarray(getattr(scn.mms, name).value(g.x, t0), dtype=float)
              for name in scn.field_names]
    inc = next(levels)
    push(fields[-1], inc)
    traces = [0.0] * len(potentials) + incident[0]
    rho_spare, j_spare, *scratch = np.empty((4, g.n))
    finite = np.empty(g.n, dtype=bool)

    for n, t in enumerate(times.tolist()):
        if n:
            inc_next = next(levels)
            fields = step(state, scn, inc, inc_next,
                          out=(rho_spare, j_spare, *scratch))
            # test j', which carries any non-finite phi' and rho', and psi'
            if not all(np.count_nonzero(np.isfinite(f, out=finite)) == g.n
                       for f in (*fields[1:-2], fields[-1])):
                raise DivergenceError(
                    f"non-finite fields at step {n} (t = {t:.6g})", step=n)
            traces = scn.traces(push(fields[-1], inc_next), delayed(n), incident[n])
            rho_spare, j_spare, inc = state.rho, state.j, inc_next
        state = scn.State(*fields, *traces, n, t)
        series.extend(traces)
        yield state


def march(scn: Scenario, snapshot_times, step=interior_step):
    """The one recorder of :func:`_levels`: ``scn`` advanced by ``step`` to
    ``t_end`` as a ``scn.Result``, with a copy of the level of each distinct
    requested time (:meth:`Scenario.snapshot_levels`); a DivergenceError
    leaves with ``partial``, the result of the levels before its step."""
    wanted = scn.snapshot_levels(snapshot_times)
    series, snapshots = array("d"), []  # each level's traces in turn

    def result(last):  # the run up to the state ``last``
        k = last.n + 1
        return scn.Result(scn, scn._times[:k], *np.reshape(series, (k, -1)).T,
                          snapshots, last)

    try:  # a diverging step overflows before the finiteness test reports it
        with np.errstate(over="ignore", invalid="ignore"):
            for state in _levels(scn, series, step):
                for t in wanted.get(state.n, ()):
                    snapshots.append((t, state.copy()))
    except DivergenceError as exc:
        exc.partial = result(state)
        raise
    return result(state)
