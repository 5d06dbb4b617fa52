"""Eigenvalue stability analysis of the interior steppers.

The boundary traces enter the interior update only through the closed edge
stencils, so with fixed (zero) boundary data the homogeneous one-step map is
a dense linear operator.  This module assembles that propagator matrix by
probing the actual stencil operators, computes spectral radii, and locates
the stable window of time steps

    tau1(epsilon) * dx / c1  <  dt  <  tau2(epsilon) * dx / c1

by scanning and bisecting on the spectral radius.  The current stays out of
the analysis: the field update is studied with the reaction coupling
switched off, which is the part of the scheme that carries the CFL-type
restriction.

A window search is almost all LAPACK time (a dense ``eigvals`` at N = 200
takes about 27 ms, its matrix 0.2 ms), and ``eigvals`` holds the
interpreter lock, so threads gain nothing.  The search therefore runs its
eigensolves in batches: the scan points of every epsilon in one, then one
bisection midpoint of every open window edge per round.  Where ``os.fork``
exists and this process runs a single OS thread, a batch is dealt over
forked worker processes, one per usable CPU (:func:`_fork_map`); otherwise
it runs serially.  Each eigensolve sees the same matrix either way, so
windows and samples are byte-identical.
"""

from __future__ import annotations

import functools
import math
import os
import pickle
from dataclasses import dataclass, field

import numpy as np

from .grid import GridSpec, SpatialOps, check_integer, check_real, check_size
from .model1 import Scenario1
from .model2 import Scenario2

RHO_MARGIN = 1e-9          # stable means spectral radius < 1 - RHO_MARGIN
DEFAULT_BISECT_TOL = 1e-4  # relative width of the bisected transition bracket
DEFAULT_SCAN_POINTS = 64
DEFAULT_DT_MAX_FACTOR = 1.25

# Each model's scenario class names its material, manufactured family and
# potentials, and checks every rule a run must meet when it is built.
SCENARIOS = {1: Scenario1, 2: Scenario2}


class EigenSolverError(RuntimeError):
    """Raised when the dense eigenvalue solve does not converge."""


def _model_scenario(model) -> type:
    """The scenario class of ``model``, an integer 1 or 2 by
    :func:`check_integer` (numpy integers count), else ValueError."""
    try:
        return SCENARIOS[check_integer("model", model, 1)]
    except (KeyError, ValueError):
        raise ValueError("model must be 1 or 2") from None


def _check_inputs(model, mat, dt, steps=0) -> type:
    """The scenario class of ``model`` (:func:`_model_scenario`) once
    ``mat`` is its material (else TypeError), ``dt`` positive and ``steps``
    an integer >= 0 whose ``steps + 1`` levels pass :func:`check_size`
    (else ValueError)."""
    scenario = _model_scenario(model)
    if not isinstance(mat, scenario.material):
        raise TypeError(f"model {model} needs a {scenario.material.__name__}, "
                        f"got {type(mat).__name__}")
    check_real("dt", dt, positive=True)
    check_size("steps", check_integer("steps", steps, 0) + 1)
    return scenario


def _check_controls(grids, dt_max_factor, scan_points, bisect_tol) -> tuple:
    """The scan controls of :func:`stability_bounds` as ``(float, int,
    float)``: ``dt_max_factor`` and ``bisect_tol`` positive, ``scan_points``
    an integer >= 16, and the scan points and the dense N x N matrices of
    every one of ``grids`` within :func:`check_size` (else ValueError)."""
    dt_max_factor = check_real("dt_max_factor", dt_max_factor, positive=True)
    scan_points = check_integer("scan_points", scan_points, 16)
    bisect_tol = check_real("bisect_tol", bisect_tol, positive=True)
    check_size("scan_points", scan_points)
    for grid in grids:  # the scan's dense N x N matrices
        check_size(f"N = {grid.n}", grid.n * grid.n)
    return dt_max_factor, scan_points, bisect_tol


# ---------------------------------------------------------------------------
# propagator assembly
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _diff_matrices(grid: GridSpec):
    """Dense matrices of the two closed stencil operators (zero boundary
    data), probed column-by-column so any stencil change shows up here."""
    ops = SpatialOps(grid)
    n = grid.n
    d1 = np.empty((n, n))
    d2 = np.empty((n, n))
    e = np.zeros(n)
    for k in range(n):
        e[k] = 1.0
        d1[:, k] = ops.d1_closed(e, 0.0, 0.0)
        d2[:, k] = ops.d2_closed(e, 0.0, 0.0)
        e[k] = 0.0
    return d1, d2


def _advection_matrix(probe, c: float, dt: float) -> np.ndarray:
    """The one-field propagator at signed speed ``c`` from a grid's probed
    ``(d1, d2)`` (:func:`_diff_matrices`)."""
    d1, d2 = probe
    return np.eye(len(d1)) + (dt * c) * d1 + 0.5 * (dt * c) ** 2 * d2


def _pair_matrix(grid: GridSpec, mu1: float, nu1: float, dt: float) -> np.ndarray:
    """The 2N x 2N homogeneous pair propagator; callers:
    :func:`assemble_propagator` and :func:`decomposition_check` (acceptance
    criterion c10).  The window search eigensolves its signed branches
    instead (:func:`stability_radius`)."""
    d1, d2 = _diff_matrices(grid)
    diag = np.eye(grid.n) + 0.5 * dt * dt * (mu1 * nu1) * d2
    return _pair_blocks(diag, dt * mu1 * d1, dt * nu1 * d1)


def _pair_blocks(diag, phi_from_psi, psi_from_phi) -> np.ndarray:
    """The pair layout, ``phi`` then ``psi``."""
    return np.block([[diag, phi_from_psi], [psi_from_phi, diag]])


def assemble_propagator(model: int, grid: GridSpec, mat, dt: float) -> np.ndarray:
    """Dense one-step matrix of the homogeneous stepper on ``grid``: N x N
    for model 1, 2N x 2N (``phi`` then ``psi``) for model 2.

    Callers: acceptance criterion c10, which checks it against the marching
    step, and ``tests/test_stability.py``'s probe-fidelity tests."""
    _check_inputs(model, mat, dt)
    if model == 1:
        return _advection_matrix(_diff_matrices(grid), mat.c1, dt)
    return _pair_matrix(grid, mat.mu1, mat.nu1, dt)


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus of a dense (generally nonsymmetric) matrix."""
    try:
        eig = np.linalg.eigvals(np.asarray(m))
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(f"eigenvalue solve failed: {exc}") from exc
    return float(np.max(np.abs(eig)))


def _speeds(scenario, mat) -> tuple:
    """The signed speeds whose one-field propagators make up the model's:
    one potential carries waves one way, a pair carries them both ways."""
    return (mat.c1, -mat.c1)[:len(scenario.potentials)]


def _branch_radius(probe, c: float, dt: float) -> float:
    """One eigensolve of the window search: the spectral radius of the
    one-field propagator at signed speed ``c`` on a grid's ``probe``."""
    return spectral_radius(_advection_matrix(probe, c, dt))


def stability_radius(model: int, grid: GridSpec, mat, dt: float) -> float:
    """Spectral radius of the one-step propagator, evaluated for the window
    search.

    For the two-field model the 2N x 2N propagator is exactly similar to the
    direct sum of the two one-field propagators at signed speeds +-c with
    c^2 = mu1*nu1 (scale the second field by sqrt(nu1/mu1) and take sums and
    differences), so its radius equals the larger of the two N x N branch
    radii.  The branch form is what gets eigensolved: near the CFL edge the
    assembled matrix is close to a defective shift and a direct dense solve
    of the doubled system returns eigenvalues with O(1) errors.

    The branches are not well conditioned either.  At epsilon = 0 the +c
    matrix is the -c one reversed on both axes, to rounding, so the two share
    one spectrum; yet at N = 200 their dense eigensolves read 0.866 and 0.925
    at sigma = c*dt/dx = 0.5, and 0.435 and 0.848 at sigma = 0.9 (at epsilon
    = 1, 0.866 within 1e-4 and equal to 1e-13).  So model 2's epsilon = 0
    window edges depend on eigensolver rounding (ROADMAP item 1).
    """
    scenario = _check_inputs(model, mat, dt)
    probe = _diff_matrices(grid)
    return max(_branch_radius(probe, c, dt) for c in _speeds(scenario, mat))


# ---------------------------------------------------------------------------
# batches of eigensolves over forked workers
# ---------------------------------------------------------------------------

_SIGKILL = 9  # POSIX; ``signal`` is not imported for this one number


def _os_threads() -> int | None:
    """The number of OS threads this process runs, read from
    ``/proc/self/stat`` (Linux); None where that file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return None
    # field 20, num_threads, counted past the parenthesised command name
    return int(stat.rpartition(b")")[2].split()[17])


def _processes(tasks: int) -> int:
    """How many processes share a batch of ``tasks``: min(tasks, usable
    CPUs) where ``os.fork`` exists and this process runs a single OS thread,
    else 1.  A second thread, such as OpenBLAS's own pool when
    OPENBLAS_NUM_THREADS is unset, keeps the batch serial: workers forked
    beside BLAS threads oversubscribe the CPUs (twice the serial time on two
    CPUs), and forking a threaded process is unsafe."""
    if not hasattr(os, "fork") or _os_threads() != 1:
        return 1
    return max(1, min(tasks, len(os.sched_getaffinity(0))))


def _fork_map(fn, tasks: list) -> list:
    """``[fn(*task) for task in tasks]``, the tasks dealt round-robin over
    :func:`_processes` processes.  This process takes share 0 and a forked
    child each other share; the child sends back, pickled through a pipe,
    its values or the exception it raised, which is raised here.  Every
    child is reaped before this returns or raises, also on an interrupt."""
    procs = _processes(len(tasks))
    if procs == 1:
        return [fn(*task) for task in tasks]
    pipes = {}  # child pid -> read end of its pipe
    try:
        for share in range(1, procs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(fn, tasks[share::procs], write_fd)  # never returns
            os.close(write_fd)
            pipes[pid] = open(read_fd, "rb")
        out = [None] * len(tasks)
        out[0::procs] = [fn(*task) for task in tasks[0::procs]]
        for share, (pid, pipe) in enumerate(pipes.items(), 1):
            reply = pipe.read()
            if not reply:
                raise RuntimeError(f"stability worker {pid} exited without a result")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            out[share::procs] = value
        return out
    finally:
        for pid, pipe in pipes.items():
            pipe.close()
            os.kill(pid, _SIGKILL)  # stops a child still at work
            os.waitpid(pid, 0)


def _worker(fn, share: list, write_fd: int) -> None:
    """A forked child's whole life: evaluate ``share`` and write
    ``(True, values)`` or ``(False, exception)`` to ``write_fd``.  It leaves
    by ``os._exit``, so it never returns into the caller's code, runs no
    exit handler and flushes none of the buffers it inherited."""
    status = 1
    try:
        try:
            reply = (True, [fn(*task) for task in share])
        except BaseException as exc:
            reply = (False, exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(reply))
        status = 0
    finally:
        os._exit(status)


def _radii(model, mat, points) -> list[float]:
    """:func:`stability_radius` at every ``(probe, dt)`` of ``points``, a
    grid's probed matrices and a step, as one batch of eigensolves, one per
    signed branch, over :func:`_fork_map`."""
    speeds = ()
    for _, dt in points:
        speeds = _speeds(_check_inputs(model, mat, dt), mat)
    k = len(speeds)
    radii = _fork_map(_branch_radius, [(p, c, dt) for p, dt in points for c in speeds])
    return [max(radii[i * k:(i + 1) * k]) for i in range(len(points))]


# ---------------------------------------------------------------------------
# stability window
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityDomain:
    """Stable window of time steps at one grid stretching, in units of
    dx/c1.  ``tau1``/``tau2`` are NaN when no stable window was found."""

    model: int
    epsilon: float
    n: int
    tau1: float
    tau2: float
    samples: tuple = field(default_factory=tuple)  # (dt*c1/dx, spectral radius)

    @property
    def empty(self) -> bool:
        return math.isnan(self.tau1)


def _stable(rho: float) -> bool:
    return rho < 1.0 - RHO_MARGIN


def _bisect(dt_bad, dt_good, tol):
    """Refine a stable/unstable transition, as a coroutine: it yields each
    midpoint to classify, is sent whether that step is stable, and returns
    the bracket midpoint.  ``dt_bad`` may be 0 (the dt -> 0 limit is
    classified unstable because the propagator tends to the identity,
    radius 1)."""
    while abs(dt_good - dt_bad) > tol * 0.5 * (dt_good + dt_bad):
        mid = 0.5 * (dt_bad + dt_good)
        if mid in (dt_bad, dt_good):
            break  # adjacent floats: the bracket cannot shrink any further
        if (yield mid):
            dt_good = mid
        else:
            dt_bad = mid
    return 0.5 * (dt_bad + dt_good)


def _bisect_all(model, mat, brackets, tol) -> list:
    """The final midpoint of every ``(probe, dt_bad, dt_good)`` bracket.  The
    brackets are bisected in lock-step, one batch of :func:`_radii` per
    round holding one midpoint of every open bracket; each bracket follows
    its own midpoints, as it would alone."""
    edges = [_bisect(bad, good, tol) for _, bad, good in brackets]
    ends = [None] * len(edges)
    sent = dict.fromkeys(range(len(edges)))  # None starts each coroutine
    while sent:
        mids = {}
        for k, stable in sent.items():
            try:
                mids[k] = edges[k].send(stable)
            except StopIteration as stop:
                ends[k] = stop.value
        rhos = _radii(model, mat, [(brackets[k][0], mid) for k, mid in mids.items()])
        sent = {k: _stable(rho) for k, rho in zip(mids, rhos)}
    return ends


def _widest_run(rhos) -> tuple[int, int] | None:
    """First and last index of the widest contiguous run of stable radii,
    the later of equally wide runs; None when no radius is stable."""
    # a run starts where the padded flags step up and ends before they
    # step down
    edges = np.diff(np.concatenate(([0], [_stable(r) for r in rhos], [0])))
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if starts.size == 0:
        return None
    widths = ends - starts
    best = np.flatnonzero(widths == widths.max())[-1]
    return int(starts[best]), int(ends[best]) - 1


def _windows(model, grids, mat, *,
             dt_max_factor: float = DEFAULT_DT_MAX_FACTOR,
             scan_points: int = DEFAULT_SCAN_POINTS,
             bisect_tol: float = DEFAULT_BISECT_TOL) -> list[StabilityDomain]:
    """The stable window on each of ``grids``, by :func:`stability_bounds`'s
    scan and bisection: every grid's scan points in one batch of
    eigensolves, and every grid's edges bisected in lock-step."""
    dt_max_factor, scan_points, bisect_tol = _check_controls(
        grids, dt_max_factor, scan_points, bisect_tol)
    c = mat.c1
    dts = [grid.dx / c * dt_max_factor * np.arange(1, scan_points + 1) / scan_points
           for grid in grids]
    # every grid's matrices, probed once here and inherited by every worker
    probes = [_diff_matrices(grid) for grid in grids]
    rhos = _radii(model, mat, [(p, dt) for p, row in zip(probes, dts) for dt in row])
    rhos = [rhos[i:i + scan_points] for i in range(0, len(rhos), scan_points)]
    runs = [_widest_run(r) for r in rhos]
    brackets = []
    for probe, row, run in zip(probes, dts, runs):
        if run is not None:
            lo, hi = run
            if lo > 0:
                brackets.append((probe, row[lo - 1], row[lo]))
            if hi < scan_points - 1:
                brackets.append((probe, row[hi + 1], row[hi]))
    bisected = iter(_bisect_all(model, mat, brackets, bisect_tol))
    out = []
    for grid, row, rho, run in zip(grids, dts, rhos, runs):
        tau1 = tau2 = math.nan
        if run is not None:
            lo, hi = run
            # A window that reaches the smallest scanned step has no
            # observed lower transition: report the scan floor rather than
            # bisecting against dt -> 0, where the propagator tends to the
            # identity, its radius creeps up to 1, and the margin rule would
            # turn that limit into a spurious "edge" at a margin-dependent
            # spot.  A window truncated by the top of the scan ends there.
            dt1 = next(bisected) if lo > 0 else row[0]
            dt2 = next(bisected) if hi < scan_points - 1 else row[hi]
            tau1, tau2 = dt1 * c / grid.dx, dt2 * c / grid.dx
        samples = tuple((dt * c / grid.dx, r) for dt, r in zip(row, rho))
        out.append(StabilityDomain(model, grid.epsilon, grid.n, tau1, tau2, samples))
    return out


def stability_bounds(model: int, grid: GridSpec, mat, *,
                     dt_max_factor: float = DEFAULT_DT_MAX_FACTOR,
                     scan_points: int = DEFAULT_SCAN_POINTS,
                     bisect_tol: float = DEFAULT_BISECT_TOL) -> StabilityDomain:
    """Scan dt in (0, dt_max_factor*dx/c1], classify each point by spectral
    radius, and bisect the edges of the widest contiguous stable run.

    This is :func:`scan_stability`'s search on one grid: the scan points go
    in one batch of eigensolves and each bisection round in another, spread
    over forked workers where the process allows it (module docstring)."""
    return _windows(model, [grid], mat, dt_max_factor=dt_max_factor,
                    scan_points=scan_points, bisect_tol=bisect_tol)[0]


def scan_stability(model: int, mat, n: int, epsilons, **search) -> list[StabilityDomain]:
    """Stability window per grid stretching, for re-plotting the window as a
    function of epsilon; each epsilon is checked by :class:`GridSpec`.

    Every epsilon's window equals :func:`stability_bounds` on its grid.  The
    scan points of all epsilons (both signed branches for model 2) make one
    batch of eigensolves, and the bisections of all window edges run in
    lock-step, one batch per round, so forked workers share the whole scan
    (module docstring)."""
    return _windows(model, [GridSpec(0.0, 1.0, n, e) for e in epsilons], mat,
                    **search)


# ---------------------------------------------------------------------------
# structure checks and soundness probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecompositionReport:
    """Even/odd split of the one-field propagator and the block structure of
    the two-field one.

    With M(c) the one-field matrix at signed speed c, the split
    m_even = (M(c)+M(-c))/2, m_odd = (M(c)-M(-c))/(2c) recovers the
    advection-free and pure-advection parts.  The two-field propagator at
    matched speed (mu1*nu1 = c^2) is then the block matrix
    [[m_even, mu1*m_odd], [nu1*m_odd, m_even]].
    """

    m_even: np.ndarray
    m_odd: np.ndarray
    split_residual: float       # max |M(+-c) - (m_even +- c*m_odd)|
    block_error: float          # max |M2 - block reconstruction|
    odd_interior_diag: float    # max |diag(m_odd)| over interior rows


def decomposition_check(grid: GridSpec, mat2, dt: float) -> DecompositionReport:
    """Verify the two-field propagator is built from the one-field blocks.

    Callers: acceptance criterion c10 and ``tests/test_stability.py``'s
    even/odd split and block tests."""
    _check_inputs(2, mat2, dt)
    c = mat2.c1
    m_plus = _advection_matrix(_diff_matrices(grid), +c, dt)
    m_minus = _advection_matrix(_diff_matrices(grid), -c, dt)
    m_even = 0.5 * (m_plus + m_minus)
    m_odd = (m_plus - m_minus) / (2.0 * c)
    split_residual = max(
        float(np.max(np.abs(m_plus - (m_even + c * m_odd)))),
        float(np.max(np.abs(m_minus - (m_even - c * m_odd)))),
    )
    recon = _pair_blocks(m_even, mat2.mu1 * m_odd, mat2.nu1 * m_odd)
    m2 = _pair_matrix(grid, mat2.mu1, mat2.nu1, dt)
    block_error = float(np.max(np.abs(m2 - recon)))
    odd_diag = float(np.max(np.abs(np.diag(m_odd)[1:-1])))
    return DecompositionReport(m_even=m_even, m_odd=m_odd,
                               split_residual=split_residual,
                               block_error=block_error,
                               odd_interior_diag=odd_diag)


def homogeneous_run(model: int, grid: GridSpec, mat, dt: float, steps: int,
                    seed: int = 0) -> np.ndarray:
    """Sup-norm envelope of a homogeneous run from random data: array of
    max|state| at every step (index 0 is the initial state).  Each step is
    one pass per potential of the model scenario's :attr:`lw_pass`, the
    passes the march steps, with zero boundary traces and the current
    dropped; TypeError unless ``mat`` is the model's material.

    Callers: acceptance criterion c09, which checks the window against it,
    and ``tests/test_stability.py``'s window-classification and envelope
    tests."""
    scenario = _check_inputs(model, mat, dt, steps)
    passes = scenario(grid=grid, mat=mat, dt=dt, t_end=dt).lw_pass
    rng = np.random.default_rng(seed)
    fields = [rng.standard_normal(grid.n) for _ in passes]  # phi, then psi
    env = np.empty(steps + 1)
    env[0] = max(np.max(np.abs(f)) for f in fields)
    for k in range(steps):
        # each potential's pass reads the other one (model 1: itself)
        fields = [p(u, 0.0, 0.0, v, 0.0, 0.0)
                  for p, u, v in zip(passes, fields, fields[::-1])]
        env[k + 1] = max(np.max(np.abs(f)) for f in fields)
    return env
