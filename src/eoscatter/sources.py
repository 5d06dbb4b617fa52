"""External source terms and their retarded boundary integrals.

The scattering runs are driven by a current source localized to the right
of the computational domain.  What the right boundary sees is a line
integral of that source along the incoming characteristic, cut off by the
causal cone: samples earlier than the start time contribute nothing.

Two source representations are provided -- an analytic space-time Gaussian
pulse and a tabulated rectangular grid with bilinear interpolation.  Any
object with a ``support`` attribute ``(x_lo, x_hi)`` and a vectorized
``__call__(x, t)`` works in their place.

The quadrature takes one of two paths.  A source with a
``completed_square(a1, c0, t)`` method -- :class:`GaussianSource` -- writes
its integrand along each characteristic as ``amp*exp(-(rt*(x - mu))**2)``,
so the panels sample ``exp(-z**2)`` in the scaled variable
``z = rt*(x - mu)``: one ``exp`` and a few array passes per sample.  Every
other source, :class:`TabulatedSource` included, is sampled as
``source(x, t - (x - a1)/c0)``.  Both paths run the same panel doubling
and the same stopping test on the estimate in ``x``.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import Material1, Material2

#: Absolute floor added to the relative convergence test, so that integrals
#: which are numerically nothing terminate immediately.  Deliberately down at
#: the subnormal scale: an incident trace can be legitimately tiny (the deep
#: tail ahead of a pulse) and still needs full relative accuracy, so any
#: fatter floor would silently cap the precision of small values.
ABS_FLOOR = 1e-300

DEFAULT_REL_TOL = 1e-10

#: Run-mode quadrature tolerance; looser than the module default because the
#: trace is evaluated once per step and its error only needs to sit below the
#: O(dx^2) discretization error.
RUN_QUAD_REL_TOL = 1e-6

DEFAULT_PANEL_CAP = 1 << 23


class QuadratureError(RuntimeError):
    """Panel doubling hit the cap before the tolerance was reached."""


def source_support(source) -> tuple[float, float]:
    """A source's ``support`` as two floats ``lo < hi``; ValueError for
    anything else, a NaN end or a reversed or empty interval included."""
    support = source.support
    try:
        lo, hi = support
    except (TypeError, ValueError):
        lo = hi = None
    if not all(isinstance(v, numbers.Real) for v in (lo, hi)):
        raise ValueError(f"source support must be two numbers (lo, hi), "
                         f"got {support!r}")
    lo, hi = float(lo), float(hi)
    if not lo < hi:  # false for a NaN end too
        raise ValueError(f"source support must have lo < hi, got {(lo, hi)!r}")
    return lo, hi


@dataclass(frozen=True)
class GaussianSource:
    """Separable pulse ``amplitude * exp(-space_rate*(x-x_center)**2 - time_rate*(t-t_center)**2)``.

    ``support`` defaults to six e-folding widths either side of the spatial
    center; the truncated tails are below 1e-15 of the peak.
    """

    amplitude: float
    x_center: float
    space_rate: float
    t_center: float
    time_rate: float
    support: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        params = [self.amplitude, self.x_center, self.space_rate,
                  self.t_center, self.time_rate]
        if self.support is not None:
            params += list(self.support)
        if not all(map(math.isfinite, params)):
            raise ValueError("Gaussian source parameters must be finite")
        if self.space_rate <= 0.0 or self.time_rate <= 0.0:
            raise ValueError("Gaussian decay rates must be positive")
        if self.support is None:
            half = 6.0 / math.sqrt(self.space_rate)
            object.__setattr__(
                self, "support", (self.x_center - half, self.x_center + half)
            )
        elif self.support[1] <= self.support[0]:
            raise ValueError("support interval must have positive length")

    def __call__(self, x, t):
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.exp(
            -self.space_rate * (x - self.x_center) ** 2
            - self.time_rate * (t - self.t_center) ** 2
        )

    def completed_square(self, a1: float, c0: float, t):
        """``(amp, mu, rt)`` with ``amp*exp(-(rt*(x - mu))**2)`` equal to
        ``self(x, t - (x - a1)/c0)``: ``amp`` and ``mu`` per time, ``rt`` a float.

        Along the characteristic the pulse is a product of two Gaussians in
        ``x``, of rates ``space_rate`` and ``time_rate/c0**2``.  ``lag`` is
        ``t`` less the time the peak passes ``x_center`` on that line; written
        through it, no term grows with ``c0`` or ``1/c0`` beyond the rates.
        """
        rate = self.space_rate + self.time_rate / c0 / c0
        lag = np.asarray(t, dtype=float) - self.t_center \
            - (self.x_center - a1) / c0
        mu = self.x_center + (self.time_rate / (c0 * rate)) * lag
        amp = self.amplitude * np.exp(
            -(self.space_rate * self.time_rate / rate) * lag**2)
        return amp, mu, math.sqrt(rate)


@dataclass(frozen=True)
class TabulatedSource:
    """Source sampled on a rectangular ``(x, t)`` grid, bilinear in between.

    Queries outside the sampled rectangle evaluate to zero, so the spatial
    sample range doubles as the compact support.
    """

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or t.ndim != 1 or x.size < 2 or t.size < 2:
            raise ValueError("need at least a 2x2 sample grid")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
            raise ValueError("sample coordinates must be finite")
        if np.any(np.diff(x) <= 0.0) or np.any(np.diff(t) <= 0.0):
            raise ValueError("sample coordinates must be strictly increasing")
        if v.shape != (x.size, t.size):
            raise ValueError(
                f"values shape {v.shape} does not match grid "
                f"({x.size}, {t.size})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("sample values must be finite")
        for name, arr in (("x", x), ("t", t), ("values", v)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def support(self) -> tuple[float, float]:
        return float(self.x[0]), float(self.x[-1])

    @classmethod
    def from_csv(cls, path) -> "TabulatedSource":
        """Load samples from a CSV file with header row ``x,t,value``."""
        xs, ts, vals = [], [], []
        seen = set()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["x", "t", "value"]:
                raise ValueError("expected CSV header 'x,t,value'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 3:
                    raise ValueError(f"malformed CSV row: {row!r}")
                xt = (float(row[0]), float(row[1]))
                if xt in seen:
                    raise ValueError(
                        f"duplicate CSV sample at (x, t) = ({xt[0]!r}, {xt[1]!r})"
                    )
                seen.add(xt)
                xs.append(xt[0])
                ts.append(xt[1])
                vals.append(float(row[2]))
        x = np.unique(np.asarray(xs))
        t = np.unique(np.asarray(ts))
        grid = np.full((x.size, t.size), np.nan)
        ix = np.searchsorted(x, xs)
        it = np.searchsorted(t, ts)
        grid[ix, it] = vals
        if np.any(np.isnan(grid)):
            raise ValueError("CSV samples do not cover a full rectangular grid")
        return cls(x=x, t=t, values=grid)

    def __call__(self, x, t):
        xq, tq = np.broadcast_arrays(
            np.asarray(x, dtype=float), np.asarray(t, dtype=float)
        )
        inside = (
            (xq >= self.x[0])
            & (xq <= self.x[-1])
            & (tq >= self.t[0])
            & (tq <= self.t[-1])
        )
        ix = np.clip(np.searchsorted(self.x, xq, side="right") - 1, 0, self.x.size - 2)
        it = np.clip(np.searchsorted(self.t, tq, side="right") - 1, 0, self.t.size - 2)
        fx = (xq - self.x[ix]) / (self.x[ix + 1] - self.x[ix])
        ft = (tq - self.t[it]) / (self.t[it + 1] - self.t[it])
        val = (
            self.values[ix, it] * (1.0 - fx) * (1.0 - ft)
            + self.values[ix + 1, it] * fx * (1.0 - ft)
            + self.values[ix, it + 1] * (1.0 - fx) * ft
            + self.values[ix + 1, it + 1] * fx * ft
        )
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)


#: Integrand samples per temporary array of the quadrature, at every panel
#: count: 2**13 float64 values, 64 KiB.  Temporaries of 128 KiB and more reach
#: glibc's default ``M_MMAP_THRESHOLD`` (``mallopt(3)``) and are mapped and
#: faulted in afresh each time, which cost a figure run's series 150-180 k
#: minor page faults.  A longer row is summed in pieces of this size, so it
#: must be a power of two of at least numpy's 128-value pairwise leaf for
#: the pieces to add up in numpy's own order (see :func:`_midpoint_rows`).
_BLOCK_POINTS = 1 << 13


def _check_block(points: int) -> None:
    """Reject a piece size whose pairwise tree would not be numpy's."""
    if points < 128 or points & (points - 1):
        raise ValueError(
            f"quadrature block must be a power of two >= 128, got {points}")


_check_block(_BLOCK_POINTS)

#: ``np.arange(n) + 0.5`` for every block-sized ``n``, as prefixes of one
#: read-only table, so a block pays no pass to rebuild its panel offsets.
_OFFSETS = np.arange(_BLOCK_POINTS) + 0.5
_OFFSETS.flags.writeable = False


def _offsets(n: int) -> np.ndarray:
    """The panel-center offsets ``0.5, 1.5, ..., n - 0.5``."""
    return _OFFSETS[:n] if n <= _OFFSETS.size else np.arange(n) + 0.5


def _composite_midpoint(f, lo, hi, panels: int):
    """Composite-midpoint estimate of the integral of ``f`` over ``[lo, hi]``.

    ``lo`` and ``hi`` may be arrays of shape ``(m,)``; ``f`` then receives
    ``(m, panels)`` points, which it may overwrite, and one estimate per row
    comes back.  Each row is summed exactly as a lone 1-D interval would be.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    width = (np.asarray(hi, dtype=float)[..., None] - lo) / panels
    mids = width * _offsets(panels)
    mids += lo
    return np.sum(f(mids), axis=-1) * width[..., 0]


def incident_series(
    source,
    a1: float,
    c0: float,
    t0: float,
    times,
    rel_tol: float = DEFAULT_REL_TOL,
    panel_cap: int = DEFAULT_PANEL_CAP,
) -> np.ndarray:
    """:func:`characteristic_integral` at every entry of ``times`` at once.

    Panel doubling runs over all times together, but each time keeps its own
    stopping level (the same 8, 16, 32, ... sequence and the same test), so
    every entry equals the one-time result bit for bit.  No temporary holds
    more than ``_BLOCK_POINTS`` integrand samples, however many times and
    panels there are (see :func:`_midpoint_rows`).  A source with a finite
    completed square is sampled as ``exp(-z**2)`` on each time's scaled
    interval, and each estimate is scaled by its ``amp/rt`` before the
    stopping test (see the module docstring).
    """
    for name, v in (("rel_tol", rel_tol), ("c0", c0)):
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} must be positive and finite")
    if isinstance(panel_cap, bool) or not isinstance(panel_cap, numbers.Integral) \
            or panel_cap < 16:
        raise ValueError(f"panel_cap must be an integer >= 16, got {panel_cap!r}")
    t = np.asarray(times, dtype=float)
    if not (math.isfinite(a1) and math.isfinite(t0) and np.isfinite(t).all()):
        raise ValueError("a1, t0 and the times must be finite")
    lo, hi = source_support(source)
    out = np.zeros(t.shape)
    lo = max(a1, lo)
    hi = np.minimum(hi, a1 + c0 * (t - t0))
    todo = np.flatnonzero(hi > lo)
    t_live, hi_live = t.flat[todo], hi.flat[todo]
    square = _completed_square(source, a1, c0, t_live)
    if square is None:
        f, scale = (lambda x, tk: source(x, tk - (x - a1) / c0)), np.ones(todo.size)
        rows = [np.full(todo.size, lo), hi_live, t_live]
    else:
        amp, mu, rt = square
        f, scale = _exp_neg_square, amp / rt
        rows = [rt * (lo - mu), rt * (hi_live - mu)]
    panels = 8
    prev = scale * _midpoint_rows(f, *rows, panels=panels)
    diff = np.full(todo.size, math.inf)
    while panels < panel_cap and todo.size:
        panels *= 2
        cur = scale * _midpoint_rows(f, *rows, panels=panels)
        diff = np.abs(cur - prev)
        done = diff <= ABS_FLOOR + rel_tol * np.abs(cur)
        out.flat[todo[done]] = cur[done]
        keep = ~done
        todo, prev, diff, scale = todo[keep], cur[keep], diff[keep], scale[keep]
        rows = [r[keep] for r in rows]
    if todo.size:
        worst = int(np.argmax(diff))
        raise QuadratureError(
            f"midpoint refinement stalled at {panels} panels with step-to-step "
            f"change {diff[worst]:.3e} at t={float(t.flat[todo[worst]])!r} "
            f"(rel_tol={rel_tol:g})"
        )
    return out


def _completed_square(source, a1, c0, t):
    """The source's ``completed_square(a1, c0, t)``, or ``None`` where the
    source has none or its square is not finite (rates at the edge of float
    range); those sources are sampled directly.
    """
    square = getattr(source, "completed_square", None)
    if square is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        amp, mu, rt = square(a1, c0, t)
    if math.isfinite(rt) and np.isfinite(mu).all() and np.isfinite(amp).all():
        return amp, mu, rt
    return None


def _exp_neg_square(z):
    """``exp(-z**2)``, computed in place over ``z``."""
    np.square(z, out=z)
    np.negative(z, out=z)
    return np.exp(z, out=z)


def _midpoint_rows(f, lo, hi, *cols, panels):
    """Midpoint estimates of ``f`` over ``[lo[i], hi[i]]``, one per row.

    ``f(x, *col)`` evaluates samples ``x`` of some rows, each ``col`` giving
    those rows' entries of one of ``cols`` (the times, on the generic path)
    as a column, or as a scalar for a single row.  Rows of up to
    ``_BLOCK_POINTS`` panels go through :func:`_composite_midpoint` as many
    at a time as fit in one block.  A longer row is summed in
    ``_BLOCK_POINTS``-sample pieces at its own midpoints, and the piece
    sums are added in a balanced pairwise tree.  Panel counts are powers of
    two, and for a contiguous power-of-two row that tree is numpy's own
    summation order, so each estimate equals the full-row ``np.sum`` bit for
    bit.
    """
    out = np.empty(lo.size)
    if panels > _BLOCK_POINTS:
        offsets = _offsets(_BLOCK_POINTS)
        for i in range(lo.size):
            width = (hi[i] - lo[i]) / panels
            sums = np.empty(panels // _BLOCK_POINTS)
            for p in range(sums.size):
                x = lo[i] + width * (offsets + p * _BLOCK_POINTS)
                sums[p] = np.sum(f(x, *(c[i] for c in cols)))
            while sums.size > 1:
                sums = sums[0::2] + sums[1::2]
            out[i] = sums[0] * width
        return out
    rows = _BLOCK_POINTS // panels
    for k in range(0, lo.size, rows):
        block = slice(k, k + rows)
        col = [c[block, None] for c in cols]
        out[block] = _composite_midpoint(
            lambda xp: f(xp, *col), lo[block], hi[block], panels
        )
    return out


def characteristic_integral(
    source,
    a1: float,
    c0: float,
    t0: float,
    t: float,
    rel_tol: float = DEFAULT_REL_TOL,
    panel_cap: int = DEFAULT_PANEL_CAP,
) -> float:
    """Integrate the source along the incoming characteristic through ``(a1, t)``.

    Evaluates ``integral of source(x', t - (x' - a1)/c0) dx'`` over the
    overlap of the source support with the causal interval
    ``[a1, a1 + c0*(t - t0)]``; for ``t <= t0`` the cone is empty and the
    result is exactly zero.  Composite-midpoint panels are doubled until two
    successive estimates agree to ``rel_tol`` relatively (with an absolute
    floor of ``ABS_FLOOR``); exceeding ``panel_cap`` raises
    :class:`QuadratureError` carrying the last achieved difference.  This is
    the one-time case of :func:`incident_series`.
    """
    return float(
        incident_series(source, a1, c0, t0, [t], rel_tol, panel_cap)[0]
    )


def _retarded(source, a1, c0, t0, t, rel_tol):
    """The characteristic integral at a time, or at each of an array of times."""
    if np.ndim(t):
        return incident_series(source, a1, c0, t0, t, rel_tol)
    return characteristic_integral(source, a1, c0, t0, t, rel_tol)


def incident_trace(
    source,
    a1: float,
    mat: Material1,
    t0: float,
    t,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float | np.ndarray:
    """Right-boundary potential trace driven purely by the external source.

    An array of times gives the array of traces, through one
    :func:`incident_series` call.
    """
    return _retarded(source, a1, mat.c0, t0, t, rel_tol) / mat.c0


def incident_pair(
    source,
    a1: float,
    mat: Material2,
    t0: float,
    t,
    rel_tol: float = DEFAULT_REL_TOL,
):
    """Right-boundary trace pair for the two-potential model.

    Both components share one retarded integral, so their ratio is exactly
    ``nu0 / c0``.  An array of times gives a pair of arrays.
    """
    base = _retarded(source, a1, mat.c0, t0, t, rel_tol)
    phi = base / (2.0 * mat.c0)
    return phi, mat.nu0 * phi / mat.c0
