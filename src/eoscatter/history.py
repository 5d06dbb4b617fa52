"""Uniformly sampled time histories with quadratic read-back.

The boundary update rules need field values at retarded times that generally
fall between time levels. A DelayBuffer keeps a sliding window of samples at
t0 + k*dt and answers queries with the quadratic through the three samples
bracketing the query time, which is exact at the knots and for any quadratic
in time. Nothing existed before the switch-on time t0, so one rule serves
every read: a query at or before t0 reads back as exactly zero, and every
later query reads the bracket of levels m - 1, m, m + 1, m = floor((t -
t0)/dt), with the samples of levels before 0 read as zero.  Only a query in
the newest interval, which has no level above it, takes the bracket one
level lower.  Zeroed storage gives that rule without a branch: the levels
before 0 are rows of a ring that have not been written yet.

A RetardedSum gives the sum over the nodes of a nodal series, each node read
by the same rule at its own fixed delay, without keeping the series: it
carries each node's quadratic read forward in two running taps, and once a
read is whole adds it into the pending sum of the level it belongs to, one
value per node per level.

The boundary closure reads its trace rows with :func:`lag_reader`: every
read is at one fixed lag behind a time level, so its bracket offset and
weights are worked out once, and it reads the flat series of trace rows
the march keeps and returns, so the rows are stored once.  DelayBuffer
stays for custom studies and as the reader's test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import check_integer, check_real, check_size


def _weights(s):
    """Quadratic weights of the samples at levels m-1, m, m+1 for the query
    at level m - 1 + s."""
    w0 = 0.5 * (s - 1.0) * (s - 2.0)
    w1 = -s * (s - 2.0)
    w2 = 0.5 * s * (s - 1.0)
    return w0, w1, w2


def _first_live(t0, dt, lags):
    """The first level n whose read ``t0 + n*dt - lag`` passes the live
    test ``> t0``, as DelayBuffer's queries make it: ``ceil(lag/dt)`` up to
    rounding, and never level 0."""
    lags = np.asarray(lags, dtype=float)
    n = np.maximum(np.ceil(lags / dt).astype(np.intp) - 1, 1)
    for _ in range(2):
        n += ~(t0 + n * dt - lags > t0)
    return n


class HistoryError(ValueError):
    """A query fell outside the usable part of a DelayBuffer."""


class DelayBuffer:
    """Ring buffer over time levels t0 + k*dt holding scalar or array samples.

    Parameters
    ----------
    t0, dt : time origin and level spacing.
    window : seconds of history that must stay addressable. Samples older
        than the newest level minus this window may be dropped.
    shape : shape of one sample; () for a scalar trace, (2,) for a trace
        pair, (N,) for a nodal field.
    """

    def __init__(self, t0: float, dt: float, window: float, shape=()):
        self.t0, self.dt = check_real("t0", t0), check_real("dt", dt, positive=True)
        window = check_real("window", window)
        if window < 0.0:
            raise ValueError(f"window must be nonnegative, got {window!r}")
        self.shape = tuple(shape)
        check_size("window, dt and shape",
                   (window / self.dt + 5) * math.prod(self.shape))
        self._cap = int(math.ceil(window / self.dt)) + 4
        self._data = np.zeros((self._cap,) + self.shape)
        self._levels = 0  # total samples appended so far

    @property
    def latest_t(self) -> float:
        if self._levels == 0:
            raise HistoryError("empty history")
        return self.t0 + (self._levels - 1) * self.dt

    @property
    def oldest_level(self) -> int:
        return max(0, self._levels - self._cap)

    def append(self, value) -> None:
        """Append the sample for the next time level."""
        arr = np.asarray(value, dtype=float)
        if arr.shape != self.shape:
            raise ValueError(f"sample shape {arr.shape} != buffer shape {self.shape}")
        self._data[self._levels % self._cap] = arr
        self._levels += 1

    # -- internals ---------------------------------------------------------

    def _check_upper(self, t_max: float) -> None:
        tol = 1e-9 * self.dt
        if t_max > self.latest_t + tol:
            raise HistoryError(
                f"query at t={t_max!r} is beyond the newest sample t={self.latest_t!r}"
            )

    def _check_lower(self, level_min: int) -> None:
        # the ring's rows not yet written hold the zero levels before 0
        if level_min < self._levels - self._cap:
            raise HistoryError(
                f"query needs level {level_min}, older than the retained window "
                f"(oldest kept: {self.oldest_level})"
            )

    # -- queries -----------------------------------------------------------

    def query(self, t: float):
        """Value of the stored series at time t (whole sample)."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"query time {t!r} is not finite")
        if t <= self.t0:
            return np.zeros(self.shape) if self.shape else 0.0
        self._check_upper(t)
        r = (t - self.t0) / self.dt
        m = min(math.floor(r), self._levels - 2)  # one lower in the newest interval
        self._check_lower(m - 1)
        w0, w1, w2 = _weights(r - (m - 1))
        data, cap = self._data, self._cap
        out = w0 * data[(m - 1) % cap] + w1 * data[m % cap] + w2 * data[(m + 1) % cap]
        return out if self.shape else float(out)

    def query_each(self, times) -> np.ndarray:
        """Per-component read of a nodal history: component i at times[i].

        Only defined for 1-D sample shapes. Entries with times[i] <= t0 are 0.
        """
        if len(self.shape) != 1:
            raise ValueError("query_each needs a 1-D sample shape")
        t = np.asarray(times, dtype=float)
        if t.shape != self.shape:
            raise ValueError("times must have one entry per component")
        if not np.isfinite(t).all():
            bad = t[~np.isfinite(t)][0]
            raise ValueError(f"query time {float(bad)!r} is not finite")
        out = np.zeros(self.shape)
        cols = np.flatnonzero(t > self.t0)
        if cols.size == 0:
            return out
        self._check_upper(float(t[cols].max()))
        r = (t[cols] - self.t0) / self.dt
        m = np.minimum(np.floor(r).astype(int), self._levels - 2)
        self._check_lower(int(m.min()) - 1)
        w0, w1, w2 = _weights(r - (m - 1))
        data, cap = self._data, self._cap
        out[cols] = (w0 * data[(m - 1) % cap, cols] + w1 * data[m % cap, cols]
                     + w2 * data[(m + 1) % cap, cols])
        return out


class RetardedSum:
    """Sum over the nodes of a nodal series, node i read at ``t - delays[i]``.

    ``push(j)`` takes the samples of levels ``t0 + k*dt``, k = 0, 1, 2, ...,
    in order, and returns ``np.sum(buf.query_each(t_k - delays))`` to
    rounding, for a :class:`DelayBuffer` ``buf`` holding the samples pushed
    so far.  Node i trails every level by the same offset ``delays[i]/dt``,
    so its lag and weights are worked out once.  It is first live, by
    ``query_each``'s own test ``t - d > t0``, at level ``lam``, and from
    there on it reads at level L the bracket ``L - lam - 1, L - lam, L - lam
    + 1`` with fixed weights ``w0, w1, w2``; the first read's level -1 is a
    zero sample, as in ``query_each``.

    The reads are summed per node before they are scattered: two running
    taps ``r1 = w1*j[k-1] + w0*j[k-2]`` and ``r2 = w0*j[k-1]``, zero before
    the first push, make ``w2*j[k] + r1`` node i's whole read of level ``k +
    lam - 1``, so from push 1 on a push adds N values, at the fixed offsets
    ``lam - 1``, into the pending sums of the levels ahead.  Those sums are
    a window of ``span = max(lam) + 2`` numbers that slides one place per
    push over a buffer of ``2*span`` and moves back to the front once every
    ``span`` pushes, so no push allocates or moves ``span`` numbers.  The
    working storage is ``2*span + 3N`` numbers (the buffer, the running taps
    and the read being scattered), not a history of nodal samples.
    """

    def __init__(self, t0: float, dt: float, delays) -> None:
        t0, dt = check_real("t0", t0), check_real("dt", dt, positive=True)
        d = np.asarray(delays, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("delays must be a nonempty 1-D array")
        if not np.all(np.isfinite(d) & (d >= 0.0)):
            raise ValueError("delays must be finite and nonnegative")
        check_size("delays and dt", 2.0 * (float(d.max()) / dt + 4))  # the pending sums
        lam = _first_live(t0, dt, d)
        self._taps = np.array(_weights(lam + 1.0 - d / dt))
        self._offsets = lam - 1
        self._r1, self._r2, self._read = np.zeros((3, d.size))
        self._span = int(lam.max()) + 2
        self._pending = np.zeros(2 * self._span)
        self._start = 0  # the pending sum of the next level
        self._levels = 0

    def push(self, j) -> float:
        """Take the next level's samples; return that level's sum."""
        j = np.asarray(j, dtype=float)
        read, r1, r2 = self._read, self._r1, self._r2
        if j.shape != read.shape:
            raise ValueError(f"sample shape {j.shape} != {read.shape}")
        w0, w1, w2 = self._taps
        np.multiply(w2, j, out=read)
        read += r1
        np.multiply(w1, j, out=r1)
        r1 += r2
        np.multiply(w0, j, out=r2)
        start = self._start
        window = self._pending[start:]
        if self._levels:  # push 0's read is of level lam - 1, not yet live
            np.add.at(window, self._offsets, read)
        out = float(window[0])
        self._levels += 1
        start += 1
        if start == self._span:  # the window reached the end: back to the front
            self._pending[:start] = self._pending[start:]
            self._pending[start:] = 0.0
            start = 0
        self._start = start
        return out


def lag_reader(series, t0: float, dt: float, lag: float, width: int = 1):
    """``read(n)``: the rows of ``series`` at ``t0 + n*dt - lag``, as a list
    of ``width`` Python floats.

    ``series`` is a flat sequence of float rows, row k the ``width`` samples
    of level ``t0 + k*dt``, which the caller extends in place; ``read(n)``
    reads it as it stands.  It equals ``DelayBuffer.query(t0 + n*dt -
    lag)``, to rounding, for a DelayBuffer holding the same rows: exactly
    zero before the first live level, which is worked out once by
    ``query``'s own float test ``t0 + n*dt - lag > t0``, and from there on
    the bracket ``n - b - 1, n - b, n - b + 1``, ``b = floor(lag/dt) + 1``,
    with weights worked out once and the rows of levels before 0 read as
    zero.  A read that needs a row not yet in ``series`` raises
    HistoryError.
    """
    t0, dt = check_real("t0", t0), check_real("dt", dt, positive=True)
    lag = check_real("lag", lag)
    if lag < 0.0:
        raise ValueError(f"lag must be nonnegative, got {lag!r}")
    width = check_integer("width", width, 1)
    # the rows a series holds before the first live read, so also a lag
    # too far back for any series, whose level offset would not fit an int
    check_size("lag, dt and width", (lag / dt + 2) * width)
    back = math.floor(lag / dt) + 1
    w0, w1, w2 = _weights(back + 1 - lag / dt)
    live = int(_first_live(t0, dt, lag))

    def read(n: int) -> list:
        if n < live:
            return [0.0] * width
        # the bracket's first row: level n - back - 1, which is -2 or later
        # from the first live level on
        i, rows = (n - back - 1) * width, series
        if i + 3 * width > len(rows):
            raise HistoryError(f"read at t={t0 + n * dt - lag!r} is beyond the "
                               "newest row")
        if i < 0:  # the rows of levels before 0 read as zero
            rows, i = [0.0] * (2 * width) + list(rows[:i + 3 * width]), i + 2 * width
        return [w0 * rows[k] + w1 * rows[k + width] + w2 * rows[k + 2 * width]
                for k in range(i, i + width)]

    return read
