"""Uniformly sampled time histories with quadratic read-back.

The boundary update rules need field values at retarded times that generally
fall between time levels. A DelayBuffer keeps a sliding window of samples at
t0 + k*dt and answers queries with the quadratic through the three samples
bracketing the query time, which is exact at the knots and for any quadratic
in time. Query times at or before t0 read back as exactly zero — nothing
existed before the switch-on time.

A RetardedSum gives the sum over the nodes of a nodal series, each node read
by the same rule at its own fixed delay, without keeping the series: it
scatters every new sample forward into the sums of the levels that will read
it.

A FixedLagReader is the DelayBuffer of a boundary closure: its samples are a
scalar trace or a trace pair, read back as Python floats, and every read is at
one fixed lag behind a time level, so its bracket offset and weights are
worked out once.  Both models' closures read their trace histories with it;
DelayBuffer stays for custom closures and as the reader's test oracle.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _weights(s):
    """Quadratic weights of the samples at levels m-1, m, m+1 for the query
    at level m - 1 + s."""
    w0 = 0.5 * (s - 1.0) * (s - 2.0)
    w1 = -s * (s - 2.0)
    w2 = 0.5 * s * (s - 1.0)
    return w0, w1, w2


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
        if not math.isfinite(t0):
            raise ValueError("t0 must be finite")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(window) and window >= 0.0):
            raise ValueError("window must be nonnegative and finite")
        self.t0 = float(t0)
        self.dt = float(dt)
        self.shape = tuple(shape)
        self._cap = int(math.ceil(window / dt)) + 4
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
        if level_min < self.oldest_level:
            raise HistoryError(
                f"query needs level {level_min}, older than the retained window "
                f"(oldest kept: {self.oldest_level})"
            )

    def _row(self, level):
        return level % self._cap

    def _few_samples(self, r):
        # fewer than 3 samples exist: interpolate through all of them
        if self._levels == 1:
            return self._data[0] * 0.0
        v0, v1 = self._data[0], self._data[1]
        s = np.clip(r, 0.0, 1.0)
        return (1.0 - s) * v0 + s * v1

    # -- queries -----------------------------------------------------------

    def query(self, t: float):
        """Value of the stored series at time t (whole sample)."""
        t = float(t)
        if t <= self.t0:
            return np.zeros(self.shape) if self.shape else 0.0
        r = (t - self.t0) / self.dt
        self._check_upper(t)
        if self._levels < 3:
            out = self._few_samples(r)
            return out if self.shape else float(out)
        m = min(max(math.floor(r), 1), self._levels - 2)
        self._check_lower(m - 1)
        w0, w1, w2 = _weights(r - (m - 1))
        out = (
            w0 * self._data[self._row(m - 1)]
            + w1 * self._data[self._row(m)]
            + w2 * self._data[self._row(m + 1)]
        )
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
        out = np.zeros(self.shape)
        cols = np.flatnonzero(t > self.t0)
        if cols.size == 0:
            return out
        self._check_upper(float(t[cols].max()))
        r = (t[cols] - self.t0) / self.dt
        if self._levels < 3:
            if self._levels == 2:
                s = np.clip(r, 0.0, 1.0)
                out[cols] = (1.0 - s) * self._data[0, cols] + s * self._data[1, cols]
            return out
        m = np.clip(np.floor(r).astype(int), 1, self._levels - 2)
        self._check_lower(int(m.min()) - 1)
        w0, w1, w2 = _weights(r - (m - 1))
        out[cols] = (
            w0 * self._data[self._row(m - 1), cols]
            + w1 * self._data[self._row(m), cols]
            + w2 * self._data[self._row(m + 1), cols]
        )
        return out


class RetardedSum:
    """Sum over the nodes of a nodal series, node i read at ``t - delays[i]``.

    ``push(j)`` takes the samples of levels ``t0 + k*dt``, k = 0, 1, 2, ...,
    in order, and returns ``np.sum(buf.query_each(t_k - delays))`` to
    rounding, for a :class:`DelayBuffer` ``buf`` holding the samples pushed
    so far.  Node i trails every level by the same offset ``delays[i]/dt``,
    so its lag and weights are worked out once.  It is first live, by
    ``query_each``'s own test ``t - d > t0``, at level ``lam``; there it
    takes ``query_each``'s clipped bracket of levels 0, 1, 2, or the
    two-sample linear rule when ``lam`` is 1.  At every later level L it
    reads the bracket ``L - lam - 1, L - lam, L - lam + 1`` with fixed
    weights.  So each sample is scattered, on arrival, into the pending sums
    of the few levels that will read it: the storage is ``max(lam) + 2``
    numbers, not a history of nodal samples.
    """

    def __init__(self, t0: float, dt: float, delays) -> None:
        if not math.isfinite(t0):
            raise ValueError("t0 must be finite")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        d = np.asarray(delays, dtype=float)
        if d.ndim != 1 or d.size == 0:
            raise ValueError("delays must be a nonempty 1-D array")
        if not np.all(np.isfinite(d) & (d >= 0.0)):
            raise ValueError("delays must be finite and nonnegative")
        q = d / dt
        # lam: the first level that passes query_each's live test; that is
        # ceil(q) up to rounding, and ceil(q) - 1 never passes but by rounding
        lam = np.maximum(np.ceil(q).astype(np.int64) - 1, 1)
        for _ in range(2):
            lam += ~(t0 + lam * dt - d > t0)
        # sample k feeds the regular read of level k + lam + 1 - a with the
        # weight of bracket slot a, once that read exists (k >= a)
        slot = np.arange(3)[:, None]
        offsets = lam + 1 - slot
        weights = np.array(_weights(lam + 1.0 - q))
        # and sample k <= 2 feeds the first read, at level lam
        r = (t0 + lam * dt - d - t0) / dt
        first = np.array(_weights(r))
        s = np.clip(r[lam == 1], 0.0, 1.0)
        first[:, lam == 1] = [1.0 - s, s, 0.0 * s]
        first_offsets = np.maximum(lam - slot, 0)  # weight 0 where clipped
        self._plans = [
            (np.vstack([offsets[:k + 1], first_offsets[k]]).ravel(),
             np.vstack([weights[:k + 1], first[k]]))
            for k in range(3)
        ] + [(offsets.ravel(), weights)]
        self._pending = np.zeros(int(lam.max()) + 2)
        self._levels = 0

    def push(self, j) -> float:
        """Take the next level's samples; return that level's sum."""
        j = np.asarray(j, dtype=float)
        idx, w = self._plans[min(self._levels, 3)]
        if j.shape != w.shape[1:]:
            raise ValueError(f"sample shape {j.shape} != {w.shape[1:]}")
        pending = self._pending
        pending += np.bincount(idx, (w * j).ravel(), pending.size)
        out = float(pending[0])
        pending[:-1] = pending[1:]
        pending[-1] = 0.0
        self._levels += 1
        return out


class FixedLagReader:
    """Samples at t0 + k*dt, k = 0, 1, 2, ..., each a tuple of ``width``
    floats, read back at the fixed lag ``lag``.

    ``read(n)`` equals ``DelayBuffer.query(t0 + n*dt - lag)``, to rounding,
    for a DelayBuffer holding the same samples.  From two levels past the
    lag on it reads the bracket ``n - b - 1, n - b, n - b + 1``, ``b =
    floor(lag/dt) + 1``, with weights worked out once.  Before that it
    follows ``query`` step by step: exactly zero while ``t0 + n*dt - lag <=
    t0``, by the same float test, then the clamped bracket or the
    two-sample linear rule.  A read may come before or after the append of
    level n; the ring keeps the ``floor(lag/dt) + 3`` levels that needs.
    """

    def __init__(self, t0: float, dt: float, lag: float, width: int = 1):
        if not math.isfinite(t0):
            raise ValueError("t0 must be finite")
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(lag) and lag >= 0.0):
            raise ValueError("lag must be finite and nonnegative")
        if isinstance(width, bool) or not isinstance(width, numbers.Integral) \
                or width < 1:
            raise ValueError(f"width must be a positive integer, got {width!r}")
        self.t0, self.dt, self.lag = float(t0), float(dt), float(lag)
        q = self.lag / self.dt
        self._back = math.floor(q) + 1
        self._weights = _weights(self._back + 1 - q)
        self._cap = self._back + 2
        # one float64 ring per component, read back as Python floats
        self._rings = [memoryview(bytearray(8 * self._cap)).cast("d")
                       for _ in range(width)]
        self._zero = (0.0,) * width
        self._levels = 0

    def append(self, sample) -> None:
        """Append the next level's sample, ``width`` numbers."""
        if len(sample) != len(self._rings):
            raise ValueError(f"sample of {len(sample)} != width {len(self._rings)}")
        i = self._levels % self._cap
        for ring, v in zip(self._rings, sample):
            ring[i] = v
        self._levels += 1

    def read(self, n: int) -> tuple:
        """The series at ``t0 + n*dt - lag``, one float per component."""
        m = n - self._back
        if not 1 <= m < self._levels - 1 or m <= self._levels - self._cap:
            return self._read_edge(n)
        return self._bracket(m, self._weights)

    def _bracket(self, m: int, weights) -> tuple:
        """The samples of levels m - 1, m, m + 1, weighted."""
        i = m % self._cap  # levels m - 1 and m + 1 wrap by negative indices
        w0, w1, w2 = weights
        return tuple([w0 * r[i - 1] + w1 * r[i] + w2 * r[i + 1 - self._cap]
                      for r in self._rings])

    def _read_edge(self, n: int) -> tuple:
        """``DelayBuffer.query``'s rules, step by step, for the reads off
        the steady bracket: before t0, on the first live levels, or out of
        the ring."""
        t0, dt = self.t0, self.dt
        t = t0 + n * dt - self.lag
        if t <= t0:
            return self._zero
        levels = self._levels
        if levels == 0 or t > t0 + (levels - 1) * dt + 1e-9 * dt:
            raise HistoryError(f"read at t={t!r} is beyond the newest sample")
        r = (t - t0) / dt
        if levels < 3:
            if levels == 1:
                return self._zero
            s = min(max(r, 0.0), 1.0)
            return tuple([(1.0 - s) * ring[0] + s * ring[1] for ring in self._rings])
        m = min(max(math.floor(r), 1), levels - 2)
        if m - 1 < levels - self._cap:
            raise HistoryError(f"read needs level {m - 1}, older than the ring")
        return self._bracket(m, _weights(r - (m - 1)))
