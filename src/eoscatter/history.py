"""Uniformly sampled time histories with quadratic read-back.

The boundary update rules need field values at retarded times that generally
fall between time levels. A DelayBuffer keeps a sliding window of samples at
t0 + k*dt and answers queries with the quadratic through the three samples
bracketing the query time, which is exact at the knots and for any quadratic
in time. Query times at or before t0 read back as exactly zero — nothing
existed before the switch-on time.
"""

from __future__ import annotations

import bisect
import math

import numpy as np


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
    def levels(self) -> int:
        return self._levels

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

    def _bracket(self, r):
        """Clip the level index below floor(r) into [1, levels-2]."""
        m = np.floor(r).astype(int)
        return np.clip(m, 1, self._levels - 2)

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

    @staticmethod
    def _weights(s):
        """Quadratic weights of the samples at levels m-1, m, m+1 for the
        query at level m - 1 + s."""
        w0 = 0.5 * (s - 1.0) * (s - 2.0)
        w1 = -s * (s - 2.0)
        w2 = 0.5 * s * (s - 1.0)
        return w0, w1, w2

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
        w0, w1, w2 = self._weights(r - (m - 1))
        out = (
            w0 * self._data[self._row(m - 1)]
            + w1 * self._data[self._row(m)]
            + w2 * self._data[self._row(m + 1)]
        )
        return out if self.shape else float(out)

    def _read_cols(self, r, cols) -> np.ndarray:
        """Component ``cols[k]`` at fractional level ``r[k] > 0``, by
        :meth:`query_each`'s rule; the caller has checked the newest level."""
        if self._levels < 3:
            if self._levels < 2:
                return np.zeros(len(cols))
            s = np.clip(r, 0.0, 1.0)
            return (1.0 - s) * self._data[0, cols] + s * self._data[1, cols]
        m = self._bracket(r)
        self._check_lower(int(m.min()) - 1)
        w0, w1, w2 = self._weights(r - (m - 1))
        return (
            w0 * self._data[self._row(m - 1), cols]
            + w1 * self._data[self._row(m), cols]
            + w2 * self._data[self._row(m + 1), cols]
        )

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
        out[cols] = self._read_cols((t[cols] - self.t0) / self.dt, cols)
        return out

    def fixed_lag(self, delays) -> "FixedLagSum":
        """Reader of ``sum_i`` component i at ``t - delays[i]``, for times
        ``t`` on this buffer's levels; see :class:`FixedLagSum`."""
        return FixedLagSum(self, delays)


class FixedLagSum:
    """Sum over the components of a nodal history, each at its own fixed delay.

    ``reader(t)`` equals ``np.sum(buf.query_each(t - delays))`` to rounding
    for any ``t`` on the buffer's levels ``t0 + k*dt``.  There, component i
    sits at the same offset ``delays[i]/dt`` behind ``t`` at every level, so
    its integer lag and its three quadratic weights are computed once, and a
    read is one gather from the ring and one dot product.  The exceptions
    follow :meth:`DelayBuffer.query_each` exactly: components whose retarded
    time is at or before ``t0`` read 0 (they are a suffix in delay order), and
    the few whose bracket ``query_each`` clips -- the wavefront in the first
    interval, or a read level past the newest sample -- are evaluated by its
    rule.  Reads raise :class:`HistoryError` wherever ``query_each`` would,
    and also where a fixed bracket would reach a dropped level.
    """

    def __init__(self, buf: DelayBuffer, delays) -> None:
        d = np.asarray(delays, dtype=float)
        if len(buf.shape) != 1 or d.shape != buf.shape:
            raise ValueError("need one delay per component of a 1-D history")
        if not np.all(np.isfinite(d) & (d >= 0.0)):
            raise ValueError("delays must be finite and nonnegative")
        n = d.size
        self._buf = buf
        self._cols = np.argsort(d, kind="stable")
        self._d = d[self._cols]
        q = self._d / buf.dt
        # read at level L, component i sits at level L - q = (m - 1) + s in
        # the bracket m - 1, m, m + 1 with m = L - lag, the same for every L
        lag = np.ceil(q).astype(np.int64)
        self._lags = lag.tolist()
        self._w = np.stack(DelayBuffer._weights(lag + 1.0 - q), axis=1).ravel()
        # flat ring offsets of those three samples relative to row L, taken
        # into [-size, 0) so that adding (L mod cap) * n stays a valid index
        rows = lag[:, None] + np.array([1, 0, -1])
        size = buf._data.size
        self._base = (self._cols[:, None] - rows * n).ravel() % size - size
        self._idx = np.empty_like(self._base)
        self._flat = buf._data.reshape(-1)

    def _live(self, t: float, level: int) -> int:
        """How many components (in delay order) have a retarded time after t0.

        Those with lag < level are live by almost a whole step; of the rest,
        the live ones are found with query_each's own test."""
        d, t0, n = self._d, self._buf.t0, self._d.size
        k = bisect.bisect_left(self._lags, level)
        while k < n and t - d[k] > t0:
            k += 1
        return k

    def _exact(self, t: float, a: int, b: int) -> float:
        buf = self._buf
        r = (t - self._d[a:b] - buf.t0) / buf.dt
        return float(np.sum(buf._read_cols(r, self._cols[a:b])))

    def __call__(self, t: float) -> float:
        buf = self._buf
        pos = (t - buf.t0) / buf.dt
        level = round(pos)
        if abs(pos - level) > 1e-6:
            raise ValueError(f"t={t!r} is not a time level of the history")
        k = self._live(t, level)
        if k == 0:
            return 0.0
        buf._check_upper(float(t - self._d[0]))
        if buf.levels < 3:
            return self._exact(t, 0, k)
        top = buf.levels - 2
        lags = self._lags
        # [a, b): components whose fixed bracket needs no clipping
        b = min(k, bisect.bisect_left(lags, level))
        a = min(b, bisect.bisect_left(lags, level - top))
        r_old = (t - self._d[k - 1] - buf.t0) / buf.dt
        m_old = min(max(math.floor(r_old), 1), top)
        if b > a:
            m_old = min(m_old, level - lags[b - 1])
        buf._check_lower(m_old - 1)
        total = 0.0
        if b > a:
            idx = np.add(self._base[3 * a:3 * b], (level % buf._cap) * self._d.size,
                         out=self._idx[3 * a:3 * b])
            total = float(self._flat[idx] @ self._w[3 * a:3 * b])
        if a > 0:
            total += self._exact(t, 0, a)
        if k > b:
            total += self._exact(t, b, k)
        return total
