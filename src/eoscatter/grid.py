"""Interior grid family, material coefficients, and spatial stencils, with
the number rule the package checks every numeric input by
(:func:`check_real`, :func:`check_integer`) and the size rule it checks
every array a numeric input asks for by (:func:`check_size`).

The scatterer occupies [a0, a1] and all evolved fields live on N interior
nodes only; boundary values enter through separately evolved traces. A single
parameter epsilon slides the node placement between two natural layouts:

* epsilon = 1: nodes at cell midpoints of an N-cell partition (spacing
  dx = (a1-a0)/N, half-cell gap at each end) — the production layout, whose
  node weights make the boundary-update sums plain midpoint rules;
* epsilon = 0: nodes of a uniform (N+1)-interval partition, i.e. the gap to
  each boundary equals the interior spacing.

In between, dx interpolates linearly between those two spacings and the edge
gaps shrink accordingly (they are equal at both ends only at epsilon 0 and 1;
the mismatch in between is O(dx/N)).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
import math
import numbers
import reprlib
import sys

import numpy as np


def check_real(name: str, v, *, positive: bool = False, finite: bool = True) -> float:
    """``v`` as a float; ValueError naming ``name`` unless ``v`` is a real
    number, not a bool, not NaN, finite as a float when ``finite`` (an int
    too large for one is not) and greater than zero when ``positive``."""
    try:
        f = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) \
            else math.nan
    except OverflowError:  # an int beyond the float range
        f = math.inf
    if math.isnan(f) or (finite and math.isinf(f)) or (positive and not f > 0.0):
        kind = ("positive " if positive else "") + ("finite " if finite else "")
        raise ValueError(f"{name} must be a {kind}number, got {reprlib.repr(v)}")
    return f


def check_integer(name: str, v, minimum: int) -> int:
    """``v`` as an int; ValueError naming ``name`` unless ``v`` is an
    integer, not a bool, at least ``minimum`` and within the float range."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
            or not minimum <= v <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite integer >= {minimum}, "
                         f"got {reprlib.repr(v)}")
    return int(v)


#: The most float64 numbers one array may hold (2 GiB): a size past it is
#: refused by :func:`check_size` before anything is allocated, so an input
#: too large for memory is a ValueError, not an allocation failure.
MAX_FLOATS = 2**28


def check_size(what: str, count) -> None:
    """ValueError naming ``what`` unless ``count``, the float64 numbers of
    one array an input asks for, is at most :data:`MAX_FLOATS`."""
    if not count <= MAX_FLOATS:
        raise ValueError(f"{what} would need {reprlib.repr(count)} float64 numbers "
                         f"in one array, more than the {MAX_FLOATS} allowed")


def check_fields(obj, positive=()) -> None:
    """Store every ``float`` field of the frozen dataclass ``obj`` back as
    the float :func:`check_real` makes of it, those named in ``positive``
    checked as positive."""
    for f in fields(obj):
        if f.type in ("float", float):
            v = check_real(f.name, getattr(obj, f.name), positive=f.name in positive)
            object.__setattr__(obj, f.name, v)


@dataclass(frozen=True)
class GridSpec:
    """Interior node layout on [a0, a1] with N nodes and family parameter epsilon."""

    a0: float
    a1: float
    n: int
    epsilon: float = 1.0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "n", check_integer("N", self.n, 4))
        if not self.a1 > self.a0:
            raise ValueError("a1 must be greater than a0")
        if not math.isfinite(self.length):
            raise ValueError(f"a1 - a0 must be finite, got {self.length!r}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in [0, 1]")

    @property
    def length(self) -> float:
        return self.a1 - self.a0

    @cached_property
    def dx(self) -> float:
        n, eps = self.n, self.epsilon
        return (n + eps) / (n * (n + 1.0)) * self.length

    @cached_property
    def x(self) -> np.ndarray:
        """Node positions x_i = a0 + (i + 1 - epsilon/2) dx, i = 0..N-1."""
        i = np.arange(self.n, dtype=float)
        out = self.a0 + (i + 1.0 - 0.5 * self.epsilon) * self.dx
        out.setflags(write=False)
        return out

    @property
    def gap_a0(self) -> float:
        """Distance from a0 to the first node."""
        return (1.0 - 0.5 * self.epsilon) * self.dx

    @property
    def gap_a1(self) -> float:
        """Distance from the last node to a1."""
        return self.a1 - float(self.x[-1])


@dataclass(frozen=True)
class Material1:
    """Coefficients of the one-way model: interior speed c1, exterior speed c0,
    and the response law j_t = (alpha - beta*rho)*phi - gamma*j."""

    c1: float
    c0: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        check_fields(self, positive=("c1", "c0"))

    @property
    def coupling(self) -> tuple[tuple[float]]:
        """``A`` of ``phi_t = A*phi_x + j``."""
        return ((self.c1,),)


@dataclass(frozen=True)
class Material2:
    """Coefficients of the two-way model: cross-coupling pairs (mu, nu) inside
    and outside, same response law as Material1. Speeds are derived,
    c = sqrt(mu*nu)."""

    mu1: float
    nu1: float
    mu0: float
    nu0: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        check_fields(self, positive=("mu1", "nu1", "mu0", "nu0"))

    @property
    def c1(self) -> float:
        return math.sqrt(self.mu1 * self.nu1)

    @property
    def c0(self) -> float:
        return math.sqrt(self.mu0 * self.nu0)

    @property
    def coupling(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """``A`` of ``(phi, psi)_t = A*(phi, psi)_x + (j, 0)``."""
        return ((0.0, self.mu1), (self.nu1, 0.0))


def drivers(coupling) -> list[tuple[int, float]]:
    """Per row k of a coupling matrix ``A``, ``(l, A_kl)`` for its one
    non-zero entry: the gradient of potential l drives potential k."""
    return [next((l, a) for l, a in enumerate(row) if a) for row in coupling]


def _d1_weights(s0, s1, s2, at=0.0):
    # derivative at `at` of the quadratic through abscissae s0 < s1 < s2
    w0 = ((at - s1) + (at - s2)) / ((s0 - s1) * (s0 - s2))
    w1 = ((at - s0) + (at - s2)) / ((s1 - s0) * (s1 - s2))
    w2 = ((at - s0) + (at - s1)) / ((s2 - s0) * (s2 - s1))
    return np.array([w0, w1, w2])


def _d2_weights(s0, s1, s2):
    w0 = 2.0 / ((s0 - s1) * (s0 - s2))
    w1 = 2.0 / ((s1 - s0) * (s1 - s2))
    w2 = 2.0 / ((s2 - s0) * (s2 - s1))
    return np.array([w0, w1, w2])


class SpatialOps:
    """Second-order derivative stencils on a GridSpec.

    Interior nodes use central differences (the interior spacing is uniform).
    The edge nodes differ by field kind:

    * trace-closed fields (amplitudes whose boundary values are known) use the
      3-point interpolant through {boundary point, edge node, first
      neighbour}; the weights depend on the edge gap and reduce to the classic
      half-spacing forms at epsilon = 1;
    * confined fields (material response, defined on interior nodes only) use
      one-sided 3-point rules that never touch the boundary.

    Every rule is exact on quadratics.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self.dx = grid.dx
        dx = grid.dx
        # trace-closed edges: left points {a0, x0, x1}, right {x_{n-2}, x_{n-1}, a1}
        self.wl1 = _d1_weights(-grid.gap_a0, 0.0, dx)
        self.wl2 = _d2_weights(-grid.gap_a0, 0.0, dx)
        self.wr1 = _d1_weights(-dx, 0.0, grid.gap_a1)
        self.wr2 = _d2_weights(-dx, 0.0, grid.gap_a1)

    def d1_closed(self, u: np.ndarray, u_a0: float, u_a1: float) -> np.ndarray:
        """First derivative of a field with known boundary values u_a0, u_a1."""
        dx = self.dx
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        w = self.wl1
        out[0] = w[0] * u_a0 + w[1] * u[0] + w[2] * u[1]
        w = self.wr1
        out[-1] = w[0] * u[-2] + w[1] * u[-1] + w[2] * u_a1
        return out

    def d2_closed(self, u: np.ndarray, u_a0: float, u_a1: float) -> np.ndarray:
        """Second derivative of a field with known boundary values."""
        dx = self.dx
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (dx * dx)
        w = self.wl2
        out[0] = w[0] * u_a0 + w[1] * u[0] + w[2] * u[1]
        w = self.wr2
        out[-1] = w[0] * u[-2] + w[1] * u[-1] + w[2] * u_a1
        return out

    def d1_confined(self, u: np.ndarray) -> np.ndarray:
        """First derivative of a field that exists only on the interior nodes."""
        dx = self.dx
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * dx)
        out[0] = (4.0 * u[1] - 3.0 * u[0] - u[2]) / (2.0 * dx)
        out[-1] = -(4.0 * u[-2] - 3.0 * u[-1] - u[-3]) / (2.0 * dx)
        return out


class ClosedPass:
    """``u + a*D1(v) + b*D2(u)`` of trace-closed fields in one pass, ``v``
    being ``u`` (model 1) or the partner potential (model 2): the closed
    stencils of :class:`SpatialOps`, whose methods the stability lab probes
    unchanged, with ``a`` and ``b`` folded into their weights once."""

    def __init__(self, ops: SpatialOps, a: float, b: float):
        d1, d2 = 0.5 * a / ops.dx, b / ops.dx**2
        # interior rows: u's weights (lo, mid, hi) when v is u, else u's
        # (side, mid, side) and v's (-cross, 0, cross)
        self.own = (d2 - d1, 1.0 - 2.0 * d2, d2 + d1)
        self.diffuse = (d2, 1.0 - 2.0 * d2, d2)
        self.cross = (-d1, 0.0, d1)
        # edge rows: the weights of u's three edge points in node order, then v's
        self.left = (b * ops.wl2 + (0, 1, 0)).tolist() + (a * ops.wl1).tolist()
        self.right = (b * ops.wr2 + (0, 1, 0)).tolist() + (a * ops.wr1).tolist()

    def __call__(self, u, u_a0, u_a1, v, v_a0, v_a1) -> np.ndarray:
        # "same" correlation: every interior row in one call, the edge rows
        # (zero-padded there) overwritten below
        if v is u:
            out = np.correlate(u, self.own, "same")
        else:
            out = np.correlate(u, self.diffuse, "same")
            out += np.correlate(v, self.cross, "same")
        p0, p1, p2, q0, q1, q2 = self.left
        (u0, u1), (v0, v1) = u[:2].tolist(), v[:2].tolist()
        out[0] = p0 * u_a0 + p1 * u0 + p2 * u1 + q0 * v_a0 + q1 * v0 + q2 * v1
        p0, p1, p2, q0, q1, q2 = self.right
        (u0, u1), (v0, v1) = u[-2:].tolist(), v[-2:].tolist()
        out[-1] = p0 * u0 + p1 * u1 + p2 * u_a1 + q0 * v0 + q1 * v1 + q2 * v_a1
        return out


def confined_pass(u: np.ndarray, k: float, dx: float, out: np.ndarray) -> np.ndarray:
    """``k * SpatialOps.d1_confined(u)`` in one pass, written into and
    returned as ``out``, an array the shape of ``u`` and apart from it."""
    c = 0.5 * k / dx
    np.multiply(np.subtract(u[2:], u[:-2], out=out[1:-1]), c, out=out[1:-1])
    u0, u1, u2 = u[:3].tolist()
    w2, w1, w0 = u[-3:].tolist()
    out[0] = c * (4.0 * u1 - 3.0 * u0 - u2)
    out[-1] = c * (3.0 * w0 - 4.0 * w1 + w2)
    return out
