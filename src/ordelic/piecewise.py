"""One-dimensional piecewise structures: affine and max-affine.

These back the identification functions and losses of both surrogate
constructions.  Coefficients are kept exactly as produced by interpolation
(no numeric refitting) so fixtures are bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.errors import SpecError

CONTINUITY_TOL = 1e-9


@dataclass(frozen=True)
class PiecewiseAffine:
    """Continuous piecewise-affine function on the whole real line.

    ``breakpoints``: strictly increasing (m,); ``slopes``/``intercepts``:
    (m+1,) with piece i live on [b_{i-1}, b_i] (unbounded at the ends).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64)
        a = np.asarray(self.slopes, dtype=np.float64)
        c = np.asarray(self.intercepts, dtype=np.float64)
        if bp.ndim != 1 or len(bp) < 1:
            raise SpecError("need at least one breakpoint")
        if np.any(np.diff(bp) <= 0):
            raise SpecError("breakpoints must be strictly increasing")
        if len(a) != len(bp) + 1 or len(c) != len(bp) + 1:
            raise SpecError("need exactly one more piece than breakpoints")
        left = a[:-1] * bp + c[:-1]
        right = a[1:] * bp + c[1:]
        scale = 1.0 + np.abs(left)
        if np.any(np.abs(left - right) > CONTINUITY_TOL * scale):
            raise SpecError("pieces disagree at a breakpoint; function not well-defined")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", a)
        object.__setattr__(self, "intercepts", c)

    @classmethod
    def from_nodes(cls, breakpoints, values, left_slope: float, right_slope: float) -> "PiecewiseAffine":
        """Linear interpolation through (breakpoint, value) nodes with affine tails."""
        bp = np.asarray(breakpoints, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if len(bp) != len(v):
            raise SpecError("breakpoints and values must align")
        if len(bp) == 1:
            a = np.array([left_slope, right_slope])
        else:
            interior = np.diff(v) / np.diff(bp)
            a = np.concatenate(([left_slope], interior, [right_slope]))
        c = np.empty(len(bp) + 1)
        c[:-1] = v - a[:-1] * bp
        c[-1] = v[-1] - a[-1] * bp[-1]
        return cls(bp, a, c)

    def _piece_index(self, u) -> np.ndarray:
        return np.searchsorted(self.breakpoints, u, side="left")

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        idx = self._piece_index(u)
        return self.slopes[idx] * u + self.intercepts[idx]

    def derivative_interval(self, u: float) -> tuple[float, float]:
        """(left, right) derivative at u; equal away from breakpoints."""
        i_right = int(np.searchsorted(self.breakpoints, u, side="right"))
        i_left = int(np.searchsorted(self.breakpoints, u, side="left"))
        return float(self.slopes[i_left]), float(self.slopes[i_right])


@dataclass(frozen=True)
class MaxAffinePieces:
    """Pointwise maximum of finitely many affine pieces (one outcome's loss)."""

    pieces: np.ndarray  # (J, 2) rows of (slope, intercept)

    def __post_init__(self):
        arr = np.asarray(self.pieces, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
            raise SpecError("pieces must be a (J, 2) array")
        object.__setattr__(self, "pieces", arr)

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        vals = self.pieces[:, 0] * u[..., None] + self.pieces[:, 1]
        return vals.max(axis=-1)

    def derivative_interval(self, u: float, tol: float = 1e-9) -> tuple[float, float]:
        vals = self.pieces[:, 0] * u + self.pieces[:, 1]
        top = vals.max()
        active = self.pieces[vals >= top - tol * (1.0 + abs(top)), 0]
        return float(active.min()), float(active.max())


def lower_convex_envelope(points) -> list[tuple[float, float]]:
    """Chords of the lower convex hull of (u, v) points, left to right.

    Input u-coordinates must be strictly increasing; collinear interior points
    are absorbed into a single chord.  Returns (slope, intercept) pairs with
    nondecreasing slopes.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise SpecError("need at least two (u, v) points")
    du = np.diff(pts[:, 0])
    if np.any(du == 0):
        raise SpecError("duplicate u-coordinates")
    if np.any(du < 0):
        raise SpecError("u-coordinates must be strictly increasing")

    hull: list[np.ndarray] = []
    for p in pts:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:  # a lies on or above chord o->p
                hull.pop()
            else:
                break
        hull.append(p)
    chords = []
    for left, right in zip(hull[:-1], hull[1:]):
        slope = (right[1] - left[1]) / (right[0] - left[0])
        chords.append((float(slope), float(left[1] - slope * left[0])))
    return chords
