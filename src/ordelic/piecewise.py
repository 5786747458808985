"""One-dimensional piecewise structures: affine and max-affine.

Max-affine pieces are the embedded losses.  Piecewise-affine functions are
the identification functions that surrogate files spell out (``v_bar``):
:func:`interpolate` gives their coefficients, so files are bit-stable, and
:func:`_check_continuity` checks the pieces a file holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ordelic.errors import SpecError

CONTINUITY_TOL = 1e-9
# A max-affine piece this close (relative) to the max is active there.
ACTIVE_TOL = 1e-9


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

    def derivative_interval_many(self, us) -> tuple[np.ndarray, np.ndarray]:
        """(left, right) derivatives at each of ``us``: the least and the
        largest slope of the pieces within ACTIVE_TOL (relative) of the max
        there."""
        a, b = self.pieces[:, 0], self.pieces[:, 1]
        vals = a * np.asarray(us, dtype=np.float64)[:, None] + b
        top = vals.max(axis=1, keepdims=True)
        active = vals >= top - ACTIVE_TOL * (1.0 + np.abs(top))
        return (np.where(active, a, np.inf).min(axis=1),
                np.where(active, a, -np.inf).max(axis=1))


def interpolate(breakpoints, values, left_slope: float,
                right_slope: float) -> tuple[np.ndarray, np.ndarray]:
    """(slopes, intercepts), one row per row of ``values``, of the linear
    interpolations through (breakpoint, value) nodes with affine tails,
    checked for continuity: piece i lives on [b_{i-1}, b_i], unbounded at
    the ends."""
    bp, V = np.asarray(breakpoints, dtype=np.float64), np.asarray(values, dtype=np.float64)
    a = np.empty((len(V), len(bp) + 1))
    a[:, 0], a[:, -1] = left_slope, right_slope
    a[:, 1:-1] = np.diff(V, axis=1) / np.diff(bp)
    c = np.empty_like(a)
    c[:, :-1] = V - a[:, :-1] * bp
    c[:, -1] = V[:, -1] - a[:, -1] * bp[-1]
    _check_continuity(bp, a, c)
    return a, c


def _check_continuity(bp: np.ndarray, a: np.ndarray, c: np.ndarray) -> None:
    """Raise unless the pieces (slopes a, intercepts c along the last axis)
    meet at every breakpoint within CONTINUITY_TOL (relative)."""
    left = a[..., :-1] * bp + c[..., :-1]
    right = a[..., 1:] * bp + c[..., 1:]
    scale = 1.0 + np.abs(left)
    if np.any(np.abs(left - right) > CONTINUITY_TOL * scale):
        raise SpecError("pieces disagree at a breakpoint; function not well-defined")


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
