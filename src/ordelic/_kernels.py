"""The property kernel (numpy).

The hot loops of the package are Monte Carlo sweeps that evaluate a surrogate
property at 1e4..1e6 simplex points per call.  Both constructions reduce to
one primitive: the root of a piecewise-linear expected identification
function given by node values on a shared breakpoint grid with unit-slope
tails, in closed form on the grid piece that holds it.
"""

from __future__ import annotations

import numpy as np

from ordelic.errors import OrderabilityError

_DEN_TOL = 1e-12
# The one tie band, as a unit-normal score: see tie_band.
BOUNDARY_TOL = 1e-10


def backend_name() -> str:
    return "numpy"


def tie_band(C, tol=BOUNDARY_TOL) -> np.ndarray:
    """tol * ||c|| for each c = C[:, ...] (a vector is one c): p is
    in the tie band of the hyperplane <c, p> = 0 when |<c, p>| is at most
    this, a unit-normal score of at most BOUNDARY_TOL, so scaling c moves no
    point in or out of the band.  Every band test of the package uses it.
    """
    # hypot's reduction does not square, so entries up to 1e308 give a
    # finite band
    return tol * np.hypot.reduce(np.asarray(C, dtype=np.float64), axis=0)


def _as_c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def roe_batch(grid, nodes, probs) -> np.ndarray:
    """Root of u -> sum_y p_y v_y(u) for each row of ``probs``.

    ``grid``: (m,) breakpoints; ``nodes``: (n, m) values v_y(grid_l), with
    unit-slope tails outside the grid.  With h_l = nodes[:, l] the root lies
    on the piece l after the last node with <h_l, p> below the tie band
    (:func:`tie_band`), or on piece 0 where <h_0, p> < 0 is in its band (the
    tail's unit slope would add a node score to u), and there it is the ratio
    of expectations g_l + (g_{l+1} - g_l) a / (a + b), a = -<h_l, p>, b =
    <h_{l+1}, p>.  A run of two or more nodes in their bands is a flat root
    interval; its midpoint is returned.  Except in the band of node 0, where
    a, b > 0, a + b at most ``_DEN_TOL`` ||h_l|| raises OrderabilityError.
    """
    g, H = _as_c(grid), _as_c(nodes)
    M = _as_c(probs) @ H  # (batch, m)
    m = M.shape[1]
    band = tie_band(H)
    lo, hi = _count_columns(M < -band), _count_columns(M <= band)
    out = np.empty(M.shape[0])

    first = (lo == 0) & ((M[:, 0] >= 0.0) | (m == 1))  # else on piece 0
    out[first] = g[0] - M[first, 0]
    last = lo == m
    out[last] = g[-1] - M[last, m - 1]

    flat = hi - lo >= 2
    mid = ~(first | last | flat)
    if np.any(mid):
        rows = np.nonzero(mid)[0]
        l = np.maximum(lo[rows] - 1, 0)
        at = rows * m + l
        a = -M.ravel()[at]
        den = a + M.ravel()[at + 1]
        if np.any(den <= tie_band(H, _DEN_TOL)[l] * (lo[rows] > 0)):
            raise OrderabilityError(
                "ratio-of-expectations denominator below tolerance; "
                "strong orderability violated at a sample point"
            )
        out[rows] = g[l] + (g[l + 1] - g[l]) * a / den

    if np.any(flat):
        out[flat] = 0.5 * (g[lo[flat]] + g[hi[flat] - 1])
    return out


def _count_columns(mask: np.ndarray) -> np.ndarray:
    """True entries per row of a (batch, m) mask; for the few columns of a
    grid a loop over columns is several times faster than ``sum(axis=1)``."""
    count = mask[:, 0].astype(np.intp)
    for column in mask.T[1:]:
        count += column
    return count
