"""The property kernel (numpy).

The hot loops of the package are Monte Carlo sweeps that evaluate a surrogate
property at 1e4..1e6 simplex points per call.  Both constructions reduce to
one primitive: the root of a piecewise-linear expected identification
function given by node values on a shared breakpoint grid with unit-slope
tails, in closed form on the grid piece that holds it.
"""

from __future__ import annotations

import numpy as np

_DEN_TOL = 1e-12
# The one tie tolerance of every region decision (kernels, link, target sets):
# a score against a boundary normal at most this is on the lower side.
BOUNDARY_TOL = 1e-10


def backend_name() -> str:
    return "numpy"


def _as_c(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def roe_batch(grid, nodes, probs) -> np.ndarray:
    """Root of u -> sum_y p_y v_y(u) for each row of ``probs``.

    ``grid``: (m,) breakpoints; ``nodes``: (n, m) values v_y(grid_l), with
    unit-slope tails outside the grid.  With h_l = nodes[:, l] the root lies
    on the piece l after the last node with <h_l, p> < -BOUNDARY_TOL, where
    it is the ratio of expectations g_l + (g_{l+1} - g_l) a / (a + b),
    a = -<h_l, p>, b = <h_{l+1}, p>.  A run of two or more nodes within
    BOUNDARY_TOL of zero is a flat root interval; its midpoint is returned.
    """
    g = _as_c(grid)
    M = _as_c(probs) @ _as_c(nodes)  # (batch, m)
    m = M.shape[1]
    lo, hi = _count_columns(M < -BOUNDARY_TOL), _count_columns(M <= BOUNDARY_TOL)
    out = np.empty(M.shape[0])

    first = lo == 0
    out[first] = g[0] - M[first, 0]
    last = lo == m
    out[last] = g[-1] - M[last, m - 1]

    mid = ~(first | last)
    if np.any(mid):
        rows = np.nonzero(mid)[0]
        l = lo[rows] - 1
        at = rows * m + l
        a = -M.ravel()[at]
        den = a + M.ravel()[at + 1]
        if np.any(den <= _DEN_TOL):
            raise FloatingPointError(
                "ratio-of-expectations denominator below tolerance; "
                "strong orderability violated at a sample point"
            )
        out[rows] = g[l] + (g[l + 1] - g[l]) * a / den

    flat = hi - lo >= 2
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
