"""Batch numeric kernels (numpy).

The hot loops of the package are Monte Carlo sweeps that evaluate a surrogate
property at 1e4..1e6 simplex points per call.  Both constructions reduce to
the same primitive: the root of a piecewise-linear expected identification
function given by node values on a shared breakpoint grid with unit-slope
tails.  The ratio-of-expectations property of the normals construction also
has a direct region-based formula, about twice as fast.
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


def node_root_batch(bp, nodes, probs) -> np.ndarray:
    """Roots of u -> sum_y p_y v(u, y) for each row of ``probs``.

    ``bp``: (m,) shared breakpoints; ``nodes``: (n, m) values of v(bp_l, y);
    outside the grid every v continues with unit slope.  The expected value is
    assumed to change sign exactly once; flat root intervals return their
    midpoint.
    """
    bp = _as_c(bp)
    M = _as_c(probs) @ _as_c(nodes)  # (batch, m)
    batch, m = M.shape
    rows = np.arange(batch) * m
    flat = M.ravel()

    def zero_right_of(i):
        """Zero of the expectation on the piece right of node i: a chord, or
        the unit-slope left tail for i = -1 and right tail for i = m - 1."""
        j = np.clip(i, 0, max(m - 2, 0))
        j1 = np.minimum(j + 1, m - 1)
        m_j, m_j1 = flat[rows + j], flat[rows + j1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = bp[j] + (-m_j) * (bp[j1] - bp[j]) / (m_j1 - m_j)
        left, right = i < 0, i >= m - 1
        out[left] = bp[0] - M[left, 0]
        out[right] = bp[-1] - M[right, -1]
        return out

    r_left = zero_right_of((M < 0.0).sum(axis=1) - 1)       # after the last negative node
    r_right = zero_right_of(m - 1 - (M > 0.0).sum(axis=1))  # before the first positive one
    return 0.5 * (r_left + r_right)


def roe_batch(normals, probs) -> np.ndarray:
    """Piecewise ratio-of-expectations property for each row of ``probs``.

    ``normals``: (k, n) oriented unit normals in report order.
    """
    S = _as_c(probs) @ _as_c(normals).T  # (batch, k)
    k = S.shape[1]
    npos = (S > BOUNDARY_TOL).sum(axis=1)
    out = np.empty(S.shape[0])

    first = npos == 0
    out[first] = S[first, 0]
    last = npos == k
    out[last] = S[last, k - 1] + (k - 1)

    mid = ~(first | last)
    if np.any(mid):
        i = npos[mid]  # 1..k-1
        rows = np.nonzero(mid)[0]
        s_i = S[rows, i - 1]
        s_i1 = S[rows, i]
        den = s_i - s_i1
        if np.any(den <= _DEN_TOL):
            raise FloatingPointError(
                "ratio-of-expectations denominator below tolerance; "
                "strong orderability violated at a sample point"
            )
        out[mid] = s_i / den + (i - 1)
    return out


def region_index_batch(normals, probs) -> np.ndarray:
    """1-based region index per row: ties resolve to the lower region."""
    S = _as_c(probs) @ _as_c(normals).T
    return (S > BOUNDARY_TOL).sum(axis=1) + 1
