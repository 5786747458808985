"""Batch numeric kernels with a numba fast path and a pure-numpy fallback.

The hot loops of the package are Monte Carlo sweeps that evaluate a surrogate
property at 1e4..1e5 simplex points per call.  Both constructions reduce to
the same primitive: the root of a piecewise-linear expected identification
function given by node values on a shared breakpoint grid with unit-slope
tails.  The ratio-of-expectations property additionally has a direct
region-based formula.

Backend selection: numba is used when importable unless the environment
variable ``ORDELIC_NUMBA`` is set to ``0``/``false``/``off``.  Both paths are
exercised in the test suite and compared in ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import os

import numpy as np

_DEN_TOL = 1e-12
# The one tie tolerance of every region decision (kernels, link, target sets):
# a score against a boundary normal at most this is on the lower side.
BOUNDARY_TOL = 1e-10


def _numba_requested() -> bool:
    flag = os.environ.get("ORDELIC_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "no", "off")


# ---------------------------------------------------------------------------
# pure-numpy implementations


def _node_root_batch_np(bp: np.ndarray, nodes: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Roots of u -> sum_y p_y v(u, y) for each row of ``probs``.

    ``bp``: (m,) shared breakpoints; ``nodes``: (n, m) values of v(bp_l, y);
    outside the grid every v continues with unit slope.  The expected value is
    assumed to change sign exactly once; flat root intervals return their
    midpoint.
    """
    M = probs @ nodes  # (batch, m)
    big = float(np.abs(M).max()) + 1.0 if M.size else 1.0
    batch, m = M.shape
    Bext = np.empty(m + 2)
    Bext[1:-1] = bp
    Bext[0] = bp[0] - big
    Bext[-1] = bp[-1] + big
    Mext = np.empty((batch, m + 2))
    Mext[:, 1:-1] = M
    Mext[:, 0] = M[:, 0] - big
    Mext[:, -1] = M[:, -1] + big

    lo = (Mext < 0.0).sum(axis=1) - 1          # last strictly negative node
    hi = (m + 2) - (Mext > 0.0).sum(axis=1)    # first strictly positive node

    def _pick(idx):
        return np.take_along_axis(Mext, idx[:, None], axis=1)[:, 0]

    m_lo = _pick(lo)
    m_lo1 = _pick(lo + 1)
    r_left = Bext[lo] + (-m_lo) * (Bext[lo + 1] - Bext[lo]) / (m_lo1 - m_lo)

    m_hi = _pick(hi)
    m_hi1 = _pick(hi - 1)
    r_right = Bext[hi - 1] + (-m_hi1) * (Bext[hi] - Bext[hi - 1]) / (m_hi - m_hi1)
    return 0.5 * (r_left + r_right)


def _roe_batch_np(normals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Piecewise ratio-of-expectations property for each row of ``probs``.

    ``normals``: (k, n) oriented unit normals in report order.
    """
    S = probs @ normals.T  # (batch, k)
    k = normals.shape[0]
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


def _region_index_batch_np(normals: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """1-based region index per row: ties resolve to the lower region."""
    S = probs @ normals.T
    return (S > BOUNDARY_TOL).sum(axis=1) + 1


# ---------------------------------------------------------------------------
# numba implementations

_HAVE_NUMBA = False
if _numba_requested():
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - environment without numba
        _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def _node_root_batch_nb(bp, nodes, probs):  # pragma: no cover - jitted
        batch = probs.shape[0]
        n, m = nodes.shape
        out = np.empty(batch)
        for r in range(batch):
            big = 1.0
            # node expectations for this row
            M = np.empty(m)
            for l in range(m):
                acc = 0.0
                for y in range(n):
                    acc += probs[r, y] * nodes[y, l]
                M[l] = acc
                a = abs(acc)
                if a + 1.0 > big:
                    big = a + 1.0
            # leftmost root
            if M[0] >= 0.0:
                r_left = bp[0] - M[0]
            else:
                lo = 0
                for l in range(m - 1, -1, -1):
                    if M[l] < 0.0:
                        lo = l
                        break
                if lo == m - 1:
                    r_left = bp[m - 1] - M[m - 1]
                else:
                    r_left = bp[lo] + (-M[lo]) * (bp[lo + 1] - bp[lo]) / (M[lo + 1] - M[lo])
            # rightmost root
            if M[m - 1] <= 0.0:
                r_right = bp[m - 1] - M[m - 1]
            else:
                hi = m - 1
                for l in range(m):
                    if M[l] > 0.0:
                        hi = l
                        break
                if hi == 0:
                    r_right = bp[0] - M[0]
                else:
                    r_right = bp[hi - 1] + (-M[hi - 1]) * (bp[hi] - bp[hi - 1]) / (M[hi] - M[hi - 1])
            out[r] = 0.5 * (r_left + r_right)
        return out

    @njit(cache=True)
    def _roe_batch_nb(normals, probs):  # pragma: no cover - jitted
        batch = probs.shape[0]
        k, n = normals.shape
        out = np.empty(batch)
        for r in range(batch):
            npos = 0
            s_prev = 0.0
            s_here = 0.0
            # scalar products in report order; remember the straddling pair
            s = np.empty(k)
            for i in range(k):
                acc = 0.0
                for y in range(n):
                    acc += normals[i, y] * probs[r, y]
                s[i] = acc
                if acc > BOUNDARY_TOL:
                    npos += 1
            if npos == 0:
                out[r] = s[0]
            elif npos == k:
                out[r] = s[k - 1] + (k - 1)
            else:
                s_prev = s[npos - 1]
                s_here = s[npos]
                den = s_prev - s_here
                if den <= _DEN_TOL:
                    raise FloatingPointError(
                        "ratio-of-expectations denominator below tolerance"
                    )
                out[r] = s_prev / den + (npos - 1)
        return out

    @njit(cache=True)
    def _region_index_batch_nb(normals, probs):  # pragma: no cover - jitted
        batch = probs.shape[0]
        k, n = normals.shape
        out = np.empty(batch, dtype=np.int64)
        for r in range(batch):
            npos = 0
            for i in range(k):
                acc = 0.0
                for y in range(n):
                    acc += normals[i, y] * probs[r, y]
                if acc > BOUNDARY_TOL:
                    npos += 1
            out[r] = npos + 1
        return out


def backend_name() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


def _as_c(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def node_root_batch(bp, nodes, probs) -> np.ndarray:
    bp = _as_c(bp)
    nodes = _as_c(nodes)
    probs = _as_c(probs)
    if _HAVE_NUMBA:
        return _node_root_batch_nb(bp, nodes, probs)
    return _node_root_batch_np(bp, nodes, probs)


def roe_batch(normals, probs) -> np.ndarray:
    normals = _as_c(normals)
    probs = _as_c(probs)
    if _HAVE_NUMBA:
        return _roe_batch_nb(normals, probs)
    return _roe_batch_np(normals, probs)


def region_index_batch(normals, probs) -> np.ndarray:
    normals = _as_c(normals)
    probs = _as_c(probs)
    if _HAVE_NUMBA:
        return _region_index_batch_nb(normals, probs)
    return _region_index_batch_np(normals, probs)
