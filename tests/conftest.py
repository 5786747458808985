import numpy as np
import pytest

from ordelic._kernels import BOUNDARY_TOL
from ordelic.embedding import build_envelope_loss, build_surrogate
from ordelic.normals import build_from_spec
from ordelic.properties import AffineBoundary, CostMatrix, spec_from_boundaries
from ordelic.simplex import as_simplex_points

EQ1_COSTS = [[0.0, 3.0, 5.0], [1.0, 0.0, 3.0], [3.0, 1.0, 0.0]]
EQ1_PHI = np.array([0.0, 1.0, 3.0])
SQ14 = np.sqrt(14.0)
O1 = np.array([-1.0, 3.0, 2.0]) / SQ14
O2 = np.array([-2.0, -1.0, 3.0]) / SQ14


@pytest.fixture(scope="session")
def fixture_cost() -> CostMatrix:
    return CostMatrix(EQ1_COSTS)


@pytest.fixture(scope="session")
def fixture_boundaries():
    # lower-report side is <c, p> <= b
    return [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]


@pytest.fixture(scope="session")
def fixture_embedding(fixture_cost):
    return build_surrogate(build_envelope_loss(fixture_cost, EQ1_PHI, 3.0))


@pytest.fixture(scope="session")
def fixture_normals_spec(fixture_boundaries):
    return spec_from_boundaries(fixture_boundaries)


@pytest.fixture(scope="session")
def fixture_normals(fixture_normals_spec):
    return build_from_spec(fixture_normals_spec)


def bisect_expected_root(v_per_outcome, probs, lo=-20.0, hi=20.0, iters=80):
    """Independent vectorized bisection oracle for expected-identification
    roots; assumes a sign change on [lo, hi]."""
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))

    def ev(u):
        acc = np.zeros(len(probs))
        for y, v in enumerate(v_per_outcome):
            acc += probs[:, y] * v(u)
        return acc

    lo_v = np.full(len(probs), lo)
    hi_v = np.full(len(probs), hi)
    assert np.all(ev(lo_v) <= 0) and np.all(ev(hi_v) >= 0)
    for _ in range(iters):
        mid = 0.5 * (lo_v + hi_v)
        below = ev(mid) < 0
        lo_v = np.where(below, mid, lo_v)
        hi_v = np.where(below, hi_v, mid)
    return 0.5 * (lo_v + hi_v)


def node_root_batch(bp, nodes, probs) -> np.ndarray:
    """Independent oracle for the property kernel: roots of
    u -> sum_y p_y v(u, y) for each row of ``probs``, with the piece chosen
    by exact signs rather than a tolerance.

    ``bp``: (m,) shared breakpoints; ``nodes``: (n, m) values of v(bp_l, y);
    outside the grid every v continues with unit slope.  The expected value is
    assumed to change sign exactly once; flat root intervals return their
    midpoint.
    """
    bp = np.asarray(bp, dtype=np.float64)
    M = np.asarray(probs, dtype=np.float64) @ np.asarray(nodes, dtype=np.float64)
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


def region_index(normals, probs) -> np.ndarray:
    """1-based region of each row of ``probs`` under oriented normals; a
    boundary tie resolves to the lower region."""
    return (np.asarray(probs) @ normals.o.T > BOUNDARY_TOL).sum(axis=1) + 1


def from_ternary_plot(xy) -> np.ndarray:
    """Simplex point of ternary-plot coordinates: the inverse of
    :func:`ordelic.simplex.ternary_plot_coords`."""
    xy = np.asarray(xy, dtype=np.float64)
    p2 = xy[..., 1] * 2.0 / np.sqrt(3.0)
    p3 = xy[..., 0] - 0.5 * p2
    p = np.stack([1.0 - p2 - p3, p2, p3], axis=-1)
    return as_simplex_points(p.reshape(-1, 3)).reshape(p.shape)


class Antiderivative:
    """The antiderivative F of a PiecewiseAffine v with F(0) = 0, continuous
    across the breakpoints; ``coeffs`` rows are (c2, c1, c0) per piece."""

    def __init__(self, v):
        bp, a, c = v.breakpoints, v.slopes, v.intercepts
        jumps = (0.5 * a[:-1] * bp + c[:-1]) * bp - (0.5 * a[1:] * bp + c[1:]) * bp
        const = np.concatenate([[0.0], np.cumsum(jumps)])
        const -= const[np.searchsorted(bp, 0.0)]
        self.breakpoints = bp
        self.coeffs = np.column_stack([0.5 * a, c, const])

    def __call__(self, u):
        c2, c1, c0 = self.coeffs[np.searchsorted(self.breakpoints, u)].T
        return (c2 * u + c1) * u + c0

    def derivative_interval(self, u: float) -> tuple[float, float]:
        """(left, right) derivative at u."""
        c2, c1, _ = self.coeffs[[np.searchsorted(self.breakpoints, u, side=side)
                                 for side in ("left", "right")]].T
        return tuple((2.0 * c2 * u + c1).tolist())
