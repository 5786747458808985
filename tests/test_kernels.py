import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    EQ1_COSTS,
    EQ1_PHI,
    O1,
    node_root_batch,
    normals_from_boundaries,
    random_orderable_spec,
)
from ordelic._kernels import backend_name, roe_batch
from ordelic.embedding import EmbeddingInput, build_surrogate
from ordelic.errors import OrderabilityError
from ordelic.normals import build_from_normals
from ordelic.properties import AffineBoundary, CostMatrix, _slice_vertex_sets
from ordelic.simplex import sample_simplex


def test_backend_name_is_known():
    assert backend_name() == "numpy"


class TestBackendAgreement:
    """Kernel values on hand-checked inputs."""

    def test_node_root_flat_interval(self):
        # expectation flat at zero over [0, 1]: midpoint root
        assert roe_batch([0.0, 1.0], [[0.0, 0.0]], [[1.0]])[0] == 0.5
        # a flat run in the middle of a longer grid, and one in the tie band,
        # |<h_l, p>| <= BOUNDARY_TOL ||h_l||
        bp = [0.0, 1.0, 2.0, 4.0]
        assert roe_batch(bp, [[-1.0, 0.0, 0.0, 1.0]], [[1.0]])[0] == 1.5
        nodes = [[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0 - 2e-11, 1.0 + 3e-11, 1.0]]
        assert roe_batch(bp, nodes, [[0.5, 0.5]])[0] == 1.5
        # the band scales with the node column: tiny nodes are no flat run,
        # and the root is their ratio of expectations
        assert roe_batch(bp, [[-1.0, -1e-11, 3e-11, 1.0]], [[1.0]])[0] == 1.25

    def test_node_root_outside_grid(self):
        # all node expectations positive: root on the unit-slope left tail
        bp = np.array([0.0, 1.0])
        nodes = np.array([[2.0, 3.0]])
        probs = np.array([[1.0]])
        assert roe_batch(bp, nodes, probs)[0] == pytest.approx(-2.0)
        nodes = np.array([[-3.0, -2.0]])
        assert roe_batch(bp, nodes, probs)[0] == pytest.approx(3.0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6])
    def test_below_the_band_of_the_first_node(self, scale):
        """A score below 0 in the band of node 0 puts the root on piece 0,
        at its ratio of expectations, however small a + b is against
        ||h_0||: nodes (-5000.5, -1), (0, 1), (0, 0) on the grid (0, 0.5)
        times s, at p = (e, e + d, 1 - 2e - d) with e = 1e-13, d = 2e-10,
        give s / 2 * 5000.5 e / (5000.5 e + d), the root of the expected
        identification there.  The unit-slope tail read 5e-10 / s, and the
        guard on a + b raised."""
        e, d = 1e-13, 2e-10
        nodes = np.array([[-5000.5, -1.0], [0.0, 1.0], [0.0, 0.0]]) / scale
        got = roe_batch(np.array([0.0, 0.5]) * scale, nodes, [[e, e + d, 1 - 2 * e - d]])[0]
        assert got == pytest.approx(0.5 * scale * 5000.5 * e / (5000.5 * e + d), rel=1e-9)

    def test_roe_degenerate_denominator_raises(self):
        # opposed consecutive normals make the straddling denominator
        # negative: an OrderabilityError, which the CLI reports as exit 2
        bad = np.stack([-O1, O1])
        p = np.array([[0.05, 0.9, 0.05]])
        assert float(p[0] @ O1) > 0  # ensures the middle branch is taken
        with pytest.raises(OrderabilityError, match="denominator below tolerance"):
            roe_batch([0.0, 1.0], -bad.T, p)


def test_node_root_exact_at_a_zero_first_node():
    # no negative node and a zero first one: the root is that node exactly,
    # whatever the other rows of the batch hold
    bp = np.array([0.5, 1.25, 3.0])
    nodes = np.array([[0.0, 0.1, 0.7], [-0.3, -0.2, 0.1], [-0.4, 0.3, 0.9]])
    assert roe_batch(bp, nodes, np.eye(3))[0] == 0.5
    # a one-node grid is all tails
    for v, root in ((0.25, -0.25), (-0.75, 0.75), (0.0, 0.0)):
        assert roe_batch([0.0], [[v]], [[1.0]])[0] == root


@functools.cache
def _surrogate(kind: str, n: int):
    """The README fixture (n = 3) or random_orderable_spec(n, 4, n), built by
    either construction."""
    if n == 3:
        cost, phi = CostMatrix(EQ1_COSTS), EQ1_PHI
        bds = [AffineBoundary([-3, 1, 0], -2.0), AffineBoundary([-5, -4, 0], -3.0)]
    else:
        bds, cost, phi = random_orderable_spec(n, 4, seed=n)
    if kind == "normals":
        return build_from_normals(normals_from_boundaries(bds))
    return build_surrogate(EmbeddingInput(cost, phi))


def _slice_points(s, count: int, seed: int) -> np.ndarray:
    """Vertices of the node-column slices {<nodes[:, l], p> = 0} and random
    convex combinations of them, which lie on the slices as well."""
    rng = np.random.default_rng(seed)
    out = []
    for V in _slice_vertex_sets(s.nodes.T):
        if len(V):
            out += [V, rng.dirichlet(np.ones(len(V)), count) @ V]
    return np.concatenate(out)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["normals", "embedding"]), n=st.integers(3, 8),
       seed=st.integers(0, 2**20))
def test_roe_matches_node_root(kind, n, seed):
    """The kernel's ratio of expectations on the tie-tolerant piece and the
    exact-sign node root oracle are one property, at the simplex vertices,
    off the slices and on them."""
    s = _surrogate(kind, n)
    P = np.concatenate([np.eye(n), sample_simplex(n, 200, seed),
                        _slice_points(s, 20, seed)])
    a = s.gamma_many(P)
    b = node_root_batch(s.grid, s.nodes, P)
    assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.abs(a).max())
