import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import O1
from ordelic._kernels import backend_name, node_root_batch, roe_batch
from ordelic.normals import build_from_spec
from ordelic.properties import (
    AffineBoundary,
    random_orderable_spec,
    sample_boundary,
    spec_from_boundaries,
)
from ordelic.simplex import sample_simplex


def test_backend_name_is_known():
    assert backend_name() == "numpy"


class TestBackendAgreement:
    """Kernel values on hand-checked inputs."""

    def test_node_root_flat_interval(self):
        # expectation flat at zero over [0, 1]: midpoint root
        bp = np.array([0.0, 1.0])
        nodes = np.array([[0.0, 0.0]])
        probs = np.array([[1.0]])
        assert node_root_batch(bp, nodes, probs)[0] == pytest.approx(0.5)

    def test_node_root_outside_grid(self):
        # all node expectations positive: root on the unit-slope left tail
        bp = np.array([0.0, 1.0])
        nodes = np.array([[2.0, 3.0]])
        probs = np.array([[1.0]])
        assert node_root_batch(bp, nodes, probs)[0] == pytest.approx(-2.0)
        nodes = np.array([[-3.0, -2.0]])
        assert node_root_batch(bp, nodes, probs)[0] == pytest.approx(3.0)

    def test_roe_degenerate_denominator_raises(self):
        # opposed consecutive normals make the straddling denominator negative
        bad = np.stack([-O1, O1])
        p = np.array([[0.05, 0.9, 0.05]])
        assert float(p[0] @ O1) > 0  # ensures the middle branch is taken
        with pytest.raises(FloatingPointError):
            roe_batch(bad, p)


def test_node_root_exact_at_a_zero_first_node():
    # no negative node and a zero first one: the root is that node exactly,
    # whatever the other rows of the batch hold
    bp = np.array([0.5, 1.25, 3.0])
    nodes = np.array([[0.0, 0.1, 0.7], [-0.3, -0.2, 0.1], [-0.4, 0.3, 0.9]])
    assert node_root_batch(bp, nodes, np.eye(3))[0] == 0.5
    # a one-node grid is all tails
    for v, root in ((0.25, -0.25), (-0.75, 0.75), (0.0, 0.0)):
        assert node_root_batch([0.0], [[v]], [[1.0]])[0] == root


@functools.cache
def _normals_surrogate(n: int):
    if n == 3:
        spec = spec_from_boundaries([AffineBoundary([-3, 1, 0], -2.0),
                                     AffineBoundary([-5, -4, 0], -3.0)])
    else:
        spec = random_orderable_spec(n, 4, seed=n)[0]
    return build_from_spec(spec)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([3, 5]), seed=st.integers(0, 2**20))
def test_roe_matches_node_root(n, seed):
    """The closed-form ratio of expectations and the identification root on
    the surrogate's node matrix are one property, off and on the boundaries."""
    s = _normals_surrogate(n)
    pts = [sample_simplex(n, 200, seed)]
    pts += [sample_boundary(o, 20, seed + i) for i, o in enumerate(s.normals.o)]
    P = np.concatenate(pts)
    a = roe_batch(s.normals.o, P)
    b = node_root_batch(s.grid, s.nodes, P)
    assert np.max(np.abs(a - b)) <= 1e-12 * (1.0 + np.abs(a).max())
