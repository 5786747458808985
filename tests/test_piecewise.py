"""Piecewise-affine identification functions: the ``v_bar`` pieces that
surrogate files spell out, their antiderivative oracle, and their roots
through the property kernel."""

import numpy as np
import pytest

from conftest import AffinePieces, Antiderivative, bisect_expected_root
from ordelic._kernels import roe_batch
from ordelic.errors import SpecError
from ordelic.serialize import _check_continuity, interpolate

# identification function nodes of the three-outcome fixture on {0,1/2,1,2,3}
GRID = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
NODES = {
    1: np.array([0.0, 1.0, 1.0, 1.0, 2.0]),
    2: np.array([-3.0, -3.0, 0.0, 0.5, 1.75]),
    3: np.array([-2.5, -2.0, -1.75, -1.5, 0.0]),
}


def vbar(y):
    return AffinePieces.through(GRID, NODES[y], 1.0, 1.0)


class TestInterpolate:
    def test_interpolates_with_affine_tails(self):
        a, c = interpolate(GRID, np.stack([NODES[1], NODES[2]]))
        v = AffinePieces(GRID, a[0], c[0])
        assert v(0.25) == pytest.approx(0.5)
        assert v(1.5) == pytest.approx(1.0)
        assert v(-2.0) == pytest.approx(-2.0)  # unit left tail
        assert v(4.0) == pytest.approx(3.0)    # unit right tail
        assert v(GRID).tolist() == NODES[1].tolist()
        assert AffinePieces(GRID, a[1], c[1])(GRID).tolist() == NODES[2].tolist()

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(SpecError, match="pieces disagree at a breakpoint"):
            _check_continuity(np.array([0.0]), np.array([1.0, 1.0]), np.array([0.0, 0.5]))


class TestIntegration:
    """The antiderivative oracle behind the integrated-loss checks."""

    def test_fixture_antiderivative(self):
        # integral of the first outcome's interpolated identification:
        # u^2/2, u^2, u - 1/4, u^2/2 - u + 7/4 on the successive pieces
        L = Antiderivative(vbar(1))
        assert L(0.0) == 0.0
        assert L(-2.0) == pytest.approx(2.0)       # u^2/2
        assert L(0.25) == pytest.approx(0.0625)    # u^2
        assert L(1.5) == pytest.approx(1.25)       # u - 1/4
        assert L(2.5) == pytest.approx(2.375)      # u^2/2 - u + 7/4
        c = L.coeffs
        assert np.allclose(c[0], [0.5, 0.0, 0.0])
        assert np.allclose(c[1], [1.0, 0.0, 0.0])
        # the flat piece of the integrand spans two grid cells
        assert np.allclose(c[2], [0.0, 1.0, -0.25])
        assert np.allclose(c[3], [0.0, 1.0, -0.25])
        assert np.allclose(c[4], [0.5, -1.0, 1.75])

    def test_zero_integrand(self):
        v = AffinePieces([0.0], np.zeros(2), np.zeros(2))
        L = Antiderivative(v)
        assert np.all(L(np.linspace(-3, 3, 11)) == 0.0)

    def test_linear_integrand(self):
        v = AffinePieces([0.0], np.ones(2), np.zeros(2))
        L = Antiderivative(v)
        us = np.linspace(-3, 3, 13)
        assert np.allclose(L(us), us**2 / 2)

    def test_derivative_recovers_integrand(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bp = np.sort(rng.uniform(-2, 2, size=4))
            bp += np.arange(4) * 1e-3  # enforce strict increase
            vals = np.sort(rng.uniform(-2, 2, size=4))
            v = AffinePieces.through(bp, vals, 0.5, 2.0)
            L = Antiderivative(v)
            for u in rng.uniform(-3, 3, size=30):
                if np.min(np.abs(bp - u)) < 1e-9:
                    continue
                dl, dr = L.derivative_interval(float(u))
                assert dl == pytest.approx(dr, abs=1e-10)
                assert dl == pytest.approx(float(v(u)), abs=1e-10)


class TestExpectedRoot:
    """Roots of the expected identification through the batch kernel."""

    def test_vertex_roots(self):
        nodes = np.stack([NODES[1], NODES[2], NODES[3]])
        roots = roe_batch(GRID, nodes, np.eye(3))
        assert roots == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)

    def test_flat_interval_midpoint(self):
        assert roe_batch([0.0, 1.0], [[0.0, 0.0]], [[1.0]])[0] == pytest.approx(0.5)

    def test_agrees_with_bisection(self):
        vs = [vbar(1), vbar(2), vbar(3)]
        rng = np.random.default_rng(3)
        e = rng.standard_exponential((2000, 3))
        probs = e / e.sum(axis=1, keepdims=True)
        oracle = bisect_expected_root(vs, probs)
        got = roe_batch(GRID, np.stack([v(GRID) for v in vs]), probs)
        assert np.max(np.abs(got - oracle)) < 1e-8
