import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Antiderivative, bisect_expected_root
from ordelic._kernels import roe_batch
from ordelic.errors import SpecError
from ordelic.piecewise import MaxAffinePieces, PiecewiseAffine, lower_convex_envelope

# identification function nodes of the three-outcome fixture on {0,1/2,1,2,3}
GRID = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
NODES = {
    1: np.array([0.0, 1.0, 1.0, 1.0, 2.0]),
    2: np.array([-3.0, -3.0, 0.0, 0.5, 1.75]),
    3: np.array([-2.5, -2.0, -1.75, -1.5, 0.0]),
}


def vbar(y):
    return PiecewiseAffine.from_nodes(GRID, NODES[y], 1.0, 1.0)


def loss1():
    return MaxAffinePieces(np.array([[-3.0, 0.0], [1.0, 0.0], [3.0, -6.0]]))


class TestPiecewiseAffine:
    def test_from_nodes_interpolates(self):
        v = vbar(1)
        assert v(0.25) == pytest.approx(0.5)
        assert v(1.5) == pytest.approx(1.0)
        assert v(-2.0) == pytest.approx(-2.0)  # unit left tail
        assert v(4.0) == pytest.approx(3.0)    # unit right tail

    def test_breakpoints_must_increase(self):
        with pytest.raises(SpecError):
            PiecewiseAffine(np.array([1.0, 1.0]), np.zeros(3), np.zeros(3))

    def test_discontinuous_pieces_rejected(self):
        with pytest.raises(SpecError):
            PiecewiseAffine(np.array([0.0]), np.array([1.0, 1.0]),
                            np.array([0.0, 0.5]))

    def test_derivative_interval(self):
        v = vbar(1)
        assert v.derivative_interval(0.25) == (2.0, 2.0)
        assert v.derivative_interval(0.5) == (2.0, 0.0)
        assert v.derivative_interval(3.0) == (1.0, 1.0)


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
        v = PiecewiseAffine(np.array([0.0]), np.zeros(2), np.zeros(2))
        L = Antiderivative(v)
        assert np.all(L(np.linspace(-3, 3, 11)) == 0.0)

    def test_linear_integrand(self):
        v = PiecewiseAffine(np.array([0.0]), np.ones(2), np.zeros(2))
        L = Antiderivative(v)
        us = np.linspace(-3, 3, 13)
        assert np.allclose(L(us), us**2 / 2)

    def test_derivative_recovers_integrand(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            bp = np.sort(rng.uniform(-2, 2, size=4))
            bp += np.arange(4) * 1e-3  # enforce strict increase
            vals = np.sort(rng.uniform(-2, 2, size=4))
            v = PiecewiseAffine.from_nodes(bp, vals, 0.5, 2.0)
            L = Antiderivative(v)
            for u in rng.uniform(-3, 3, size=30):
                if np.min(np.abs(bp - u)) < 1e-9:
                    continue
                dl, dr = L.derivative_interval(float(u))
                assert dl == pytest.approx(dr, abs=1e-10)
                assert dl == pytest.approx(float(v(u)), abs=1e-10)


class TestSubgradient:
    def test_max_affine_kink_left_right(self):
        assert loss1().derivative_interval(0.0) == (-3.0, 1.0)
        assert loss1().derivative_interval(3.0) == (1.0, 3.0)
        assert loss1().derivative_interval(0.5) == (1.0, 1.0)


class TestLowerConvexEnvelope:
    def test_collinear_points_single_chord(self):
        chords = lower_convex_envelope([(0, 0), (1, 1), (3, 3)])
        assert chords == [(1.0, 0.0)]

    def test_fixture_second_outcome(self):
        chords = lower_convex_envelope([(0, 3), (1, 0), (3, 1)])
        assert chords == [(-3.0, 3.0), (0.5, -0.5)]

    def test_fixture_third_outcome(self):
        chords = lower_convex_envelope([(0, 5), (1, 3), (3, 0)])
        assert chords == [(-2.0, 5.0), (-1.5, 4.5)]

    def test_input_validation(self):
        with pytest.raises(SpecError):
            lower_convex_envelope([(0, 0), (0, 1)])
        with pytest.raises(SpecError):
            lower_convex_envelope([(1, 0), (0, 1)])
        with pytest.raises(SpecError):
            lower_convex_envelope([(0, 0)])

    @given(st.lists(st.floats(min_value=-5, max_value=5), min_size=3,
                    max_size=8, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_slopes_nondecreasing_and_below_points(self, us):
        us = sorted(us)
        if min(np.diff(us)) < 1e-6:
            return
        rng = np.random.default_rng(abs(hash(tuple(us))) % 2**32)
        vs = rng.uniform(-3, 3, size=len(us))
        chords = lower_convex_envelope(list(zip(us, vs)))
        slopes = [a for a, _ in chords]
        assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))
        for u, v in zip(us, vs):
            below = max(a * u + b for a, b in chords)
            assert below <= v + 1e-9

    def test_strictly_convex_points_give_strict_slopes(self):
        us = np.linspace(0, 2, 6)
        chords = lower_convex_envelope(list(zip(us, us**2)))
        slopes = [a for a, _ in chords]
        assert all(s2 > s1 for s1, s2 in zip(slopes, slopes[1:]))


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
