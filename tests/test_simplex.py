import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_ternary_plot
from ordelic.audit import _bin
from ordelic.errors import SimplexError, SpecError
from ordelic.simplex import (
    LabeledDataset,
    as_simplex_point,
    as_simplex_points,
    norm_order,
    sample_simplex,
    ternary_plot_coords,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def norm_distance(a, b, kind) -> float:
    """The audits' distance: numpy's norm of the order ``norm_order`` gives."""
    return float(np.linalg.norm(np.subtract(a, b), ord=norm_order(kind)))


def test_vertex_distances_attain_diameters():
    assert norm_distance(E1, E2, 1) == pytest.approx(2.0)
    assert norm_distance(E1, E2, 2) == pytest.approx(np.sqrt(2.0))
    assert norm_distance(E1, E2, "linf") == pytest.approx(1.0)


def test_distance_identity_and_symmetry():
    c = np.full(3, 1 / 3)
    for k in (1, 2, "linf"):
        assert norm_distance(c, c, k) == 0.0
    a, b = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.2, 0.7])
    assert norm_distance(a, b, 2) == norm_distance(b, a, 2)


def test_norm_order_parsing():
    assert norm_order("l1") == 1.0
    assert norm_order("L2") == 2.0
    assert norm_order("linf") == np.inf
    assert norm_order(np.inf) == np.inf
    with pytest.raises(SpecError):
        norm_order("l3")
    with pytest.raises(SpecError):
        norm_order(7)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(seed):
    a, b, c = sample_simplex(4, 3, seed)
    for k in (1, 2, np.inf):
        lhs = norm_distance(a, c, k)
        rhs = norm_distance(a, b, k) + norm_distance(b, c, k)
        assert lhs <= rhs + 1e-12


def test_as_simplex_point_accepts_within_tolerance():
    p = as_simplex_point(np.array([0.5, 0.5, 1e-13 - 1e-13]))
    assert p.sum() == pytest.approx(1.0, abs=0)
    q = as_simplex_point(np.array([0.3, 0.7 + 5e-13, -5e-13]))
    assert np.all(q >= 0)
    assert q.sum() == pytest.approx(1.0, abs=1e-15)


def test_as_simplex_point_rejects_outside_tolerance():
    with pytest.raises(SimplexError):
        as_simplex_point(np.array([0.6, 0.6, -0.2]))
    with pytest.raises(SimplexError):
        as_simplex_point(np.array([0.5, 0.4, 0.2]))
    with pytest.raises(SimplexError):
        as_simplex_point(np.array([1.0]))


@pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0],
                                 [0.5, 0.5, -np.inf]])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(SimplexError, match="finite"):
        as_simplex_point(np.array(bad))
    with pytest.raises(SimplexError, match="finite"):
        as_simplex_points(np.array([[0.2, 0.3, 0.5], bad]))


def test_batch_validation_matches_scalar():
    P = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    out = as_simplex_points(P)
    assert out.shape == (2, 3)
    with pytest.raises(SimplexError):
        as_simplex_points(np.array([[0.2, 0.2, 0.2]]))


def test_sampling_is_deterministic_and_uniform():
    a = sample_simplex(3, 1000, seed=5)
    b = sample_simplex(3, 1000, seed=5)
    assert np.array_equal(a, b)
    big = sample_simplex(3, 100_000, seed=6)
    assert np.allclose(big.mean(axis=0), 1 / 3, atol=0.01)


def test_sampling_first_coordinate_beta_ks():
    n = 3
    x = np.sort(sample_simplex(n, 100_000, seed=9)[:, 0])
    # first coordinate of a uniform simplex point is Beta(1, n-1)
    cdf = 1.0 - (1.0 - x) ** (n - 1)
    emp = np.arange(1, len(x) + 1) / len(x)
    ks = np.max(np.abs(cdf - emp))
    assert ks < 0.01


def test_sampling_validates_inputs():
    with pytest.raises(SpecError):
        sample_simplex(1, 5, 0)
    with pytest.raises(SpecError):
        sample_simplex(3, 0, 0)


def test_ternary_plot_round_trip():
    pts = sample_simplex(3, 50, seed=2)
    xy = ternary_plot_coords(pts)
    back = from_ternary_plot(xy)
    assert np.allclose(back, pts, atol=1e-12)
    # vertex placement
    assert np.allclose(ternary_plot_coords(np.array([1.0, 0, 0])), [0, 0])
    assert np.allclose(ternary_plot_coords(np.array([0, 0, 1.0])), [1, 0])
    assert np.allclose(ternary_plot_coords(np.array([0, 1.0, 0])),
                       [0.5, np.sqrt(3) / 2])


def test_empirical_conditional_counts():
    data = LabeledDataset(["a", "a", "a"], [1, 1, 2], 3)
    bins = _bin(data, ["bin"])
    assert bins.keys.tolist() == ["bin"]
    assert np.allclose(bins.cond[0], [2 / 3, 1 / 3, 0.0])
    assert bins.empty == ()


def test_empirical_conditional_disjoint_bins():
    data = LabeledDataset(["a", "b"], [1, 3], 3)
    bins = _bin(data, [{"a": "bin1", "b": "bin2"}[x] for x in data.keys])
    assert bins.keys.tolist() == ["bin1", "bin2"]
    assert np.allclose(bins.cond[0], [1, 0, 0])
    assert np.allclose(bins.cond[1], [0, 0, 1])


def test_empirical_conditional_reports_empty_bins():
    # a bin whose only feature has zero mass is reported empty
    data = LabeledDataset(["a", "zzz"], [1, 1], 3, weights=[1.0, 0.0])
    bins = _bin(data, [{"a": "used", "zzz": "unused"}[x] for x in data.keys])
    assert bins.keys.tolist() == ["used"]
    assert bins.empty == ("unused",)


def test_empirical_conditional_respects_weights():
    data = LabeledDataset(
        np.array(["a", "a"], dtype=object), np.array([1, 2]), 3,
        weights=np.array([3.0, 1.0]))
    bins = _bin(data, [0])
    assert np.allclose(bins.cond[0], [0.75, 0.25, 0.0])


def test_dataset_validation():
    with pytest.raises(SpecError):
        LabeledDataset(np.array([], dtype=object), np.array([], dtype=int), 3)
    with pytest.raises(SpecError):
        LabeledDataset(["a"], [4], 3)
    with pytest.raises(SpecError):
        LabeledDataset(["a"], [0], 3)
    with pytest.raises(SpecError):
        LabeledDataset(np.array(["a"], dtype=object), np.array([1]), 3,
                       weights=np.array([-1.0]))


def test_exact_scenario_dataset():
    cond = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0]])
    data = LabeledDataset.from_exact_scenario(["x", "y"], [0.4, 0.6], cond)
    got = _bin(data, data.keys)
    assert got.keys.tolist() == ["x", "y"]
    assert np.allclose(got.cond, cond)
    # zero-probability (feature, label) pairs are not materialized
    assert len(data) == 4
