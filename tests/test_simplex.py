import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bins_by_key, from_ternary_plot, simplex_points_reference
from ordelic.errors import SimplexError, SpecError
from ordelic.scenario import ScenarioSpec, exact_dataset
from ordelic.simplex import (
    SIMPLEX_TOL,
    LabelCounts,
    _row_sums,
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
    assert norm_distance(E1, E2, "l1") == pytest.approx(2.0)
    assert norm_distance(E1, E2, "l2") == pytest.approx(np.sqrt(2.0))
    assert norm_distance(E1, E2, "linf") == pytest.approx(1.0)


def test_distance_identity_and_symmetry():
    c = np.full(3, 1 / 3)
    for k in ("l1", "l2", "linf"):
        assert norm_distance(c, c, k) == 0.0
    a, b = np.array([0.5, 0.3, 0.2]), np.array([0.1, 0.2, 0.7])
    assert norm_distance(a, b, "l2") == norm_distance(b, a, "l2")


def test_norm_order_parsing():
    """Each norm has one spelling, the --norm choice; any other is refused
    with a message that lists them."""
    assert norm_order("l1") == 1.0
    assert norm_order("l2") == 2.0
    assert norm_order("linf") == np.inf
    for other in ("L2", np.inf, 2, "2", "inf", " l2", "l3", 7, ["l2"]):
        with pytest.raises(SpecError, match="expected 'l1', 'l2' or 'linf'"):
            norm_order(other)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_triangle_inequality(seed):
    a, b, c = sample_simplex(4, 3, seed)
    for k in ("l1", "l2", "linf"):
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
    with pytest.raises(SimplexError, match=r">= 2 entries, got shape \(2, 1\)"):
        as_simplex_points(np.ones((2, 1)))


@pytest.mark.parametrize("rows,row,reason", [
    ([[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [np.nan, 0.5, 0.5]], 1,
     "entries outside [0, 1] beyond tolerance: [ 0.6  0.6 -0.2]"),
    ([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5], [np.nan, 0.5, 0.5]], 2,
     "entries are not all finite: [nan 0.5 0.5]"),
    ([[0.5, 0.4, 0.2], [0.6, 0.6, -0.2]], 0,
     "entries [0.5 0.4 0.2] sum to 1.1, not 1 within 1e-12"),
])
def test_batch_error_names_the_first_row_at_fault(rows, row, reason):
    with pytest.raises(SimplexError) as info:
        as_simplex_points(np.array(rows))
    assert (info.value.row, info.value.reason) == (row, reason)
    assert str(info.value) == f"row {row}: {reason}"


# Entries on and just past each edge of the tolerance band, signed zeros and
# the non-finite values.
EDGE_ENTRIES = [0.0, -0.0, 1.0, SIMPLEX_TOL, -SIMPLEX_TOL, 1.0 - SIMPLEX_TOL,
                1.0 + SIMPLEX_TOL, np.nextafter(-SIMPLEX_TOL, -1.0),
                np.nextafter(1.0 + SIMPLEX_TOL, 2.0), -2.0 * SIMPLEX_TOL,
                np.nan, np.inf, -np.inf]


@st.composite
def simplex_batches(draw):
    """(m, n) batches, n = 2..9, whose rows are probability vectors, rows
    whose total sits near the edge of the tolerance, or rows with one entry
    from ``EDGE_ENTRIES`` or out of range."""
    n, m = draw(st.integers(2, 9)), draw(st.integers(1, 5))
    rows = []
    for _ in range(m):
        w = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)))
        p = w / w.sum() if w.sum() > 0 else np.eye(n)[0]
        kind = draw(st.sampled_from(["point", "total", "entry"]))
        j = draw(st.integers(0, n - 1))
        if kind == "total":
            p[j] += draw(st.sampled_from([-1.0, 1.0])) * SIMPLEX_TOL * draw(
                st.sampled_from([0.5, 1.0 - 1e-6, 1.0, 1.0 + 1e-6, 2.0]))
        elif kind == "entry":
            p[j] = draw(st.sampled_from(EDGE_ENTRIES) | st.floats(-0.5, 1.5))
        rows.append(p)
    return np.array(rows)


def _simplex_outcome(f, x):
    try:
        out = f(x)
    except SimplexError as exc:
        return str(exc), exc.row, exc.reason
    return out.dtype, out.shape, out.tobytes()


@given(simplex_batches())
@settings(max_examples=400, deadline=None)
def test_as_simplex_points_matches_the_reference(P):
    assert _simplex_outcome(as_simplex_points, P) == \
        _simplex_outcome(simplex_points_reference, P)


@pytest.mark.parametrize("x", [
    [0.5, 0.5], [[1.0]], np.ones((0, 3)), [[1, 0, 0], [0, 1, 0]],
    [[0.0, -0.0, 1.0]], [[-0.0, 1.0 + SIMPLEX_TOL]], [[0.5, 0.5 + SIMPLEX_TOL]],
    np.full((3, 4), 0.25), [[0.2, 0.8], [0.5, np.nan], [-1.0, 2.0]],
])
def test_as_simplex_points_matches_the_reference_on_edges(x):
    assert _simplex_outcome(as_simplex_points, x) == \
        _simplex_outcome(simplex_points_reference, x)


@pytest.mark.parametrize("n", range(2, 10))
@pytest.mark.parametrize("edge, fill", [
    (-SIMPLEX_TOL, None), (np.nextafter(-SIMPLEX_TOL, -1.0), None),
    (1.0 + SIMPLEX_TOL, -SIMPLEX_TOL), (np.nextafter(1.0 + SIMPLEX_TOL, 2.0), -SIMPLEX_TOL)])
def test_as_simplex_points_matches_the_reference_at_the_range_edges(n, edge, fill):
    """Rows whose first entry sits on or just past an edge of the range
    tolerance, the other entries making the total 1 up to rounding."""
    row = np.zeros(n)
    row[0] = edge
    if fill is None:
        row[1:] = (1.0 - edge) / (n - 1)
    else:
        row[1] = fill
    P = np.array([np.full(n, 1.0 / n), row])
    assert _simplex_outcome(as_simplex_points, P) == \
        _simplex_outcome(simplex_points_reference, P)


@pytest.mark.parametrize("n", range(2, 13))
@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_row_sums_are_numpys_bit_for_bit(n, layout):
    rng = np.random.default_rng(n)
    P = rng.random((500, n)) * rng.choice([1e-300, 1e-17, 1.0, 1e8, 0.0, -0.0, -1.0],
                                          size=(500, n))
    P[0], P[1, 0], P[2, :2] = -0.0, np.nan, (np.inf, -np.inf)
    if layout == "F":
        P = np.asfortranarray(P)
    elif layout == "strided":
        P = np.repeat(P, 2, axis=1)[:, ::2]
    with np.errstate(invalid="ignore"):  # inf - inf
        assert _row_sums(P).tobytes() == P.sum(axis=1).tobytes()


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
    data = LabelCounts(["a"], [[2.0, 1.0, 0.0]])
    bins = bins_by_key(data, ["bin"])
    assert bins.keys.tolist() == ["bin"]
    assert np.allclose(bins.cond[0], [2 / 3, 1 / 3, 0.0])
    assert bins.empty == ()


def test_empirical_conditional_disjoint_bins():
    data = LabelCounts(["a", "b"], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    bins = bins_by_key(data, [{"a": "bin1", "b": "bin2"}[x] for x in data.keys])
    assert bins.keys.tolist() == ["bin1", "bin2"]
    assert np.allclose(bins.cond[0], [1, 0, 0])
    assert np.allclose(bins.cond[1], [0, 0, 1])


def test_empirical_conditional_reports_empty_bins():
    # a bin whose only feature has zero mass is reported empty
    data = LabelCounts(["a", "zzz"], [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    bins = bins_by_key(data, [{"a": "used", "zzz": "unused"}[x] for x in data.keys])
    assert bins.keys.tolist() == ["used"]
    assert bins.empty == ("unused",)


def test_empirical_conditional_respects_weights():
    data = LabelCounts(["a"], np.array([[3.0, 1.0, 0.0]]))
    bins = bins_by_key(data, [0])
    assert np.allclose(bins.cond[0], [0.75, 0.25, 0.0])


def test_dataset_validation():
    for keys, counts in [((), np.zeros((0, 3))),           # empty
                         (("a",), [[0.0, 0.0, 0.0]]),      # no mass
                         (("a",), [[1.0, -1.0, 1.0]]),     # negative
                         (("a",), [[1.0, np.nan, 1.0]]),   # not finite
                         (("a", "b"), [[1.0, 1.0, 1.0]]),  # a key without counts
                         (("a",), [1.0, 1.0, 1.0])]:       # not a table
        with pytest.raises(SpecError):
            LabelCounts(keys, counts)


def test_exact_scenario_dataset():
    cond = np.array([[0.5, 0.25, 0.25], [0.0, 1.0, 0.0], [0.2, 0.3, 0.5]])
    data = exact_dataset(ScenarioSpec(("x", "y", "z"), [0.4, 0.6, 0.0], cond))
    got = bins_by_key(data, data.keys)
    # a feature of zero weight is left out, as it has no rows
    assert got.keys.tolist() == ["x", "y"]
    assert np.allclose(got.cond, cond[:2])
    assert np.array_equal(data.counts, [[0.2, 0.1, 0.1], [0.0, 0.6, 0.0]])
