"""Calibration estimators and quantitative bound checks.

Three empirical notions are measured against a surrogate property:
distribution calibration (norm distance between a distributional prediction
and its bin's conditional), surrogate calibration (absolute gap between a
scalar prediction and the property of its bin's conditional), and discrete
calibration (probability that the discrete prediction leaves the target set
of its bin's conditional).  Bound checkers relate the three, including the
post-processing inequality, its contraction corollary, the counterexample
generator for too-small Lipschitz constants, and the discretization bound
driven by distance-to-threshold margins.  Each estimator and check returns
its report as the JSON object that ``audit`` prints under ``reports``:
notion, norm, epsilon_hat, bins, data, bounds (each a dict of name, lhs,
rhs, satisfied and params) and, when there are any, extras.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ordelic._kernels import tie_band
from ordelic.errors import DegenerateRangeError, SearchFailure, SpecError
from ordelic.properties import LipschitzMax, Surrogate
from ordelic.simplex import (
    LabelCounts,
    as_simplex_points,
    first_appearance,
    norm_order,
    ternary_plot_coords,
)

_BOUND_SLACK = 1e-9  # in probability; in u, times the largest |u| of the value range
# Least distance of a counterexample point from a node slice, and of the
# pair's points from each other; below it rounding would decide the measured
# ratio.
_WITNESS_MARGIN = 1e-9
_HALVINGS = 60  # scale halvings of a counterexample pair before giving up


def _times_k(K: float, *factors: float) -> float:
    """K times the factors, for a bound's right-hand side; with K = inf (a
    property that is not Lipschitz) the bound says nothing, so inf * 0 is
    inf as well."""
    if K == float("inf"):
        return K
    for x in factors:
        K *= x
    return K


_PREDICTION_DTYPES = {"distribution": np.float64, "scalar": np.float64, "report": np.int64}


@dataclass(frozen=True)
class PredictorTable:
    """Predictions over a finite feature set: row i of ``values`` predicts
    x_id ``keys[i]``.  ``values`` is (features, outcomes) float64 for kind
    'distribution', (features,) float64 for 'scalar' and (features,) int64
    for 'report'.  ``index`` maps each x_id to its row; an x_id listed twice
    predicts its last row, as in a dict."""

    kind: str
    keys: tuple
    values: np.ndarray
    index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dtype = _PREDICTION_DTYPES.get(self.kind)
        if dtype is None:
            raise SpecError(f"unknown predictor kind {self.kind!r}")
        keys, values = tuple(self.keys), np.asarray(self.values, dtype=dtype)
        if values.ndim != (2 if self.kind == "distribution" else 1) \
                or len(values) != len(keys):
            raise SpecError(f"{self.kind} predictions of shape {values.shape} "
                            f"for {len(keys)} x_ids")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "index", dict(zip(keys, range(len(keys)))))

    @classmethod
    def from_mapping(cls, kind: str, table) -> PredictorTable:
        """The table of an x_id -> prediction mapping, in its order."""
        return cls(kind, tuple(table), list(table.values()))

    def __getitem__(self, x_id):
        return self.values[self.index[x_id]]

    def take(self, x_ids) -> np.ndarray:
        """Predictions for ``x_ids``, one row each."""
        return self.values[np.fromiter(map(self.index.__getitem__, x_ids), np.intp,
                                       len(x_ids))]


# ---------------------------------------------------------------------------
# shared binning plumbing
#
# Every prediction and bin key is a function of x_id alone, so an audit reads
# only the (features x outcomes) weighted label counts of a LabelCounts table,
# whose size is O(features) whatever the number of rows.  An audit bins it
# once per binning with bin_predictions; each estimator and bound check is a
# function of those bins, working on per-feature and per-bin arrays, and
# _Bins.report writes the JSON object of its report.


@dataclass(frozen=True)
class _Bins:
    """The features of positive mass of a predictor's data grouped by a key
    of their predictions; bins are numbered by first appearance in
    ``data.keys`` order."""

    table: PredictorTable  # the whole predictor, audited x_ids or not
    pred: np.ndarray    # (live features, ...) predictions
    mass: np.ndarray    # (live features,) mass
    of: np.ndarray      # (live features,) bin index
    keys: np.ndarray    # (bins, ...) bin keys
    counts: np.ndarray  # (bins, outcomes) weighted label counts
    empty: tuple        # keys held only by zero-mass features
    _gammas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def cond(self) -> np.ndarray:
        """(bins, outcomes) empirical conditional of each bin."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    def gamma(self, gamma_eval) -> np.ndarray:
        """``gamma_eval(self.cond)``, evaluated once per bins and evaluator, so
        that the estimators and checks reading one binning share it."""
        if gamma_eval not in self._gammas:
            self._gammas[gamma_eval] = gamma_eval(self.cond)
        return self._gammas[gamma_eval]

    def mean(self, loss) -> float:
        """Mass-weighted mean of a per-live-feature loss."""
        return float(np.sum(self.mass * loss) / np.sum(self.mass))

    def report(self, notion: str, norm: str, loss, bounds=(), extras=None) -> dict:
        """The JSON object ``audit`` prints for one estimator or check: its
        epsilon_hat is the mean of ``loss``, and ``data`` has the total
        weight of the data (its row count for a CSV) and the features of
        positive weight."""
        return {
            "notion": notion,
            "norm": norm,
            "epsilon_hat": self.mean(loss),
            "bins": {"count": len(self.counts),
                     "min_size": float(self.counts.sum(axis=1).min()),
                     "empty": list(self.empty)},
            "data": {"weight": float(np.sum(self.mass)), "features": len(self.mass)},
            "bounds": list(bounds),
            **({"extras": extras} if extras else {}),
        }


def bin_predictions(f: PredictorTable, data: LabelCounts, key=None) -> _Bins:
    """Bin the features of ``data`` by their predictions under ``f``.

    ``key`` maps the (features, ...) array of predictions to one bin key, or
    key row, per feature; by default a bin holds one prediction value.  Every
    estimator and bound check reads the result, so an audit bins its data
    once per binning."""
    n, counts = data.n, data.counts
    mass = counts.sum(axis=1)
    live = mass > 0
    pred = f.take(data.keys)
    keys = pred if key is None else np.asarray(key(pred))
    uniq, inv = np.unique(keys, return_inverse=True,
                          axis=0 if keys.ndim > 1 else None)
    order, of = first_appearance(inv.reshape(-1), len(uniq))
    bin_counts = np.zeros((len(order), n))
    np.add.at(bin_counts, of, counts)
    full = bin_counts.sum(axis=1) > 0
    renumber = np.cumsum(full) - 1
    return _Bins(f, pred[live], mass[live], renumber[of[live]], uniq[order[full]],
                 bin_counts[full], tuple(uniq[order[~full]].tolist()))


def _distance(bins: _Bins, norm, convention: str = "simplex") -> np.ndarray:
    """||f(x) - q|| of each live feature x, q its bin's conditional."""
    p, q = bins.pred, bins.cond[bins.of]
    if convention == "plot":
        p, q = ternary_plot_coords(p), ternary_plot_coords(q)
    return np.linalg.norm(p - q, ord=norm_order(norm), axis=1)


def _gap(bins: _Bins, gamma_eval, u: np.ndarray) -> np.ndarray:
    """|gamma(q) - u| of each live feature, q its bin's conditional."""
    return np.abs(bins.gamma(gamma_eval)[bins.of] - u)


def _member(sets: np.ndarray, reports) -> np.ndarray:
    """sets[b, reports[b] - 1]; False for a report outside the set's range."""
    ok = (reports >= 1) & (reports <= sets.shape[1])
    return ok & sets[np.arange(len(reports)), np.where(ok, reports - 1, 0)]


# ---------------------------------------------------------------------------
# the three calibration estimators


def dist_calibration_wrt(bins: _Bins, norm="l2", convention: str = "simplex") -> dict:
    """Mean norm distance between f(x) and its bin's empirical conditional,
    for the bins of a distributional predictor f.  With convention "plot"
    (3 outcomes only) distances are taken in the ternary plot plane instead
    of raw simplex coordinates."""
    if bins.table.kind != "distribution":
        raise SpecError("distribution calibration needs a distributional predictor")
    return bins.report("distribution", norm, _distance(bins, norm, convention),
                       extras={"convention": convention})


def surrogate_calibration(bins: _Bins, gamma_eval, norm="l2",
                          bin_width: float | None = None) -> dict:
    """Mean |gamma(bin conditional) - g(x)| for the bins of a scalar
    predictor g.  ``gamma_eval`` maps a batch of distributions to property
    values; ``bin_width`` is the width of uniform bins floor(g(x) / width),
    recorded in the report, or None for bins of one value."""
    if bins.table.kind != "scalar":
        raise SpecError("surrogate calibration needs a scalar predictor")
    norm_order(norm)  # refuses a norm other than "l1", "l2" or "linf"
    return bins.report("surrogate", norm, _gap(bins, gamma_eval, bins.pred),
                       extras={"bin_width": bin_width})


def discrete_calibration(bins: _Bins, gamma_set) -> dict:
    """Probability that h(x) is outside the target set of its bin
    conditional, for the bins of a report-valued predictor h.

    ``gamma_set`` maps a batch of distributions to a (rows, reports) mask of
    optimal reports, so boundary conditionals count as matches for either
    adjacent report.
    """
    if bins.table.kind != "report":
        raise SpecError("discrete calibration needs a report-valued predictor")
    hit = _member(gamma_set(bins.cond)[bins.of], bins.pred)
    return bins.report("discrete", "0-1", ~hit)


# ---------------------------------------------------------------------------
# bound checks


def check_postprocessing_bound(bins: _Bins, surrogate: Surrogate,
                               norm="l2") -> dict:
    """Post-processing inequality: the surrogate miscalibration of the scalar
    predictor gamma∘f is at most K times the distribution miscalibration of f
    binned by that same scalar value, with K the exact Lipschitz constant in
    ``norm``.  ``bins`` are those of a distributional predictor f by its
    property value, ``bin_predictions(f, data, surrogate.gamma_many)``, so
    each bin key is the value gamma(f(x)) of its features.  For K < 1, also
    records the stronger contraction inequality (rhs = epsilon itself).
    With K = inf the bound is vacuous and holds."""
    if bins.table.kind != "distribution" or bins.keys.ndim != 1:
        raise SpecError("post-processing bound needs a distributional predictor "
                        "binned by its property value")
    K = surrogate.lipschitz(norm)
    K_exact = surrogate.lipschitz_exact
    eps = bins.mean(_distance(bins, norm))
    gaps = _gap(bins, surrogate.gamma_many, bins.keys[bins.of])
    eps_prime = bins.mean(gaps)
    slack = _BOUND_SLACK * np.abs(surrogate.value_range).max()
    rhs = _times_k(K, eps)
    bounds = [{"name": "postprocessing", "lhs": eps_prime, "rhs": rhs,
               "satisfied": bool(eps_prime <= rhs + slack),
               "params": {"K": K, "K_exact": K_exact, "norm": norm, "epsilon": eps}}]
    if K < 1.0:
        bounds.append({"name": "contraction", "lhs": eps_prime, "rhs": eps,
                       "satisfied": bool(eps_prime <= eps + slack),
                       "params": {"K": K, "K_exact": K_exact, "norm": norm}})
    return bins.report("postprocessing", norm, gaps, bounds,
                       extras={"epsilon_dist": eps, "epsilon_surrogate": eps_prime})


def _clear(nodes: np.ndarray, P: np.ndarray) -> bool:
    """Whether every row of P is clear of every node slice {<h_l, p> = 0}:
    |<h_l, p>| above ``_WITNESS_MARGIN`` ||h_l - mean h_l||, a distance from
    the slice in the simplex's plane, and above twice the kernel's tie band
    (:func:`~ordelic._kernels.tie_band`), so that the kernel takes the
    point's own grid piece."""
    margin = np.maximum(tie_band(nodes - nodes.mean(axis=0), tol=_WITNESS_MARGIN),
                        2 * tie_band(nodes))
    return bool(np.all(np.abs(P @ nodes) > margin))


def _pairs_near_maximizer(nodes: np.ndarray, top: LipschitzMax):
    """Pairs (p, p + rho delta d) for delta = 1/2, 1/4, ..., with
    p = p* + delta (c - p*), p* the maximizer, c the vertex centroid of its
    region and d the unit direction along which the derivative there is K,
    while both points stay ``_WITNESS_MARGIN`` clear of every node slice.
    Every region facet a.x >= 0 holds with a.p >= delta a.c, and rho halves
    the least a.c / -a.d, so the second point stays in the region too; the
    pair's ratio tends to K as delta falls."""
    O = -nodes.T
    m, n = O.shape
    l = top.piece
    A = np.vstack([np.eye(n), *([O[l]] if l >= 0 else []),
                   *([-O[l + 1]] if l < m - 1 else [])])
    c = top.region.mean(axis=0)
    Ac, Ad = A @ c, A @ top.direction
    rho = 0.5 * np.min(Ac[Ad < 0.0] / -Ad[Ad < 0.0], initial=1.0)
    for k in range(1, _HALVINGS):
        delta = 0.5 ** k
        p = top.point + delta * (c - top.point)
        P = as_simplex_points(np.stack([p, p + rho * delta * top.direction]))
        if not _clear(nodes, P):
            return
        yield P


def _pairs_at_shared_point(nodes: np.ndarray, top: LipschitzMax):
    """Pairs (p*, p* + h (c - p*)) for h = 1/2, 1/4, ..., where p* is a
    point shared by two consecutive node slices (K = inf) and c is the
    centroid of the simplex, while the second point stays
    ``_WITNESS_MARGIN`` clear of every node slice.  At p* the kernel returns
    the midpoint of a flat root interval.  Along the ray the scores of the
    nodes through p* scale with h, so the property tends to a value on the
    piece the ray enters, which differs from that midpoint for all but
    special rays: the gap stays while the distance shrinks with h."""
    c = np.full(len(top.point), 1.0 / len(top.point))
    for k in range(1, _HALVINGS):
        P = as_simplex_points(np.stack([top.point,
                                        top.point + 0.5 ** k * (c - top.point)]))
        if not _clear(nodes, P[1:]):
            return
        yield P


def counterexample_gap(surrogate: Surrogate, C: float, norm="l2"):
    """A pair p, q with |gamma(p) - gamma(q)| > C * ||p - q|| in ``norm``.

    Returns (p, q, instance) where the instance is the one-feature scenario
    (prediction p, true conditional q) whose audits certify distribution
    calibration ||p - q|| but surrogate miscalibration above C times that.
    No such pair exists when C is at least the exact Lipschitz constant K
    of the norm, so :class:`SearchFailure` is raised at once.  Below K the
    pair is built next to the maximizer of K (see
    :func:`_pairs_near_maximizer` and, for K = inf,
    :func:`_pairs_at_shared_point`), halving its scale until the ratio,
    measured by ``gamma_many``, exceeds C.  The points stay at least 1e-9
    from each other and, except for the shared point where K = inf, 1e-9
    from every node slice and outside its tie band (:func:`_clear`), so
    the kernel's tie band cannot inflate the ratio;
    when C is too close to K to reach at that margin,
    :class:`SearchFailure` names the best certified ratio.
    """
    C = float(C)
    if np.isnan(C):
        raise SpecError("C must be a number")
    if C < 0:
        raise SpecError(f"C must be at least 0, got {C!r}")
    ordv = norm_order(norm)
    top = surrogate.lipschitz_max(norm)
    if C >= top.K:
        raise SearchFailure(
            f"C = {C!r} is at least the exact {norm} Lipschitz constant "
            f"K = {top.K!r}, so no pair violates it")
    pairs = _pairs_at_shared_point if top.K == np.inf else _pairs_near_maximizer
    best = 0.0
    for P in pairs(surrogate.nodes, top):
        dist = float(np.linalg.norm(P[0] - P[1], ord=ordv))
        if dist < _WITNESS_MARGIN:
            break
        g = surrogate.gamma_many(P)
        ratio = float(abs(g[0] - g[1]) / dist)
        if ratio > C:
            p, q = P
            return p, q, {
                "x_id": "x0",
                "prediction": p.tolist(),
                "conditional": q.tolist(),
                "distribution_epsilon": dist,
                "surrogate_gap": float(abs(g[0] - g[1])),
                "C": C,
                "ratio": ratio,
                "K": top.K,
                "norm": norm,
            }
        best = max(best, ratio)
    raise SearchFailure(
        f"no pair clear of the node slices by {_WITNESS_MARGIN} has a {norm} "
        f"ratio above C = {C!r}; best certified ratio {best!r} against the "
        f"exact Lipschitz constant K = {top.K!r}")


def instance_dataset(instance: dict) -> tuple[PredictorTable, LabelCounts]:
    """Materialize the counterexample as (distributional predictor, label
    counts): its one feature has weight 1 and the instance's conditional."""
    data = LabelCounts((instance["x_id"],), as_simplex_points([instance["conditional"]]))
    f = PredictorTable("distribution", (instance["x_id"],),
                       np.array([instance["prediction"]], dtype=np.float64))
    return f, data


def delta_to_threshold(thresholds, u):
    """Distance from u (a value or an array) to the nearest link threshold."""
    t = np.asarray(thresholds, dtype=np.float64)
    if t.size == 0:
        raise SpecError("threshold set is empty")
    d = np.abs(np.asarray(u, dtype=np.float64)[..., None] - t).min(axis=-1)
    return float(d) if d.ndim == 0 else d


def link_diameter(thresholds, value_range) -> float:
    """Widest preimage interval of the link within the property range."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if hi <= lo:
        raise DegenerateRangeError("property range has zero width")
    t = np.sort(np.asarray(thresholds, dtype=np.float64))
    t = t[(t > lo) & (t < hi)]
    edges = np.concatenate(([lo], t, [hi]))
    return float(np.diff(edges).max())


def check_discretization_bound(
    bins: _Bins,
    surrogate: Surrogate,
    C_marginal: float,
    t_grid=None,
    c_estimated: bool = False,
    norm="l2",
) -> dict:
    """Discretization bound: the discrete mismatch probability of the linked
    prediction is controlled by the threshold-margin tail plus
    (eps' + K*C*diam)/t, minimized over t.

    ``bins`` are those of a scalar predictor g by its values,
    ``bin_predictions(g, data)``; the least threshold margin delta_min is
    taken over the whole image of g.  ``C_marginal`` is the assumed
    Lipschitz constant, in ``norm``, of the map from a prediction value to
    its bin's conditional distribution; it is an input assumption, not
    something certified from data.  K is the exact Lipschitz constant of the
    property in the same norm.  With K = inf the bound is vacuous and holds.
    """
    if bins.table.kind != "scalar":
        raise SpecError("discretization bound needs a scalar predictor")
    K = surrogate.lipschitz(norm)
    thresholds = surrogate.thresholds
    lo, hi = surrogate.value_range
    diam = link_diameter(thresholds, (lo, hi))

    image = bins.table.values
    if not image.size:
        raise SpecError("predictor image is empty")
    delta_min = float(delta_to_threshold(thresholds, image).min())

    u = bins.pred
    eps_prime = bins.mean(_gap(bins, surrogate.gamma_many, u))
    miss = ~_member(surrogate.discrete_set_many(bins.cond)[bins.of],
                    surrogate.link_many(u))
    lhs = bins.mean(miss)
    deltas = delta_to_threshold(thresholds, u)

    width = hi - lo
    if t_grid is None:
        t_low = max(delta_min / 10.0, 1e-9 * width)
        t_grid = np.geomspace(t_low, width, 20)
    ts = np.unique(np.concatenate([np.asarray(t_grid, dtype=np.float64),
                                   [delta_min] if delta_min > 0 else []]))
    ts = ts[ts > 0]
    numer = eps_prime + _times_k(K, C_marginal, diam)
    tails = np.where(deltas < ts[:, None], bins.mass, 0.0).sum(axis=1) / bins.mass.sum()
    rhs = tails + numer / ts
    best = int(np.argmin(rhs))
    best_rhs, best_t = float(rhs[best]), float(ts[best])
    vacuous = bool(best_rhs >= 1.0)
    bound = {
        "name": "discretization",
        "lhs": lhs,
        "rhs": best_rhs,
        "satisfied": bool(lhs <= best_rhs + _BOUND_SLACK),
        "params": {
            "K": K,
            "K_exact": surrogate.lipschitz_exact,
            "norm": norm,
            "C_marginal": C_marginal,
            "C_estimated": c_estimated,
            "diam": diam,
            "delta_min": delta_min,
            "epsilon_surrogate": eps_prime,
            "t_star": best_t,
            "vacuous": vacuous,
        },
    }
    return bins.report("discretization", "0-1", miss, [bound], extras={"vacuous": vacuous})


def estimate_marginal_lipschitz(bins: _Bins, norm="l2") -> float:
    """Max difference quotient, in ``norm``, of bin conditionals across
    adjacent values more than 1e-15 times the largest |value| apart, for the
    bins of a scalar predictor by value: a stand-in for C_marginal, flagged as an estimate."""
    order = np.argsort(bins.keys, kind="stable")
    du = np.diff(bins.keys[order])
    dq = np.linalg.norm(np.diff(bins.cond[order], axis=0), ord=norm_order(norm),
                        axis=1)
    apart = du > 1e-15 * np.abs(bins.keys).max(initial=0.0)
    return float(np.max(dq[apart] / du[apart], initial=0.0))
