"""Calibration estimators and quantitative bound checks.

Three empirical notions are measured against a surrogate property:
distribution calibration (norm distance between a distributional prediction
and its bin's conditional), surrogate calibration (absolute gap between a
scalar prediction and the property of its bin's conditional), and discrete
calibration (probability that the discrete prediction leaves the target set
of its bin's conditional).  Bound checkers relate the three, including the
post-processing inequality, its contraction corollary, the counterexample
generator for too-small Lipschitz constants, and the discretization bound
driven by distance-to-threshold margins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ordelic.errors import DegenerateRangeError, SearchFailure, SpecError
from ordelic.properties import Surrogate
from ordelic.simplex import (
    LabeledDataset,
    first_appearance,
    norm_order,
    sample_simplex,
    ternary_plot_coords,
)

_BOUND_SLACK = 1e-9


def _times_k(K: float, *factors: float) -> float:
    """K times the factors, for a bound's right-hand side; with K = inf (a
    property that is not Lipschitz) the bound says nothing, so inf * 0 is
    inf as well."""
    if K == float("inf"):
        return K
    for x in factors:
        K *= x
    return K


@dataclass(frozen=True)
class PredictorTable:
    """x_id -> prediction; kind is 'distribution', 'scalar', or 'report'."""

    kind: str
    table: dict

    def __post_init__(self):
        if self.kind not in ("distribution", "scalar", "report"):
            raise SpecError(f"unknown predictor kind {self.kind!r}")

    def __getitem__(self, x_id):
        return self.table[x_id]

    def values(self, x_ids) -> np.ndarray:
        """Predictions for ``x_ids`` stacked into one array (int for reports)."""
        dtype = np.int64 if self.kind == "report" else np.float64
        return np.asarray([self.table[x] for x in x_ids], dtype=dtype)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    satisfied: bool
    params: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "satisfied": self.satisfied,
            "params": self.params,
        }


@dataclass(frozen=True)
class AuditReport:
    notion: str
    norm: str
    epsilon_hat: float
    bin_count: int
    bin_min_size: float
    empty_bins: tuple
    bounds: tuple = ()
    extras: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "notion": self.notion,
            "norm": self.norm,
            "epsilon_hat": self.epsilon_hat,
            "bins": {
                "count": self.bin_count,
                "min_size": self.bin_min_size,
                "empty": list(self.empty_bins),
            },
            "bounds": [b.as_dict() for b in self.bounds],
            **({"extras": self.extras} if self.extras else {}),
        }


# ---------------------------------------------------------------------------
# shared binning plumbing
#
# Every prediction and bin key is a function of x_id alone, so an audit needs
# only the (features x outcomes) weighted label counts, built by one bincount
# over the rows.  Estimators then work on per-feature and per-bin arrays.


@dataclass(frozen=True)
class _Bins:
    """Features of positive mass grouped by a per-feature key; bins are
    numbered by first appearance in ``data.keys`` order."""

    live: np.ndarray    # (features,) bool: the feature has positive mass
    mass: np.ndarray    # (live features,) mass
    of: np.ndarray      # (live features,) bin index
    keys: np.ndarray    # (bins, ...) bin keys
    counts: np.ndarray  # (bins, outcomes) weighted label counts
    empty: tuple        # keys held only by zero-mass features

    @property
    def cond(self) -> np.ndarray:
        """(bins, outcomes) empirical conditional of each bin."""
        return self.counts / self.counts.sum(axis=1, keepdims=True)

    def mean(self, loss) -> float:
        """Mass-weighted mean of a per-live-feature loss."""
        return float(np.sum(self.mass * loss) / np.sum(self.mass))

    def report(self, notion: str, norm, loss, **extra) -> AuditReport:
        """Report whose epsilon_hat is the mean of ``loss``."""
        return AuditReport(
            notion=notion,
            norm=str(norm),
            epsilon_hat=self.mean(loss),
            bin_count=len(self.counts),
            bin_min_size=float(self.counts.sum(axis=1).min()),
            empty_bins=self.empty,
            **extra,
        )


def _bin(data: LabeledDataset, feature_keys) -> _Bins:
    """Group the features of ``data`` by key (one key, or one key row, per
    entry of ``data.keys``), from its (features, outcomes) label counts."""
    n = data.n
    counts = np.bincount(data.codes * n + (data.y - 1), weights=data.weights,
                         minlength=len(data.keys) * n).reshape(-1, n).astype(np.float64)
    mass = counts.sum(axis=1)
    live = mass > 0
    keys = np.asarray(feature_keys)
    uniq, inv = np.unique(keys, return_inverse=True,
                          axis=0 if keys.ndim > 1 else None)
    order, of = first_appearance(inv.reshape(-1), len(uniq))
    bin_counts = np.zeros((len(order), n))
    np.add.at(bin_counts, of, counts)
    full = bin_counts.sum(axis=1) > 0
    renumber = np.cumsum(full) - 1
    return _Bins(live, mass[live], renumber[of[live]], uniq[order[full]],
                 bin_counts[full], tuple(uniq[order[~full]].tolist()))


def _member(sets: np.ndarray, reports) -> np.ndarray:
    """sets[b, reports[b] - 1]; False for a report outside the set's range."""
    ok = (reports >= 1) & (reports <= sets.shape[1])
    return ok & sets[np.arange(len(reports)), np.where(ok, reports - 1, 0)]


# ---------------------------------------------------------------------------
# the three calibration estimators


def dist_calibration_wrt(
    f: PredictorTable,
    data: LabeledDataset,
    binner,
    norm="l2",
    convention: str = "simplex",
) -> AuditReport:
    """Mean norm distance between f(x) and its bin's empirical conditional.

    ``binner`` maps a (features, outcomes) array of distributional
    predictions to one bin key (or key row) per feature.  With convention
    "plot" (3 outcomes only) distances are taken in the ternary plot plane
    instead of raw simplex coordinates.
    """
    if f.kind != "distribution":
        raise SpecError("distribution calibration needs a distributional predictor")
    ordv = norm_order(norm)
    P = f.values(data.keys)
    bins = _bin(data, binner(P))
    p, q = P[bins.live], bins.cond[bins.of]
    if convention == "plot":
        p, q = ternary_plot_coords(p), ternary_plot_coords(q)
    return bins.report("distribution", norm,
                       np.linalg.norm(p - q, ord=ordv, axis=1),
                       extras={"convention": convention})


def surrogate_calibration(
    g: PredictorTable,
    data: LabeledDataset,
    gamma_eval,
    norm="l2",
    bin_width: float | None = None,
) -> AuditReport:
    """Mean |gamma(bin conditional) - g(x)| with exact-value bins by default,
    or uniform bins of width ``bin_width``.

    ``gamma_eval`` maps a batch of distributions to property values.
    """
    if g.kind != "scalar":
        raise SpecError("surrogate calibration needs a scalar predictor")
    u = g.values(data.keys)
    keys = u if bin_width is None else np.floor(u / float(bin_width)).astype(np.int64)
    bins = _bin(data, keys)
    gaps = np.abs(gamma_eval(bins.cond)[bins.of] - u[bins.live])
    return bins.report("surrogate", norm, gaps, extras={"bin_width": bin_width})


def discrete_calibration(
    h: PredictorTable,
    data: LabeledDataset,
    gamma_set,
) -> AuditReport:
    """Probability that h(x) is outside the target set of its bin conditional.

    ``gamma_set`` maps a batch of distributions to a (rows, reports) mask of
    optimal reports, so boundary conditionals count as matches for either
    adjacent report.
    """
    if h.kind != "report":
        raise SpecError("discrete calibration needs a report-valued predictor")
    bins = _bin(data, h.values(data.keys))
    hit = _member(gamma_set(bins.cond), bins.keys)
    return bins.report("discrete", "0-1", ~hit[bins.of])


# ---------------------------------------------------------------------------
# bound checks


def check_postprocessing_bound(
    f: PredictorTable,
    data: LabeledDataset,
    surrogate: Surrogate,
    norm="l2",
) -> AuditReport:
    """Post-processing inequality: the surrogate miscalibration of the scalar
    predictor gamma∘f is at most K times the distribution miscalibration of f
    binned by that same scalar value.  For K < 1, also records the stronger
    contraction inequality (rhs = epsilon itself).  With K = inf the bound
    is vacuous and holds."""
    if f.kind != "distribution":
        raise SpecError("post-processing bound needs a distributional predictor")
    K = surrogate.lipschitz_bound
    K_exact = surrogate.lipschitz_exact
    P = f.values(data.keys)
    u = surrogate.gamma_many(P)
    bins = _bin(data, u)
    cond = bins.cond
    eps = bins.mean(np.linalg.norm(P[bins.live] - cond[bins.of],
                                   ord=norm_order(norm), axis=1))
    gaps = np.abs(surrogate.gamma_many(cond)[bins.of] - u[bins.live])
    eps_prime = bins.mean(gaps)
    bounds = [
        BoundCheck(
            name="postprocessing",
            lhs=eps_prime,
            rhs=_times_k(K, eps),
            satisfied=bool(eps_prime <= _times_k(K, eps) + _BOUND_SLACK),
            params={"K": K, "K_exact": K_exact, "epsilon": eps},
        )
    ]
    if K < 1.0:
        bounds.append(
            BoundCheck(
                name="contraction",
                lhs=eps_prime,
                rhs=eps,
                satisfied=bool(eps_prime <= eps + _BOUND_SLACK),
                params={"K": K, "K_exact": K_exact},
            )
        )
    return bins.report("postprocessing", norm, gaps, bounds=tuple(bounds),
                       extras={"epsilon_dist": eps, "epsilon_surrogate": eps_prime})


def counterexample_gap(
    gamma_eval,
    n: int,
    C: float,
    budget: int = 50_000,
    seed: int = 0,
    norm="l2",
):
    """Search for p, q with |gamma(p) - gamma(q)| > C * ||p - q||.

    Returns (p, q, instance) where the instance is the one-feature scenario
    (prediction p, true conditional q) whose audits certify distribution
    calibration ||p - q|| but surrogate miscalibration above C times that.
    Raises :class:`SearchFailure` with the best ratio when the budget runs
    out, which is the expected outcome when C is a valid Lipschitz bound.
    """
    ordv = norm_order(norm)
    rng = np.random.default_rng(seed)
    used = 0
    best_ratio = -1.0
    best_pair = None
    step = 1e-3
    batch = 2048
    while used < budget:
        if best_pair is None or used < budget // 3:
            base = sample_simplex(n, batch, int(rng.integers(2**31)))
        else:
            # local refinement around the best base point
            center = best_pair[0]
            jitter = rng.standard_normal((batch, n)) * 0.02
            base = np.clip(center[None, :] + jitter, 1e-12, None)
            base /= base.sum(axis=1, keepdims=True)
        d = rng.standard_normal((batch, n))
        d -= d.mean(axis=1, keepdims=True)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        other = np.clip(base + step * d, 0.0, None)
        other /= other.sum(axis=1, keepdims=True)
        dist = np.linalg.norm(base - other, ord=ordv, axis=1)
        ok = dist > 1e-12
        gv = gamma_eval(base)
        gw = gamma_eval(other)
        ratio = np.where(ok, np.abs(gv - gw) / np.where(ok, dist, 1.0), -1.0)
        used += batch
        idx = int(np.argmax(ratio))
        if ratio[idx] > best_ratio:
            best_ratio = float(ratio[idx])
            best_pair = (base[idx], other[idx])
        if best_ratio > C:
            p, q = best_pair
            instance = {
                "x_id": "x0",
                "prediction": p.tolist(),
                "conditional": q.tolist(),
                "distribution_epsilon": float(np.linalg.norm(p - q, ord=ordv)),
                "surrogate_gap": float(abs(gamma_eval(p[None, :])[0]
                                           - gamma_eval(q[None, :])[0])),
                "C": float(C),
                "ratio": best_ratio,
            }
            return p, q, instance
    raise SearchFailure(
        f"no pair with ratio above {C} in {budget} evaluations; "
        f"best ratio {best_ratio:.6g}"
    )


def instance_dataset(instance: dict) -> tuple[PredictorTable, LabeledDataset]:
    """Materialize the counterexample as (distributional predictor, dataset)."""
    q = np.asarray(instance["conditional"], dtype=np.float64)
    data = LabeledDataset.from_exact_scenario(
        [instance["x_id"]], [1.0], q[None, :]
    )
    f = PredictorTable("distribution",
                       {instance["x_id"]: np.asarray(instance["prediction"])})
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
    g: PredictorTable,
    data: LabeledDataset,
    surrogate: Surrogate,
    C_marginal: float,
    t_grid=None,
    c_estimated: bool = False,
) -> AuditReport:
    """Discretization bound: the discrete mismatch probability of the linked
    prediction is controlled by the threshold-margin tail plus
    (eps' + K*C*diam)/t, minimized over t.

    ``C_marginal`` is the assumed Lipschitz constant of the map from a
    prediction value to its bin's conditional distribution; it is an input
    assumption, not something certified from data.  With K = inf the bound
    is vacuous and holds.
    """
    if g.kind != "scalar":
        raise SpecError("discretization bound needs a scalar predictor")
    K = surrogate.lipschitz_bound
    thresholds = surrogate.thresholds
    lo, hi = surrogate.value_range
    diam = link_diameter(thresholds, (lo, hi))

    image = g.values(g.table)
    if not image.size:
        raise SpecError("predictor image is empty")
    delta_min = float(delta_to_threshold(thresholds, image).min())

    u = g.values(data.keys)
    bins = _bin(data, u)
    cond = bins.cond
    eps_prime = bins.mean(np.abs(surrogate.gamma_many(cond)[bins.of] - u[bins.live]))
    miss = ~_member(surrogate.discrete_set_many(cond),
                    surrogate.link_many(bins.keys))[bins.of]
    lhs = bins.mean(miss)
    deltas = delta_to_threshold(thresholds, u[bins.live])

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
    bound = BoundCheck(
        name="discretization",
        lhs=lhs,
        rhs=float(best_rhs),
        satisfied=bool(lhs <= best_rhs + _BOUND_SLACK),
        params={
            "K": K,
            "K_exact": surrogate.lipschitz_exact,
            "C_marginal": C_marginal,
            "C_estimated": c_estimated,
            "diam": diam,
            "delta_min": delta_min,
            "epsilon_surrogate": eps_prime,
            "t_star": best_t,
            "vacuous": vacuous,
        },
    )
    return bins.report("discretization", "0-1", miss, bounds=(bound,),
                       extras={"vacuous": vacuous})


def estimate_marginal_lipschitz(g: PredictorTable, data: LabeledDataset) -> float:
    """Max difference quotient of bin conditionals across adjacent prediction
    values: a data-driven stand-in for C_marginal, flagged as an estimate."""
    bins = _bin(data, g.values(data.keys))
    order = np.argsort(bins.keys, kind="stable")
    du = np.diff(bins.keys[order])
    dq = np.linalg.norm(np.diff(bins.cond[order], axis=0), axis=1)
    apart = du > 1e-15
    return float(np.max(dq[apart] / du[apart], initial=0.0))


def lipschitz_estimate(
    gamma_eval,
    n: int,
    norm="l2",
    samples: int = 20_000,
    seed: int = 0,
    refine_rounds: int = 8,
):
    """Max sampled difference quotient of the property plus local refinement.

    Returns (K_hat, (p, q)) for the best pair found.
    """
    if samples < 2:
        raise SpecError("need at least 2 samples")
    ordv = norm_order(norm)
    rng = np.random.default_rng(seed)
    base = sample_simplex(n, samples, int(rng.integers(2**31)))
    step = 1e-4
    d = rng.standard_normal((samples, n))
    d -= d.mean(axis=1, keepdims=True)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    other = np.clip(base + step * d, 0.0, None)
    other /= other.sum(axis=1, keepdims=True)
    dist = np.linalg.norm(base - other, ord=ordv, axis=1)
    ok = dist > 1e-12
    quot = np.where(ok, np.abs(gamma_eval(base) - gamma_eval(other))
                    / np.where(ok, dist, 1.0), 0.0)
    idx = int(np.argmax(quot))
    best = float(quot[idx])
    best_pair = (base[idx], other[idx])
    radius = 0.05
    for _ in range(refine_rounds):
        center = best_pair[0]
        jitter = rng.standard_normal((2048, n)) * radius
        cand = np.clip(center[None, :] + jitter, 1e-12, None)
        cand /= cand.sum(axis=1, keepdims=True)
        d = rng.standard_normal((2048, n))
        d -= d.mean(axis=1, keepdims=True)
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        other = np.clip(cand + step * d, 0.0, None)
        other /= other.sum(axis=1, keepdims=True)
        dist = np.linalg.norm(cand - other, ord=ordv, axis=1)
        ok = dist > 1e-12
        quot = np.where(ok, np.abs(gamma_eval(cand) - gamma_eval(other))
                        / np.where(ok, dist, 1.0), 0.0)
        idx = int(np.argmax(quot))
        if quot[idx] > best:
            best = float(quot[idx])
            best_pair = (cand[idx], other[idx])
        radius *= 0.5
    return best, best_pair
