"""Independent numpy reference computations that check the CLI's outputs.

The property of either construction is evaluated here as the midpoint of
the zero set of the expected identification function E(u) = sum_y p_y v_y(u),
found by bisection on the per-outcome piecewise-affine v_y written to the
surrogate JSON.  The program evaluates the same property through its batch
kernels (grid roots for the embedding, the closed-form ratio of expectations
for the normals), so agreement checks one route against the other.  The
audit estimators are recomputed from per-feature weighted label counts.
"""

from __future__ import annotations

import json

import numpy as np

# Values the program sums in another order, or evaluates by another route,
# must agree to this relative tolerance (plus ATOL for values near zero).
RTOL = 1e-9
ATOL = 1e-12
# Tie tolerance of the expected-cost argmin, as documented for report sets.
TIE_TOL = 1e-10


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def require_close(got, want, what: str) -> None:
    got = float(got)
    want = float(want)
    require(abs(got - want) <= ATOL + RTOL * max(abs(got), abs(want)),
            f"{what}: program {got!r}, reference {want!r}")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Identification:
    """Per-outcome identification functions read from a surrogate JSON."""

    def __init__(self, surrogate: dict):
        self.pieces = [(np.asarray(v["breakpoints"], dtype=np.float64),
                        np.asarray(v["slopes"], dtype=np.float64),
                        np.asarray(v["intercepts"], dtype=np.float64))
                       for v in surrogate["v_bar"]]
        knots = np.concatenate([bp for bp, _, _ in self.pieces])
        peak = max(float(np.abs(a[np.searchsorted(bp, knots)] * knots
                                + c[np.searchsorted(bp, knots)]).max())
                   for bp, a, c in self.pieces)
        # every v_y has slope >= 1 outside the knots, so E changes sign here
        self.lo = float(knots.min()) - peak - 1.0
        self.hi = float(knots.max()) + peak + 1.0

    def expected(self, P: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.zeros(len(u))
        for y, (bp, a, c) in enumerate(self.pieces):
            idx = np.searchsorted(bp, u, side="left")
            out += P[:, y] * (a[idx] * u + c[idx])
        return out

    def _bisect(self, P, strict: bool) -> np.ndarray:
        """inf {u : E(u) >= 0}, or sup {u : E(u) <= 0} when strict."""
        lo = np.full(len(P), self.lo)
        hi = np.full(len(P), self.hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            live = (mid > lo) & (mid < hi)
            if not live.any():
                break
            e = self.expected(P, mid)
            up = e > 0.0 if strict else e >= 0.0
            hi = np.where(live & up, mid, hi)
            lo = np.where(live & ~up, mid, lo)
        return lo if strict else hi

    def gamma(self, P) -> np.ndarray:
        """Midpoint of {u : E(u) = 0} for each row of P."""
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        return 0.5 * (self._bisect(P, False) + self._bisect(P, True))


def argmin_sets(cost: np.ndarray, P: np.ndarray) -> np.ndarray:
    """(m, reports) mask of expected-cost minimizers within TIE_TOL."""
    ec = P @ np.asarray(cost, dtype=np.float64).T
    return ec <= ec.min(axis=1, keepdims=True) + TIE_TOL


def link(thresholds, u: np.ndarray) -> np.ndarray:
    """1 + number of thresholds strictly below u (embedding link)."""
    t = np.asarray(thresholds, dtype=np.float64)
    return 1 + (t[None, :] < np.asarray(u)[:, None]).sum(axis=1)


def _bins(keys: np.ndarray, counts: np.ndarray):
    """Group features by exact key: (bin of feature, bin conditionals)."""
    uniq, inv = np.unique(keys, return_inverse=True)
    tot = np.zeros((len(uniq), counts.shape[1]))
    np.add.at(tot, inv, counts)
    return uniq, inv, tot / tot.sum(axis=1, keepdims=True)


def _mean(mass, values) -> float:
    return float(np.sum(mass * values) / np.sum(mass))


def dist_audit(counts, preds, ident: Identification, K: float) -> dict:
    """Distribution audit plus the post-processing check, binned by the
    property value of each prediction; the inequality must hold for K."""
    mass = counts.sum(axis=1)
    g = ident.gamma(preds)
    _, inv, qb = _bins(g, counts)
    eps = _mean(mass, np.linalg.norm(preds - qb[inv], axis=1))
    eps_sur = _mean(mass, np.abs(ident.gamma(qb)[inv] - g))
    require(eps_sur <= K * eps + 1e-9,
            f"post-processing inequality fails: {eps_sur} > {K} * {eps}")
    return {"distribution": eps, "postprocessing": eps_sur}


def scalar_audit(counts, g, ident: Identification, thresholds, cost) -> dict:
    """Surrogate audit and the discretization bound's left-hand side."""
    mass = counts.sum(axis=1)
    keys, inv, qb = _bins(g, counts)
    eps = _mean(mass, np.abs(ident.gamma(qb)[inv] - g))
    hit = argmin_sets(cost, qb)[np.arange(len(keys)), link(thresholds, keys) - 1]
    return {"surrogate": eps, "discretization": _mean(mass, ~hit[inv])}


def report_audit(counts, h, cost) -> dict:
    mass = counts.sum(axis=1)
    keys, inv, qb = _bins(h, counts)
    hit = argmin_sets(cost, qb)[np.arange(len(keys)), keys - 1]
    return {"discrete": _mean(mass, ~hit[inv])}


def check_audit_file(path, want: dict) -> None:
    """Every report's epsilon_hat in the audit JSON against the reference."""
    reports = read_json(path)["reports"]
    require([r["notion"] for r in reports] == list(want),
            f"{path}: report notions {[r['notion'] for r in reports]}")
    for r in reports:
        require_close(r["epsilon_hat"], want[r["notion"]],
                      f"{path}: {r['notion']} epsilon_hat")

