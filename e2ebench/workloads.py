"""The benchmark's workloads: one CLI pipeline pass each, in three shapes.

Every workload runs every CLI stage (construct, simulate, the three audits,
levelsets, counterexample) so that each end-to-end metric exists on each
workload; a stage outside a workload's focus runs at a small size and is the
control reading for changes aimed at another workload.  All inputs come
from :mod:`inputs` and the seed; the program's outputs are checked against
:mod:`checks` on the first pass and for byte identity on every later pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs
from checks import Identification, read_json, require


@dataclass
class Op:
    """One CLI invocation: its stage, arguments and expected exit code."""

    stage: str
    argv: list | Callable[[], list]
    outputs: tuple = ()
    expect: int = 0
    check: Callable | None = None   # check(stdout, stderr); raises CheckError
    rows: int = 0                   # dataset rows an audit consumes
    boundaries: int = 0             # normals the op recovers


@dataclass
class Sizes:
    features: int
    rows: int              # simulate --samples
    audit_source: str      # "data": CSV rows; "scenario": exact weighted rows
    levelsets_resolution: int
    counterexample_samples: int
    specs: tuple = ()      # outcome counts of the extra orderable specs


WORKLOADS = {
    "tall": Sizes(features=2000, rows=1_000_000, audit_source="data",
                  levelsets_resolution=100, counterexample_samples=200_000),
    "wide": Sizes(features=10_000, rows=1, audit_source="scenario",
                  levelsets_resolution=100, counterexample_samples=200_000),
    "geometry": Sizes(features=200, rows=250_000, audit_source="data",
                      levelsets_resolution=300, counterexample_samples=2_000_000,
                      specs=(4, 5, 6, 8)),
}

SPEC_REPORTS = 4
ETA = 0.1  # scale of the perturbed-distribution predictor
# Scalar predictions lie on a 0.05 grid over the README embedding's range
# (embedding points 0, 1, 3), so many features share each bin.
SCALAR_GRID = (0.0, 3.0, 0.05)
REPORT_NOISE = 0.2


class Pipeline:
    """Inputs, operations and output checks of one workload for one seed."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.sizes = WORKLOADS[name]
        self._counts = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    # -- inputs ------------------------------------------------------------

    def setup(self) -> None:
        """Write every input file; deterministic in the seed."""
        sz = self.sizes
        rng = np.random.default_rng([self.seed, 0xE2E])
        self.cost = np.asarray(inputs.README_COST)
        inputs.write_json(self.path("readme.json"), inputs.readme_spec())
        scen = inputs.scenario(rng, sz.features, 3, ETA)
        inputs.write_json(self.path("scenario.json"), scen)
        self.ids, w, cond = inputs.scenario_arrays(scen)
        self.weights = w / w.sum()
        self.cond = cond / cond.sum(axis=1, keepdims=True)
        scalar = inputs.scalar_predictor(rng, self.ids, *SCALAR_GRID)
        report = inputs.report_predictor(rng, self.ids, self.cond, self.cost,
                                         REPORT_NOISE)
        inputs.write_json(self.path("scalar.json"), scalar)
        inputs.write_json(self.path("report.json"), report)
        self.scalar = np.array([scalar["table"][x] for x in self.ids])
        self.report = np.array([report["table"][x] for x in self.ids])
        self.specs = []
        for n in sz.specs:
            spec = inputs.orderable_spec(rng, n, SPEC_REPORTS)
            inputs.write_json(self.path(f"spec{n}.cost.json"), spec["cost"])
            inputs.write_json(self.path(f"spec{n}.bounds.json"), spec["boundaries"])
            self.specs.append((n, spec))

    # -- the pass ------------------------------------------------------------

    def ops(self) -> list[Op]:
        sz = self.sizes
        seed = str(self.seed)
        p = self.path
        out = [
            Op("construct", ["construct", "--spec", p("readme.json"), "--algo",
                             "normals", "--seed", seed, "--out", p("nrm.json")],
               (p("nrm.json"),), boundaries=2,
               check=lambda so, se: self._check_normals(so, p("nrm.json"),
                                                        _cost_normals(self.cost))),
            Op("construct", ["construct", "--spec", p("readme.json"), "--algo",
                             "embedding", "--phi", _csv(inputs.README_PHI),
                             "--out", p("emb.json")],
               (p("emb.json"),),
               check=lambda so, se: self._check_embedding(so, p("emb.json"),
                                                          inputs.README_PHI)),
        ]
        for n, spec in self.specs:
            out.append(Op(
                "construct", ["construct", "--spec", p(f"spec{n}.bounds.json"),
                              "--algo", "normals", "--seed", seed,
                              "--out", p(f"spec{n}.nrm.json")],
                (p(f"spec{n}.nrm.json"),), boundaries=len(spec["normals"]),
                check=lambda so, se, n=n, spec=spec: self._check_normals(
                    so, p(f"spec{n}.nrm.json"), spec["normals"])))
            out.append(Op(
                "construct", ["construct", "--spec", p(f"spec{n}.cost.json"),
                              "--algo", "embedding", "--phi", _csv(spec["phi"]),
                              "--out", p(f"spec{n}.emb.json")],
                (p(f"spec{n}.emb.json"),),
                check=lambda so, se, n=n, spec=spec: self._check_embedding(
                    so, p(f"spec{n}.emb.json"), spec["phi"])))

        sim = p("run")
        out.append(Op("simulate", ["simulate", "--spec", p("scenario.json"),
                                   "--samples", str(sz.rows), "--seed", seed,
                                   "--out", sim],
                      (sim + ".data.csv", sim + ".predictor.json", sim + ".meta.json"),
                      check=lambda so, se: self._check_simulate()))

        if sz.audit_source == "data":
            source = ["--data", sim + ".data.csv"]
            rows = sz.rows
        else:
            source = ["--scenario", p("scenario.json")]
            rows = int(np.count_nonzero(self.weights[:, None] * self.cond))
        for stage, sur, pred, check in (
            ("audit_dist", "nrm.json", sim + ".predictor.json", self._check_dist),
            ("audit_scalar", "emb.json", p("scalar.json"), self._check_scalar),
            ("audit_report", "nrm.json", p("report.json"), self._check_report),
        ):
            dest = p(f"{stage}.json")
            out.append(Op(stage, ["audit", "--surrogate", p(sur), *source,
                                  "--predictor", pred, "--out", dest],
                          (dest,), rows=rows,
                          check=lambda so, se, check=check, dest=dest: check(dest)))

        res = str(sz.levelsets_resolution)
        for algo, extra, sur in (("normals", ["--seed", seed], "nrm.json"),
                                 ("embedding", ["--phi", _csv(inputs.README_PHI)],
                                  "emb.json")):
            dest = p(f"levels.{algo}.csv")
            out.append(Op("levelsets", ["levelsets", "--spec", p("readme.json"),
                                        "--algo", algo, *extra, "--resolution", res,
                                        "--out", dest],
                          (dest,), boundaries=2 if algo == "normals" else 0,
                          check=lambda so, se, dest=dest, sur=sur:
                              self._check_levelsets(dest, p(sur))))

        # At C = K/2 a violating pair exists; at 1.01 K the search must exhaust
        # its budget (exit 4), since K is exact for three outcomes.
        for factor, expect in ((0.5, 0), (1.01, 4)):
            dest = p(f"ce{factor}")
            out.append(Op(
                "counterexample",
                lambda factor=factor, dest=dest: [
                    "counterexample", "--surrogate", p("nrm.json"),
                    "--c", repr(factor * self._K()), "--samples",
                    str(sz.counterexample_samples), "--seed", seed, "--out", dest],
                (dest + ".report.json", dest + ".scenario.json",
                 dest + ".predictor.json") if expect == 0 else (),
                expect=expect,
                check=lambda so, se, factor=factor, dest=dest:
                    self._check_counterexample(factor, dest, se)))
        return out

    # -- checks --------------------------------------------------------------

    def _K(self) -> float:
        return float(read_json(self.path("nrm.json"))["lipschitz_bound"])

    def _check_normals(self, stdout, path, want) -> None:
        rep = _parse(stdout)
        require(rep["refinement_pass_rate"] == 1.0,
                f"{path}: refinement_pass_rate {rep['refinement_pass_rate']}")
        got = np.asarray(rep["recovered_normals"])
        require(got.shape == np.shape(want), f"{path}: normals shape {got.shape}")
        align = np.abs(np.sum(got * want, axis=1))
        require(np.all(align >= 1.0 - 1e-8),
                f"{path}: recovered normals off the spec's boundaries ({align.min()})")
        sur = read_json(path)
        require(sur["kind"] == "normals" and sur["normals"] == rep["recovered_normals"],
                f"{path}: surrogate file does not match the construct report")
        require(sur["lipschitz_bound"] > 0, f"{path}: nonpositive Lipschitz bound")

    def _check_embedding(self, stdout, path, phi) -> None:
        rep = _parse(stdout)
        phi = np.asarray(phi, dtype=np.float64)
        require(np.allclose(rep["thresholds"], 0.5 * (phi[:-1] + phi[1:]),
                            rtol=0, atol=1e-12),
                f"{path}: thresholds {rep['thresholds']} are not the midpoints of {phi}")
        lo, hi = rep["value_range"]
        require(lo < hi and rep["lipschitz_bound"] > 0,
                f"{path}: value range {lo, hi}, bound {rep['lipschitz_bound']}")
        require(read_json(path)["kind"] == "embedding", f"{path}: wrong kind")

    def _data_counts(self) -> np.ndarray:
        """Weighted (feature, label) counts of the audited dataset."""
        if self._counts is None:
            if self.sizes.audit_source == "scenario":
                self._counts = self.weights[:, None] * self.cond
            else:
                self._counts = _csv_counts(self.path("run.data.csv"),
                                           len(self.ids), 3)
        return self._counts

    def _check_simulate(self) -> None:
        sz = self.sizes
        counts = _csv_counts(self.path("run.data.csv"), len(self.ids), 3)
        require(counts.sum() == sz.rows, f"simulate wrote {counts.sum()} rows")
        if sz.rows >= 1000:
            # label frequencies against the scenario's marginal, at 6 sigma
            want = self.weights @ self.cond
            got = counts.sum(axis=0)
            sigma = np.sqrt(sz.rows * want * (1 - want))
            require(np.all(np.abs(got - sz.rows * want) <= 6 * sigma + 1),
                    f"label counts {got} far from expected {sz.rows * want}")
        pred = read_json(self.path("run.predictor.json"))
        require(pred["kind"] == "distribution"
                and sorted(pred["table"]) == sorted(self.ids),
                "predictor keys differ from the scenario's features")
        # perturbed recipe: (1 + eta) p - q is eta times a distribution
        P = np.array([pred["table"][x] for x in self.ids])
        jitter = (1.0 + ETA) * P - self.cond
        require(np.all(jitter >= -1e-9)
                and np.allclose(jitter.sum(axis=1), ETA, rtol=0, atol=1e-9),
                "predictor is not a perturbation of the conditionals by eta")

    def _audited(self):
        counts = self._data_counts()
        keep = counts.sum(axis=1) > 0
        return counts[keep], keep

    def _check_dist(self, dest) -> None:
        counts, keep = self._audited()
        table = read_json(self.path("run.predictor.json"))["table"]
        preds = np.array([table[x] for x in self.ids])[keep]
        ident = Identification(read_json(self.path("nrm.json")))
        checks.check_audit_file(dest, checks.dist_audit(counts, preds, ident,
                                                        self._K()))

    def _check_scalar(self, dest) -> None:
        counts, keep = self._audited()
        phi = np.asarray(inputs.README_PHI)
        want = checks.scalar_audit(counts, self.scalar[keep],
                                   Identification(read_json(self.path("emb.json"))),
                                   0.5 * (phi[:-1] + phi[1:]), self.cost)
        checks.check_audit_file(dest, want)

    def _check_report(self, dest) -> None:
        counts, keep = self._audited()
        checks.check_audit_file(dest, checks.report_audit(counts, self.report[keep],
                                                          self.cost))

    def _check_levelsets(self, dest, sur_path) -> None:
        res = self.sizes.levelsets_resolution
        grid = np.array([(i, j, res - i - j) for i in range(res + 1)
                         for j in range(res + 1 - i)], dtype=np.float64) / res
        grid /= grid.sum(axis=1, keepdims=True)
        tab = np.loadtxt(dest, delimiter=",", skiprows=1, ndmin=2)
        require(tab.shape == (len(grid), 5), f"{dest}: table shape {tab.shape}")
        require(np.all(np.abs(tab[:, :3] - grid) <= 1e-15), f"{dest}: grid points differ")
        first = np.argmax(checks.argmin_sets(self.cost, grid), axis=1) + 1
        require(np.array_equal(tab[:, 3], first), f"{dest}: discrete reports differ")
        want = Identification(read_json(sur_path)).gamma(grid)
        err = np.abs(tab[:, 4] - want)
        require(np.all(err <= checks.ATOL + checks.RTOL * np.abs(want)),
                f"{dest}: surrogate values differ by up to {err.max()}")

    def _check_counterexample(self, factor, dest, stderr) -> None:
        if factor > 1.0:
            require("search failed" in stderr, f"{dest}: no search-failure message")
            return
        rep = read_json(dest + ".report.json")
        inst = rep["instance"]
        p, q = np.asarray(inst["prediction"]), np.asarray(inst["conditional"])
        g = Identification(read_json(self.path("nrm.json"))).gamma(np.stack([p, q]))
        C = factor * self._K()
        require(abs(g[0] - g[1]) > C * np.linalg.norm(p - q) * (1 - checks.RTOL),
                f"{dest}: pair does not violate C = {C}")
        require(rep["audits"]["gap_exceeds_C_times_epsilon"] is True,
                f"{dest}: audits do not certify the violation")


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _parse(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise checks.CheckError(f"construct report is not JSON: {exc}") from None


def _cost_normals(cost: np.ndarray) -> np.ndarray:
    """Unit normals of the tie loci <l_r - l_{r+1}, p> = 0."""
    d = cost[:-1] - cost[1:]
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _csv_counts(path, features: int, n: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    require(header == "x_id,y", f"{path}: header {header!r}")
    tab = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    ids, y = tab[:, 0], tab[:, 1]
    require(ids.min() >= 0 and ids.max() < features and y.min() >= 1 and y.max() <= n,
            f"{path}: feature ids or labels out of range")
    return np.bincount(ids * n + (y - 1), minlength=features * n).reshape(
        features, n).astype(np.float64)
