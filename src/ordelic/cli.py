"""Command-line harness: construct, levelsets, simulate, audit, counterexample.

Exit codes: 0 success, 2 input or spec error, 3 bound violation, 4 no
counterexample: C is at least the exact Lipschitz constant K of the norm, or
C < K but too close to K for a pair clear of the node slices to certify.
Only simulate draws, from --seed (fallback: the ORDELIC_SEED environment
variable), which it requires; the other commands accept --seed and use no
randomness, and construct and counterexample record it in their report's
config.  Outputs are byte-identical across repeated runs with the same
configuration.

On glibc, ``main`` first sets the process's allocator policy, once per
process (``mallopt(3)``: M_MMAP_THRESHOLD 32 MiB, M_TRIM_THRESHOLD 256 MiB).
Without it glibc hands each burst of multi-MB temporaries back to the kernel
and faults zeroed pages in again for the next; with it, what one stage frees
stays in the heap and the next burst reuses it.  In the benchmark's process,
on a 2-core x86-64 VM, a ``wide`` ``simulate`` took about 5,000 minor
faults, 3,300-3,700 of them in the predictor writer's float formatting, and
takes under 60; its median time fell from 74.7 to 63.9 ms.  The policy
changes no output byte, and library calls that do not go through ``main``
keep the allocator as they find it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from ordelic import audit as audit_mod
from ordelic import serialize
from ordelic.embedding import EmbeddingInput, build_surrogate, embedding_points
from ordelic.errors import OrdelicError, OrderabilityError, SearchFailure, SpecError
from ordelic.normals import full_pipeline
from ordelic.scenario import exact_dataset, materialize_predictor, sample_dataset
from ordelic.simplex import triangle_grid

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_BOUND = 3
EXIT_SEARCH = 4

# glibc's 64-bit DEFAULT_MMAP_THRESHOLD_MAX: every block below it comes from the heap
_MMAP_THRESHOLD = 32 << 20
# well above the mmap threshold, so the heap a stage frees stays for the next one
_TRIM_THRESHOLD = 256 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of <malloc.h>


@functools.cache  # the policy is process-wide: one call sets it
def _keep_freed_memory() -> bool:
    """Set glibc's mmap and trim thresholds; False off glibc or if refused."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if not (libc or "").startswith("glibc"):
        return False
    import ctypes  # numpy has loaded it already

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1
    return mmap_set and trim_set


@functools.cache  # one parser serves every in-process call of main
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordelic",
        description="Surrogate property construction and calibration audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="root seed (fallback: ORDELIC_SEED)")
    common.add_argument("--out", required=True, help="output path or prefix")

    build = argparse.ArgumentParser(add_help=False)
    build.add_argument("--spec", required=True)
    build.add_argument("--algo", choices=["embedding", "normals"], default="normals")
    build.add_argument("--phi", default=None,
                       help="comma-separated embedding points (embedding only)")
    build.add_argument("--outer-slope", type=float, default=None)

    p = sub.add_parser("construct", parents=[common, build],
                       help="build a surrogate from a property spec")
    p.set_defaults(run=_cmd_construct)

    p = sub.add_parser("levelsets", parents=[common, build],
                       help="emit a barycentric grid of property values")
    p.set_defaults(run=_cmd_levelsets)
    p.add_argument("--resolution", type=int, default=200)

    p = sub.add_parser("simulate", parents=[common],
                       help="sample a dataset and predictor from a scenario")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--spec", required=True, help="scenario JSON")
    p.add_argument("--samples", type=int, default=10_000)

    p = sub.add_parser("audit", parents=[common],
                       help="run calibration estimators and bound checks")
    p.set_defaults(run=_cmd_audit)
    p.add_argument("--surrogate", required=True, help="construct output JSON")
    p.add_argument("--data", default=None, help="dataset CSV")
    p.add_argument("--scenario", default=None,
                   help="scenario JSON for an exact (noise-free) audit")
    p.add_argument("--predictor", required=True, help="predictor JSON")
    p.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    p.add_argument("--bin-width", type=float, default=None)
    p.add_argument("--c-marginal", type=float, default=None)
    p.add_argument("--convention", choices=["simplex", "plot"], default="simplex")

    p = sub.add_parser("counterexample", parents=[common],
                       help="construct a pair violating a proposed Lipschitz constant")
    p.set_defaults(run=_cmd_counterexample)
    p.add_argument("--surrogate", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--samples", type=int, default=None,
                   help="unused: the pair is constructed, not searched for")
    p.add_argument("--norm", choices=["l1", "l2", "linf"], default="l2")
    return parser


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return int(args.seed)
    env = os.environ.get("ORDELIC_SEED")
    return int(env) if env else None


def _parse_phi(arg, n_reports: int) -> np.ndarray:
    if arg is None:
        return np.arange(n_reports, dtype=np.float64)
    try:
        phi = np.array([float(v) for v in arg.split(",")])
    except ValueError:
        raise SpecError(f"--phi must be {n_reports} comma-separated numbers, "
                        f"got {arg!r}") from None
    return phi


def _build_embedding(spec: dict, args):
    cost = spec["cost"]
    if cost is None:
        raise SpecError(f"{args.spec}: the embedding construction needs a cost_matrix, "
                        "not boundaries")
    phi = embedding_points(_parse_phi(args.phi, cost.n_reports), args.outer_slope)
    try:  # the refusals left depend on the costs
        inp = EmbeddingInput(cost, phi, args.outer_slope)
        surrogate = build_surrogate(inp)
    except (SpecError, OrderabilityError) as exc:
        raise type(exc)(f"{args.spec}: {exc}") from None
    report = {
        "algo": "embedding",
        "phi": phi.tolist(),
        "outer_slope": inp.outer_slope,
        "u_grid": surrogate.grid.tolist(),
        "thresholds": surrogate.thresholds.tolist(),
        "lipschitz_bound": surrogate.lipschitz_bound,
        "value_range": list(surrogate.value_range),
    }
    return surrogate, report


def _build_normals(spec: dict, args):
    source = spec["cost"] if spec["cost"] is not None else spec["boundaries"]
    try:
        surrogate, report = full_pipeline(source)
    except (SpecError, OrderabilityError) as exc:
        rows = "" if spec["cost"] is None else \
            "; boundary i is where cost rows i and i + 1 tie"
        raise type(exc)(f"{args.spec}: {exc}{rows}") from None
    report = {"algo": "normals", **report,
              "thresholds": surrogate.thresholds.tolist(),
              "value_range": list(surrogate.value_range)}
    return surrogate, report


def _cmd_construct(args) -> int:
    spec = serialize.load_property_spec(args.spec)
    build = _build_embedding if args.algo == "embedding" else _build_normals
    surrogate, report = build(spec, args)
    serialize.write_json(args.out, serialize.surrogate_to_json(surrogate))
    report["config"] = {"spec": args.spec, "algo": args.algo,
                        "seed": _resolve_seed(args), "out": args.out}
    sys.stdout.write(serialize.dumps(report))
    return EXIT_OK


def _cmd_levelsets(args) -> int:
    spec = serialize.load_property_spec(args.spec)
    if spec["n"] != 3:
        raise SpecError("level-set grids are only defined for 3 outcomes, "
                        f"but {args.spec} has n = {spec['n']}")
    if args.resolution < 1:
        raise SpecError(f"--resolution must be at least 1, got {args.resolution}")
    build = _build_embedding if args.algo == "embedding" else _build_normals
    surrogate, _ = build(spec, args)
    try:
        levels = surrogate.levels_many(triangle_grid(args.resolution))
    except MemoryError:
        r = args.resolution
        raise SpecError(f"--resolution {r} asks for a grid of (r + 1)(r + 2) / 2 = "
                        f"{(r + 1) * (r + 2) // 2:,} rows, more than memory holds") from None
    serialize.write_levelsets_csv(args.out, *levels)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args)
    if seed is None:
        raise SpecError("a seed is required: pass --seed or set ORDELIC_SEED")
    if args.samples < 1:
        raise SpecError(f"--samples must be at least 1, got {args.samples}")
    scenario = serialize.read_scenario(args.spec)
    rows = sample_dataset(scenario, args.samples, seed)
    predictor = materialize_predictor(scenario, seed + 1)
    serialize.write_dataset_csv(args.out + ".data.csv", scenario.feature_ids,
                                scenario.n_outcomes, rows)
    serialize.write_predictor(args.out + ".predictor.json", predictor)
    serialize.write_json(args.out + ".meta.json", {
        "config": {"spec": args.spec, "samples": args.samples,
                   "seed": seed, "out": args.out},
        "n_outcomes": scenario.n_outcomes,
    })
    return EXIT_OK


def _cmd_audit(args) -> int:
    if args.bin_width is not None and not 0 < args.bin_width < np.inf:
        raise SpecError(f"--bin-width must be finite and positive, got {args.bin_width}")
    # C_marginal = inf is allowed: it makes the discretization bound vacuous
    if args.c_marginal is not None and not args.c_marginal >= 0:
        raise SpecError(f"--c-marginal must be at least 0, got {args.c_marginal}")
    surrogate = serialize.read_surrogate(args.surrogate)
    predictor = serialize.read_predictor(args.predictor, surrogate.n_outcomes)
    for flag, given, kind in [("--bin-width", args.bin_width is not None, "scalar"),
                              ("--c-marginal", args.c_marginal is not None, "scalar"),
                              ("--convention plot", args.convention == "plot",
                               "distribution")]:
        if given and predictor.kind != kind:  # so config lists only flags it read
            raise SpecError(f"{flag} applies only to a {kind} predictor, but "
                            f"{args.predictor} holds a {predictor.kind} predictor")
    if args.bin_width is not None:  # a bin is floor(u / w), as an int64
        ratio = float(np.max(np.abs(predictor.values), initial=0.0)) / args.bin_width
        if not ratio < 2.0**63:
            raise SpecError(f"--bin-width {args.bin_width} puts the predictions of "
                            f"{args.predictor} in bins beyond the int64 range: the "
                            f"largest |u| / w is {ratio:.6g}")
    if (args.data is None) == (args.scenario is None):
        raise SpecError("pass exactly one of --data or --scenario")
    if args.scenario is not None:
        scenario = serialize.read_scenario(args.scenario)
        data = exact_dataset(scenario)
    else:
        data = serialize.read_dataset_csv(args.data, surrogate.n_outcomes)
    missing = next((x for x in data.keys if x not in predictor.index), None)
    if missing is not None:
        raise SpecError(f"x_id {missing!r} from {args.data or args.scenario} has "
                        f"no prediction in {args.predictor}")

    if predictor.kind == "distribution":
        bins = audit_mod.bin_predictions(predictor, data, surrogate.gamma_many)
        reports = [audit_mod.dist_calibration_wrt(bins, norm=args.norm,
                                                  convention=args.convention),
                   audit_mod.check_postprocessing_bound(bins, surrogate, norm=args.norm)]
    elif predictor.kind == "scalar":
        bins = audit_mod.bin_predictions(predictor, data)
        w = args.bin_width
        width_bins = bins if w is None else audit_mod.bin_predictions(
            predictor, data, lambda u: np.floor(u / w).astype(np.int64))
        reports = [audit_mod.surrogate_calibration(width_bins, surrogate.gamma_many,
                                                   norm=args.norm, bin_width=w)]
        if args.c_marginal is not None:
            c_marg, estimated = args.c_marginal, False
        else:
            c_marg, estimated = audit_mod.estimate_marginal_lipschitz(
                bins, norm=args.norm), True
        reports.append(audit_mod.check_discretization_bound(
            bins, surrogate, C_marginal=c_marg, c_estimated=estimated, norm=args.norm))
    else:
        reports = [audit_mod.discrete_calibration(
            audit_mod.bin_predictions(predictor, data), surrogate.discrete_set_many)]

    payload = {
        "config": {"surrogate": args.surrogate, "data": args.data,
                   "scenario": args.scenario, "predictor": args.predictor,
                   "norm": args.norm, "bin_width": args.bin_width,
                   "convention": args.convention, "out": args.out},
        "reports": [r.as_dict() for r in reports],
    }
    sys.stdout.write(serialize.write_json(args.out, payload))
    all_ok = all(b.satisfied for r in reports for b in r.bounds)
    return EXIT_OK if all_ok else EXIT_BOUND


def _cmd_counterexample(args) -> int:
    if np.isnan(args.c):
        raise SpecError(f"--c must be a number, got {args.c}")
    if args.c < 0:  # a Lipschitz constant is at least 0
        raise SpecError(f"--c must be at least 0, got {args.c}")
    surrogate = serialize.read_surrogate(args.surrogate)
    _, _, instance = audit_mod.counterexample_gap(surrogate, args.c, norm=args.norm)
    f, data = audit_mod.instance_dataset(instance)
    check = audit_mod.check_postprocessing_bound(
        audit_mod.bin_predictions(f, data, surrogate.gamma_many), surrogate, norm=args.norm)
    dist_eps, sur_eps = check.extras["epsilon_dist"], check.extras["epsilon_surrogate"]
    payload = {
        "config": {"surrogate": args.surrogate, "c": args.c,
                   "seed": _resolve_seed(args), "norm": args.norm, "out": args.out},
        "instance": instance,
        "audits": {
            "distribution_epsilon": dist_eps,
            "surrogate_epsilon": sur_eps,
            "gap_exceeds_C_times_epsilon": bool(sur_eps > args.c * dist_eps),
        },
    }
    text = serialize.write_json(args.out + ".report.json", payload)
    serialize.write_json(args.out + ".scenario.json", {
        "features": [{"id": instance["x_id"], "weight": 1.0,
                      "conditional": instance["conditional"]}],
        "predictor": {"recipe": "fixed",
                      "table": {instance["x_id"]: instance["prediction"]}},
    })
    serialize.write_predictor(args.out + ".predictor.json", f)
    sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command; returns its exit code.  The glibc allocator policy of
    the module docstring is set here, once per process, and nowhere else.
    A --flag VALUE whose VALUE starts with one "-" is read as --flag=VALUE."""
    _keep_freed_memory()
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-inf" or "-1,0,2" for an option
        flag, value = argv[i - 1:i + 1]
        if flag[:2] == "--" and "=" not in flag and not "--help".startswith(flag) \
                and value[:1] == "-" and value[1:2] not in ("-", "h"):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_SPEC if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except SearchFailure as exc:
        sys.stderr.write(f"search failed: {exc}\n")
        return EXIT_SEARCH
    except (OrdelicError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_SPEC


if __name__ == "__main__":
    sys.exit(main())
