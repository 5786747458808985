"""End-to-end benchmark of the ordelic CLI pipeline.

    python3 e2ebench/run.py --workload {tall,wide,geometry} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The benchmark imports ``ordelic``
from ``src/`` and drives ``ordelic.cli.main(argv)`` in-process, one workload
per process, on inputs generated from ``--seed`` (see ``workloads.py``).  It
runs whole pipeline passes until ``--seconds`` would be exceeded, at least
three, and reports each timing as the median over passes.  The first pass is
checked against an independent numpy reference; every later pass must write
the same bytes.

With ``--trace 0`` the metrics are the ``end_to_end`` ones of BENCHMARK.json.
With ``--trace 1`` passes alternate untraced and traced: traced passes wrap
the package's public functions (``spans.py``) and the metrics are the
``per_layer`` ones, medians over traced passes, plus the tracing overhead.

The next-to-last line of stdout is a JSON report: the environment record,
every metric with its unit and sample count, failed_frac, the per-pass
stage times and any failures.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STAGES = ("construct", "simulate", "audit_dist", "audit_scalar", "audit_report",
          "levelsets", "counterexample")
MIN_PASSES = 3
SETUP_REPEATS = 3
# On a shared machine the speed of the process swings by a third within
# seconds (CPU frequency, co-tenants), for the program and for fixed code
# alike.  While a CLI call runs, SIGALRM runs a fixed probe every
# SAMPLE_INTERVAL_S; the call's wall time, less the probes, is scaled by
# PROBE_REF_S / (median probe time around and during the call): its
# duration at the reference speed.  Raw times are in the report.
PROBE_REF_S = 1.1e-3
SAMPLE_INTERVAL_S = 0.05
# One BLAS thread: the program's products are (m x n) by (n x k) with
# n, k <= 8, where threads gain little and add run-to-run noise.
BLAS_THREADS = 1
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ordelic.cli; "
                "print(time.perf_counter() - t)")
# Span names whose union is reported as serialize.json.s
JSON_SPANS = {f"serialize.{f}" for f in (
    "dumps", "write_json", "read_json", "load_property_spec",
    "surrogate_to_json", "surrogate_from_json", "predictor_to_json",
    "predictor_from_json", "scenario_to_json", "scenario_from_json",
    "audit_report_to_json")}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np
    from ordelic import _kernels
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": tree_digest(SRC),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": _kernels.backend_name(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def git_sha(root: str) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def tree_digest(top: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def import_seconds() -> float:
    """Time to import the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def probe() -> float:
    """Seconds for a fixed burst of work in the program's two typical modes:
    numpy calls on single points with dict updates (the per-feature loops)
    and vectorized numpy on a 2048 x 3 batch (the sampled searches)."""
    import numpy as np
    v = np.array([0.2, 0.3, 0.5])
    batch = np.linspace(0.0, 1.0, 2048 * 3).reshape(2048, 3)
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(30):
        p = np.asarray(v, dtype=np.float64)
        acc[i % 7] = acc.get(i % 7, 0.0) + float(np.linalg.norm(p - p.mean()))
        p = p / p.sum()
    for _ in range(3):
        e = np.exp(-batch)
        np.linalg.norm(e / e.sum(axis=1, keepdims=True) - batch, axis=1)
        ((batch @ batch[:2].T) > 0.5).sum(axis=1)
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs :func:`probe` from SIGALRM every SAMPLE_INTERVAL_S while active."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed_scale(probes) -> float:
    """Factor that converts wall seconds to reference-speed seconds."""
    return PROBE_REF_S / statistics.median(probes)


def run_op(cli, op, tracer):
    """Run one CLI call: (argv, exit code or None, stdout, stderr, seconds,
    scale).  ``seconds`` excludes the sampler's probes; ``scale`` converts
    it to reference speed from probes taken before, during and after."""
    out, err = io.StringIO(), io.StringIO()
    try:
        argv = op.argv() if callable(op.argv) else op.argv
    except (OSError, ValueError, KeyError) as exc:
        return None, None, "", f"inputs of the call are missing: {exc!r}", 0.0, 1.0
    gc.collect()
    code = None
    before = probe()
    with redirect_stdout(out), redirect_stderr(err), SpeedSampler() as sampler:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code = cli.main(argv)
        except Exception:  # the pass goes on; the op counts as failed
            traceback.print_exc()
    seconds = time.perf_counter() - t0 - sum(sampler.samples)
    scale = speed_scale(sampler.samples + [before, probe()])
    return argv, code, out.getvalue(), err.getvalue(), seconds, scale


def digest(stdout: str, stderr: str, paths) -> str:
    h = hashlib.sha256(stdout.encode() + b"\0" + stderr.encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def run_pass(pipeline, cli, reference: dict, tracer, failures: list, index: int) -> dict:
    """One pipeline pass.  The first pass (empty ``reference``) runs every
    op's check and records output digests; later passes compare digests."""
    from checks import CheckError
    times = dict.fromkeys(STAGES, 0.0)
    rows = audit_s = 0.0
    boundaries = 0
    raw = dict.fromkeys(STAGES, 0.0)
    for i, op in enumerate(pipeline.ops()):
        argv, code, stdout, stderr, seconds, scale = run_op(cli, op, tracer)
        raw[op.stage] += seconds
        times[op.stage] += seconds * scale
        if op.rows:
            rows += op.rows
            audit_s += seconds * scale
        problem = None
        if code != op.expect:
            wrong = op.expect != 0 and code == 0
            problem = ("wrong" if wrong else "refused",
                       f"exit {code}, expected {op.expect}: {stderr.strip()[-400:]}")
        else:
            boundaries += op.boundaries
            try:
                got = digest(stdout, stderr, op.outputs)
                if i not in reference:
                    reference[i] = got
                    if op.check is not None:
                        op.check(stdout, stderr)
                elif got != reference[i]:
                    problem = ("wrong", "output bytes differ from the first pass")
            except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                problem = ("wrong", f"{type(exc).__name__}: {exc}")
        if problem is not None:
            failures.append({"pass": index, "stage": op.stage, "kind": problem[0],
                             "argv": argv, "message": problem[1]})
    return {"raw": raw, "times": times, "pipeline_s": sum(times.values()),
            "audit_rows_per_s": rows / audit_s if audit_s > 0 else 0.0,
            "boundaries": boundaries, "traced": tracer is not None}


def layer_metric(name: str, stats: dict, boundaries: int) -> float:
    """Value of one per-layer metric from a traced pass's span summary."""
    if name == "trace.spans":
        return float(stats["spans"])
    head, stat = name.rsplit(".", 1)
    if head.startswith("layer."):
        return stats["layers"].get(head[len("layer."):], 0.0)
    s = stats.get(head, {"calls": 0, "s": 0.0, "self_s": 0.0, "rows": 0})
    if stat == "rows_per_call":
        return s["rows"] / s["calls"] if s["calls"] else 0.0
    if stat == "useful_ratio":
        return boundaries / s["calls"] if s["calls"] else 0.0
    return float(s[stat])


def median(values):
    return statistics.median(values) if values else 0.0


def run_passes(pipeline, cli, seconds: float, trace: bool, failures: list):
    """Whole passes until the next one would end after ``seconds``, at least
    MIN_PASSES.  With ``trace``, every second pass runs under a Tracer."""
    from spans import Tracer
    passes, stats, reference = [], [], {}
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - start + median([p["wall"] for p in passes])
            <= seconds):
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = Tracer("ordelic", skip_modules={"ordelic.cli"},
                            rows_layers={"kernels"})
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = run_pass(pipeline, cli, reference, tracer, failures, len(passes))
        finally:
            if tracer is not None:
                tracer.uninstall()
        result["wall"] = time.perf_counter() - t0
        if tracer is not None:
            try:
                stats.append((tracer.summary({"serialize.json": JSON_SPANS}),
                              result["boundaries"]))
            except ValueError as exc:
                failures.append({"pass": len(passes), "stage": "trace",
                                 "kind": "wrong", "argv": None, "message": str(exc)})
        passes.append(result)
    return passes, stats


def end_to_end(spec: dict, setups: list, passes: list) -> dict:
    """metric -> (unit, samples) for the untraced passes."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            values = setups
        elif name == "peak_rss_mb":
            values = [rss_mb]
        elif name in ("pipeline_s", "audit_rows_per_s"):
            values = [p[name] for p in passes]
        else:
            values = [p["times"][name[:-len("_s")]] for p in passes]
        out[name] = (m["unit"], values)
    return out


def per_layer(spec: dict, passes: list, stats: list) -> dict:
    """metric -> (unit, samples) over the traced passes."""
    overhead = (median([p["pipeline_s"] for p in passes if p["traced"]])
                - median([p["pipeline_s"] for p in passes if not p["traced"]]))
    out = {}
    for m in spec["per_layer"]:
        if m["name"] == "trace.overhead_s":
            values = [overhead]
        else:
            values = [layer_metric(m["name"], s, b) for s, b in stats]
        out[m["name"]] = (m["unit"], values)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ordelic", "__init__.py")):
        sys.stderr.write(f"no ordelic sources under {SRC}; run from a checkout\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    from workloads import Pipeline

    work = os.path.join(ROOT, ".e2ebench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        pipeline = Pipeline(args.workload, args.seed, work)
        setups = []
        for _ in range(SETUP_REPEATS):
            scale = speed_scale([probe() for _ in range(25)])
            imp = import_seconds()
            t0 = time.perf_counter()
            pipeline.setup()
            setups.append(scale * (imp + time.perf_counter() - t0))
        import ordelic
        import ordelic.cli as cli
        if not os.path.abspath(ordelic.__file__).startswith(SRC + os.sep):
            sys.stderr.write(f"imported ordelic from {ordelic.__file__}, not {SRC}\n")
            return 2

        failures = []
        passes, stats = run_passes(pipeline, cli, args.seconds, bool(args.trace),
                                   failures)
        if args.trace:
            detail = per_layer(spec, passes, stats)
        else:
            detail = end_to_end(spec, setups, passes)
        attempted = len(pipeline.ops()) * len(passes)
        report = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "environment": environment(args.seed),
            "metrics": {name: {"value": median(v), "unit": unit, "samples": len(v)}
                        for name, (unit, v) in detail.items()},
            "failed_frac": len(failures) / attempted,
            "passes": [{"traced": p["traced"], "stage_s": p["times"],
                        "raw_stage_s": p["raw"]} for p in passes],
            "failures": failures[:20],
        }
        print(json.dumps({"report": report}, sort_keys=True))
        print(json.dumps({
            "correct": not any(f["kind"] == "wrong" for f in failures),
            "attempted": attempted, "failed": len(failures),
            "metrics": {name: {"value": median(v), "unit": unit}
                        for name, (unit, v) in detail.items()}}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
