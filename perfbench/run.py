"""riskfilter benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from in-memory spans, the
tracing overhead, and the fixed-size layer probe.  The last line of
standard output is the result object; the line before it carries the
provenance, the output checks and the details.  Both also go to
``.perfbench_out/BENCH_<workload>_seed<N>_trace<T>.json``, and a traced
run writes its spans to ``.perfbench_out/spans_<workload>_seed<N>.json.gz``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the arguments or the sources are unusable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_state() -> tuple:
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"], env=env,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def blas_threads():
    """OpenBLAS's thread count, read from the library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args, rf, np) -> dict:
    sha, dirty = git_state()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "git_dirty": dirty,
        "riskfilter_version": rf.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "load": "closed loop, one client",
    }


def expected_names(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "riskfilter" / "__init__.py").is_file():
        print(f"error: no riskfilter sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np

    import riskfilter as rf
    import workloads as wl
    from measure import Tracer

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    kind, config = wl.WORKLOADS[args.workload]
    rollout = kind == "rollout"

    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    out = wl.Outcome()
    try:
        if args.trace:
            tracer = Tracer()
            trace_fn = wl.trace_rollout_workload if rollout else wl.trace_train_workload
            plain_sps, traced_sps = trace_fn(config, args.seed, scratch, out, tracer)
            wl.layer_metrics(tracer, out)
            out.metric("trace.overhead_frac", 1.0 - traced_sps / plain_sps, "ratio")
            out.detail["untraced_steps_per_s"] = plain_sps
            out.detail["traced_steps_per_s"] = traced_sps
            from probe import run_probe

            for name, (value, unit) in run_probe(scratch).items():
                out.metric(name, value, unit)
            tracer.write(OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json.gz")
        else:
            run_fn = wl.run_rollout_workload if rollout else wl.run_train_workload
            run_fn(config, args.seed, args.seconds, SRC, scratch, out)
            out.metric("peak_rss_mb",
                       resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = set(expected_names(args.trace))
    out.check("metrics_match_spec", expected == set(out.metrics))
    if expected != set(out.metrics):
        out.detail["missing_metrics"] = sorted(expected - set(out.metrics))
        out.detail["unlisted_metrics"] = sorted(set(out.metrics) - expected)

    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out.metrics,
    }
    record = {"provenance": provenance(args, rf, np), "checks": out.checks,
              "detail": out.detail, "result": result}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("provenance", "checks", "detail")}, sort_keys=True))
    print(json.dumps(result))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
