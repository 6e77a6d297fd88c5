"""Alternating benchmark pairs of two checkouts, summarized per metric.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs N] [--seconds S] [--seed0 K]

Pair i runs ``python3 perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` in each checkout, one run at a time; even pairs run the parent
first and odd pairs the change, so neither side always follows the other.
Each run's last line of standard output is its result.  For each end-to-end
metric of the parent's ``BENCHMARK.json`` the script prints both sides'
median and quartiles, the pairs the change won, the change of the median
against the parent's, and two verdicts:

* ``gain``: the change won at least 9 in 10 of the pairs, and its median
  beats the parent's by more than the parent's interquartile range (the
  10-pair rule for a claimed gain);
* ``bound``: the change's median is not worse than the parent's by more
  than the metric's bound, as a fraction of the parent's median.

A pair is won when the change's value is strictly better, in the metric's
``better`` direction.  Runs that print no result, or report
``"correct": false`` or failed operations, are counted on a last line.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def parse_result(stdout: str) -> dict:
    """The result object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    """(Q1, median, Q3) by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list, change: list, spec: list) -> list:
    """One row per metric of ``spec`` that every run reports; ``parent`` and
    ``change`` are the two sides' result objects, pair by pair."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    rows = []
    for metric in spec:
        name = metric["name"]
        if not all(name in r["metrics"] for r in parent + change):
            continue
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        pq, cq = quartiles(p), quartiles(c)
        gain = sign * (cq[1] - pq[1])           # > 0 when the change is better
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        if pq[1]:
            rel = gain / abs(pq[1])
        else:                                   # no relative change from 0
            rel = math.copysign(math.inf, gain) if gain else 0.0
        rows.append({
            "name": name, "unit": metric["unit"], "better": metric["better"],
            "parent": pq, "change": cq, "wins": wins, "pairs": len(p),
            "rel_gain": rel + 0.0,              # print a tie as +0.0, not -0.0
            "gain_rule": wins >= math.ceil(0.9 * len(p)) and gain > pq[2] - pq[0],
            "within_bound": rel >= -metric["bound"],
        })
    return rows


def format_rows(rows: list) -> str:
    def trio(q):
        return "/".join(f"{v:.4g}" for v in q)

    out = [f"{'metric':<18} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
           f"{'wins':>6} {'gain':>8}  verdicts"]
    for r in rows:
        verdicts = [("gain" if r["gain_rule"] else "no-gain"),
                    ("bound-ok" if r["within_bound"] else "BOUND-EXCEEDED")]
        out.append(f"{r['name']:<18} {trio(r['parent']):>30} {trio(r['change']):>30} "
                   f"{r['wins']:>3}/{r['pairs']:<2} {100 * r['rel_gain']:>+7.1f}%  "
                   + " ".join(verdicts))
    return "\n".join(out)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        print(f"{checkout} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}",
              file=sys.stderr)
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--seed0", type=int, default=701)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": [], "change": []}
    bad = 0
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(getattr(args, side), args.workload, seed, args.seconds)
                for side in order}
        bad += sum(r is None or not r["correct"] or r["failed"] > 0 for r in pair.values())
        if any(r is None for r in pair.values()):
            continue
        for side, r in pair.items():
            sides[side].append(r)
        print(f"pair {i + 1}/{args.pairs} seed {seed} done", file=sys.stderr, flush=True)
    if not sides["parent"]:
        print("no pair produced results", file=sys.stderr)
        return 1
    print(f"{args.workload}: {len(sides['parent'])} pairs, seeds {args.seed0}.."
          f"{args.seed0 + args.pairs - 1}")
    print(format_rows(summarize(sides["parent"], sides["change"], spec)))
    print(f"runs without a result, incorrect or with failed operations: {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
