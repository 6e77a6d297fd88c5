"""Kernel calls, rows and page faults of each rollout workload's reference steps.

    python3 tools/step_counts.py WORKLOAD [WORKLOAD ...]

Run from anywhere; the package is imported from ``src/`` and the workloads
from ``perfbench/workloads.py``, which this script only reads.  For each
rollout workload it builds the benchmark's reference stack (train-value,
save and load, as the benchmark's set-up does), then runs the reference
rollouts (``run.rollouts`` rollouts at seeds 0, 1, ...) through a model
whose ``transition_batch`` counts its calls and rows (a row is one joint
action of a call's ``u`` stack), and one certify.  It prints one line per
workload: the calls, the rows, the steps, and the minor page faults
(``ru_minflt``) per reference step and of the certify call.  Call and row
counts are a pure function of the code and the config; page faults depend
on the allocator and the machine.
"""

from __future__ import annotations

import dataclasses
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import riskfilter as rf  # noqa: E402
import workloads as wl  # noqa: E402


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counts(text: str, scratch: Path) -> dict:
    """Calls, rows and page faults of one rollout config's reference steps."""
    stack = wl.build_stack(text, scratch)
    calls = [0, 0]
    inner = stack.model.transition_batch

    def transition_batch(x, u, thetas, noises):
        calls[0] += 1
        calls[1] += int(np.prod(np.shape(u)[:-1]))
        return inner(x, u, thetas, noises)

    model = dataclasses.replace(stack.model, transition_batch=transition_batch)
    controller = wl.make_controller(stack)
    cfg = stack.cfg
    start = minor_faults()
    for seed in range(cfg.rollouts):
        rf.rollout(model, controller, wl.initial_state(stack, seed), cfg.steps, seed)
    steps = cfg.rollouts * cfg.steps
    step_faults = minor_faults() - start
    start = minor_faults()
    wl.certify(cfg, stack.model, stack.barrier, stack.safe, cfg.seed)
    return {"calls": calls[0], "rows": calls[1], "steps": steps,
            "minflt_per_step": step_faults / max(steps, 1),
            "minflt_per_certify": minor_faults() - start}


def main(argv) -> int:
    rollout = [name for name, (kind, _) in wl.WORKLOADS.items() if kind == "rollout"]
    unknown = [name for name in argv if name not in rollout]
    if not argv or unknown:
        print(f"usage: step_counts.py WORKLOAD...; rollout workloads: {rollout}",
              file=sys.stderr)
        return 2
    for name in argv:
        with tempfile.TemporaryDirectory() as scratch:
            c = counts(wl.WORKLOADS[name][1], Path(scratch))
        print(f"{name} calls={c['calls']} rows={c['rows']} steps={c['steps']} "
              f"minflt_per_step={c['minflt_per_step']:.2f} "
              f"minflt_per_certify={c['minflt_per_certify']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
