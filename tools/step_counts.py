"""Kernel and screen calls and rows, Python calls and page faults of each rollout config's steps.

    python3 tools/step_counts.py [--seed N] CONFIG [CONFIG ...]

Run from anywhere; the package is imported from ``src/``, the workloads
from ``perfbench/workloads.py``, which this script only reads, and the
digest configs from ``tools/output_digests.py``.  A CONFIG is a rollout
workload of the benchmark or a digest config that runs ``run``, such as
``collision2-switching`` and ``collision4-switching`` (the pessimistic
search at M = 2 and M = 4).  For each it builds the benchmark's
reference stack (train-value, save and load, as the benchmark's set-up
does), then runs the reference rollouts (``run.rollouts`` rollouts at
seeds 0, 1, ...) through a model whose ``transition_batch`` counts its
calls and rows (a row is one joint action of a call's ``u`` stack), and
one certify.  A call whose ``u`` has no sample axis, a 2-D (B, A) block,
is a filter's screen at sample 0 (the centralized filter's, or the
pessimistic search's at its first corner); the kernel sends (b, 1, A)
stacks.  Screen calls and rows are counted apart from the margin
kernel's.  It prints one line per config: the kernel calls and rows, the
screen calls and rows, the steps, the Python-level calls per step
(cProfile's ``total_calls`` over a third pass of the same rollouts,
through the plain model, warmed by the second), and the minor page faults
(``ru_minflt``) per reference step and of the certify call.  With
``--seed N`` a second line counts the first 20 rollouts of the
benchmark's seeded load at ``--seed N``: the seeds
``workloads.extra_seed(N, i)`` that follow the reference rollouts in its
timed window.  Call, row and Python-call counts are a pure function of
the code and the config, and repeat exactly; page faults depend on the
allocator and the machine.
"""

from __future__ import annotations

import argparse
import cProfile
import dataclasses
import pstats
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import riskfilter as rf  # noqa: E402
import workloads as wl  # noqa: E402
from output_digests import CONFIGS  # noqa: E402


def rollout_configs() -> dict:
    """name -> config text of every config this tool counts: the rollout
    workloads, then the other digest configs that run ``run``."""
    out = {name: text for name, (kind, text) in wl.WORKLOADS.items() if kind == "rollout"}
    out.update((name, text) for name, (text, commands) in CONFIGS.items()
               if "run" in commands and name not in wl.WORKLOADS)
    return out


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def count_rollouts(stack, seeds) -> dict:
    """Kernel calls and rows, screen calls and rows, steps, Python calls per
    step and page faults per step of the rollouts at ``seeds``."""
    calls = {"calls": 0, "rows": 0, "screen_calls": 0, "screen_rows": 0}
    inner = stack.model.transition_batch

    def transition_batch(x, u, thetas, noises):
        kind = "screen_" if np.ndim(u) == 2 else ""
        calls[kind + "calls"] += 1
        calls[kind + "rows"] += int(np.prod(np.shape(u)[:-1]))
        return inner(x, u, thetas, noises)

    counted = dataclasses.replace(stack.model, transition_batch=transition_batch)
    controller = wl.make_controller(stack)
    starts = [(seed, wl.initial_state(stack, seed)) for seed in seeds]

    def run(model):
        for seed, x0 in starts:
            rf.rollout(model, controller, x0, stack.cfg.steps, seed)

    start = minor_faults()
    run(counted)
    faults = minor_faults() - start
    run(stack.model)    # warms what the plain model builds once, then profile it
    profile = cProfile.Profile()
    profile.runcall(run, stack.model)
    steps = len(starts) * stack.cfg.steps
    return {**calls, "steps": steps,
            "py_calls_per_step": pstats.Stats(profile).total_calls / max(steps, 1),
            "minflt_per_step": faults / max(steps, 1)}


def counts(text: str, scratch: Path, seed: int | None = None, rollouts: int = 20) -> dict:
    """Counts of one rollout config's reference steps and certify call, and,
    given ``seed``, of the first ``rollouts`` rollouts of its seeded load
    under ``"seeded"``."""
    stack = wl.build_stack(text, scratch)
    cfg = stack.cfg
    out = count_rollouts(stack, range(cfg.rollouts))
    start = minor_faults()
    wl.certify(cfg, stack.model, stack.barrier, stack.safe, cfg.seed)
    out["minflt_per_certify"] = minor_faults() - start
    if seed is not None:
        out["seeded"] = count_rollouts(stack, [wl.extra_seed(seed, i) for i in range(rollouts)])
    return out


def main(argv) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, help="also count the seeded load at this --seed")
    p.add_argument("configs", nargs="*")
    args = p.parse_args(argv)
    rollout = rollout_configs()
    unknown = [name for name in args.configs if name not in rollout]
    if not args.configs or unknown:
        print(f"usage: step_counts.py [--seed N] CONFIG...; "
              f"rollout configs: {list(rollout)}", file=sys.stderr)
        return 2
    for name in args.configs:
        with tempfile.TemporaryDirectory() as scratch:
            c = counts(rollout[name], Path(scratch), args.seed)
        print(f"{name} calls={c['calls']} rows={c['rows']} "
              f"screen_calls={c['screen_calls']} screen_rows={c['screen_rows']} "
              f"steps={c['steps']} "
              f"py_calls_per_step={c['py_calls_per_step']:.2f} "
              f"minflt_per_step={c['minflt_per_step']:.2f} "
              f"minflt_per_certify={c['minflt_per_certify']}", flush=True)
        if args.seed is not None:
            s = c["seeded"]
            print(f"{name} seed={args.seed} calls={s['calls']} rows={s['rows']} "
                  f"screen_calls={s['screen_calls']} screen_rows={s['screen_rows']} "
                  f"steps={s['steps']} "
                  f"py_calls_per_step={s['py_calls_per_step']:.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
