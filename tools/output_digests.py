"""SHA-256 digests of every CLI output, one line per output, for each benchmark workload.

    python3 tools/output_digests.py [CONFIG ...]

Run from anywhere; the package is imported from ``src/`` and the workload
configs from ``perfbench/workloads.py``.  For each workload (all of them by
default) the config runs at ``run.seed = 0``, the default, through
``train-value``, ``run``, ``sweep-beta``, ``sweep-xi`` and ``certify``, in
that order, in one temporary output directory.  More configs follow:
``collision4-switching`` runs ``train-value`` and ``run`` on collision
M=4, whose 10 x 729-row pessimistic blocks do not fit one pass, so that
searches screened at their first corner and run over several passes are
hashed,
``collision2-switching`` runs the same two commands on collision M=2, whose
10 x 9-row blocks fit one pass with no screen, at ``filter.xi = 12``, where
its 90 solves mix first corner survivors that win (60), winners of a third
pass (3) and infeasible ones (27), and 66 of them drop a candidate at a
corner, ``collision3-switching-slack`` runs the same two commands on
collision M=3 with a nonzero tolerance and epsilon at ``filter.xi = 17``,
so that the pessimistic search's screen at the first corner is hashed away
from 0: its 135 solves mix winners (34) and infeasible ones (101), and the
screen drops 579 of its 1,285 rows,
``collision2-centralized-slack`` runs ``train-value``, ``run`` and
``certify`` under the centralized filter with a nonzero tolerance and
epsilon, so that its candidate screen and the
per-state ``alpha * h + epsilon`` of ``certify`` are hashed away from 0,
``spring-centralized`` runs ``train-value`` and ``run`` on spring under the
centralized filter, the one config whose joint rows skip an unactuated
agent, with both centralized and proximity steps,
``spring-centralized-s1`` runs the same at ``filter.samples = 1``, where
the centralized filter's screen reads the kernel's only sample and the
kernel takes its survivors, and where nominals clipped to the box sit on
grid points,
``collision2-switching-beta-limit`` runs the same two commands as
``collision2-switching`` at ``filter.beta = 1e308``, where the risk
operator's products overflow and every margin is the worst case over the
samples, its beta -> infinity limit, so that this limit path is hashed,
``collision2-switching-beta-small`` runs ``train-value``, ``run`` and
``certify`` on the same config at ``filter.beta = 1e-16``, where
``beta * (max - min)`` is near an ulp of 1, so that the operator's
small-beta end, which a log of a mean of exponentials gets wrong (it
returned the minimum there), is hashed,
``spring-certify700`` runs ``train-value`` and ``certify`` at 700 samples,
one state per kernel pass, ``train-value-hidden32`` and
``train-value-hidden16x3`` run ``train-value`` alone with one and three
hidden layers, so that the fit is hashed at layer counts no workload uses,
and ``train-value-seed2p53`` runs ``train-value`` alone at
``run.seed = 9007199254740993`` (2**53 + 1), a seed float64 cannot hold,
so that the exact seed bytes ``value_model.bin`` records are hashed.
After each command, every output its manifest lists is hashed, and a line
``workload command/file sha256`` is printed (the commands' own messages go
to standard error).

Output bytes are a pure function of (config, seed, package version), so a
change that claims to keep outputs byte-identical prints the same lines
as its parent: run this on both checkouts and diff the results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import riskfilter as rf  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("train-value", "run", "sweep-beta", "sweep-xi", "certify")

CONFIGS = {name: (text, COMMANDS) for name, (_, text) in WORKLOADS.items()}
CONFIGS["collision4-switching"] = ("""
run.preset = collision
run.agents = 4
run.controller = switching
run.rollouts = 3
run.steps = 15
value.states = 60
value.horizon = 60
value.samples = 2
""", ("train-value", "run"))
CONFIGS["collision2-switching"] = ("""
run.preset = collision
run.agents = 2
run.controller = switching
run.rollouts = 3
run.steps = 15
value.states = 60
value.horizon = 60
value.samples = 2
filter.xi = 12
""", ("train-value", "run"))
CONFIGS["collision3-switching-slack"] = ("""
run.preset = collision
run.agents = 3
run.controller = switching
run.rollouts = 3
run.steps = 15
value.states = 60
value.horizon = 60
value.samples = 2
filter.xi = 17
filter.tolerance = 0.3
filter.epsilon = 0.05
""", ("train-value", "run"))
CONFIGS["collision2-centralized-slack"] = ("""
run.preset = collision
run.agents = 2
run.controller = centralized
run.rollouts = 3
run.steps = 15
value.states = 60
value.horizon = 60
value.samples = 2
filter.tolerance = 0.3
filter.epsilon = 0.05
""", ("train-value", "run", "certify"))
CONFIGS["spring-centralized"] = ("""
run.preset = spring
run.controller = centralized
run.rollouts = 3
run.steps = 30
value.states = 60
value.horizon = 60
value.samples = 2
value.epochs = 200
""", ("train-value", "run"))
CONFIGS["spring-centralized-s1"] = (CONFIGS["spring-centralized"][0] + "filter.samples = 1\n",
                                    ("train-value", "run"))
CONFIGS["spring-certify700"] = ("""
run.preset = spring
value.states = 60
value.horizon = 60
value.samples = 2
certify.samples = 700
""", ("train-value", "certify"))
for name, hidden in (("train-value-hidden32", "32"), ("train-value-hidden16x3", "16x16x16")):
    CONFIGS[name] = (f"""
run.preset = spring
value.states = 60
value.horizon = 60
value.samples = 2
value.hidden = {hidden}
""", ("train-value",))

CONFIGS["collision2-switching-beta-limit"] = (
    CONFIGS["collision2-switching"][0] + "filter.beta = 1e308\n", ("train-value", "run"))
CONFIGS["collision2-switching-beta-small"] = (
    CONFIGS["collision2-switching"][0] + "filter.beta = 1e-16\n", ("train-value", "run", "certify"))
CONFIGS["train-value-seed2p53"] = (CONFIGS["train-value-hidden32"][0]
                                   + "run.seed = 9007199254740993\n", ("train-value",))


def digests(name: str) -> list:
    """(label, sha256) of every output of every command, for one config."""
    text, commands = CONFIGS[name]
    lines = []
    with tempfile.TemporaryDirectory() as out:
        cfg = rf.config_with(rf.parse_config(text), out=out)
        for command in commands:
            with contextlib.redirect_stdout(sys.stderr):   # keep stdout to digests
                code = rf.run_experiment(cfg, command)
            if code != 0:
                raise SystemExit(f"{name}: {command} exited {code}")
            outputs = json.loads((Path(out) / "manifest.json").read_text())["outputs"]
            for file in outputs:
                digest = hashlib.sha256((Path(out) / file).read_bytes()).hexdigest()
                lines.append((f"{command}/{file}", digest))
    return lines


def main(argv) -> int:
    names = argv or list(CONFIGS)
    unknown = [n for n in names if n not in CONFIGS]
    if unknown:
        print(f"unknown config(s) {unknown}; known: {sorted(CONFIGS)}", file=sys.stderr)
        return 2
    for name in names:
        for label, digest in digests(name):
            print(f"{name} {label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
