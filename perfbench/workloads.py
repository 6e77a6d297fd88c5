"""The four workloads, driven through riskfilter's public API.

Every workload has a fixed reference part and a seeded part.  The
reference part is exactly what the CLI computes for the workload's config
at ``run.seed = 0``; the quality metrics (violation and feasibility rates,
the value fit's MSE, the trajectory digest) come from it, so they repeat
exactly from run to run and gate behaviour, not sampling noise.  The
seeded part is further load drawn from ``--seed`` that fills the timed
window.

The load is closed-loop: the next controller step starts only after the
previous one returned, as inside ``rollout``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from statistics import median

import numpy as np

import riskfilter as rf
from riskfilter import filters as rf_filters
from riskfilter import simulate as rf_simulate
from riskfilter.experiments import write_trajectories_csv

from measure import (
    HostSpeed,
    Tracer,
    aggregate,
    check_metric_name,
    count_under,
    percentile,
    tail_percentile,
)

MIN_STEP_SAMPLES = 100      # ten beyond p90
SETUP_REPEATS = 3           # rollout workloads: each repeat trains a barrier
LIGHT_SETUP_REPEATS = 5     # train-certify: imports, config and model only
CERTIFY_REPEATS = 15

# Desk-scale barriers: sized so one training takes a few seconds here
# and the branch mix matches the regime each workload is meant to load.
SPRING_BARRIER = """
run.preset = spring
value.states = 200
value.horizon = 120
value.samples = 1
"""
COLLISION3_BARRIER = """
run.preset = collision
run.agents = 3
value.states = 100
value.horizon = 100
value.samples = 2
"""
# Enough certify states that one certify takes over 0.1 s: few of the
# collision states lie in the barrier's sublevel set, and only those cost.
SPRING_CERTIFY = "certify.states = 200\n"
COLLISION3_CERTIFY = "certify.states = 1000\n"


# name -> (kind, config text).  Why each workload exists is in
# BENCHMARK.json and README.md.
WORKLOADS = {
    # The reference rollouts fill over half of a 15 s window: step costs
    # depend on the branch mix, which swings between seeds (a feasible
    # centralized step costs a tenth of a full scan), and a large fixed
    # part keeps the timings from hanging on the seed.
    "spring-switching": ("rollout", SPRING_BARRIER + SPRING_CERTIFY + """
run.controller = switching
run.rollouts = 8
run.steps = 200
"""),
    "collision3-switching": ("rollout", COLLISION3_BARRIER + COLLISION3_CERTIFY + """
run.controller = switching
run.rollouts = 10
run.steps = 15
"""),
    "collision3-centralized": ("rollout", COLLISION3_BARRIER + COLLISION3_CERTIFY + """
run.controller = centralized
run.rollouts = 10
run.steps = 15
"""),
    # Default train-value sizes except value.states (2000 would take ~80 s).
    "train-certify": ("train", "run.preset = spring\nvalue.states = 60\n" + SPRING_CERTIFY),
}


class Outcome:
    """Metrics, output checks and failure counts of one benchmark run."""

    def __init__(self):
        self.metrics: dict = {}
        self.checks: dict = {}
        self.attempted = 0
        self.failed = 0
        self.detail: dict = {}

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[check_metric_name(name)] = {"value": float(value), "unit": unit}

    def timing(self, name: str, raw: float, scaled: float, unit: str) -> None:
        """A timing at the reference host speed; the raw figure goes to the detail."""
        self.detail.setdefault("raw", {})[name] = raw
        self.metric(name, scaled, unit)

    def work(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, name: str, ok: bool) -> None:
        """A whole-run output check; one attempted unit, failed when not ok."""
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        self.work(1, 0 if ok else 1)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# ---------------------------------------------------------------- helpers
#
# Timed work is kept as (start, end) pieces, so that calibration in between
# stays out of every timing and each piece can be scaled by the host speed
# measured around it.


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def raw_seconds(pieces) -> float:
    return sum(end - start for start, end in pieces)


def fresh_import(src: Path) -> tuple:
    """The piece a fresh interpreter takes to import the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import riskfilter"], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return start, time.perf_counter()


def timed(tracer: Tracer | None, name: str, fn, *args):
    """(result, piece) of one call, under a span when tracing."""
    idx = tracer.begin(name) if tracer is not None else None
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        end = time.perf_counter()
        if idx is not None:
            tracer.end(idx)
    return result, (start, end)


def extra_seed(seed: int, i: int) -> int:
    """Seeded load: disjoint from the reference seeds 0, 1, 2, ..."""
    return 1_000_000 * (int(seed) + 1) + i


def trajectories_bytes(records, model, path: Path) -> bytes:
    write_trajectories_csv(records, model, path)
    return path.read_bytes()


def latency_metrics(out: Outcome, raw_s: list, scaled_s: list) -> None:
    n = len(scaled_s)
    tail = tail_percentile(n)
    out.detail["step_samples"] = n
    out.detail["step_tail_percentile"] = tail
    if tail is None or tail < 90.0:
        out.check("enough_latency_samples", False)
        return
    for p in (50, 90):
        out.timing(f"step_p{p}_ms", percentile(raw_s, p) * 1e3, percentile(scaled_s, p) * 1e3,
                   "ms")


# ---------------------------------------------------------- tracing hooks


class TracedValue:
    """Value model whose ``predict`` records a span and the row count."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def predict(self, x):
        x_arr = np.asarray(x)
        rows = x_arr.shape[0] if x_arr.ndim == 2 and x_arr.size != self.inner.input_dim else 1
        self.tracer.counts["value.predict.rows"] += rows
        idx = self.tracer.begin("value.predict")
        try:
            return self.inner.predict(x)
        finally:
            self.tracer.end(idx)


def traced_model(model, tracer: Tracer):
    return dataclasses.replace(
        model,
        transition=tracer.wrap("dynamics.transition", model.transition),
        transition_batch=tracer.wrap("dynamics.transition_batch", model.transition_batch),
        cost_fn=tracer.wrap("dynamics.cost", model.cost_fn),
    )


@contextmanager
def traced_filters(tracer: Tracer):
    """Patch the filter entry points where the package looks them up."""

    def count_risk(args, result):
        tracer.counts["risk.risk_lower.samples"] += int(np.size(args[0]))

    def count_feasible(name):
        def on_result(args, result):
            tracer.counts[f"{name}.feasible"] += result is not None
        return on_result

    hooks = {
        "risk_lower": ("risk.risk_lower", count_risk),
        "pessimistic_filter": ("filters.pessimistic", count_feasible("filters.pessimistic")),
        "worst_case_margin": ("filters.worst_case_margin", None),
        "proximity_filter": ("filters.proximity", None),
        "switching_filter": ("filters.switching", None),
        "centralized_filter": ("filters.centralized", count_feasible("filters.centralized")),
    }
    saved = []
    for module in (rf_filters, rf_simulate):
        for attr, (name, on_result) in hooks.items():
            if hasattr(module, attr):
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, tracer.wrap(name, original, on_result))
    try:
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class TimedController:
    """Times every ``act``; a span too when tracing.

    ``steps`` holds each act's (start, end).  ``loop`` holds each step's
    closed-loop piece: from when the rollout regained control after the
    previous step to the end of this act, so it also covers the
    transition and bookkeeping between steps.  ``speed`` calibrates after
    each step, outside both.
    """

    def __init__(self, inner, tracer: Tracer | None = None, speed: HostSpeed | None = None):
        self.inner = inner
        self.tracer = tracer
        self.speed = speed
        self.steps: list = []
        self.loop: list = []
        self._resume = None

    def resume(self) -> None:
        """Mark the start of the next rollout."""
        self._resume = time.perf_counter()

    def act(self, model, x, rollout_seed, step):
        idx = self.tracer.begin("simulate.act") if self.tracer is not None else None
        start = time.perf_counter()
        try:
            return self.inner.act(model, x, rollout_seed, step)
        finally:
            end = time.perf_counter()
            if idx is not None:
                self.tracer.end(idx)
            self.steps.append((start, end))
            self.loop.append((start if self._resume is None else self._resume, end))
            if self.speed is not None:
                self.speed.tick()
            self._resume = time.perf_counter()

    @property
    def latencies(self) -> list:
        return [end - start for start, end in self.steps]


# ------------------------------------------------------ rollout workloads


@dataclasses.dataclass
class Stack:
    """Everything a rollout workload needs after set-up."""

    cfg: object
    model: object
    nominal: object
    safe: object
    fitted: object          # the model fit_value returned
    value_model: object     # the same model, saved and loaded again
    barrier: object
    setup_pieces: list
    train_pieces: list


def build_stack(cfg_text: str, scratch: Path, tracer: Tracer | None = None,
                speed: HostSpeed | None = None) -> Stack:
    """Config -> model -> train-value (collect, fit, save, load) -> barrier."""
    start = time.perf_counter()
    cfg = rf.parse_config(cfg_text)
    model = cfg.build_model()
    nominal, safe = cfg.nominal_policy(model), cfg.safe_policy(model)
    config_piece = (start, time.perf_counter())
    if tracer is not None:
        model = traced_model(model, tracer)
        nominal = tracer.wrap("policies.policy", nominal)
        safe = tracer.wrap("policies.policy", safe)
    fitted, path, pieces = train_value(cfg, model, safe, cfg.seed, scratch, tracer, speed)
    loaded, load_piece = timed(tracer, "persist.load_value_model", rf.load_value_model, path)
    value_model = TracedValue(loaded, tracer) if tracer is not None else loaded
    train_pieces = pieces + [load_piece]
    return Stack(cfg, model, nominal, safe, fitted, loaded, rf.Barrier(value_model, cfg.xi),
                 [config_piece] + train_pieces, train_pieces)


def train_value(cfg, model, safe, seed: int, scratch: Path, tracer=None,
                speed: HostSpeed | None = None):
    """What ``riskfilter train-value --seed <seed>`` does, one row per call.

    Row i of ``collect_dataset`` uses seed ``seed + i`` and nothing else,
    so collecting rows one call at a time gives the CLI's dataset bit for
    bit while timing every row; ``speed`` calibrates between rows.
    Returns the model, the saved path and the pieces: one per row, then
    fit and save.
    """
    sampler = cfg.value_sampler(model)
    rows, pieces = [], []
    idx = tracer.begin("value.collect_dataset") if tracer is not None else None
    for i in range(cfg.value_states):
        start = time.perf_counter()
        rows.append(rf.collect_dataset(model, safe, 1, cfg.value_horizon, cfg.value_samples,
                                       seed + i, sampler))
        pieces.append((start, time.perf_counter()))
        if speed is not None:
            speed.tick()
    if idx is not None:
        tracer.end(idx)
        tracer.counts["value.collect_dataset.steps"] += (
            cfg.value_states * cfg.value_horizon * cfg.value_samples)
    dataset = rf.ValueDataset(
        states=np.concatenate([r.states for r in rows]),
        targets=np.concatenate([r.targets for r in rows]),
        gamma=model.gamma,
        horizon=cfg.value_horizon,
    )
    approx = rf.ApproxConfig(hidden=cfg.hidden_sizes(), epochs=cfg.value_epochs,
                             learning_rate=cfg.value_lr)
    vm, fit_piece = timed(tracer, "value.fit_value", rf.fit_value, dataset, approx, seed)
    if tracer is not None:
        tracer.counts["value.fit_value.epochs"] += cfg.value_epochs
    path = scratch / f"value_model-{seed}.bin"
    _, save_piece = timed(tracer, "persist.save_value_model", rf.save_value_model, vm, path)
    return vm, path, pieces + [fit_piece, save_piece]


def certify(cfg, model, barrier, policy, seed: int, tracer=None):
    """What ``riskfilter certify --seed <seed>`` computes; (report, piece)."""
    sampler = cfg.value_sampler(model)
    states = [sampler(np.random.default_rng(np.random.SeedSequence([seed, 977, i])))
              for i in range(cfg.certify_states)]
    if tracer is not None:
        tracer.counts["guarantees.certify_grid.states"] += len(states)
    return timed(tracer, "guarantees.certify_grid", rf.certify_grid, model, barrier, policy,
                 states, cfg.filter_config(), seed, cfg.certify_samples, cfg.certify_k)


def certify_repeated(cfg, model, barrier, policy, seed: int, out: Outcome, speed: HostSpeed):
    """CERTIFY_REPEATS certify runs with output checks; (report, pieces)."""
    runs = []
    for _ in range(CERTIFY_REPEATS):
        runs.append(certify(cfg, model, barrier, policy, seed))
        speed.tick(force=True)
    report = runs[0][0]
    out.work(report.n_evaluated, int(np.sum(~np.isfinite(report.margins))))
    out.check("certify_evaluated", report.n_evaluated > 0)
    out.check("certify_repeats_identical",
              all(same_bits(r.margins, report.margins) for r, _ in runs))
    return report, [piece for _, piece in runs]


def make_controller(stack: Stack):
    kind = (rf.CentralizedController if stack.cfg.controller == "centralized"
            else rf.SwitchingController)
    return kind(barrier=stack.barrier, nominal=stack.nominal, safe=stack.safe,
                cfg=stack.cfg.filter_config())


def initial_state(stack: Stack, seed: int):
    sampler = stack.cfg.init_sampler(stack.model)
    return sampler(np.random.default_rng(np.random.SeedSequence([seed, 977])))


def check_steps(rec, model) -> int:
    """Number of steps whose action or branch flags are inconsistent."""
    low, high = model.action_low, model.action_high
    bad = 0
    for action, branches, feasible in zip(rec.actions, rec.branches, rec.feasible):
        ok = True
        for ui, d, branch, feas in zip(action, model.action_dims, branches, feasible):
            ui = np.asarray(ui, dtype=float)
            ok &= ui.size == d and bool(np.all((ui >= low) & (ui <= high)))
            if d == 0:
                ok &= branch == "" and bool(feas)
            elif branch in ("pessimistic", "centralized"):
                ok &= bool(feas)
            elif branch == "proximity":
                ok &= not feas
            else:
                ok = False
        bad += not ok
    return bad


def drive(stack: Stack, controller: TimedController, seeds, out: Outcome, until=None):
    """Closed-loop rollouts over ``seeds``; stops early once ``until()`` holds."""
    records = []
    for seed in seeds:
        x0 = initial_state(stack, seed)
        controller.resume()
        try:
            records.append(rf.rollout(stack.model, controller, x0, stack.cfg.steps, seed))
        except rf.RiskFilterError as exc:
            out.work((getattr(exc, "step_index", 0) or 0) + 1, 1)
            out.checks["no_step_errors"] = False
        if until is not None and until():
            break
    for rec in records:
        out.work(rec.n_steps, check_steps(rec, stack.model))
    return records


def run_rollout_workload(config: str, seed: int, seconds: float, src: Path,
                         scratch: Path, out: Outcome) -> None:
    speed = HostSpeed()
    speed.tick(force=True)
    setup, train, stacks = [], [], []
    for _ in range(SETUP_REPEATS):
        import_piece = fresh_import(src)
        stacks.append(build_stack(config, scratch, speed=speed))
        speed.tick(force=True)
        setup.append([import_piece] + stacks[-1].setup_pieces)
        train.append(stacks[-1].train_pieces)
    stack = stacks[0]
    flat = stack.cfg.value_sampler(stack.model)(np.random.default_rng(1)).reshape(1, -1)
    probe_rows = np.repeat(flat, 5, axis=0) + np.linspace(-0.5, 0.5, 5)[:, None]
    reference = stack.value_model.predict(probe_rows)
    out.check("save_load_roundtrip", same_bits(stack.fitted.predict(probe_rows), reference))
    out.check("setup_repeats_identical",
              all(same_bits(s.value_model.predict(probe_rows), reference) for s in stacks))
    del stacks[1:]

    _, certify_pieces = certify_repeated(stack.cfg, stack.model, stack.barrier, stack.safe,
                                         stack.cfg.seed, out, speed)

    drive(stack, TimedController(make_controller(stack)), [extra_seed(seed, 10**5)],
          out)   # warm-up, not timed
    controller = TimedController(make_controller(stack), speed=speed)
    n_ref = stack.cfg.rollouts
    seeds = list(range(n_ref)) + [extra_seed(seed, i) for i in range(10**5)]
    speed.tick(force=True)
    start = time.perf_counter()
    records = drive(
        stack, controller, seeds, out,
        until=lambda: (time.perf_counter() - start >= seconds
                       and len(controller.steps) >= MIN_STEP_SAMPLES
                       and len(controller.steps) >= n_ref * stack.cfg.steps),
    )
    speed.tick(force=True)

    out.timing("setup_s", median(map(raw_seconds, setup)),
               median(map(speed.seconds, setup)), "s")
    out.timing("train_s", median(map(raw_seconds, train)),
               median(map(speed.seconds, train)), "s")
    out.timing("certify_s", median(e - s for s, e in certify_pieces),
               median(speed.seconds([p]) for p in certify_pieces), "s")
    steps = len(controller.steps)
    out.timing("steps_per_s", steps / raw_seconds(controller.loop),
               steps / speed.seconds(controller.loop), "1/s")
    latency_metrics(out, controller.latencies, [speed.seconds([p]) for p in controller.steps])
    out.metric("value_mse", stack.value_model.final_mse, "value_sq")
    out.detail["rollouts"] = len(records)

    ref = records[:n_ref]
    metrics = rf.compute_metrics(ref, stack.model)
    out.metric("violation_rate", metrics.violation_rate, "ratio")
    out.metric("feasibility_rate", metrics.feasibility_rate, "ratio")
    out.detail["branch_usage"] = metrics.branch_usage
    ref_bytes = trajectories_bytes(ref, stack.model, scratch / "trajectories.csv")
    out.detail["trajectories_sha256"] = hashlib.sha256(ref_bytes).hexdigest()

    # The same code and seed must give the same bytes: replay rollout 0.
    again = drive(stack, TimedController(make_controller(stack)), [0], out)
    first = trajectories_bytes(ref[:1], stack.model, scratch / "first.csv")
    replay = trajectories_bytes(again, stack.model, scratch / "replay.csv")
    out.check("trajectories_repeat", first == replay)


def trace_rollout_workload(config: str, seed: int, scratch: Path, out: Outcome,
                           tracer: Tracer) -> tuple:
    """One traced set-up, certify and reference pass, plus an untraced reference pass.

    Returns the (untraced, traced) steps per second of the reference pass.
    """
    with traced_filters(tracer):
        stack = build_stack(config, scratch, tracer)
        report, _ = certify(stack.cfg, stack.model, stack.barrier, stack.safe,
                            stack.cfg.seed, tracer)
    out.work(report.n_evaluated, int(np.sum(~np.isfinite(report.margins))))

    model = stack.cfg.build_model()
    plain = dataclasses.replace(stack, model=model, nominal=stack.cfg.nominal_policy(model),
                                safe=stack.cfg.safe_policy(model),
                                barrier=rf.Barrier(stack.value_model, stack.cfg.xi))
    drive(plain, TimedController(make_controller(plain)), [extra_seed(seed, 10**5)],
          out)   # warm-up
    plain_ctrl = TimedController(make_controller(plain))
    n_ref = plain.cfg.rollouts
    plain_recs = drive(plain, plain_ctrl, range(n_ref), out)

    traced_ctrl = TimedController(make_controller(stack), tracer)
    traced_recs, traced_pieces = [], []
    with traced_filters(tracer):
        for s in range(n_ref):
            rec, piece = timed(tracer, "simulate.rollout", rf.rollout, stack.model, traced_ctrl,
                               initial_state(stack, s), stack.cfg.steps, s)
            traced_recs.append(rec)
            traced_pieces.append(piece)
    for rec in traced_recs:
        out.work(rec.n_steps, check_steps(rec, stack.model))

    a = trajectories_bytes(plain_recs, plain.model, scratch / "plain.csv")
    b = trajectories_bytes(traced_recs, stack.model, scratch / "traced.csv")
    out.check("tracing_preserves_outputs", a == b)
    out.detail["trajectories_sha256"] = hashlib.sha256(a).hexdigest()
    steps = sum(r.n_steps for r in plain_recs)
    return steps / raw_seconds(plain_ctrl.loop), steps / raw_seconds(traced_pieces)


# -------------------------------------------------------- train-certify


def train_certify_cycle(cfg, model, safe, cycle_seed: int, scratch: Path, out: Outcome,
                        tracer=None, speed: HostSpeed | None = None):
    """``train-value`` then ``certify`` at one seed.

    Returns the model, the barrier, the certify report and the train pieces
    (rows first).
    """
    vm, path, pieces = train_value(cfg, model, safe, cycle_seed, scratch, tracer, speed)
    loaded, load_piece = timed(tracer, "persist.load_value_model", rf.load_value_model, path)
    flat = np.stack([cfg.value_sampler(model)(np.random.default_rng(i)) for i in range(8)])
    flat = flat.reshape(8, -1)
    out.check("save_load_roundtrip", same_bits(vm.predict(flat), loaded.predict(flat)))
    value_model = TracedValue(loaded, tracer) if tracer is not None else loaded
    barrier = rf.Barrier(value_model, cfg.xi)
    report, _ = certify(cfg, model, barrier, safe, cycle_seed, tracer)
    out.work(cfg.value_states)
    out.work(report.n_evaluated, int(np.sum(~np.isfinite(report.margins))))
    out.check("certify_evaluated", report.n_evaluated > 0)
    return vm, barrier, report, pieces + [load_piece]


def run_train_workload(config: str, seed: int, seconds: float, src: Path,
                       scratch: Path, out: Outcome) -> None:
    speed = HostSpeed()
    speed.tick(force=True)
    setup = []
    for _ in range(LIGHT_SETUP_REPEATS):
        import_piece = fresh_import(src)
        start = time.perf_counter()
        cfg = rf.parse_config(config)
        model = cfg.build_model()
        safe = cfg.safe_policy(model)
        setup.append([import_piece, (start, time.perf_counter())])
        speed.tick(force=True)

    rows, train = [], []
    cycle = 0
    start = time.perf_counter()
    while True:
        cycle_seed = cfg.seed if cycle == 0 else extra_seed(seed, cycle)
        vm, barrier, report, pieces = train_certify_cycle(cfg, model, safe, cycle_seed,
                                                          scratch, out, speed=speed)
        rows += pieces[:cfg.value_states]
        train.append(pieces)
        if cycle == 0:
            # Certify is timed on the reference model only: its cost depends
            # on how many states the model's sublevel set holds.
            _, certify_pieces = certify_repeated(cfg, model, barrier, safe, cycle_seed, out,
                                                 speed)
            out.metric("value_mse", vm.final_mse, "value_sq")
            out.metric("feasibility_rate", report.pass_fraction, "ratio")
            out.metric("violation_rate", 1.0 - report.pass_fraction, "ratio")
        cycle += 1
        if (time.perf_counter() - start >= seconds and cycle >= 2
                and len(rows) >= MIN_STEP_SAMPLES):
            break
    speed.tick(force=True)

    steps_per_row = cfg.value_horizon * cfg.value_samples
    out.detail["cycles"] = cycle
    out.detail["simulated_steps"] = len(rows) * steps_per_row
    out.timing("setup_s", median(map(raw_seconds, setup)),
               median(map(speed.seconds, setup)), "s")
    out.timing("train_s", median(map(raw_seconds, train)),
               median(map(speed.seconds, train)), "s")
    out.timing("certify_s", median(e - s for s, e in certify_pieces),
               median(speed.seconds([p]) for p in certify_pieces), "s")
    # A closed-loop step here is one simulated safe-policy step of collection.
    steps = len(rows) * steps_per_row
    out.timing("steps_per_s", steps / raw_seconds(rows), steps / speed.seconds(rows), "1/s")
    latency_metrics(out, [(e - s) / steps_per_row for s, e in rows],
                    [speed.seconds([p]) / steps_per_row for p in rows])


def trace_train_workload(config: str, seed: int, scratch: Path, out: Outcome,
                         tracer: Tracer) -> tuple:
    """The reference cycle untraced, then traced.

    Returns the (untraced, traced) simulated steps per second of collection.
    """
    cfg = rf.parse_config(config)
    model = cfg.build_model()
    safe = cfg.safe_policy(model)
    plain_vm, _, _, plain = train_certify_cycle(cfg, model, safe, cfg.seed, scratch, out)
    with traced_filters(tracer):
        traced_vm, _, _, traced = train_certify_cycle(
            cfg, traced_model(model, tracer), tracer.wrap("policies.policy", safe), cfg.seed,
            scratch, out, tracer)
    flat = traced_vm.x_mean[None, :] + np.linspace(-1.0, 1.0, 7)[:, None] * traced_vm.x_scale
    out.check("tracing_preserves_outputs",
              same_bits(plain_vm.predict(flat), traced_vm.predict(flat)))
    steps = cfg.value_states * cfg.value_horizon * cfg.value_samples
    rows = cfg.value_states
    return steps / raw_seconds(plain[:rows]), steps / raw_seconds(traced[:rows])


# ------------------------------------------------------- per-layer metrics

FILTER_SPANS = ("filters.switching", "filters.pessimistic", "filters.worst_case_margin",
                "filters.centralized", "filters.proximity")
SOLVER_SPANS = frozenset({"filters.pessimistic", "filters.worst_case_margin",
                          "filters.centralized"})


def layer_metrics(tracer: Tracer, out: Outcome) -> None:
    """Per-layer metrics from the spans; a layer a workload never calls reads 0."""
    agg = aggregate(tracer.spans)
    counts = tracer.counts
    evals = count_under(tracer.spans, "risk.risk_lower", SOLVER_SPANS)

    def span(name):
        return agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def ratio(x, n):
        return x / n if n else 0.0

    def calls_time(name, calls_label, per_label, scale, unit):
        a = span(name)
        out.metric(f"{name}.{calls_label}", a["calls"], "count")
        out.metric(f"{name}.{per_label}", ratio(a["total_s"], a["calls"]) * scale, unit)
        return a

    a = calls_time("risk.risk_lower", "calls", "us_per_call", 1e6, "us")
    out.metric("risk.risk_lower.samples_per_call",
               ratio(counts["risk.risk_lower.samples"], a["calls"]), "samples")
    out.metric("risk.risk_lower.self_s", a["self_s"], "s")

    a = calls_time("value.predict", "calls", "us_per_call", 1e6, "us")
    out.metric("value.predict.rows_per_call", ratio(counts["value.predict.rows"], a["calls"]),
               "rows")
    out.metric("value.predict.self_s", a["self_s"], "s")
    out.metric("value.collect_dataset.us_per_step",
               ratio(span("value.collect_dataset")["total_s"],
                     counts["value.collect_dataset.steps"]) * 1e6, "us")
    out.metric("value.fit_value.ms_per_epoch",
               ratio(span("value.fit_value")["total_s"], counts["value.fit_value.epochs"]) * 1e3,
               "ms")

    for name in ("dynamics.transition_batch", "dynamics.transition", "policies.policy"):
        a = calls_time(name, "calls", "us_per_call", 1e6, "us")
        out.metric(f"{name}.self_s", a["self_s"], "s")
    a = span("dynamics.cost")
    out.metric("dynamics.cost.calls", a["calls"], "count")
    out.metric("dynamics.cost.self_s", a["self_s"], "s")

    for name in ("filters.pessimistic", "filters.centralized"):
        a = calls_time(name, "solves", "ms_per_solve", 1e3, "ms")
        out.metric(f"{name}.feasible_frac", ratio(counts[f"{name}.feasible"], a["calls"]),
                   "ratio")
        out.metric(f"{name}.margin_evals_per_solve", ratio(evals[name], a["calls"]), "evals")
    a = calls_time("filters.worst_case_margin", "calls", "ms_per_call", 1e3, "ms")
    out.metric("filters.worst_case_margin.margin_evals_per_call",
               ratio(evals["filters.worst_case_margin"], a["calls"]), "evals")
    calls_time("filters.proximity", "calls", "us_per_call", 1e6, "us")
    out.metric("filters.self_s", sum(span(n)["self_s"] for n in FILTER_SPANS), "s")

    a = span("simulate.act")
    out.metric("simulate.act.ms_per_step", ratio(a["total_s"], a["calls"]) * 1e3, "ms")
    out.metric("simulate.act.self_s", a["self_s"], "s")
    out.metric("simulate.rollout.self_s", span("simulate.rollout")["self_s"], "s")
    out.metric("guarantees.certify_grid.ms_per_state",
               ratio(span("guarantees.certify_grid")["total_s"],
                     counts["guarantees.certify_grid.states"]) * 1e3, "ms")
    for name in ("persist.save_value_model", "persist.load_value_model"):
        a = span(name)
        out.metric(f"{name}.ms", ratio(a["total_s"], a["calls"]) * 1e3, "ms")
