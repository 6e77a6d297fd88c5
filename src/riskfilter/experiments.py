"""Experiment orchestration and CSV persistence.

Commands:

* ``train-value``  - roll out the safe policy, fit the value model, save it.
* ``run``          - seeded closed-loop rollouts under the configured
  controller; writes ``trajectories.csv``.
* ``sweep-beta`` / ``sweep-xi`` - metric sweeps over the risk parameter or
  the barrier threshold; write ``sweep.csv``.
* ``certify``      - empirical risk-condition check of the safe policy over
  sampled states plus the closed-form safety probability; writes
  ``certify.csv``.

Every command also writes ``manifest.json`` (config echo, seeds, artifact
version, output list).  Output bytes are a pure function of (config,
seed, artifact version): floats are printed as shortest round-trip
decimals and nothing time- or machine-dependent is recorded.  The output
directory itself is excluded from the manifest for the same reason.

Exit codes: 0 success, 1 configuration error or contract violation (a
valid config that drives a state or value non-finite, say), 2 missing or
unreadable model file, 3 guarantee-domain violation, 4 I/O failure.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ExperimentConfig, serialize_config
from .dynamics import _initial_state_rng
from .errors import (
    ConfigError,
    ContractViolationError,
    GuaranteeDomainError,
    MissingModelError,
)
from .filters import FilterConfig
from .guarantees import GuaranteeReport, certify_grid
from .persist import load_value_model, save_value_model
from .simulate import (
    CentralizedController,
    PolicyController,
    SwitchingController,
    compute_metrics,
    rollouts,
    sweep,
)
from .value import ApproxConfig, Barrier, collect_dataset, fit_value

TRAJECTORY_HEADER = "rollout,step,agent,x1,x2,u,branch,feasible,safe,reward"
SWEEP_HEADER = ("param_name,param_value,violations_mean,violations_std,"
                "mse_mean,mse_std,reward_mean,reward_std,feas_rate_mean")
CERTIFY_HEADER = "state,margin,passed"

COMMANDS = ("train-value", "run", "sweep-beta", "sweep-xi", "certify")


def _fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain text otherwise."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_trajectories_csv(records, model, path) -> None:
    """One row per (rollout, step, agent); the final state row has no action.

    The per-step reward and safety flag describe the joint state and are
    repeated on each agent's row.  Lines go to the file one at a time, so
    the text is never held whole.
    """
    with open(path, "w", newline="") as f:
        f.write(TRAJECTORY_HEADER + "\n")
        for ri, rec in enumerate(records):
            n = rec.n_steps
            for k in range(n + 1):
                action = rec.actions[k] if k < n else None
                for agent in range(model.n_agents):
                    x1 = _fmt(rec.states[k, agent, 0])
                    x2 = _fmt(rec.states[k, agent, 1])
                    if k < n:
                        ui = action[agent]
                        u = _fmt(ui[0]) if len(ui) else ""
                        branch = rec.branches[k][agent] if rec.branches is not None else ""
                        feas = (_fmt(rec.feasible[k][agent])
                                if rec.feasible is not None and model.action_dims[agent] > 0
                                else "")
                        reward = _fmt(rec.rewards[k])
                    else:
                        u, branch, feas, reward = "", "", "", ""
                    safe = _fmt(rec.safe[k])
                    f.write(f"{ri},{k},{agent},{x1},{x2},{u},{branch},{feas},{safe},{reward}\n")


def write_sweep_csv(rows, path) -> None:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(",".join([
            r.param_name, _fmt(r.param_value),
            _fmt(r.violations_mean), _fmt(r.violations_std),
            _fmt(r.mse_mean), _fmt(r.mse_std),
            _fmt(r.reward_mean), _fmt(r.reward_std),
            _fmt(r.feas_rate_mean),
        ]))
    _write_text(path, "\n".join(lines) + "\n")


def write_certify_csv(report: GuaranteeReport, path) -> None:
    lines = [CERTIFY_HEADER]
    for i, (margin, passed) in enumerate(zip(report.margins, report.passed)):
        lines.append(f"{i},{_fmt(margin)},{int(passed)}")
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, newline="")


def resolve_out_dir(cfg: ExperimentConfig) -> Path:
    """--out flag (already folded into the config) > config > environment > ./out."""
    out = cfg.out or os.environ.get("RISKFILTER_OUT", "") or "out"
    return Path(out)


def _write_manifest(cfg: ExperimentConfig, command: str, out_dir: Path, outputs: list) -> None:
    from . import __version__

    manifest = {
        "artifact": "riskfilter",
        "version": __version__,
        "command": command,
        "config": serialize_config(cfg, exclude=("out",)),
        "base_seed": cfg.seed,
        "rollout_seeds": [cfg.seed + i for i in range(cfg.rollouts)],
        "outputs": sorted(outputs),
    }
    _write_text(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _value_model_path(cfg: ExperimentConfig, out_dir: Path) -> Path:
    return Path(cfg.value_model_path) if cfg.value_model_path else out_dir / "value_model.bin"


def _load_barrier(cfg: ExperimentConfig, out_dir: Path, model) -> Barrier:
    """The barrier over the saved value model, which must take the model's
    flat joint state of M·d_x entries."""
    path = _value_model_path(cfg, out_dir)
    if not path.exists():
        raise MissingModelError(
            f"value model not found at {path}; run the train-value command first"
        )
    vm = load_value_model(path)
    size = model.n_agents * model.state_dim
    if vm.input_dim != size:
        raise ConfigError("invalid-value", f"value model {path} takes {vm.input_dim} inputs, "
                          f"but the {cfg.preset} model with {model.n_agents} agents has "
                          f"{size}; retrain it with train-value")
    return Barrier(vm, cfg.xi)


def _make_controller(cfg: ExperimentConfig, model, barrier, fcfg: FilterConfig):
    nominal = cfg.nominal_policy(model)
    safe = cfg.safe_policy(model)
    if cfg.controller == "nominal":
        return PolicyController(nominal)
    if cfg.controller == "safe":
        return PolicyController(safe)
    if cfg.controller == "centralized":
        return CentralizedController(barrier=barrier, nominal=nominal, safe=safe, cfg=fcfg)
    return SwitchingController(barrier=barrier, nominal=nominal, safe=safe, cfg=fcfg)


def _cmd_train_value(cfg: ExperimentConfig, out_dir: Path) -> list:
    model = cfg.build_model()
    dataset = collect_dataset(
        model, cfg.safe_policy(model), cfg.value_states, cfg.value_horizon, cfg.value_samples,
        cfg.seed, cfg.value_sampler(model),
    )
    approx = ApproxConfig(hidden=cfg.hidden_sizes(), epochs=cfg.value_epochs,
                          learning_rate=cfg.value_lr)
    try:
        vm = fit_value(dataset, approx, cfg.seed)
    except ContractViolationError as exc:   # the dataset is valid, so the fit diverged
        raise ConfigError("invalid-value", f"value.learning_rate = {cfg.value_lr:g}: {exc}; "
                          "lower it, or narrow the value-training box (value.pos_*, "
                          "value.vel_*) if its states are too large to fit") from exc
    save_value_model(vm, out_dir / "value_model.bin")
    print(f"trained value model on {len(dataset)} states "
          f"(training MSE {vm.final_mse:.6g}) -> {out_dir / 'value_model.bin'}")
    return ["value_model.bin"]


def _cmd_run(cfg: ExperimentConfig, out_dir: Path) -> list:
    model = cfg.build_model()
    fcfg = cfg.filter_config()
    barrier = None
    if cfg.controller in ("switching", "centralized"):
        barrier = _load_barrier(cfg, out_dir, model)
    controller = _make_controller(cfg, model, barrier, fcfg)
    records = list(rollouts(model, controller, cfg.init_sampler(model), cfg.rollouts,
                            cfg.steps, cfg.seed))
    write_trajectories_csv(records, model, out_dir / "trajectories.csv")
    metrics = compute_metrics(records, model)
    print(f"{cfg.rollouts} rollouts x {cfg.steps} steps "
          f"({cfg.controller} controller): "
          f"violations={metrics.violation_count} "
          f"(rate {metrics.violation_rate:.4f}), mse={metrics.mse:.4f}, "
          f"cumulative reward={metrics.cumulative_reward:.4f}")
    if metrics.feasibility_rate is not None:
        print(f"feasibility rate: {metrics.feasibility_rate:.4f}; "
              f"branch usage: {metrics.branch_usage}")
    return ["trajectories.csv"]


def _cmd_sweep(cfg: ExperimentConfig, out_dir: Path, axis: str) -> list:
    if cfg.controller not in ("switching", "centralized"):
        raise ConfigError("invalid-value", f"sweep-{axis} needs a filter, but "
                          f"run.controller = {cfg.controller} runs none")
    model = cfg.build_model()
    values = cfg.beta_values() if axis == "beta" else cfg.xi_values()
    # One read of the value model and the policies serves every value.
    base = _make_controller(cfg, model, _load_barrier(cfg, out_dir, model), cfg.filter_config())

    def factory(v):
        if axis == "beta":
            return replace(base, cfg=cfg.filter_config(beta=v))
        return replace(base, barrier=Barrier(base.barrier.value_model, v))

    sampler = cfg.init_sampler(model)
    rows = sweep(model, factory, axis, values, cfg.rollouts, cfg.steps, cfg.seed, sampler)
    write_sweep_csv(rows, out_dir / "sweep.csv")
    for r in rows:
        print(f"{axis}={r.param_value:g}: violations={r.violations_mean:.2f}"
              f"+-{r.violations_std:.2f}, mse={r.mse_mean:.4f}, "
              f"reward={r.reward_mean:.4f}, feasibility={r.feas_rate_mean:.4f}")
    return ["sweep.csv"]


def _cmd_certify(cfg: ExperimentConfig, out_dir: Path) -> list:
    model = cfg.build_model()
    barrier = _load_barrier(cfg, out_dir, model)
    policy = cfg.safe_policy(model)
    sampler = cfg.value_sampler(model)
    states = [
        sampler(_initial_state_rng(cfg.seed, i))
        for i in range(cfg.certify_states)
    ]
    report = certify_grid(
        model, barrier, policy, states, cfg.filter_config(), cfg.seed,
        cfg.certify_samples, cfg.certify_k,
    )
    write_certify_csv(report, out_dir / "certify.csv")
    if report.n_evaluated == 0:
        print("certify: no sampled state lay inside the sublevel set; "
              "no margins evaluated")
        return ["certify.csv"]
    print(f"certify: {report.n_evaluated}/{report.n_states} states evaluated "
          f"({report.n_skipped} outside the sublevel set), "
          f"pass fraction {report.pass_fraction:.4f}, "
          f"worst margin {report.margins.min():.6g}")
    print(f"K={report.k_steps} safety bound at h_min={report.h_min:.6g}: "
          f"delta={report.delta:.6g}")
    if report.vacuous:
        print(
            "warning: epsilon = 0 makes the multi-step bound vacuous "
            "(delta = 1 for K >= 2); single-step and empirical results "
            "remain informative",
            file=sys.stderr,
        )
    return ["certify.csv"]


def run_experiment(cfg: ExperimentConfig, command: str) -> int:
    """Execute one command; returns the documented exit status."""
    try:
        if command not in COMMANDS:
            raise ConfigError("invalid-value", f"unknown command {command!r}")
        out_dir = resolve_out_dir(cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        if command == "train-value":
            outputs = _cmd_train_value(cfg, out_dir)
        elif command == "run":
            outputs = _cmd_run(cfg, out_dir)
        elif command == "sweep-beta":
            outputs = _cmd_sweep(cfg, out_dir, "beta")
        elif command == "sweep-xi":
            outputs = _cmd_sweep(cfg, out_dir, "xi")
        else:
            outputs = _cmd_certify(cfg, out_dir)
        _write_manifest(cfg, command, out_dir, outputs + ["manifest.json"])
    except ConfigError as exc:
        print(f"configuration error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except MissingModelError as exc:
        print(f"missing or unreadable model file: {exc}", file=sys.stderr)
        return 2
    except (ContractViolationError, GuaranteeDomainError) as exc:
        domain = isinstance(exc, GuaranteeDomainError)
        step = getattr(exc, "step_index", None)
        where = f" at step {step}" if step is not None else ""
        print(f"{'guarantee-domain' if domain else 'contract'} violation{where}: {exc}",
              file=sys.stderr)
        return 3 if domain else 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0
