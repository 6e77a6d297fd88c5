"""Experiment commands, CSV schemas, exit codes, and the CLI."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import src_env
from riskfilter import cli
from riskfilter import (
    PolicyController,
    SweepRow,
    make_model,
    make_proportional,
    parse_config,
    rollout,
    run_experiment,
)
from riskfilter.config import _SCHEMA
from riskfilter.errors import ConfigError
from riskfilter.experiments import (
    COMMANDS,
    SWEEP_HEADER,
    TRAJECTORY_HEADER,
    write_sweep_csv,
    write_trajectories_csv,
)

FAST = (
    "run.steps = 15\nrun.rollouts = 2\nvalue.states = 30\nvalue.horizon = 15\n"
    "value.epochs = 120\ncertify.states = 5\ncertify.samples = 10\n"
)


def cfg_with_out(text, out):
    return parse_config(text + f"run.out = {out}\n")


class TestTrajectoriesCsv:
    def record(self, n_steps=1):
        m = make_model("spring")
        pol = make_proportional(m, (1.0, 0.5))
        return m, rollout(m, PolicyController(pol), np.zeros((3, 2)), n_steps, 0)

    def test_row_count_and_header(self, tmp_path):
        m, rec = self.record(n_steps=1)
        path = tmp_path / "t.csv"
        write_trajectories_csv([rec], m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        # (T + 1) states x M agents data rows.
        assert len(lines) == 1 + 2 * 3

    def test_final_state_row_has_no_action(self, tmp_path):
        m, rec = self.record(n_steps=2)
        path = tmp_path / "t.csv"
        write_trajectories_csv([rec], m, path)
        last = path.read_text().splitlines()[-1].split(",")
        assert last[1] == "2"          # step index T
        assert last[5] == ""           # u empty
        assert last[9] == ""           # reward empty

    def test_unactuated_agent_has_no_action(self, tmp_path):
        m, rec = self.record(n_steps=1)
        path = tmp_path / "t.csv"
        write_trajectories_csv([rec], m, path)
        row = path.read_text().splitlines()[3].split(",")  # step 0, agent 2
        assert row[2] == "2"
        assert row[5] == ""

    def test_rewrite_identical(self, tmp_path):
        m, rec = self.record(n_steps=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectories_csv([rec], m, a)
        write_trajectories_csv([rec], m, b)
        assert a.read_bytes() == b.read_bytes()


class TestSweepCsv:
    def test_header_only_for_empty(self, tmp_path):
        path = tmp_path / "s.csv"
        write_sweep_csv([], path)
        assert path.read_text() == SWEEP_HEADER + "\n"

    def test_rows(self, tmp_path):
        rows = [SweepRow("beta", 0.1, 3.0, 1.0, 0.5, 0.1, 12.0, 2.0, 0.9)]
        path = tmp_path / "s.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("beta,0.1,3.0,1.0,")


class TestRunExperiment:
    def test_unknown_command(self, tmp_path):
        cfg = cfg_with_out(FAST, tmp_path / "out")
        assert run_experiment(cfg, "fly") == 1

    def test_run_without_model_exits_2(self, tmp_path, capsys):
        cfg = cfg_with_out(FAST, tmp_path / "out")
        assert run_experiment(cfg, "run") == 2
        assert "train-value" in capsys.readouterr().err

    def test_train_then_run(self, tmp_path, capsys):
        cfg = cfg_with_out(FAST, tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        assert (tmp_path / "out" / "value_model.bin").exists()
        assert run_experiment(cfg, "run") == 0
        traj = tmp_path / "out" / "trajectories.csv"
        lines = traj.read_text().splitlines()
        # header + rollouts * (steps + 1) * agents
        assert len(lines) == 1 + 2 * 16 * 3
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_sweep_beta_rows(self, tmp_path):
        cfg = cfg_with_out(FAST + "sweep.beta = 0.5,2\nrun.rollouts = 1\n",
                           tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        assert run_experiment(cfg, "sweep-beta") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("beta,0.5,")
        assert lines[2].startswith("beta,2.0,")

    def test_sweep_xi_rows(self, tmp_path):
        cfg = cfg_with_out(FAST + "sweep.xi = 2,8\nrun.rollouts = 1\n",
                           tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        assert run_experiment(cfg, "sweep-xi") == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("xi,2.0,")

    @pytest.mark.parametrize("command", ["run", "sweep-beta", "sweep-xi", "certify"])
    def test_value_model_of_another_size_exit_1(self, tmp_path, capsys, command):
        # A value model trained at collision M = 2 takes 4 inputs; the
        # M = 3 joint state has 6.  That used to end in an uncaught
        # ContractViolationError at the first h(x).
        out = tmp_path / "out"
        collision = FAST + "run.preset = collision\nrun.agents = {}\n"
        assert run_experiment(cfg_with_out(collision.format(2), out), "train-value") == 0
        before = sorted(os.listdir(out))
        capsys.readouterr()
        assert run_experiment(cfg_with_out(collision.format(3), out), command) == 1
        err = capsys.readouterr().err
        assert "configuration error [invalid-value]" in err
        assert f"value model {out / 'value_model.bin'} takes 4 inputs" in err
        assert "has 6" in err
        assert sorted(os.listdir(out)) == before

    def test_centralized_controller_run(self, tmp_path):
        cfg = cfg_with_out(FAST + "run.controller = centralized\n",
                           tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        assert run_experiment(cfg, "run") == 0
        text = (tmp_path / "out" / "trajectories.csv").read_text()
        assert "centralized" in text

    @pytest.mark.parametrize("controller", ["nominal", "safe"])
    def test_sweep_without_filter_rejected_before_work(self, tmp_path, capsys, controller):
        # No value model exists: the controller check must come first.
        cfg = cfg_with_out(FAST + f"run.controller = {controller}\n", tmp_path / "out")
        assert run_experiment(cfg, "sweep-beta") == 1
        assert "run.controller" in capsys.readouterr().err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_certify_vacuity_warning(self, tmp_path, capsys):
        cfg = cfg_with_out(FAST, tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        assert run_experiment(cfg, "certify") == 0
        err = capsys.readouterr().err
        assert "vacuous" in err
        assert (tmp_path / "out" / "certify.csv").exists()

    def test_certify_csv_passes_at_the_tolerance(self, tmp_path, capsys):
        # certify.csv's ``passed`` and the printed pass fraction use one
        # rule, margin >= filter.tolerance, which differs from margin >= 0
        # on the states with a margin in [0, 0.5).
        cfg = cfg_with_out(FAST + "certify.states = 30\nfilter.tolerance = 0.5\n",
                           tmp_path / "out")
        assert run_experiment(cfg, "train-value") == 0
        capsys.readouterr()
        assert run_experiment(cfg, "certify") == 0
        out = capsys.readouterr().out
        n_evaluated = int(out.split("certify: ")[1].split("/")[0])
        fraction = float(out.split("pass fraction ")[1].split(",")[0])
        rows = [line.split(",") for line in
                (tmp_path / "out" / "certify.csv").read_text().splitlines()[1:]]
        assert len(rows) == n_evaluated
        assert any(0.0 <= float(margin) < 0.5 for _, margin, _ in rows)
        passed = sum(int(flag) for _, _, flag in rows)
        assert passed == round(fraction * n_evaluated)

    def test_guarantee_domain_exit_3(self, tmp_path, capsys):
        # Margin-derived radius with a barrier threshold so low that every
        # visited state has h < 0: the switching fallback cannot define a
        # radius and the run aborts with the documented code.
        cfg = cfg_with_out(
            FAST + "filter.radius_mode = margin\nfilter.alpha_bar = 0.9\n"
            "filter.xi = -100\n",
            tmp_path / "out",
        )
        assert run_experiment(cfg, "train-value") == 0
        assert run_experiment(cfg, "run") == 3
        assert "step" in capsys.readouterr().err

    def test_io_error_exit_4(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = cfg_with_out(FAST, blocker)
        assert run_experiment(cfg, "train-value") == 4

    def test_manifest_reproducible(self, tmp_path):
        cfg_a = cfg_with_out(FAST, tmp_path / "a")
        cfg_b = cfg_with_out(FAST, tmp_path / "b")
        assert run_experiment(cfg_a, "train-value") == 0
        assert run_experiment(cfg_b, "train-value") == 0
        ma = (tmp_path / "a" / "manifest.json").read_bytes()
        mb = (tmp_path / "b" / "manifest.json").read_bytes()
        assert ma == mb
        va = (tmp_path / "a" / "value_model.bin").read_bytes()
        vb = (tmp_path / "b" / "value_model.bin").read_bytes()
        assert va == vb


class TestCli:
    def run_cli(self, *args, env_extra=None, cwd=None):
        env = src_env()
        if env_extra:
            env.update(env_extra)
        return subprocess.run(
            [sys.executable, "-m", "riskfilter.cli", *args],
            capture_output=True, text=True, env=env, cwd=cwd,
        )

    def test_missing_config_file_exit_1(self, tmp_path):
        proc = self.run_cli("run", "--config", str(tmp_path / "none.cfg"))
        assert proc.returncode == 1
        assert "missing-file" in proc.stderr

    @pytest.mark.parametrize("key", ["policy.cem_iterations", "policy.cem_population",
                                     "policy.cem_elite", "policy.path"])
    def test_removed_policy_key_exit_1_before_work(self, tmp_path, key):
        # The cross-entropy policy search and the policy file it wrote were
        # removed in 0.3.0; a config that still sets one of their keys is
        # rejected with one line.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST + f"{key} = 1\n")
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"configuration error [unknown-key]: line 8: unknown key {key!r}"]
        assert not out.exists()

    def test_invalid_command_exit_1(self, tmp_path):
        proc = self.run_cli("explode", "--out", str(tmp_path))
        assert proc.returncode == 1

    def test_help_exits_0_and_usage_errors_exit_1_in_one_line(self):
        # argparse's own usage exit, 2, is the missing-model-file code; a
        # usage error is a one-line configuration error [syntax] instead.
        assert self.run_cli("--help").returncode == 0
        for args in ((), ("run", "--seed", "x"), ("run", "--bogus")):
            proc = self.run_cli(*args)
            assert proc.returncode == 1
            (line,) = proc.stderr.splitlines()
            assert line.startswith("configuration error [syntax]: ")

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "outdir"
        proc = self.run_cli("train-value", "--config", str(cfg),
                            "--seed", "5", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        manifest = (out / "manifest.json").read_text()
        assert '"base_seed": 5' in manifest

    def test_env_var_out_dir(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "envout"
        proc = self.run_cli("train-value", "--config", str(cfg),
                            env_extra={"RISKFILTER_OUT": str(out)})
        assert proc.returncode == 0, proc.stderr
        assert (out / "value_model.bin").exists()

    def test_missing_model_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        proc = self.run_cli("run", "--config", str(cfg),
                            "--out", str(tmp_path / "fresh"))
        assert proc.returncode == 2

    def test_corrupt_model_exit_2_without_traceback(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        model = out / "value_model.bin"
        valid = model.read_bytes()
        for data in (valid[:300], b"JUNK" + valid[4:]):
            model.write_bytes(data)
            proc = self.run_cli("run", "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 2
            assert "unreadable model file" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_config_path_containing_equals_sign(self, tmp_path):
        folder = tmp_path / "a=b"
        folder.mkdir()
        cfg = folder / "exp.cfg"
        cfg.write_text(FAST)
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "value.states = 30" in (out / "manifest.json").read_text()

    @pytest.mark.parametrize("text", [
        "run.preset = collision\nrun.agents = 12\n",   # 10 x 9^11 x 5 pairs per solve
        "filter.samples = 100000000000000000000\n",
        "certify.samples = 10000001\n",                 # about 12 GB in one certify pass
        "value.epochs = 1000000000000\n",               # years of fitting
        # 4 * 10^11 row-steps of training rollouts, under every memory bound.
        "value.hidden = 1\nvalue.states = 10000000\nvalue.horizon = 20000\n",
    ])
    def test_work_bound_exit_1_before_work(self, tmp_path, text):
        bound = "memory bound" if text.startswith("certify") else "work bound"
        self.assert_rejected_before_work(tmp_path, "train-value", text, bound)

    def test_run_memory_bound_exit_1_before_work(self, tmp_path):
        # 10^12 steps of records: rollout's np.empty raised a raw
        # ArrayMemoryError ("Unable to allocate 14.6 TiB").
        text = "run.controller = nominal\nrun.steps = 1000000000000\nrun.rollouts = 1\n"
        self.assert_rejected_before_work(tmp_path, "run", text, "memory bound")

    @pytest.mark.parametrize("command, text", [
        # collect_dataset's draws: a raw ArrayMemoryError ("179. GiB").
        ("train-value", "value.states = 2\nvalue.horizon = 1000000000\n"),
        # certify held every state at once, with no bound.
        ("certify", "certify.states = 100000000\n"),
        # A raw OverflowError from the estimate's message.
        ("run", f"run.steps = 1{'0' * 400}\n"),
    ], ids=["dataset", "certify-states", "huge-steps"])
    def test_held_memory_bound_exit_1_before_work(self, tmp_path, command, text):
        self.assert_rejected_before_work(tmp_path, command, text, "memory bound")

    @pytest.mark.parametrize("command", ["run", "train-value"])
    def test_overflowing_noise_scale_exit_1_before_work(self, tmp_path, command):
        # Its first noise draws overflowed to inf after NumPy's warnings.
        self.assert_rejected_before_work(tmp_path, command, "model.noise_scale = 1e308\n",
                                         "largest noise draw")

    @pytest.mark.parametrize("text, key", [
        # The filters' squared distances overflowed: far candidates tied at inf.
        ("model.u_max = 1e308\n", "model.u_max"),
        # The safe policy's setpoint fan came out as [nan, 1e308].
        ("run.preset = collision\npolicy.safe_spread = 1e308\n", "policy.safe_spread"),
    ], ids=["action-box", "safe-spread"])
    def test_overflowing_setting_exit_1_before_work(self, tmp_path, text, key):
        self.assert_rejected_before_work(tmp_path, "run", text, key)

    @pytest.mark.parametrize("command", ["run", "train-value"])
    def test_overflowing_gain_exit_1_before_work(self, tmp_path, command):
        # The safe policy's gain products overflowed ("overflow encountered
        # in matmul"), the clip saturated them to the action box, and both
        # commands exited 0 with a bang-bang safe policy.
        self.assert_rejected_before_work(tmp_path, command, "policy.safe_kp = 1e308\n",
                                         "policy.safe_kp", base=_FUZZ_BASE)

    def assert_rejected_before_work(self, tmp_path, command, text, bound, base=FAST):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(base + text)
        out = tmp_path / "out"
        proc = self.run_cli(command, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "configuration error [invalid-value]" in proc.stderr
        assert bound in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "filter.beta = nan\n",      # ran to exit 0 with every solve infeasible
        "init.pos_low = nan\n",     # raised a raw OverflowError
    ])
    def test_non_finite_setting_exit_1_before_work(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST + text)
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "configuration error [invalid-value]" in proc.stderr
        assert "must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_beta_past_overflow_runs_at_the_worst_case(self, tmp_path):
        # At filter.beta = 1e308 the risk operator's products overflow.  It
        # returned NaN, after NumPy's warnings, and every one of these 24
        # solves took the proximity branch; it now takes the sample minimum,
        # the beta -> infinity limit, as beta = 1e300 does in effect.
        out = tmp_path / "out"
        trajectories = {}
        for command, beta in (("train-value", "1e300"), ("run", "1e300"), ("run", "1e308")):
            cfg = tmp_path / f"beta{beta}.cfg"
            cfg.write_text(_FUZZ_BASE + "run.steps = 6\nrun.preset = collision\n"
                           f"run.agents = 2\nfilter.beta = {beta}\n")
            proc = self.run_cli(command, "--config", str(cfg), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            assert "RuntimeWarning" not in proc.stderr
            if command == "run":
                assert "feasibility rate: 1.0000" in proc.stdout
                trajectories[beta] = (out / "trajectories.csv").read_bytes()
        assert trajectories["1e308"] == trajectories["1e300"]

    def test_divergent_fit_exit_1_without_model(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST + "value.learning_rate = 1e308\n")
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "configuration error [invalid-value]" in proc.stderr
        assert "value.learning_rate" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "value_model.bin").exists()

    def test_divergent_fit_names_rate_and_box(self, tmp_path):
        # Training states near 1e308 overflow the input statistics, which no
        # learning rate can fit; the message named only the learning rate.
        cfg = tmp_path / "exp.cfg"
        # (The safe policy's default Kp of 2 would overflow its gain product
        # over this box, which validation rejects; Kp = 1 does not.)
        cfg.write_text(_FUZZ_BASE + "run.preset = collision\nvalue.pos_high = 1e308\n"
                       "policy.safe_kp = 1\n")
        out = tmp_path / "out"
        proc = self.run_cli("train-value", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1
        assert "configuration error [invalid-value]" in proc.stderr
        assert "value.learning_rate" in proc.stderr and "value.pos_" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "value_model.bin").exists()

    @pytest.mark.parametrize("command, text, where", [
        ("run", "run.controller = nominal\nrun.steps = 5\n", " at step 1: "),
        ("train-value", "run.preset = collision\nvalue.states = 5\nvalue.horizon = 3\n", ": "),
    ])
    def test_non_finite_state_exit_1_without_traceback(self, tmp_path, command, text, where):
        # A valid state near the largest float overflows a successor, and
        # validate_state's ContractViolationError was a raw traceback.  The
        # run's positions 1.6e308 grow by 0.1 x 1.2e308 a step: finite after
        # step 0, not after step 1.  (A noise scale of 1e308 did this until
        # validation rejected it.)  Zero gains keep the policies' products
        # finite over these boxes, as validation requires.
        box = {"run": ("init", 1.6e308, 1.2e308), "train-value": ("value", 1.79e308, 1.79e308)}
        name, pos, vel = box[command]
        start = "".join(f"{name}.{key}_{end} = {value!r}\n"
                        for key, value in (("pos", pos), ("vel", vel)) for end in ("low", "high"))
        start += "".join(f"policy.{gain} = 0\n"
                         for gain in ("nominal_kp", "nominal_kd", "safe_kp", "safe_kd"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(FAST + "init.mode = uniform\n" + start + text)
        proc = self.run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if "contract violation" in line]
        assert errors == [f"contract violation{where}state contains non-finite entries"]


# Each string setting's valid choices; "<out>" stands for the output directory.
_STRING_CHOICES = {
    "run.preset": ("spring", "collision"),
    "run.controller": ("nominal", "safe", "switching", "centralized"),
    "run.out": ("out",),
    "filter.radius_mode": ("fixed", "margin"),
    "value.hidden": ("64x64", "4x4", "3"),
    "value.model_path": ("<out>/value_model.bin",),
    "init.mode": ("origin", "uniform"),
    "sweep.beta": ("0.1,1,10", "1"),
    "sweep.xi": ("2,5,10", "5"),
}
_FUZZ_VALUES = {
    "int": st.sampled_from([-1, 0, 1, 2, 3, 10**12]),
    "float": st.sampled_from([float("nan"), float("inf"), -1.0, 0.0, 1e-3, 0.5, 1.0, 1e308]),
    **{key: st.sampled_from(choices + ("", "bogus")) for key, choices in _STRING_CHOICES.items()},
}
# Tiny sizes, so a drawn config that keeps them runs every command in well under a second.
_FUZZ_BASE = (
    "run.steps = 3\nrun.rollouts = 2\nvalue.states = 8\nvalue.horizon = 5\n"
    "value.samples = 1\nvalue.epochs = 5\nvalue.hidden = 4x4\n"
    "certify.states = 4\ncertify.samples = 20\n"
)


@st.composite
def _fuzz_settings(draw) -> dict:
    """A few settings over the whole schema, each drawn by its field's type."""
    keys = draw(st.lists(st.sampled_from(sorted(_SCHEMA)), unique=True, max_size=6))
    return {key: draw(_FUZZ_VALUES[key if key in _FUZZ_VALUES else _SCHEMA[key].type])
            for key in keys}


def _tiny(cfg) -> bool:
    """Whether every command of ``cfg`` runs at most 10^3 value row-steps,
    20 epochs, 50 rollout steps (a sweep's values included) and 10^3
    certify (state, sample) pairs."""
    values = max(len(cfg.beta_values()), len(cfg.xi_values()))
    return (cfg.value_states * cfg.value_samples * cfg.value_horizon <= 10**3
            and cfg.value_epochs <= 20 and values * cfg.rollouts * cfg.steps <= 50
            and cfg.certify_states * cfg.certify_samples <= 10**3)


class TestExitCodeFuzz:
    def test_string_choices_cover_the_schema(self):
        assert sorted(_STRING_CHOICES) == sorted(k for k, f in _SCHEMA.items() if f.type == "str")

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(drawn=_fuzz_settings())
    @example(drawn={"run.seed": -1})    # a raw ValueError from the seed sequence
    def test_every_command_exits_with_a_documented_code(self, tmp_path, drawn):
        # Every command runs in-process on a config whose sizes stay tiny; a
        # larger one is only parsed, accepted or rejected, never run.
        out = tempfile.mkdtemp(dir=tmp_path)
        text = _FUZZ_BASE + "".join(f"{key} = {value}\n" for key, value in drawn.items())
        text = text.replace("<out>", out)
        try:
            if not _tiny(parse_config(text)):
                return
        except ConfigError:
            pass
        path = os.path.join(out, "exp.cfg")
        with open(path, "w") as f:
            f.write(text)
        for command in COMMANDS:
            stderr = io.StringIO()
            argv = ["riskfilter", command, "--config", path, "--out", out]
            with (mock.patch.object(sys, "argv", argv), contextlib.redirect_stderr(stderr),
                  contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit) as exited):
                cli.main()
            assert exited.value.code in (0, 1, 2, 3, 4), (command, text, stderr.getvalue())
            assert "Traceback" not in stderr.getvalue(), (command, text, stderr.getvalue())
