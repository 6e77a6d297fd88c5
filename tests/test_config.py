"""Configuration parsing, validation, and serialization."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from riskfilter import (ConfigError, ExperimentConfig, FilterConfig, config_with, make_model,
                        parse_config, serialize_config)
from riskfilter import cli
from riskfilter.config import (
    _SCHEMA,
    _certify_pass_bytes,
    _certify_states_bytes,
    _dataset_bytes,
    _fit_bytes,
    _rollout_bytes,
)

ROOT = Path(__file__).resolve().parents[1]


class TestParse:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.preset == "spring"
        assert cfg.agents == 3
        assert cfg.alpha == 0.1
        assert cfg.epsilon == 0.0
        assert cfg.beta == 1.0
        assert cfg.xi == 5.0
        assert cfg.n_samples == 5
        assert cfg.radius == 0.05
        assert cfg.gamma == 0.99
        assert cfg.noise_scale == 0.01
        assert cfg.rollouts == 20
        assert cfg.steps == 200

    def test_preset_dependent_defaults(self):
        cfg = parse_config("run.preset = collision")
        assert cfg.agents == 2
        assert cfg.noise_scale == 0.1
        assert cfg.safe_spread == 3.0
        assert cfg.init_mode == "uniform"

    def test_agents_and_noise_default_to_the_preset_model(self):
        for preset in ("spring", "collision"):
            cfg, model = parse_config(f"run.preset = {preset}"), make_model(preset)
            assert (cfg.agents, cfg.noise_scale) == (model.n_agents, model.noise_scale)

    def test_sections_and_dotted_keys(self):
        cfg = parse_config("[filter]\nalpha = 0.2\nbeta = 2\n\nrun.steps = 50\n")
        assert cfg.alpha == 0.2
        assert cfg.beta == 2.0
        assert cfg.steps == 50

    def test_comments_ignored(self):
        cfg = parse_config("# a comment\nfilter.alpha = 0.3\n# another\n")
        assert cfg.alpha == 0.3

    def test_file_source(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("run.preset = collision\nrun.agents = 3\n")
        cfg = parse_config(path)
        assert cfg.agents == 3

    def test_missing_file(self, tmp_path):
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00")
        for name in ("absent.cfg", ".", "binary.cfg"):
            with pytest.raises(ConfigError) as err:
                parse_config(Path(tmp_path / name))
            assert err.value.code == "missing-file"

    def test_argument_type_decides_text_or_file(self, tmp_path):
        folder = tmp_path / "a=b"
        folder.mkdir()
        path = folder / "exp.cfg"
        path.write_text("run.steps = 7\n")
        assert parse_config(path).steps == 7
        # A str is always config text, even when it names an existing file.
        plain = tmp_path / "exp.cfg"
        plain.write_text("run.steps = 7\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(plain))
        assert err.value.code == "syntax"

    def test_syntax_error(self):
        with pytest.raises(ConfigError) as err:
            parse_config("filter.alpha 0.3\n")
        assert err.value.code == "syntax"

    def test_bare_key_outside_section(self):
        with pytest.raises(ConfigError) as err:
            parse_config("alpha = 0.3\n")
        assert err.value.code == "syntax"

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config("filter.alhpa = 0.3\n")
        assert err.value.code == "unknown-key"

    def test_bad_type(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run.steps = many\n")
        assert err.value.code == "invalid-value"


class TestValidation:
    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError) as err:
            parse_config("filter.alpha = 1.5")
        assert err.value.code == "invalid-value"

    @pytest.mark.parametrize("text", [
        "run.preset = pendulum",
        "run.agents = 4",                       # spring has exactly 3
        "run.preset = collision\nrun.agents = 1",
        "run.controller = mpc",
        "run.seed = -1",                        # no seed sequence takes it
        "model.gamma = 1.5",
        "model.u_min = 2\nmodel.u_max = 1",
        "filter.beta = 0",
        "filter.grid = 1",
        "filter.radius = -0.1",
        "value.states = 0",
        "value.hidden = 64xx64",
        "sweep.beta = ,",
        "sweep.beta = 1,nan",
        "sweep.beta = 0,1",
        "sweep.xi = inf",
        "init.mode = gaussian",
        "certify.k = 0",
        "filter.radius_mode = margin\nfilter.alpha_bar = 0.05",
    ])
    def test_invalid_configs_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    # Every float-annotated setting, by its config key.
    FLOAT_KEYS = sorted(f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)
                        if f.type == "float")

    def test_float_keys_cover_known_cases(self):
        assert {"filter.beta", "filter.tolerance", "filter.xi", "policy.nominal_kp",
                "model.noise_scale", "init.pos_low"} <= set(self.FLOAT_KEYS)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, key, value):
        # NaN used to pass every range check (all comparisons are False):
        # filter.beta = nan ran with every solve infeasible, others crashed.
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = {value}")
        assert err.value.code == "invalid-value"
        assert key in str(err.value)
        field = next(f.name for f in dataclasses.fields(ExperimentConfig)
                     if f.metadata["key"] == key)
        with pytest.raises(ConfigError):
            config_with(parse_config(""), **{field: float(value)})

    def test_work_bounds(self):
        # One solve evaluates at most (G^A + 1)·(S + 1) (row, sample) pairs
        # for the centralized filter and (G + 1)·(G^(A-1)·S + 1) for the
        # pessimistic one (filters.solve_pairs); solves over 10^7 pairs are
        # rejected.
        collision = "run.preset = collision\nrun.agents = {}\nrun.controller = {}\n"
        for agents, controller in ((6, "switching"), (6, "centralized"), (12, "nominal")):
            assert parse_config(collision.format(agents, controller)).agents == agents
        for text in (
            collision.format(7, "switching"),
            collision.format(7, "centralized"),
            collision.format(12, "switching"),
            collision.format(10**12, "centralized"),
            "filter.samples = 100000000000000000000",
            "certify.samples = 10000001",
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.code == "invalid-value"

    def test_huge_agent_count_message(self):
        # run.agents = 10^12 builds no model: spring rejects the count
        # itself, and collision reports the first memory bound it breaks.
        for text, message in (
            ("", "spring preset has exactly 3 agents"),
            ("run.preset = collision\n", "value.hidden = 64x64 with value.states = 2000 would "
             "hold about 6144000007 MB in one fit, over the memory bound of 1 GiB; lower "
             "value.hidden or value.states"),
        ):
            with pytest.raises(ConfigError) as err:
                parse_config(text + "run.agents = 1000000000000\n")
            assert err.value.code == "invalid-value" and str(err.value) == message

    def test_centralized_bound_counts_the_screen(self, tmp_path, monkeypatch, capsys):
        # Collision M=6 at G = 9 has 9^6 + 1 = 531,442 candidates.  The
        # screen adds one sample each, so S = 18 is 531,442 · 19 = 10,097,398
        # pairs, just over 10^7, while S = 17 stays under.
        text = ("run.preset = collision\nrun.agents = 6\nrun.controller = centralized\n"
                "filter.samples = {}\n")
        assert parse_config(text.format(17)).n_samples == 17
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(text.format(18))
        monkeypatch.setattr(sys, "argv", ["riskfilter", "run", "--config", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        assert "work bound" in capsys.readouterr().err
        assert not out.exists()

    def test_certify_memory_bound(self, tmp_path, monkeypatch, capsys):
        # One certify pass holds about 8·S·(4·M·d_x + 2·max(hidden)) bytes:
        # 122 MB at S = 10^5 on collision M = 3, 12 GB at 10^7, which is
        # over the 1 GiB bound and exits 1 before any work.
        collision3 = "run.preset = collision\nrun.agents = 3\ncertify.samples = {}\n"
        assert _certify_pass_bytes(parse_config(collision3.format(10**5))) == 121_600_000
        assert parse_config("certify.samples = 700").certify_samples == 700
        assert parse_config(collision3.format(800_000)).certify_samples == 800_000
        for text in ("certify.samples = 10000000", collision3.format(10**7),
                     collision3.format(900_000), "value.hidden = 4096\ncertify.samples = 20000"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.code == "invalid-value" and "certify.samples" in str(err.value)
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(collision3.format(10**7))
        monkeypatch.setattr(sys, "argv", ["riskfilter", "certify", "--config", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        assert "memory bound" in capsys.readouterr().err
        assert not out.exists()

    def test_rollout_memory_bound(self):
        # run keeps rollouts·(steps+1) records and the trajectories.csv text,
        # about 512 bytes per record and agent, under the same 1 GiB bound.
        text = "run.controller = nominal\nrun.rollouts = {}\nrun.steps = {}\n"
        assert _rollout_bytes(parse_config(text.format(20, 200))) == 512 * 20 * 201 * 3
        assert parse_config(text.format(1, 600_000)).steps == 600_000
        for rollouts, steps in ((1, 10**12), (1, 800_000), (10**4, 100)):
            with pytest.raises(ConfigError) as err:
                parse_config(text.format(rollouts, steps))
            assert err.value.code == "invalid-value" and "run.steps" in str(err.value)

    def test_sweep_work_bound(self, tmp_path, monkeypatch, capsys):
        # A sweep runs run.rollouts x run.steps steps per value, and over
        # 10^7 steps in all it exits 1 before any work.  At one rollout of
        # 666,667 steps (under the memory bound), 15 values go just over.
        text = "run.rollouts = 1\nrun.steps = {}\nsweep.beta = " + ",".join(["1"] * 15) + "\n"
        assert parse_config(text.format(666_666)).steps == 666_666
        with pytest.raises(ConfigError) as err:
            parse_config(text.format(666_667))
        assert err.value.code == "invalid-value" and "sweep.beta" in str(err.value)
        # A million values, through validation only.
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text("run.steps = 100\nsweep.xi = " + ",".join(["5"] * 10**6) + "\n")
        monkeypatch.setattr(sys, "argv", ["riskfilter", "sweep-xi", "--config", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert "work bound" in err and "sweep.xi of 1000000 values" in err
        assert "Traceback" not in err and not out.exists()

    def test_fit_and_dataset_work_bounds(self, tmp_path, monkeypatch, capsys):
        # A fit runs value.epochs x value.states row-epochs, at most 5 * 10^9
        # (2,500,000 epochs of the default 2,000 states), and the training
        # rollouts value.states x value.samples x value.horizon row-steps,
        # at most 2 * 10^10 (250,000 states x 2 samples x 40,000 steps, which
        # the memory bounds admit).  Over either bound a config exits 1
        # before any work; only validation runs, never the huge values.
        dataset = "value.states = 250000\nvalue.horizon = {}\n"
        assert parse_config("value.epochs = 2500000\n").value_epochs == 2_500_000
        assert parse_config(dataset.format(40_000)).value_horizon == 40_000
        for text, key in (("value.epochs = 2500001\n", "value.epochs"),
                          ("value.states = 4000\nvalue.epochs = 1250001\n", "value.epochs"),
                          (dataset.format(40_001), "value.horizon")):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.code == "invalid-value" and key in str(err.value)
            assert "work bound" in str(err.value)
        # One hidden unit holds so little per row that 10^7 states pass
        # every memory bound, and only the work bound stops 4 * 10^11
        # row-steps (some 50 hours of rollouts).
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text("value.hidden = 1\nvalue.epochs = 1\nvalue.states = 10000000\n"
                        "value.horizon = 20000\n")
        monkeypatch.setattr(sys, "argv", ["riskfilter", "train-value", "--config", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert "work bound" in err and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and not out.exists()

    def test_fit_memory_bound(self):
        # A fit holds about 8·(6·P + 3·N·sum(hidden) + 2·1024·max(hidden))
        # bytes.  Spring's 64x64 network has P = 4,673 parameters, so N =
        # 349,110 rows take 1,073,738,800 bytes, under the 1 GiB bound, and
        # one row more goes over it.  Only validation runs, never a fit.
        text = "value.states = {}\n"
        assert _fit_bytes(parse_config(text.format(2000))) == 8 * (6 * 4673 + 3 * 2000 * 128
                                                                   + 2 * 1024 * 64)
        assert parse_config(text.format(349_110)).value_states == 349_110
        for bad in (text.format(349_111), "value.hidden = 100000x100000\n",
                    "value.states = 2\nvalue.hidden = 64x5000000\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(bad)
            assert err.value.code == "invalid-value"
            assert "value.hidden" in str(err.value) and "memory bound" in str(err.value)

    def test_dataset_memory_bound(self):
        # collect_dataset holds about 8·(N·(n + 1) + S·n·((c + 2)·H + 25·c))
        # bytes for N rows of n floats, S rollouts of H steps and c rows a
        # chunk.  value.states = 2 at value.horizon = 10^9 asked for 179 GiB
        # of draws and ended in a raw ArrayMemoryError; spring's n = 6 and
        # S = 2 give 384·H + 4,912 bytes at N = 2, so H = 2,796,189 is the
        # last horizon under the 1 GiB bound.  Only validation runs.
        text = "value.states = {}\nvalue.horizon = {}\n"
        assert _dataset_bytes(parse_config(text.format(2000, 200))) == 8 * (
            2000 * 7 + 2 * 6 * (258 * 200 + 25 * 256))
        assert _dataset_bytes(parse_config(text.format(2, 10))) == 384 * 10 + 4912
        assert parse_config(text.format(2, 2_796_189)).value_horizon == 2_796_189
        for bad in (text.format(2, 2_796_190), text.format(2, 10**9),
                    "value.samples = 10000000\n",
                    "value.states = 300\nvalue.samples = 100\nvalue.horizon = 1000\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(bad)
            assert err.value.code == "invalid-value" and "memory bound" in str(err.value)
            assert "value.horizon" in str(err.value)

    def test_certify_work_bound(self, tmp_path, monkeypatch, capsys):
        # certify evaluates certify.states x certify.samples (state, sample)
        # pairs when every state lies in the sublevel set, at most 10^10
        # (about 3 hours at ~1 us a pair).  10^6 states x 10^5 samples on
        # collision M = 3 holds about 122 + 512 MB, under the memory bound,
        # and is over the work bound: it exits 1 before any work, with one
        # line and no traceback.  Only validation runs, never the work.
        collision3 = "run.preset = collision\nrun.agents = 3\ncertify.states = {}\n" \
                     "certify.samples = {}\n"
        assert parse_config(collision3.format(10**5, 10**5)).certify_samples == 10**5
        for states, samples in ((10**5, 10**5 + 1), (10**6, 10**5), (2 * 10**6, 5001)):
            with pytest.raises(ConfigError) as err:
                parse_config(collision3.format(states, samples))
            assert err.value.code == "invalid-value" and "work bound" in str(err.value)
            assert "certify.states" in str(err.value) and "certify.samples" in str(err.value)
        path, out = tmp_path / "exp.cfg", tmp_path / "out"
        path.write_text(collision3.format(10**6, 10**5))
        monkeypatch.setattr(sys, "argv", ["riskfilter", "certify", "--config", str(path),
                                          "--out", str(out)])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == 1
        err = capsys.readouterr().err
        assert "work bound" in err and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err and not out.exists()

    def test_certify_states_memory_bound(self):
        # certify holds every sampled state, its h(x), policy row and margin
        # and its certify.csv line at once: about 512 bytes a state (363-431
        # measured), so 2^21 states are the most under the 1 GiB bound.
        text = "certify.states = {}\n"
        assert _certify_states_bytes(parse_config(text.format(50))) == 512 * 50
        assert parse_config(text.format(2**21)).certify_states == 2**21
        for bad in (text.format(2**21 + 1), text.format(10**8)):
            with pytest.raises(ConfigError) as err:
                parse_config(bad)
            assert err.value.code == "invalid-value" and "memory bound" in str(err.value)
            assert "certify.states" in str(err.value)

    @pytest.mark.parametrize("key", ["value.states", "run.steps", "certify.samples",
                                     "certify.states", "value.horizon"])
    def test_size_too_large_for_a_float_rejected(self, key):
        # A 401-digit size overflowed the float conversion of the byte
        # estimate's message: a raw OverflowError, not a configuration error.
        with pytest.raises(ConfigError) as err:
            parse_config(f"{key} = 1{'0' * 400}\n")
        assert err.value.code == "invalid-value" and "memory bound" in str(err.value)

    def test_noise_scale_whose_draws_overflow_rejected(self):
        # Generator.standard_normal never returns more than 13.71 in size,
        # and 1.797e308 / 13.71 = 1.3115e307.
        assert parse_config("model.noise_scale = 1.311e307").noise_scale == 1.311e307
        for scale in ("1.312e307", "1e308"):
            with pytest.raises(ConfigError) as err:
                parse_config(f"model.noise_scale = {scale}\n")
            assert err.value.code == "invalid-value" and "model.noise_scale" in str(err.value)

    def test_action_box_whose_squared_distances_overflow_rejected(self):
        # 2 x (1e150 + 1)^2 is finite; (1e308 + 1)^2 is not.
        cfg = parse_config("run.preset = collision\nrun.agents = 2\nmodel.u_max = 1e150\n")
        assert cfg.u_max == 1e150
        for text in ("model.u_max = 1e308\n", "model.u_min = -1e154\nmodel.u_max = 1e154\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.code == "invalid-value" and "model.u_max" in str(err.value)

    def test_safe_spread_whose_setpoints_overflow_rejected(self):
        # np.linspace(-s, s, M) spans 2 s, which overflows past 8.99e307.
        assert parse_config("policy.safe_spread = 8e307\n").safe_spread == 8e307
        with pytest.raises(ConfigError) as err:
            parse_config("policy.safe_spread = 1e308\n")
        assert err.value.code == "invalid-value" and "policy.safe_spread" in str(err.value)

    def test_gains_whose_products_overflow_rejected(self):
        # On spring, |position - setpoint| reaches 2.5 + 1.75 and |velocity|
        # 4: 4e307 x 4.25 + 1.5 x 4 is finite, 5e307 x 4.25 is not.  A
        # setpoint fan of 8e307 bounds the safe gains (3 x 8e307 overflows),
        # but not the nominal ones, which never see it (the test above).
        assert parse_config("policy.safe_kp = 4e307\n").safe_kp == 4e307
        for text, key in (("policy.safe_kp = 5e307\n", "policy.safe_kp"),
                          ("policy.nominal_kd = 1e308\n", "policy.nominal_kd"),
                          ("run.preset = collision\npolicy.safe_spread = 8e307\n"
                           "policy.safe_kp = 3\n", "policy.safe_kp")):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.code == "invalid-value" and key in str(err.value)

    def test_seed_past_uint64_rejected(self):
        # value_model.bin records the training seed, run.seed, as a uint64.
        assert parse_config(f"run.seed = {2**64 - 1}\n").seed == 2**64 - 1
        with pytest.raises(ConfigError) as err:
            parse_config(f"run.seed = {2**64}\n")
        assert err.value.code == "invalid-value" and "run.seed" in str(err.value)

    def test_shipped_and_benchmark_configs_accepted(self):
        # The defaults of both presets, every benchmark workload and every
        # config tools/output_digests.py hashes stay inside every bound.
        spec = importlib.util.spec_from_file_location("output_digests",
                                                      ROOT / "tools" / "output_digests.py")
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        texts = ["", "run.preset = collision\n"] + [t for t, _ in digests.CONFIGS.values()]
        assert len(texts) > 6
        for text in texts:
            parse_config(text)


class TestSerialize:
    def test_round_trip_defaults(self):
        fields = dataclasses.fields(ExperimentConfig)
        for preset in ("", "run.preset = collision\n"):
            cfg = parse_config(preset)
            text = serialize_config(cfg)
            assert parse_config(text) == cfg
            # Exactly one line per field, each under its own key.
            lines = dict(line.split(" = ", 1) for line in text.splitlines())
            assert len(lines) == len(text.splitlines()) == len(fields)
            for f in fields:
                key = f.metadata["key"]
                alone = parse_config(f"{preset}{key} = {lines[key]}\n")
                assert getattr(alone, f.name) == getattr(cfg, f.name)

    def test_round_trip_overrides(self):
        text = ("run.preset = collision\nrun.agents = 3\nfilter.beta = 2.5\n"
                "filter.grid = 7\nsweep.beta = 0.5,5\n")
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_filter_settings_are_filter_config_fields(self):
        # FilterConfig declares every filter default and name: the config's
        # defaults are its defaults, and a non-default value under each
        # field's filter.* key reaches filter_config() and survives
        # serialize -> parse.
        assert parse_config("").filter_config() == FilterConfig()
        values = {"alpha": 0.3, "epsilon": 0.5, "alpha_bar": 0.6, "epsilon_bar": 0.7,
                  "beta": 2.5, "n_samples": 7, "grid_size": 5, "radius_mode": "margin",
                  "radius": 0.25, "lipschitz_h": 2.0, "lipschitz_fu": 3.0, "tolerance": 0.01}
        assert sorted(values) == sorted(f.name for f in dataclasses.fields(FilterConfig))
        keys = {f.name: key for key, f in _SCHEMA.items()}
        for name, value in values.items():
            assert value != getattr(FilterConfig(), name)
            cfg = parse_config(f"{keys[name]} = {value}\n")
            assert getattr(cfg.filter_config(), name) == value
            assert parse_config(serialize_config(cfg)) == cfg

    def test_exclusion(self):
        cfg = parse_config("run.out = somewhere")
        text = serialize_config(cfg, exclude=("out",))
        assert "run.out" not in text

    def test_helpers(self):
        cfg = parse_config("sweep.beta = 0.1,1,10\nvalue.hidden = 32x16")
        assert cfg.beta_values() == [0.1, 1.0, 10.0]
        assert cfg.hidden_sizes() == (32, 16)


class TestConfigWith:
    def test_override_and_revalidate(self):
        cfg = parse_config("")
        assert config_with(cfg, seed=99).seed == 99
        with pytest.raises(ConfigError):
            config_with(cfg, alpha=2.0)

    def test_builders(self):
        cfg = parse_config("run.preset = collision")
        model = cfg.build_model()
        assert model.n_agents == 2
        fcfg = cfg.filter_config(beta=3.0)
        assert fcfg.beta == 3.0
        assert fcfg.alpha == cfg.alpha
        safe = cfg.safe_policy(model)
        assert safe.reference.tolist() == [[-cfg.safe_spread, 0.0], [cfg.safe_spread, 0.0]]
        nominal = cfg.nominal_policy(model)
        assert nominal.reference.tolist() == [[model.x_ref[0], 0.0]] * model.n_agents
