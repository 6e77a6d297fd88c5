"""Experiment configuration: parsing, validation, serialization.

The on-disk format is line-based with sections and scalar keys::

    # comment lines and blank lines are ignored
    [filter]
    alpha = 0.1
    beta = 1.0
    # dotted keys work at top level too
    run.preset = collision

Inside a ``[section]`` block, bare keys are prefixed with the section
name; outside one, keys must be fully dotted.  Values are scalars (int,
float, or a bare string); list-valued settings such as sweep axes are
comma-separated strings.  Unknown keys are rejected.

Each key is declared once, on its ``ExperimentConfig`` field, together
with its default; the field's annotation is its type.  Parsing,
serialization and the key check all read that one declaration.
Validation also bounds the work of one filter solve, of one sweep, of
one certify, of one value fit and of the training rollouts, the memory
of one certify pass and of certify's states, of one value fit, of the
training rollouts and of the rollouts ``run`` keeps, and the noise scale,
so that no noise draw overflows: a config that could not finish is
rejected before any work.

Defaults mirror the benchmark setup: ``FilterConfig``'s for the filter,
xi = 5, gamma = 0.99, and the agent count and noise scale of the
preset's model, shrunk to desk scale for rollout counts and
value-training sizes.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import MasModel, make_model, preset_shape
from .errors import ConfigError, ContractViolationError
from .filters import FilterConfig, solve_pairs
from .policies import Policy, make_proportional
from .value import _BLOCK_STEPS, _BUFFER_ROWS, _CHUNK_ROWS

_PRESET = object()  # sentinel: default depends on the preset

_PRESET_DEFAULTS = {
    "spring": {
        "value_pos_low": -2.5, "value_pos_high": 2.5,
        "value_vel_low": -4.0, "value_vel_high": 4.0,
        "nominal_kp": 3.0, "nominal_kd": 0.3,
        "safe_kp": 0.3, "safe_kd": 1.5,
        "safe_spread": 0.0,
        "init_mode": "origin",
    },
    "collision": {
        "value_pos_low": -1.5, "value_pos_high": 1.5,
        "value_vel_low": -2.0, "value_vel_high": 2.0,
        "nominal_kp": 1.0, "nominal_kd": 0.5,
        "safe_kp": 2.0, "safe_kd": 0.3,
        "safe_spread": 3.0,
        "init_mode": "uniform",
    },
}


def _setting(key: str, default):
    """A config setting: its key in the text format and its default
    (``_PRESET`` for one taken from ``_PRESET_DEFAULTS`` or, for the agent
    count and noise scale, from the preset's default model).  No dataclass
    default, so the constructor still requires every field."""
    return dataclasses.field(metadata={"key": key, "default": default})


@dataclass(frozen=True)
class ExperimentConfig:
    """Every experiment setting.  Each field declares its config key and
    default once, in ``_setting``; its annotation is the type tag.  A
    ``filter.*`` field but ``xi`` is ``FilterConfig``'s, by name and default."""

    preset: str = _setting("run.preset", "spring")
    agents: int = _setting("run.agents", _PRESET)
    steps: int = _setting("run.steps", 200)
    rollouts: int = _setting("run.rollouts", 20)
    seed: int = _setting("run.seed", 0)
    controller: str = _setting("run.controller", "switching")
    out: str = _setting("run.out", "")
    noise_scale: float = _setting("model.noise_scale", _PRESET)
    gamma: float = _setting("model.gamma", 0.99)
    u_min: float = _setting("model.u_min", -1.0)
    u_max: float = _setting("model.u_max", 1.0)
    alpha: float = _setting("filter.alpha", FilterConfig.alpha)
    epsilon: float = _setting("filter.epsilon", FilterConfig.epsilon)
    alpha_bar: float = _setting("filter.alpha_bar", FilterConfig.alpha_bar)
    epsilon_bar: float = _setting("filter.epsilon_bar", FilterConfig.epsilon_bar)
    beta: float = _setting("filter.beta", FilterConfig.beta)
    xi: float = _setting("filter.xi", 5.0)
    n_samples: int = _setting("filter.samples", FilterConfig.n_samples)
    grid_size: int = _setting("filter.grid", FilterConfig.grid_size)
    radius_mode: str = _setting("filter.radius_mode", FilterConfig.radius_mode)
    radius: float = _setting("filter.radius", FilterConfig.radius)
    lipschitz_h: float = _setting("filter.lipschitz_h", FilterConfig.lipschitz_h)
    lipschitz_fu: float = _setting("filter.lipschitz_fu", FilterConfig.lipschitz_fu)
    tolerance: float = _setting("filter.tolerance", FilterConfig.tolerance)
    value_states: int = _setting("value.states", 2000)
    value_horizon: int = _setting("value.horizon", 200)
    value_samples: int = _setting("value.samples", 2)
    value_hidden: str = _setting("value.hidden", "64x64")
    value_epochs: int = _setting("value.epochs", 1500)
    value_lr: float = _setting("value.learning_rate", 0.01)
    value_model_path: str = _setting("value.model_path", "")
    value_pos_low: float = _setting("value.pos_low", _PRESET)
    value_pos_high: float = _setting("value.pos_high", _PRESET)
    value_vel_low: float = _setting("value.vel_low", _PRESET)
    value_vel_high: float = _setting("value.vel_high", _PRESET)
    nominal_kp: float = _setting("policy.nominal_kp", _PRESET)
    nominal_kd: float = _setting("policy.nominal_kd", _PRESET)
    safe_kp: float = _setting("policy.safe_kp", _PRESET)
    safe_kd: float = _setting("policy.safe_kd", _PRESET)
    safe_spread: float = _setting("policy.safe_spread", _PRESET)
    init_mode: str = _setting("init.mode", _PRESET)
    init_pos_low: float = _setting("init.pos_low", -1.0)
    init_pos_high: float = _setting("init.pos_high", 1.0)
    init_vel_low: float = _setting("init.vel_low", -0.5)
    init_vel_high: float = _setting("init.vel_high", 0.5)
    sweep_beta: str = _setting("sweep.beta", "0.1,1,10")
    sweep_xi: str = _setting("sweep.xi", "2,5,10")
    certify_states: int = _setting("certify.states", 50)
    certify_samples: int = _setting("certify.samples", 200)
    certify_k: int = _setting("certify.k", 10)

    def hidden_sizes(self) -> tuple:
        try:
            sizes = tuple(int(s) for s in self.value_hidden.split("x"))
        except ValueError:
            raise ConfigError("invalid-value", f"bad hidden sizes {self.value_hidden!r}")
        if not sizes or any(s < 1 for s in sizes):
            raise ConfigError("invalid-value", f"bad hidden sizes {self.value_hidden!r}")
        return sizes

    def beta_values(self) -> list:
        return _parse_float_list(self, "sweep_beta")

    def xi_values(self) -> list:
        return _parse_float_list(self, "sweep_xi")

    def build_model(self) -> MasModel:
        return make_model(
            self.preset,
            n_agents=self.agents,
            noise_scale=self.noise_scale,
            gamma=self.gamma,
            action_low=self.u_min,
            action_high=self.u_max,
        )

    def filter_config(self, beta: float | None = None) -> FilterConfig:
        """The filters' settings, each from the field of its own name;
        ``beta``, when given, replaces filter.beta (a sweep's value)."""
        settings = {f.name: getattr(self, f.name) for f in dataclasses.fields(FilterConfig)}
        if beta is not None:
            settings["beta"] = beta
        return FilterConfig(**settings)

    def nominal_policy(self, model: MasModel) -> Policy:
        return make_proportional(model, (self.nominal_kp, self.nominal_kd))

    def safe_policy(self, model: MasModel) -> Policy:
        """The safe back-up policy: conservative gains, and for multi-agent
        separation a symmetric fan of per-agent setpoints."""
        setpoints = None
        if self.safe_spread > 0 and model.n_agents > 1:
            setpoints = np.linspace(-self.safe_spread, self.safe_spread, model.n_agents)
        return make_proportional(model, (self.safe_kp, self.safe_kd), setpoints=setpoints)

    def init_sampler(self, model: MasModel):
        """Initial-state draw for rollouts: a fixed origin or a uniform box."""
        if self.init_mode == "origin":
            x0 = np.zeros((model.n_agents, model.state_dim))
            return lambda rng: x0
        lo = np.array([self.init_pos_low, self.init_vel_low])
        hi = np.array([self.init_pos_high, self.init_vel_high])
        return lambda rng: rng.uniform(lo, hi, size=(model.n_agents, model.state_dim))

    def value_sampler(self, model: MasModel):
        """Initial-state draw for value-training rollouts (wider box)."""
        lo = np.array([self.value_pos_low, self.value_vel_low])
        hi = np.array([self.value_pos_high, self.value_vel_high])
        return lambda rng: rng.uniform(lo, hi, size=(model.n_agents, model.state_dim))


# Config key -> ExperimentConfig field; the field's metadata holds the default.
_SCHEMA = {f.metadata["key"]: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_float_list(cfg: ExperimentConfig, name: str) -> list:
    text = getattr(cfg, name)
    key = next(key for key, f in _SCHEMA.items() if f.name == name)
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("invalid-value", f"{key} must be a comma-separated float list")
    if not values:
        raise ConfigError("invalid-value", f"{key} must be nonempty")
    if not all(map(math.isfinite, values)):
        raise ConfigError("invalid-value", f"{key} must hold finite values")
    return values


def _coerce(key: str, kind: str, raw: str):
    raw = raw.strip()
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError("invalid-value", f"cannot parse {key} = {raw!r} as {kind}")


def _parse_lines(text: str) -> dict:
    raw = {}
    section = ""
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if not section:
                raise ConfigError("syntax", f"line {lineno}: empty section header")
            continue
        if "=" not in stripped:
            raise ConfigError("syntax", f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("syntax", f"line {lineno}: missing key")
        if "." not in key:
            if not section:
                raise ConfigError("syntax", f"line {lineno}: bare key outside any section")
            key = f"{section}.{key}"
        if key not in _SCHEMA:
            raise ConfigError("unknown-key", f"line {lineno}: unknown key {key!r}")
        raw[key] = value.strip()
    return raw


# Work bound on one margin-kernel block, in (row, sample) pairs: about 12 s
# per solve at the ~1.2 us per pair a collision M=3 centralized solve takes.
_MAX_BLOCK_PAIRS = 10**7


# Work bound on one sweep, in rollout steps (values x run.rollouts x
# run.steps): about 3 hours at the ~1 ms a filtered step takes on spring or
# collision M = 3.  A sweep of the default three values at the largest run
# the memory bound admits (about 10^6 steps at M = 2) stays under it.
_MAX_SWEEP_STEPS = 10**7

# Work bound on one certify, in (state, sample) pairs (certify.states x
# certify.samples, as if every state lay in the sublevel set, where each
# costs a kernel row of certify.samples samples): about 3 hours at the
# ~1 us a pair certify takes on spring and collision M = 3 (1.0-1.1 at
# M = 6), measured at 400 states x 1,000 samples and 40 x 10,000 on a
# 2-core box.
_MAX_CERTIFY_PAIRS = 10**10


# Work bound on one value fit, in row-epochs (value.epochs x value.states):
# about 3 hours at the ~1.9 us a row-epoch the default 64x64 network takes
# on a 2-core box.  The defaults run 3 * 10^6.
_MAX_FIT_ROW_EPOCHS = 5 * 10**9

# Work bound on one training dataset, in simulated row-steps (value.states
# x value.samples x value.horizon): about 3 hours at the ~0.45-0.5 us a
# row-step ``collect_dataset`` takes on a 2-core box (512 x 2,000 and
# 2,048 x 500 rows x steps).  The defaults run 8 * 10^5.
_MAX_DATASET_ROW_STEPS = 2 * 10**10


# Memory bound, in bytes, on what one certify pass, one value fit, one
# dataset or one command's states or rollouts hold.
_MAX_HELD_BYTES = 2**30

# The largest |draw| of ``Generator.standard_normal``: its ziggurat tail
# returns r + x with x = -log1p(-U) / r, U < 1 at 53 bits, r = 3.6541528853610088.
_MAX_NORMAL_DRAW = 3.6541528853610088 + 53 * math.log(2) / 3.6541528853610088


def _certify_pass_bytes(cfg: ExperimentConfig) -> int:
    """Estimated bytes one certify pass holds, 8·S·(4·M·d_x + 2·max(hidden)):
    per oracle sample, the draw, the successors and the value model's input
    (about 4·M·d_x floats) and two activation arrays of the widest hidden
    layer.  It reads 122 MB at S = 10^5 on collision M = 3, where the peak
    RSS grew by 138 MB (131 MiB).  M and d_x are ``preset_shape``'s; no
    M-agent model is built, since M may be far too large to build."""
    state_size = math.prod(preset_shape(cfg.preset, cfg.agents)[:2])
    return 8 * cfg.certify_samples * (4 * state_size + 2 * max(cfg.hidden_sizes()))


def _fit_bytes(cfg: ExperimentConfig) -> int:
    """Estimated bytes ``fit_value`` holds, 8·(6·P + 3·N·sum(hidden) +
    2·_BUFFER_ROWS·max(hidden)) for P parameters and N = value.states rows: the
    flat parameters, gradients, two Adam moments and two step arrays,
    about three activation-sized arrays per hidden layer (activations,
    deltas and tanh factors), and ``predict``'s two per-thread buffers."""
    hidden = cfg.hidden_sizes()
    sizes = (math.prod(preset_shape(cfg.preset, cfg.agents)[:2]),) + hidden + (1,)
    params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    return 8 * (6 * params + 3 * cfg.value_states * sum(hidden) + 2 * _BUFFER_ROWS * max(hidden))


def _dataset_bytes(cfg: ExperimentConfig) -> int:
    """Estimated bytes ``collect_dataset`` holds, 8·(N·(n + 1) +
    S·n·((c + 2)·H + 25·c)) for N = value.states rows of n = M·d_x floats,
    S = value.samples rollouts of H = value.horizon steps and c = min(256, N)
    rows per lockstep chunk: the states and targets, one chunk's draws, one
    row's draws and their scaled copy, and one block of 25 steps' states.
    Measured by ``getrusage`` around ``collect_dataset`` on spring: 101 MB
    against 100 estimated at N = 256, S = 2, H = 4,000, 54 against 51 at
    N = 1,000, S = 4, H = 1,000, and 77 against 77 at N = 2, H = 200,000.

    Under the memory bound, with ``_fit_bytes``, a spring dataset at the
    default 64x64 network takes at most about 2.6·10^10 simulated row-steps
    (N·S·H, near N = 3·10^5, H = 85,000, S = 1): about 3.3 hours at the
    ~0.45-0.5 us a row-step collection takes on a 2-core box.  A network
    of one hidden unit holds so little per row that N reaches 10^7, where
    the memory bound alone admits about 4·10^11 row-steps on spring
    (8·10^11 on collision M = 2), some 50 to 100 hours;
    ``_MAX_DATASET_ROW_STEPS`` bounds the row-steps themselves."""
    state_size = math.prod(preset_shape(cfg.preset, cfg.agents)[:2])
    chunk = min(_CHUNK_ROWS, cfg.value_states)
    return 8 * (cfg.value_states * (state_size + 1) + cfg.value_samples * state_size
                * ((chunk + 2) * cfg.value_horizon + _BLOCK_STEPS * chunk))


def _certify_states_bytes(cfg: ExperimentConfig) -> int:
    """Estimated bytes ``certify`` holds for its certify.states states at
    once, 512 a state: the sampled states, their stack, h(x), the policy's
    rows, the margins and the certify.csv text.  Measured by ``getrusage``
    around ``certify`` at 2·10^5 states: 431 bytes a state on spring, 363
    on collision M = 2 and 392 on collision M = 6."""
    return 512 * cfg.certify_states


def _rollout_bytes(cfg: ExperimentConfig) -> int:
    """Estimated bytes ``run`` holds, 512·R·(T+1)·M at R = run.rollouts and
    T = run.steps: it keeps every rollout's T + 1 records until it writes
    trajectories.csv, one line per record and agent, streamed to the file.
    Measured by ``getrusage`` around ``run`` on collision M = 3: 176 bytes
    per record and agent under the nominal controller (2·10^5 steps) and
    246 under the switching one (2·10^4 steps).  A sweep holds one rollout
    at a time, its records and per-step lists, 279 bytes per record and
    agent measured, so this bound covers it too, with room to spare."""
    return 512 * cfg.rollouts * (cfg.steps + 1) * cfg.agents


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    def bad(msg):
        raise ConfigError("invalid-value", msg)

    for f in dataclasses.fields(cfg):
        if f.type == "float" and not math.isfinite(getattr(cfg, f.name)):
            bad(f"{f.metadata['key']} must be finite, got {getattr(cfg, f.name)!r}")
    dims = preset_shape(cfg.preset, cfg.agents)[2]
    if not 0 <= cfg.seed < 2**64:     # value_model.bin records it as a uint64
        bad(f"run.seed must lie in [0, 2**64), got {cfg.seed}")
    if cfg.steps < 0:
        bad("run.steps must be >= 0")
    if cfg.rollouts < 1:
        bad("run.rollouts must be >= 1")
    if cfg.controller not in ("nominal", "safe", "switching", "centralized"):
        bad(f"unknown controller {cfg.controller!r}")
    if cfg.noise_scale < 0:
        bad("model.noise_scale must be >= 0")
    if not math.isfinite(_MAX_NORMAL_DRAW * cfg.noise_scale):
        bad(f"model.noise_scale = {cfg.noise_scale!r} overflows the largest noise draw, "
            f"{_MAX_NORMAL_DRAW:.4g} standard deviations; lower model.noise_scale")
    if not math.isfinite(2 * cfg.safe_spread):
        bad(f"policy.safe_spread = {cfg.safe_spread!r} overflows the safe policy's setpoint "
            "fan, which spans twice it; lower policy.safe_spread")
    if not 0 < cfg.gamma < 1:
        bad("model.gamma must lie in (0, 1)")
    if cfg.value_states < 1 or cfg.value_samples < 1 or cfg.value_epochs < 1:
        bad("value sizes must be >= 1")
    if cfg.value_horizon < 0:
        bad("value.horizon must be >= 0")
    if cfg.value_lr <= 0:
        bad("value.learning_rate must be > 0")
    if cfg.init_mode not in ("origin", "uniform"):
        bad(f"unknown init mode {cfg.init_mode!r}")
    if cfg.init_pos_high < cfg.init_pos_low or cfg.init_vel_high < cfg.init_vel_low:
        bad("init box is empty")
    if cfg.value_pos_high < cfg.value_pos_low or cfg.value_vel_high < cfg.value_vel_low:
        bad("value-training box is empty")
    if cfg.certify_states < 1 or cfg.certify_samples < 1 or cfg.certify_k < 1:
        bad("certify sizes must be >= 1")
    cfg.hidden_sizes()
    sweeps = {"sweep.beta": cfg.beta_values(), "sweep.xi": cfg.xi_values()}
    try:
        for beta in [cfg.beta] + sweeps["sweep.beta"]:
            cfg.filter_config(beta=beta)
    except ContractViolationError as exc:
        bad(str(exc))
    for held, setting, what, lower in (
        (_fit_bytes(cfg), f"value.hidden = {cfg.value_hidden} with value.states = "
         f"{cfg.value_states}", "in one fit", "value.hidden or value.states"),
        (_dataset_bytes(cfg), f"value.states = {cfg.value_states} x value.samples = "
         f"{cfg.value_samples} x value.horizon = {cfg.value_horizon}",
         "of training rollouts", "value.horizon, value.samples or value.states"),
        (_certify_pass_bytes(cfg), f"certify.samples = {cfg.certify_samples}",
         "in one certify pass", "certify.samples"),
        (_certify_states_bytes(cfg), f"certify.states = {cfg.certify_states}",
         "of certify states and margins", "certify.states"),
        (_rollout_bytes(cfg), f"run.rollouts = {cfg.rollouts} x run.steps = {cfg.steps}",
         "of rollout records", "run.steps or run.rollouts"),
    ):
        if held > _MAX_HELD_BYTES:     # in integers: a huge setting overflows a float
            bad(f"{setting} would hold about {held // 10**6} MB {what}, over the memory "
                f"bound of {_MAX_HELD_BYTES / 2**30:g} GiB; lower {lower}")
    for key, values in sweeps.items():
        if len(values) * cfg.rollouts * cfg.steps > _MAX_SWEEP_STEPS:
            bad(f"{key} of {len(values)} values x run.rollouts = {cfg.rollouts} x run.steps = "
                f"{cfg.steps} would run more than the work bound of {_MAX_SWEEP_STEPS} "
                f"rollout steps in one sweep; lower {key}, run.rollouts or run.steps")
    # After the memory bounds, which cap run.agents.
    width = cfg.u_max - cfg.u_min
    if not math.isfinite(dims * width * width):
        bad(f"the action box from model.u_min = {cfg.u_min!r} to model.u_max = {cfg.u_max!r} "
            f"overflows the squared distances over {dims} action dimensions "
            "by which the filters rank candidates; narrow it")
    model = cfg.build_model()     # raises for an empty action box
    pos = max(map(abs, (cfg.value_pos_low, cfg.value_pos_high, cfg.init_pos_low,
                        cfg.init_pos_high)))
    vel = max(map(abs, (cfg.value_vel_low, cfg.value_vel_high, cfg.init_vel_low,
                        cfg.init_vel_high)))
    for name, policy in (("nominal", cfg.nominal_policy(model)), ("safe", cfg.safe_policy(model))):
        ref = float(np.abs(policy.reference).max())
        kp, kd = policy.gains.tolist()
        if not math.isfinite(abs(kp) * (pos + ref) + abs(kd) * vel):
            bad(f"policy.{name}_kp = {kp!r} and policy.{name}_kd = {kd!r} overflow the "
                f"{name} policy's gain product over the value.* and init.* boxes "
                f"(|position - setpoint| up to {pos + ref:.4g}, |velocity| up to {vel:.4g}); "
                "lower the gains or narrow the boxes")
    if cfg.value_epochs * cfg.value_states > _MAX_FIT_ROW_EPOCHS:
        bad(f"value.epochs = {cfg.value_epochs} x value.states = {cfg.value_states} would "
            f"run more than the work bound of {_MAX_FIT_ROW_EPOCHS} row-epochs in one fit; "
            "lower value.epochs or value.states")
    if cfg.value_states * cfg.value_samples * cfg.value_horizon > _MAX_DATASET_ROW_STEPS:
        bad(f"value.states = {cfg.value_states} x value.samples = {cfg.value_samples} x "
            f"value.horizon = {cfg.value_horizon} would run more than the work bound of "
            f"{_MAX_DATASET_ROW_STEPS} row-steps of training rollouts; lower value.horizon, "
            "value.samples or value.states")
    if cfg.certify_states * cfg.certify_samples > _MAX_CERTIFY_PAIRS:
        bad(f"certify.states = {cfg.certify_states} x certify.samples = "
            f"{cfg.certify_samples} would run more than the work bound of "
            f"{_MAX_CERTIFY_PAIRS} (state, sample) pairs in one certify; lower "
            "certify.states or certify.samples")
    if cfg.controller in ("switching", "centralized") and solve_pairs(
            cfg.filter_config(), dims, cfg.controller == "centralized") > _MAX_BLOCK_PAIRS:
        bad(f"one {cfg.controller} filter solve would evaluate more than the work bound "
            f"of {_MAX_BLOCK_PAIRS} (row, sample) pairs; lower filter.grid, "
            "filter.samples or run.agents")
    return cfg


def parse_config(source: str | os.PathLike) -> ExperimentConfig:
    """Parse config text (a ``str``; ``""`` gives all defaults) or a config
    file (a ``pathlib.Path`` or other ``os.PathLike``) into a validated config.
    """
    if isinstance(source, os.PathLike):
        try:
            text = Path(source).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("missing-file", f"cannot read config file {source}: {exc}")
    elif isinstance(source, str):
        text = source
    else:
        raise ConfigError("syntax", f"unsupported config source {type(source).__name__}")

    raw = _parse_lines(text)
    fields = {f.name: _coerce(key, f.type, raw[key]) if key in raw else f.metadata["default"]
              for key, f in _SCHEMA.items()}
    model = make_model(fields["preset"])
    preset_defaults = dict(_PRESET_DEFAULTS[model.preset], agents=model.n_agents,
                           noise_scale=model.noise_scale)
    return _validate(ExperimentConfig(**{
        name: preset_defaults[name] if value is _PRESET else value
        for name, value in fields.items()
    }))


def serialize_config(cfg: ExperimentConfig, exclude: tuple = ()) -> str:
    """Canonical text form, one ``key = value`` line per field in key order;
    parse(serialize(cfg)) reproduces cfg exactly.  ``exclude`` names fields
    to leave out, by field name as ``config_with`` does."""
    lines = []
    for key, f in sorted(_SCHEMA.items()):
        if f.name not in exclude:
            value = getattr(cfg, f.name)
            lines.append(f"{key} = {repr(value) if isinstance(value, float) else value}")
    return "\n".join(lines) + "\n"


def config_with(cfg: ExperimentConfig, **updates) -> ExperimentConfig:
    """Validated copy with the given fields replaced."""
    return _validate(dataclasses.replace(cfg, **updates))
