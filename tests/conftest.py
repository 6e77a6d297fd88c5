"""Shared fixtures: stub models/barriers and session-scoped trained setups."""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from riskfilter import (
    Barrier,
    ApproxConfig,
    MasModel,
    collect_dataset,
    fit_value,
    parse_config,
)


def src_env() -> dict:
    """The environment with this checkout's ``src`` first on PYTHONPATH, so
    that a subprocess imports the package under test however the suite
    itself found it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _identity_transition(x, u, thetas, noises):
    lead = np.broadcast_shapes(x.shape[:-2], u.shape[:-1], np.shape(thetas),
                               noises.shape[:-2])
    return np.broadcast_to(x, lead + x.shape[-2:]).copy()


def _zero_cost(x):
    return np.zeros(np.shape(x)[:-2])


def make_static_model(n_agents: int = 2) -> MasModel:
    """Frozen-state test dynamics: f(x, u, w) = x, zero cost, always safe, under
    the leading-axis contracts of ``transition_batch`` and ``cost_fn``."""
    return MasModel(
        preset="static",
        n_agents=n_agents,
        state_dim=2,
        action_dims=tuple([1] * n_agents),
        noise_scale=0.0,
        gamma=0.9,
        x_ref=np.zeros(2),
        action_weight=0.0,
        state_weights=np.zeros((n_agents, 2)),
        action_low=-1.0,
        action_high=1.0,
        transition=_identity_transition,
        safe_fn=lambda x: True,
        cost_fn=_zero_cost,
        transition_batch=_identity_transition,
    )


class ConstantValue:
    """Value-model stub predicting one constant everywhere."""

    def __init__(self, v: float):
        self.v = float(v)

    def predict(self, x):
        shape = np.shape(x)[:-1]
        return np.full(shape, self.v) if shape else self.v


class QuadraticValue:
    """Value-model stub V(x) = c * ||x||^2 (state-dependent, deterministic)."""

    def __init__(self, coeff: float = 1.0):
        self.coeff = float(coeff)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        out = self.coeff * np.sum(x * x, axis=-1)
        return float(out) if x.ndim == 1 else out


def h_of(model: MasModel, barrier: Barrier, x) -> float:
    """h(x) as a controller computes it once per step."""
    return float(barrier.value(model.flatten_state(model.validate_state(x))))


@pytest.fixture
def static_model():
    return make_static_model()


@pytest.fixture
def unit_barrier():
    """h(x) = 1 everywhere (xi = 1 over a zero value model)."""
    return Barrier(ConstantValue(0.0), 1.0)


@pytest.fixture(scope="session")
def spring_setup():
    """Spring benchmark with policies and a trained desk-scale barrier."""
    cfg = parse_config("value.states = 400\nvalue.horizon = 120")
    model = cfg.build_model()
    safe = cfg.safe_policy(model)
    nominal = cfg.nominal_policy(model)
    dataset = collect_dataset(
        model, safe, cfg.value_states, cfg.value_horizon, cfg.value_samples,
        cfg.seed, cfg.value_sampler(model),
    )
    vm = fit_value(dataset, ApproxConfig(hidden=cfg.hidden_sizes(), epochs=cfg.value_epochs,
                                         learning_rate=cfg.value_lr), cfg.seed)
    return SimpleNamespace(
        cfg=cfg, model=model, nominal=nominal, safe=safe,
        value_model=vm, barrier=Barrier(vm, cfg.xi),
        box_sampler=cfg.value_sampler(model),
    )


@pytest.fixture(scope="session")
def collision_setup():
    """Two-agent collision benchmark with a trained desk-scale barrier."""
    cfg = parse_config(
        "run.preset = collision\nvalue.states = 500\nvalue.horizon = 100\nvalue.samples = 2"
    )
    model = cfg.build_model()
    safe = cfg.safe_policy(model)
    nominal = cfg.nominal_policy(model)
    dataset = collect_dataset(
        model, safe, cfg.value_states, cfg.value_horizon, cfg.value_samples,
        cfg.seed, cfg.value_sampler(model),
    )
    vm = fit_value(dataset, ApproxConfig(hidden=cfg.hidden_sizes(), epochs=cfg.value_epochs,
                                         learning_rate=cfg.value_lr), cfg.seed)
    return SimpleNamespace(
        cfg=cfg, model=model, nominal=nominal, safe=safe,
        value_model=vm, barrier=Barrier(vm, cfg.xi),
        box_sampler=cfg.value_sampler(model),
    )


@pytest.fixture(scope="session")
def collision3_setup():
    """Three-agent collision preset with a small trained barrier."""
    cfg = parse_config("run.preset = collision\nrun.agents = 3\n"
                       "value.states = 60\nvalue.horizon = 60\nvalue.samples = 2")
    model = cfg.build_model()
    safe = cfg.safe_policy(model)
    dataset = collect_dataset(model, safe, cfg.value_states, cfg.value_horizon,
                              cfg.value_samples, cfg.seed, cfg.value_sampler(model))
    vm = fit_value(dataset, ApproxConfig(hidden=cfg.hidden_sizes(), epochs=cfg.value_epochs,
                                         learning_rate=cfg.value_lr), cfg.seed)
    return SimpleNamespace(cfg=cfg, model=model, nominal=cfg.nominal_policy(model), safe=safe,
                           value_model=vm, barrier=Barrier(vm, cfg.xi),
                           box_sampler=cfg.value_sampler(model))


def zero_policy(model: MasModel):
    """Policy returning the zero joint action (..., A) for states (..., M, d_x)."""
    return lambda x: np.zeros(np.shape(x)[:-2] + (sum(model.action_dims),))


def constant_cost_model(cost: float, gamma: float) -> MasModel:
    """Deterministic frozen-state model with a constant step cost."""
    return replace(make_static_model(), cost_fn=lambda x: np.full(np.shape(x)[:-2], float(cost)),
                   gamma=gamma)
