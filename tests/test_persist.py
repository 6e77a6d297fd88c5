"""Value-model files: the documented layout, exact round trips, and truncated
or corrupted files raising typed errors."""

from __future__ import annotations

import dataclasses
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import src_env
from riskfilter import (
    ApproxConfig,
    ContractViolationError,
    MissingModelError,
    RiskFilterError,
    ValueDataset,
    fit_value,
    load_value_model,
    persist,
    save_value_model,
)
from riskfilter.value import ValueModel

# A hand-built (2, 1) network: no fit, so its bytes do not depend on BLAS.
TINY = ValueModel(
    layer_sizes=(2, 1),
    weights=(np.array([[0.5], [-1.25]]),),
    biases=(np.array([0.125]),),
    x_mean=np.array([1.0, -2.0]),
    x_scale=np.array([3.0, 0.25]),
    y_mean=0.75,
    y_scale=1.5,
    gamma=0.99,
    horizon=200,
    train_seed=2**53 + 1,
    final_mse=1e-3,
)
TINY_BYTES = (
    b"RFC1" + struct.pack("<IIIIQQ", 2, 2, 2, 1, 200, 2**53 + 1)
    + np.asarray([0.75, 1.5, 0.99, 1e-3, 1.0, -2.0, 3.0, 0.25, 0.5, -1.25, 0.125],
                 "<f8").tobytes()
)

# A version-1 file: the named-record container, with its one "type" record.
VERSION_1_BYTES = (b"RFC1" + struct.pack("<III", 1, 1, 4) + b"type"
                   + struct.pack("<BI", 1, 11) + b"value_model")


@pytest.fixture(scope="module")
def fitted_file(tmp_path_factory):
    """(bytes of a fitted model's file, scratch path)."""
    root = tmp_path_factory.mktemp("value_files")
    rng = np.random.default_rng(0)
    dataset = ValueDataset(states=rng.normal(size=(8, 1, 2)), targets=rng.uniform(size=8))
    save_value_model(fit_value(dataset, ApproxConfig(hidden=(3,), epochs=5), 0),
                     root / "value.bin")
    return (root / "value.bin").read_bytes(), root / "v.bin"


def load_bytes(data: bytes, path):
    path.write_bytes(data)
    return load_value_model(path)


def test_documented_layout(tmp_path):
    assert persist.VERSION == 2
    save_value_model(TINY, tmp_path / "v.bin")
    assert (tmp_path / "v.bin").read_bytes() == TINY_BYTES


@pytest.mark.parametrize("horizon, seed", [(200, 2**53 + 1), (2**64 - 1, 2**64 - 1)])
def test_round_trip_is_exact(tmp_path, horizon, seed):
    # float64 metadata gave back 2**53 for a seed of 2**53 + 1.
    model = dataclasses.replace(TINY, horizon=horizon, train_seed=seed)
    save_value_model(model, tmp_path / "v.bin")
    back = load_value_model(tmp_path / "v.bin")
    assert (back.horizon, back.train_seed) == (horizon, seed)
    assert back.layer_sizes == model.layer_sizes
    assert (back.y_mean, back.y_scale, back.gamma, back.final_mse) == (
        model.y_mean, model.y_scale, model.gamma, model.final_mse)
    for got, want in zip(back.weights + back.biases + (back.x_mean, back.x_scale),
                         model.weights + model.biases + (model.x_mean, model.x_scale)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    x = np.random.default_rng(3).normal(size=(7, 4, 2))
    assert back.predict(x).tobytes() == model.predict(x).tobytes()
    assert back.lower(x).tobytes() == model.lower(x).tobytes()


@pytest.mark.parametrize("field, value", [
    ("train_seed", 2**64), ("train_seed", -1), ("horizon", 2**64), ("horizon", 1.0),
])
def test_metadata_outside_uint64_refused(tmp_path, field, value):
    with pytest.raises(ContractViolationError):
        save_value_model(dataclasses.replace(TINY, **{field: value}), tmp_path / "v.bin")
    assert not (tmp_path / "v.bin").exists()


def _patched(fmt: str, offset: int, *values) -> bytes:
    buf = bytearray(TINY_BYTES)
    struct.pack_into(fmt, buf, offset, *values)
    return bytes(buf)


@pytest.mark.parametrize("data, match", [
    (b"RFC2" + TINY_BYTES[4:], "bad magic"),
    (_patched("<I", 4, 3), "version 3"),
    (_patched("<I", 8, 1), "header"),                  # one layer size
    (_patched("<I", 8, 2**32 - 1), "header"),          # sizes past the end
    (_patched("<I", 16, 0), "size 0"),
    (_patched("<d", 36 + 8 * 9, np.nan), "non-finite"),   # a weight
    (_patched("<d", 36, np.inf), "non-finite"),           # y_mean
], ids=["magic", "version", "one-size", "sizes-past-end", "zero-size", "nan", "inf"])
def test_malformed_file_rejected(tmp_path, data, match):
    with pytest.raises(MissingModelError, match=match):
        load_bytes(data, tmp_path / "v.bin")


def test_version_1_file_names_train_value(tmp_path):
    with pytest.raises(MissingModelError, match="retrain it with train-value"):
        load_bytes(VERSION_1_BYTES, tmp_path / "v.bin")
    out = tmp_path / "out"
    out.mkdir()
    (out / "value_model.bin").write_bytes(VERSION_1_BYTES)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("run.steps = 3\nrun.rollouts = 2\n")
    proc = subprocess.run(
        [sys.executable, "-m", "riskfilter.cli", "run", "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 2
    assert "train-value" in proc.stderr and "Traceback" not in proc.stderr


def test_valid_file_loads(fitted_file):
    assert load_bytes(*fitted_file) is not None


def test_every_truncation_rejected(fitted_file):
    data, path = fitted_file
    for length in range(len(data)):
        with pytest.raises(MissingModelError):
            load_bytes(data[:length], path)


def test_trailing_bytes_rejected(fitted_file):
    data, path = fitted_file
    with pytest.raises(MissingModelError):
        load_bytes(data + b"\x00", path)


@settings(deadline=None, max_examples=600)
@given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_single_byte_flip_returns_or_raises_typed(fitted_file, where, flip):
    data, path = fitted_file
    buf = bytearray(data)
    buf[int(where * len(buf))] ^= flip
    try:
        load_bytes(bytes(buf), path)
    except RiskFilterError:
        pass
