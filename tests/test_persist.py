"""Container robustness: truncated or corrupted model files raise typed errors."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskfilter import (
    ApproxConfig,
    MissingModelError,
    RiskFilterError,
    ValueDataset,
    fit_value,
    load_value_model,
    save_value_model,
)


@pytest.fixture(scope="module")
def containers(tmp_path_factory):
    """loader name -> (loader, bytes of a valid container, scratch path)."""
    root = tmp_path_factory.mktemp("containers")
    rng = np.random.default_rng(0)
    dataset = ValueDataset(states=rng.normal(size=(8, 1, 2)), targets=rng.uniform(size=8))
    save_value_model(fit_value(dataset, ApproxConfig(hidden=(3,), epochs=5), 0),
                     root / "value.bin")
    return {
        "value": (load_value_model, (root / "value.bin").read_bytes(), root / "v.bin"),
    }


def load_bytes(loader, data: bytes, path):
    path.write_bytes(data)
    return loader(path)


@pytest.mark.parametrize("kind", ["value"])
def test_valid_container_loads(containers, kind):
    loader, data, path = containers[kind]
    assert load_bytes(loader, data, path) is not None


@pytest.mark.parametrize("kind", ["value"])
def test_every_truncation_rejected(containers, kind):
    loader, data, path = containers[kind]
    for length in range(len(data)):
        with pytest.raises(MissingModelError):
            load_bytes(loader, data[:length], path)


@pytest.mark.parametrize("kind", ["value"])
def test_trailing_bytes_rejected(containers, kind):
    loader, data, path = containers[kind]
    with pytest.raises(MissingModelError):
        load_bytes(loader, data + b"\x00", path)


@settings(deadline=None, max_examples=600)
@given(where=st.floats(0.0, 1.0, exclude_max=True), flip=st.integers(1, 255))
def test_single_byte_flip_returns_or_raises_typed(containers, where, flip):
    loader, data, path = containers["value"]
    buf = bytearray(data)
    buf[int(where * len(buf))] ^= flip
    try:
        load_bytes(loader, bytes(buf), path)
    except RiskFilterError:
        pass
