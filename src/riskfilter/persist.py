"""Versioned flat binary file for value models.

Layout (all integers unsigned little-endian, floats little-endian float64):

    bytes 0-3   magic  b"RFC1"
    uint32      format version (currently 2)
    uint32      L, the number of layer sizes (>= 2)
    L * uint32  layer sizes n_0 .. n_{L-1} (each >= 1)
    2 * uint64  horizon, train_seed
    float64     y_mean, y_scale, gamma, final_mse,
                x_mean (n_0 values), x_scale (n_0 values),
                then the parameters in ``fit_value``'s flat order: layer by
                layer, each weight matrix row-major, then its bias

The layer sizes fix the file's exact length.  Files are independent of
the barrier threshold, which stays a runtime parameter.

Loading never trusts the file: a missing file, another magic or version,
a header that does not fit, a zero layer size, a length other than the
one the sizes give, or a non-finite float raises MissingModelError (exit 2).
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, MissingModelError
from .value import ValueModel, _layer_views

MAGIC = b"RFC1"
VERSION = 2


def save_value_model(model: ValueModel, path) -> None:
    for name in ("horizon", "train_seed"):
        value = getattr(model, name)
        if not (isinstance(value, (int, np.integer)) and 0 <= value < 2**64):
            raise ContractViolationError(f"{name} = {value!r} does not fit a uint64")
    sizes = model.layer_sizes
    floats = np.concatenate(
        [[model.y_mean, model.y_scale, model.gamma, model.final_mse], model.x_mean,
         model.x_scale] + [a.ravel() for pair in zip(model.weights, model.biases) for a in pair])
    Path(path).write_bytes(b"".join((
        MAGIC, struct.pack(f"<II{len(sizes)}IQQ", VERSION, len(sizes), *sizes,
                           model.horizon, model.train_seed),
        np.asarray(floats, "<f8").tobytes())))


def load_value_model(path) -> ValueModel:
    path = Path(path)
    if not path.exists():
        raise MissingModelError(f"model file not found: {path}")
    buf = path.read_bytes()
    if buf[:4] != MAGIC:
        raise MissingModelError(f"{path} is not a value-model file (bad magic)")
    if len(buf) < 12:
        raise MissingModelError(f"{path} is truncated")
    version, n_sizes = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        hint = "; retrain it with train-value" if version == 1 else ""
        raise MissingModelError(f"unsupported value-model version {version} in {path}{hint}")
    head = 12 + 4 * n_sizes + 16
    if n_sizes < 2 or head > len(buf):
        raise MissingModelError(f"{path} has a header that does not fit the file")
    sizes = struct.unpack_from(f"<{n_sizes}I", buf, 12)
    if 0 in sizes:
        raise MissingModelError(f"{path} has a layer of size 0")
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    if len(buf) != head + 8 * (4 + 2 * sizes[0] + n_params):
        raise MissingModelError(f"{path} is {len(buf)} bytes, which its layer sizes "
                                f"{sizes} do not give")
    horizon, train_seed = struct.unpack_from("<QQ", buf, head - 16)
    floats = np.frombuffer(buf, "<f8", offset=head)
    if not np.isfinite(floats).all():
        raise MissingModelError(f"{path} holds a non-finite value")
    stats, x_mean, x_scale, params = np.split(floats, [4, 4 + sizes[0], 4 + 2 * sizes[0]])
    weights, biases = _layer_views(params, sizes)
    y_mean, y_scale, gamma, final_mse = stats.tolist()
    return ValueModel(
        layer_sizes=sizes,
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
        x_mean=x_mean.copy(),
        x_scale=x_scale.copy(),
        y_mean=y_mean,
        y_scale=y_scale,
        gamma=gamma,
        horizon=horizon,
        train_seed=train_seed,
        final_mse=final_mse,
    )
