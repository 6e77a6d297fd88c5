"""Versioned flat binary container for value models.

Layout (all integers little-endian, arrays row-major float64):

    bytes 0-3   magic  b"RFC1"
    bytes 4-7   uint32 format version (currently 1)
    bytes 8-11  uint32 record count
    per record:
        uint32  name length, then the UTF-8 name
        uint8   kind: 0 = float64 array, 1 = UTF-8 string
        arrays:  uint32 ndim, ndim * uint64 shape, data as float64
        strings: uint32 byte length, then the bytes

A value-model file stores the layer sizes, normalization statistics,
discount/horizon metadata and weight matrices.  Files are independent of
the barrier threshold, which stays a runtime parameter.

Loading never trusts the file: anything but a complete, consistent
container of the expected type raises MissingModelError (exit 2).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import MissingModelError
from .value import ValueModel

MAGIC = b"RFC1"
VERSION = 1

_KIND_ARRAY = 0
_KIND_STRING = 1


def write_container(path, records: dict) -> None:
    """Write named records (float arrays or strings) to ``path``."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(records))]
    for name, value in records.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        if isinstance(value, str):
            data = value.encode("utf-8")
            chunks.append(struct.pack("<BI", _KIND_STRING, len(data)))
            chunks.append(data)
        else:
            arr = np.ascontiguousarray(np.asarray(value, dtype="<f8"))
            chunks.append(struct.pack("<BI", _KIND_ARRAY, arr.ndim))
            chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_container(path) -> dict:
    """Named records of a container file; every count, length and shape is
    checked against the buffer before it is unpacked.  A file that is not a
    complete container of this version raises MissingModelError."""
    path = Path(path)
    if not path.exists():
        raise MissingModelError(f"model file not found: {path}")
    buf = path.read_bytes()
    if buf[:4] != MAGIC:
        raise MissingModelError(f"{path} is not a model container (bad magic)")
    pos = 4

    def take(n: int) -> bytes:
        nonlocal pos
        if n > len(buf) - pos:
            raise MissingModelError(f"{path} is truncated")
        pos += n
        return buf[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    def text(n: int) -> str:
        try:
            return take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise MissingModelError(f"{path} holds a string that is not UTF-8") from None

    version, count = unpack("<II")
    if version != VERSION:
        raise MissingModelError(f"unsupported container version {version} in {path}")
    records = {}
    for _ in range(count):
        name = text(*unpack("<I"))
        kind, head = unpack("<BI")
        if kind == _KIND_STRING:
            records[name] = text(head)
        elif kind == _KIND_ARRAY:
            shape = unpack(f"<{head}Q")
            if any(n > len(buf) for n in shape):
                raise MissingModelError(f"array {name!r} in {path} has an impossible shape")
            data = take(8 * math.prod(shape))
            records[name] = np.frombuffer(data, dtype="<f8").reshape(shape).copy()
        else:
            raise MissingModelError(f"unknown record kind {kind} in {path}")
    if pos != len(buf):
        raise MissingModelError(f"{path} has {len(buf) - pos} bytes after its last record")
    return records


def _string(rec: dict, name: str, path) -> str:
    value = rec.get(name)
    if not isinstance(value, str):
        raise MissingModelError(f"{path} has no valid {name!r} record")
    return value


def _array(rec: dict, name: str, path, shape: tuple | None = None) -> np.ndarray:
    """A finite array record, of ``shape`` when given."""
    value = rec.get(name)
    if not (isinstance(value, np.ndarray) and np.all(np.isfinite(value))
            and shape in (None, value.shape)):
        raise MissingModelError(f"{path} has no valid {name!r} record")
    return value


def save_value_model(model: ValueModel, path) -> None:
    records = {
        "type": "value_model",
        "layer_sizes": np.array(model.layer_sizes, dtype=float),
        "x_mean": model.x_mean,
        "x_scale": model.x_scale,
        "y_stats": np.array([model.y_mean, model.y_scale]),
        "meta": np.array([model.gamma, float(model.horizon),
                          float(model.train_seed), model.final_mse]),
    }
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        records[f"w{i}"] = w
        records[f"b{i}"] = b
    write_container(path, records)


def load_value_model(path) -> ValueModel:
    rec = read_container(path)
    if _string(rec, "type", path) != "value_model":
        raise MissingModelError(f"{path} does not hold a value model")
    # Sizes that pass the weight-shape checks below describe the arrays exactly.
    sizes = tuple(int(s) for s in _array(rec, "layer_sizes", path).ravel())
    if len(sizes) < 2:
        raise MissingModelError(f"{path} has no valid 'layer_sizes' record")
    pairs = list(zip(sizes[:-1], sizes[1:]))
    y_mean, y_scale = _array(rec, "y_stats", path, (2,))
    gamma, horizon, train_seed, final_mse = _array(rec, "meta", path, (4,))
    return ValueModel(
        layer_sizes=sizes,
        weights=tuple(_array(rec, f"w{i}", path, pair) for i, pair in enumerate(pairs)),
        biases=tuple(_array(rec, f"b{i}", path, pair[1:]) for i, pair in enumerate(pairs)),
        x_mean=_array(rec, "x_mean", path, sizes[:1]),
        x_scale=_array(rec, "x_scale", path, sizes[:1]),
        y_mean=float(y_mean),
        y_scale=float(y_scale),
        gamma=float(gamma),
        horizon=int(horizon),
        train_seed=int(train_seed),
        final_mse=float(final_mse),
    )
