"""Checkpoint file format (integers little-endian):

    b"EARU" | u32 version (5) | payload | u32 CRC32 of payload
    payload = u32 n | n bytes of UTF-8 JSON header | raw array bytes

The header is one object: `config` (the ModelConfig JSON dict), `epoch`
(an int >= 0), `rng_state` (a dict or null), `adam_t` (the Adam step,
an int >= 0) and three lists `arrays`, `m` and `v` of `[name, dtype,
shape]`, dtype "float32" or "float64". The little-endian bytes of every
array follow in header order. Names are unique within a list; every m
and v entry repeats an arrays entry (name, dtype and shape), m and v
name the same arrays, and both are empty exactly when adam_t is 0.

Writes are atomic (temp file + rename); a load parses the whole file
before it returns, so a corrupt file never yields partial state.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, FormatError, VersionError
from .model import DTYPES, ModelConfig
from .volume_io import _atomic_write

MAGIC = b"EARU"
VERSION = 5

_HEADER_KEYS = {"config", "epoch", "rng_state", "adam_t", "arrays", "m", "v"}


@dataclass
class AdamMoments:
    """First/second moment arrays keyed like the trainable parameters, and
    the step count ``t``; ``train.adam_step`` advances them."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    config: ModelConfig
    arrays: dict[str, np.ndarray]  # every named parameter blob
    moments: AdamMoments = field(default_factory=AdamMoments)
    rng_state: dict | None = None
    epoch: int = 0


def _check_fields(head: dict) -> None:
    """ValueError naming the first scalar or m/v header field the format cannot hold."""
    t, rng, m, v = head["adam_t"], head["rng_state"], head["m"], head["v"]
    for key, value in (("epoch", head["epoch"]), ("adam_t", t)):
        if type(value) is not int or value < 0:  # type(), not isinstance: True is no count
            raise ValueError(f"{key} must be an int >= 0, got {value!r}")
    if rng is not None and not isinstance(rng, dict):
        raise ValueError(f"rng_state must be a dict or null, got {type(rng).__name__}")
    if (t == 0) != (not m and not v):
        raise ValueError(f"m and v must be empty exactly when adam_t is 0: adam_t {t}, "
                         f"{len(m)} m and {len(v)} v entries")
    if {e[0] for e in m} != {e[0] for e in v}:
        raise ValueError("m and v name different arrays")
    arrays = {name: [dtype, shape] for name, dtype, shape in head["arrays"]}
    for key in ("m", "v"):
        for name, dtype, shape in head[key]:
            if arrays.get(name) != [dtype, shape]:
                raise ValueError(f"{key} entry {name!r} ({dtype}, {shape}) is not an arrays entry")


def _read_arrays(entries, payload: memoryview, pos: int) -> tuple[dict[str, np.ndarray], int]:
    """The arrays that [name, dtype, shape] entries lay out from payload[pos:],
    as writable native-order copies, and the offset after the last one."""
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape in entries:
        if not isinstance(name, str) or name in arrays:
            raise ValueError(f"array name {name!r} is not a str or repeats")
        dims_ok = isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
        if dtype not in DTYPES or not dims_ok:
            raise ValueError(f"array {name!r} has unknown dtype {dtype!r} or bad shape {shape!r}")
        dt = np.dtype(dtype)
        end = pos + math.prod(shape) * dt.itemsize  # Python ints: no overflow
        if end > len(payload):
            raise FormatError(f"checkpoint truncated inside {name!r}: needs {end} payload bytes")
        arrays[name] = np.frombuffer(payload[pos:end], dt.newbyteorder("<")).astype(dt).reshape(shape)
        pos = end
    return arrays, pos


def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Serialize and atomically replace `path`.  A field the format cannot
    hold raises FormatError before anything is written."""
    m = ckpt.moments
    head = {"config": ckpt.config.to_json_dict(), "epoch": ckpt.epoch, "rng_state": ckpt.rng_state,
            "adam_t": m.t}
    parts = []
    for key, group in (("arrays", ckpt.arrays), ("m", m.m), ("v", m.v)):
        head[key] = []
        for name, a in group.items():
            if not isinstance(name, str) or a.dtype.name not in DTYPES:
                raise FormatError(f"checkpoint cannot hold array {name!r} of dtype {a.dtype}")
            head[key].append([name, a.dtype.name, list(a.shape)])
            # its own buffer, copied only if it is not little-endian and contiguous
            parts.append(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<"), copy=False))
    try:
        _check_fields(head)
        raw = json.dumps(head, sort_keys=True).encode("utf-8")  # only rng_state can fail it
    except (TypeError, ValueError) as e:
        raise FormatError(f"checkpoint cannot hold this: {e}") from e
    parts = [struct.pack("<I", len(raw)), raw, *parts]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    _atomic_write(path, [MAGIC, struct.pack("<I", VERSION), *parts, struct.pack("<I", crc)])


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Parse and validate a checkpoint; bit-exact inverse of save."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise FormatError(f"checkpoint too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != VERSION:
        raise VersionError(f"unsupported checkpoint version {version}, expected {VERSION}")
    payload = memoryview(blob)[8:-4]
    crc, actual = struct.unpack("<I", blob[-4:])[0], zlib.crc32(payload)
    if crc != actual:
        raise FormatError(f"checkpoint CRC mismatch: header {crc:#010x}, payload {actual:#010x}")
    n = 4 + struct.unpack_from("<I", payload)[0]  # where the arrays start
    try:
        head = json.loads(bytes(payload[4:n]).decode("utf-8"))
        if not isinstance(head, dict) or head.keys() != _HEADER_KEYS:
            raise ValueError(f"the header is not an object with keys {sorted(_HEADER_KEYS)}")
        config = ModelConfig.from_json_dict(head["config"])
        arrays, pos = _read_arrays(head["arrays"], payload, n)
        m, pos = _read_arrays(head["m"], payload, pos)
        v, pos = _read_arrays(head["v"], payload, pos)
        _check_fields(head)  # the entries are well-formed now
    except (AttributeError, ConfigError, RecursionError, TypeError, ValueError) as e:
        raise FormatError(f"checkpoint header is malformed: {type(e).__name__}: {e}") from e
    if pos != len(payload):
        raise FormatError(f"checkpoint arrays end at payload byte {pos}, the payload has {len(payload)}")
    return Checkpoint(config, arrays, AdamMoments(head["adam_t"], m, v), head["rng_state"], head["epoch"])


def restore_params(params_arrays: dict[str, np.ndarray], ckpt: Checkpoint) -> None:
    """Copy checkpoint blobs into live parameter arrays, in place.

    Every blob is checked before any is copied: a shape mismatch, a value
    that is not finite in the parameter's dtype, or a running variance
    <= 0 raises FormatError naming the array, and nothing is restored.
    """
    missing = set(params_arrays) - set(ckpt.arrays)
    extra = set(ckpt.arrays) - set(params_arrays)
    if missing or extra:
        raise FormatError(
            f"checkpoint parameters do not match model: missing {sorted(missing)[:3]}, "
            f"unexpected {sorted(extra)[:3]}"
        )
    for name, arr in params_arrays.items():
        src = ckpt.arrays[name]
        if src.shape != arr.shape:
            raise FormatError(f"{name}: checkpoint shape {src.shape} != model shape {arr.shape}")
        # written so that NaN fails the test too
        if not np.all(np.abs(src) <= np.finfo(arr.dtype).max):
            raise FormatError(f"{name}: checkpoint holds values that are not finite as {arr.dtype}")
        if name.endswith(".running_var") and not np.all(src > 0):
            raise FormatError(f"{name}: checkpoint running variance must be positive")
    for name, arr in params_arrays.items():
        arr[:] = ckpt.arrays[name]  # the assignment casts to arr's dtype
