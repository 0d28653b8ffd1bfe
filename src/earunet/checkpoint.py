"""Checkpoint file format.

Layout (all integers little-endian):

    magic  b"EARU"
    u32    format version (currently 1)
    payload:
        u32 + bytes      model config JSON
        u32              parameter record count
        records          name (u16 len + utf8), dtype code u8,
                         ndim u8, u32 dims..., raw little-endian data
        u8               has optimizer moments
        [u64 step count + u32 + moment records]   when present
        u32 + bytes      RNG state JSON
        u32              epoch counter
    u32    CRC32 of payload

Writes are atomic (temp file + rename); loads parse the whole file into
fresh objects before anything is returned, so a truncated or corrupt file
never yields partial state.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, VersionError
from .model import ModelConfig
from .volume_io import _atomic_write

MAGIC = b"EARU"
VERSION = 1

_DTYPE_CODES = {"float32": 0, "float64": 1}
_CODE_DTYPES = {v: np.dtype(k) for k, v in _DTYPE_CODES.items()}


@dataclass
class AdamMoments:
    """First/second moment arrays keyed like the trainable parameters."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class Checkpoint:
    config: ModelConfig
    arrays: dict[str, np.ndarray]  # every named parameter blob
    moments: AdamMoments | None = None
    rng_state: dict | None = None
    epoch: int = 0


def _pack_array_records(arrays: dict[str, np.ndarray]) -> bytes:
    out = [struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        nb = name.encode("utf-8")
        if arr.dtype.name not in _DTYPE_CODES:
            raise FormatError(f"unsupported checkpoint dtype {arr.dtype} for {name!r}")
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype.name], arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise FormatError(
                f"checkpoint truncated: needed {self.pos + n} bytes, have {len(self.buf)}"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())


def _unpack_array_records(r: _Reader) -> dict[str, np.ndarray]:
    count = r.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.take(r.u16()).decode("utf-8")
        code = r.u8()
        if code not in _CODE_DTYPES:
            raise FormatError(f"unknown dtype code {code} for {name!r}")
        dt = _CODE_DTYPES[code]
        ndim = r.u8()
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        size = int(np.prod(shape)) if ndim else 1
        nbytes = size * dt.itemsize
        if r.pos + nbytes > len(r.buf):
            raise FormatError(
                f"checkpoint truncated inside {name!r}: needed {nbytes} more bytes"
            )
        data = np.frombuffer(r.take(nbytes), dtype=dt.newbyteorder("<")).astype(dt)
        arrays[name] = data.reshape(shape).copy()
    return arrays


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def save_checkpoint(ckpt: Checkpoint, path: str | os.PathLike) -> None:
    """Serialize and atomically replace `path`."""
    parts = []
    cfg = _json_bytes(ckpt.config.to_json_dict())
    parts.append(struct.pack("<I", len(cfg)))
    parts.append(cfg)
    parts.append(_pack_array_records(ckpt.arrays))
    if ckpt.moments is None:
        parts.append(b"\x00")
    else:
        parts.append(b"\x01")
        parts.append(struct.pack("<Q", ckpt.moments.t))
        moment_arrays = {f"m.{k}": v for k, v in ckpt.moments.m.items()}
        moment_arrays.update({f"v.{k}": v for k, v in ckpt.moments.v.items()})
        parts.append(_pack_array_records(moment_arrays))
    rng = _json_bytes(ckpt.rng_state) if ckpt.rng_state is not None else b""
    parts.append(struct.pack("<I", len(rng)))
    parts.append(rng)
    parts.append(struct.pack("<I", ckpt.epoch))
    payload = b"".join(parts)

    blob = MAGIC + struct.pack("<I", VERSION) + payload + struct.pack("<I", zlib.crc32(payload))
    _atomic_write(path, blob)


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Parse and validate a checkpoint; bit-exact inverse of save."""
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 12:
        raise FormatError(f"checkpoint too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    version = struct.unpack("<I", blob[4:8])[0]
    if version != VERSION:
        raise VersionError(f"unsupported checkpoint version {version}, expected {VERSION}")
    payload, crc_bytes = blob[8:-4], blob[-4:]
    crc = struct.unpack("<I", crc_bytes)[0]
    actual = zlib.crc32(payload)
    if crc != actual:
        raise FormatError(f"checkpoint CRC mismatch: header {crc:#010x}, payload {actual:#010x}")

    r = _Reader(payload)
    config = ModelConfig.from_json_dict(json.loads(r.blob().decode("utf-8")))
    arrays = _unpack_array_records(r)
    moments = None
    if r.u8():
        t = r.u64()
        moment_arrays = _unpack_array_records(r)
        m = {k[2:]: v for k, v in moment_arrays.items() if k.startswith("m.")}
        v = {k[2:]: v for k, v in moment_arrays.items() if k.startswith("v.")}
        moments = AdamMoments(t=t, m=m, v=v)
    rng_blob = r.blob()
    rng_state = json.loads(rng_blob.decode("utf-8")) if rng_blob else None
    epoch = r.u32()
    return Checkpoint(config=config, arrays=arrays, moments=moments, rng_state=rng_state, epoch=epoch)


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
        arr[:] = ckpt.arrays[name].astype(arr.dtype)
