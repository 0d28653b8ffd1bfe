"""Bit-exact NIfTI-1 volume reader and writer.

The format is single-file uncompressed little-endian `.nii` with datatype
uint8, int16 or float32.  Anything else (big-endian, wrong magic, other
datatypes, corrupt dims, spacing or offset) errors loudly.  A
non-identity scl_slope/scl_inter is applied on read and yields a float32
CtVolume (an error if a value overflows it); writers store identity scaling.

Unscaled uint8 payloads load as LabelVolume, int16/float32 as CtVolume;
writers pick the payload dtype from the array dtype, so round trips are
bit-exact.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from collections.abc import Iterable

import numpy as np

from .errors import FormatError
from .volumes import CtVolume, LabelVolume

NIFTI_HEADER_SIZE = 348
NIFTI_MAGIC = b"n+1\x00"
_NIFTI_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_NIFTI_CODES = {"uint8": 2, "int16": 4, "float32": 16}


def _atomic_write(path: str | os.PathLike, parts: Iterable) -> None:
    """Write the bytes-like parts in order to a temp file, then rename it over path."""
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            for part in parts:
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# NIfTI-1


def read_nifti_header(path: str | os.PathLike) -> bytes:
    with open(path, "rb") as f:
        hdr = f.read(NIFTI_HEADER_SIZE)
    if len(hdr) < NIFTI_HEADER_SIZE:
        raise FormatError(f"{path}: NIfTI header truncated ({len(hdr)} of 348 bytes)")
    return hdr


def read_nifti(path: str | os.PathLike) -> CtVolume | LabelVolume:
    """Check the 348-byte header, then read the payload straight into one array."""
    hdr = read_nifti_header(path)
    (sizeof_hdr,) = struct.unpack_from("<i", hdr, 0)
    if sizeof_hdr != NIFTI_HEADER_SIZE:
        (be,) = struct.unpack_from(">i", hdr, 0)
        if be == NIFTI_HEADER_SIZE:
            raise FormatError(f"{path}: big-endian NIfTI is not supported")
        raise FormatError(f"{path}: sizeof_hdr is {sizeof_hdr}, expected 348")
    magic = hdr[344:348]
    if magic != NIFTI_MAGIC:
        raise FormatError(f"{path}: magic {magic!r} is not single-file NIfTI-1 ('n+1')")
    dim = struct.unpack_from("<8h", hdr, 40)
    if not 3 <= dim[0] <= 7 or any(d != 1 for d in dim[4 : dim[0] + 1]):
        raise FormatError(f"{path}: expected a 3-D volume, got dim {dim}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: dims must be at least 1, got dim {dim}")
    (datatype,) = struct.unpack_from("<h", hdr, 70)
    if datatype not in _NIFTI_DTYPES:
        raise FormatError(f"{path}: unsupported NIfTI datatype code {datatype}")
    dt = _NIFTI_DTYPES[datatype]
    pixdim = struct.unpack_from("<8f", hdr, 76)
    spacing = (pixdim[3], pixdim[2], pixdim[1])  # (sz, sy, sx)
    if not all(0.0 < s < math.inf for s in spacing):
        raise FormatError(f"{path}: pixdim {pixdim[1:4]} must be positive and finite")
    (vox_offset,) = struct.unpack_from("<f", hdr, 108)
    if not math.isfinite(vox_offset):
        raise FormatError(f"{path}: vox_offset {vox_offset} is not finite")
    # A non-finite scl_slope/scl_inter reads as 0, as in the NIfTI-1
    # reference reader; slope 0 means unscaled and the intercept is ignored.
    slope, inter = (v if np.isfinite(v) else 0.0 for v in struct.unpack_from("<2f", hdr, 112))
    offset = int(vox_offset)
    if offset < NIFTI_HEADER_SIZE:
        raise FormatError(f"{path}: vox_offset {vox_offset} inside the header")
    needed = nx * ny * nz * dt.itemsize
    have = os.path.getsize(path) - offset
    if have < needed:
        raise FormatError(f"{path}: payload needs {needed} bytes, file has {have}")
    vox = np.fromfile(path, dtype=dt, count=nx * ny * nz, offset=offset)
    vox = vox.reshape(nz, ny, nx)  # x varies fastest on disk
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        # one slice at a time: the float64 arithmetic stays slice-sized
        out = np.empty(vox.shape, dtype=np.float32)
        top = np.finfo(np.float32).max
        for k, plane in enumerate(vox):
            scaled = plane * np.float64(slope) + inter
            if scaled.min() < -top or scaled.max() > top:
                raise FormatError(f"{path}: scl_slope {slope}, scl_inter {inter} overflow float32")
            out[k] = scaled
        return CtVolume(out, spacing)
    vox = vox.astype(dt.newbyteorder("="), copy=False)
    return LabelVolume(vox, spacing) if vox.dtype == np.uint8 else CtVolume(vox, spacing)


def write_nifti(
    v: CtVolume | LabelVolume,
    path: str | os.PathLike,
    template_header: bytes | None = None,
) -> None:
    """Write v as single-file NIfTI-1.

    A template header contributes its other fields (pixdim[0], qform,
    sform, descriptions); spacing, dims, datatype and identity scaling
    always come from v.  A volume the header cannot hold raises
    FormatError before anything is written.
    """
    vox = np.ascontiguousarray(v.voxels)
    if vox.dtype.name not in _NIFTI_CODES:
        raise FormatError(f"cannot write dtype {vox.dtype} as NIfTI (u8/i16/f32 only)")
    code = _NIFTI_CODES[vox.dtype.name]
    d, h, w = v.dims
    if max(d, h, w) > 32767:
        raise FormatError(f"dims {v.dims} exceed the int16 dim field (at most 32767)")
    sz, sy, sx = v.spacing
    try:
        pixdim = struct.pack("<3f", sx, sy, sz)
    except OverflowError as e:
        raise FormatError(f"spacing {v.spacing} mm overflows the float32 pixdim field") from e
    if 0.0 in struct.unpack("<3f", pixdim):
        raise FormatError(f"spacing {v.spacing} mm rounds to 0 in the float32 pixdim field")
    if template_header is not None:
        if len(template_header) != NIFTI_HEADER_SIZE:
            raise FormatError(f"template header must be 348 bytes, got {len(template_header)}")
        hdr = bytearray(template_header)
    else:
        hdr = bytearray(NIFTI_HEADER_SIZE)
        struct.pack_into("<i", hdr, 0, NIFTI_HEADER_SIZE)
        struct.pack_into("<f", hdr, 76, 1.0)  # pixdim[0]: qfac
    hdr[80:92] = pixdim  # pixdim[1:4]
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<8h", hdr, 40, 3, w, h, d, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, vox.dtype.itemsize * 8)
    struct.pack_into("<f", hdr, 108, float(NIFTI_HEADER_SIZE + 4))
    hdr[344:348] = NIFTI_MAGIC
    # the array's own buffer; a no-op astype on little-endian hosts
    payload = vox.astype(vox.dtype.newbyteorder("<"), copy=False)
    _atomic_write(path, (hdr, b"\x00" * 4, payload))


# ---------------------------------------------------------------------------
# dispatch


def read_volume(path: str | os.PathLike) -> CtVolume | LabelVolume:
    """Read a volume by extension; only .nii is supported."""
    p = os.fspath(path)
    if p.endswith(".nii"):
        return read_nifti(p)
    raise FormatError(f"{path}: unknown volume format (expected .nii)")
