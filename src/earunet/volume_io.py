"""Bit-exact volume readers/writers plus the slice archive.

Supported formats:

* NIfTI-1, single-file uncompressed little-endian `.nii` with datatype
  uint8, int16 or float32.  Anything else (big-endian, wrong magic,
  other datatypes) errors loudly.  A non-identity scl_slope/scl_inter is
  applied on read and yields a float32 CtVolume; writers store identity
  scaling.
* "VSEG": a JSON sidecar `<base>.vseg.json` describing dims, spacing and
  dtype next to a raw little-endian payload `<base>.vseg.raw`.
* Slice archives: one directory per case holding per-slice raw records
  (float32 image, uint8 mask) and a JSON manifest with provenance.

Unscaled uint8 payloads load as LabelVolume, int16/float32 as CtVolume;
writers pick the payload dtype from the array dtype, so round trips are
bit-exact.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import FormatError
from .preprocess import SlicePair
from .volumes import CtVolume, LabelVolume

NIFTI_HEADER_SIZE = 348
NIFTI_MAGIC = b"n+1\x00"
_NIFTI_DTYPES = {2: np.dtype("<u1"), 4: np.dtype("<i2"), 16: np.dtype("<f4")}
_NIFTI_CODES = {"uint8": 2, "int16": 4, "float32": 16}

_VSEG_DTYPES = {"u8": np.dtype("<u1"), "i16": np.dtype("<i2"), "f32": np.dtype("<f4")}
_VSEG_CODES = {"uint8": "u8", "int16": "i16", "float32": "f32"}


def _atomic_write(path: str | os.PathLike, blob: bytes) -> None:
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _volume_from_array(arr: np.ndarray, spacing) -> CtVolume | LabelVolume:
    if arr.dtype == np.uint8:
        return LabelVolume(arr, spacing)
    return CtVolume(arr, spacing)


# ---------------------------------------------------------------------------
# NIfTI-1


def read_nifti_header(path: str | os.PathLike) -> bytes:
    with open(path, "rb") as f:
        hdr = f.read(NIFTI_HEADER_SIZE)
    if len(hdr) < NIFTI_HEADER_SIZE:
        raise FormatError(f"{path}: NIfTI header truncated ({len(hdr)} of 348 bytes)")
    return hdr


def read_nifti(path: str | os.PathLike) -> CtVolume | LabelVolume:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < NIFTI_HEADER_SIZE:
        raise FormatError(f"{path}: file shorter than the 348-byte NIfTI header")
    (sizeof_hdr,) = struct.unpack_from("<i", blob, 0)
    if sizeof_hdr != NIFTI_HEADER_SIZE:
        (be,) = struct.unpack_from(">i", blob, 0)
        if be == NIFTI_HEADER_SIZE:
            raise FormatError(f"{path}: big-endian NIfTI is not supported")
        raise FormatError(f"{path}: sizeof_hdr is {sizeof_hdr}, expected 348")
    magic = blob[344:348]
    if magic != NIFTI_MAGIC:
        raise FormatError(f"{path}: magic {magic!r} is not single-file NIfTI-1 ('n+1')")
    dim = struct.unpack_from("<8h", blob, 40)
    if dim[0] < 3 or any(d != 1 for d in dim[4 : dim[0] + 1]):
        raise FormatError(f"{path}: expected a 3-D volume, got dim {dim}")
    nx, ny, nz = dim[1], dim[2], dim[3]
    (datatype,) = struct.unpack_from("<h", blob, 70)
    if datatype not in _NIFTI_DTYPES:
        raise FormatError(f"{path}: unsupported NIfTI datatype code {datatype}")
    dt = _NIFTI_DTYPES[datatype]
    pixdim = struct.unpack_from("<8f", blob, 76)
    spacing = (pixdim[3], pixdim[2], pixdim[1])  # (sz, sy, sx)
    if any(s <= 0 for s in spacing):
        raise FormatError(f"{path}: non-positive pixdim {pixdim[1:4]}")
    (vox_offset,) = struct.unpack_from("<f", blob, 108)
    # A non-finite scl_slope/scl_inter reads as 0, as in the NIfTI-1
    # reference reader; slope 0 means unscaled and the intercept is ignored.
    slope, inter = (v if np.isfinite(v) else 0.0 for v in struct.unpack_from("<2f", blob, 112))
    offset = int(vox_offset)
    if offset < NIFTI_HEADER_SIZE:
        raise FormatError(f"{path}: vox_offset {vox_offset} inside the header")
    needed = nx * ny * nz * dt.itemsize
    have = len(blob) - offset
    if have < needed:
        raise FormatError(f"{path}: payload needs {needed} bytes, file has {have}")
    arr = np.frombuffer(blob, dtype=dt, count=nx * ny * nz, offset=offset)
    vox = arr.reshape(nz, ny, nx).copy()  # x varies fastest on disk
    if slope != 0.0 and (slope != 1.0 or inter != 0.0):
        return CtVolume((vox * np.float64(slope) + inter).astype(np.float32), spacing)
    return _volume_from_array(vox.astype(vox.dtype.newbyteorder("=")), spacing)


def write_nifti(
    v: CtVolume | LabelVolume,
    path: str | os.PathLike,
    template_header: bytes | None = None,
) -> None:
    """Write v as single-file NIfTI-1.

    A template header contributes its other fields (pixdim[0], qform,
    sform, descriptions); spacing, dims, datatype and identity scaling
    always come from v.
    """
    vox = np.ascontiguousarray(v.voxels)
    if vox.dtype.name not in _NIFTI_CODES:
        raise FormatError(f"cannot write dtype {vox.dtype} as NIfTI (u8/i16/f32 only)")
    code = _NIFTI_CODES[vox.dtype.name]
    d, h, w = v.dims
    if template_header is not None:
        if len(template_header) != NIFTI_HEADER_SIZE:
            raise FormatError(f"template header must be 348 bytes, got {len(template_header)}")
        hdr = bytearray(template_header)
    else:
        hdr = bytearray(NIFTI_HEADER_SIZE)
        struct.pack_into("<i", hdr, 0, NIFTI_HEADER_SIZE)
        struct.pack_into("<f", hdr, 76, 1.0)  # pixdim[0]: qfac
    sz, sy, sx = v.spacing
    struct.pack_into("<3f", hdr, 80, sx, sy, sz)  # pixdim[1:4]
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<8h", hdr, 40, 3, w, h, d, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, vox.dtype.itemsize * 8)
    struct.pack_into("<f", hdr, 108, float(NIFTI_HEADER_SIZE + 4))
    hdr[344:348] = NIFTI_MAGIC
    payload = vox.astype(vox.dtype.newbyteorder("<"), copy=False).tobytes()
    _atomic_write(path, bytes(hdr) + b"\x00" * 4 + payload)


# ---------------------------------------------------------------------------
# VSEG


def _vseg_base(path: str | os.PathLike) -> str:
    p = os.fspath(path)
    if p.endswith(".vseg.json") or p.endswith(".vseg.raw"):
        return p.rsplit(".", 1)[0]
    if p.endswith(".vseg"):
        return p
    raise FormatError(f"{path}: VSEG paths must end in .vseg / .vseg.json / .vseg.raw")


def read_vseg(path: str | os.PathLike) -> CtVolume | LabelVolume:
    base = _vseg_base(path)
    sidecar = base + ".json"
    raw = base + ".raw"
    try:
        with open(sidecar) as f:
            meta = json.load(f)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{sidecar}: invalid JSON sidecar: {exc}") from exc
    _validate_vseg_meta(sidecar, meta)
    dt = _VSEG_DTYPES[meta["dtype"]]
    dims = tuple(meta["dims"])
    needed = int(np.prod(dims)) * dt.itemsize
    size = os.path.getsize(raw)
    if size != needed:
        raise FormatError(f"{raw}: payload is {size} bytes, header implies {needed}")
    arr = np.fromfile(raw, dtype=dt).reshape(dims)
    return _volume_from_array(arr.astype(arr.dtype.newbyteorder("=")), tuple(meta["spacing_mm"]))


def _validate_vseg_meta(sidecar: str, meta: dict) -> None:
    if not isinstance(meta, dict):
        raise FormatError(f"{sidecar}: sidecar must be a JSON object")
    if meta.get("format") != "vseg":
        raise FormatError(f"{sidecar}: format field is {meta.get('format')!r}, expected 'vseg'")
    if meta.get("version") != 1:
        raise FormatError(f"{sidecar}: unsupported VSEG version {meta.get('version')!r}")
    dims = meta.get("dims")
    if not (isinstance(dims, list) and len(dims) == 3 and all(isinstance(d, int) and d > 0 for d in dims)):
        raise FormatError(f"{sidecar}: dims must be three positive integers, got {dims!r}")
    spacing = meta.get("spacing_mm")
    if not (
        isinstance(spacing, list)
        and len(spacing) == 3
        and all(isinstance(s, (int, float)) and s > 0 for s in spacing)
    ):
        raise FormatError(f"{sidecar}: spacing_mm must be three positive numbers, got {spacing!r}")
    if meta.get("dtype") not in _VSEG_DTYPES:
        raise FormatError(f"{sidecar}: dtype must be one of {sorted(_VSEG_DTYPES)}")


def write_vseg(v: CtVolume | LabelVolume, path: str | os.PathLike) -> None:
    vox = np.ascontiguousarray(v.voxels)
    if vox.dtype.name not in _VSEG_CODES:
        raise FormatError(f"cannot write dtype {vox.dtype} as VSEG (u8/i16/f32 only)")
    base = _vseg_base(path)
    meta = {
        "format": "vseg",
        "version": 1,
        "dims": list(v.dims),
        "spacing_mm": list(v.spacing),
        "dtype": _VSEG_CODES[vox.dtype.name],
    }
    _atomic_write(base + ".raw", vox.astype(vox.dtype.newbyteorder("<"), copy=False).tobytes())
    _atomic_write(base + ".json", json.dumps(meta, sort_keys=True, indent=2).encode() + b"\n")


# ---------------------------------------------------------------------------
# dispatch


def read_volume(path: str | os.PathLike) -> CtVolume | LabelVolume:
    """Read a volume by extension: .nii or .vseg[.json/.raw]."""
    p = os.fspath(path)
    if p.endswith(".nii"):
        return read_nifti(p)
    if p.endswith((".vseg", ".vseg.json", ".vseg.raw")):
        return read_vseg(p)
    raise FormatError(f"{path}: unknown volume format (expected .nii or .vseg)")


def write_volume(
    v: CtVolume | LabelVolume,
    path: str | os.PathLike,
    template_header: bytes | None = None,
) -> None:
    p = os.fspath(path)
    if p.endswith(".nii"):
        write_nifti(v, p, template_header)
    elif p.endswith((".vseg", ".vseg.json", ".vseg.raw")):
        write_vseg(v, p)
    else:
        raise FormatError(f"{path}: unknown volume format (expected .nii or .vseg)")


# ---------------------------------------------------------------------------
# slice archive


def write_slice_archive(pairs: list[SlicePair], out_dir: str | os.PathLike) -> list[Path]:
    """Write one directory per case: raw slice records plus a manifest."""
    out_dir = Path(out_dir)
    by_case: dict[str, list[SlicePair]] = {}
    for p in pairs:
        by_case.setdefault(p.case_id, []).append(p)
    written = []
    for case_id in sorted(by_case):
        case_dir = out_dir / case_id
        case_dir.mkdir(parents=True, exist_ok=True)
        records = []
        for i, pair in enumerate(by_case[case_id]):
            img_name = f"{i:04d}.img"
            msk_name = f"{i:04d}.msk"
            _atomic_write(case_dir / img_name, pair.image.astype("<f4").tobytes())
            _atomic_write(case_dir / msk_name, pair.mask.astype("<u1").tobytes())
            records.append(
                {
                    "index": i,
                    "image": img_name,
                    "mask": msk_name,
                    "case_id": pair.case_id,
                    "slice_index": pair.slice_index,
                    "augmentation": pair.augmentation,
                }
            )
        manifest = {
            "format": "slice-archive",
            "version": 1,
            "case_id": case_id,
            "size": int(by_case[case_id][0].image.shape[0]),
            "count": len(records),
            "slices": records,
        }
        _atomic_write(
            case_dir / "manifest.json",
            json.dumps(manifest, sort_keys=True, indent=2).encode() + b"\n",
        )
        written.append(case_dir)
    return written


def _read_case_dir(case_dir: Path) -> list[SlicePair]:
    with open(case_dir / "manifest.json") as f:
        manifest = json.load(f)
    if manifest.get("format") != "slice-archive" or manifest.get("version") != 1:
        raise FormatError(f"{case_dir}: not a version-1 slice archive manifest")
    size = manifest["size"]
    pairs = []
    for rec in manifest["slices"]:
        img = np.fromfile(case_dir / rec["image"], dtype="<f4")
        msk = np.fromfile(case_dir / rec["mask"], dtype="<u1")
        if img.size != size * size or msk.size != size * size:
            raise FormatError(
                f"{case_dir}/{rec['image']}: slice payload does not match size {size}"
            )
        pairs.append(
            SlicePair(
                image=img.reshape(size, size),
                mask=msk.reshape(size, size),
                case_id=rec["case_id"],
                slice_index=rec["slice_index"],
                augmentation=rec.get("augmentation", ""),
            )
        )
    return pairs


def read_slice_archive(path: str | os.PathLike) -> list[SlicePair]:
    """Read a case directory, or a directory of case directories."""
    root = Path(path)
    if (root / "manifest.json").exists():
        return _read_case_dir(root)
    case_dirs = sorted(d for d in root.iterdir() if (d / "manifest.json").exists())
    if not case_dirs:
        raise FormatError(f"{path}: no slice-archive manifests found")
    pairs = []
    for d in case_dirs:
        pairs.extend(_read_case_dir(d))
    return pairs
