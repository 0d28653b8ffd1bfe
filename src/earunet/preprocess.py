"""CT preprocessing chain: windowing, equalization, z-resampling,
liver-range cropping and in-plane resizing down to training slice pairs.

The chain is deterministic; running it twice on the same volumes yields
byte-identical slices.  Images are resampled bilinearly (half-pixel
centers, edge clamp), masks with nearest neighbor so they stay binary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EarUnetError, InputError, ParameterError, ShapeError
from .volumes import CtVolume, LabelVolume

HU_WINDOW = (-200.0, 200.0)
EQUALIZE_BINS = 256
TARGET_SLICE_SPACING_MM = 1.0
CROP_MARGIN_SLICES = 20
SLICE_SIZE = 256


@dataclass
class SlicePair:
    """One training example: a slice image in [0,1] and its binary mask."""

    image: np.ndarray  # (s, s) float32
    mask: np.ndarray  # (s, s) uint8
    case_id: str
    slice_index: int
    augmentation: str = ""  # empty for unaugmented slices

    def __post_init__(self) -> None:
        if self.image.shape != self.mask.shape or self.image.ndim != 2:
            raise ShapeError(
                f"slice image {self.image.shape} and mask {self.mask.shape} must be equal 2-D"
            )
        self.image = self.image.astype(np.float32, copy=False)
        self.mask = self.mask.astype(np.uint8, copy=False)


def hu_window(v: CtVolume, lo: float = HU_WINDOW[0], hi: float = HU_WINDOW[1]) -> CtVolume:
    """Clamp Hounsfield values to [lo, hi] and map affinely onto [0,1]."""
    if lo >= hi:
        raise ParameterError(f"window requires lo < hi, got [{lo}, {hi}]")
    out = (np.clip(v.voxels, lo, hi).astype(np.float64) - lo) / (hi - lo)
    return CtVolume(out.astype(np.float32), v.spacing)


def hist_equalize(v: CtVolume, bins: int = EQUALIZE_BINS) -> CtVolume:
    """Global histogram equalization over the whole volume.

    Values map to the cumulative distribution of their bin, so the output
    is monotone nondecreasing in the input and spans (0, 1].
    """
    vox = v.voxels
    # written so that NaN fails the test too
    if not (vox.min() >= 0.0 and vox.max() <= 1.0):
        raise InputError(
            "histogram equalization expects finite voxels in [0,1] (window first); "
            "got non-finite or out-of-range values"
        )
    idx = np.minimum((vox * bins).astype(np.int64), bins - 1)
    hist = np.bincount(idx.ravel(), minlength=bins)
    cdf = np.cumsum(hist, dtype=np.float64) / vox.size
    out = cdf[idx].astype(np.float32)
    return CtVolume(out, v.spacing)


def _z_positions(d: int, sz: float, target: float) -> np.ndarray:
    new_d = int(np.floor((d - 1) * sz / target)) + 1
    return np.arange(new_d, dtype=np.float64) * target / sz


def resample_z(
    v: CtVolume | LabelVolume, target_sz: float = TARGET_SLICE_SPACING_MM, kind: str = "linear"
):
    """Resample the slice axis to a fixed physical spacing.

    New depth is floor((d-1)*sz/target)+1; output slice i sits at physical
    depth i*target.  Images interpolate linearly between neighbor slices,
    masks take the nearest slice (ties round up).
    """
    d = v.dims[0]
    if d < 2:
        raise InputError(f"z-resampling needs at least 2 slices, got {d}")
    if kind not in ("linear", "nearest"):
        raise ParameterError(f"kind must be linear or nearest, got {kind!r}")
    sz, sy, sx = v.spacing
    pos = _z_positions(d, sz, target_sz)
    spacing = (float(target_sz), sy, sx)
    if kind == "nearest":
        idx = np.minimum(np.floor(pos + 0.5).astype(np.intp), d - 1)
        out = v.voxels[idx]
        return type(v)(out.copy(), spacing)
    i0 = np.floor(pos).astype(np.intp)
    i1 = np.minimum(i0 + 1, d - 1)
    w = pos - i0
    vox = v.voxels
    # one output slice at a time: float64 temporaries stay slice-sized
    out = np.empty((pos.size,) + vox.shape[1:], dtype=np.float32)
    for k in range(pos.size):
        out[k] = vox[i0[k]].astype(np.float64) * (1.0 - w[k]) + vox[i1[k]].astype(np.float64) * w[k]
    return CtVolume(out, spacing)


def crop_liver_range(
    v: CtVolume, m: LabelVolume, margin: int = CROP_MARGIN_SLICES
) -> tuple[CtVolume, LabelVolume, tuple[int, int]]:
    """Keep slices [first_nonzero - margin, last_nonzero + margin], clamped."""
    if v.dims != m.dims:
        raise ShapeError(f"image dims {v.dims} do not match mask dims {m.dims}")
    nonzero = np.flatnonzero(m.voxels.any(axis=(1, 2)))
    if nonzero.size == 0:
        raise InputError("mask has no foreground slices; cannot locate the organ range")
    lo = max(0, int(nonzero[0]) - margin)
    hi = min(v.dims[0] - 1, int(nonzero[-1]) + margin)
    return (
        CtVolume(v.voxels[lo : hi + 1].copy(), v.spacing),
        LabelVolume(m.voxels[lo : hi + 1].copy(), m.spacing),
        (lo, hi),
    )


def _resize_coords(src: int, dst: int) -> np.ndarray:
    """Half-pixel-center source coordinates, clamped to the valid range."""
    return np.clip((np.arange(dst, dtype=np.float64) + 0.5) * src / dst - 0.5, 0.0, src - 1)


def resize_plane_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of one or a stack of 2-D planes (leading axes kept)."""
    h, w = img.shape[-2], img.shape[-1]
    ys = _resize_coords(h, out_h)
    xs = _resize_coords(w, out_w)
    y0 = np.floor(ys).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x0 = np.floor(xs).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = img[..., y0[:, None], x0[None, :]]
    b = img[..., y0[:, None], x1[None, :]]
    c = img[..., y1[:, None], x0[None, :]]
    d = img[..., y1[:, None], x1[None, :]]
    return (
        a * (1 - fy) * (1 - fx) + b * (1 - fy) * fx + c * fy * (1 - fx) + d * fy * fx
    )


def resize_plane_nearest(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = img.shape[-2], img.shape[-1]
    ys = np.minimum(np.floor(_resize_coords(h, out_h) + 0.5).astype(np.intp), h - 1)
    xs = np.minimum(np.floor(_resize_coords(w, out_w) + 0.5).astype(np.intp), w - 1)
    return img[..., ys[:, None], xs[None, :]]


def resize_slices(v: CtVolume | LabelVolume, size: int = SLICE_SIZE):
    """Resample every slice to size x size (bilinear images, nearest masks)."""
    h, w = v.dims[1], v.dims[2]
    if h < 2 or w < 2:
        raise InputError(f"in-plane resize needs at least 2x2 slices, got {h}x{w}")
    sz, sy, sx = v.spacing
    spacing = (sz, sy * h / size, sx * w / size)
    if isinstance(v, LabelVolume):
        return LabelVolume(resize_plane_nearest(v.voxels, size, size).copy(), spacing)
    # the gathered corners promote to float64 against the float64 weights
    out = resize_plane_bilinear(v.voxels, size, size)
    return CtVolume(out.astype(np.float32), spacing)


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except EarUnetError as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def _image_chain(image: CtVolume, hu_lo: float, hu_hi: float, target_sz: float) -> CtVolume:
    """Window, equalize and z-resample an image: the stages that run before
    the training chain crops to the organ range."""
    v = _stage("hu_window", hu_window, image, hu_lo, hu_hi)
    v = _stage("hist_equalize", hist_equalize, v)
    return _stage("resample_z", resample_z, v, target_sz, "linear")


def preprocess_volume(
    image: CtVolume,
    hu_lo: float = HU_WINDOW[0],
    hu_hi: float = HU_WINDOW[1],
    target_sz: float = TARGET_SLICE_SPACING_MM,
    size: int = SLICE_SIZE,
) -> CtVolume:
    """The mask-free part of the chain, as used for inference inputs."""
    v = _image_chain(image, hu_lo, hu_hi, target_sz)
    return _stage("resize_slices", resize_slices, v, size)


def preprocess_case(
    image: CtVolume,
    mask: LabelVolume,
    case_id: str = "case",
    hu_lo: float = HU_WINDOW[0],
    hu_hi: float = HU_WINDOW[1],
    target_sz: float = TARGET_SLICE_SPACING_MM,
    margin: int = CROP_MARGIN_SLICES,
    size: int = SLICE_SIZE,
) -> list[SlicePair]:
    """Full training chain: window, equalize, resample z, crop to the
    labeled organ range (plus margin), resize, emit one pair per slice."""
    if image.dims != mask.dims:
        raise ShapeError(f"image dims {image.dims} do not match mask dims {mask.dims}")
    if image.spacing != mask.spacing:
        raise ShapeError(f"image spacing {image.spacing} != mask spacing {mask.spacing}")
    v = _image_chain(image, hu_lo, hu_hi, target_sz)
    m = _stage("resample_z", resample_z, mask, target_sz, "nearest")
    v, m, (lo, _) = _stage("crop_liver_range", crop_liver_range, v, m, margin)
    v = _stage("resize_slices", resize_slices, v, size)
    m = _stage("resize_slices", resize_slices, m, size)
    return [
        SlicePair(
            image=v.voxels[i],
            mask=m.voxels[i],
            case_id=case_id,
            slice_index=lo + i,
        )
        for i in range(v.dims[0])
    ]
