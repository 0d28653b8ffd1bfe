"""Slice-pair augmentation: zoom, mirror flip and elastic deformation.

Transforms apply in the fixed order zoom -> flip -> elastic.  Image and
mask always receive the same geometric map (bilinear vs nearest sampling),
so structures stay aligned and masks stay binary.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from scipy.ndimage import gaussian_filter, map_coordinates

from .errors import ParameterError
from .preprocess import SlicePair

ZOOM_RANGE = (0.9, 1.1)
ELASTIC_SIGMA_PX = 8.0
ELASTIC_ALPHA_PX = 20.0

KINDS = ("zoom", "flip", "elastic")


def all_augmentations() -> list[tuple[str, ...]]:
    """The seven non-empty subsets of {zoom, flip, elastic}, fixed order."""
    subsets = []
    for r in (1, 2, 3):
        subsets.extend(combinations(KINDS, r))
    return subsets


def _warp(image: np.ndarray, mask: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    coords = np.stack([rows, cols])
    img = map_coordinates(image.astype(np.float64), coords, order=1, mode="nearest")
    msk = map_coordinates(mask, coords, order=0, mode="nearest")
    return img.astype(np.float32), msk.astype(np.uint8)


def zoom_pair(image, mask, factor: float):
    """Scale about the slice center; edge padding outside the source."""
    h, w = image.shape
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ys = cy + (np.arange(h, dtype=np.float64) - cy) / factor
    xs = cx + (np.arange(w, dtype=np.float64) - cx) / factor
    rows = np.broadcast_to(ys[:, None], (h, w))
    cols = np.broadcast_to(xs[None, :], (h, w))
    return _warp(image, mask, rows, cols)


def flip_pair(image, mask):
    return image[:, ::-1].copy(), mask[:, ::-1].copy()


def elastic_pair(image, mask, rng: np.random.Generator):
    """Gaussian-smoothed random displacement field, identical for both."""
    h, w = image.shape
    d_rows = gaussian_filter(rng.uniform(-1.0, 1.0, (h, w)), ELASTIC_SIGMA_PX) * ELASTIC_ALPHA_PX
    d_cols = gaussian_filter(rng.uniform(-1.0, 1.0, (h, w)), ELASTIC_SIGMA_PX) * ELASTIC_ALPHA_PX
    grid_r, grid_c = np.meshgrid(np.arange(h, dtype=np.float64),
                                 np.arange(w, dtype=np.float64), indexing="ij")
    return _warp(image, mask, grid_r + d_rows, grid_c + d_cols)


def augment(p: SlicePair, spec: tuple[str, ...], rng: np.random.Generator) -> SlicePair:
    """Apply a non-empty subset of {zoom, flip, elastic} to one pair."""
    if not spec:
        raise ParameterError("augmentation spec must name at least one transform")
    bad = set(spec) - set(KINDS)
    if bad:
        raise ParameterError(f"unknown augmentations {sorted(bad)}; valid: {KINDS}")
    image, mask = p.image, p.mask
    if "zoom" in spec:
        factor = float(rng.uniform(*ZOOM_RANGE))
        image, mask = zoom_pair(image, mask, factor)
    if "flip" in spec:
        image, mask = flip_pair(image, mask)
    if "elastic" in spec:
        image, mask = elastic_pair(image, mask, rng)
    return SlicePair(image=image, mask=mask, case_id=p.case_id, slice_index=p.slice_index)

