"""Seeded synthetic inputs: phantom CT volumes with masks, and checkpoints.

Everything here is numpy arithmetic on a ``np.random.Generator``, so one
seed always gives bit-identical arrays and files.  Volumes are built one
slice at a time to keep the generator's memory well below the workloads'.
"""

from __future__ import annotations

import numpy as np

from earunet import checkpoint, model

AIR_HU = -1000.0
FAT_HU = -100.0
TISSUE_HU = 40.0
LIVER_HU = 60.0
NOISE_HU = 15.0

# Random-init weights are seed-independent, so every benchmark seed runs
# the same network and the canary values in reference.json hold for it.
WEIGHT_SEED = 0


def _plane_mm(h: int, w: int, sy: float, sx: float) -> tuple[np.ndarray, np.ndarray]:
    """In-plane voxel-center coordinates in mm, origin at the slice center."""
    y = (np.arange(h, dtype=np.float64) - (h - 1) / 2.0) * sy
    x = (np.arange(w, dtype=np.float64) - (w - 1) / 2.0) * sx
    return y[:, None], x[None, :]


def _ellipsoid_slices(shape, spacing, center_mm, radii_mm):
    """Yield (z, 2-D bool cross-section) of an axis-aligned ellipsoid."""
    d, h, w = shape
    sz, sy, sx = spacing
    y, x = _plane_mm(h, w, sy, sx)
    cz, cy, cx = center_mm
    rz, ry, rx = radii_mm
    inplane = ((y - cy) / ry) ** 2 + ((x - cx) / rx) ** 2
    for z in range(d):
        zmm = (z - (d - 1) / 2.0) * sz
        yield z, inplane <= 1.0 - ((zmm - cz) / rz) ** 2


def liver_geometry(rng: np.random.Generator, depth_mm: float) -> tuple[tuple, tuple]:
    """Center and radii (mm) of a liver-sized ellipsoid right of the midline."""
    radii = (
        min(rng.uniform(55.0, 65.0), 0.4 * depth_mm),
        rng.uniform(70.0, 80.0),
        rng.uniform(85.0, 95.0),
    )
    center = (rng.uniform(-5.0, 5.0), rng.uniform(-20.0, -10.0), rng.uniform(-45.0, -35.0))
    return center, radii


def ct_phantom(
    rng: np.random.Generator, shape: tuple[int, int, int], spacing: tuple[float, float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """int16 HU volume (air, fat ring, soft-tissue body, liver, noise) and
    its uint8 liver mask."""
    d, h, w = shape
    sz, sy, sx = spacing
    y, x = _plane_mm(h, w, sy, sx)
    fov_y, fov_x = h * sy, w * sx
    body = (y / (0.40 * fov_y)) ** 2 + (x / (0.46 * fov_x)) ** 2
    base = np.where(body <= 0.85, TISSUE_HU, np.where(body <= 1.0, FAT_HU, AIR_HU))
    center, radii = liver_geometry(rng, d * sz)
    vox = np.empty(shape, dtype=np.int16)
    mask = np.zeros(shape, dtype=np.uint8)
    for z, cut in _ellipsoid_slices(shape, spacing, center, radii):
        plane = np.where(cut, LIVER_HU, base) + rng.normal(0.0, NOISE_HU, (h, w))
        vox[z] = np.clip(np.rint(plane), -1024, 3071).astype(np.int16)
        mask[z] = cut
    return vox, mask


def random_init_checkpoint(preset: str) -> checkpoint.Checkpoint:
    """A Checkpoint holding freshly initialized weights for `preset`."""
    cfg = model.preset_config(preset)
    params = model.build_model(cfg, np.random.default_rng(WEIGHT_SEED))
    return checkpoint.Checkpoint(config=cfg, arrays=model.named_state(params))
