"""3-D volume value types shared by preprocessing, inference, IO and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


def _check_geometry(what: str, voxels: np.ndarray, spacing) -> tuple[float, float, float]:
    """Reject anything but a non-empty 3-D array with three positive finite
    spacings; returns the spacing as floats."""
    if voxels.ndim != 3:
        raise ShapeError(f"{what} must be 3-D (d,h,w), got shape {voxels.shape}")
    if 0 in voxels.shape:
        raise ShapeError(f"{what} has an empty axis, got shape {voxels.shape}")
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3 or not all(0.0 < s < math.inf for s in spacing):
        raise ShapeError(f"spacing must be three positive finite values, got {spacing}")
    return spacing  # type: ignore[return-value]


@dataclass
class CtVolume:
    """Scalar CT volume (d, h, w) with per-axis physical spacing in mm.

    Voxels are Hounsfield units before windowing and [0,1] reals after.
    Spacing order matches the axis order: (sz, sy, sx).
    """

    voxels: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self) -> None:
        self.voxels = np.asarray(self.voxels)
        self.spacing = _check_geometry("volume", self.voxels, self.spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape  # type: ignore[return-value]


@dataclass
class LabelVolume:
    """Binary mask volume with the same geometry conventions as CtVolume."""

    voxels: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self) -> None:
        self.voxels = np.asarray(self.voxels)
        self.spacing = _check_geometry("mask", self.voxels, self.spacing)
        vox = self.voxels
        # bool and integer masks need one min/max reduction; other dtypes,
        # and the search for the first bad value, go slice by slice, so no
        # temporary is volume-sized
        kind = vox.dtype.kind
        if not (kind == "b" or (kind in "iu" and vox.min() >= 0 and vox.max() <= 1)):
            for plane in vox:
                bad = (plane != 0) & (plane != 1)
                if bad.any():
                    raise ShapeError(f"mask voxels must be 0/1, found {plane[bad][0]!r}")
        if vox.dtype != np.uint8:
            self.voxels = vox.astype(np.uint8)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape  # type: ignore[return-value]
