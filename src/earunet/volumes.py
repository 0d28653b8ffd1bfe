"""3-D volume value types shared by preprocessing, inference, IO and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass(eq=False)
class _Volume:
    """Non-empty 3-D voxels (d, h, w) and three positive finite spacings (sz, sy, sx) in mm."""

    voxels: np.ndarray
    spacing: tuple[float, float, float]
    _what = "volume"  # the noun of the geometry errors

    def __post_init__(self) -> None:
        self.voxels = np.asarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ShapeError(f"{self._what} must be 3-D (d,h,w), got shape {self.voxels.shape}")
        if 0 in self.voxels.shape:
            raise ShapeError(f"{self._what} has an empty axis, got shape {self.voxels.shape}")
        self.spacing = spacing = tuple(float(s) for s in self.spacing)  # type: ignore[assignment]
        if len(spacing) != 3 or not all(0.0 < s < math.inf for s in spacing):
            raise ShapeError(f"spacing must be three positive finite values, got {spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape  # type: ignore[return-value]


class CtVolume(_Volume):
    """Scalar CT volume (d, h, w) with per-axis physical spacing in mm.

    Voxels are Hounsfield units before windowing and [0,1] reals after.
    Spacing order matches the axis order: (sz, sy, sx).
    """


class LabelVolume(_Volume):
    """Binary mask volume with the same geometry conventions as CtVolume."""

    _what = "mask"

    def __post_init__(self) -> None:
        super().__post_init__()
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
        self.voxels = vox.astype(np.uint8, copy=False)
