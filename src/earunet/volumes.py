"""3-D volume value types shared by preprocessing, inference, IO and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


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
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume must be 3-D (d,h,w), got shape {self.voxels.shape}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or not all(0.0 < s < math.inf for s in self.spacing):
            raise ShapeError(f"spacing must be three positive finite values, got {self.spacing}")

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
        if self.voxels.ndim != 3:
            raise ShapeError(f"mask must be 3-D (d,h,w), got shape {self.voxels.shape}")
        bad = (self.voxels != 0) & (self.voxels != 1)
        if bad.any():
            raise ShapeError(
                f"mask voxels must be 0/1, found {self.voxels[bad].ravel()[0]!r}"
            )
        if self.voxels.dtype != np.uint8:
            self.voxels = self.voxels.astype(np.uint8)
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or not all(0.0 < s < math.inf for s in self.spacing):
            raise ShapeError(f"spacing must be three positive finite values, got {self.spacing}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.voxels.shape  # type: ignore[return-value]
