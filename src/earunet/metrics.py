"""Volumetric evaluation metrics on binary masks with physical spacing.

Five per-case scores: Dice overlap, volumetric overlap error (VOE),
relative volume difference (RVD, signed, with A the prediction and B the
ground truth), average symmetric surface distance (ASSD, mm) and maximum
surface distance (MSD, mm).

Surfaces are the foreground voxels with at least one 6-connected
background neighbor, the volume border counting as background.  Surface
distances are Euclidean in mm with anisotropic per-axis spacing; nearest
neighbors come from a KD-tree, which computes the same arithmetic as the
brute-force pairwise definition.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .errors import ShapeError, UndefinedMetricError
from .volumes import LabelVolume


@dataclass(frozen=True)
class MetricReport:
    """Per-case scores; None marks a metric whose precondition failed."""

    dice: float | None
    voe: float | None
    rvd: float | None
    assd_mm: float | None
    msd_mm: float | None

    def as_row(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]


@dataclass
class SurfaceSet:
    """Boundary voxel coordinates (k, 3) of a mask plus its spacing."""

    coords: np.ndarray
    spacing: tuple[float, float, float]

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def points_mm(self) -> np.ndarray:
        return self.coords.astype(np.float64) * np.asarray(self.spacing, dtype=np.float64)


def _check_dims(a: LabelVolume, b: LabelVolume) -> None:
    if a.dims != b.dims:
        raise ShapeError(f"volume dims differ: {a.dims} vs {b.dims}")


def _counts(a: LabelVolume, b: LabelVolume) -> tuple[int, int, int, int]:
    fa = a.voxels != 0
    fb = b.voxels != 0
    return int(fa.sum()), int(fb.sum()), int((fa & fb).sum()), int((fa | fb).sum())


def dice(a: LabelVolume, b: LabelVolume) -> float:
    """2|A∩B| / (|A|+|B|); 1.0 when both volumes are empty."""
    _check_dims(a, b)
    na, nb, inter, _ = _counts(a, b)
    if na + nb == 0:
        return 1.0
    return 2.0 * inter / (na + nb)


def voe(a: LabelVolume, b: LabelVolume) -> float:
    """1 - |A∩B| / |A∪B|; 0.0 when both volumes are empty."""
    _check_dims(a, b)
    _, _, inter, union = _counts(a, b)
    if union == 0:
        return 0.0
    return 1.0 - inter / union


def rvd(a: LabelVolume, b: LabelVolume) -> float:
    """(|B| - |A|) / |A| with A the segmentation result, B the reference."""
    _check_dims(a, b)
    na, nb, _, _ = _counts(a, b)
    if na == 0:
        raise UndefinedMetricError("relative volume difference undefined for empty segmentation")
    return (nb - na) / na


def extract_surface(v: LabelVolume) -> SurfaceSet:
    """Foreground voxels with a 6-connected background neighbor."""
    fg = v.voxels != 0
    padded = np.pad(fg, 1, constant_values=False)
    interior = np.ones_like(fg)
    for axis in range(3):
        for shift in (1, -1):
            interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    surface = fg & ~interior
    return SurfaceSet(coords=np.argwhere(surface), spacing=v.spacing)


def _check_geometry(a: LabelVolume, b: LabelVolume) -> None:
    _check_dims(a, b)
    if a.spacing != b.spacing:
        raise ShapeError(f"volume spacings differ: {a.spacing} vs {b.spacing}")


def _surface_pair(a: LabelVolume, b: LabelVolume) -> tuple[SurfaceSet, SurfaceSet]:
    _check_geometry(a, b)
    sa = extract_surface(a)
    sb = extract_surface(b)
    if len(sa) == 0 or len(sb) == 0:
        raise UndefinedMetricError("surface distance undefined for an empty surface")
    return sa, sb


def _directed(src: SurfaceSet, dst: SurfaceSet) -> np.ndarray:
    tree = cKDTree(dst.points_mm)
    dists, _ = tree.query(src.points_mm, k=1)
    return dists


def _distance_pair(sa: SurfaceSet, sb: SurfaceSet) -> tuple[float, float]:
    dab = _directed(sa, sb)
    dba = _directed(sb, sa)
    mean = float((dab.sum() + dba.sum()) / (len(sa) + len(sb)))
    peak = float(max(dab.max(), dba.max()))
    return mean, peak


def assd(a: LabelVolume, b: LabelVolume) -> float:
    """Average symmetric surface distance in mm, at the volumes' shared spacing."""
    sa, sb = _surface_pair(a, b)
    return _distance_pair(sa, sb)[0]


def msd(a: LabelVolume, b: LabelVolume) -> float:
    """Maximum symmetric surface distance (surface Hausdorff) in mm, at the
    volumes' shared spacing."""
    sa, sb = _surface_pair(a, b)
    return _distance_pair(sa, sb)[1]


def evaluate_case(pred: LabelVolume, gt: LabelVolume) -> MetricReport:
    """All five metrics for one case; undefined metrics become None
    instead of failing the whole report."""
    _check_geometry(pred, gt)
    d = dice(pred, gt)
    v = voe(pred, gt)
    try:
        r = rvd(pred, gt)
    except UndefinedMetricError:
        r = None
    try:
        sa, sb = _surface_pair(pred, gt)
        a, m = _distance_pair(sa, sb)
    except UndefinedMetricError:
        a = m = None
    return MetricReport(dice=d, voe=v, rvd=r, assd_mm=a, msd_mm=m)


CSV_HEADER = ["case_id", "dice", "voe", "rvd", "assd_mm", "msd_mm"]


def _cell(value) -> str:
    return "nan" if value is None else repr(float(value))


def write_report_csv(rows: list[tuple[str, MetricReport]], path, mean_row: bool = True) -> None:
    """One CSV row per case plus an optional mean row ('.' decimals, LF)."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for case_id, report in rows:
            writer.writerow([case_id] + [_cell(v) for v in report.as_row()])
        if mean_row and rows:
            means = []
            for i in range(5):
                vals = [r.as_row()[i] for _, r in rows if r.as_row()[i] is not None]
                means.append(_cell(float(np.mean(vals)) if vals else None))
            writer.writerow(["mean"] + means)
