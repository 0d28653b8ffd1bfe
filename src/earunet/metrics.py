"""Volumetric evaluation metrics on binary masks with physical spacing.

``evaluate_case(pred, gt)`` is the one entry point.  It returns the five
per-case scores of the LiTS benchmark (Bilic et al., arXiv:1901.04056) as
a ``MetricReport``, with A the prediction and B the ground truth:

- Dice, 2|A∩B| / (|A|+|B|), is 1.0 when both masks are empty;
- VOE, 1 - |A∩B| / |A∪B|, is 0.0 when both masks are empty;
- RVD, (|B| - |A|) / |A|, is signed and is None when A is empty;
- ASSD (mm) is the mean of the nearest-surface distances from every
  surface voxel of A to B and of B to A;
- MSD (mm) is the largest of those distances (surface Hausdorff).
  ASSD and MSD are both None when either surface is empty.

A surface is the set of foreground voxels with at least one 6-connected
background neighbor, the volume border counting as background.  Distances
are Euclidean in mm at the volumes' shared anisotropic spacing; nearest
neighbors come from a KD-tree, which computes the same arithmetic as the
brute-force pairwise definition.  Dims or spacings that differ raise
ShapeError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ShapeError
from .volumes import LabelVolume


@dataclass(frozen=True)
class MetricReport:
    """Per-case scores; None marks a metric whose precondition failed."""

    dice: float | None
    voe: float | None
    rvd: float | None
    assd_mm: float | None
    msd_mm: float | None


def extract_surface(v: LabelVolume) -> np.ndarray:
    """(k, 3) voxel indices of the foreground voxels with a 6-connected
    background neighbor."""
    fg = v.voxels != 0
    p = np.pad(fg, 1, constant_values=False)
    interior = (p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1] & p[1:-1, :-2, 1:-1]
                & p[1:-1, 2:, 1:-1] & p[1:-1, 1:-1, :-2] & p[1:-1, 1:-1, 2:])
    return np.argwhere(fg & ~interior)


def evaluate_case(pred: LabelVolume, gt: LabelVolume) -> MetricReport:
    """All five metrics for one case; undefined metrics become None
    instead of failing the whole report."""
    if pred.dims != gt.dims:
        raise ShapeError(f"volume dims differ: {pred.dims} vs {gt.dims}")
    if pred.spacing != gt.spacing:
        raise ShapeError(f"volume spacings differ: {pred.spacing} vs {gt.spacing}")
    fa = pred.voxels != 0
    fb = gt.voxels != 0
    na, nb = int(np.count_nonzero(fa)), int(np.count_nonzero(fb))
    inter = int(np.count_nonzero(fa & fb))
    union = na + nb - inter
    dice = 1.0 if na + nb == 0 else 2.0 * inter / (na + nb)
    voe = 0.0 if union == 0 else 1.0 - inter / union
    rvd = None if na == 0 else (nb - na) / na

    assd = msd = None
    spacing = np.asarray(pred.spacing, dtype=np.float64)
    sa = extract_surface(pred) * spacing
    sb = extract_surface(gt) * spacing
    if len(sa) and len(sb):
        # workers=-1 queries on every core; the distances do not depend on it
        dab, _ = cKDTree(sb).query(sa, k=1, workers=-1)
        dba, _ = cKDTree(sa).query(sb, k=1, workers=-1)
        assd = float((dab.sum() + dba.sum()) / (len(sa) + len(sb)))
        msd = float(max(dab.max(), dba.max()))
    return MetricReport(dice, voe, rvd, assd, msd)
