"""Independent checks of the program's outputs.

Overlap scores are recomputed from plain numpy voxel counts; surface
distances from ``scipy.ndimage.distance_transform_edt`` with the voxel
spacing, evaluated on the other mask's surface.  Neither path shares code
with ``earunet.metrics``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

# Relative tolerance for values recomputed by another algorithm in float64.
METRIC_RTOL = 1e-6
# Relative tolerance for probability sums, losses and gradient norms
# against a reference, the share of predicted voxels whose 0.5-threshold
# may flip, and the relative tolerance for sums of the network's inputs,
# which no BLAS call touches.
REF_RTOL = 1e-4
REF_FG_FRAC = 1e-3
INPUT_RTOL = 1e-7
# Per-array squared gradient norms below this share of the largest are
# rounding noise (the BN betas that feed a residual add without a
# nonlinearity); they are compared only to that absolute level.
GRAD_FLOOR = 1e-9

_SIX = ndimage.generate_binary_structure(3, 1)


def surface(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a 6-connected background neighbour (the
    volume border counts as background)."""
    fg = mask != 0
    return fg & ~ndimage.binary_erosion(fg, structure=_SIX, border_value=0)


def overlap_scores(pred: np.ndarray, gt: np.ndarray) -> dict[str, float | None]:
    a = int(np.count_nonzero(pred))
    b = int(np.count_nonzero(gt))
    inter = int(np.count_nonzero((pred != 0) & (gt != 0)))
    union = a + b - inter
    return {
        "dice": 1.0 if a + b == 0 else 2.0 * inter / (a + b),
        "voe": 0.0 if union == 0 else 1.0 - inter / union,
        "rvd": None if a == 0 else (b - a) / a,
    }


def surface_distances(pred: np.ndarray, gt: np.ndarray, spacing) -> dict[str, float | None]:
    """ASSD and MSD in mm; None when either surface is empty."""
    union = (pred != 0) | (gt != 0)
    if not union.any():
        return {"assd_mm": None, "msd_mm": None}
    # Crop to the joint bounding box plus a zero border: the border stands in
    # for the volume edge (background), every surface voxel stays inside, so
    # surfaces and the EDT of the crop are exact and far cheaper.
    box = []
    for axis in range(3):
        idx = np.flatnonzero(union.any(axis=tuple(a for a in range(3) if a != axis)))
        box.append(slice(idx[0], idx[-1] + 1))
    box = tuple(box)
    sa = surface(np.pad(pred[box], 1))
    sb = surface(np.pad(gt[box], 1))
    if not sa.any() or not sb.any():
        return {"assd_mm": None, "msd_mm": None}
    d_ab = ndimage.distance_transform_edt(~sb, sampling=spacing)[sa]
    d_ba = ndimage.distance_transform_edt(~sa, sampling=spacing)[sb]
    return {
        "assd_mm": float((d_ab.sum() + d_ba.sum()) / (d_ab.size + d_ba.size)),
        "msd_mm": float(max(d_ab.max(), d_ba.max())),
    }


def expected_report(pred: np.ndarray, gt: np.ndarray, spacing) -> dict[str, float | None]:
    return {**overlap_scores(pred, gt), **surface_distances(pred, gt, spacing)}


def compare_report(report, expected: dict, rtol: float = METRIC_RTOL) -> list[str]:
    """Mismatches between a MetricReport and the oracle's values."""
    errors = []
    for name, want in expected.items():
        got = getattr(report, name)
        if want is None or got is None:
            if want is not got:
                errors.append(f"{name}: got {got!r}, oracle {want!r}")
        elif not math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12):
            errors.append(f"{name}: got {got!r}, oracle {want!r}")
    return errors


def check_probabilities(probs: np.ndarray) -> list[str]:
    if not np.all(np.isfinite(probs)):
        return ["probabilities are not all finite"]
    if not (probs.min() > 0.0 and probs.max() < 1.0):
        return [f"probabilities leave (0,1): [{probs.min()!r}, {probs.max()!r}]"]
    return []


def check_gradients(grads: dict, trainable_names) -> list[str]:
    errors = []
    if set(grads) != set(trainable_names):
        missing = sorted(set(trainable_names) - set(grads))[:3]
        extra = sorted(set(grads) - set(trainable_names))[:3]
        errors.append(f"gradient keys differ: missing {missing}, extra {extra}")
    bad = [k for k, g in grads.items() if not np.all(np.isfinite(g))]
    if bad:
        errors.append(f"non-finite gradients in {bad[:3]}")
    return errors


def check_loss(loss: float) -> list[str]:
    return [] if math.isfinite(loss) else [f"loss {loss!r} is not finite"]


def check_written_mask(back, mask) -> list[str]:
    """A mask file read back must hold exactly the mask that was written."""
    if back.dims != mask.dims or not np.array_equal(back.voxels, mask.voxels):
        return ["mask read back differs from the mask written"]
    if not np.allclose(back.spacing, mask.spacing, rtol=1e-6):
        return [f"mask spacing read back {back.spacing} != written {mask.spacing}"]
    return []


def check_written_arrays(back: dict, arrays: dict, config_equal: bool) -> list[str]:
    """A checkpoint read back must hold the config and arrays written."""
    errors = [] if config_equal else ["checkpoint config read back differs"]
    if set(back) != set(arrays):
        return errors + ["checkpoint array names read back differ"]
    bad = [k for k in arrays if not np.array_equal(back[k], arrays[k])]
    return errors + ([f"checkpoint arrays read back differ: {bad[:3]}"] if bad else [])


def input_summary(x: np.ndarray) -> dict[str, float]:
    """Sum of a network input, and its dot product with fixed random
    weights, which moves when voxels move (a flip, a shifted resize)."""
    x = x.astype(np.float64).ravel()
    weights = np.random.default_rng(x.size).random(x.size)
    return {"in_sum": float(x.sum()), "in_dot": float(x @ weights)}


def prediction_summary(probs: np.ndarray) -> dict[str, float]:
    """Probability sum and 0.5-threshold foreground count of one output."""
    return {
        "prob_sum": float(probs.sum(dtype=np.float64)),
        "fg": int(np.count_nonzero(probs > 0.5)),
        "voxels": int(probs.size),
    }


def gradient_summary(grads: dict) -> list[float]:
    """Squared norm of each gradient array, in name order."""
    return [float(np.sum(np.square(grads[k], dtype=np.float64))) for k in sorted(grads)]


def compare_summary(got: dict, want: dict, what: str) -> list[str]:
    """Mismatches between two output summaries: voxel counts exactly,
    foreground counts to REF_FG_FRAC of the voxels, input sums to
    INPUT_RTOL, per-array gradient norms to REF_RTOL above GRAD_FLOOR,
    and every other value to REF_RTOL."""
    errors = []
    if set(got) != set(want):
        return [f"{what}: summary keys {sorted(got)} != reference {sorted(want)}"]
    for key, w in want.items():
        g = got[key]
        if key == "voxels":
            ok = g == w
        elif key == "fg":
            ok = abs(g - w) <= REF_FG_FRAC * got["voxels"]
        elif isinstance(w, list):
            floor = GRAD_FLOOR * max(w)
            bad = [i for i, (a, b) in enumerate(zip(g, w)) if abs(a - b) > REF_RTOL * b + floor]
            ok = len(g) == len(w) and not bad
            if not ok:
                errors.append(f"{what}: {key} differs at indices {bad[:5]}")
            continue
        else:
            ok = math.isclose(g, w, rel_tol=INPUT_RTOL if key.startswith("in_") else REF_RTOL)
        if not ok:
            errors.append(f"{what}: {key} {g!r} != reference {w!r}")
    return errors
