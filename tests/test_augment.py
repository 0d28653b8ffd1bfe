"""Augmentation invariants over every transform subset and several seeds."""

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from earunet.augment import (
    ELASTIC_ALPHA_PX,
    ELASTIC_SIGMA_PX,
    ZOOM_RANGE,
    all_augmentations,
    augment,
    elastic_pair,
    flip_pair,
    zoom_pair,
)
from earunet.preprocess import SlicePair
from oracles import warp_naive, zoom_naive

SEEDS = range(5)
SUBSETS = all_augmentations()


def _pair(seed: int, size: int = 64) -> SlicePair:
    """A random image in [0, 1] and an off-centre elliptical mask."""
    rng = np.random.default_rng(seed)
    rows, cols = np.mgrid[:size, :size]
    mask = ((rows - 0.4 * size) / (0.3 * size)) ** 2 + ((cols - 0.55 * size) / (0.2 * size)) ** 2 <= 1
    return SlicePair(rng.random((size, size), dtype=np.float32), mask, "case", 0)


def _run(p: SlicePair, spec, seed: int) -> SlicePair:
    return augment(p, spec, np.random.default_rng(seed + 100))


def test_seven_subsets():
    assert len(SUBSETS) == 7 and len(set(SUBSETS)) == 7


@pytest.mark.parametrize("spec", SUBSETS, ids="+".join)
def test_mask_stays_binary_and_image_in_unit_range(spec):
    for seed in SEEDS:
        out = _run(_pair(seed), spec, seed)
        assert out.mask.dtype == np.uint8 and set(np.unique(out.mask)) <= {0, 1}
        assert out.image.dtype == np.float32
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0


@pytest.mark.parametrize("spec", SUBSETS, ids="+".join)
def test_same_seed_gives_identical_output(spec):
    for seed in SEEDS:
        a, b = _run(_pair(seed), spec, seed), _run(_pair(seed), spec, seed)
        assert a.image.tobytes() == b.image.tobytes()
        assert a.mask.tobytes() == b.mask.tobytes()


def test_flip_twice_is_identity():
    for seed in SEEDS:
        p = _pair(seed)
        image, mask = flip_pair(*flip_pair(p.image, p.mask))
        assert np.array_equal(image, p.image) and np.array_equal(mask, p.mask)


@pytest.mark.parametrize("spec", SUBSETS, ids="+".join)
def test_image_and_mask_get_the_same_map(spec):
    # with the mask as the image, bilinear and nearest sampling of the same
    # map agree wherever the bilinear value is exactly 0 or 1
    for seed in SEEDS:
        p = _pair(seed)
        out = _run(SlicePair(p.mask.astype(np.float32), p.mask, "case", 0), spec, seed)
        exact = (out.image == 0.0) | (out.image == 1.0)
        assert exact.mean() >= 0.9
        assert np.array_equal(out.mask[exact], out.image[exact].astype(np.uint8))


@pytest.mark.parametrize("seed", range(10))
def test_zoom_matches_naive(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(5, 40, 2)
    # the ends of the range, then random factors inside it
    factor = ZOOM_RANGE[seed] if seed < 2 else rng.uniform(*ZOOM_RANGE)
    image = rng.random((h, w), dtype=np.float32)
    mask = (rng.random((h, w)) < 0.4).astype(np.uint8)
    got, want = zoom_pair(image, mask, factor), zoom_naive(image, mask, factor)
    assert got[0].dtype == np.float32 and got[1].dtype == np.uint8
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("seed", range(6))
def test_elastic_matches_naive(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(5, 40, 2)
    image = rng.random((h, w), dtype=np.float32)
    mask = (rng.random((h, w)) < 0.4).astype(np.uint8)
    got = elastic_pair(image, mask, np.random.default_rng(seed + 100))
    # the two displacement fields again, rows then columns, from the same seed
    fields = np.random.default_rng(seed + 100)
    d_rows, d_cols = (gaussian_filter(fields.uniform(-1.0, 1.0, (h, w)), ELASTIC_SIGMA_PX)
                      * ELASTIC_ALPHA_PX for _ in range(2))
    rows, cols = np.mgrid[:h, :w]
    want = warp_naive(image, mask, rows + d_rows, cols + d_cols)
    assert got[0].dtype == np.float32 and got[1].dtype == np.uint8
    assert not np.array_equal(got[0], image)  # the fields move the plane
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
