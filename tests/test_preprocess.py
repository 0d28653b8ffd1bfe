"""Preprocessing chain tests."""

import numpy as np
import pytest

from earunet.errors import InputError
from earunet.preprocess import (
    preprocess_case,
    preprocess_volume,
    resample_z,
    resize_plane_bilinear,
)
from earunet.volumes import CtVolume, LabelVolume
from oracles import resample_z_naive, resize_bilinear_naive


def test_case_images_are_the_volume_chain_cropped():
    # the training chain crops to the organ range; its images must be the
    # inference chain's slices over that range, bit for bit
    rng = np.random.default_rng(0)
    spacing = (2.5, 0.9, 0.8)
    hu = rng.normal(40.0, 120.0, (14, 20, 24)).astype(np.float32)
    mask = np.zeros(hu.shape, dtype=np.uint8)
    mask[6:9, 5:15, 6:18] = 1
    image, labels = CtVolume(hu, spacing), LabelVolume(mask, spacing)

    volume = preprocess_volume(image, size=32).voxels
    pairs = preprocess_case(image, labels, margin=3, size=32)
    lo, hi = pairs[0].slice_index, pairs[-1].slice_index
    assert [p.slice_index for p in pairs] == list(range(lo, hi + 1))
    assert 0 < lo and hi < volume.shape[0] - 1  # the crop is strict
    assert np.array_equal(np.stack([p.image for p in pairs]), volume[lo : hi + 1])


@pytest.mark.parametrize("sz,target", [(2.5, 1.0), (3.0, 0.7), (1.0, 1.6)])
def test_resample_z_linear_matches_naive(sz, target):
    rng = np.random.default_rng(1)
    vox = rng.random((6, 5, 4), dtype=np.float32)
    got = resample_z(CtVolume(vox, (sz, 0.8, 0.9)), target, "linear")
    want = resample_z_naive(vox, sz, target, "linear")
    assert got.voxels.dtype == np.float32
    assert got.spacing == (target, 0.8, 0.9)
    assert np.array_equal(got.voxels, want.astype(np.float32))


@pytest.mark.parametrize("sz,target", [(2.5, 1.0), (1.0, 2.0), (1.0, 1.6)])
def test_resample_z_nearest_matches_naive(sz, target):
    rng = np.random.default_rng(2)
    mask = (rng.random((7, 4, 5)) < 0.5).astype(np.uint8)
    got = resample_z(LabelVolume(mask, (sz, 1.0, 1.0)), target, "nearest")
    assert isinstance(got, LabelVolume)
    assert np.array_equal(got.voxels, resample_z_naive(mask, sz, target, "nearest"))


@pytest.mark.parametrize("shape,out", [((5, 7), (12, 9)), ((9, 6), (4, 3)), ((2, 2), (2, 2))])
def test_resize_plane_bilinear_matches_naive(shape, out):
    img = np.random.default_rng(3).random(shape, dtype=np.float32)
    got = resize_plane_bilinear(img, *out)
    assert np.array_equal(got, resize_bilinear_naive(img, *out))


def test_nan_voxel_fails_in_named_stage():
    hu = np.zeros((4, 6, 6), dtype=np.float32)
    hu[2, 3, 1] = np.nan
    with pytest.raises(InputError, match=r"^hist_equalize: .*non-finite"):
        preprocess_volume(CtVolume(hu, (2.0, 1.0, 1.0)), size=8)
