"""Preprocessing chain tests."""

import numpy as np

from earunet.preprocess import preprocess_case, preprocess_volume
from earunet.volumes import CtVolume, LabelVolume


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
