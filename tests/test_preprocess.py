"""Preprocessing chain tests."""

import tracemalloc

import numpy as np
import pytest

from earunet import preprocess
from earunet.errors import InputError, ParameterError, ShapeError
from earunet.preprocess import (
    CROP_MARGIN_SLICES,
    EQUALIZE_BINS,
    TARGET_SLICE_SPACING_MM,
    SlicePair,
    crop_liver_range,
    hist_equalize,
    hu_window,
    preprocess_case,
    preprocess_volume,
    resample_z,
    resize_plane_bilinear,
    resize_plane_nearest,
    resize_slices,
)
from earunet.volumes import CtVolume, LabelVolume
from oracles import (
    hist_equalize_naive,
    resample_z_naive,
    resize_bilinear_naive,
    resize_nearest_naive,
)


def test_case_images_are_the_volume_chain_cropped():
    # the training chain crops to the organ range; its images must be the
    # inference chain's slices over that range, bit for bit
    rng = np.random.default_rng(0)
    spacing = (2.5, 0.9, 0.8)
    # 30 slices resample to 73; the organ's 32..38 plus the margin is a strict crop
    hu = rng.normal(40.0, 120.0, (30, 20, 24)).astype(np.float32)
    mask = np.zeros(hu.shape, dtype=np.uint8)
    mask[13:16, 5:15, 6:18] = 1
    image, labels = CtVolume(hu, spacing), LabelVolume(mask, spacing)

    volume = preprocess_volume(image, size=32).voxels
    pairs = preprocess_case(image, labels, size=32)
    lo, hi = pairs[0].slice_index, pairs[-1].slice_index
    assert [p.slice_index for p in pairs] == list(range(lo, hi + 1))
    assert 0 < lo and hi < volume.shape[0] - 1  # the crop is strict
    assert np.array_equal(np.stack([p.image for p in pairs]), volume[lo : hi + 1])


# input slice spacing num/den mm: z ratios 2.5, 30/7 and 0.625 against the 1 mm target
@pytest.mark.parametrize("num,den", [(2.5, 1.0), (3.0, 0.7), (1.0, 1.6)])
def test_resample_z_linear_matches_naive(num, den):
    sz, target = num / den, TARGET_SLICE_SPACING_MM
    rng = np.random.default_rng(1)
    vox = rng.random((6, 5, 4), dtype=np.float32)
    got = resample_z(CtVolume(vox, (sz, 0.8, 0.9)), "linear")
    want = resample_z_naive(vox, sz, target, "linear")
    assert got.voxels.dtype == np.float32
    assert got.spacing == (target, 0.8, 0.9)
    assert np.array_equal(got.voxels, want.astype(np.float32))


def test_resample_z_rejects_an_unknown_kind():
    with pytest.raises(ParameterError, match="cubic"):
        resample_z(CtVolume(np.zeros((3, 2, 2), np.float32), (2.5, 1.0, 1.0)), "cubic")


# z ratios 2.5, 0.5, 0.625 and 4; at 4 output slice i reads source slice
# i/4, so every fourth is a tie at k + 0.5, which takes the upper slice
@pytest.mark.parametrize("num,den", [(2.5, 1.0), (1.0, 2.0), (1.0, 1.6), (4.0, 1.0)])
def test_resample_z_nearest_matches_naive(num, den):
    sz, target = num / den, TARGET_SLICE_SPACING_MM
    rng = np.random.default_rng(2)
    mask = (rng.random((7, 4, 5)) < 0.5).astype(np.uint8)
    got = resample_z(LabelVolume(mask, (sz, 1.0, 1.0)), "nearest")
    assert isinstance(got, LabelVolume)
    assert np.array_equal(got.voxels, resample_z_naive(mask, sz, target, "nearest"))
    assert not np.shares_memory(got.voxels, mask)


@pytest.mark.parametrize("shape,out", [((5, 7), (12, 9)), ((9, 6), (4, 3)), ((2, 2), (2, 2))])
def test_resize_plane_bilinear_matches_naive(shape, out):
    img = np.random.default_rng(3).random(shape, dtype=np.float32)
    got = resize_plane_bilinear(img, *out)
    assert np.array_equal(got, resize_bilinear_naive(img, *out))


# a voxel that is NaN or infinite fails in equalization, whose check names it
non_finite = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


@non_finite
def test_nan_voxel_fails_in_named_stage(bad):
    hu = np.zeros((4, 6, 6), dtype=np.float32)
    hu[2, 3, 1] = bad
    with pytest.raises(InputError, match=r"^hist_equalize: .*non-finite"):
        preprocess_volume(CtVolume(hu, (2.0, 1.0, 1.0)), size=8)


@non_finite
def test_nan_off_the_resize_taps_fails_in_named_stage(bad):
    # equalization reads every voxel, not only the pixels the resize reads
    hu = np.zeros((3, 40, 40), dtype=np.float32)
    hu[1, 0, 0] = bad  # rows 0-3 and columns 0-3 feed no 4x4 output pixel
    with pytest.raises(InputError, match=r"^hist_equalize: .*non-finite"):
        preprocess_volume(CtVolume(hu, (2.0, 1.0, 1.0)), size=4)


@non_finite
def test_nan_in_a_partial_last_slab_fails_in_named_stage(bad):
    # windowing and counting go in slabs of about 2**18 voxels, here 113
    # slices of 48x48: the depth of 300 leaves a partial last slab
    hu = np.zeros((300, 48, 48), dtype=np.float32)
    hu[-1, 0, 0] = bad  # off the 4x4 resize taps too
    with pytest.raises(InputError, match=r"^hist_equalize: .*non-finite"):
        preprocess_volume(CtVolume(hu, (2.0, 1.0, 1.0)), size=4)


def test_preprocess_volume_holds_less_than_its_input():
    # a LiTS-sized plane at 1 mm: no array besides the input is volume-sized
    hu = np.random.default_rng(9).integers(-1000, 1000, (40, 512, 512)).astype(np.int16)
    image = CtVolume(hu, (1.0, 0.7, 0.7))
    tracemalloc.start()
    try:
        got = preprocess_volume(image, size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dims == (40, 64, 64)
    assert peak < hu.nbytes, f"peak {peak} bytes for a {hu.nbytes}-byte input"


def test_preprocess_volume_upsampled_in_z_holds_about_its_input():
    # 40x384^2 at 2.5 mm resamples to 98 slices, so the z-resampled tap grid
    # outgrows the input; a float64 combine over all of it at once peaks at
    # 2.3x the input, a combine in chunks of slices into the float32 output
    # does not
    hu = np.random.default_rng(10).integers(-1000, 1000, (40, 384, 384)).astype(np.int16)
    image = CtVolume(hu, (2.5, 1.0, 1.0))
    tracemalloc.start()
    try:
        got = preprocess_volume(image, size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.dims == (98, 64, 64)
    assert peak <= 1.1 * hu.nbytes, f"peak {peak / hu.nbytes:.2f}x the input"


def test_preprocess_volume_combines_z_chunks_bit_for_bit():
    # 21 slices at 2.5 mm resample to 51; a 160x160 plane's 64x64 taps make
    # a 128x128 grid, combined 16 slices at a time: 3 whole chunks and a partial one
    image = CtVolume(_phantom_hu((21, 160, 160), np.int16), (2.5, 0.9, 0.7))
    want = resize_slices(resample_z(hist_equalize(hu_window(image))), 64)
    got = preprocess_volume(image, size=64)
    assert got.dims == (51, 64, 64)
    assert np.array_equal(got.voxels, want.voxels)


@pytest.mark.parametrize("dtype", [np.int16, np.float32, np.float64])
def test_hu_window_matches_float64_oracle(dtype):
    # both window edges, values just inside and beyond them, the int16 extremes
    vals = [-32768, -1024, -201, -200, -199, 0, 57, 199, 200, 201, 3071, 32767]
    if dtype != np.int16:
        vals += [-1e6, -200.5, -199.75, 199.75, 200.25, 1e6]
    vox = np.array(vals, dtype=dtype).reshape(2, 1, -1)
    want = ((np.clip(vox.astype(np.float64), -200.0, 200.0) + 200.0) / 400.0).astype(np.float32)
    got = hu_window(CtVolume(vox, (1.0, 1.0, 1.0))).voxels
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,out", [((5, 7), (12, 9)), ((9, 6), (4, 3)), ((60, 52), (8, 8))])
def test_resize_plane_nearest_matches_naive(shape, out):
    img = np.random.default_rng(5).integers(0, 1000, shape).astype(np.int16)
    got = resize_plane_nearest(img, *out)
    assert np.array_equal(got, resize_nearest_naive(img, *out))
    assert not np.shares_memory(got, img)


@pytest.mark.parametrize("levels", [256, 64, 5])
def test_hist_equalize_matches_naive(levels):
    # one slice of values k/levels: every one a bin edge at 256 or 64
    # levels, mostly inside a bin at 5
    rng = np.random.default_rng(6)
    vox = rng.random((3, 7, 6), dtype=np.float32)
    vox[1] = rng.integers(0, levels + 1, vox.shape[1:]) / levels
    vox[0, 0, :3] = (0.0, 1.0, 0.5)  # both ends of the range and a bin edge
    got = hist_equalize(CtVolume(vox, (1.0, 1.0, 1.0)))
    assert got.voxels.dtype == np.float32
    assert np.array_equal(got.voxels, hist_equalize_naive(vox, EQUALIZE_BINS))


def test_hist_equalize_of_no_volume_fails():
    # an empty `of` counts no voxel, and a cdf over zero counts is 0/0: NaN
    v = CtVolume(np.full((2, 3, 3), 0.5, dtype=np.float32), (1.0, 1.0, 1.0))
    with pytest.raises(InputError, match="counted no voxel"):
        hist_equalize(v, of=[])


@pytest.mark.parametrize(
    "depth,first,last,want",
    [
        (40, 10, 30, (0, 39)),  # clamped at both ends
        (40, 5, 8, (0, 28)),
        (40, 25, 28, (5, 39)),
        (50, 22, 26, (2, 46)),  # strict
    ],
)
def test_crop_keeps_a_margin_clamped_to_the_volume(depth, first, last, want):
    assert CROP_MARGIN_SLICES == 20
    mask = np.zeros((depth, 3, 4), dtype=np.uint8)
    mask[first, 1, 2] = mask[last, 0, 0] = 1
    assert crop_liver_range(LabelVolume(mask, (1.0, 1.0, 1.0))) == want


def _phantom_hu(shape, dtype, seed=4):
    hu = np.random.default_rng(seed).normal(40.0, 150.0, shape)
    return np.rint(hu).astype(np.int16) if dtype == np.int16 else hu.astype(dtype)


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
@pytest.mark.parametrize(
    "shape,size",
    [
        ((5, 20, 28), 16),  # non-square, both sides under 2*size: the grid is the whole plane
        ((4, 70, 45), 16),  # both sides over 2*size; 16 divides neither
        ((6, 37, 100), 12),  # one side each way
        ((3, 64, 64), 64),  # same size: identity taps
        ((3, 20, 48), 64),  # both sides under size: in-plane upsampling
        ((2, 2, 90), 16),  # one side under size, the other over 2*size
    ],
)
def test_preprocess_volume_is_the_stage_chain(dtype, shape, size):
    for sz in (2.5, 0.7):  # non-integer z ratios, up and down
        image = CtVolume(_phantom_hu(shape, dtype), (sz, 0.9, 0.7))
        want = resize_slices(resample_z(hist_equalize(hu_window(image))), size)
        got = preprocess_volume(image, size=size)
        assert got.voxels.dtype == np.float32
        assert got.spacing == want.spacing
        assert np.array_equal(got.voxels, want.voxels)


def test_preprocess_case_is_the_stage_chain():
    spacing = (2.5, 0.9, 0.8)
    # 26 slices resample to 63: the lone voxel's 24..26 and the organ's
    # 34..41, with the margin, make the strict crop 4..61
    image = CtVolume(_phantom_hu((26, 60, 52), np.int16), spacing)
    mask = np.zeros(image.dims, dtype=np.uint8)
    mask[14:17, 20:40, 15:35] = 1
    mask[10, 0, 0] = 1  # an organ voxel that no 8x8 nearest-neighbor pixel reads
    labels = LabelVolume(mask, spacing)

    v = resample_z(hist_equalize(hu_window(image)))
    m = resample_z(labels, kind="nearest")
    lo, hi = crop_liver_range(m)
    v = resize_slices(CtVolume(v.voxels[lo : hi + 1], v.spacing), 8)
    m = resize_slices(LabelVolume(m.voxels[lo : hi + 1], m.spacing), 8)
    pairs = preprocess_case(image, labels, size=8)

    assert (lo, hi) == (4, 61)
    assert [p.slice_index for p in pairs] == list(range(lo, hi + 1))
    assert np.array_equal(np.stack([p.image for p in pairs]), v.voxels)
    assert np.array_equal(np.stack([p.mask for p in pairs]), m.voxels)
    # the crop starts one margin before the lone voxel's first slice; the
    # margin and that slice are empty once resized, so the range came from
    # the full-size mask
    assert not m.voxels[: CROP_MARGIN_SLICES + 1].any()


def test_preprocess_case_range_is_the_resampled_masks():
    # 0.5 mm slices resample to 1 mm by taking every other slice: the lone
    # voxel on odd slice 5 is skipped, so it must not widen the organ range
    spacing = (0.5, 0.9, 0.8)
    image = CtVolume(_phantom_hu((120, 12, 10), np.int16), spacing)
    mask = np.zeros(image.dims, dtype=np.uint8)
    mask[70:80, 3:9, 2:8] = 1
    mask[5, 0, 0] = 1
    labels = LabelVolume(mask, spacing)

    v = resample_z(hist_equalize(hu_window(image)))
    m = resample_z(labels, kind="nearest")
    lo, hi = crop_liver_range(m)
    v = CtVolume(v.voxels[lo : hi + 1], v.spacing)
    m = LabelVolume(m.voxels[lo : hi + 1], m.spacing)
    pairs = preprocess_case(image, labels, size=8)

    assert (lo, hi) == (35 - CROP_MARGIN_SLICES, 39 + CROP_MARGIN_SLICES)
    assert [p.slice_index for p in pairs] == list(range(lo, hi + 1))
    assert np.array_equal(np.stack([p.image for p in pairs]), resize_slices(v, 8).voxels)
    assert np.array_equal(np.stack([p.mask for p in pairs]), resize_slices(m, 8).voxels)


def test_preprocess_case_upsampled_in_z_holds_about_its_input():
    # train_desk's geometry: 40x384^2 at 2.5 mm resamples to 98 slices. A
    # z-resampled full-resolution mask alone is 1.3x the CT's bytes; reading
    # one flag per slice and gathering only the kept mask pixels is not
    hu = np.random.default_rng(11).integers(-1000, 1000, (40, 384, 384)).astype(np.int16)
    mask = np.zeros(hu.shape, dtype=np.uint8)
    mask[18:24, 100:300, 120:260] = 1
    spacing = (2.5, 1.0, 1.0)
    image, labels = CtVolume(hu, spacing), LabelVolume(mask, spacing)
    tracemalloc.start()
    try:
        pairs = preprocess_case(image, labels, size=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the organ's source slices 18..23 are the nearest of resampled slices 44..58
    assert [p.slice_index for p in pairs] == list(range(44 - CROP_MARGIN_SLICES, 59 + CROP_MARGIN_SLICES))
    assert peak <= 1.1 * hu.nbytes, f"peak {peak / hu.nbytes:.2f}x the input"


def _small_case():
    spacing = (2.5, 0.9, 0.8)
    image = CtVolume(_phantom_hu((6, 12, 10), np.int16), spacing)
    mask = np.zeros(image.dims, dtype=np.uint8)
    mask[2:4, 3:8, 2:7] = 1
    return image, LabelVolume(mask, spacing)


def test_empty_mask_fails_before_any_pass(monkeypatch):
    image, labels = _small_case()
    monkeypatch.setattr(preprocess, "hu_window", lambda *a, **k: pytest.fail("a pass ran"))
    empty = LabelVolume(np.zeros(labels.dims, dtype=np.uint8), labels.spacing)
    with pytest.raises(InputError, match=r"^crop_liver_range: mask has no foreground"):
        preprocess_case(image, empty, size=8)


@pytest.mark.parametrize(
    "depth,spacing,match", [(5, (2.5, 0.9, 0.8), "dims"), (6, (2.0, 0.9, 0.8), "spacing")]
)
def test_case_mask_off_the_image_grid_fails(depth, spacing, match):
    image, labels = _small_case()
    with pytest.raises(ShapeError, match=match):
        preprocess_case(image, LabelVolume(labels.voxels[:depth], spacing), size=8)


@pytest.mark.parametrize("image,mask", [((4, 4), (4, 5)), ((2, 4, 4), (2, 4, 4))],
                         ids=["shapes-differ", "3-d"])
def test_slice_pair_needs_equal_2d_arrays(image, mask):
    with pytest.raises(ShapeError, match="must be equal 2-D"):
        SlicePair(np.zeros(image, np.float32), np.zeros(mask, np.uint8), "case", 0)


def test_one_slice_fails_in_z_resampling():
    image = CtVolume(_phantom_hu((1, 12, 10), np.int16), (2.5, 0.9, 0.8))
    with pytest.raises(InputError, match="at least 2 slices"):
        resample_z(image)
    with pytest.raises(InputError, match=r"^resample_z: .*at least 2 slices"):
        preprocess_volume(image, size=8)


ENTRY_POINTS = {
    "resize_slices": lambda image, labels, size: resize_slices(image, size),
    "preprocess_volume": lambda image, labels, size: preprocess_volume(image, size),
    "preprocess_case": lambda image, labels, size: preprocess_case(image, labels, size=size),
}


# a float, a bool, zero, a negative and a fraction: each used to fail late
# with a raw numpy error, fail as an empty axis, divide by zero, or resize
# silently to 3x3
@pytest.mark.parametrize("size", [64.0, True, 0, -1, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_bad_slice_size_fails_before_any_pass(entry, size, monkeypatch):
    monkeypatch.setattr(preprocess, "hu_window", lambda *a, **k: pytest.fail("a pass ran"))
    with pytest.raises(ParameterError, match=r"^resize_slices: slice size"):
        ENTRY_POINTS[entry](*_small_case(), size)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_numpy_integer_slice_size_is_an_int(entry):
    image, labels = _small_case()
    got = ENTRY_POINTS[entry](image, labels, np.int64(8))
    want = ENTRY_POINTS[entry](image, labels, 8)
    if entry == "preprocess_case":
        got, want = np.stack([p.image for p in got]), np.stack([p.image for p in want])
    else:
        assert got.spacing == want.spacing
        got, want = got.voxels, want.voxels
    assert got.shape[-2:] == (8, 8) and np.array_equal(got, want)


def test_too_small_plane_fails_before_any_pass():
    # one row per slice; the NaN would fail equalization if a pass ran first
    hu = np.zeros((4, 1, 6), dtype=np.float32)
    hu[1, 0, 2] = np.nan
    with pytest.raises(InputError, match=r"^resize_slices: .*2x2"):
        preprocess_volume(CtVolume(hu, (2.0, 1.0, 1.0)), size=8)
