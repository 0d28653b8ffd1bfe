"""NIfTI header tests: spacing and intensity scaling survive a round trip,
and corrupt headers fail with FormatError."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from earunet.errors import FormatError, ShapeError
from earunet.volume_io import NIFTI_HEADER_SIZE, read_volume, write_nifti
from earunet.volumes import CtVolume, LabelVolume


def test_template_header_keeps_geometry_not_spacing_or_scaling(tmp_path):
    src = tmp_path / "src.nii"
    write_nifti(CtVolume(np.zeros((3, 4, 5), dtype=np.int16), (2.0, 1.0, 1.0)), src)
    template = bytearray(src.read_bytes()[:NIFTI_HEADER_SIZE])
    struct.pack_into("<f", template, 76, -1.0)  # pixdim[0]: qfac
    struct.pack_into("<2f", template, 112, 2.0, -1024.0)  # scl_slope, scl_inter
    struct.pack_into("<2h", template, 252, 1, 1)  # qform_code, sform_code
    struct.pack_into("<12f", template, 280, *np.arange(1.0, 13.0))  # srow_x/y/z

    vox = np.arange(6 * 8 * 10, dtype=np.int16).reshape(6, 8, 10)
    out = tmp_path / "out.nii"
    write_nifti(CtVolume(vox, (1.0, 0.5, 0.5)), out, template_header=bytes(template))

    back = read_volume(out)
    assert back.spacing == (1.0, 0.5, 0.5)
    assert back.voxels.dtype == np.int16 and np.array_equal(back.voxels, vox)
    hdr = out.read_bytes()[:NIFTI_HEADER_SIZE]
    assert hdr[76:80] == template[76:80]
    assert hdr[252:344] == template[252:344]


@pytest.mark.parametrize("sizeof_hdr", ["<i", ">i"], ids=["zeros", "big-endian-sizeof-hdr"])
def test_template_sizeof_hdr_is_stamped(tmp_path, sizeof_hdr):
    # a template of 348 zero bytes, or one whose sizeof_hdr reads as big-endian
    template = bytearray(NIFTI_HEADER_SIZE)
    struct.pack_into(sizeof_hdr, template, 0, NIFTI_HEADER_SIZE if sizeof_hdr == ">i" else 0)
    vox = np.arange(2 * 3 * 4, dtype=np.int16).reshape(2, 3, 4)
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(vox, (1.0, 1.0, 1.0)), path, template_header=bytes(template))
    assert np.array_equal(read_volume(path).voxels, vox)


def test_read_applies_intensity_scaling(tmp_path):
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(np.ones((2, 3, 4), dtype=np.int16), (1.0, 1.0, 1.0)), path)
    assert read_volume(path).voxels.dtype == np.int16  # identity scaling: stored dtype

    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 2.0, -1024.0)
    path.write_bytes(bytes(blob))
    back = read_volume(path)
    assert isinstance(back, CtVolume) and back.voxels.dtype == np.float32
    assert np.array_equal(back.voxels, np.full((2, 3, 4), -1022.0, dtype=np.float32))


@pytest.mark.parametrize("slope", [0.0, float("nan"), float("inf")])
def test_read_zero_or_nonfinite_slope_is_unscaled(tmp_path, slope):
    """Slope 0 (or non-finite, which reads as 0) disables scaling, intercept too."""
    path = tmp_path / "ct.nii"
    vox = np.arange(-12, 12, dtype=np.int16).reshape(2, 3, 4)
    write_nifti(CtVolume(vox, (1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, slope, -1024.0)
    path.write_bytes(bytes(blob))
    back = read_volume(path)
    assert back.voxels.dtype == np.int16 and np.array_equal(back.voxels, vox)


def test_read_nonfinite_intercept_reads_as_zero(tmp_path):
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(np.ones((2, 3, 4), dtype=np.int16), (1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 2.0, float("nan"))
    path.write_bytes(bytes(blob))
    back = read_volume(path)
    assert back.voxels.dtype == np.float32
    assert np.array_equal(back.voxels, np.full((2, 3, 4), 2.0, dtype=np.float32))


def test_scaled_overflow_of_float32_is_a_format_error(tmp_path):
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(np.full((3, 4, 5), 30000, dtype=np.int16), (1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 1e35, 0.0)
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="scl_slope"):
        read_volume(path)


def _corrupt(tmp_path, fmt, offset, *values):
    """A valid 4x6x6 int16 file with one header field overwritten."""
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(np.ones((4, 6, 6), dtype=np.int16), (2.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into(fmt, blob, offset, *values)
    path.write_bytes(bytes(blob))
    return path


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_vox_offset_is_a_format_error(tmp_path, value):
    with pytest.raises(FormatError, match="vox_offset"):
        read_volume(_corrupt(tmp_path, "<f", 108, value))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_pixdim_is_a_format_error(tmp_path, value):
    with pytest.raises(FormatError, match="pixdim"):
        read_volume(_corrupt(tmp_path, "<f", 88, value))  # pixdim[3], the slice spacing


def test_zero_dim_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="dim"):
        read_volume(_corrupt(tmp_path, "<h", 46, 0))  # dim[3]


@pytest.mark.parametrize("value", [8, 252])
def test_rank_beyond_seven_is_a_format_error(tmp_path, value):
    with pytest.raises(FormatError, match="dim"):
        read_volume(_corrupt(tmp_path, "<h", 40, value))  # dim[0]; 252 is byte 40 XOR 0xFF


@pytest.mark.parametrize("value", [-1, -2])
def test_negative_dim_is_a_format_error(tmp_path, value):
    with pytest.raises(FormatError, match="dim"):
        read_volume(_corrupt(tmp_path, "<h", 42, value))  # dim[1]


@pytest.mark.parametrize("cls", [CtVolume, LabelVolume])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_volume_spacing_must_be_finite(cls, bad):
    with pytest.raises(ShapeError, match="spacing"):
        cls(np.zeros((2, 2, 2), dtype=np.uint8), (bad, 1.0, 1.0))


_NOUN = {CtVolume: "volume", LabelVolume: "mask"}  # each type's word in its geometry errors


@pytest.mark.parametrize("cls", [CtVolume, LabelVolume])
@pytest.mark.parametrize("shape", [(0, 64, 64), (3, 0, 64), (3, 64, 0)])
def test_volume_with_an_empty_axis_is_a_shape_error(cls, shape):
    with pytest.raises(ShapeError, match=f"^{_NOUN[cls]} has an empty axis"):
        cls(np.zeros(shape, dtype=np.int16 if cls is CtVolume else np.uint8), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("cls", [CtVolume, LabelVolume])
@pytest.mark.parametrize("shape", [(64, 64), (1, 3, 64, 64)])
def test_volume_that_is_not_3d_is_a_shape_error(cls, shape):
    with pytest.raises(ShapeError, match=re.escape(f"{_NOUN[cls]} must be 3-D (d,h,w)")):
        cls(np.zeros(shape, dtype=np.uint8), (1.0, 1.0, 1.0))


@pytest.mark.parametrize("cls", [CtVolume, LabelVolume])
def test_volume_equality_answers_by_identity(cls):
    # an ndarray field has no truth value, so value equality would raise
    v = cls(np.zeros((2, 2, 2), dtype=np.uint8), (1.0, 1.0, 1.0))
    copy = cls(v.voxels.copy(), v.spacing)
    other = (LabelVolume if cls is CtVolume else CtVolume)(v.voxels, v.spacing)
    assert v == v and not v != v
    assert v != copy and v != other and other != v


@pytest.mark.parametrize(
    "dtype,value",
    [
        (np.uint8, 2),
        (np.uint8, 255),
        (np.int16, -1),
        (np.int16, 2),
        (np.float32, 0.5),
        (np.float32, np.nan),
        (np.float32, np.inf),
    ],
)
def test_mask_rejects_a_non_binary_voxel_by_value(dtype, value):
    vox = np.zeros((3, 4, 5), dtype=dtype)
    vox[2, 1, 3] = value
    vox[2, 3, 0] = 1  # a valid voxel after the bad one
    with pytest.raises(ShapeError, match=re.escape(f"0/1, found {dtype(value)!r}")):
        LabelVolume(vox, (1.0, 1.0, 1.0))


def test_mask_names_the_first_bad_voxel():
    vox = np.zeros((3, 4, 5), dtype=np.int16)
    vox[1, 3, 4], vox[2, 0, 0] = 7, -3
    with pytest.raises(ShapeError, match=r"found np\.int16\(7\)"):
        LabelVolume(vox, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("dtype", [np.bool_, np.uint8, np.int16, np.float32])
def test_mask_accepts_binary_voxels_as_uint8(dtype):
    bits = np.random.default_rng(8).random((3, 4, 5)) < 0.5
    m = LabelVolume(bits.astype(dtype), (1.0, 1.0, 1.0))
    assert m.voxels.dtype == np.uint8 and np.array_equal(m.voxels, bits)


@pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.float32])
def test_round_trip_is_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(4)
    if dtype == np.float32:
        vox = rng.standard_normal((3, 5, 7)).astype(np.float32)
        # signed zero, infinities and a denormal survive too
        vox.flat[:4] = [-0.0, np.inf, -np.inf, np.float32(1e-45)]
    elif dtype == np.uint8:
        vox = rng.integers(0, 1, (3, 5, 7), endpoint=True, dtype=np.uint8)  # a 0/1 mask
    else:
        vox = rng.integers(-32768, 32767, (3, 5, 7), endpoint=True, dtype=np.int16)
    path = tmp_path / "v.nii"
    write_nifti((LabelVolume if dtype == np.uint8 else CtVolume)(vox, (2.5, 0.75, 0.5)), path)
    back = read_volume(path)
    assert type(back) is (LabelVolume if dtype == np.uint8 else CtVolume)
    assert back.voxels.dtype == dtype and back.voxels.dtype.isnative
    assert back.voxels.tobytes() == vox.tobytes()
    assert back.spacing == (2.5, 0.75, 0.5)


@pytest.mark.parametrize(
    "volume,header,match",
    [
        (CtVolume(np.zeros((2, 3, 4), np.int16), (1e39, 1.0, 1.0)), None,
         "overflows the float32 pixdim"),
        (CtVolume(np.zeros((2, 3, 4), np.int16), (1.0, 1e-46, 1.0)), None, "rounds to 0 .*pixdim"),
        (LabelVolume(np.zeros((40_000, 1, 1), np.uint8), (1.0, 1.0, 1.0)), None, "int16 dim field"),
        (CtVolume(np.zeros((2, 3, 4), np.float64), (1.0, 1.0, 1.0)), None,
         "cannot write dtype float64"),
        (CtVolume(np.zeros((2, 3, 4), np.int16), (1.0, 1.0, 1.0)), bytes(100),
         "348 bytes, got 100"),
    ],
    ids=["spacing-overflows-float32", "spacing-rounds-to-zero", "dim-over-int16",
         "dtype-float64", "template-header-100-bytes"],
)
def test_write_rejects_what_the_header_cannot_hold(tmp_path, volume, header, match):
    path = tmp_path / "old.nii"
    path.write_bytes(b"previous contents")
    with pytest.raises(FormatError, match=match):
        write_nifti(volume, path, header)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.nii"]


def test_short_header_is_a_format_error(tmp_path):
    path = tmp_path / "short.nii"
    write_nifti(CtVolume(np.ones((2, 3, 4), dtype=np.int16), (1.0, 1.0, 1.0)), path)
    path.write_bytes(path.read_bytes()[:300])
    with pytest.raises(FormatError, match="348"):
        read_volume(path)


@pytest.mark.parametrize("name", ["ct.img", "ct.nii.gz", "ct.nii.tmp", "ct"])
def test_path_not_ending_in_nii_is_a_format_error(tmp_path, name):
    # a valid NIfTI-1 file under each name: only the extension is wrong
    path = tmp_path / name
    write_nifti(CtVolume(np.ones((2, 3, 4), dtype=np.int16), (1.0, 1.0, 1.0)), path)
    with pytest.raises(FormatError, match=re.escape(f"{path}: unknown volume format")):
        read_volume(path)


def test_mask_label_other_than_0_1_is_a_format_error_naming_the_file(tmp_path):
    # a LiTS label file marks tumour as 2; it is rejected, not remapped
    path = tmp_path / "labels.nii"
    write_nifti(LabelVolume(np.zeros((2, 3, 4), dtype=np.uint8), (1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    blob[-5] = 2  # a payload byte: the payload ends the file
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as info:
        read_volume(path)
    assert str(info.value) == f"{path}: mask voxels must be 0/1, found np.uint8(2)"


def test_bad_sizeof_hdr_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="sizeof_hdr"):
        read_volume(_corrupt(tmp_path, "<i", 0, 540))  # a NIfTI-2 header size


def test_big_endian_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="big-endian"):
        read_volume(_corrupt(tmp_path, ">i", 0, 348))


def test_bad_magic_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="magic"):
        read_volume(_corrupt(tmp_path, "4s", 344, b"ni1\x00"))  # the two-file header/image pair


def test_unsupported_datatype_is_a_format_error(tmp_path):
    with pytest.raises(FormatError, match="datatype"):
        read_volume(_corrupt(tmp_path, "<h", 70, 8))  # int32


# a single-file .nii holds a 4-byte extension flag after the 348-byte
# header: data at 348-351 would read those bytes as voxels
@pytest.mark.parametrize("offset", [100.0, 348.0, 351.0])
def test_vox_offset_inside_header_is_a_format_error(tmp_path, offset):
    with pytest.raises(FormatError, match="vox_offset"):
        read_volume(_corrupt(tmp_path, "<f", 108, offset))


@pytest.mark.parametrize("cut", [1, 2 * 6 * 6])
def test_truncated_payload_is_a_format_error(tmp_path, cut):
    path = _corrupt(tmp_path, "<h", 40, 3)  # a valid file: dim[0] already 3
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(FormatError, match="payload"):
        read_volume(path)


def test_read_holds_one_payload(tmp_path):
    vox = (np.arange(8 * 128 * 128) % 4096 - 1024).astype(np.int16).reshape(8, 128, 128)  # 256 KiB
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(vox, (1.0, 1.0, 1.0)), path)
    tracemalloc.start()
    try:
        back = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.voxels, vox)
    assert peak < 1.25 * vox.nbytes, f"peak {peak} bytes for a {vox.nbytes}-byte payload"


def test_read_mask_holds_one_payload(tmp_path):
    # checking a uint8 mask for 0/1 takes reductions, not volume-sized temporaries
    vox = (np.arange(8 * 128 * 128) % 3 == 0).astype(np.uint8).reshape(8, 128, 128)  # 128 KiB
    path = tmp_path / "mask.nii"
    write_nifti(LabelVolume(vox, (1.0, 1.0, 1.0)), path)
    tracemalloc.start()
    try:
        back = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(back, LabelVolume) and np.array_equal(back.voxels, vox)
    assert peak < 1.25 * vox.nbytes, f"peak {peak} bytes for a {vox.nbytes}-byte payload"


def test_write_holds_no_payload_copy(tmp_path):
    # the header and the array's own buffer go to the file as they are
    vox = (np.arange(8 * 128 * 128) % 4096 - 1024).astype(np.int16).reshape(8, 128, 128)  # 256 KiB
    volume = CtVolume(vox, (1.0, 1.0, 1.0))
    path = tmp_path / "ct.nii"
    tracemalloc.start()
    try:
        write_nifti(volume, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(read_volume(path).voxels, vox)
    assert peak < 0.25 * vox.nbytes, f"peak {peak} bytes for a {vox.nbytes}-byte payload"


def test_scaled_read_holds_payload_and_output(tmp_path):
    # as many slices as a CT volume: the per-slice float64 temporaries
    # stay small against the whole output
    vox = (np.arange(32 * 64 * 64) % 4096 - 1024).astype(np.int16).reshape(32, 64, 64)
    path = tmp_path / "ct.nii"
    write_nifti(CtVolume(vox, (1.0, 1.0, 1.0)), path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<2f", blob, 112, 0.37, -1000.5)  # scl_slope, scl_inter
    path.write_bytes(bytes(blob))
    slope, inter = struct.unpack_from("<2f", blob, 112)
    tracemalloc.start()
    try:
        back = read_volume(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the whole-volume float64 formula, rounded once to float32
    want = (vox * np.float64(slope) + inter).astype(np.float32)
    assert back.voxels.dtype == np.float32 and np.array_equal(back.voxels, want)
    out_bytes = back.voxels.nbytes
    assert peak < vox.nbytes + 1.25 * out_bytes, (
        f"peak {peak} bytes for a {vox.nbytes}-byte payload and {out_bytes}-byte output"
    )
