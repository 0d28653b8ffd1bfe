"""Fuzzing of the two file formats: a truncated or byte-flipped checkpoint
or NIfTI file fails with a named error, never with a raw exception."""

import numpy as np
import pytest

from earunet import model as M
from earunet.checkpoint import AdamMoments, Checkpoint, load_checkpoint, save_checkpoint
from earunet.errors import EarUnetError, FormatError
from earunet.volume_io import NIFTI_HEADER_SIZE, read_nifti, write_nifti
from earunet.volumes import CtVolume, LabelVolume


def _tiny_checkpoint():
    rng = np.random.default_rng(0)
    arrays = {
        "a.weight": rng.standard_normal((2, 3)).astype(np.float32),
        "a.bias": rng.standard_normal(3),  # float64
        "b.running_var": np.ones(2, dtype=np.float32),
    }
    moments = AdamMoments(
        t=2, m={"a.weight": np.zeros((2, 3), np.float32)}, v={"a.weight": np.ones((2, 3), np.float32)}
    )
    return Checkpoint(M.preset_config("micro"), arrays, moments, rng.bit_generator.state, epoch=5)


@pytest.fixture
def checkpoint_blob(tmp_path):
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(_tiny_checkpoint(), path)
    return path.read_bytes()


def _load(tmp_path, case, blob):
    # one new file per case: rewriting one file truncates it each time,
    # which some file systems answer with a flush
    path = tmp_path / f"{case}.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(path)


def test_tiny_checkpoint_loads(tmp_path, checkpoint_blob):
    ckpt = _load(tmp_path, "whole", checkpoint_blob)
    assert ckpt.epoch == 5 and ckpt.moments.t == 2
    assert np.array_equal(ckpt.arrays["a.bias"], _tiny_checkpoint().arrays["a.bias"])


def test_checkpoint_truncated_at_every_offset(tmp_path, checkpoint_blob):
    for cut in range(len(checkpoint_blob)):
        with pytest.raises(FormatError):
            _load(tmp_path, f"cut{cut}", checkpoint_blob[:cut])


def test_checkpoint_with_any_byte_flipped(tmp_path, checkpoint_blob):
    for i in range(len(checkpoint_blob)):
        blob = bytearray(checkpoint_blob)
        blob[i] ^= 0xFF
        with pytest.raises(FormatError):
            _load(tmp_path, f"flip{i}", bytes(blob))


def _tiny_volume(dtype):
    if dtype == np.uint8:
        return LabelVolume(np.eye(4, 5, dtype=np.uint8)[None].repeat(3, axis=0), (2.5, 0.75, 0.5))
    vox = np.arange(-30, 30, dtype=np.int16).reshape(3, 4, 5) * 7
    return CtVolume(vox, (2.5, 0.75, 0.5))


@pytest.fixture(params=[np.int16, np.uint8], ids=["int16", "uint8"])
def nifti_blob(request, tmp_path):
    path = tmp_path / "tiny.nii"
    write_nifti(_tiny_volume(request.param), path)
    return path.read_bytes()


def _read(tmp_path, case, blob):
    path = tmp_path / f"{case}.nii"
    path.write_bytes(blob)
    return read_nifti(path)


def test_nifti_truncated_at_every_offset(tmp_path, nifti_blob):
    assert _read(tmp_path, "whole", nifti_blob).dims == (3, 4, 5)
    for cut in range(len(nifti_blob)):
        with pytest.raises(FormatError):
            _read(tmp_path, f"cut{cut}", nifti_blob[:cut])


@pytest.mark.parametrize("mask", [0x01, 0x80, 0xFF])
def test_nifti_header_byte_flip_is_named_or_clean(tmp_path, nifti_blob, mask):
    for i in range(NIFTI_HEADER_SIZE):
        blob = bytearray(nifti_blob)
        blob[i] ^= mask
        try:
            v = _read(tmp_path, f"flip{i}", bytes(blob))
        except EarUnetError:
            continue
        assert isinstance(v, (CtVolume, LabelVolume)), i
