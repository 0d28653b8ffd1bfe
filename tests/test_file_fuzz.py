"""Fuzzing of the two file formats: a truncated or byte-flipped checkpoint
or NIfTI file fails with a named error, never with a raw exception."""

import json
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest

from earunet import model as M
from earunet.checkpoint import AdamMoments, Checkpoint, load_checkpoint, save_checkpoint
from earunet.errors import EarUnetError, FormatError, VersionError
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


def _with_blobs(blob, config=None, rng=None):
    """The checkpoint blob with its config and/or rng-state JSON bytes
    replaced and its CRC recomputed, so only the JSON checks can catch them."""
    payload = blob[8:-4]
    if config is not None:
        (n,) = struct.unpack_from("<I", payload, 0)
        payload = struct.pack("<I", len(config)) + config + payload[4 + n :]
    if rng is not None:
        # the payload ends with u32 length + rng-state JSON + u32 epoch
        old = json.dumps(_tiny_checkpoint().rng_state, sort_keys=True).encode()
        payload = payload[: -(8 + len(old))] + struct.pack("<I", len(rng)) + rng + payload[-4:]
    return _with_payload(blob, payload)


def _with_payload(blob, payload):
    """The checkpoint blob around another payload, with its CRC recomputed."""
    return blob[:8] + payload + struct.pack("<I", zlib.crc32(payload))


def _config_json(edit):
    d = M.preset_config("micro").to_json_dict()
    edit(d)
    return json.dumps(d).encode()


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


@pytest.mark.parametrize(
    "what,config,rng",
    [
        ("config", _config_json(_set("width_mult", "0.05")), None),
        ("config", _config_json(_set("depth_mult", float("nan"))), None),
        ("config", _config_json(_set("input_size", [32])), None),
        ("config", _config_json(_set("input_size", 33)), None),
        ("config", _config_json(_set("input_size", [32, 32])), None),
        ("config", _config_json(lambda d: d.pop("input_size")), None),
        ("config", _config_json(_set("stage_specs", [["conv", 3, 1, 8, 1, 0]])), None),
        ("rng state", None, b"not json"),
        ("rng state", None, b"[1, 2]"),
    ],
    ids=["config-string-width", "config-nan-depth", "config-size-one-entry",
         "config-size-not-multiple-of-32", "config-size-pair", "config-missing-input-size",
         "config-leftover-stage-specs", "rng-not-json", "rng-not-object"],
)
def test_checkpoint_malformed_json_blob(tmp_path, checkpoint_blob, what, config, rng):
    with pytest.raises(FormatError, match=f"checkpoint {what} blob"):
        _load(tmp_path, "bad", _with_blobs(checkpoint_blob, config, rng))


def test_version_2_checkpoint_is_a_version_error(tmp_path, checkpoint_blob):
    # format 2 stored input_size as an (h, w) pair
    blob = checkpoint_blob[:4] + struct.pack("<I", 2) + checkpoint_blob[8:]
    with pytest.raises(VersionError, match="version 2"):
        _load(tmp_path, "v2", blob)


# each set of fields gives a checkpoint that its format cannot hold
@pytest.mark.parametrize(
    "fields,match",
    [
        ({"epoch": -1}, "epoch"),
        ({"epoch": 2**32}, "epoch"),
        ({"moments": AdamMoments(t=-1)}, "moments.t"),
        ({"arrays": {"a" * 70_000: np.zeros(1, np.float32)}}, "record name length"),
        ({"arrays": {"wide": np.zeros((0, 2**32), np.float32)}}, "shape of 'wide'"),
        ({"rng_state": {"seed": np.uint64(5)}}, "rng_state is not JSON"),
        ({"rng_state": [1, 2]}, "rng_state must be a dict"),
    ],
    ids=["epoch-negative", "epoch-over-u32", "moment-step-negative", "name-over-u16",
         "dim-over-u32", "rng-state-not-json", "rng-state-not-dict"],
)
def test_save_rejects_what_the_format_cannot_hold(tmp_path, fields, match):
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"previous contents")
    with pytest.raises(FormatError, match=match):
        save_checkpoint(replace(_tiny_checkpoint(), **fields), path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ckpt"]


def _name(text):
    return struct.pack("<H", len(text)) + text


_WEIGHT_RECORD = _name(b"a.weight") + b"\x00\x02" + struct.pack("<2I", 2, 3)


# (payload bytes, their replacement or None to append): each edit leaves a
# CRC-valid payload that breaks one rule of the record layout
@pytest.mark.parametrize(
    "old,new,match",
    [
        (_WEIGHT_RECORD, _name(b"a.weight") + b"\x00\x04" + struct.pack("<4I", *[2**32 - 1] * 4),
         "truncated inside"),
        (_name(b"a.weight"), _name(b"a.weig\xff\xfe"), "not UTF-8"),
        (_name(b"a.bias"), _name(b"a.weight"), "twice"),
        (_name(b"m.a.weight"), _name(b"x.a.weight"), "neither m"),
        (None, b"\x00", "after the epoch"),
    ],
    ids=["record-size-overflows-int64", "record-name-not-utf8", "record-name-twice",
         "moment-record-unknown-prefix", "byte-after-epoch"],
)
def test_checkpoint_malformed_records(tmp_path, checkpoint_blob, old, new, match):
    payload = checkpoint_blob[8:-4]
    if old is None:
        payload += new
    else:
        assert payload.count(old) == 1
        payload = payload.replace(old, new)
    with pytest.raises(FormatError, match=match):
        _load(tmp_path, "bad", _with_payload(checkpoint_blob, payload))


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
