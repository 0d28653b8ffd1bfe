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
from earunet.volume_io import NIFTI_HEADER_SIZE, read_volume, write_nifti
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


def _with_payload(blob, payload):
    """The checkpoint blob around another payload, with its CRC recomputed."""
    return blob[:8] + payload + struct.pack("<I", zlib.crc32(payload))


def _with_header(edit):
    """blob -> the checkpoint blob with edit(header JSON bytes) as its header
    and its CRC recomputed, so only the header checks can catch the edit."""

    def apply(blob):
        payload = blob[8:-4]
        n = 4 + struct.unpack_from("<I", payload)[0]
        raw = edit(payload[4:n])
        return _with_payload(blob, struct.pack("<I", len(raw)) + raw + payload[n:])

    return apply


def _with_fields(edit):
    """blob -> the checkpoint blob after edit(header dict), CRC recomputed."""

    def apply(raw):
        head = json.loads(raw)
        edit(head)
        return json.dumps(head).encode()

    return _with_header(apply)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


def _config(edit):
    return _with_fields(lambda head: edit(head["config"]))


# each edit breaks one rule of the header's fields
@pytest.mark.parametrize(
    "edit,match",
    [
        (_config(_set("width_mult", "0.05")), "width_mult"),
        (_config(_set("depth_mult", float("nan"))), "depth_mult"),
        (_config(_set("input_size", [32])), "input size"),
        (_config(_set("input_size", 33)), "input size"),
        (_config(_set("input_size", [32, 32])), "input size"),
        (_config(lambda d: d.pop("input_size")), "config keys"),
        (_config(_set("stage_specs", [["conv", 3, 1, 8, 1, 0]])), "config keys"),
        (_with_header(lambda raw: raw.replace(b'"rng_state": {', b'"rng_state": not json, "x": {')),
         "JSONDecodeError"),
        (_with_fields(_set("rng_state", [1, 2])), "rng_state"),
        (_with_fields(_set("rng_state", "seed")), "rng_state"),
        (_with_fields(_set("epoch", -1)), "epoch"),
        (_with_fields(_set("epoch", True)), "epoch"),
        (_with_fields(_set("epoch", 5.0)), "epoch"),
        (_with_fields(_set("adam_t", -1)), "adam_t"),
        (_with_fields(_set("adam_t", False)), "adam_t"),
        (_with_fields(_set("adam_t", "2")), "adam_t"),
        (_with_fields(_set("adam_t", None)), "adam_t must be an int >= 0, got None"),
        (_with_fields(_set("adam_t", 0)), "m and v must be empty exactly when adam_t is 0: adam_t 0"),
        (_with_fields(lambda head: head.pop("epoch")), "keys"),
        (_with_fields(_set("step", 1)), "keys"),
        (_with_header(lambda raw: b"[" + raw + b"]"), "keys"),
        (_with_header(lambda raw: b"[" * 100_000 + b"]" * 100_000), "RecursionError"),
        (_with_fields(lambda head: [head[k][0].__setitem__(0, "nope") for k in ("m", "v")]),
         "m entry 'nope' .* is not an arrays entry"),
        (_with_fields(lambda head: head["m"][0].__setitem__(2, [3, 2])),
         r"m entry 'a.weight' \(float32, \[3, 2\]\) is not an arrays entry"),
    ],
    ids=["config-string-width", "config-nan-depth", "config-size-one-entry",
         "config-size-not-multiple-of-32", "config-size-pair", "config-missing-input-size",
         "config-leftover-stage-specs", "rng-not-json", "rng-not-object", "rng-state-string",
         "epoch-negative", "epoch-bool", "epoch-float", "adam-t-negative", "adam-t-bool",
         "adam-t-string", "moments-without-adam-t", "moments-at-adam-t-0", "key-missing", "key-unknown",
         "header-not-object", "header-nested-too-deep", "moment-names-unknown-array",
         "moment-shape-differs"],
)
def test_checkpoint_malformed_json_blob(tmp_path, checkpoint_blob, edit, match):
    with pytest.raises(FormatError, match=f"checkpoint header is malformed.*{match}"):
        _load(tmp_path, "bad", edit(checkpoint_blob))


@pytest.mark.parametrize("version", [2, 3, 4])
def test_version_2_checkpoint_is_a_version_error(tmp_path, checkpoint_blob, version):
    # format 2 stored input_size as an (h, w) pair; format 3 packed binary
    # records; format 4 wrote adam_t null for no optimizer state
    blob = checkpoint_blob[:4] + struct.pack("<I", version) + checkpoint_blob[8:]
    with pytest.raises(VersionError, match=f"version {version}"):
        _load(tmp_path, f"v{version}", blob)


# each set of fields gives a checkpoint that its format cannot hold
@pytest.mark.parametrize(
    "fields,match",
    [
        ({"epoch": -1}, "epoch"),
        ({"moments": AdamMoments(t=-1)}, "adam_t"),
        ({"moments": AdamMoments(t=1, m={"a": np.zeros(1)})}, "m and v name different arrays"),
        ({"arrays": {"ints": np.zeros(1, np.int32)}}, "array 'ints' of dtype int32"),
        ({"rng_state": {"seed": np.uint64(5)}}, "not JSON serializable"),
        ({"rng_state": [1, 2]}, "rng_state must be a dict"),
        ({"moments": AdamMoments(3, {"nope": np.zeros(3)}, {"nope": np.zeros(3)})},
         "m entry 'nope' .* is not an arrays entry"),
        ({"moments": AdamMoments(1, {"a.weight": np.zeros((3, 2), np.float32)},
                                 {"a.weight": np.zeros((2, 3), np.float32)})},
         r"m entry 'a.weight' \(float32, \[3, 2\]\)"),
        ({"moments": AdamMoments(1, {"a.weight": np.zeros((2, 3), np.float32)},
                                 {"a.weight": np.zeros((2, 3))})},
         r"v entry 'a.weight' \(float64"),
        ({"moments": AdamMoments(0, {"a.weight": np.zeros((2, 3), np.float32)},
                                 {"a.weight": np.zeros((2, 3), np.float32)})},
         "m and v must be empty exactly when adam_t is 0: adam_t 0"),
        ({"moments": AdamMoments(3, {}, {})}, "m and v must be empty exactly when adam_t is 0: adam_t 3"),
    ],
    ids=["epoch-negative", "moment-step-negative", "moment-without-v", "dtype-int32",
         "rng-state-not-json", "rng-state-not-dict", "moment-names-unknown-array",
         "moment-shape-differs", "moment-dtype-differs", "moments-at-step-0", "no-moments-at-step-3"],
)
def test_save_rejects_what_the_format_cannot_hold(tmp_path, fields, match):
    path = tmp_path / "old.ckpt"
    path.write_bytes(b"previous contents")
    with pytest.raises(FormatError, match=match):
        save_checkpoint(replace(_tiny_checkpoint(), **fields), path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ckpt"]


# values that format 3's u32 epoch, u16 name lengths and u32 dims could not
# hold, and arrays that are neither little-endian nor contiguous (without
# moments, which may name only arrays the checkpoint holds)
@pytest.mark.parametrize(
    "fields",
    [
        {"epoch": 2**32},
        {"arrays": {"a" * 70_000: np.ones(3, np.float32)}, "moments": AdamMoments()},
        {"arrays": {"wide": np.zeros((0, 2**32), np.float32)}, "moments": AdamMoments()},
        {"arrays": {"big_endian": np.random.default_rng(3).standard_normal((3, 4)).astype(">f4"),
                    "transposed": np.random.default_rng(4).standard_normal((5, 3)).T},
         "moments": AdamMoments()},
    ],
    ids=["epoch-over-u32", "name-over-u16", "dim-over-u32", "byte-order-and-strides"],
)
def test_round_trip_bit_exact(tmp_path, fields):
    ckpt = replace(_tiny_checkpoint(), **fields)
    save_checkpoint(ckpt, tmp_path / "round.ckpt")
    loaded = load_checkpoint(tmp_path / "round.ckpt")
    assert loaded.epoch == ckpt.epoch and loaded.arrays.keys() == ckpt.arrays.keys()
    for name, want in ckpt.arrays.items():
        got, native = loaded.arrays[name], want.astype(want.dtype.newbyteorder("="))
        assert got.dtype.isnative and got.flags.writeable, name
        assert (got.dtype, got.shape) == (native.dtype, native.shape), name
        assert got.tobytes() == native.tobytes(), name


def test_no_optimizer_state_is_empty_moments_at_step_0(tmp_path):
    ckpt = replace(_tiny_checkpoint(), moments=AdamMoments())
    assert Checkpoint(ckpt.config, ckpt.arrays).moments == AdamMoments(0, {}, {})
    save_checkpoint(ckpt, tmp_path / "fresh.ckpt")
    blob = (tmp_path / "fresh.ckpt").read_bytes()
    assert _load(tmp_path, "fresh", blob).moments == AdamMoments(0, {}, {})
    # only adam_t is edited, so the arrays and their bytes still agree
    with pytest.raises(FormatError, match="header is malformed.*m and v must be empty exactly when adam_t is 0"):
        _load(tmp_path, "step-2", _with_fields(_set("adam_t", 2))(blob))


def _entry(group, i, field, value):
    """A header edit setting field (0 name, 1 dtype, 2 shape) of entry i of group."""
    return _with_fields(lambda head: head[group][i].__setitem__(field, value))


# each edit leaves a CRC-valid file that breaks one rule of the array entries
@pytest.mark.parametrize(
    "edit,match",
    [
        (_entry("arrays", 0, 2, [2**32 - 1] * 4), "truncated inside"),
        (_entry("arrays", 0, 2, [0, 2**63]), "header is malformed"),
        (_with_header(lambda raw: raw.replace(b'"a.bias"', b'"a.bi\xff\xfe"')), "header is malformed"),
        (_entry("arrays", 1, 0, "a.weight"), "repeats"),
        (_entry("arrays", 0, 1, "int32"), "unknown dtype"),
        (_entry("v", 0, 0, "a.bias"), "m and v name different arrays"),
        (_with_fields(_set("v", [])), "m and v name different arrays"),
        (lambda blob: _with_payload(blob, blob[8:-4] + b"\x00"), "arrays end at payload byte"),
    ],
    ids=["record-size-overflows-int64", "record-dim-over-int64", "record-name-not-utf8",
         "record-name-twice", "record-dtype-unknown", "moment-names-differ", "moment-without-v",
         "byte-after-arrays"],
)
def test_checkpoint_malformed_records(tmp_path, checkpoint_blob, edit, match):
    with pytest.raises(FormatError, match=match):
        _load(tmp_path, "bad", edit(checkpoint_blob))


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
    return read_volume(path)


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
