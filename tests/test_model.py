"""Model assembly tests: config resolution, shapes, determinism, checkpoints."""

import dataclasses
import os
import re

import numpy as np
import pytest

from earunet import blocks as B
from earunet import model as M
from earunet.checkpoint import (
    AdamMoments,
    Checkpoint,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from earunet.errors import ConfigError, FormatError, ParameterError, ShapeError, VersionError
from earunet.tensor import INFER, TRAIN, BatchNormState, Tensor4
from oracles import max_rel_err

TABLE_CHANNELS = (48, 24, 32, 56, 112, 160, 272, 448, 1792)
TABLE_LAYERS = (1, 2, 4, 4, 6, 6, 8, 2, 1)
TABLE_STRIDES = (1, 2, 1, 2, 2, 2, 1, 2, 1)


class TestConfig:
    def test_defaults_match_stage_table(self):
        cfg = M.resolve_config(256, 1.0, 1.0)
        assert tuple(s.out_channels for s in cfg.stage_specs) == TABLE_CHANNELS
        assert tuple(s.layers for s in cfg.stage_specs) == TABLE_LAYERS
        assert tuple(s.stride for s in cfg.stage_specs) == TABLE_STRIDES

    def test_width_scaling_rounds_to_8(self):
        cfg = M.resolve_config(64, 0.25, 0.25)
        assert cfg.stage_specs[0].out_channels == 16  # round8(0.25*48)=16
        assert cfg.stage_specs[1].out_channels == 8  # max(8, round8(6))
        assert all(c % 8 == 0 and c >= 8 for c in (s.out_channels for s in cfg.stage_specs))

    def test_depth_scaling_ceil(self):
        cfg = M.resolve_config(64, 1.0, 0.25)
        assert tuple(s.layers for s in cfg.stage_specs) == (1, 1, 1, 1, 2, 2, 2, 1, 1)

    def test_input_size_must_divide_32(self):
        with pytest.raises(ConfigError):
            M.resolve_config(100, 1.0, 1.0)

    def test_bad_preset(self):
        with pytest.raises(ConfigError):
            M.preset_config("huge")

    def test_json_round_trip(self):
        cfg = M.preset_config("desk")
        assert M.ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestBuild:
    def test_stage9_default_channels(self):
        cfg = M.resolve_config(64, 1.0, 0.1)
        params = M.build_model(cfg, np.random.default_rng(0))
        assert params.head_conv9.out_channels == 1792

    def test_seed_determinism(self):
        cfg = M.preset_config("micro")
        a = M.named_state(M.build_model(cfg, np.random.default_rng(5)))
        b = M.named_state(M.build_model(cfg, np.random.default_rng(5)))
        assert a.keys() == b.keys()
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_unique_names(self):
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        names = [name for name, _, _ in M.iter_params(params)]
        assert len(names) == len(set(names))

    def test_param_count_monotone_in_multipliers(self):
        counts = []
        for wm in (0.1, 0.25, 0.5, 1.0):
            cfg = M.resolve_config(64, wm, 0.25)
            counts.append(M.parameter_count(M.build_model(cfg, np.random.default_rng(0))))
        assert counts == sorted(counts)
        counts = []
        for dm in (0.1, 0.5, 1.0, 1.5):
            cfg = M.resolve_config(64, 0.25, dm)
            counts.append(M.parameter_count(M.build_model(cfg, np.random.default_rng(0))))
        assert counts == sorted(counts)

    def test_survive_p_schedule(self):
        cfg = M.preset_config("desk")
        params = M.build_model(cfg, np.random.default_rng(0))
        survives = [b.survive_p for stage in params.stages for b in stage]
        assert survives[0] == 1.0
        assert abs(survives[-1] - 0.8) < 1e-12
        assert all(survives[i] >= survives[i + 1] for i in range(len(survives) - 1))


@pytest.fixture(scope="module")
def desk():
    cfg = M.preset_config("desk")
    params = M.build_model(cfg, np.random.default_rng(7))
    return cfg, params


class TestForward:
    def test_output_dims_and_range(self, desk):
        cfg, params = desk
        x = Tensor4(np.random.default_rng(0).random((2, 1, 64, 64), dtype=np.float32))
        y = M.forward(params, cfg, x)
        assert y.dims == (2, 1, 64, 64)
        assert np.all(y.data > 0) and np.all(y.data < 1)

    def test_input_shape_error(self, desk):
        cfg, params = desk
        with pytest.raises(ShapeError):
            M.forward(params, cfg, Tensor4(np.zeros((1, 1, 32, 32), dtype=np.float32)))
        with pytest.raises(ShapeError):
            M.forward(params, cfg, Tensor4(np.zeros((1, 2, 64, 64), dtype=np.float32)))

    def test_batch_independence_infer(self, desk):
        cfg, params = desk
        rng = np.random.default_rng(1)
        xa = rng.random((1, 1, 64, 64), dtype=np.float32)
        xb = rng.random((1, 1, 64, 64), dtype=np.float32)
        pair = M.forward(params, cfg, Tensor4(np.concatenate([xa, xb]))).data
        ya = M.forward(params, cfg, Tensor4(xa)).data
        yb = M.forward(params, cfg, Tensor4(xb)).data
        assert np.max(np.abs(pair - np.concatenate([ya, yb]))) < 1e-6

    def test_skip_resolutions_match_levels(self, desk, monkeypatch):
        cfg, params = desk
        block_inputs, gate_inputs = [], []

        def recording(fn, log):
            def wrapped(*args):
                log.append(args)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(B, "mbconv_forward", recording(B.mbconv_forward, block_inputs))
        gate = recording(B.attention_gate_forward, gate_inputs)
        monkeypatch.setattr(B, "attention_gate_forward", gate)
        x = Tensor4(np.random.default_rng(2).random((1, 1, 64, 64), dtype=np.float32))
        M.forward_training(params, cfg, x, np.random.default_rng(0))
        # a stage's output is the input of the next stage's first block
        first = np.cumsum([0] + [len(stage) for stage in params.stages])
        stage_out = {s: block_inputs[first[s - 1]][0] for s in range(1, len(params.stages) + 1)}
        # decoder doubles the bottleneck resolution five times, and each level
        # gates the output of its skip stage (deepest first)
        assert len(gate_inputs) == len(cfg.skip_stages)
        assert gate_inputs[0][1].h == 2 * (64 // 32)
        for (skip, up, _), stage in zip(gate_inputs, reversed(cfg.skip_stages)):
            assert skip is stage_out[stage]
            assert skip.h == up.h
        for (a, _, _), (b, _, _) in zip(gate_inputs, gate_inputs[1:]):
            assert b.h == 2 * a.h
        assert gate_inputs[-1][0].h == 64

    def test_forward_determinism(self, desk):
        cfg, params = desk
        x = Tensor4(np.random.default_rng(3).random((1, 1, 64, 64), dtype=np.float32))
        a = M.forward(params, cfg, x, TRAIN, np.random.default_rng(11)).data
        b = M.forward(params, cfg, x, TRAIN, np.random.default_rng(11)).data
        assert np.array_equal(a, b)

    def test_train_mode_needs_rng(self, desk):
        cfg, params = desk
        x = Tensor4(np.zeros((1, 1, 64, 64), dtype=np.float32))
        with pytest.raises(ParameterError, match="rng"):
            M.forward(params, cfg, x, TRAIN)
        with pytest.raises(ParameterError, match="rng"):
            M.forward_training(params, cfg, x, None)

    def test_unknown_mode_is_rejected_before_any_layer(self, desk):
        cfg, params = desk
        bns = list(bn_states(params))
        before = [bn.mode for bn in bns]
        x = Tensor4(np.zeros((1, 1, 64, 64), dtype=np.float32))
        with pytest.raises(ParameterError, match="mode"):
            M.forward(params, cfg, x, "bogus", np.random.default_rng(0))
        assert bns and [bn.mode for bn in bns] == before

    def test_infer_forward_leaves_state_untouched(self, desk):
        cfg, params = desk
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        modes = [bn.mode for bn in bn_states(params)]
        x = Tensor4(np.random.default_rng(4).random((2, 1, 64, 64), dtype=np.float32))
        M.forward(params, cfg, x, INFER)
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before
        assert [bn.mode for bn in bn_states(params)] == modes


def bn_states(obj):
    """Every BatchNormState reachable from a parameter tree."""
    if isinstance(obj, BatchNormState):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from bn_states(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from bn_states(getattr(obj, f.name))


@pytest.fixture(scope="module")
def micro64():
    cfg = M.preset_config("micro")
    params = M.build_model(cfg, np.random.default_rng(3), dtype=np.float64)
    return cfg, params


def train_grads(params, cfg, x, grad_out, rng):
    _, ctx = M.forward_training(params, cfg, x, rng)
    return M.backward_from_context(params, ctx, grad_out)[0]


class TestBackward:
    def test_zero_grad_out(self, micro64):
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(0).random((2, 1, 32, 32)))
        grads = train_grads(params, cfg, x, np.zeros((2, 1, 32, 32)), np.random.default_rng(1))
        assert all(not g.any() for g in grads.values())

    def test_every_trainable_receives_gradient(self, micro64):
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32)))
        go = np.random.default_rng(2).standard_normal((2, 1, 32, 32))
        grads = train_grads(params, cfg, x, go, np.random.default_rng(3))
        assert set(grads.keys()) == set(M.named_trainable(params).keys())
        for k, g in grads.items():
            assert g.shape == M.named_trainable(params)[k].shape, k

    def test_gradient_determinism(self, micro64):
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(4).random((2, 1, 32, 32)))
        go = np.random.default_rng(5).standard_normal((2, 1, 32, 32))
        a = train_grads(params, cfg, x, go, np.random.default_rng(6))
        b = train_grads(params, cfg, x, go, np.random.default_rng(6))
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_backward_twice_is_bit_identical(self, micro64):
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(10).random((2, 1, 32, 32)))
        go = np.random.default_rng(11).standard_normal((2, 1, 32, 32))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(12))
        a, gx_a = M.backward_from_context(params, tape, go)
        b, gx_b = M.backward_from_context(params, tape, go)
        assert list(a) == list(b)
        assert np.array_equal(gx_a, gx_b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_infer_forward_between_leaves_gradients(self, micro64):
        # an infer forward (a validation pass) sets every BN to infer mode
        # before the backward of an earlier train forward runs
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(7).random((2, 1, 32, 32)))
        go = np.random.default_rng(8).standard_normal((2, 1, 32, 32))
        want = train_grads(params, cfg, x, go, np.random.default_rng(9))
        _, ctx = M.forward_training(params, cfg, x, np.random.default_rng(9))
        M.forward(params, cfg, x, INFER)
        got, _ = M.backward_from_context(params, ctx, go)
        for k in want:
            assert np.array_equal(got[k], want[k]), k

    def test_spot_finite_differences(self, micro64):
        # a fast spot check of 10 sampled tensors; check_model with tensors=None covers all
        from earunet.gradcheck import check_model

        cfg, _ = micro64
        report = check_model(cfg, seed=0, tensors=10, entries_per_tensor=2)
        assert report.max_rel_err < 1e-3, report.worst


class TestCheckpoint:
    def make(self, tmp_path, with_moments=False):
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(9))
        moments = None
        if with_moments:
            tr = M.named_trainable(params)
            moments = AdamMoments(
                t=3,
                m={k: np.full_like(v, 0.25) for k, v in tr.items()},
                v={k: np.full_like(v, 0.5) for k, v in tr.items()},
            )
        ckpt = Checkpoint(
            config=cfg,
            arrays={k: v.copy() for k, v in M.named_state(params).items()},
            moments=moments,
            rng_state=np.random.default_rng(13).bit_generator.state,
            epoch=4,
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return cfg, params, ckpt, path

    def test_round_trip_bit_exact_forward(self, tmp_path):
        cfg, params, ckpt, path = self.make(tmp_path)
        x = Tensor4(np.random.default_rng(0).random((1, 1, 32, 32), dtype=np.float32))
        y0 = M.forward(params, cfg, x).data.copy()

        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        assert loaded.epoch == 4
        assert loaded.rng_state == ckpt.rng_state
        params2 = M.build_model(cfg, np.random.default_rng(999))  # different init
        restore_params(M.named_state(params2), loaded)
        y1 = M.forward(params2, cfg, x).data
        assert np.array_equal(y0, y1)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("decoder.level2.res.bn1.running_var", -1.0),
            ("decoder.level2.res.bn1.running_var", 0.0),
            ("encoder.stage1.conv.weight", np.nan),
            ("head.conv.bias", np.inf),
            ("head.conv.weight", 1e300),  # finite in float64, not in the model's float32
        ],
    )
    def test_restore_rejects_bad_values_and_restores_nothing(self, tmp_path, name, value):
        cfg, _, ckpt, _ = self.make(tmp_path)
        ckpt.arrays[name] = ckpt.arrays[name].astype(np.float64)
        ckpt.arrays[name].flat[-1] = value
        live = M.named_state(M.build_model(cfg, np.random.default_rng(999)))
        before = {k: v.tobytes() for k, v in live.items()}
        with pytest.raises(FormatError, match=re.escape(name)):
            restore_params(live, ckpt)
        assert {k: v.tobytes() for k, v in live.items()} == before

    def test_moments_round_trip(self, tmp_path):
        _, _, ckpt, path = self.make(tmp_path, with_moments=True)
        loaded = load_checkpoint(path)
        assert loaded.moments.t == 3
        assert loaded.moments.m.keys() == ckpt.moments.m.keys()
        for k in ckpt.moments.m:
            assert np.array_equal(loaded.moments.m[k], ckpt.moments.m[k])
            assert np.array_equal(loaded.moments.v[k], ckpt.moments.v[k])

    def test_failed_write_keeps_old_file(self, tmp_path, monkeypatch):
        _, _, ckpt, path = self.make(tmp_path)
        before = path.read_bytes()
        ckpt.epoch += 1

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            save_checkpoint(ckpt, path)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_identical_writes(self, tmp_path):
        _, _, ckpt, path = self.make(tmp_path)
        other = tmp_path / "again.ckpt"
        save_checkpoint(ckpt, other)
        assert path.read_bytes() == other.read_bytes()

    def test_truncated_file(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_corrupt_payload_crc(self, tmp_path):
        _, _, _, path = self.make(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[200] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)
