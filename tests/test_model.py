"""Model assembly tests: config, shapes, determinism, checkpoints."""

import collections
import dataclasses
import functools
import hashlib
import inspect
import os
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from earunet import blocks as B
from earunet import losses
from earunet import model as M
from earunet.checkpoint import (
    VERSION,
    AdamMoments,
    Checkpoint,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from earunet.errors import (
    ConfigError, DegenerateBatchError, EarUnetError, FormatError, InputError, ParameterError,
    ShapeError,
)
from earunet.tensor import INFER, TRAIN, ConvParams, Tensor4
from oracles import max_rel_err

TABLE_CHANNELS = (48, 24, 32, 56, 112, 160, 272, 448, 1792)
TABLE_LAYERS = (1, 2, 4, 4, 6, 6, 8, 2, 1)
TABLE_STRIDES = (1, 2, 1, 2, 2, 2, 1, 2, 1)


class TestConfig:
    def test_defaults_match_stage_table(self):
        cfg = M.ModelConfig(256, 1.0, 1.0)
        assert tuple(s.out_channels for s in cfg.stage_specs) == TABLE_CHANNELS
        assert tuple(s.layers for s in cfg.stage_specs) == TABLE_LAYERS
        assert tuple(s.stride for s in cfg.stage_specs) == TABLE_STRIDES
        assert M.SKIP_STAGES == (1, 3, 4, 5, 7)  # each stage a stride-2 stage follows

    def test_width_scaling_rounds_to_8(self):
        cfg = M.ModelConfig(64, 0.25, 0.25)
        assert cfg.stage_specs[0].out_channels == 16  # round8(0.25*48)=16
        assert cfg.stage_specs[1].out_channels == 8  # max(8, round8(6))
        assert all(c % 8 == 0 and c >= 8 for c in (s.out_channels for s in cfg.stage_specs))

    def test_depth_scaling_ceil(self):
        cfg = M.ModelConfig(64, 1.0, 0.25)
        assert tuple(s.layers for s in cfg.stage_specs) == (1, 1, 1, 1, 2, 2, 2, 1, 1)

    def test_input_size_must_divide_32(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(100, 1.0, 1.0)

    @pytest.mark.parametrize(
        "input_size,width_mult,depth_mult",
        [
            ((32, 32), 1.0, 1.0),  # the (h, w) pair of format-2 checkpoints
            ([32], 1.0, 1.0),
            (np.float32(32.0), 1.0, 1.0),
            (np.array(32), 1.0, 1.0),
            (np.int64(0), 1.0, 1.0),
            (np.int64(33), 1.0, 1.0),
            # a numpy int (as an array shape gives) is a valid size, so
            # these rows fail on a multiplier alone
            (np.int64(32), "1.0", 1.0),
            (np.int64(32), True, 1.0),
            (np.int64(32), 1.0, float("nan")),
            (np.int64(32), float("inf"), 1.0),
            (np.int64(32), 0.0, 1.0),
            (np.int64(32), 1.0, -0.5),
            (32.0, 1.0, 1.0),
            ("32", 1.0, 1.0),
            (True, 1.0, 1.0),
            (0, 1.0, 1.0),
            (-32, 1.0, 1.0),
            (48, 1.0, 1.0),
        ],
    )
    def test_constructor_rejects_bad_values(self, input_size, width_mult, depth_mult):
        with pytest.raises(ConfigError):
            M.ModelConfig(input_size, width_mult, depth_mult)

    def test_config_is_three_values(self):
        cfg = M.ModelConfig(np.int64(64), 1, 0.5)
        assert cfg == M.ModelConfig(64, 1.0, 0.5)
        assert type(cfg.input_size) is int
        assert cfg.to_json_dict() == {"input_size": 64, "width_mult": 1.0, "depth_mult": 0.5}
        assert cfg.decoder_channels == M.BASE_DECODER_CHANNELS

    def test_bad_preset(self):
        with pytest.raises(ConfigError):
            M.preset_config("huge")

    def test_json_round_trip(self):
        cfg = M.preset_config("desk")
        assert M.ModelConfig.from_json_dict(cfg.to_json_dict()) == cfg


class TestBuild:
    def test_stage9_default_channels(self):
        cfg = M.ModelConfig(64, 1.0, 0.1)
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
        def param_count(params):
            return sum(arr.size for arr in M.named_trainable(params).values())

        counts = []
        for wm in (0.1, 0.25, 0.5, 1.0):
            cfg = M.ModelConfig(64, wm, 0.25)
            counts.append(param_count(M.build_model(cfg, np.random.default_rng(0))))
        assert counts == sorted(counts)
        counts = []
        for dm in (0.1, 0.5, 1.0, 1.5):
            cfg = M.ModelConfig(64, 0.25, dm)
            counts.append(param_count(M.build_model(cfg, np.random.default_rng(0))))
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

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16])
    def test_non_float_input_is_an_input_error(self, desk, dtype):
        # an integer input used to fail inside numpy in infer mode, and in
        # train mode to give probabilities from integer-truncated convs
        cfg, params = desk
        x = Tensor4(np.ones((2, 1, 64, 64), dtype=dtype))
        with pytest.raises(InputError, match=np.dtype(dtype).name):
            M.forward(params, cfg, x, INFER)
        with pytest.raises(InputError, match=np.dtype(dtype).name):
            M.forward_training(params, cfg, x, np.random.default_rng(0))

    @pytest.mark.parametrize("mode", [INFER, TRAIN])
    @pytest.mark.parametrize("model_dtype,input_dtype", [(np.float32, np.float64),
                                                         (np.float64, np.float32)])
    def test_input_dtype_must_match_parameters(self, mode, model_dtype, input_dtype):
        # the kernels compute in the input's dtype: a float64 input used to run
        # a float32 model in float64, at twice the memory
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0), dtype=model_dtype)
        x = np.random.default_rng(5).random((2, 1, 32, 32)).astype(input_dtype)
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        names = f"{np.dtype(input_dtype).name}.*{np.dtype(model_dtype).name}"
        with pytest.raises(InputError, match=names):
            M.forward(params, cfg, Tensor4(x), mode, np.random.default_rng(0))
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before

    @pytest.mark.parametrize("mode", [INFER, TRAIN])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_an_input_error(self, mode, bad):
        # one such pixel used to turn the output NaN (the whole batch in train
        # mode) and, in train mode, every running statistic with it
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        x = np.random.default_rng(5).random((2, 1, 32, 32), dtype=np.float32)
        x[0, 0, 3, 7] = bad
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        with pytest.raises(InputError, match="1 non-finite"):
            M.forward(params, cfg, Tensor4(x), mode, np.random.default_rng(0))
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before

    @pytest.mark.parametrize("mode", [INFER, TRAIN])
    def test_empty_batch_is_an_input_error(self, mode):
        # a train forward used to write NaN into stem_bn's running stats and
        # then fail inside numpy in the SE gate, as an infer forward did
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        with pytest.raises(EarUnetError, match="no images"):
            M.forward(params, cfg, Tensor4(np.zeros((0, 1, 32, 32), np.float32)), mode,
                      np.random.default_rng(0))
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before

    @pytest.mark.parametrize("entry", ["forward", "forward_training"])
    def test_train_batch_too_small_for_the_bottleneck(self, entry):
        # micro's bottleneck is 1x1, so one image gives train-mode BN one value
        # per channel there: stage 8 used to fail only after 19 batch norms had
        # moved their running stats. Infer mode runs the same batch.
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        x = Tensor4(np.random.default_rng(5).random((1, 1, 32, 32), dtype=np.float32))
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        run = {"forward": lambda: M.forward(params, cfg, x, TRAIN, np.random.default_rng(0)),
               "forward_training": lambda: M.forward_training(params, cfg, x,
                                                              np.random.default_rng(0))}[entry]
        with pytest.raises(DegenerateBatchError) as info:
            run()
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before
        assert info.match("batch of 1 at 32x32 .* 1x1 bottleneck")
        assert M.forward(params, cfg, x).dims == (1, 1, 32, 32)

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
        assert len(gate_inputs) == len(M.SKIP_STAGES)
        assert gate_inputs[0][1].dims[2] == 2 * (64 // 32)
        for (skip, up, _), stage in zip(gate_inputs, reversed(M.SKIP_STAGES)):
            assert skip is stage_out[stage]
            assert skip.dims[2] == up.dims[2]
        for (a, _, _), (b, _, _) in zip(gate_inputs, gate_inputs[1:]):
            assert b.dims[2] == 2 * a.dims[2]
        assert gate_inputs[-1][0].dims[2] == 64

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

    def test_unknown_mode_is_rejected_before_any_layer(self, desk, monkeypatch):
        cfg, params = desk
        calls = []
        unit = B.conv_bn_act

        def recording(*args):
            calls.append(args[3])
            return unit(*args)

        monkeypatch.setattr(B, "conv_bn_act", recording)
        x = Tensor4(np.zeros((1, 1, 64, 64), dtype=np.float32))
        with pytest.raises(ParameterError, match="mode"):
            M.forward(params, cfg, x, "bogus", np.random.default_rng(0))
        assert calls == []
        M.forward(params, cfg, x, INFER)  # the recorder sees every unit of a valid forward
        assert calls and set(calls) == {INFER}

    def test_infer_forward_leaves_state_untouched(self, desk):
        cfg, params = desk
        before = {k: v.tobytes() for k, v in M.named_state(params).items()}
        x = Tensor4(np.random.default_rng(4).random((2, 1, 64, 64), dtype=np.float32))
        M.forward(params, cfg, x, INFER)
        assert {k: v.tobytes() for k, v in M.named_state(params).items()} == before

    @pytest.mark.parametrize("dtype,big", [(np.float32, 200), (np.float64, 800)])
    @pytest.mark.parametrize("mode", [TRAIN, INFER])
    def test_head_clips_into_open_interval(self, mode, dtype, big):
        # the head's logit is the bias alone; at +-big the plain sigmoid is
        # exactly 1 or 0, and the head clips it into (0, 1)
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0), dtype=dtype)
        params.out_conv.weight[...] = 0
        x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32)).astype(dtype))
        for bias, want in ((big, np.nextafter(dtype(1), dtype(0))), (-big, np.finfo(dtype).tiny)):
            params.out_conv.bias[...] = bias
            y = M.forward(params, cfg, x, mode, np.random.default_rng(2)).data
            assert y.dtype == dtype and np.all(y == want)


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
        assert list(grads) == list(M.named_trainable(params))  # names and order of iter_params
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

    def test_tapes_recorded_twice_are_bit_identical(self, micro64):
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(10).random((2, 1, 32, 32)))
        go = np.random.default_rng(11).standard_normal((2, 1, 32, 32))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(12))
        a, gx_a = M.backward_from_context(params, tape, go)
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(12))
        b, gx_b = M.backward_from_context(params, tape, go)
        assert list(a) == list(b)
        assert np.array_equal(gx_a, gx_b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k

    def test_backward_consumes_its_tape(self, micro64):
        # each step is popped as it runs, so its saved arrays are freed early
        cfg, params = micro64
        x = Tensor4(np.random.default_rng(10).random((2, 1, 32, 32)))
        go = np.random.default_rng(11).standard_normal((2, 1, 32, 32))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(12))
        M.backward_from_context(params, tape, go)
        assert tape == []
        with pytest.raises(ParameterError, match="encoder.stage1.conv.weight"):
            M.backward_from_context(params, tape, go)

    def test_tape_of_other_params_is_rejected(self, micro64):
        # gradients are keyed by the arrays the tape read, so a tape recorded
        # with one model cannot be named by another model's parameters
        cfg, params = micro64
        other = M.build_model(cfg, np.random.default_rng(3), dtype=np.float64)
        x = Tensor4(np.random.default_rng(13).random((2, 1, 32, 32)))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(14))
        with pytest.raises(ParameterError, match="encoder.stage1.conv.weight"):
            M.backward_from_context(other, tape, np.ones((2, 1, 32, 32)))

    def test_infer_forward_between_leaves_gradients(self, micro64):
        # an infer forward (a validation pass) between a train forward and
        # its backward must leave nothing behind that the backward reads
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
        report = check_model(cfg, tensors=10, entries_per_tensor=2)
        assert report.max_rel_err < 1e-3, report.worst
        assert report.passed

    def test_check_report_passes_only_below_tol(self):
        # CI's exit decision for the full gradient check
        from earunet.gradcheck import TOL, CheckReport

        assert not CheckReport(max_rel_err=TOL).passed
        assert CheckReport(max_rel_err=np.nextafter(TOL, 0)).passed


def reachable_arrays(obj) -> list[np.ndarray]:
    """Every ndarray reachable from obj through the attributes of
    dataclass instances, tuples, lists, dicts, partials, bound methods and
    closures, and the base of every view among them."""
    found, seen, todo = [], set(), [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
            todo.append(o.base)
        elif dataclasses.is_dataclass(o) and not isinstance(o, type):
            todo.extend(vars(o).values())
        elif isinstance(o, (tuple, list)):
            todo.extend(o)
        elif isinstance(o, dict):
            todo.extend(o.values())
        elif isinstance(o, functools.partial):
            todo.extend((o.func, *o.args, *o.keywords.values()))
        elif inspect.ismethod(o):
            todo.append(o.__self__)
        elif inspect.isfunction(o) and o.__closure__:
            todo.extend(c.cell_contents for c in o.__closure__)
    return found


class TestLeanTape:
    """A train tape keeps BN's normalized input of each conv unit and
    recomputes activations, SE products and decoder concats in backward."""

    def test_mbconv_step_holds_no_expanded_activation_but_xh(self):
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32), dtype=np.float32))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(2))
        steps = [s for s in tape if getattr(s, "func", None) is B.mbconv_backward]
        checked = 0
        for step in steps:
            ctx = step.args[0]
            hidden, dw_xh = ctx.p.dw_conv.out_channels, ctx.dw.saved[0]
            if (ctx.expand is None or hidden == ctx.p.project_conv.out_channels
                    or dw_xh.shape[2] * dw_xh.shape[3] == 1):
                continue
            # activations of the expanded width: not parameters, `hidden` channels,
            # at least the depthwise output's size (the SE gate is 1x1 per channel)
            own = {id(a) for _, a, _ in B.named_arrays(ctx.p)}
            wide = [a for a in reachable_arrays(step) if id(a) not in own
                    and a.ndim == 4 and a.shape[1] == hidden and a.size >= dw_xh.size]
            xh = {id(ctx.expand.saved[0]), id(dw_xh)}
            assert {id(a) for a in wide} == xh
            checked += 1
        assert checked >= 5

    def test_infer_forward_keeps_no_mbconv_context(self, desk, monkeypatch):
        # infer mode drops each block's context, and with it the block's
        # input, when the block returns: none is alive at the next block's start
        cfg, params = desk
        ctxs, alive, mbconv_forward = [], [], B.mbconv_forward

        def watched(*args):
            alive.append(sum(r() is not None for r in ctxs))
            y, ctx = mbconv_forward(*args)
            ctxs.append(weakref.ref(ctx))
            return y, ctx

        monkeypatch.setattr(B, "mbconv_forward", watched)
        x = Tensor4(np.random.default_rng(4).random((2, 1, 64, 64), dtype=np.float32))
        M.forward(params, cfg, x, INFER)
        assert alive == [0] * sum(map(len, params.stages))
        assert all(r() is None for r in ctxs)

    def test_train_step_updates_each_running_stat_once(self, monkeypatch):
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0), dtype=np.float64)
        calls = collections.Counter()
        batchnorm2d = B.batchnorm2d

        def counting(x, s):
            calls[id(s.running_mean)] += 1
            return batchnorm2d(x, s)

        monkeypatch.setattr(B, "batchnorm2d", counting)
        x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32)))
        _, tape = M.forward_training(params, cfg, x, np.random.default_rng(2))
        after_forward = {k: v.copy() for k, v in M.named_state(params).items()}
        M.backward_from_context(params, tape, np.ones((2, 1, 32, 32)))
        running = [a for name, a, _ in M.iter_params(params) if name.endswith(".running_mean")]
        assert calls == {id(a): 1 for a in running}
        for k, v in M.named_state(params).items():
            assert np.array_equal(v, after_forward[k]), k

    def test_desk_tape_and_backward_peak(self, desk):
        # desk n=8 float32; the tape of (xh, s, y) per swish unit held
        # 53.3 MiB and the backward peaked at 72.7 MiB. The lean tape peaked
        # at 36.7 MiB, 36.3 MiB with the wide-row gather (a gather that copies
        # the crop of its framed buffer peaked at 37.9 MiB), 35.9 MiB with the
        # dense weight gradient's taps read in place, and peaks at 31.5 MiB
        # with each step freed as it runs and the attention gate's skip
        # gradient summed in place (in decoder.level5's residual backward).
        # The train forward's own peak, 28.4 MiB, is then within 3 MiB of it
        cfg, params = desk
        rng = np.random.default_rng(3)
        x = Tensor4(rng.random((8, 1, 64, 64), dtype=np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            y, tape = M.forward_training(params, cfg, x, rng)
            forward_peak = tracemalloc.get_traced_memory()[1] - base
            tape_bytes = tracemalloc.get_traced_memory()[0] - base - y.data.nbytes
            grad = np.full(y.dims, 1.0 / y.data.size, dtype=np.float32)
            tracemalloc.reset_peak()
            M.backward_from_context(params, tape, grad)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        mib = 1 << 20
        assert tape_bytes <= 24 * mib, f"tape holds {tape_bytes / mib:.1f} MiB"
        assert forward_peak <= 29 * mib, f"forward peaks at {forward_peak / mib:.1f} MiB"
        assert peak <= 32 * mib, f"backward peaks at {peak / mib:.1f} MiB"


def subnormal_count(a: np.ndarray) -> int:
    tiny = np.finfo(np.float32).tiny
    if a.dtype != np.float32 or a.ndim != 4:
        return 0
    return int(np.count_nonzero((a != 0) & (np.abs(a) < tiny)))


class TestSubnormals:
    """x86 runs a multiply-add with a subnormal operand through a slow
    microcode assist; the gate's product and gradient and the sigmoid
    derivative flush theirs (``tensor.flush_subnormal``)."""

    @staticmethod
    def count_subnormal_operands(monkeypatch) -> collections.Counter:
        """Subnormal operands of every conv2d and conv2d_backward call made
        through blocks and model, and the calls, keyed by function name."""
        counts = collections.Counter()
        for mod in (B, M):
            for name in ("conv2d", "conv2d_backward"):
                def counting(*args, _f=getattr(mod, name), _key=name):
                    counts[_key, "calls"] += 1
                    for a in args:
                        a = a.data if isinstance(a, Tensor4) else a
                        a = a.weight if isinstance(a, ConvParams) else a
                        counts[_key] += subnormal_count(a)
                    return _f(*args)

                monkeypatch.setattr(mod, name, counting)
        return counts

    @staticmethod
    def desk_step():
        """Model (seed 0), train forward tape and combo_loss gradient of one
        desk n=8 step."""
        cfg = M.preset_config("desk")
        params = M.build_model(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        x = Tensor4(rng.random((8, 1, 64, 64), dtype=np.float32))
        target = Tensor4((rng.random(x.dims) < 0.3).astype(np.float32))
        y, tape = M.forward_training(params, cfg, x, rng)
        _, grad = losses.combo_loss(y, target, losses.LossWeights(1.0, 1.0))
        return params, tape, grad

    def test_desk_train_step_feeds_convs_few_subnormals(self, monkeypatch):
        # before the flush: 11,280 subnormal operands reached conv2d and
        # 92,990 conv2d_backward, almost all at 64x64 in decoder.level5.
        # After it: 0 and 1,723, from normal but tiny gradients that the
        # head's and psi's 1x1 convs scale below tiny
        counts = self.count_subnormal_operands(monkeypatch)
        params, tape, grad = self.desk_step()
        M.backward_from_context(params, tape, grad)
        assert counts["conv2d"] == 0
        assert counts["conv2d_backward"] <= 0.02 * 92_990

    def test_desk_infer_forward_feeds_convs_no_subnormal(self, monkeypatch):
        # the reason se_block_forward leaves the SE product unflushed
        counts = self.count_subnormal_operands(monkeypatch)
        cfg = M.preset_config("desk")
        params = M.build_model(cfg, np.random.default_rng(0))
        x = Tensor4(np.random.default_rng(1).random((16, 1, 64, 64), dtype=np.float32))
        M.forward(params, cfg, x)
        assert counts["conv2d", "calls"] > 0
        assert counts["conv2d"] == 0

    def test_backward_is_exactly_linear_under_power_of_two_scaling(self):
        # scaling grad_out by 2**k moves no value across tiny that a flush
        # would zero, so the flushes' zeros change no gradient
        params, tape, grad = self.desk_step()
        base, gx = M.backward_from_context(params, tape, grad)
        for k in (20, 40):
            params, tape, _ = self.desk_step()  # a backward consumes its tape
            scaled, gx_k = M.backward_from_context(params, tape, np.ldexp(grad, k))
            assert list(scaled) == list(base)
            assert np.array_equal(gx_k, np.ldexp(gx, k))
            for name, g in base.items():
                assert np.array_equal(scaled[name], np.ldexp(g, k)), (k, name)

    def test_recomputed_level_input_has_the_forward_bytes(self, monkeypatch):
        # a gate in the saturation band: alpha = sigmoid(-87) is a normal
        # float32 near tiny, so x*alpha is subnormal, and flushed, where |x| < 0.7
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(0))
        gate, res = params.levels[-1]
        gate.psi.weight[:] = 0
        gate.psi.bias[:] = -87.0
        seen = {}
        forward, backward = B.residual_block_forward, B.residual_block_backward

        def recording_forward(x, p, mode):
            if p is res:
                seen["forward"] = x.data.copy()
            return forward(x, p, mode)

        def recording_backward(ctx, x, g, grads):
            if ctx.p is res:
                seen["backward"] = x.data.copy()
            return backward(ctx, x, g, grads)

        monkeypatch.setattr(B, "residual_block_forward", recording_forward)
        monkeypatch.setattr(B, "residual_block_backward", recording_backward)
        x = Tensor4(np.random.default_rng(1).random((2, 1, 32, 32), dtype=np.float32))
        y, tape = M.forward_training(params, cfg, x, np.random.default_rng(2))
        gate_ctx = [s for s in tape if getattr(s, "func", None) is M._level_step][-1].args[0]
        M.backward_from_context(params, tape, np.ones(y.dims, dtype=np.float32))
        raw = gate_ctx.x.data * gate_ctx.alpha
        assert subnormal_count(raw) and np.any(np.abs(raw) >= np.finfo(np.float32).tiny)
        assert seen["backward"].tobytes() == seen["forward"].tobytes()


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

    @pytest.mark.parametrize(
        "preset,digest",
        [
            ("micro", "75583722b33078a1796416306c61be8e19de871ce1e8890be3175f754a26252f"),
            ("desk", "4a030cd01cf7da140bc866b34ff0004e15450b7af8a192ee3553c0164ee11e8a"),
        ],
    )
    def test_array_layout_is_pinned(self, preset, digest):
        # a checkpoint names its arrays: a rename, reorder, reshape or dtype
        # change breaks every saved file, even one that keeps the sorted name
        # order the gradient canary compares in. Such a change raises VERSION
        # and pins the new digest of the "name dtype shape" lines
        params = M.build_model(M.preset_config(preset), np.random.default_rng(0))
        lines = "".join(f"{k} {a.dtype} {a.shape}\n" for k, a in M.named_state(params).items())
        assert (VERSION, hashlib.sha256(lines.encode()).hexdigest()) == (4, digest)

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

    def test_micro_round_trip_infer_and_train_bit_exact(self, tmp_path):
        # a config and the arrays are the whole model: nothing else needs saving
        cfg = M.preset_config("micro")
        params = M.build_model(cfg, np.random.default_rng(9))
        x = Tensor4(np.random.default_rng(0).random((2, 1, 32, 32), dtype=np.float32))
        M.forward(params, cfg, x, TRAIN, np.random.default_rng(1))  # moves the running stats
        path = tmp_path / "micro.ckpt"
        save_checkpoint(Checkpoint(cfg, M.named_state(params)), path)
        loaded = load_checkpoint(path)
        assert loaded.config == cfg
        params2 = M.build_model(loaded.config, np.random.default_rng(999))
        restore_params(M.named_state(params2), loaded)

        def outputs(p):
            train = M.forward(p, cfg, x, TRAIN, np.random.default_rng(2))
            return M.forward(p, cfg, x, INFER).data, train.data

        for a, b in zip(outputs(params), outputs(params2)):
            assert np.array_equal(a, b)
        after, after2 = M.named_state(params), M.named_state(params2)
        for k in after:
            assert np.array_equal(after[k], after2[k]), k

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

    @pytest.mark.parametrize("case", ["other preset", "reshaped array"])
    def test_restore_rejects_other_arrays_and_restores_nothing(self, tmp_path, case):
        cfg, _, ckpt, _ = self.make(tmp_path)
        if case == "other preset":
            desk = M.build_model(M.preset_config("desk"), np.random.default_rng(0))
            ckpt.arrays, match = M.named_state(desk), "do not match model"
        else:
            ckpt.arrays["head.conv.weight"] = ckpt.arrays["head.conv.weight"].ravel()
            match = "head.conv.weight: checkpoint shape"
        live = M.named_state(M.build_model(cfg, np.random.default_rng(999)))
        before = {k: v.tobytes() for k, v in live.items()}
        with pytest.raises(FormatError, match=match):
            restore_params(live, ckpt)
        assert {k: v.tobytes() for k, v in live.items()} == before

    def test_loaded_arrays_are_writable_and_restore_casts(self, tmp_path):
        cfg, params, _, path = self.make(tmp_path)
        loaded = load_checkpoint(path)
        assert all(a.flags.writeable and a.dtype.isnative for a in loaded.arrays.values())
        # float64 blobs restore into the float32 model through the assignment's cast
        loaded.arrays = {k: v.astype(np.float64) for k, v in loaded.arrays.items()}
        live = M.named_state(M.build_model(cfg, np.random.default_rng(999)))
        restore_params(live, loaded)
        for k, v in M.named_state(params).items():
            assert live[k].dtype == v.dtype and np.array_equal(live[k], v), k

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
