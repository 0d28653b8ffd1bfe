"""Block tests: hand-composed primitive chains as oracles, plus gradients."""

import copy

import numpy as np
import pytest

from earunet import blocks as B
from earunet import tensor as T
from earunet.errors import ParameterError, ShapeError
from oracles import bn_infer_naive, max_rel_err, numeric_grad, se_naive

GRAD_TOL = 1e-3


def t4(arr):
    return T.Tensor4(np.asarray(arr, dtype=np.float64))


# Composite chains use a smaller step than the single-op suite: truncation
# error through several nonlinearities at 1e-3 exceeds the 1e-3 tolerance,
# and relu kinks must not be crossed by the perturbation.
BLOCK_STEP = 1e-5


def named_grads(params, grads):
    """The gradients a backward wrote under id(array), by the field path of
    each trainable array of `params`; exactly those arrays must be written."""
    trainable = {name: arr for name, arr, tr in B.named_arrays(params) if tr}
    assert set(grads) == {id(arr) for arr in trainable.values()}
    return {name: grads[id(arr)] for name, arr in trainable.items()}


def check_param_grads(loss, params, grads, tol=GRAD_TOL, step=BLOCK_STEP):
    """The backward wrote a gradient for exactly the block's trainable
    arrays (``named_grads``); then finite-difference every entry of every
    (shared, in-place) array."""
    analytic = named_grads(params, grads)
    for name, arr, trainable in B.named_arrays(params):
        if trainable:
            num = numeric_grad(lambda _: loss(), arr, step=step)
            err = max_rel_err(analytic[name], num)
            assert err < tol, f"{name}: rel err {err}"


class TestNamedArrays:
    def test_field_paths_skip_none_and_scalars(self):
        rng = np.random.default_rng(0)
        p = B.init_mbconv(rng, 4, 4, kernel=3, stride=1, expansion=1)
        named = list(B.named_arrays(p, "blk"))
        assert p.expand_conv is None and named[0][0] == "blk.dw_conv.weight"
        assert [n for n, _, _ in named if n.startswith("blk.se.")] == [
            "blk.se.fc1.weight", "blk.se.fc1.bias", "blk.se.fc2.weight", "blk.se.fc2.bias"
        ]
        assert all(isinstance(a, np.ndarray) for _, a, _ in named)
        assert named[0][1] is p.dw_conv.weight  # live arrays, not copies

    def test_running_stats_are_not_trainable(self):
        bn = B.init_bn(3)
        assert [(n, t) for n, _, t in B.named_arrays(bn)] == [
            ("gamma", True), ("beta", True), ("running_mean", False), ("running_var", False)
        ]

    def test_expansion_comes_first(self):
        p = B.init_mbconv(np.random.default_rng(1), 4, 6, kernel=3, stride=2, expansion=6)
        names = [n for n, _, _ in B.named_arrays(p)]
        assert names[:2] == ["expand_conv.weight", "expand_bn.gamma"]
        assert names.index("dw_conv.weight") < names.index("se.fc1.weight")
        assert names[-1] == "project_bn.running_var"


class TestSeBlock:
    def test_zero_params_gate_half(self):
        rng = np.random.default_rng(0)
        x = t4(rng.standard_normal((2, 4, 3, 3)))
        p = B.SeBlockParams(
            fc1=B.LinearParams(np.zeros((4, 2)), np.zeros(2)),
            fc2=B.LinearParams(np.zeros((2, 4)), np.zeros(4)),
        )
        out = B.se_block_forward(x, p)[0]
        assert np.allclose(out.data, 0.5 * x.data, atol=1e-12)

    def test_channel_symmetry(self):
        rng = np.random.default_rng(1)
        plane = rng.standard_normal((1, 1, 4, 4))
        x = t4(np.repeat(plane, 3, axis=1))
        # channel-symmetric weights: every fc row/column identical
        p = B.SeBlockParams(
            fc1=B.LinearParams(np.full((3, 2), 0.3), np.array([0.1, -0.2])),
            fc2=B.LinearParams(rng.standard_normal((2, 1)).repeat(3, axis=1), np.full(3, 0.05)),
        )
        out, ctx = B.se_block_forward(x, p)
        assert np.allclose(ctx.s[0], ctx.s[0, 0], atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = t4(rng.standard_normal((3, 6, 4, 5)))
        p = B.init_se(rng, 6, dtype=np.float64)
        got = B.se_block_forward(x, p)[0].data
        want = se_naive(x.data, p.fc1.weight, p.fc1.bias, p.fc2.weight, p.fc2.bias)
        assert np.allclose(got, want, rtol=0, atol=1e-12)

    def test_preserves_dims_and_gate_range(self):
        rng = np.random.default_rng(3)
        x = t4(rng.standard_normal((2, 6, 5, 4)))
        p = B.init_se(rng, 6, dtype=np.float64)
        out, ctx = B.se_block_forward(x, p)
        assert out.dims == x.dims
        assert np.all(ctx.s > 0) and np.all(ctx.s < 1)

    def test_channel_mismatch(self):
        p = B.init_se(np.random.default_rng(0), 4)
        with pytest.raises(ShapeError):
            B.se_block_forward(t4(np.zeros((1, 5, 2, 2))), p)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((2, 4, 3, 3))
        p = B.init_se(rng, 4, dtype=np.float64)
        go = rng.standard_normal(x0.shape)

        out, ctx = B.se_block_forward(t4(x0), p)
        grads = {}
        gx = B.se_block_backward(ctx, t4(x0), go, grads)

        def loss():
            return float(np.sum(go * B.se_block_forward(t4(x0), p)[0].data))

        assert max_rel_err(gx, numeric_grad(
            lambda x: float(np.sum(go * B.se_block_forward(t4(x), p)[0].data)), x0, step=BLOCK_STEP
        )) < GRAD_TOL
        check_param_grads(loss, p, grads)


class TestMbConv:
    def test_stride2_halves_spatial(self):
        rng = np.random.default_rng(5)
        p = B.init_mbconv(rng, 4, 6, kernel=3, stride=2, expansion=6, dtype=np.float64)
        out = B.mbconv_forward(t4(rng.standard_normal((1, 4, 8, 8))), p, T.INFER, rng)[0]
        assert out.dims == (1, 6, 4, 4)

    def test_zero_weights_shortcut_identity(self):
        rng = np.random.default_rng(6)
        p = B.init_mbconv(rng, 4, 4, kernel=3, stride=1, expansion=1, dtype=np.float64)
        assert p.has_shortcut
        p.dw_conv.weight[:] = 0
        p.project_conv.weight[:] = 0
        p.se.fc1.weight[:] = 0
        p.se.fc1.bias[:] = 0
        p.se.fc2.weight[:] = 0
        p.se.fc2.bias[:] = 0
        x = t4(rng.standard_normal((2, 4, 5, 5)))
        out = B.mbconv_forward(x, p, T.INFER, rng)[0]
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_shortcut_flag_rule(self):
        rng = np.random.default_rng(7)
        assert B.init_mbconv(rng, 4, 4, 3, 1, 6).has_shortcut
        assert B.init_mbconv(rng, 4, 4, 3, 1, 1).has_shortcut
        assert not B.init_mbconv(rng, 4, 6, 3, 1, 6).has_shortcut
        assert not B.init_mbconv(rng, 4, 6, 3, 1, 1).has_shortcut
        assert not B.init_mbconv(rng, 4, 4, 3, 2, 6).has_shortcut

    def test_unknown_mode_is_rejected(self):
        rng = np.random.default_rng(7)
        p = B.init_mbconv(rng, 4, 4, 3, 1, 6, dtype=np.float64)
        with pytest.raises(ParameterError, match="mode"):
            B.mbconv_forward(t4(rng.standard_normal((1, 4, 5, 5))), p, "trian", rng)

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(8)
        p = B.init_mbconv(rng, 8, 8, kernel=3, stride=1, expansion=6, dtype=np.float64)
        # non-trivial running stats so infer-mode BN actually does something
        for bn in (p.expand_bn, p.dw_bn, p.project_bn):
            bn.running_mean[:] = rng.standard_normal(bn.gamma.shape) * 0.1
            bn.running_var[:] = 1.0 + rng.random(bn.gamma.shape)
        x = t4(rng.standard_normal((1, 8, 8, 8)))
        got = B.mbconv_forward(x, p, T.INFER, rng)[0].data

        h = T.activate(t4(bn_infer_naive(T.conv2d(x, p.expand_conv).data, p.expand_bn)), "swish")[0]
        h = T.activate(t4(bn_infer_naive(T.conv2d(h, p.dw_conv).data, p.dw_bn)), "swish")[0]
        h = B.se_block_forward(h, p.se)[0]
        h = bn_infer_naive(T.conv2d(h, p.project_conv).data, p.project_bn)
        want = x.data + h  # shortcut, infer mode: no drop
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("expansion,stride,out_c", [(1, 1, 4), (6, 1, 4), (6, 2, 6)])
    def test_gradients(self, expansion, stride, out_c):
        rng = np.random.default_rng(9)
        p = B.init_mbconv(rng, 4, out_c, kernel=3, stride=stride, expansion=expansion,
                          survive_p=0.8, dtype=np.float64)
        x0 = rng.standard_normal((2, 4, 6, 6))
        # draws 0.51 and 0.95: the first sample's branch is kept, the second's dropped
        out, ctx = B.mbconv_forward(t4(x0), p, T.TRAIN, np.random.default_rng(1))
        if p.has_shortcut:
            assert ctx.scale.tolist() == [1.25, 0.0]
        else:
            assert ctx.scale is None
        go = np.random.default_rng(10).standard_normal(out.dims)
        grads = {}
        gx = B.mbconv_backward(ctx, go, grads)

        def run(x):
            y = B.mbconv_forward(t4(x), p, T.TRAIN, np.random.default_rng(1))[0]
            return float(np.sum(go * y.data))

        assert max_rel_err(gx, numeric_grad(run, x0, step=BLOCK_STEP)) < GRAD_TOL
        check_param_grads(lambda: run(x0), p, grads)


class TestAttentionGate:
    def test_zero_psi_gates_half(self):
        rng = np.random.default_rng(11)
        x = t4(rng.standard_normal((1, 4, 8, 8)))
        g = t4(rng.standard_normal((1, 6, 8, 8)))
        p = B.init_attention_gate(rng, 4, 6, dtype=np.float64)
        p.psi.weight[:] = 0
        p.psi.bias[:] = 0
        out = B.attention_gate_forward(x, g, p)[0]
        assert np.allclose(out.data, 0.5 * x.data, atol=1e-12)

    def test_saturated_psi_passes_x(self):
        rng = np.random.default_rng(12)
        x = t4(rng.standard_normal((1, 4, 8, 8)))
        g = t4(rng.standard_normal((1, 6, 8, 8)))
        p = B.init_attention_gate(rng, 4, 6, dtype=np.float64)
        p.psi.weight[:] = 0
        p.psi.bias[:] = 20.0
        out = B.attention_gate_forward(x, g, p)[0]
        assert np.max(np.abs(out.data - x.data)) < 1e-6 * np.max(np.abs(x.data))

    def test_shut_gate_gives_exact_zeros(self):
        # alpha is the plain sigmoid: a shut gate multiplies by 0, not by a
        # clipped finfo.tiny.  That covers alpha == 0 only; a gate that is
        # nearly shut makes subnormal products (test_saturation_band_is_flushed)
        rng = np.random.default_rng(17)
        x = T.Tensor4(rng.standard_normal((2, 4, 8, 8)).astype(np.float32))
        g = T.Tensor4(rng.standard_normal((2, 6, 8, 8)).astype(np.float32))
        p = B.init_attention_gate(rng, 4, 6)
        p.psi.bias[:] = -200.0
        out, ctx = B.attention_gate_forward(x, g, p)
        go = rng.standard_normal(out.dims).astype(np.float32)
        grads = {}
        gx, gg = B.attention_gate_backward(ctx, g, go, grads)
        tiny = np.finfo(np.float32).tiny
        assert np.all(ctx.alpha == 0)
        for arr in (out.data, gx):
            assert not np.any((arr != 0) & (np.abs(arr) < tiny))
        assert all(np.all(np.isfinite(v)) for v in (gx, gg, *grads.values()))

    def test_saturation_band_is_flushed(self, monkeypatch):
        # psi's pre-activation spans [-91, -84]: alpha is 0 below -88.72
        # (exp overflows), subnormal up to -87.34 and a normal float below
        # 2**-100 above; x*alpha and its gradients cross into subnormals there
        tiny = np.finfo(np.float32).tiny
        rng = np.random.default_rng(18)
        x = T.Tensor4(rng.standard_normal((2, 4, 16, 16)).astype(np.float32))
        g = T.Tensor4(rng.standard_normal((2, 6, 16, 16)).astype(np.float32))
        p = B.init_attention_gate(rng, 4, 6)
        s = T.Tensor4(T.conv2d(x, p.wx).data + T.conv2d(g, p.wg).data)
        pre = T.conv2d(T.activate(s, "relu")[0], p.psi).data
        scale = 7.0 / (pre.max() - pre.min())
        p.psi.weight *= np.float32(scale)
        p.psi.bias[:] = -91.0 - scale * pre.min()
        seen = []
        conv2d_backward = B.conv2d_backward

        def recording(xi, pi, go):
            if pi is p.psi:
                seen.append(go)
            return conv2d_backward(xi, pi, go)

        monkeypatch.setattr(B, "conv2d_backward", recording)
        out, ctx = B.attention_gate_forward(x, g, p)
        go = rng.standard_normal(out.dims).astype(np.float32)
        gx, _ = B.attention_gate_backward(ctx, g, go, {})

        def subnormal(a):
            return (a != 0) & (np.abs(a) < tiny)

        alpha = ctx.alpha
        assert np.any(alpha == 0) and np.any(subnormal(alpha))
        assert np.any((alpha >= tiny) & (alpha < 2.0**-100)) and alpha.max() < 2.0**-100
        raw = x.data * alpha
        assert np.any(subnormal(raw)) and np.any(np.abs(raw) >= tiny)
        (dpsi_pre,) = seen
        for arr in (out.data, gx, dpsi_pre):
            assert not np.any(subnormal(arr))
        normal = ~subnormal(raw)
        assert out.data[normal].tobytes() == raw[normal].tobytes()
        assert not np.any(out.data[~normal])

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(13)
        x = t4(rng.standard_normal((1, 4, 8, 8)))
        g = t4(rng.standard_normal((1, 6, 8, 8)))
        p = B.init_attention_gate(rng, 4, 6, dtype=np.float64)
        got = B.attention_gate_forward(x, g, p)[0].data

        s = T.Tensor4(T.conv2d(x, p.wx).data + T.conv2d(g, p.wg).data)
        alpha = T.activate(T.conv2d(T.activate(s, "relu")[0], p.psi), "sigmoid")[0].data
        assert np.allclose(got, x.data * alpha, atol=1e-12)

    def test_output_dominated_by_x(self):
        rng = np.random.default_rng(14)
        x = t4(rng.standard_normal((2, 3, 4, 4)))
        g = t4(rng.standard_normal((2, 5, 4, 4)))
        p = B.init_attention_gate(rng, 3, 5, dtype=np.float64)
        out = B.attention_gate_forward(x, g, p)[0]
        assert np.all(np.abs(out.data) <= np.abs(x.data) + 1e-15)
        assert np.all(np.sign(out.data) == np.sign(x.data))

    def test_resolution_mismatch_rejected(self):
        # decoder features must already be at the skip's resolution
        rng = np.random.default_rng(15)
        p = B.init_attention_gate(rng, 3, 5)
        with pytest.raises(ShapeError):
            B.attention_gate_forward(t4(np.zeros((1, 3, 8, 8))), t4(np.zeros((1, 5, 4, 4))), p)

    def test_inter_widths_must_agree(self):
        p = B.init_attention_gate(np.random.default_rng(15), 3, 5)
        wx = T.ConvParams(weight=np.zeros((p.wx.out_channels + 1, 3, 1, 1), np.float32))
        with pytest.raises(ShapeError, match="inter channels"):
            B.AttentionGateParams(p.wg, wx, p.psi)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal((1, 3, 4, 4))
        g0 = rng.standard_normal((1, 5, 4, 4))
        p = B.init_attention_gate(rng, 3, 5, dtype=np.float64)
        out, ctx = B.attention_gate_forward(t4(x0), t4(g0), p)
        go = rng.standard_normal(out.dims)
        grads = {}
        gx, gg = B.attention_gate_backward(ctx, t4(g0), go, grads)

        def run(x, g):
            return float(np.sum(go * B.attention_gate_forward(t4(x), t4(g), p)[0].data))

        assert max_rel_err(gx, numeric_grad(lambda x: run(x, g0), x0, step=BLOCK_STEP)) < GRAD_TOL
        assert max_rel_err(gg, numeric_grad(lambda g: run(x0, g), g0, step=BLOCK_STEP)) < GRAD_TOL
        check_param_grads(lambda: run(x0, g0), p, grads)


class TestResidualBlock:
    def test_zero_weights_identity(self):
        # zero branch weights and an identity projection: the block is the identity
        rng = np.random.default_rng(17)
        p = B.init_res_block(rng, 4, 4, dtype=np.float64)
        p.conv1.weight[:] = 0
        p.conv2.weight[:] = 0
        p.shortcut_proj.weight[:] = np.eye(4)[:, :, None, None]
        x = t4(rng.standard_normal((2, 4, 5, 5)))
        out = B.residual_block_forward(x, p, T.INFER)[0]
        assert np.allclose(out.data, x.data, atol=1e-12)

    def test_equal_widths_still_project(self):
        rng = np.random.default_rng(22)
        p = B.init_res_block(rng, 3, 3, dtype=np.float64)
        assert p.shortcut_proj.weight.shape == (3, 3, 1, 1)
        x = t4(rng.standard_normal((2, 3, 4, 4)))
        got = B.residual_block_forward(x, p, T.INFER)[0].data
        r = B.conv_bn_act(x, p.conv1, p.bn1, T.INFER, "relu")[0]
        r = B.conv_bn_act(r, p.conv2, p.bn2, T.INFER, "relu")[0]
        assert np.array_equal(got, r.data + T.conv2d(x, p.shortcut_proj).data)

    @pytest.mark.parametrize("h,w", [(1, 1), (3, 4), (7, 5)])
    def test_spatial_dims_preserved(self, h, w):
        rng = np.random.default_rng(18)
        p = B.init_res_block(rng, 3, 6, dtype=np.float64)
        out = B.residual_block_forward(t4(rng.standard_normal((1, 3, h, w))), p, T.INFER)[0]
        assert out.dims == (1, 6, h, w)

    def test_unknown_mode_is_rejected(self):
        rng = np.random.default_rng(18)
        p = B.init_res_block(rng, 3, 3, dtype=np.float64)
        with pytest.raises(ParameterError, match="mode"):
            B.residual_block_forward(t4(rng.standard_normal((1, 3, 4, 4))), p, "trian")

    def test_matches_primitive_composition(self):
        rng = np.random.default_rng(19)
        p = B.init_res_block(rng, 3, 5, dtype=np.float64)
        for bn in (p.bn1, p.bn2):
            bn.running_mean[:] = rng.standard_normal(bn.gamma.shape) * 0.2
            bn.running_var[:] = 0.5 + rng.random(bn.gamma.shape)
        x = t4(rng.standard_normal((1, 3, 6, 6)))
        got = B.residual_block_forward(x, p, T.INFER)[0].data

        r = T.activate(t4(bn_infer_naive(T.conv2d(x, p.conv1).data, p.bn1)), "relu")[0]
        r = T.activate(t4(bn_infer_naive(T.conv2d(r, p.conv2).data, p.bn2)), "relu")[0]
        want = r.data + T.conv2d(x, p.shortcut_proj).data
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("out_c", [4, 6])
    def test_gradients(self, out_c):
        rng = np.random.default_rng(20)
        p = B.init_res_block(rng, 4, out_c, dtype=np.float64)
        for bn in (p.bn1, p.bn2):
            bn.beta[:] = 0.4  # keep pre-relu values off the kink
        x0 = rng.standard_normal((2, 4, 4, 4))
        out, ctx = B.residual_block_forward(t4(x0), p, T.TRAIN)
        go = rng.standard_normal(out.dims)
        grads = {}
        gx = B.residual_block_backward(ctx, t4(x0), go, grads)

        def run(x):
            return float(np.sum(go * B.residual_block_forward(t4(x), p, T.TRAIN)[0].data))

        assert max_rel_err(gx, numeric_grad(run, x0, step=BLOCK_STEP)) < GRAD_TOL
        check_param_grads(lambda: run(x0), p, grads)

    def test_train_after_infer_uses_batch_statistics(self):
        rng = np.random.default_rng(21)
        p = B.init_res_block(rng, 4, 4, dtype=np.float64)
        for bn in (p.bn1, p.bn2):
            bn.running_mean[:] = 3.0  # far from any batch's statistics
            bn.running_var[:] = 9.0
        fresh = copy.deepcopy(p)
        x = t4(rng.standard_normal((2, 4, 5, 5)))
        # a validation pass first: nothing it leaves behind may change the train pass
        B.residual_block_forward(x, p, T.INFER)
        out, ctx = B.residual_block_forward(x, p, T.TRAIN)

        def bn_batch(z, bn):
            mu = z.mean(axis=(0, 2, 3), keepdims=True)
            var = z.var(axis=(0, 2, 3), keepdims=True)
            xh = (z - mu) / np.sqrt(var + T.BN_EPS)
            return xh * bn.gamma[:, None, None] + bn.beta[:, None, None]

        r = np.maximum(bn_batch(T.conv2d(x, p.conv1).data, p.bn1), 0.0)
        r = np.maximum(bn_batch(T.conv2d(t4(r), p.conv2).data, p.bn2), 0.0)
        assert np.allclose(out.data, r + T.conv2d(x, p.shortcut_proj).data, atol=1e-10)

        go = rng.standard_normal(out.dims)
        grads, want_grads = {}, {}
        gx = B.residual_block_backward(ctx, x, go, grads)
        want_out, want_ctx = B.residual_block_forward(x, fresh, T.TRAIN)
        want_gx = B.residual_block_backward(want_ctx, x, go, want_grads)
        assert np.array_equal(out.data, want_out.data) and np.array_equal(gx, want_gx)
        got, want = named_grads(p, grads), named_grads(fresh, want_grads)
        for k in want:
            assert np.array_equal(got[k], want[k]), k


class TestTrainUnit:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["relu", "swish", None])
    def test_recomputed_output_is_the_forward_output(self, kind, dtype):
        rng = np.random.default_rng(31)
        conv = B.init_conv(rng, 3, 5, 3, dtype=dtype)
        bn = B.init_bn(5, dtype)
        bn.gamma[:] = rng.normal(1.0, 0.5, 5)
        bn.beta[:] = rng.normal(0.0, 0.5, 5)
        x = T.Tensor4(rng.standard_normal((2, 3, 7, 7)).astype(dtype))
        out, unit = B.conv_bn_act(x, conv, bn, T.TRAIN, kind)
        again, act = unit.output()
        assert again.data.dtype == out.data.dtype == dtype
        assert again.data.tobytes() == out.data.tobytes()
        assert (act is None) == (kind is None)


# float32 tolerance of the fused infer unit against the unfused chain
# (float32 conv, then the float64 naive BN and activation), 16 float32
# ulps at magnitude 1: the fold rounds the scaled weights and bias once,
# and sums in another order (over 20 seeds of every unit below the
# largest difference used 0.41 of it)
FUSED_TOL = 16 * float(np.finfo(np.float32).eps)


class TestFusedInferUnit:
    # (in_c, out_c, kernel, stride, groups, conv bias, activation)
    UNITS = {
        "dense": (3, 5, 3, 1, 1, False, "relu"),
        "dense-bias": (3, 5, 3, 1, 1, True, "swish"),
        "depthwise": (6, 6, 5, 1, 6, False, "swish"),
        "pointwise": (6, 4, 1, 1, 1, False, None),
        "strided-dense": (4, 8, 3, 2, 1, False, "swish"),
        "strided-depthwise": (8, 8, 3, 2, 8, False, "swish"),
    }

    @staticmethod
    def unit(name, dtype, seed=30):
        in_c, out_c, k, stride, groups, bias, kind = TestFusedInferUnit.UNITS[name]
        rng = np.random.default_rng(seed)
        conv = B.init_conv(rng, in_c, out_c, k, stride=stride, groups=groups, bias=bias,
                           dtype=dtype)
        if bias:
            conv.bias[:] = rng.standard_normal(out_c)
        bn = B.init_bn(out_c, dtype)
        bn.gamma[:] = rng.normal(1.0, 0.5, out_c)
        bn.beta[:] = rng.normal(0.0, 0.5, out_c)
        bn.running_mean[:] = rng.normal(0.0, 0.5, out_c)
        bn.running_var[:] = rng.uniform(0.2, 3.0, out_c)
        x = T.Tensor4(rng.standard_normal((2, in_c, 9, 9)).astype(dtype))
        return x, conv, bn, kind

    @staticmethod
    def unfused(x, conv, bn, kind):
        out = t4(bn_infer_naive(T.conv2d(x, conv).data, bn))
        return out if kind is None else T.activate(out, kind)[0]

    @pytest.mark.parametrize("name", sorted(UNITS))
    def test_matches_unfused_chain(self, name):
        x, conv, bn, kind = self.unit(name, np.float32)
        got, ctx = B.conv_bn_act(x, conv, bn, T.INFER, kind)
        want = self.unfused(x, conv, bn, kind)
        assert ctx is None
        assert got.data.dtype == np.float32 and got.dims == want.dims
        np.testing.assert_allclose(got.data, want.data, rtol=FUSED_TOL, atol=FUSED_TOL)

    @pytest.mark.parametrize("name", sorted(UNITS))
    def test_matches_unfused_chain_float64(self, name):
        x, conv, bn, kind = self.unit(name, np.float64)
        got = B.conv_bn_act(x, conv, bn, T.INFER, kind)[0]
        np.testing.assert_allclose(got.data, self.unfused(x, conv, bn, kind).data,
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(UNITS))
    def test_leaves_state_untouched(self, name):
        x, conv, bn, kind = self.unit(name, np.float32)
        arrays = (conv.weight, bn.gamma, bn.beta, bn.running_mean, bn.running_var)
        before = [a.tobytes() for a in arrays]
        B.conv_bn_act(x, conv, bn, T.INFER, kind)
        assert [a.tobytes() for a in arrays] == before

    def test_no_backward_through_infer_unit(self):
        x, conv, bn, kind = self.unit("dense", np.float64)
        assert B.conv_bn_act(x, conv, bn, T.INFER, kind)[1] is None

    def test_train_backward_reaches_kernels_through_blocks(self, monkeypatch):
        # the unit looks its kernels up in ``blocks`` when it runs, so
        # wrappers patched in after the forward still see every call; the
        # unit's input comes from the caller
        x, conv, bn, kind = self.unit("dense", np.float64)
        out, unit = B.conv_bn_act(x, conv, bn, T.TRAIN, kind)
        calls = []
        for name in ("activate_backward", "batchnorm2d_backward", "conv2d_backward"):
            def recording(*args, _name=name, _fn=getattr(B, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(B, name, recording)
        grads = {}
        g = unit.backward(x, np.ones(out.dims), grads)
        assert calls == ["activate_backward", "batchnorm2d_backward", "conv2d_backward"]
        assert g.shape == x.dims and set(grads) == {id(conv.weight), id(bn.gamma), id(bn.beta)}
