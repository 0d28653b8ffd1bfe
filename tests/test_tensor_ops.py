"""Tensor kernel tests: oracle comparisons and finite-difference gradients."""

import numpy as np
import pytest

from earunet import blocks as B
from earunet import tensor as T
from earunet.errors import DegenerateBatchError, ParameterError, ShapeError, StateError
from oracles import conv2d_naive, max_rel_err, numeric_grad

GRAD_TOL = 1e-3


def t4(arr):
    return T.Tensor4(np.asarray(arr, dtype=np.float64))


class TestConv2d:
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_pad_input_matches_np_pad(self, padding, dtype):
        x = np.random.default_rng(9).standard_normal((2, 3, 4, 5)).astype(dtype)
        got = T._pad_input(x, padding)
        want = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_all_ones_3x3(self):
        x = t4(np.ones((1, 1, 3, 3)))
        p = T.ConvParams(weight=np.ones((1, 1, 3, 3)), stride=1, padding=1)
        out = T.conv2d(x, p).data[0, 0]
        assert out[1, 1] == 9.0
        for i, j in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out[i, j] == 4.0

    def test_identity_1x1_kernel(self):
        rng = np.random.default_rng(0)
        x = t4(rng.standard_normal((2, 1, 5, 4)))
        p = T.ConvParams(weight=np.ones((1, 1, 1, 1)), bias=np.zeros(1))
        assert np.array_equal(T.conv2d(x, p).data, x.data)

    def test_depthwise_channel_independence(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((2, 1, 3, 3))
        p = T.ConvParams(weight=w, stride=1, padding=1, groups=2)
        base = T.conv2d(t4(x), p).data
        x0 = x.copy()
        x0[:, 1] = 0.0
        out0 = T.conv2d(t4(x0), p).data
        assert np.array_equal(out0[:, 0], base[:, 0])
        assert np.all(out0[:, 1] == 0.0)
        # oracle agreement for the grouped case
        assert np.allclose(base, conv2d_naive(x, w, stride=1, padding=1, groups=2), atol=1e-10)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (1, 2), (2, 2)])
    def test_against_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(42 + stride * 10 + padding)
        for _ in range(12):
            n, h, w = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 7)
            groups = int(rng.choice([1, 1, 2]))
            icpg = int(rng.integers(1, 4))
            ocpg = int(rng.integers(1, 4))
            if groups > 1:  # depthwise: one input and one output channel per group
                icpg = ocpg = 1
            c = icpg * groups
            kh = int(rng.integers(1, min(h + 2 * padding, 5) + 1))
            kw = int(rng.integers(1, min(w + 2 * padding, 5) + 1))
            x = rng.standard_normal((n, c, h, w))
            weight = rng.standard_normal((ocpg * groups, icpg, kh, kw))
            bias = rng.standard_normal(ocpg * groups)
            p = T.ConvParams(weight=weight, bias=bias, stride=stride, padding=padding, groups=groups)
            got = T.conv2d(t4(x), p).data
            want = conv2d_naive(x, weight, bias, stride, padding, groups)
            assert np.max(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize(
        "shape,groups",
        [
            ((4, 2, 3, 3), 2),  # two groups of two channels
            ((4, 1, 3, 3), 2),  # channel multiplier 2
            ((3, 1, 3, 3), 0),
        ],
    )
    def test_only_dense_and_depthwise_groupings(self, shape, groups):
        with pytest.raises(ParameterError, match="groups"):
            T.ConvParams(weight=np.zeros(shape), groups=groups)

    def test_channel_mismatch_reports_both_shapes(self):
        x = t4(np.zeros((1, 3, 4, 4)))
        p = T.ConvParams(weight=np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError) as exc:
            T.conv2d(x, p)
        assert "(1, 3, 4, 4)" in str(exc.value) and "(2, 2, 3, 3)" in str(exc.value)

    def test_float32_purity(self):
        rng = np.random.default_rng(7)
        x = T.Tensor4(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        p = T.ConvParams(weight=rng.standard_normal((4, 3, 3, 3)).astype(np.float32), padding=1)
        a = T.conv2d(x, p).data
        b = T.conv2d(x, p).data
        assert np.array_equal(a, b)


class TestConv2dBackward:
    def test_scalar_product_rule(self):
        x = t4(np.array([[[[3.0]]]]))
        p = T.ConvParams(weight=np.array([[[[2.0]]]]), bias=np.zeros(1))
        gx, gw, gb = T.conv2d_backward(x, p, np.array([[[[5.0]]]]))
        assert gw[0, 0, 0, 0] == 15.0  # v * grad_out
        assert gx[0, 0, 0, 0] == 10.0  # w * grad_out
        assert gb[0] == 5.0

    def test_zero_grad_out(self):
        rng = np.random.default_rng(3)
        x = t4(rng.standard_normal((1, 2, 4, 4)))
        p = T.ConvParams(weight=rng.standard_normal((3, 2, 3, 3)), bias=rng.standard_normal(3), padding=1)
        gx, gw, gb = T.conv2d_backward(x, p, np.zeros((1, 3, 4, 4)))
        assert not gx.any() and not gw.any() and not gb.any()

    @pytest.mark.parametrize(
        "stride,padding,groups,cpg,k",
        [
            pytest.param(1, 1, 1, 2, 3, id="1-1-1"),
            pytest.param(2, 1, 1, 2, 3, id="2-1-1"),
            # depthwise: one input and one output channel per group
            pytest.param(1, 1, 3, 1, 3, id="depthwise-3x3-s1-p1"),
            pytest.param(2, 2, 3, 1, 5, id="depthwise-5x5-s2-p2"),
        ],
    )
    def test_finite_difference(self, stride, padding, groups, cpg, k):
        rng = np.random.default_rng(11 + stride + padding + groups)
        x0 = rng.standard_normal((1, cpg * groups, 5, 5))
        w0 = rng.standard_normal((cpg * groups, cpg, k, k))
        b0 = rng.standard_normal(cpg * groups)
        p = T.ConvParams(weight=w0, bias=b0, stride=stride, padding=padding, groups=groups)
        go = rng.standard_normal(T.conv2d(t4(x0), p).dims)

        gx, gw, gb = T.conv2d_backward(t4(x0), p, go)

        def loss_x(x):
            return float(np.sum(go * T.conv2d(t4(x), p).data))

        def loss_w(w):
            q = T.ConvParams(weight=w, bias=b0, stride=stride, padding=padding, groups=groups)
            return float(np.sum(go * T.conv2d(t4(x0), q).data))

        def loss_b(b):
            q = T.ConvParams(weight=w0, bias=b, stride=stride, padding=padding, groups=groups)
            return float(np.sum(go * T.conv2d(t4(x0), q).data))

        assert max_rel_err(gx, numeric_grad(loss_x, x0)) < GRAD_TOL
        assert max_rel_err(gw, numeric_grad(loss_w, w0)) < GRAD_TOL
        assert max_rel_err(gb, numeric_grad(loss_b, b0)) < GRAD_TOL

    def test_depthwise_matches_per_channel_convs(self):
        # planes large enough that the channel-blocked depthwise path runs
        # several blocks (here 3 + 3 + 2 channels)
        rng = np.random.default_rng(21)
        n, c, hw, k, stride, pad = 1, 8, 180, 5, 2, 2
        x = rng.standard_normal((n, c, hw, hw))
        assert c * n * (hw + 2 * pad) ** 2 * x.itemsize > 2 * T._DEPTHWISE_BLOCK_BYTES
        w = rng.standard_normal((c, 1, k, k))
        p = T.ConvParams(weight=w, stride=stride, padding=pad, groups=c)
        go = rng.standard_normal(T.conv2d(T.Tensor4(x), p).dims)

        gx, gw, _ = T.conv2d_backward(T.Tensor4(x), p, go)

        for i in range(c):
            q = T.ConvParams(weight=w[i : i + 1], stride=stride, padding=pad)
            gx_i, gw_i, _ = T.conv2d_backward(T.Tensor4(x[:, i : i + 1]), q, go[:, i : i + 1])
            assert np.array_equal(gx[:, i : i + 1], gx_i)
            assert np.max(np.abs(gw[i] - gw_i[0])) <= 1e-6 * np.max(np.abs(gw_i))

    def test_grad_out_shape_error(self):
        x = t4(np.zeros((1, 1, 4, 4)))
        p = T.ConvParams(weight=np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_backward(x, p, np.zeros((1, 1, 4, 4)))


def fresh_bn(c, mode, gamma=None, beta=None, dtype=np.float64):
    return T.BatchNormState(
        gamma=np.ones(c, dtype) if gamma is None else np.asarray(gamma, dtype),
        beta=np.zeros(c, dtype) if beta is None else np.asarray(beta, dtype),
        running_mean=np.zeros(c, dtype),
        running_var=np.ones(c, dtype),
        mode=mode,
    )


class TestBatchNorm:
    def test_infer_identity_statistics(self):
        rng = np.random.default_rng(4)
        x = t4(rng.standard_normal((2, 3, 4, 4)))
        out = T.batchnorm2d(x, fresh_bn(3, T.INFER))[0]
        assert np.allclose(out.data, x.data, atol=1e-5)

    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(5)
        x = t4(rng.standard_normal((3, 2, 5, 5)) * 4.0 + 2.0)
        out = T.batchnorm2d(x, fresh_bn(2, T.TRAIN))[0].data
        for c in range(2):
            assert abs(out[:, c].mean()) < 1e-5
            assert abs(out[:, c].var() - 1.0) < 1e-5

    def test_scale_shift(self):
        rng = np.random.default_rng(6)
        x = t4(rng.standard_normal((2, 2, 6, 6)))
        s = fresh_bn(2, T.TRAIN, gamma=[2.0, 2.0], beta=[3.0, 3.0])
        out = T.batchnorm2d(x, s)[0].data
        for c in range(2):
            assert abs(out[:, c].mean() - 3.0) < 1e-4
            assert abs(out[:, c].std() - 2.0) < 1e-4

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 4, 4)) + 5.0
        s = fresh_bn(2, T.TRAIN)
        T.batchnorm2d(t4(x), s)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert np.allclose(s.running_mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-10)
        assert np.allclose(s.running_var, 0.9 * 1.0 + 0.1 * var, atol=1e-10)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            T.batchnorm2d(t4(np.ones((1, 3, 1, 1))), fresh_bn(3, T.TRAIN))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.batchnorm2d(t4(np.ones((1, 3, 2, 2))), fresh_bn(4, T.INFER))

    def test_finite_difference(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 2, 3, 3))
        gamma0 = rng.standard_normal(2) + 1.0
        beta0 = rng.standard_normal(2)
        go = rng.standard_normal((2, 2, 3, 3))

        def bn(x, gamma, beta):
            return T.batchnorm2d(t4(x), fresh_bn(2, T.TRAIN, gamma=gamma, beta=beta))

        s = fresh_bn(2, T.TRAIN, gamma=gamma0, beta=beta0)
        gx, gg, gb = T.batchnorm2d_backward(T.batchnorm2d(t4(x0), s)[1], s, go)

        def loss_x(x):
            return float(np.sum(go * bn(x, gamma0, beta0)[0].data))

        def loss_g(g):
            return float(np.sum(go * bn(x0, g, beta0)[0].data))

        def loss_b(b):
            return float(np.sum(go * bn(x0, gamma0, b)[0].data))

        assert max_rel_err(gx, numeric_grad(loss_x, x0)) < GRAD_TOL
        assert max_rel_err(gg, numeric_grad(loss_g, gamma0)) < GRAD_TOL
        assert max_rel_err(gb, numeric_grad(loss_b, beta0)) < GRAD_TOL

    def test_backward_rejects_infer_forward(self):
        # infer mode saves nothing: no backward runs through it
        s = fresh_bn(2, T.INFER)
        out, saved = T.batchnorm2d(t4(np.ones((1, 2, 2, 2))), s)
        assert saved is None
        with pytest.raises(StateError):
            T.batchnorm2d_backward(saved, s, np.ones(out.dims))


class TestActivations:
    def test_swish_values(self):
        x = t4(np.array([[[[0.0, 1.0]]]]))
        out = T.activate(x, "swish").data.ravel()
        assert out[0] == 0.0
        assert abs(out[1] - 0.731059) < 1e-5

    def test_sigmoid_values(self):
        out = T.activate(t4(np.array([[[[0.0]]]])), "sigmoid").data
        assert out.ravel()[0] == 0.5

    def test_sigmoid_open_interval(self):
        extremes = np.array([[[[-1e30, -100.0, 0.0, 100.0, 1e30]]]], dtype=np.float32)
        out = T.activate(T.Tensor4(extremes), "sigmoid").data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_relu(self):
        out = T.activate(t4(np.array([[[[-2.0, 0.0, 3.0]]]])), "relu").data.ravel()
        assert list(out) == [0.0, 0.0, 3.0]

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            T.activate(t4(np.zeros((1, 1, 1, 1))), "tanh")

    @pytest.mark.parametrize("kind", ["relu", "swish", "sigmoid"])
    def test_finite_difference(self, kind):
        rng = np.random.default_rng(10)
        # keep relu inputs away from the kink
        x0 = rng.standard_normal((1, 2, 3, 3))
        x0[np.abs(x0) < 0.05] = 0.1
        go = rng.standard_normal(x0.shape)
        g = T.activate_backward(t4(x0), kind, go)

        def loss(x):
            return float(np.sum(go * T.activate(t4(x), kind).data))

        assert max_rel_err(g, numeric_grad(loss, x0)) < GRAD_TOL


class TestGlobalAvgPool:
    def test_constant_plane(self):
        out = T.global_avg_pool(t4(np.full((2, 3, 4, 5), 7.5)))
        assert out.dims == (2, 3, 1, 1)
        assert np.all(out.data == 7.5)

    def test_small_plane(self):
        x = t4(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert T.global_avg_pool(x).data.ravel()[0] == 2.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 2, 3, 4))
        perm = rng.permutation(12)
        xp = x.reshape(1, 2, -1)[:, :, perm].reshape(1, 2, 3, 4)
        assert np.allclose(
            T.global_avg_pool(t4(x)).data, T.global_avg_pool(t4(xp)).data, atol=1e-12
        )

    def test_finite_difference(self):
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 2, 3, 3))
        go = rng.standard_normal((2, 2, 1, 1))
        g = T.global_avg_pool_backward(t4(x0), go)

        def loss(x):
            return float(np.sum(go * T.global_avg_pool(t4(x)).data))

        assert max_rel_err(g, numeric_grad(loss, x0)) < GRAD_TOL


class TestUpsampleBilinear2x:
    def test_constant_preserved(self):
        out = T.upsample_bilinear_2x(t4(np.full((1, 2, 3, 3), 4.25)))
        assert out.dims == (1, 2, 6, 6)
        assert np.all(out.data == 4.25)

    def test_half_pixel_convention(self):
        x = t4(np.array([[[[0.0, 1.0], [0.0, 1.0]]]]))
        out = T.upsample_bilinear_2x(x).data[0, 0]
        assert out.shape == (4, 4)
        for r in range(4):
            assert np.allclose(out[r], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    def test_bounded_by_input_range(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 5, 7))
        out = T.upsample_bilinear_2x(t4(x)).data
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_finite_difference(self):
        rng = np.random.default_rng(15)
        x0 = rng.standard_normal((1, 2, 3, 4))
        go = rng.standard_normal((1, 2, 6, 8))
        g = T.upsample_bilinear_2x_backward(t4(x0), go)

        def loss(x):
            return float(np.sum(go * T.upsample_bilinear_2x(t4(x)).data))

        assert max_rel_err(g, numeric_grad(loss, x0)) < GRAD_TOL


class TestLinear:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(T.linear(x, np.eye(3), np.zeros(3)), x)

    def test_manual_dot(self):
        y = T.linear(np.array([1.0, 1.0]), np.array([[1.0], [1.0]]), np.array([0.5]))
        assert np.allclose(y, [2.5])

    def test_zero_input_gives_bias(self):
        b = np.array([0.1, 0.2])
        assert np.array_equal(T.linear(np.zeros(3), np.ones((3, 2)), b), b)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.linear(np.zeros(3), np.ones((2, 2)), np.zeros(2))

    def test_finite_difference(self):
        rng = np.random.default_rng(16)
        x0 = rng.standard_normal(4)
        w0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal(3)
        go = rng.standard_normal(3)
        gx, gw, gb = T.linear_backward(x0, w0, go)

        assert max_rel_err(gx, numeric_grad(lambda x: float(go @ T.linear(x, w0, b0)), x0)) < GRAD_TOL
        assert max_rel_err(gw, numeric_grad(lambda w: float(go @ T.linear(x0, w, b0)), w0)) < GRAD_TOL
        assert max_rel_err(gb, numeric_grad(lambda b: float(go @ T.linear(x0, w0, b)), b0)) < GRAD_TOL

    def test_batched_rows(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 4))
        w = rng.standard_normal((4, 2))
        b = rng.standard_normal(2)
        out = T.linear(x, w, b)
        for i in range(5):
            assert np.allclose(out[i], T.linear(x[i], w, b), atol=1e-12)


class TestDropConnect:
    def test_infer_identity(self):
        # an infer-mode block draws no keep mask and leaves the rng untouched
        rng = np.random.default_rng(18)
        p = B.init_mbconv(rng, 4, 4, kernel=3, stride=1, expansion=1, survive_p=0.5,
                          dtype=np.float64)
        x = t4(rng.standard_normal((4, 4, 3, 3)))
        state = rng.bit_generator.state
        _, ctx = B.mbconv_forward(x, p, T.INFER, rng)
        assert ctx.keep_mask is None
        assert rng.bit_generator.state == state

    def test_survive_one_identity(self):
        rng = np.random.default_rng(19)
        x = t4(rng.standard_normal((4, 2, 3, 3)))
        mask = T.sample_keep_mask(x.n, 1.0, rng)
        assert np.array_equal(T.apply_keep_mask(x, mask, 1.0).data, x.data)

    def test_expectation_preserving(self):
        x = t4(np.ones((1, 1, 2, 2)))
        rng = np.random.default_rng(20)
        total = 0.0
        trials = 10_000
        for _ in range(trials):
            total += T.apply_keep_mask(x, T.sample_keep_mask(1, 0.5, rng), 0.5).data.mean()
        assert abs(total / trials - 1.0) < 0.05

    def test_invalid_probability(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ParameterError):
                T.sample_keep_mask(1, bad, rng)

    def test_seed_determinism(self):
        a = T.sample_keep_mask(8, 0.7, np.random.default_rng(99))
        b = T.sample_keep_mask(8, 0.7, np.random.default_rng(99))
        assert np.array_equal(a, b)
