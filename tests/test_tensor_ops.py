"""Tensor kernel tests: oracle comparisons and finite-difference gradients.

The SE squeeze, SE affine and drop-connect classes check arithmetic that
lives inside ``blocks``; they drive it through the block forwards.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from earunet import blocks as B
from earunet import tensor as T
from earunet.errors import DegenerateBatchError, ParameterError, ShapeError
from earunet.preprocess import resize_plane_bilinear
from oracles import conv2d_backward_naive, conv2d_naive, max_rel_err, numeric_grad

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

    @staticmethod
    def chunked_case(dtype, stride, depthwise):
        """n=7 images whose (c*3*3, 32*32) patch matrices are each about a
        third of the block, so conv2d gathers them in chunks of 3 + 3 + 1 at
        stride 2; at stride 1 the wide rows of 31*34 + 32 columns make the
        float32 chunks 2 + 2 + 2 + 1."""
        itemsize, k, n, oh = np.dtype(dtype).itemsize, 3, 7, 32
        c = T._BLOCK_BYTES // (3 * k * k * oh * oh * itemsize)
        assert T._BLOCK_BYTES // (c * k * k * oh * oh * itemsize) == 3
        rng = np.random.default_rng(22)
        x = rng.standard_normal((n, c, oh * stride, oh * stride)).astype(dtype)
        oc, groups = (c, c) if depthwise else (5, 1)
        w = rng.standard_normal((oc, c // groups, k, k)).astype(dtype)
        b = rng.standard_normal(oc).astype(dtype)
        return x, T.ConvParams(weight=w, bias=b, stride=stride, padding=1, groups=groups)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_dense_chunks_match_single_images(self, dtype, stride):
        x, p = self.chunked_case(dtype, stride, depthwise=False)
        got = T.conv2d(T.Tensor4(x), p).data
        want = np.concatenate([T.conv2d(T.Tensor4(x[i : i + 1]), p).data for i in range(len(x))])
        assert got.dtype == dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_depthwise_chunks_match_naive(self, dtype, stride):
        x, p = self.chunked_case(dtype, stride, depthwise=True)
        got = T.conv2d(T.Tensor4(x), p).data
        want = conv2d_naive(x, p.weight, p.bias, stride=stride, padding=1, groups=p.groups)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert got.dtype == dtype and np.allclose(got, want, rtol=tol, atol=tol)


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
        # the depthwise (c, 1, k*k) weight rows against one dense conv per
        # channel, on planes whose padded input is larger than the block
        rng = np.random.default_rng(21)
        n, c, hw, k, stride, pad = 1, 8, 180, 5, 2, 2
        x = rng.standard_normal((n, c, hw, hw))
        assert c * n * (hw + 2 * pad) ** 2 * x.itemsize > 2 * T._BLOCK_BYTES
        w = rng.standard_normal((c, 1, k, k))
        p = T.ConvParams(weight=w, stride=stride, padding=pad, groups=c)
        go = rng.standard_normal(T.conv2d(T.Tensor4(x), p).dims)

        gx, gw, _ = T.conv2d_backward(T.Tensor4(x), p, go)

        for i in range(c):
            q = T.ConvParams(weight=w[i : i + 1], stride=stride, padding=pad)
            gx_i, gw_i, _ = T.conv2d_backward(T.Tensor4(x[:, i : i + 1]), q, go[:, i : i + 1])
            assert np.array_equal(gx[:, i : i + 1], gx_i)
            assert np.max(np.abs(gw[i] - gw_i[0])) <= 1e-6 * np.max(np.abs(gw_i))

    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_against_naive_oracle(self, stride, padding):
        rng = np.random.default_rng(60 + stride * 10 + padding)
        non_square = pad_over_kernel = stride_remainder = False
        for _ in range(15):
            n, h, w = int(rng.integers(1, 3)), int(rng.integers(1, 8)), int(rng.integers(1, 8))
            kh = int(rng.integers(1, min(h + 2 * padding, 4) + 1))
            kw = int(rng.integers(1, min(w + 2 * padding, 4) + 1))
            groups = int(rng.choice([1, 1, 3]))
            c, oc = (groups, groups) if groups > 1 else (int(rng.integers(1, 4)), int(rng.integers(1, 4)))
            x = rng.standard_normal((n, c, h, w))
            p = T.ConvParams(weight=rng.standard_normal((oc, c // groups, kh, kw)),
                             stride=stride, padding=padding, groups=groups)
            go = rng.standard_normal(T.conv2d(t4(x), p).dims)
            gx, gw, _ = T.conv2d_backward(t4(x), p, go)
            want_gx, want_gw = conv2d_backward_naive(x, p.weight, go, stride, padding, groups)
            assert np.allclose(gx, want_gx, rtol=0, atol=1e-12)
            assert np.allclose(gw, want_gw, rtol=0, atol=1e-12)
            non_square |= kh != kw
            pad_over_kernel |= padding >= min(kh, kw)
            stride_remainder |= (h + 2 * padding - kh) % stride > 0
        assert non_square and (pad_over_kernel or padding == 0) and (stride_remainder or stride == 1)

    @staticmethod
    def chunked_case(depthwise):
        """n=7 float32 images whose patch matrices, of x for the weight
        gradient and of the framed grad_out for the input gradient, are each
        about a third of the block, so both gather in chunks of 3 + 3 + 1."""
        n, c, hw, k = 7, 8, 32, 3
        assert T._BLOCK_BYTES // (c * k * k * hw * hw * 4) == 3
        rng = np.random.default_rng(23)
        x = rng.standard_normal((n, c, hw, hw)).astype(np.float32)
        w = rng.standard_normal((c, 1 if depthwise else c, k, k)).astype(np.float32)
        p = T.ConvParams(weight=w, padding=1, groups=c if depthwise else 1)
        return x, p, rng.standard_normal((n, c, hw, hw)).astype(np.float32)

    @pytest.mark.parametrize("depthwise", [False, True])
    def test_chunks_match_single_images(self, depthwise):
        x, p, go = self.chunked_case(depthwise)
        gx, gw, _ = T.conv2d_backward(T.Tensor4(x), p, go)
        singles = [T.conv2d_backward(T.Tensor4(x[i : i + 1]), p, go[i : i + 1]) for i in range(len(x))]
        assert gx.dtype == np.float32 and np.array_equal(gx, np.concatenate([s[0] for s in singles]))
        want_gw = np.sum([s[1] for s in singles], axis=0, dtype=np.float64)
        assert gw.dtype == np.float32 and np.allclose(gw, want_gw, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("groups,k", [(1, 3), (4, 3), (1, 1)], ids=["dense", "depthwise", "1x1"])
    def test_never_calls_public_conv2d(self, monkeypatch, groups, k):
        # tracers wrap tensor.conv2d: a backward through it would count as forward time and flops
        rng = np.random.default_rng(24)
        x = t4(rng.standard_normal((2, 4, 6, 6)))
        p = T.ConvParams(weight=rng.standard_normal((4, 4 // groups, k, k)), padding=k // 2, groups=groups)
        go = rng.standard_normal(T.conv2d(x, p).dims)

        def forbidden(*args):
            raise AssertionError("conv2d_backward called the public conv2d")

        monkeypatch.setattr(T, "conv2d", forbidden)
        T.conv2d_backward(x, p, go)

    def test_grad_out_shape_error(self):
        x = t4(np.zeros((1, 1, 4, 4)))
        p = T.ConvParams(weight=np.zeros((1, 1, 3, 3)))
        with pytest.raises(ShapeError):
            T.conv2d_backward(x, p, np.zeros((1, 1, 4, 4)))


class TestWideRows:
    """Stride-1 correlations over unit-stride rows gather each tap as one
    run of L = (oh-1)*W + ow elements of the input's rows, W its row pitch,
    and keep the first ow of every W columns the matmul yields."""

    @staticmethod
    def check(x, p, rng, tol):
        """conv2d (with a bias) and conv2d_backward against the naive loops,
        for a standard-normal grad_out."""
        dt = x.dtype
        p.bias = rng.standard_normal(p.out_channels).astype(dt)
        got = T.conv2d(T.Tensor4(x), p).data
        want = conv2d_naive(x, p.weight, p.bias, 1, p.padding, p.groups)
        assert got.dtype == dt and np.allclose(got, want, rtol=tol, atol=tol)
        go = rng.standard_normal(got.shape).astype(dt)
        gx, gw, _ = T.conv2d_backward(T.Tensor4(x), p, go)
        want_gx, want_gw = conv2d_backward_naive(x, p.weight, go, 1, p.padding, p.groups)
        assert gx.dtype == dt and np.allclose(gx, want_gx, rtol=tol, atol=tol)
        assert np.allclose(gw, want_gw, rtol=tol, atol=tol * np.abs(want_gw).max())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "n,c,oc,h,w,kh,kw,padding,depthwise",
        [
            (2, 3, 4, 7, 5, 3, 3, 1, False),  # odd plane
            (1, 2, 3, 6, 9, 5, 5, 2, False),  # non-square plane
            (2, 3, 2, 5, 7, 3, 5, 0, False),  # non-square kernel, no padding
            (1, 2, 2, 3, 4, 2, 3, 3, False),  # padding over the kernel
            (3, 2, 3, 4, 1, 3, 3, 1, False),  # ow = 1
            (2, 4, 4, 5, 3, 3, 3, 0, True),  # ow = 1
            (1, 3, 3, 4, 7, 5, 5, 3, True),
            (2, 3, 3, 9, 6, 5, 3, 1, True),  # non-square kernel and plane
            (1, 2, 2, 5, 5, 3, 3, 3, True),  # padding at the kernel
        ],
    )
    def test_against_naive_oracle(self, n, c, oc, h, w, kh, kw, padding, depthwise, dtype):
        rng = np.random.default_rng(70 + h * w + padding)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        weight = rng.standard_normal((oc, 1 if depthwise else c, kh, kw)).astype(dtype)
        p = T.ConvParams(weight=weight, padding=padding, groups=c if depthwise else 1)
        self.check(x, p, rng, 1e-5 if dtype == np.float32 else 1e-12)

    @pytest.mark.parametrize(
        "n,c,oc,depthwise,pitch",
        [
            pytest.param(7, 62, 1, False, 10, id="dense-forward-3+3+1-images"),
            pytest.param(7, 1, 52, False, 12, id="dense-input-gradient-3+3+1-images"),
            pytest.param(2, 400, 400, True, 10, id="depthwise-forward-186+186+28-channels"),
            pytest.param(2, 400, 400, True, 12, id="depthwise-input-gradient-158+158+84-channels"),
        ],
    )
    def test_chunks_match_naive(self, n, c, oc, depthwise, pitch):
        # 8x8 float64 planes, 3x3 kernel, padding 1: the forward reads rows of
        # pitch 10, the input gradient rows of pitch 12 in its framed buffer.
        # Dense chunks group whole images; a depthwise image over the block
        # splits into chunks of channels, the last one partial
        oh, k = 8, 3
        # the input gradient correlates the oc channels of grad_out
        span, rows = (oh - 1) * pitch + oh, oc if pitch == 12 else c
        per_image = rows * k * k * span * 8
        if depthwise:
            cb = T._BLOCK_BYTES // (k * k * span * 8)
            assert per_image > T._BLOCK_BYTES and c // cb == 2 and c % cb
        else:
            assert T._BLOCK_BYTES // per_image == 3
        rng = np.random.default_rng(25)
        x = rng.standard_normal((n, c, oh, oh))
        weight = rng.standard_normal((oc, 1 if depthwise else c, k, k))
        self.check(x, T.ConvParams(weight=weight, padding=1, groups=c if depthwise else 1), rng, 1e-12)

    @pytest.mark.parametrize("depthwise", [False, True])
    def test_input_rows_wider_than_the_plane(self, depthwise):
        # a column crop of a wider array: rows 11 apart, 6 wide, read as they stand
        rng = np.random.default_rng(26)
        x = rng.standard_normal((2, 3, 5, 11))[..., 2:8]
        assert not x.flags.c_contiguous and x.strides[2] == 11 * x.itemsize
        weight = rng.standard_normal((3, 1 if depthwise else 3, 3, 2))
        self.check(x, T.ConvParams(weight=weight, groups=3 if depthwise else 1), rng, 1e-12)

    @pytest.mark.parametrize("depthwise", [False, True])
    def test_gathers_no_patch_grid_at_stride_1(self, monkeypatch, depthwise):
        # the forward and the input gradient take the wide rows, the input
        # gradient straight from its framed buffer: no copy of the crop
        # (the weight gradient alone gathers (oh, ow) patches)
        rng = np.random.default_rng(27)
        x = t4(rng.standard_normal((2, 4, 6, 5)))
        p = T.ConvParams(weight=rng.standard_normal((4, 1 if depthwise else 4, 3, 3)), padding=1,
                         groups=4 if depthwise else 1)
        patch_chunks, correlate = T._patch_chunks, T._correlate
        grids, inputs = [], []

        def counting(*args):
            grids.append(args[0].shape)
            return patch_chunks(*args)

        def recording(xp, *args):
            inputs.append(xp)
            return correlate(xp, *args)

        monkeypatch.setattr(T, "_patch_chunks", counting)
        monkeypatch.setattr(T, "_correlate", recording)
        go = rng.standard_normal(T.conv2d(x, p).dims)
        assert grids == []
        T.conv2d_backward(x, p, go)
        assert grids == [(2, 4, 8, 7)]  # the padded input, for the weight gradient
        framed = inputs[-1]
        assert framed.shape == (2, 4, 9, 8) and framed.strides[2] == 9 * framed.itemsize
        assert not framed.flags.c_contiguous and framed.base is not None


def fresh_bn(c, gamma=None, beta=None, dtype=np.float64):
    return T.BatchNormState(
        gamma=np.ones(c, dtype) if gamma is None else np.asarray(gamma, dtype),
        beta=np.zeros(c, dtype) if beta is None else np.asarray(beta, dtype),
        running_mean=np.zeros(c, dtype),
        running_var=np.ones(c, dtype),
    )


class TestBatchNorm:
    def test_infer_identity_statistics(self):
        # identity running stats fold into a weight scale of 1/sqrt(1+BN_EPS) and a zero bias
        conv = B.init_conv(np.random.default_rng(4), 3, 3, 3, dtype=np.float64)
        bn = B.init_bn(3, np.float64)
        folded = B._fold_bn(conv, bn)
        want = conv.weight / np.sqrt(1.0 + T.BN_EPS)
        assert np.allclose(folded.weight, want, rtol=1e-15, atol=0) and not folded.bias.any()

    def test_train_normalizes_per_channel(self):
        rng = np.random.default_rng(5)
        x = t4(rng.standard_normal((3, 2, 5, 5)) * 4.0 + 2.0)
        out = T.batchnorm2d(x, fresh_bn(2))[0].data
        for c in range(2):
            assert abs(out[:, c].mean()) < 1e-5
            assert abs(out[:, c].var() - 1.0) < 1e-5

    def test_scale_shift(self):
        rng = np.random.default_rng(6)
        x = t4(rng.standard_normal((2, 2, 6, 6)))
        s = fresh_bn(2, gamma=[2.0, 2.0], beta=[3.0, 3.0])
        out = T.batchnorm2d(x, s)[0].data
        for c in range(2):
            assert abs(out[:, c].mean() - 3.0) < 1e-4
            assert abs(out[:, c].std() - 2.0) < 1e-4

    def test_running_stats_update(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 2, 4, 4)) + 5.0
        s = fresh_bn(2)
        T.batchnorm2d(t4(x), s)
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        assert np.allclose(s.running_mean, 0.9 * 0.0 + 0.1 * mu, atol=1e-10)
        assert np.allclose(s.running_var, 0.9 * 1.0 + 0.1 * var, atol=1e-10)

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            T.batchnorm2d(t4(np.ones((1, 3, 1, 1))), fresh_bn(3))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.batchnorm2d(t4(np.ones((1, 3, 2, 2))), fresh_bn(4))

    def test_mode_is_not_stored(self):
        s = fresh_bn(2)
        assert "mode" not in {f.name for f in dataclasses.fields(s)} and s.mode == T.TRAIN
        with pytest.raises(TypeError):
            T.BatchNormState(s.gamma, s.beta, s.running_mean, s.running_var, mode=T.INFER)
        with pytest.raises(AttributeError):
            s.mode = T.INFER

    def test_state_is_arrays_only(self):
        # eps and momentum are the module constants, so a checkpoint's arrays are the whole state
        fields = [f.name for f in dataclasses.fields(fresh_bn(2))]
        assert fields == ["gamma", "beta", "running_mean", "running_var"]
        with pytest.raises(TypeError):
            T.BatchNormState(*(np.ones(2) for _ in range(4)), eps=1e-3)

    def test_finite_difference(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 2, 3, 3))
        gamma0 = rng.standard_normal(2) + 1.0
        beta0 = rng.standard_normal(2)
        go = rng.standard_normal((2, 2, 3, 3))

        def bn(x, gamma, beta):
            return T.batchnorm2d(t4(x), fresh_bn(2, gamma=gamma, beta=beta))

        s = fresh_bn(2, gamma=gamma0, beta=beta0)
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


class TestActivations:
    def test_swish_values(self):
        x = t4(np.array([[[[0.0, 1.0]]]]))
        out = T.activate(x, "swish")[0].data.ravel()
        assert out[0] == 0.0
        assert abs(out[1] - 0.731059) < 1e-5

    def test_sigmoid_values(self):
        out = T.activate(t4(np.array([[[[0.0]]]])), "sigmoid")[0].data
        assert out.ravel()[0] == 0.5

    def test_sigmoid_open_interval(self):
        extremes = np.array([[[[-1e30, -100.0, 0.0, 100.0, 1e30]]]], dtype=np.float32)
        out = T.activate(T.Tensor4(extremes), "sigmoid")[0].data
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_relu(self):
        out = T.activate(t4(np.array([[[[-2.0, 0.0, 3.0]]]])), "relu")[0].data.ravel()
        assert list(out) == [0.0, 0.0, 3.0]

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            T.activate(t4(np.zeros((1, 1, 1, 1))), "tanh")
        with pytest.raises(ParameterError):
            T.activate_backward(np.zeros((1, 1, 1, 1)), "tanh", np.zeros((1, 1, 1, 1)))

    def test_saved_holds_no_extra_array(self):
        # relu and sigmoid save their output; swish saves (sigmoid(t), output)
        x = t4(np.random.default_rng(12).standard_normal((1, 2, 3, 3)))
        for kind in ("relu", "sigmoid"):
            out, saved = T.activate(x, kind)
            assert saved is out.data
        out, (s, y) = T.activate(x, "swish")
        assert y is out.data
        assert np.allclose(s, 1.0 / (1.0 + np.exp(-x.data)), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", ["relu", "swish", "sigmoid"])
    def test_finite_difference(self, kind):
        rng = np.random.default_rng(10)
        # keep relu inputs away from the kink
        x0 = rng.standard_normal((1, 2, 3, 3))
        x0[np.abs(x0) < 0.05] = 0.1
        go = rng.standard_normal(x0.shape)
        g = T.activate_backward(T.activate(t4(x0), kind)[1], kind, go)

        def loss(x):
            return float(np.sum(go * T.activate(t4(x), kind)[0].data))

        assert max_rel_err(g, numeric_grad(loss, x0)) < GRAD_TOL


class TestSigmoidOracle:
    """float32 sigmoid and swish against a float64 oracle, across the range
    where exp(-t) overflows (t < -88.72) and exp(t) underflows (t < -103.97).

    The oracle uses exp(-|t|) <= 1, so it never overflows.  Swish is checked
    relative to the truth where the sigmoid is a normal float32 too; below
    t = log(tiny) = -87.34 the float32 sigmoid is subnormal or 0, and swish
    is only bounded by |t| * tiny there.
    """

    ULPS = 4 * np.finfo(np.float32).eps  # relative tolerance
    TINY = np.finfo(np.float32).tiny

    @staticmethod
    def grid():
        t = np.linspace(-104.0, 89.0, 20001, dtype=np.float32)
        edge = np.float32(-88.72)
        near = [np.nextafter(edge, np.float32(-np.inf)), edge, np.nextafter(edge, np.float32(0))]
        return np.concatenate([t, near, np.float32([-1e30, 1e30, -87.34, -87.33, 0.0, 16.6, 17.0])])

    @staticmethod
    def oracle(t):
        t64 = t.astype(np.float64)
        e = np.exp(-np.abs(t64))
        s = np.where(t64 >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        return t64, s

    def run(self, kind, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, saved = T.activate(T.Tensor4(t[None, None, None, :]), kind)
            grad = T.activate_backward(saved, kind, np.ones_like(out.data))
        assert out.data.dtype == np.float32 and grad.dtype == np.float32
        return out.data.ravel(), grad.ravel()

    def test_sigmoid(self):
        t = self.grid()
        _, s = self.oracle(t)
        got, grad = self.run("sigmoid", t)
        assert np.all(got > 0.0) and np.all(got < 1.0)
        normal = s >= self.TINY
        assert np.all(np.abs(got - s)[normal] <= self.ULPS * s[normal])
        # below the normal range the output is the smallest normal float
        assert np.all(got[~normal] == self.TINY)
        # y*(1-y) loses the relative accuracy of 1-y as y nears 1, so its
        # error is bounded by the size of y, not of the result
        assert np.all(np.abs(grad - s * (1.0 - s)) <= self.ULPS * s + self.TINY)

    def test_swish(self):
        t = self.grid()
        t64, s = self.oracle(t)
        got, grad = self.run("swish", t)
        y = t64 * s
        checked = (s >= self.TINY) & (np.abs(y) >= self.TINY)
        assert np.all(np.abs(got - y)[checked] <= self.ULPS * np.abs(y[checked]))
        assert np.all(np.abs(got - y)[~checked] <= np.abs(t64[~checked]) * self.TINY)
        assert np.all(got[t > 0] > 0) and np.all(got[t < 0] <= 0)
        # swish' = s + y*(1-s) sums terms of either sign, so its error is
        # bounded by the size of the terms, not of the result
        d = s + y * (1.0 - s)
        scale = s + np.abs(y) * (1.0 - s)
        assert np.all(np.abs(grad - d) <= 4 * self.ULPS * scale + (1.0 + np.abs(t64)) * self.TINY)


class TestGlobalAvgPool:
    """SE's squeeze: the float64-accumulated mean of each (h, w) plane, ``SeCtx.v``."""

    def test_constant_plane(self):
        x = t4(np.full((2, 3, 4, 5), 7.5))
        _, ctx = B.se_block_forward(x, B.init_se(np.random.default_rng(11), 3, dtype=np.float64))
        assert ctx.v.shape == (2, 3)
        assert np.all(ctx.v == 7.5)

    def test_small_plane(self):
        x = t4(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        _, ctx = B.se_block_forward(x, B.init_se(np.random.default_rng(11), 1, dtype=np.float64))
        assert ctx.v.ravel()[0] == 2.5

    def test_permutation_invariance(self):
        # the gate sees a plane only through its mean
        rng = np.random.default_rng(12)
        x = rng.standard_normal((1, 2, 3, 4))
        perm = rng.permutation(12)
        xp = x.reshape(1, 2, -1)[:, :, perm].reshape(1, 2, 3, 4)
        p = B.init_se(rng, 2, dtype=np.float64)
        s, sp = B.se_block_forward(t4(x), p)[1].s, B.se_block_forward(t4(xp), p)[1].s
        assert np.allclose(s, sp, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("h", [1, 3, 8])
    @pytest.mark.parametrize("w", [1, 3, 8])
    def test_matches_slice_resize(self, h, w):
        # the upsample and the preprocessing resize share one tap rule
        x = np.random.default_rng(16).standard_normal((2, 3, h, w))
        want = resize_plane_bilinear(x, 2 * h, 2 * w)
        np.testing.assert_allclose(T.upsample_bilinear_2x(t4(x)).data, want, rtol=0, atol=1e-12)


class TestLinear:
    """SE's affine rows ``x @ W + b`` from the channel means, read through
    ``SeCtx.act1[0]``: the sigmoid of the rows, which the swish saves."""

    @staticmethod
    def sigmoid_rows(x, w, b):
        c, cs = w.shape
        p = B.SeBlockParams(B.LinearParams(w, b), B.LinearParams(np.ones((cs, c)), np.zeros(c)))
        return B.se_block_forward(t4(x), p)[1].act1[0][:, :, 0, 0]

    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])[None, :, None, None]
        got = self.sigmoid_rows(x, np.eye(3), np.zeros(3))
        assert np.array_equal(got, T._sigmoid(np.array([[1.0, -2.0, 3.0]])))

    def test_manual_dot(self):
        y = self.sigmoid_rows(np.ones((1, 2, 2, 2)), np.array([[1.0], [1.0]]), np.array([0.5]))
        assert np.array_equal(y, T._sigmoid(np.array([[2.5]])))

    def test_zero_input_gives_bias(self):
        b = np.array([0.1, 0.2])
        got = self.sigmoid_rows(np.zeros((2, 3, 2, 2)), np.ones((3, 2)), b)
        assert np.array_equal(got, T._sigmoid(np.array([b, b])))

    def test_batched_rows(self):
        # each sample's gate depends on that sample alone
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 4, 3, 3))
        p = B.init_se(rng, 4, dtype=np.float64)
        out, ctx = B.se_block_forward(t4(x), p)
        for i in range(5):
            one_out, one = B.se_block_forward(t4(x[i : i + 1]), p)
            assert np.allclose(ctx.act1[0][i], one.act1[0][0], rtol=0, atol=1e-12)
            assert np.allclose(out.data[i], one_out.data[0], rtol=0, atol=1e-12)


class TestDropConnect:
    """Stochastic depth on an MBConv shortcut: ``MbConvCtx.scale`` holds each
    sample's factor, 0 (dropped) or 1/survive_p (kept)."""

    @staticmethod
    def block(rng, survive_p):
        return B.init_mbconv(rng, 4, 4, kernel=3, stride=1, expansion=1, survive_p=survive_p,
                             dtype=np.float64)

    def test_infer_identity(self):
        # an infer-mode block draws nothing and leaves the rng untouched
        rng = np.random.default_rng(18)
        p = self.block(rng, 0.5)
        x = t4(rng.standard_normal((4, 4, 3, 3)))
        state = rng.bit_generator.state
        _, ctx = B.mbconv_forward(x, p, T.INFER, rng)
        assert ctx.scale is None
        assert rng.bit_generator.state == state

    def test_survive_one_identity(self):
        rng = np.random.default_rng(19)
        p = self.block(rng, 1.0)
        x = t4(rng.standard_normal((4, 4, 3, 3)))
        state = rng.bit_generator.state
        _, ctx = B.mbconv_forward(x, p, T.TRAIN, rng)
        assert ctx.scale is None
        assert rng.bit_generator.state == state

    def test_expectation_preserving(self):
        rng = np.random.default_rng(20)
        p = self.block(rng, 0.5)
        x = t4(rng.standard_normal((8, 4, 3, 3)))
        scales = np.concatenate([B.mbconv_forward(x, p, T.TRAIN, rng)[1].scale for _ in range(500)])
        assert set(scales.tolist()) == {0.0, 2.0}
        assert abs(scales.mean() - 1.0) < 0.05

    def test_invalid_probability(self):
        rng = np.random.default_rng(0)
        for bad in (0.0, -0.5, 1.5, np.nan):
            with pytest.raises(ParameterError, match="survive_p"):
                self.block(rng, bad)

    def test_seed_determinism(self):
        p = self.block(np.random.default_rng(0), 0.7)
        x = t4(np.random.default_rng(1).standard_normal((8, 4, 3, 3)))
        a = B.mbconv_forward(x, p, T.TRAIN, np.random.default_rng(99))
        b = B.mbconv_forward(x, p, T.TRAIN, np.random.default_rng(99))
        assert np.array_equal(a[1].scale, b[1].scale)
        assert np.array_equal(a[0].data, b[0].data)
