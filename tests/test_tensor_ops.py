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
from oracles import (
    bn_backward_naive,
    conv2d_backward_naive,
    conv2d_naive,
    max_rel_err,
    numeric_grad,
)

GRAD_TOL = 1e-3


def t4(arr):
    return T.Tensor4(np.asarray(arr, dtype=np.float64))


class TestConv2d:
    @pytest.mark.parametrize(
        "sides", [(1, 1, 1, 1), (2, 2, 2, 2), (0, 0, 0, 3), (2, 0, 0, 1), (0, 1, 2, 0), (1, 3, 0, 0), (2, 1, 3, 4)]
    )
    @pytest.mark.parametrize("shape", [(4, 5), (2, 3, 4, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_frame_matches_np_pad(self, sides, shape, dtype):
        x = np.random.default_rng(10).standard_normal(shape).astype(dtype)
        top, bottom, left, right = sides
        got = T._frame(x, top, bottom, left, right)
        lead = [(0, 0)] * (x.ndim - 2)
        want = np.pad(x, lead + [(top, bottom), (left, right)], constant_values=0)
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_frame_without_sides_is_its_input(self):
        x = np.random.default_rng(11).standard_normal((2, 3, 4, 5)).astype(np.float32)
        assert T._frame(x, 0, 0, 0, 0) is x

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

    @pytest.mark.parametrize(
        "make,error",
        [
            (lambda: T.Tensor4(np.zeros((4, 4))), ShapeError),
            (lambda: T.ConvParams(weight=np.zeros((2, 3, 3))), ShapeError),
            (lambda: T.ConvParams(weight=np.zeros((2, 2, 3, 3)), stride=0), ParameterError),
            (lambda: T.ConvParams(weight=np.zeros((2, 2, 3, 3)), padding=-1), ParameterError),
            (lambda: T.ConvParams(weight=np.zeros((2, 2, 3, 3)), bias=np.zeros(3)), ShapeError),
        ],
        ids=["tensor4-2d", "weight-3d", "stride-0", "padding-negative", "bias-length"],
    )
    def test_bad_operands_are_rejected(self, make, error):
        with pytest.raises(error):
            make()

    def test_channel_mismatch_reports_both_shapes(self):
        x = t4(np.zeros((1, 3, 4, 4)))
        p = T.ConvParams(weight=np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError) as exc:
            T.conv2d(x, p)
        assert "(1, 3, 4, 4)" in str(exc.value) and "(2, 2, 3, 3)" in str(exc.value)

    def test_kernel_larger_than_padded_input_fails(self):
        p = T.ConvParams(weight=np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError, match="does not fit padded input"):
            T.conv2d(t4(np.zeros((1, 1, 2, 2))), p)

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
            kh = int(rng.integers(1, min(h + 2 * padding, 5) + 1))
            kw = int(rng.integers(1, min(w + 2 * padding, 5) + 1))
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

    @pytest.mark.parametrize(
        "stride,c,block",
        [
            # 8x8 output, wide rows of pitch 10 (5.5 KiB per channel), in the padded
            # input and in the framed grad_out: runs 2 + 2 + 2 + 1 for all three
            pytest.param(1, 7, 16384, id="wide-rows-2+2+2+1-channels"),
            # 8x8 output grids, 4.5 KiB per channel: runs 2 * 6 + 1 for the forward and
            # the weight gradient; the input gradient's 2x2-tap phase reads wide rows
            # of pitch 9 (2.2 KiB) from the framed grad_out: runs 4 + 4 + 4 + 1
            pytest.param(2, 13, 9500, id="grids-2x6+1-channels"),
        ],
    )
    def test_depthwise_channel_runs_match_naive(self, monkeypatch, stride, c, block):
        # one image's patch matrix spans 3+ blocks, so each gather splits it
        # into runs of channels, the last one partial; images go one at a time
        monkeypatch.setattr(T, "_BLOCK_BYTES", block)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((2, c, 8 * stride, 8 * stride))
        p = T.ConvParams(weight=rng.standard_normal((c, 1, 3, 3)), stride=stride, padding=1, groups=c)
        go = rng.standard_normal((2, c, 8, 8))
        calls = record_tap_chunks(monkeypatch)
        got = T.conv2d(T.Tensor4(x), p).data
        gx, gw, _ = T.conv2d_backward(T.Tensor4(x), p, go)
        runs = [len(pitches) for _, _, pitches in calls]
        assert min(runs[0], runs[1], max(runs[2:])) >= 3 * len(x), runs
        assert np.allclose(got, conv2d_naive(x, p.weight, None, stride, 1, c), rtol=1e-12, atol=1e-12)
        want_gx, want_gw = conv2d_backward_naive(x, p.weight, go, stride, 1, c)
        assert np.allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        assert np.allclose(gw, want_gw, rtol=1e-12, atol=1e-12)

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

    def test_every_matmul_runs_on_blas(self, monkeypatch):
        # numpy hands a matmul to BLAS only when every operand has non-negative
        # strides and a unit stride in one of its last two axes; a flipped
        # kernel's view runs in numpy's own loop, several times slower
        rng = np.random.default_rng(29)
        cases = [(6, 3, 1), (6, 3, 2), (6, 5, 1), (6, 5, 2), (1, 3, 1)]  # (groups, k, stride)
        args = []
        for groups, k, stride in cases:
            x = t4(rng.standard_normal((2, 6, 9, 8)))
            p = T.ConvParams(weight=rng.standard_normal((6, 6 // groups, k, k)), stride=stride,
                             padding=k // 2, groups=groups)
            args.append((x, p, rng.standard_normal(T.conv2d(x, p).dims)))
        matmul, operands = np.matmul, []

        def spy(*arrays, **kwargs):
            operands.extend((*arrays, kwargs["out"]) if "out" in kwargs else arrays)
            return matmul(*arrays, **kwargs)

        monkeypatch.setattr(T.np, "matmul", spy)
        for x, p, go in args:
            T.conv2d_backward(x, p, go)
        assert operands
        for a in operands:
            assert min(a.strides) >= 0 and a.itemsize in a.strides[-2:], (a.shape, a.strides)

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
        "n,c,oc,depthwise,rows",
        [
            pytest.param(7, 62, 1, False, 62, id="dense-forward-3+3+1-images"),
            pytest.param(7, 1, 52, False, 52, id="dense-input-gradient-3+3+1-images"),
            pytest.param(2, 400, 400, True, 400, id="depthwise-forward-186+186+28-channels"),
        ],
    )
    def test_chunks_match_naive(self, n, c, oc, depthwise, rows):
        # 8x8 float64 planes, 3x3 kernel, padding 1: the forward, and the input
        # gradient from grad_out framed by one zero row and column a side, read
        # rows of pitch 10 and correlate `rows` channels (the input gradient the
        # oc channels of grad_out). Dense chunks group whole images; a depthwise
        # image over the block splits into chunks of channels, the last one
        # partial, alike in the forward and the input gradient
        oh, k, pitch = 8, 3, 10
        span = (oh - 1) * pitch + oh
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
        # the forward takes wide rows at stride 1 and grids at stride 2. Every
        # input-gradient phase, at either stride, takes wide rows from a crop of
        # one framed copy of grad_out; a dense weight gradient takes its taps
        # from _taps and makes no chunk gather
        rng = np.random.default_rng(27)
        x = t4(rng.standard_normal((2, 4, 7, 6)))
        p = T.ConvParams(weight=rng.standard_normal((4, 1 if depthwise else 4, 3, 3)), padding=1,
                         groups=4 if depthwise else 1)
        for stride, ow in ((1, 6), (2, 3)):
            q = dataclasses.replace(p, stride=stride)
            go = rng.standard_normal(T.conv2d(x, q).dims)
            calls = record_tap_chunks(monkeypatch)
            T.conv2d(x, q)
            T.conv2d_backward(x, q, go)
            monkeypatch.undo()
            # the padded input, for the forward and then a depthwise weight gradient
            padded = 1 if not depthwise else 2
            pitch = 8 if stride == 1 else ow
            assert [(xp.shape, o, pitches) for xp, o, pitches in calls[:padded]] == [
                ((2, 4, 9, 8), ow, [pitch])] * padded
            phases = calls[padded:]
            assert len(phases) == stride * stride
            framed = phases[0][0].base
            assert framed.shape[:2] == go.shape[:2] and not np.shares_memory(framed, go)
            for crop, o, pitches in phases:
                assert crop.base is framed and pitches == [framed.shape[3]] and framed.shape[3] > o

def record_tap_chunks(monkeypatch):
    """Wrap tensor._tap_chunks; each call appends (xp, ow, the pitch of each
    chunk) to the returned list."""
    tap_chunks, calls = T._tap_chunks, []

    def recording(xp, kh, kw, stride, oh, ow, depthwise):
        pitches = []
        calls.append((xp, ow, pitches))
        for chunk in tap_chunks(xp, kh, kw, stride, oh, ow, depthwise):
            pitches.append(chunk[3])
            yield chunk

    monkeypatch.setattr(T, "_tap_chunks", recording)
    return calls


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
        folded = T.fold_bn(conv, bn)
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

    def test_empty_batch_leaves_running_stats(self):
        # an empty batch used to pass the check and write NaN running stats
        s = fresh_bn(3)
        with pytest.raises(DegenerateBatchError, match="0 elements"):
            T.batchnorm2d(t4(np.ones((0, 3, 4, 4))), s)
        assert np.array_equal(s.running_mean, np.zeros(3)) and np.array_equal(s.running_var, np.ones(3))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.batchnorm2d(t4(np.ones((1, 3, 2, 2))), fresh_bn(4))

    @pytest.mark.parametrize(
        "field,value,error",
        [("beta", np.zeros(3), ShapeError), ("running_var", np.array([1.0, 0.0]), ParameterError)],
    )
    def test_state_rejects_bad_arrays(self, field, value, error):
        arrays = {f.name: getattr(fresh_bn(2), f.name) for f in dataclasses.fields(T.BatchNormState)}
        with pytest.raises(error):
            T.BatchNormState(**{**arrays, field: value})

    def test_grad_out_shape_error(self):
        _, saved = T.batchnorm2d(t4(np.arange(8.0).reshape(2, 1, 2, 2)), fresh_bn(1))
        with pytest.raises(ShapeError):
            T.batchnorm2d_backward(saved, fresh_bn(1), np.zeros((2, 1, 2, 3)))

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_centres_once(self, dtype):
        # xh is (x - mean)*inv bit for bit, and out is xh*gamma + beta; inv
        # is 1/sqrt(var + eps) of the centred input, to the dtype's rounding
        rng = np.random.default_rng(12)
        x = (rng.standard_normal((4, 3, 6, 5)) * 3.0 + 40.0).astype(dtype)
        s = fresh_bn(3, gamma=[0.5, 1.5, -2.0], beta=[0.1, -1.0, 3.0], dtype=dtype)
        out, (xh, inv) = T.batchnorm2d(T.Tensor4(x), s)
        mean = x.mean(axis=(0, 2, 3), dtype=np.float64)
        var = np.var(x.astype(np.float64), axis=(0, 2, 3))
        assert xh.dtype == inv.dtype == out.data.dtype == dtype
        assert np.allclose(inv, 1.0 / np.sqrt(var + T.BN_EPS), rtol=4 * np.finfo(dtype).eps, atol=0)
        want = (x - mean.astype(dtype)[None, :, None, None]) * inv[None, :, None, None]
        assert np.array_equal(xh, want)
        assert np.array_equal(out.data, want * s.gamma[None, :, None, None] + s.beta[None, :, None, None])

    @pytest.mark.parametrize("cancelling,bound", [(False, 1e-6), (True, 1e-3)])
    def test_backward_float32_matches_float64_oracle(self, cancelling, bound):
        # a decoder-like activation; in the cancelling case grad_out is nearly
        # affine in xh, so the mean terms remove almost all of it
        rng = np.random.default_rng(13)
        x = (rng.standard_normal((8, 24, 32, 32)) * 2.0 + 1.0).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, 24).astype(np.float32)
        s = fresh_bn(24, gamma=gamma, dtype=np.float32)
        saved = T.batchnorm2d(T.Tensor4(x), s)[1]
        noise = rng.standard_normal(x.shape)
        if cancelling:
            x64 = x.astype(np.float64)
            mean = x64.mean(axis=(0, 2, 3), keepdims=True)
            xh = (x64 - mean) / np.sqrt(x64.var(axis=(0, 2, 3), keepdims=True) + T.BN_EPS)
            go = (0.7 + 1.3 * xh + 1e-3 * noise).astype(np.float32)
        else:
            go = noise.astype(np.float32)
        gx = T.batchnorm2d_backward(saved, s, go)[0]
        want = bn_backward_naive(x, gamma, go)
        assert gx.dtype == np.float32
        assert np.abs(gx - want).max() / np.abs(want).max() < bound


class TestActivations:
    def test_swish_values(self):
        x = t4(np.array([[[[0.0, 1.0]]]]))
        out = T.activate(x, "swish")[0].data.ravel()
        assert out[0] == 0.0
        assert abs(out[1] - 0.731059) < 1e-5

    def test_sigmoid_values(self):
        out = T.activate(t4(np.array([[[[0.0]]]])), "sigmoid")[0].data
        assert out.ravel()[0] == 0.5

    def test_sigmoid_saturates_exactly(self):
        # the plain sigmoid: the head, not activate, clips into (0, 1)
        extremes = np.array([[[[1e30, -1e30]]]], dtype=np.float32)
        out = T.activate(T.Tensor4(extremes), "sigmoid")[0].data
        assert out.ravel().tolist() == [1.0, 0.0]

    def test_relu(self):
        out = T.activate(t4(np.array([[[[-2.0, 0.0, 3.0]]]])), "relu")[0].data.ravel()
        assert list(out) == [0.0, 0.0, 3.0]

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            T.activate(t4(np.zeros((1, 1, 1, 1))), "tanh")
        with pytest.raises(ParameterError):
            T.activate_backward(np.zeros((1, 1, 1, 1)), "tanh", np.zeros((1, 1, 1, 1)))

    @pytest.mark.parametrize("kind", ["relu", "swish", "sigmoid"])
    def test_grad_out_shape_error(self, kind):
        saved = T.activate(t4(np.zeros((1, 2, 3, 3))), kind)[1]
        with pytest.raises(ShapeError):
            T.activate_backward(saved, kind, np.zeros((1, 2, 3, 4)))

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


class TestFlushSubnormal:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values(self, dtype):
        fi = np.finfo(dtype)
        sub = [fi.smallest_subnormal, fi.tiny / 2, np.nextafter(fi.tiny, dtype(0))]
        keep = [0.0, fi.tiny, 1.5, fi.max, np.inf]
        a = np.array([*sub, *(-v for v in sub), *keep, *(-v for v in keep), np.nan], dtype=dtype)
        want = a.copy()
        want[: 2 * len(sub)] = np.copysign(0, want[: 2 * len(sub)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = T.flush_subnormal(a)
        assert got is a
        assert np.array_equal(a, want, equal_nan=True)
        # a flushed value keeps its sign, as hardware flush-to-zero does; so does -0
        assert np.array_equal(np.signbit(a), np.signbit(want))

    def test_in_place_across_chunks_and_layouts(self):
        # 3+ chunks of a quarter of _BLOCK_BYTES, contiguous and as two views
        rng = np.random.default_rng(19)
        tiny = np.finfo(np.float32).tiny
        base = rng.standard_normal((4, 5, 64, 130)).astype(np.float32)
        base[rng.random(base.shape) < 0.05] *= np.float32(1e-39)
        want = np.where(np.abs(base) < tiny, np.float32(0), base)
        for view in (lambda a: a, lambda a: a.transpose(3, 1, 0, 2), lambda a: a[:, ::2, :, 1::3]):
            a = base.copy()
            v = view(a)
            assert T.flush_subnormal(v) is v
            flushed = np.zeros(a.shape, dtype=bool)
            view(flushed)[...] = True
            assert np.array_equal(a, np.where(flushed, want, base))


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
        assert np.all(got >= 0.0) and np.all(got <= 1.0)
        normal = s >= self.TINY
        assert np.all(np.abs(got - s)[normal] <= self.ULPS * s[normal])
        # below the normal range the output is subnormal or 0, within tiny of
        # the truth; the head's test in test_model pins its clip to tiny
        assert np.all(np.abs(got - s)[~normal] < self.TINY)
        # y*(1-y) loses the relative accuracy of 1-y as y nears 1, so its
        # error is bounded by the size of y, not of the result
        assert np.all(np.abs(grad - s * (1.0 - s)) <= self.ULPS * s + self.TINY)

    @pytest.mark.parametrize("g", [1.0, 1e-3, 1e-30])
    def test_sigmoid_derivative_is_flushed(self, g):
        # y*(1-y)*g is subnormal where y nears tiny, or is subnormal itself,
        # for every g; the flushed values move by less than tiny, and the
        # normal ones keep their bytes
        y = T.activate(T.Tensor4(self.grid()[None, None, None, :]), "sigmoid")[0].data
        go = np.full_like(y, g)
        got = T.activate_backward(y, "sigmoid", go)
        raw = (np.float32(1) - y) * y * go
        normal = np.abs(raw) >= self.TINY
        assert not np.any((got != 0) & (np.abs(got) < self.TINY))
        assert np.any(~normal)
        assert got[normal].tobytes() == raw[normal].tobytes()
        assert not np.any(got[~normal])

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

    def test_grad_out_shape_error(self):
        with pytest.raises(ShapeError):
            T.upsample_bilinear_2x_backward(t4(np.zeros((1, 2, 3, 4))), np.zeros((1, 2, 6, 6)))

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
