"""Loss function tests against scalar evaluations and finite differences."""

import math

import numpy as np
import pytest

from earunet.errors import InputError, ParameterError, ShapeError
from earunet.losses import LOSS_PRESETS, LossWeights, combo_loss
from earunet.tensor import Tensor4
from oracles import max_rel_err, numeric_grad


def t4(arr):
    return Tensor4(np.asarray(arr, dtype=np.float64))


def bce_term(pred, target):
    """combo_loss's BCE term alone."""
    return combo_loss(pred, target, LossWeights(1.0, 0.0))


def dice_term(pred, target):
    """combo_loss's Dice term alone."""
    return combo_loss(pred, target, LossWeights(0.0, 1.0))


class TestBce:
    def test_perfect_prediction_near_zero(self):
        target = np.array([[[[0.0, 1.0, 1.0, 0.0]]]])
        loss, _ = bce_term(t4(target), t4(target))
        assert 0.0 <= loss <= 1.2e-7

    def test_half_confidence_is_ln2(self):
        loss, _ = bce_term(t4([[[[0.5]]]]), t4([[[[1.0]]]]))
        assert abs(loss - math.log(2.0)) < 1e-9

    def test_non_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            pred = rng.uniform(0.01, 0.99, (1, 1, 3, 3))
            target = rng.integers(0, 2, (1, 1, 3, 3)).astype(float)
            loss, _ = bce_term(t4(pred), t4(target))
            assert loss >= 0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        pred = rng.uniform(0.05, 0.95, (1, 1, 4, 4))
        target = rng.integers(0, 2, (1, 1, 4, 4)).astype(float)
        _, grad = bce_term(t4(pred), t4(target))
        num = numeric_grad(lambda p: bce_term(t4(p), t4(target))[0], pred, step=1e-5)
        assert max_rel_err(grad, num) < 1e-4

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            bce_term(t4(np.zeros((1, 1, 2, 2))), t4(np.zeros((1, 1, 2, 3))))


class TestDice:
    def test_both_empty_is_zero(self):
        z = t4(np.zeros((1, 1, 2, 2)))
        loss, _ = dice_term(z, z)
        assert loss == 0.0

    def test_perfect_overlap_all_ones(self):
        ones = t4(np.ones((1, 1, 5, 5)))
        loss, _ = dice_term(ones, ones)
        assert abs(loss) < 1e-12

    def test_total_miss(self):
        target = t4(np.ones((1, 1, 1, 3)))
        pred = t4(np.zeros((1, 1, 1, 3)))
        loss, _ = dice_term(pred, target)
        assert abs(loss - 0.75) < 1e-12  # 1 - 1/(3+0+1)

    def test_symmetric(self):
        rng = np.random.default_rng(2)
        a = t4(rng.uniform(0, 1, (1, 1, 3, 3)))
        b = t4(rng.integers(0, 2, (1, 1, 3, 3)).astype(float))
        assert abs(dice_term(a, b)[0] - dice_term(b, a)[0]) < 1e-12

    def test_exact_overlap_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            y = rng.integers(0, 2, (1, 1, 4, 4)).astype(float)
            loss, _ = dice_term(t4(y), t4(y))
            assert loss <= 1.0 / (2.0 * y.sum() + 1.0) + 1e-12

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred = rng.uniform(0, 1, (1, 1, 3, 3))
            target = rng.integers(0, 2, (1, 1, 3, 3)).astype(float)
            loss, _ = dice_term(t4(pred), t4(target))
            assert 0.0 <= loss < 1.0

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.05, 0.95, (1, 1, 4, 4))
        target = rng.integers(0, 2, (1, 1, 4, 4)).astype(float)
        _, grad = dice_term(t4(pred), t4(target))
        num = numeric_grad(lambda p: dice_term(t4(p), t4(target))[0], pred, step=1e-5)
        assert max_rel_err(grad, num) < 1e-4


class TestCombo:
    def setup_method(self):
        rng = np.random.default_rng(6)
        self.pred = t4(rng.uniform(0.05, 0.95, (2, 1, 3, 3)))
        self.target = t4(rng.integers(0, 2, (2, 1, 3, 3)).astype(float))

    def test_additive(self):
        lb, gb = bce_term(self.pred, self.target)
        ld, gd = dice_term(self.pred, self.target)
        lc, gc = combo_loss(self.pred, self.target, LossWeights(1.0, 1.0))
        assert abs(lc - (lb + ld)) < 1e-7
        assert np.allclose(gc, gb + gd, atol=1e-12)

    def test_linear_in_weights(self):
        l1, g1 = combo_loss(self.pred, self.target, LossWeights(0.5, 0.5))
        l2, g2 = combo_loss(self.pred, self.target, LossWeights(1.5, 1.5))
        assert abs(l2 - 3.0 * l1) < 1e-9
        assert np.allclose(g2, 3.0 * g1, atol=1e-12)

    def test_zero_weights_rejected(self):
        with pytest.raises(ParameterError):
            LossWeights(0.0, 0.0)
        with pytest.raises(ParameterError):
            LossWeights(-1.0, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, bad):
        # a NaN weight would pass the sign checks and make combo_loss NaN
        with pytest.raises(ParameterError, match="finite"):
            LossWeights(bad, 1.0)
        with pytest.raises(ParameterError, match="finite"):
            LossWeights(1.0, bad)

    def test_gradient_matches_finite_difference(self):
        w = LossWeights(0.8, 0.2)
        _, grad = combo_loss(self.pred, self.target, w)
        num = numeric_grad(
            lambda p: combo_loss(t4(p), self.target, w)[0], self.pred.data.copy(), step=1e-5
        )
        assert max_rel_err(grad, num) < 1e-4


class TestBadInput:
    """Values outside [0, 1], or not finite, raise instead of scoring: at
    p = 0.9 a target of 2 gave a negative loss, a prediction of 1.5 scored
    as perfect with zero gradient, and a NaN prediction got a zero BCE
    gradient."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 1.5, 2.0])
    @pytest.mark.parametrize("which", ["pred", "target"])
    def test_non_finite_or_out_of_range(self, bad, which):
        arrays = {"pred": np.full((1, 1, 2, 2), 0.9), "target": np.ones((1, 1, 2, 2))}
        arrays[which][0, 0, 1, 0] = bad
        for w in (LossWeights(1.0, 0.0), LossWeights(0.0, 1.0)):
            with pytest.raises(InputError, match=f"combo_loss: {which}"):
                combo_loss(t4(arrays["pred"]), t4(arrays["target"]), w)

    def test_empty(self):
        empty = t4(np.zeros((0, 1, 2, 2)))
        with pytest.raises(InputError, match="non-empty"):
            combo_loss(empty, empty, LossWeights(1.0, 1.0))


class TestPresets:
    def test_table_presets_present(self):
        assert set(LOSS_PRESETS) == {"1:0", "0:1", "0.2:0.8", "0.5:0.5", "0.8:0.2", "1:1"}
