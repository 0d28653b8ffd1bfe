"""Metric tests against a brute-force reimplementation and hand counts."""

from dataclasses import astuple

import numpy as np
import pytest

from earunet import metrics as MX
from earunet.errors import ShapeError
from earunet.volumes import LabelVolume
from oracles import metrics_naive, surface_naive

SP1 = (1.0, 1.0, 1.0)


def lv(arr, spacing=SP1):
    return LabelVolume(np.asarray(arr, dtype=np.uint8), spacing)


def random_mask(rng, shape, p=0.3):
    return lv((rng.random(shape) < p).astype(np.uint8))


class TestOverlapMetrics:
    def test_dice_identical(self):
        rng = np.random.default_rng(0)
        a = random_mask(rng, (4, 4, 4))
        assert MX.evaluate_case(a, a).dice == 1.0

    def test_dice_disjoint(self):
        a = np.zeros((3, 3, 3)), np.zeros((3, 3, 3))
        a[0][0, 0, 0] = 1
        a[1][2, 2, 2] = 1
        assert MX.evaluate_case(lv(a[0]), lv(a[1])).dice == 0.0

    def test_dice_half(self):
        a = np.zeros((1, 1, 4))
        b = np.zeros((1, 1, 4))
        a[0, 0, :2] = 1  # |A|=2
        b[0, 0, 1:3] = 1  # |B|=2, |A∩B|=1
        assert MX.evaluate_case(lv(a), lv(b)).dice == 0.5

    def test_dice_both_empty(self):
        z = lv(np.zeros((2, 2, 2)))
        assert MX.evaluate_case(z, z).dice == 1.0

    def test_voe_cases(self):
        rng = np.random.default_rng(1)
        a = random_mask(rng, (4, 4, 4))
        assert MX.evaluate_case(a, a).voe == 0.0
        z = lv(np.zeros((2, 2, 2)))
        assert MX.evaluate_case(z, z).voe == 0.0
        x = np.zeros((1, 1, 3))
        y = np.zeros((1, 1, 3))
        x[0, 0, :2] = 1
        y[0, 0, 1:] = 1  # inter 1, union 3
        assert abs(MX.evaluate_case(lv(x), lv(y)).voe - 2.0 / 3.0) < 1e-15

    def test_rvd_signed(self):
        a = np.zeros((1, 1, 20))
        b = np.zeros((1, 1, 20))
        a[0, 0, :10] = 1
        b[0, 0, :12] = 1
        assert abs(MX.evaluate_case(lv(a), lv(b)).rvd - 0.2) < 1e-15
        b[0, 0, :] = 0
        b[0, 0, :5] = 1
        assert abs(MX.evaluate_case(lv(a), lv(b)).rvd + 0.5) < 1e-15

    def test_rvd_empty_segmentation(self):
        r = MX.evaluate_case(lv(np.zeros((2, 2, 2))), lv(np.ones((2, 2, 2))))
        assert r.rvd is None
        # an empty reference leaves RVD defined: all of A is excess
        assert MX.evaluate_case(lv(np.ones((2, 2, 2))), lv(np.zeros((2, 2, 2)))).rvd == -1.0

    def test_rvd_antisymmetry_relation(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = random_mask(rng, (5, 5, 5), 0.4)
            b = random_mask(rng, (5, 5, 5), 0.4)
            na, nb = a.voxels.sum(), b.voxels.sum()
            if na == 0 or nb == 0:
                continue
            lhs = MX.evaluate_case(a, b).rvd
            rhs = -MX.evaluate_case(b, a).rvd * nb / na
            assert abs(lhs - rhs) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError, match="dims"):
            MX.evaluate_case(lv(np.zeros((2, 2, 2))), lv(np.zeros((2, 2, 3))))


class TestSurface:
    def test_single_voxel(self):
        v = np.zeros((3, 3, 3))
        v[1, 1, 1] = 1
        s = MX.extract_surface(lv(v))
        assert s.shape == (1, 3) and tuple(s[0]) == (1, 1, 1)

    def test_solid_cube_shell(self):
        v = np.zeros((5, 5, 5))
        v[1:4, 1:4, 1:4] = 1
        s = MX.extract_surface(lv(v))
        assert len(s) == 26
        assert not any((c == [2, 2, 2]).all() for c in s)

    def test_empty(self):
        assert MX.extract_surface(lv(np.zeros((3, 3, 3)))).shape == (0, 3)

    def test_border_counts_as_background(self):
        v = np.ones((3, 3, 3))
        s = MX.extract_surface(lv(v))
        assert len(s) == 26  # only the very center is interior

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_mask(rng, (6, 6, 6), 0.4)
            got = {tuple(c) for c in MX.extract_surface(m)}
            want = {tuple(int(x) for x in c) for c in surface_naive(m.voxels)}
            assert got == want


class TestDistances:
    def test_identical_zero(self):
        rng = np.random.default_rng(4)
        m = random_mask(rng, (5, 5, 5), 0.5)
        r = MX.evaluate_case(m, m)
        assert r.assd_mm == 0.0
        assert r.msd_mm == 0.0

    def test_two_voxels_three_apart(self):
        a = np.zeros((7, 3, 3))
        b = np.zeros((7, 3, 3))
        a[1, 1, 1] = 1
        b[4, 1, 1] = 1
        r = MX.evaluate_case(lv(a), lv(b))
        assert (r.assd_mm, r.msd_mm) == (3.0, 3.0)
        # doubling the axis spacing doubles both distances
        sp = (2.0, 1.0, 1.0)
        r = MX.evaluate_case(lv(a, sp), lv(b, sp))
        assert (r.assd_mm, r.msd_mm) == (6.0, 6.0)

    def test_voxel_inside_shell_brute_force(self):
        v = np.zeros((7, 7, 7))
        v[1:6, 1:6, 1:6] = 1
        shell = v.copy()
        shell[2:5, 2:5, 2:5] = 0
        single = np.zeros_like(v)
        single[3, 3, 3] = 1
        got = MX.evaluate_case(lv(single), lv(shell)).msd_mm
        _, _, _, _, want = metrics_naive(single, shell, SP1)
        assert abs(got - want) < 1e-12

    def test_msd_dominates_assd(self):
        rng = np.random.default_rng(5)
        count = 0
        while count < 100:
            a = random_mask(rng, (6, 6, 6), 0.3)
            b = random_mask(rng, (6, 6, 6), 0.3)
            if not a.voxels.any() or not b.voxels.any():
                continue
            r = MX.evaluate_case(a, b)
            assert r.msd_mm >= r.assd_mm - 1e-12
            count += 1

    @pytest.mark.parametrize("field", ["assd_mm", "msd_mm"], ids=["assd", "msd"])
    def test_spacing_mismatch(self, field):
        a = lv(np.ones((2, 2, 2)), (1.0, 1.0, 1.0))
        b = lv(np.ones((2, 2, 2)), (2.0, 1.0, 1.0))
        with pytest.raises(ShapeError, match="spacing"):
            MX.evaluate_case(a, b)
        # at a shared spacing the same masks give a defined distance
        assert getattr(MX.evaluate_case(b, b), field) == 0.0

    def test_empty_surface_undefined(self):
        r = MX.evaluate_case(lv(np.zeros((3, 3, 3))), lv(np.ones((3, 3, 3))))
        assert r.assd_mm is None and r.msd_mm is None
        r = MX.evaluate_case(lv(np.ones((3, 3, 3))), lv(np.zeros((3, 3, 3))))
        assert r.assd_mm is None and r.msd_mm is None


class TestEvaluateCase:
    def test_perfect_case(self):
        rng = np.random.default_rng(6)
        m = random_mask(rng, (6, 6, 6), 0.4)
        r = MX.evaluate_case(m, m)
        assert astuple(r) == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_voe_dice_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_mask(rng, (5, 5, 5), 0.4)
            b = random_mask(rng, (5, 5, 5), 0.4)
            r = MX.evaluate_case(a, b)
            if r.dice == 0.0 and not (a.voxels.any() or b.voxels.any()):
                continue
            assert abs(r.voe - (1.0 - r.dice / (2.0 - r.dice))) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        spacing = (1.5, 0.75, 0.75)
        for _ in range(10):
            a = LabelVolume((rng.random((8, 8, 8)) < 0.35).astype(np.uint8), spacing)
            b = LabelVolume((rng.random((8, 8, 8)) < 0.35).astype(np.uint8), spacing)
            got = MX.evaluate_case(a, b)
            want = metrics_naive(a.voxels, b.voxels, spacing)
            for g, w in zip(astuple(got), want):
                if w is None:
                    assert g is None
                else:
                    assert abs(g - w) <= 1e-9

    def test_undefined_markers_not_failures(self):
        gt = lv(np.ones((3, 3, 3)))
        pred = lv(np.zeros((3, 3, 3)))
        r = MX.evaluate_case(pred, gt)
        assert r.dice == 0.0 and r.voe == 1.0
        assert r.rvd is None and r.assd_mm is None and r.msd_mm is None

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        a = (rng.random((5, 5, 5)) < 0.4).astype(np.uint8)
        b = (rng.random((5, 5, 5)) < 0.4).astype(np.uint8)
        pad = ((2, 1), (1, 2), (3, 0))
        r1 = MX.evaluate_case(lv(a), lv(b))
        r2 = MX.evaluate_case(lv(np.pad(a, pad)), lv(np.pad(b, pad)))
        for x, y in zip(astuple(r1), astuple(r2)):
            if x is None:
                assert y is None
            else:
                assert abs(x - y) < 1e-12

    def test_spacing_mismatch(self):
        # geometry is checked before anything is counted, so empty masks
        # with no surface to measure still fail
        a = lv(np.zeros((2, 2, 2)), (1.0, 1.0, 1.0))
        b = lv(np.zeros((2, 2, 2)), (2.0, 1.0, 1.0))
        with pytest.raises(ShapeError):
            MX.evaluate_case(a, b)
