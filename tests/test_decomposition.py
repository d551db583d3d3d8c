"""Dyadic level sets, t-slab classification, and frequency trimming."""

import numpy as np
import pytest

from momentxray.decomposition import (
    combined_decompose,
    dyadic_decompose,
    reconstruct,
    slab_decompose,
    trim_frequency,
)
from momentxray.exponents import INF
from momentxray.field import (SampledField, lorentz_mixed_norm, lp_norm,
                              mixed_norm)

from conftest import box_grid


def positive_field(side, n, seed, lo=0.05, hi=4.0):
    rng = np.random.default_rng(seed)
    g = box_grid(side, 0, 1, n)
    return SampledField(g, rng.uniform(lo, hi, size=(n,) * 3))


class TestDyadic:
    def test_two_chi_single_piece(self):
        g = box_grid("source", 0, 1, 4)
        vals = np.zeros((4, 4, 4))
        vals[:2] = 2.0
        pieces = dyadic_decompose(SampledField(g, vals))
        assert len(pieces) == 1
        assert pieces[0].j == 1
        assert pieces[0].measure == pytest.approx(0.5)

    def test_three_levels(self):
        g = box_grid("source", 0, 1, 6)
        vals = np.ones((6, 6, 6))
        vals[2:] = 2.0
        vals[4:] = 4.0
        pieces = dyadic_decompose(SampledField(g, vals))
        assert [p.j for p in pieces] == [0, 1, 2]

    def test_masks_disjoint_and_sorted(self):
        f = positive_field("source", 8, 51)
        pieces = dyadic_decompose(f)
        total = np.zeros(f.values.shape, dtype=int)
        for p in pieces:
            total += p.mask.astype(int)
        assert np.max(total) == 1
        assert [p.j for p in pieces] == sorted(p.j for p in pieces)

    def test_sandwich_pointwise(self):
        f = positive_field("source", 8, 53)
        for p in dyadic_decompose(f):
            sel = f.values[p.mask]
            assert np.all(sel >= 2.0 ** p.j)
            assert np.all(sel < 2.0 ** (p.j + 1))

    def test_minorant_norm_bracketing(self):
        f = positive_field("source", 8, 57)
        minor = reconstruct(dyadic_decompose(f), f)
        for p in (1, 2):
            lo = lp_norm(f, p)
            assert 0.5 * lo <= lp_norm(minor, p) <= lo

    def test_rejects_negative(self):
        g = box_grid("source", 0, 1, 4)
        vals = np.ones((4, 4, 4))
        vals[0, 0, 0] = -0.5
        with pytest.raises(ValueError):
            dyadic_decompose(SampledField(g, vals))

    def test_floor_cutoff(self):
        g = box_grid("source", 0, 1, 4)
        f = SampledField(g, np.full((4, 4, 4), 0.5))
        assert dyadic_decompose(f, j_min=0) == []


class TestSlab:
    def test_unit_cube_single_slab(self):
        g = box_grid("target", 0, 1, 5)
        f = SampledField(g, np.ones((5, 5, 5)))
        pieces = slab_decompose(f, 2)
        assert len(pieces) == 1
        assert pieces[0].l == 0
        assert np.all(pieces[0].t_mask)

    def test_zero_field_empty(self):
        g = box_grid("target", 0, 1, 5)
        assert slab_decompose(SampledField(g, np.zeros((5, 5, 5))), 2) == []

    def test_q_power_additivity(self):
        g = positive_field("target", 8, 61)
        q, r = 2.0, 3.0
        total = mixed_norm(g, q, r) ** q
        acc = 0.0
        for p in slab_decompose(g, r):
            sel = p.t_mask.reshape((-1, 1, 1))
            acc += mixed_norm(g.with_values(g.values * sel), q, r) ** q
        assert acc == pytest.approx(total, abs=1e-10 * total)

    def test_rejects_source_side(self):
        f = positive_field("source", 4, 3)
        with pytest.raises(ValueError):
            slab_decompose(f, 2)

    @pytest.mark.parametrize("value", [2.0, 0.5])
    def test_rejects_infinite_r(self, value):
        # g^inf is inf above 1 and 0 below it, so no slice has a level
        g = box_grid("target", 0, 1, 4)
        f = SampledField(g, np.full((4, 4, 4), value))
        for r in (INF, float("inf")):
            with pytest.raises(ValueError, match="r = inf"):
                slab_decompose(f, r)
            with pytest.raises(ValueError, match="r = inf"):
                combined_decompose(f, 2, r)
            with pytest.raises(ValueError, match="r = inf"):
                lorentz_mixed_norm(f, 2, 2, r)


class TestCombined:
    def test_single_level_single_piece(self):
        g = box_grid("target", 0, 1, 5)
        pieces = combined_decompose(SampledField(g, np.ones((5, 5, 5))), 2, 2)
        assert len(pieces) == 1
        assert np.all(pieces[0].mask)

    def test_masks_partition_support(self):
        g = positive_field("target", 8, 67)
        pieces = combined_decompose(g, 2, 2)
        total = np.zeros(g.values.shape, dtype=int)
        for p in pieces:
            total += p.mask.astype(int)
        assert np.max(total) == 1
        assert np.array_equal(total > 0, g.values > 0)

    def test_mixed_norm_bracketing(self):
        g = positive_field("target", 8, 71)
        pieces = combined_decompose(g, 2, 2)
        vals = np.zeros(g.values.shape)
        for p in pieces:
            vals += (2.0 ** p.k) * p.mask
        minor = g.with_values(vals)
        m = mixed_norm(g, 2, 2)
        assert m / 4.0 <= mixed_norm(minor, 2, 2) <= m


class TestTrim:
    def test_single_piece_any_width(self):
        g = box_grid("source", 0, 1, 4)
        f = SampledField(g, np.full((4, 4, 4), 2.0))
        out, j0 = trim_frequency(f, 1)
        assert j0 == 1
        assert np.all(out.values == 2.0)

    def test_wide_window_full_minorant(self):
        f = positive_field("source", 8, 73)
        full = reconstruct(dyadic_decompose(f), f)
        out, _ = trim_frequency(f, 100)
        assert np.array_equal(out.values, full.values)

    def test_residual_decreases_to_zero(self):
        f = positive_field("source", 8, 79, lo=0.05, hi=20.0)
        full = reconstruct(dyadic_decompose(f), f)
        prev = np.inf
        for W in (1, 2, 4, 8, 16):
            out, _ = trim_frequency(f, W)
            res = lp_norm(full.with_values(full.values - out.values), 2)
            assert res <= prev + 1e-15
            prev = res
        assert prev == 0.0

    def test_masks_nest_in_width(self):
        f = positive_field("source", 8, 83, lo=0.05, hi=20.0)
        narrow, _ = trim_frequency(f, 1)
        wide, _ = trim_frequency(f, 3)
        assert np.all(wide.values >= narrow.values)

    def test_tie_breaks_to_smaller_index(self):
        # |E_0| = 4 |E_1| at p = 2 makes the two weights equal
        g = box_grid("source", 0, 1, 10)
        vals = np.zeros((10, 10, 10))
        vals.ravel()[:4] = 1.0
        vals.ravel()[4:5] = 2.0
        _, j0 = trim_frequency(SampledField(g, vals), 1, p=2)
        assert j0 == 0

    def test_zero_field_error(self):
        g = box_grid("source", 0, 1, 4)
        with pytest.raises(ValueError):
            trim_frequency(SampledField(g, np.zeros((4, 4, 4))), 2)

    def test_bad_width_error(self):
        f = positive_field("source", 4, 5)
        with pytest.raises(ValueError):
            trim_frequency(f, 0)
