"""Grids, sampled fields, the moment curve, and the norm functionals."""

import math
import os
import warnings
from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentxray import decomposition as decomposition_module
from momentxray import field as field_module
from momentxray import paraball as paraball_module
from momentxray import search as search_module
from momentxray import symmetry as symmetry_module
from momentxray import xray as xray_module
from momentxray.decomposition import (combined_decompose, dyadic_decompose,
                                      reconstruct, slab_decompose,
                                      trim_frequency)
from momentxray.exponents import INF, as_float, theta_zero, triple_for_theta
from momentxray.field import (
    _BLOCK,
    Grid,
    _exponent,
    _integer,
    _node_blocks,
    _real,
    MomentCurve,
    SampledField,
    gamma_eval,
    grid_from_box,
    interpolate,
    lorentz_mixed_norm,
    lorentz_source_norm,
    lp_norm,
    mixed_norm,
    read_field,
    truncate,
    write_field,
)
from momentxray.paraball import (Paraball, fit_paraball, partition,
                                 quasi_ratio, unit_paraball)
from momentxray.search import (SearchConfig, dual_map, localization_report,
                               r95_radius)
from momentxray.symmetry import (Scale, Shear, Symmetry, Translate,
                                 normalize_symmetry, pullback_source,
                                 pullback_target, shear_matrix)
from momentxray.xray import (TransformPlan, apply_X, apply_X_star, bilinear,
                             phi_functional)

from conftest import box_grid, non_exponents, non_reals


def const_field(side, lo, hi, n, value=1.0, d=3):
    g = box_grid(side, lo, hi, n, d)
    return SampledField(g, np.full([n] * d, value))


class TestGamma:
    def test_d3_at_zero(self):
        assert np.array_equal(gamma_eval(3, 0.0), [0.0, 0.0])

    def test_d4_at_two(self):
        assert np.array_equal(gamma_eval(4, 2.0), [2.0, 4.0, 8.0])

    def test_d3_at_minus_one(self):
        assert np.array_equal(gamma_eval(3, -1.0), [-1.0, 1.0])

    def test_vectorized_shape(self):
        out = gamma_eval(5, np.zeros((7, 2)))
        assert out.shape == (7, 2, 4)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            gamma_eval(2, 0.0)

    def test_moment_curve_object(self):
        mc = MomentCurve(4)
        assert np.array_equal(mc(2.0), gamma_eval(4, 2.0))


# extreme arguments for the moment curve: signed zeros, subnormals, huge and
# tiny magnitudes, and values whose powers overflow to inf
GAMMA_SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                           1e-160, 1.0, -1.0, 3.0, -7.5, 1e154, -1e154,
                           1e308, -1e308, np.inf, -np.inf])


class TestGammaRowLayout:
    """gamma_eval by component, bit for bit numpy's t[..., None] ** m."""

    @staticmethod
    def _row(d, t):
        return np.asarray(t, dtype=float)[..., None] ** np.arange(1, d)

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_same_bytes_as_row_power(self, d):
        rng = np.random.default_rng(200 + d)
        wide = rng.normal(size=5000) * 10.0 ** rng.uniform(-300, 300, 5000)
        cases = [GAMMA_SPECIALS, wide, rng.normal(size=(40, 30)),
                 wide[:1], wide[:0], GAMMA_SPECIALS.reshape(1, -1)]
        cases += [float(x) for x in GAMMA_SPECIALS]
        cases += [np.float64(x) for x in rng.uniform(-3.0, 3.0, 500)]
        with np.errstate(over="ignore"):
            for t in cases:
                got, want = gamma_eval(d, t), self._row(d, t)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), t

    def test_first_component_is_t(self):
        t = GAMMA_SPECIALS
        with np.errstate(over="ignore"):
            got = gamma_eval(4, t)[:, 0]
        assert got.view(np.int64).tobytes() == t.view(np.int64).tobytes()

    def test_components_are_contiguous(self):
        out = gamma_eval(5, np.zeros((7, 2)))
        assert all(out[..., k].flags.c_contiguous for k in range(4))


class TestGrid:
    def test_box_round_trip(self):
        g = grid_from_box(3, "source", [-1, -2, 0], [1, 2, 3], [10, 20, 30])
        lo, hi = g.box()
        assert np.allclose(lo, [-1, -2, 0])
        assert np.allclose(hi, [1, 2, 3])

    def test_cell_volume(self):
        g = grid_from_box(3, "source", [0, 0, 0], [1, 2, 3], [10, 10, 10])
        assert g.cell_volume == pytest.approx(6.0 / 1000.0)

    def test_rejects_single_count(self):
        with pytest.raises(ValueError):
            grid_from_box(3, "source", [0, 0, 0], [1, 1, 1], [1, 4, 4])

    def test_rejects_bad_side(self):
        with pytest.raises(ValueError):
            grid_from_box(3, "middle", [0, 0, 0], [1, 1, 1], [4, 4, 4])

    @pytest.mark.parametrize("short", ["origin", "spacing", "counts"])
    def test_rejects_lengths_other_than_d(self, short):
        kw = dict(origin=(0.0,) * 3, spacing=(0.5,) * 3, counts=(4,) * 3)
        kw[short] = kw[short][:2]
        with pytest.raises(ValueError, match="^origin, spacing, counts must "
                           "all have length d$"):
            Grid(3, "source", **kw)

    def test_nodes_are_cell_centers(self):
        g = grid_from_box(3, "source", [0, 0, 0], [1, 1, 1], [4, 4, 4])
        ax = g.axis_nodes(0)
        assert np.allclose(ax, [0.125, 0.375, 0.625, 0.875])

    def test_field_requires_matching_length(self):
        g = grid_from_box(3, "source", [0] * 3, [1] * 3, [4] * 3)
        with pytest.raises(ValueError):
            SampledField(g, np.ones(63))

    def test_field_rejects_nonfinite(self):
        g = grid_from_box(3, "source", [0] * 3, [1] * 3, [4] * 3)
        vals = np.ones([4] * 3)
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            SampledField(g, vals)

    def test_values_immutable(self):
        f = const_field("source", 0, 1, 4)
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 5.0


def _random_grids(rng, count=10):
    """Grids in d = 3 and 4 with negative and positive origins."""
    for d in (3, 4):
        for _ in range(count):
            lo = rng.uniform(-5.0, 1.0, d)
            hi = lo + rng.uniform(0.5, 6.0, d)
            yield grid_from_box(d, "source", lo, hi, rng.integers(2, 40, d))


def _grid_points(rng, g, n=500):
    """Points in and around g's box, the first 200 exactly on nodes."""
    lo, hi = g.box()
    pts = rng.uniform(lo - 2.0, hi + 2.0, (n, g.d))
    idx = rng.integers(0, g.counts, (200, g.d))
    pts[:200] = np.asarray(g.origin) + np.asarray(g.spacing) * idx
    return pts


class TestGridLocate:
    """Grid.locate against the inline cell formulas it replaced."""

    def test_all_axes_as_interpolate_did(self):
        rng = np.random.default_rng(41)
        for g in _random_grids(rng):
            pts = _grid_points(rng, g)
            u = (pts - g.origin) / g.spacing
            base = np.floor(u).astype(np.int64)
            idx, frac = g.locate(pts)
            assert idx.dtype == np.int64
            assert idx.tobytes() == base.tobytes()
            assert frac.tobytes() == (u - base).tobytes()

    def test_one_axis_as_the_taps_did(self):
        rng = np.random.default_rng(42)
        for g in _random_grids(rng):
            pts = _grid_points(rng, g)
            for m in range(g.d):
                x = pts[:, m].reshape(20, -1)
                u0 = (x - g.origin[m]) / g.spacing[m]
                m0 = np.floor(u0)
                idx, frac = g.locate(x, m)
                assert idx.tobytes() == m0.astype(np.int64).tobytes()
                assert frac.tobytes() == (u0 - m0).tobytes()

    def test_scalar_as_the_section_did(self):
        rng = np.random.default_rng(43)
        for g in _random_grids(rng, count=4):
            for u in _grid_points(rng, g, n=250)[:, 0]:
                pos = (u - g.origin[0]) / g.spacing[0]
                m0 = int(np.floor(pos))
                idx, frac = g.locate(u, 0)
                assert idx == m0
                assert np.float64(frac).tobytes() == np.float64(
                    pos - m0).tobytes()

    def test_axis_slice_as_the_live_windows_did(self):
        rng = np.random.default_rng(44)
        for g in _random_grids(rng):
            ax = slice(1, g.d)
            x = _grid_points(rng, g)[:, ax]
            u0 = ((x - np.array(g.origin[ax])) / np.array(g.spacing[ax]))
            m0 = np.floor(u0)
            idx, frac = g.locate(x, ax)
            assert idx.tobytes() == m0.astype(np.int64).tobytes()
            assert frac.tobytes() == (u0 - m0).tobytes()


class TestLpNorm:
    def test_zero_field(self):
        f = const_field("source", 0, 1, 4, 0.0)
        assert lp_norm(f, 2) == 0.0

    def test_constant_on_volume_eight(self):
        f = const_field("source", -1, 1, 8)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(8.0), rel=1e-12)

    def test_p1_brute_force(self):
        rng = np.random.default_rng(0)
        g = box_grid("source", -1, 2, 6)
        vals = rng.normal(size=(6, 6, 6))
        f = SampledField(g, vals)
        oracle = float(sum(abs(v) for v in vals.ravel()) * g.cell_volume)
        assert lp_norm(f, 1) == pytest.approx(oracle, rel=1e-12)

    def test_inf_is_max(self):
        g = box_grid("source", 0, 1, 4)
        vals = np.zeros((4, 4, 4))
        vals[1, 2, 3] = -7.0
        f = SampledField(g, vals)
        assert lp_norm(f, INF) == 7.0

    def test_rejects_p_below_one(self):
        f = const_field("source", 0, 1, 4)
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    @given(st.integers(0, 5), st.sampled_from([1, 2, 4]))
    @settings(max_examples=20, deadline=None)
    def test_dyadic_homogeneity_exact(self, k, p):
        rng = np.random.default_rng(17)
        g = box_grid("source", -1, 1, 5)
        vals = rng.random((5, 5, 5))
        f = SampledField(g, vals)
        lam = float(2 ** k)
        assert lp_norm(f.with_values(lam * vals), p) == lam * lp_norm(f, p)


class TestMixedNorm:
    def test_unit_cube_any_exponents(self):
        f = const_field("target", 0, 1, 5)
        for q, r in [(1, 1), (2, 2), (2, 3), (5, 2)]:
            assert mixed_norm(f, q, r) == pytest.approx(1.0, rel=1e-12)

    def test_collapses_to_lp_when_q_equals_r(self):
        rng = np.random.default_rng(3)
        g = box_grid("target", -1, 1, 6)
        f = SampledField(g, rng.random((6, 6, 6)))
        for q in (1, 2, 3):
            assert mixed_norm(f, q, q) == pytest.approx(lp_norm(f, q), rel=1e-12)

    def test_slab_hand_value(self):
        # indicator of [0,1] x [0,2]^2 at (q,r) = (2,2): inner 4, outer 2
        g = grid_from_box(3, "target", [0, 0, 0], [1, 2, 2], [5, 8, 8])
        f = SampledField(g, np.ones((5, 8, 8)))
        assert mixed_norm(f, 2, 2) == pytest.approx(2.0, rel=1e-12)

    def test_q_inf_takes_sup_over_slices(self):
        g = box_grid("target", 0, 1, 4)
        vals = np.ones((4, 4, 4))
        vals[2] = 3.0
        f = SampledField(g, vals)
        # slice r-norm of the tall slice: (27 * 1/16 * 16)^(1/3) on area 1
        expected = (27.0 * 0.25 ** 2 * 16) ** (1 / 3)
        assert mixed_norm(f, INF, 3) == pytest.approx(expected, rel=1e-12)

    def test_rejects_negative_values(self):
        g = box_grid("target", 0, 1, 4)
        vals = np.ones((4, 4, 4))
        vals[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            mixed_norm(SampledField(g, vals), 2, 2)

    def test_rejects_source_side(self):
        f = const_field("source", 0, 1, 4)
        with pytest.raises(ValueError):
            mixed_norm(f, 2, 2)

    def test_monotone_in_values(self):
        rng = np.random.default_rng(9)
        g = box_grid("target", 0, 1, 5)
        a = rng.random((5, 5, 5))
        b = a + rng.random((5, 5, 5))
        assert mixed_norm(SampledField(g, a), 2, 3) <= mixed_norm(
            SampledField(g, b), 2, 3)

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        g = box_grid("target", 0, 1, 5)
        a = rng.random((5, 5, 5))
        f = SampledField(g, a)
        lam = 3.7
        assert mixed_norm(f.with_values(lam * a), 3, 2) == pytest.approx(
            lam * mixed_norm(f, 3, 2), rel=1e-12)


class TestLorentzSource:
    def test_single_piece_value_two(self):
        # 2 on a set of measure 1: one dyadic piece at j = 1
        g = grid_from_box(3, "source", [0] * 3, [1] * 3, [4] * 3)
        f = SampledField(g, np.full((4, 4, 4), 2.0))
        for p, s in [(1, 1), (2, 1), (3, 2)]:
            assert lorentz_source_norm(f, p, s) == pytest.approx(2.0, rel=1e-12)

    def test_zero_field(self):
        f = const_field("source", 0, 1, 4, 0.0)
        assert lorentz_source_norm(f, 2, 2) == 0.0

    def test_s_equals_p_factor_two(self):
        rng = np.random.default_rng(23)
        g = box_grid("source", 0, 1, 8)
        levels = rng.uniform(0.3, 9.0, size=5)
        vals = levels[rng.integers(0, 5, size=(8, 8, 8))]
        f = SampledField(g, vals)
        for p in (1.5, 2, 3):
            ratio = lorentz_source_norm(f, p, p) / lp_norm(f, p)
            assert 0.5 <= ratio <= 2.0

    def test_dyadic_homogeneity(self):
        rng = np.random.default_rng(29)
        g = box_grid("source", 0, 1, 6)
        vals = rng.uniform(0.1, 5.0, size=(6, 6, 6))
        f = SampledField(g, vals)
        lam = 8.0
        big = lorentz_source_norm(f.with_values(lam * vals), 2, 1.5)
        assert big == pytest.approx(lam * lorentz_source_norm(f, 2, 1.5),
                                    rel=1e-12)


class TestLorentzMixed:
    def test_zero_field(self):
        f = const_field("target", 0, 1, 4, 0.0)
        assert lorentz_mixed_norm(f, 2, 2, 2) == 0.0

    def test_single_slab_bracketing(self):
        # one active t-slab: Lorentz proxy within 2^(1/q) of the mixed norm
        g = box_grid("target", 0, 1, 6)
        vals = np.zeros((6, 6, 6))
        vals[2] = 1.3
        f = SampledField(g, vals)
        q = 2
        m = mixed_norm(f, q, 3)
        l = lorentz_mixed_norm(f, q, q, 3)
        assert m / 2 ** (1 / q) <= l <= m * 2 ** (1 / q)

    def test_s_equals_q_factor_two(self):
        rng = np.random.default_rng(31)
        g = box_grid("target", 0, 1, 8)
        vals = rng.uniform(0.05, 4.0, size=(8, 8, 8))
        f = SampledField(g, vals)
        for q, r in [(2, 2), (2, 3), (3, 2)]:
            ratio = lorentz_mixed_norm(f, q, q, r) / mixed_norm(f, q, r)
            assert 0.5 <= ratio <= 2.0


def _lorentz_reference(g, q, s, r):
    """The per-slab sum lorentz_mixed_norm replaced: the mixed norm of g
    times each slab's t-mask."""
    sf = as_float(s)
    total = 0.0
    for slab in slab_decompose(g, r):
        piece = g.values * slab.t_mask.reshape((-1,) + (1,) * (g.d - 1))
        total += mixed_norm(g.with_values(piece), q, r) ** sf
    return float(total ** (1.0 / sf))


class TestLorentzMixedSliceNorms:
    """lorentz_mixed_norm from slice norms taken once, bit for bit."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_same_float_as_masked_slab_sum(self, d):
        rng = np.random.default_rng(50 + d)
        n = 40 if d == 3 else 12
        g = box_grid("target", -1.0, 1.5, n, d)
        for _ in range(4):
            # slices spread over a few dyadic slabs, many slices to a slab,
            # some of them empty
            scale = 2.0 ** rng.integers(-2, 3, n)
            scale[rng.random(n) < 0.2] = 0.0
            vals = rng.random((n,) * d) * scale.reshape((-1,) + (1,) * (d - 1))
            f = SampledField(g, vals)
            for q in (1, 2, Fraction(3, 2), 5, INF):
                for r in (1, 2, 3, Fraction(5, 2)):
                    for s in (1, 2, Fraction(7, 3)):
                        got = lorentz_mixed_norm(f, q, s, r)
                        want = _lorentz_reference(f, q, s, r)
                        assert got.hex() == want.hex(), (q, r, s)


class TestTruncate:
    def _bump(self):
        g = box_grid("source", -1, 1, 8)
        pts = g.nodes()
        vals = 2.0 * np.exp(-np.sum(pts ** 2, axis=-1))
        return SampledField(g, vals)

    def test_large_radius_unchanged(self):
        f = self._bump()
        out = truncate(f, 100.0)
        assert np.array_equal(out.values, f.values)

    def test_radius_below_support_zeroes(self):
        f = self._bump()
        out = truncate(f, 1e-9)
        assert np.all(out.values == 0.0)

    def test_strict_value_cut(self):
        g = box_grid("source", -1, 1, 4)
        vals = np.full((4, 4, 4), 3.0)
        f = SampledField(g, vals)
        # |z| < 1.5 keeps no node at R = 1.5 only if |value| < R too
        out = truncate(f, 1.5)
        assert np.all(out.values == 0.0)

    def test_idempotent(self):
        f = self._bump()
        once = truncate(f, 1.2)
        twice = truncate(once, 1.2)
        assert np.array_equal(once.values, twice.values)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            truncate(self._bump(), 0.0)

    @pytest.mark.parametrize("d, counts", [(3, 16), (3, (17, 23, 19)),
                                           (4, (9, 11, 7, 13))])
    def test_same_bytes_as_full_lattice(self, d, counts):
        rng = np.random.default_rng(130 + d)
        g = grid_from_box(d, "source", -2.0, 2.0, counts)
        F = SampledField(g, rng.normal(size=g.shape))
        for R in (0.7, 1.5, 2.5):
            # truncate as one pass over the full node lattice
            radius2 = (g.nodes() ** 2).sum(axis=-1)
            keep = (radius2 < R * R) & (np.abs(F.values) < R)
            want = np.where(keep, F.values, 0.0)
            assert truncate(F, R).values.tobytes() == want.tobytes()


class TestInterpolate:
    def test_exact_at_nodes(self):
        rng = np.random.default_rng(41)
        g = box_grid("source", -1, 1, 6)
        f = SampledField(g, rng.random((6, 6, 6)))
        pts = g.nodes().reshape(-1, 3)
        assert np.allclose(interpolate(f, pts).reshape(-1), f.values.ravel(),
                           atol=1e-14)

    def test_zero_extension(self):
        f = const_field("source", 0, 1, 4)
        far = np.array([[10.0, 0.5, 0.5]])
        assert interpolate(f, far)[0] == 0.0

    @pytest.mark.parametrize("width", [2, 4])
    def test_rejects_points_of_another_dimension(self, width):
        f = const_field("source", 0, 1, 4)
        with pytest.raises(ValueError,
                           match="^points must have last dimension 3$"):
            interpolate(f, np.zeros((5, width)))

    def test_linear_in_values(self):
        rng = np.random.default_rng(43)
        g = box_grid("source", 0, 1, 5)
        a = rng.random((5, 5, 5))
        b = rng.random((5, 5, 5))
        pts = rng.uniform(0.1, 0.9, size=(40, 3))
        va = interpolate(SampledField(g, a), pts)
        vb = interpolate(SampledField(g, b), pts)
        vab = interpolate(SampledField(g, a + 2.0 * b), pts)
        assert np.allclose(vab, va + 2.0 * vb, atol=1e-12)


def _interpolate_reference(f, points):
    """Per-corner loop with a bounds check at every corner."""
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, f.d)
    counts = np.asarray(f.grid.counts)
    u = (flat - np.asarray(f.grid.origin)) / np.asarray(f.grid.spacing)
    base = np.floor(u).astype(np.int64)
    frac = u - base
    out = np.zeros(flat.shape[0])
    for corner in range(1 << f.d):
        offs = np.array([(corner >> k) & 1 for k in range(f.d)])
        idx = base + offs
        w = np.ones(flat.shape[0])
        for k in range(f.d):
            w *= np.where(offs[k] == 1, frac[:, k], 1.0 - frac[:, k])
        valid = np.all((idx >= 0) & (idx < counts), axis=1)
        if not np.any(valid):
            continue
        out[valid] += w[valid] * f.values[tuple(idx[valid].T)]
    return out.reshape(pts.shape[:-1])


class TestInterpolateBorder:
    """The zero border agrees bit for bit with a per-corner bounds check."""

    @staticmethod
    def _field(rng, d):
        counts = tuple(int(c) for c in rng.integers(2, 8, size=d))
        g = Grid(d, "source", tuple(rng.normal(size=d)),
                 tuple(rng.uniform(0.2, 1.5, size=d)), counts)
        return SampledField(g, rng.normal(size=counts))

    @staticmethod
    def _points(rng, f, lo, hi, m=300):
        o, h = np.array(f.grid.origin), np.array(f.grid.spacing)
        n = np.array(f.grid.counts)
        return o + h * rng.uniform(lo, n - 1 + hi, size=(m, f.d))

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_reference(self, d):
        rng = np.random.default_rng(70 + d)
        for _ in range(20):
            f = self._field(rng, d)
            h, n = np.array(f.grid.spacing), np.array(f.grid.counts)
            halves = rng.integers(-4, 2 * n.max() + 4, size=(300, d)) / 2.0
            sets = [
                self._points(rng, f, -0.5, 0.5),    # inside the box
                self._points(rng, f, -1.5, 1.5),    # within a cell of it
                f.grid.origin + h * halves,         # nodes and cell faces
                self._points(rng, f, -1e5, 1e5),    # far outside
            ]
            for pts in sets:
                got = interpolate(f, pts.reshape(-1, 3, d))
                want = _interpolate_reference(f, pts.reshape(-1, 3, d))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_non_finite_points_give_zero(self, d):
        f = self._field(np.random.default_rng(80 + d), d)
        pts = np.tile(np.array(f.grid.origin), (3, 1))
        pts[0, 0] = np.nan
        pts[1, -1] = np.inf
        pts[2, 1] = -np.inf
        with np.errstate(invalid="ignore"):
            assert np.array_equal(interpolate(f, pts), np.zeros(3))


class TestFarPoints:
    """A finite point whose floor index lies beyond int64 answers 0 with no
    warning (warnings are errors here, with no errstate)."""

    @pytest.mark.parametrize("far", [1e19, 1e300])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_interpolate_gives_zero(self, axis, far):
        g = grid_from_box(3, "source", [-1.0] * 3, [1.0] * 3, [4] * 3)
        f = SampledField(g, np.ones((4, 4, 4)))
        pts = np.zeros((3, 3))
        pts[0, axis], pts[1, axis] = far, -far
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate(f, pts)
        assert got.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_far_point_on_a_fine_grid_gives_zero(self, axis):
        # (x - origin) / h would overflow for x = 1e308, h = 5e-10
        g = grid_from_box(3, "source", [-1e-9] * 3, [1e-9] * 3, [4] * 3)
        f = SampledField(g, np.ones((4, 4, 4)))
        pts = np.zeros((3, 3))
        pts[0, axis], pts[1, axis] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = interpolate(f, pts)
        assert got.tolist() == [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("far", [1e19, 1e300])
    def test_locate_clips_the_index(self, far):
        g = grid_from_box(3, "source", [-1.0] * 3, [1.0] * 3, [4] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idx, frac = g.locate(np.array([far, -far]), 1)
        assert idx.tolist() == [2 ** 62, -2 ** 62]
        assert frac.tolist() == [0.0, 0.0]


def _unblocked_interpolate(f, points):
    """interpolate as one pass over every point, before it ran in blocks."""
    pts = np.asarray(points, dtype=float)
    counts = np.asarray(f.grid.counts)
    base, frac = f.grid.locate(pts.reshape(-1, f.d))
    weights = (1.0 - frac, frac)
    padded = np.pad(f.values, 1).ravel()
    shape = tuple(counts + 2)
    start = np.ravel_multi_index(tuple(np.clip(base + 1, 0, counts).T), shape)
    out = np.zeros(len(base))
    for corner in range(1 << f.d):
        bits = [(corner >> k) & 1 for k in range(f.d)]
        w = np.ones(len(base))
        for k in range(f.d):
            w *= weights[bits[k]][:, k]
        out += w * padded[start + np.ravel_multi_index(bits, shape)]
    live = np.all((base >= -1) & (base < counts), axis=1)
    return np.where(live, out, 0.0).reshape(pts.shape[:-1])


class TestInterpolateBlocks:
    """interpolate in blocks of points gives the bytes of one pass."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_same_bytes_as_one_pass(self, d):
        rng = np.random.default_rng(90 + d)
        f = TestInterpolateBorder._field(rng, d)
        for n in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7):
            pts = TestInterpolateBorder._points(rng, f, -1.5, 1.5, n)
            got = interpolate(f, pts)
            want = _unblocked_interpolate(f, pts)
            assert got.shape == want.shape == (n,)
            assert got.tobytes() == want.tobytes(), n

    @pytest.mark.parametrize("d", [3, 4])
    def test_leading_shapes_and_a_single_point(self, d):
        rng = np.random.default_rng(95 + d)
        f = TestInterpolateBorder._field(rng, d)
        pts = TestInterpolateBorder._points(rng, f, -1.5, 1.5,
                                            3 * (_BLOCK + 1))
        for shaped in (pts.reshape(_BLOCK + 1, 3, d), pts[0],
                       pts[:0].reshape(0, 5, d)):
            got = interpolate(f, shaped)
            want = _unblocked_interpolate(f, shaped)
            assert got.shape == want.shape == shaped.shape[:-1]
            assert got.tobytes() == want.tobytes()


class TestNodeBlocks:
    """_node_blocks walks Grid.nodes() in C order, block by block."""

    @pytest.mark.parametrize("d, counts", [
        (3, (2, 2, 2)), (3, 16), (3, (17, 23, 19)), (4, (9, 11, 7, 13))])
    def test_blocks_are_the_lattice_rows(self, d, counts):
        g = grid_from_box(d, "source", -1.5, 2.5, counts)
        rows = g.nodes().reshape(-1, d)
        start = 0
        for blk, nodes in _node_blocks(g):
            assert blk.start == start and blk.stop - blk.start <= _BLOCK
            assert nodes.flags.c_contiguous
            assert nodes.tobytes() == rows[blk].tobytes()
            start = blk.stop
        assert start == len(rows)


class TestInterpolateColumns:
    """interpolate on coordinate columns against the row layout."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_same_bytes_as_row_layout(self, d):
        rng = np.random.default_rng(110 + d)
        for _ in range(4):
            f = TestInterpolateBorder._field(rng, d)
            n = 2 * _BLOCK + 5
            for lo_hi in (0.0, 1.0, 1e4):  # inside, border cells, outside
                pts = TestInterpolateBorder._points(rng, f, -lo_hi - 0.5,
                                                    lo_hi + 0.5, n)
                got = interpolate(f, pts)
                assert got.tobytes() == _unblocked_interpolate(f, pts).tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_non_finite_points_give_zero_without_a_warning(self, d):
        # RuntimeWarnings are errors in this suite: NaN and inf must not
        # reach the int64 cast of a cell index
        f = TestInterpolateBorder._field(np.random.default_rng(120 + d), d)
        pts = np.tile(np.array(f.grid.origin), (_BLOCK + 4, 1))
        pts[3, 0] = np.nan
        pts[_BLOCK + 1, -1] = np.inf
        pts[_BLOCK + 2, 1] = -np.inf
        got = interpolate(f, pts)
        bad = [3, _BLOCK + 1, _BLOCK + 2]
        assert np.array_equal(got[bad], np.zeros(3))
        keep = np.ones(len(pts), dtype=bool)
        keep[bad] = False
        assert got[keep].tobytes() == interpolate(f, pts[keep]).tobytes()


# values that are not integers, as every count, budget and seed rejects them
NON_INTEGERS = [2.5, True, "8", np.float64(8)]
NON_INTEGER_IDS = ["float", "bool", "str", "numpy-float"]


def _grid(d=3, counts=(4, 4, 4)):
    return Grid(d=d, side="source", origin=(0.0,) * 3, spacing=(1.0,) * 3,
                counts=counts)


class TestIntegerRule:
    """field._integer is the one integer rule: Python and numpy integers
    pass as Python ints, and anything else raises ValueError naming the
    parameter."""

    @pytest.mark.parametrize("value", NON_INTEGERS + [None, np.True_],
                             ids=NON_INTEGER_IDS + ["none", "numpy-bool"])
    def test_rule_rejects(self, value):
        with pytest.raises(ValueError, match="k must be an integer"):
            _integer(value, "k")

    @pytest.mark.parametrize("value", [7, np.int32(7), np.int64(7),
                                       np.uint8(7)])
    def test_rule_accepts_integers_as_python_ints(self, value):
        got = _integer(value, "k", 7)
        assert got == 7 and type(got) is int

    def test_rule_bound(self):
        with pytest.raises(ValueError, match="k must be >= 2, got 1"):
            _integer(1, "k", 2)
        assert _integer(-3, "k") == -3

    @pytest.mark.parametrize("value", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_grid_dimension(self, value):
        with pytest.raises(ValueError, match="d must be an integer"):
            _grid(d=value)

    @pytest.mark.parametrize("value", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_grid_counts(self, value):
        with pytest.raises(ValueError, match="counts must be an integer"):
            _grid(counts=(4, value, 4))

    @pytest.mark.parametrize("value", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_grid_from_box_counts(self, value):
        with pytest.raises(ValueError, match="counts must be an integer"):
            grid_from_box(3, "source", -1, 1, value)
        with pytest.raises(ValueError, match="counts must be an integer"):
            grid_from_box(3, "source", -1, 1, (8, value, 8))

    def test_grid_counts_bound(self):
        with pytest.raises(ValueError, match="counts must be >= 2"):
            _grid(counts=(4, 1, 4))
        with pytest.raises(ValueError, match="d must be >= 1"):
            Grid(d=0, side="source", origin=(), spacing=(), counts=())

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integers_accepted(self, kind):
        want = _grid()
        got = _grid(d=kind(3), counts=(kind(4),) * 3)
        assert got == want
        assert all(type(v) is int for v in (got.d,) + got.counts)
        box = grid_from_box(3, "source", -1, 1, 8)
        for counts in (kind(8), [kind(8)] * 3, np.full(3, 8, dtype=kind)):
            got = grid_from_box(kind(3), "source", -1, 1, counts)
            assert got == box
            assert all(type(v) is int for v in (got.d,) + got.counts)


class TestGridFromBoxBounds:
    @pytest.mark.parametrize("lo, hi", [
        (np.nan, 1.0), (-1.0, np.nan), (-np.inf, 1.0), (-1.0, np.inf),
        (-1e308, 1e308), (-np.inf, np.inf)],
        ids=["lo-nan", "hi-nan", "lo-inf", "hi-inf", "extent-overflow",
             "both-inf"])
    def test_rejected_without_a_warning(self, lo, hi):
        with pytest.raises(ValueError, match="finite"):
            grid_from_box(3, "source", lo, hi, 8)


class TestRealRule:
    """field._real is the one real-number rule: Python and numpy reals and
    Fractions pass as finite Python floats, and anything else raises
    ValueError naming the parameter."""

    @pytest.mark.parametrize("value", non_reals() + [
        pytest.param(np.array([1.0]), id="array"),
        pytest.param(np.float64("nan"), id="numpy-nan"),
        pytest.param(-math.inf, id="minus-inf"),
        pytest.param(1j, id="complex")])
    def test_rule_rejects(self, value):
        with pytest.raises(ValueError, match="x must be"):
            _real(value, "x")

    def test_rule_bound(self):
        with pytest.raises(ValueError, match="x must be finite and > 0, got 0"):
            _real(0, "x", 0)
        with pytest.raises(ValueError,
                           match="x must be finite and >= 0, got -1"):
            _real(-1, "x", 0, strict=False)
        assert _real(0, "x", 0, strict=False) == 0.0
        assert _real(-3, "x") == -3.0

    @pytest.mark.parametrize("kind", [np.float32, np.float64, int, Fraction])
    def test_sites_store_python_floats(self, kind):
        one, two = kind(1), kind(2)
        grid = Grid(d=3, side="source", origin=(one,) * 3,
                    spacing=(two,) * 3, counts=(4,) * 3)
        box = grid_from_box(3, "source", -two, two, 4)
        B = Paraball(one, two, (one, two), two, one)
        cfg = SearchConfig(box_half=two, tol_phi=one, jitter=one)
        stored = {
            "rule": (_real(two, "x"),),
            "grid": grid.origin + grid.spacing,
            "grid_from_box": box.origin + box.spacing,
            "translate": Translate((one, two)).v,
            "scale": astuple(Scale(one, two)),
            "shear": astuple(Shear(one, two)),
            "shear_matrix": (shear_matrix(3, two).t0,),
            "paraball": (B.s0, B.t0, B.alpha, B.beta) + B.ybar,
            "partition": (partition(unit_paraball(3), one,
                                    Fraction(5, 6)).delta,),
            "search": (cfg.box_half, cfg.tol_phi, cfg.jitter),
        }
        for site, values in stored.items():
            assert all(type(v) is float for v in values), site
        assert box == grid_from_box(3, "source", -2.0, 2.0, 4)
        assert B == Paraball(1.0, 2.0, (1.0, 2.0), 2.0, 1.0)

    @pytest.mark.parametrize("value", non_reals("nan", "inf"))
    def test_grid_origin(self, value):
        with pytest.raises(ValueError, match=r"\borigin must be"):
            Grid(d=3, side="source", origin=(0.0, value, 0.0),
                 spacing=(1.0,) * 3, counts=(4,) * 3)

    @pytest.mark.parametrize("value", non_reals("nan", "inf"))
    def test_grid_spacing(self, value):
        with pytest.raises(ValueError, match=r"\bspacing must be"):
            Grid(d=3, side="source", origin=(0.0,) * 3,
                 spacing=(1.0, value, 1.0), counts=(4,) * 3)

    @pytest.mark.parametrize("value", non_reals())
    @pytest.mark.parametrize("name", ["lo", "hi"])
    def test_grid_from_box_bounds(self, name, value):
        box = {"lo": -1.0, "hi": 1.0}
        box[name] = (box[name], value, box[name])
        with pytest.raises(ValueError, match=rf"\b{name} must be"):
            grid_from_box(3, "source", box["lo"], box["hi"], 4)

    @pytest.mark.parametrize("value", non_reals("nan"))
    def test_truncate_radius(self, value):
        f = SampledField(box_grid("source", -1, 1, 4), np.ones((4, 4, 4)))
        with pytest.raises(ValueError, match=r"\bR must be"):
            truncate(f, value)


def _exponent_fields():
    """(f, g, sigma): positive 4^3 source and target fields and a scale."""
    rng = np.random.default_rng(83)
    f, g = (SampledField(box_grid(side, -1, 1, 4),
                         rng.uniform(0.5, 3, (4,) * 3))
            for side in ("source", "target"))
    return f, g, Symmetry((Scale(2.0, 1.0),))


# every numeric exponent site, "function.parameter": a call of the function
# on (f, g, sigma) with that parameter set to e and the others valid
EXPONENT_SITES = {
    "lp_norm.p": lambda f, g, sig, e: lp_norm(f, e),
    "mixed_norm.q": lambda f, g, sig, e: mixed_norm(g, e, 2),
    "mixed_norm.r": lambda f, g, sig, e: mixed_norm(g, 2, e),
    "lorentz_source_norm.p": lambda f, g, sig, e: lorentz_source_norm(f, e, 2),
    "lorentz_source_norm.s": lambda f, g, sig, e: lorentz_source_norm(f, 2, e),
    "lorentz_mixed_norm.q": lambda f, g, sig, e: lorentz_mixed_norm(
        g, e, 2, 2),
    "lorentz_mixed_norm.s": lambda f, g, sig, e: lorentz_mixed_norm(
        g, 2, e, 2),
    "lorentz_mixed_norm.r": lambda f, g, sig, e: lorentz_mixed_norm(
        g, 2, 2, e),
    "dual_map.q": lambda f, g, sig, e: dual_map(g, e, 2),
    "dual_map.r": lambda f, g, sig, e: dual_map(g, 2, e),
    "slab_decompose.r": lambda f, g, sig, e: slab_decompose(g, e),
    "trim_frequency.p": lambda f, g, sig, e: trim_frequency(f, 1, e),
    "normalize_symmetry.p": lambda f, g, sig, e: normalize_symmetry(f, e),
    "pullback_source.p": lambda f, g, sig, e: pullback_source(sig, f, e),
    "pullback_target.q": lambda f, g, sig, e: pullback_target(sig, g, e, 2),
    "pullback_target.r": lambda f, g, sig, e: pullback_target(sig, g, 2, e),
    "r95_radius.p": lambda f, g, sig, e: r95_radius(f, e),
    "localization_report.p": lambda f, g, sig, e: localization_report(f, e,
                                                                      1.0),
}


class TestExponentRule:
    """field._exponent is the one numeric exponent rule: INF and float +inf
    give math.inf, other reals >= 1 pass as Python floats, and anything
    else raises ValueError naming the parameter."""

    @pytest.mark.parametrize("value", non_exponents() + [
        pytest.param(np.array([2.0]), id="array"),
        pytest.param(np.float64("nan"), id="numpy-nan"),
        pytest.param(Fraction(1, 2), id="fraction-half")])
    def test_rule_rejects(self, value):
        with pytest.raises(ValueError, match=r"^p must be >= 1 or inf, got"):
            _exponent(value, "p")

    def test_rule_message(self):
        with pytest.raises(ValueError,
                           match=r"^p must be >= 1 or inf, got 0\.5$"):
            _exponent(0.5, "p")
        with pytest.raises(ValueError,
                           match=r"^q must be >= 1 or inf, got 1/2$"):
            _exponent(Fraction(1, 2), "q")

    @pytest.mark.parametrize("value", [
        1, 2, np.int64(3), np.uint8(4), Fraction(3, 2), Fraction(7, 3), 1.0,
        2.5, np.float64(1.25), 10 ** 300, INF, math.inf, np.float64(np.inf)])
    def test_rule_gives_the_as_float_value(self, value):
        # the float each accepted exponent became before the rule
        got = _exponent(value, "p")
        assert type(got) is float and got == as_float(value)

    @pytest.mark.parametrize("value", non_exponents())
    @pytest.mark.parametrize("site", EXPONENT_SITES)
    def test_site_rejects(self, site, value):
        f, g, sig = _exponent_fields()
        name = site.split(".")[1]
        with pytest.raises(ValueError,
                           match=rf"^{name} must be >= 1 or inf, got"):
            EXPONENT_SITES[site](f, g, sig, value)

    @pytest.mark.parametrize("site", ["pullback_source.p",
                                      "pullback_target.q",
                                      "pullback_target.r"])
    def test_pullback_checks_before_the_identity_shortcut(self, site):
        f, g, _ = _exponent_fields()
        with pytest.raises(ValueError, match="must be >= 1 or inf"):
            EXPONENT_SITES[site](f, g, Symmetry(), 0.5)

    # sites that refuse an infinite exponent (dual_map, slab_decompose and
    # through it lorentz_mixed_norm's r), or whose |f|^p weights have no
    # limit there (the r95 profile)
    FINITE_ONLY = ("dual_map.q", "dual_map.r", "slab_decompose.r",
                   "lorentz_mixed_norm.r", "r95_radius.p",
                   "localization_report.p")

    @pytest.mark.parametrize("site", EXPONENT_SITES)
    def test_site_accepts_every_exponent_type_alike(self, site):
        # int, numpy int, Fraction and float give the Fraction's result,
        # to the byte; INF, math.inf and numpy inf give one result
        f, g, sig = _exponent_fields()
        call = EXPONENT_SITES[site]

        def key(out):
            if isinstance(out, SampledField):
                return out.grid, out.values.tobytes()
            if isinstance(out, (list, tuple)) and out and hasattr(
                    out[0], "t_mask"):
                return [(pc.l, pc.t_mask.tobytes()) for pc in out]
            if isinstance(out, tuple):
                return key(out[0]), out[1]
            if isinstance(out, Symmetry):
                return repr(out)
            return float(out).hex()

        want = key(call(f, g, sig, Fraction(3)))
        for e in (3, np.int64(3), 3.0, np.float64(3.0)):
            assert key(call(f, g, sig, e)) == want, e
        if site in self.FINITE_ONLY:
            return
        want = key(call(f, g, sig, INF))
        for e in (math.inf, np.float64(np.inf)):
            assert key(call(f, g, sig, e)) == want, e


class TestLorentzInfiniteS:
    """At s = inf both Lorentz proxies are the sup of their terms, the limit
    of the finite-s values, not 1.0."""

    def test_source_proxy_is_the_sup(self):
        f, _, _ = _exponent_fields()
        for p in (1, Fraction(3, 2), 2, INF):
            pf = as_float(p)
            sup = max(2.0 ** pc.j * pc.measure ** (1.0 / pf)
                      for pc in dyadic_decompose(f))
            assert lorentz_source_norm(f, p, INF) == sup
            assert lorentz_source_norm(f, p, math.inf) == sup
            near = lorentz_source_norm(f, p, 256)
            assert sup <= near <= sup * len(dyadic_decompose(f)) ** (1 / 256)

    def test_mixed_proxy_is_the_sup(self):
        rng = np.random.default_rng(89)
        g = box_grid("target", -1, 1, 8)
        scale = 2.0 ** rng.integers(-3, 3, 8)
        f = SampledField(g, rng.random((8,) * 3) * scale.reshape(-1, 1, 1))
        slabs = slab_decompose(f, 2)
        assert len(slabs) > 1
        for q in (1, 2, INF):
            sup = max(mixed_norm(f.with_values(
                f.values * slab.t_mask.reshape(-1, 1, 1)), q, 2)
                for slab in slabs)
            got = lorentz_mixed_norm(f, q, INF, 2)
            assert got == pytest.approx(sup, rel=1e-14)
            near = lorentz_mixed_norm(f, q, 256, 2)
            assert got <= near <= got * len(slabs) ** (1 / 256)

    def test_zero_field_is_zero(self):
        assert lorentz_source_norm(const_field("source", 0, 1, 4, 0.0), 2,
                                   INF) == 0.0
        assert lorentz_mixed_norm(const_field("target", 0, 1, 4, 0.0), 2,
                                  INF, 2) == 0.0


class TestDimensionRule:
    """The moment-curve dimension d goes through field._integer with least
    3 at every site."""

    SITES = {
        "gamma_eval": lambda d: gamma_eval(d, 0.5),
        "MomentCurve": lambda d: MomentCurve(d)(0.5),
        "shear_matrix": lambda d: shear_matrix(d, 0.5).entries,
        "theta_zero": lambda d: theta_zero(d),
        "triple_for_theta": lambda d: tuple(triple_for_theta(
            d, Fraction(1, 2))),
    }

    @pytest.mark.parametrize("d", [3.0, 3.5, "3", None, True, np.True_],
                             ids=["float", "fraction-float", "str", "none",
                                  "bool", "numpy-bool"])
    @pytest.mark.parametrize("site", SITES)
    def test_non_integer_d(self, site, d):
        with pytest.raises(ValueError, match="^d must be an integer"):
            self.SITES[site](d)

    @pytest.mark.parametrize("site", SITES)
    def test_small_d(self, site):
        with pytest.raises(ValueError, match=r"^d must be >= 3, got 2$"):
            self.SITES[site](2)

    @pytest.mark.parametrize("site", SITES)
    def test_numpy_integer_d(self, site):
        want = self.SITES[site](4)
        got = self.SITES[site](np.int64(4))
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want
        assert type(MomentCurve(np.int64(4)).d) is int


# every field-argument site, "function.argument": a call of the function
# on (f, g, plan, sigma) with that argument set to x and the others valid,
# and the side, plan grid ("source" / "target" / None) and sign the rule
# (field._field) asks of x there
FIELD_SITES = {
    "lp_norm.f": (lambda f, g, pl, sig, x: lp_norm(x, 2), None, None, False),
    "mixed_norm.g": (lambda f, g, pl, sig, x: mixed_norm(x, 2, 2),
                     "target", None, True),
    "lorentz_source_norm.f": (
        lambda f, g, pl, sig, x: lorentz_source_norm(x, 2, 2),
        "source", None, True),
    "lorentz_mixed_norm.g": (
        lambda f, g, pl, sig, x: lorentz_mixed_norm(x, 2, 2, 2),
        "target", None, True),
    "truncate.F": (lambda f, g, pl, sig, x: truncate(x, 1.0),
                   None, None, False),
    "interpolate.f": (
        lambda f, g, pl, sig, x: interpolate(x, np.zeros((1, 3))),
        None, None, False),
    "write_field.f": (lambda f, g, pl, sig, x: write_field(x, "unwritten"),
                      None, None, False),
    "dyadic_decompose.f": (lambda f, g, pl, sig, x: dyadic_decompose(x),
                           None, None, True),
    "slab_decompose.g": (lambda f, g, pl, sig, x: slab_decompose(x, 2),
                         "target", None, True),
    "combined_decompose.g": (
        lambda f, g, pl, sig, x: combined_decompose(x, 2, 2),
        "target", None, True),
    "reconstruct.f": (lambda f, g, pl, sig, x: reconstruct([], x),
                      None, None, False),
    "trim_frequency.f": (lambda f, g, pl, sig, x: trim_frequency(x, 1),
                         None, None, False),
    "apply_X.f": (lambda f, g, pl, sig, x: apply_X(x, pl),
                  "source", "source", False),
    "apply_X_star.g": (lambda f, g, pl, sig, x: apply_X_star(x, pl),
                       "target", "target", False),
    "bilinear.f": (lambda f, g, pl, sig, x: bilinear(x, g, pl),
                   "source", "source", False),
    "bilinear.g": (lambda f, g, pl, sig, x: bilinear(f, x, pl),
                   "target", "target", False),
    "phi_functional.f": (
        lambda f, g, pl, sig, x: phi_functional(x, Fraction(5, 6), pl),
        "source", "source", False),
    "normalize_symmetry.f": (
        lambda f, g, pl, sig, x: normalize_symmetry(x, 2),
        "source", None, False),
    "pullback_source.f": (
        lambda f, g, pl, sig, x: pullback_source(sig, x, 2),
        "source", None, False),
    "pullback_target.g": (
        lambda f, g, pl, sig, x: pullback_target(sig, x, 2, 2),
        "target", None, False),
    "dual_map.h": (lambda f, g, pl, sig, x: dual_map(x, 2, 2),
                   "target", None, False),
    "r95_radius.f": (lambda f, g, pl, sig, x: r95_radius(x, 2),
                     None, None, False),
    "localization_report.f": (
        lambda f, g, pl, sig, x: localization_report(x, 2, 1.0),
        None, None, False),
    "quasi_ratio.f": (
        lambda f, g, pl, sig, x: quasi_ratio(x, g, Fraction(5, 6), pl),
        None, None, False),
    "quasi_ratio.g": (
        lambda f, g, pl, sig, x: quasi_ratio(f, x, Fraction(5, 6), pl),
        None, None, False),
    "fit_paraball.f": (
        lambda f, g, pl, sig, x: fit_paraball(x, g, Fraction(5, 6), pl),
        None, None, False),
    "fit_paraball.g": (
        lambda f, g, pl, sig, x: fit_paraball(f, x, Fraction(5, 6), pl),
        None, None, False),
}

def _field_cases():
    """pytest params (site, case) of every refusal that applies at a site."""
    cases = []
    for site, (_, side, grid, nonnegative) in FIELD_SITES.items():
        applies = ["ndarray", "list", "none"]
        applies += ["wrong-side"] if side else []
        applies += ["wrong-grid"] if grid else []
        applies += ["negative"] if nonnegative else []
        cases += [pytest.param(site, case, id=f"{site}-{case}")
                  for case in applies]
    return cases


@pytest.fixture
def no_work(monkeypatch, tmp_path):
    """Make the transform sweeps, pullbacks, norm passes and the level,
    node and spread passes fail if reached, in a fresh working directory
    (write_field's "unwritten" path lands there)."""
    def reached(*args, **kwargs):
        raise AssertionError("work started before the field check")

    monkeypatch.chdir(tmp_path)
    names = ("_sweep", "_pullback", "_lq", "_level_indices", "_node_blocks",
             "_interpolator", "_slice_integrals", "_slice_r_norms",
             "_weighted_iqr")
    for module in (field_module, decomposition_module, paraball_module,
                   search_module, symmetry_module, xray_module):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, reached)


class TestFieldRule:
    """field._field is the one field-argument rule: a non-field, a field on
    the wrong side, off the plan's grid, or with a negative value where a
    norm needs nonnegative values raises one ValueError before any work."""

    @staticmethod
    def _inputs(site):
        """(f, g, plan, sigma, x): positive 4^3 fields on a plan's grids, a
        scale (no pullback takes its identity shortcut) and the site's valid
        argument x, g for a target-side site or an argument named g."""
        f, g, sig = _exponent_fields()
        side = FIELD_SITES[site][1]
        x = g if side == "target" or site.endswith(".g") else f
        return f, g, TransformPlan(f.grid, g.grid), sig, x

    @staticmethod
    def _bad_value(case, x, f, g):
        if case == "negative":
            vals = x.values.copy()
            vals.flat[5] = -0.5
            return x.with_values(vals)
        if case == "wrong-grid":
            return SampledField(box_grid(x.side, -2, 2, 4), x.values)
        return {"ndarray": np.ones((4, 4, 4)), "list": [[1.0]], "none": None,
                "wrong-side": f if x is g else g}[case]

    @pytest.mark.parametrize("site,case", _field_cases())
    def test_site_refuses(self, no_work, site, case):
        call, side, grid, _ = FIELD_SITES[site]
        name = site.split(".")[0]
        f, g, plan, sig, x = self._inputs(site)
        message = {
            "ndarray": rf"^{name} expects a SampledField, got ndarray$",
            "list": rf"^{name} expects a SampledField, got list$",
            "none": rf"^{name} expects a SampledField, got NoneType$",
            "wrong-side": rf"^{name} expects a {side}-side field$",
            "wrong-grid":
                rf"^field grid does not match the plan's {grid} grid$",
            "negative": rf"^{name} requires nonnegative values$",
        }[case]
        with pytest.raises(ValueError, match=message):
            call(f, g, plan, sig, self._bad_value(case, x, f, g))
        assert not os.path.exists("unwritten")

    @pytest.mark.parametrize("site", FIELD_SITES)
    def test_valid_fields_reach_the_work(self, no_work, site):
        # so a refusal above shows that the check runs before the work;
        # reconstruct's work, the sum over no pieces, has no pass to catch
        f, g, plan, sig, x = self._inputs(site)
        if site == "reconstruct.f":
            assert reconstruct([], x).grid == x.grid
        elif site == "write_field.f":
            FIELD_SITES[site][0](f, g, plan, sig, x)
            assert os.path.exists("unwritten")
        else:
            with pytest.raises(AssertionError, match="^work started"):
                FIELD_SITES[site][0](f, g, plan, sig, x)

    def test_every_public_site_is_listed(self):
        assert len({site.split(".")[0] for site in FIELD_SITES}) == 24


class TestFieldIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(47)
        g = grid_from_box(3, "target", [-1, 0, 2], [1, 3, 5], [4, 5, 6])
        f = SampledField(g, rng.normal(size=(4, 5, 6)))
        path = tmp_path / "field.bin"
        write_field(f, path)
        back = read_field(path)
        assert back.grid == f.grid
        assert np.array_equal(back.values, f.values)

    def test_truncated_payload_rejected(self, tmp_path):
        f = const_field("source", 0, 1, 4)
        path = tmp_path / "field.bin"
        write_field(f, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ValueError):
            read_field(path)

    @pytest.mark.parametrize("header", [
        b"not json",
        b"[3]",
        b'{"d": 3, "side": "source", "spacing": [1, 1, 1], "counts": [2, 2, 2]}',
        b'{"d": "3", "side": "source", "origin": [0, 0, 0],'
        b' "spacing": [1, 1, 1], "counts": [2, 2, 2]}',
        b'{"d": 3, "side": 1, "origin": [0, 0, 0],'
        b' "spacing": [1, 1, 1], "counts": [2, 2, 2]}',
        b'{"d": 3, "side": "source", "origin": 0,'
        b' "spacing": [1, 1, 1], "counts": [2, 2, 2]}',
        b'{"d": 3, "side": "source", "origin": [0, 0, 0],'
        b' "spacing": [1, "1", 1], "counts": [2, 2, 2]}',
        b'{"d": 3, "side": "source", "origin": [0, 0, 0],'
        b' "spacing": [1, 1, 1], "counts": [2, 2.5, 2]}',
        b'{"d": 3, "side": "source", "origin": [0, 0, 0],'
        b' "spacing": [1, 1, 1], "counts": [2, true, 2]}',
    ], ids=["not-json", "not-object", "no-origin", "d-string", "side-int",
            "origin-scalar", "spacing-string", "counts-float", "counts-bool"])
    def test_malformed_header_names_the_path(self, tmp_path, header):
        path = tmp_path / "bad.field"
        path.write_bytes(header + b"\n" + bytes(64))
        with pytest.raises(ValueError, match="bad.field"):
            read_field(path)
