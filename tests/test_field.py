"""Grids, sampled fields, the moment curve, and the norm functionals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentxray.exponents import INF
from momentxray.field import (
    Grid,
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

from conftest import box_grid


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
