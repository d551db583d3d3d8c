"""Dyadic level sets, t-slab classification, and frequency trimming."""

import tracemalloc

import numpy as np
import pytest

from momentxray.decomposition import (
    J_FLOOR,
    _level_indices,
    combined_decompose,
    dyadic_decompose,
    reconstruct,
    slab_decompose,
    trim_frequency,
)
from momentxray.exponents import INF, triple_for_theta
from momentxray.field import (SampledField, lorentz_mixed_norm, lp_norm,
                              mixed_norm)
from momentxray.xray import TransformPlan, apply_X

from conftest import THETA_MAIN, box_grid, smooth_source


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
        minor = reconstruct(combined_decompose(g, 2, 2), g)
        m = mixed_norm(g, 2, 2)
        assert m / 4.0 <= mixed_norm(minor, 2, 2) <= m

    def test_reconstruct_matches_dyadic_minorant(self):
        # the combined pieces split the value pieces, so their minorant sums
        # agree to the bit
        g = positive_field("target", 8, 73)
        combined = reconstruct(combined_decompose(g, 2, 2), g)
        dyadic = reconstruct(dyadic_decompose(g), g)
        assert combined.values.tobytes() == dyadic.values.tobytes()


# ---------------------------------------------------------------------------
# pieces as views of one level array, against the full-mask decompositions


def _full_mask_dyadic(f, j_min=J_FLOOR):
    """Reference: every level piece stores its own full-grid mask."""
    levels = _level_indices(f.values, j_min)
    cellvol = f.grid.cell_volume
    pieces = []
    for j in np.unique(levels):
        if j < j_min:
            continue
        mask = levels == j
        pieces.append((int(j), mask, float(mask.sum()) * cellvol))
    return pieces


def _full_mask_combined(g, r, j_min=J_FLOOR):
    """Reference: the full-mask (k, l, m) pieces, before the filter that
    dropped pieces whose mask is empty (the caller checks that it drops
    none)."""
    slab_of_t = np.full(g.grid.counts[0], j_min - 1, dtype=np.int64)
    for slab in slab_decompose(g, r, j_min=j_min):
        slab_of_t[slab.t_mask] = slab.l
    dy = float(np.prod(g.grid.spacing[1:]))
    yaxes = tuple(range(1, g.d))
    out = []
    for k, kmask, _ in _full_mask_dyadic(g, j_min):
        m_of_t = _level_indices(kmask.sum(axis=yaxes) * dy, j_min)
        keys = np.stack([slab_of_t, m_of_t], axis=1)
        for l, m in np.unique(keys, axis=0):
            if l < j_min or m < j_min:
                continue
            t_sel = (slab_of_t == l) & (m_of_t == m)
            mask = kmask & t_sel.reshape((-1,) + (1,) * (g.d - 1))
            out.append((k, int(l), int(m), mask))
    return out


def _assert_same_dyadic(f, j_min):
    pieces = dyadic_decompose(f, j_min)
    ref = _full_mask_dyadic(f, j_min)
    assert [pc.j for pc in pieces] == [j for j, _, _ in ref]
    for pc, (_, mask, measure) in zip(pieces, ref):
        assert pc.measure.hex() == measure.hex()
        assert pc.cells == int(mask.sum())
        got = pc.mask
        assert got.dtype == mask.dtype and got.shape == mask.shape
        assert got.tobytes() == mask.tobytes()
    return pieces


def _assert_same_combined(g, r, j_min):
    pieces = combined_decompose(g, 2, r, j_min)
    ref = _full_mask_combined(g, r, j_min)
    # the full-mask filter `mask.any()` would have dropped nothing
    assert all(mask.any() for *_, mask in ref)
    assert [(pc.k, pc.l, pc.m) for pc in pieces] == [(k, l, m)
                                                      for k, l, m, _ in ref]
    for pc, (*_, mask) in zip(pieces, ref):
        assert pc.cells == int(mask.sum()) > 0
        got = pc.mask
        assert got.dtype == mask.dtype and got.shape == mask.shape
        assert got.tobytes() == mask.tobytes()
    return pieces


def _seeded_fields(side, d, seed):
    """Fields with zeros, values under 2^j_min for j_min = -2, one level."""
    rng = np.random.default_rng(seed)
    n = 9 if d == 3 else 6
    g = box_grid(side, -1.0, 1.0, n, d)
    spread = np.exp2(rng.uniform(-6.0, 5.0, size=(n,) * d))
    with_zeros = spread * (rng.random((n,) * d) < 0.7)
    with_zeros[n // 2] = 0.0  # a whole t-slice of zeros
    tiny = np.where(rng.random((n,) * d) < 0.5, 1e-3, spread)
    return [SampledField(g, v) for v in (
        spread, with_zeros, tiny, np.full((n,) * d, 1.5),
        np.zeros((n,) * d))]


@pytest.fixture(scope="module")
def xf64():
    """A 64^3 Xf as the pairing benchmark builds it: X of a smooth bump."""
    rng = np.random.default_rng(2024)
    sg = box_grid("source", -3.0, 3.0, 64)
    tg = box_grid("target", -3.0, 3.0, 64)
    return apply_X(smooth_source(sg, rng, 0.5), TransformPlan(sg, tg))


class TestLevelArrayViews:
    @pytest.mark.parametrize("j_min", [J_FLOOR, -2])
    @pytest.mark.parametrize("d", [3, 4])
    def test_dyadic_matches_full_masks(self, d, j_min):
        for f in _seeded_fields("source", d, 300 + d):
            _assert_same_dyadic(f, j_min)

    @pytest.mark.parametrize("r", [2, 3.5])
    @pytest.mark.parametrize("j_min", [J_FLOOR, -2])
    @pytest.mark.parametrize("d", [3, 4])
    def test_combined_matches_full_masks(self, d, j_min, r):
        for g in _seeded_fields("target", d, 400 + d):
            _assert_same_combined(g, r, j_min)

    def test_pairing_shaped_xf_matches_full_masks(self, xf64):
        trip = triple_for_theta(3, THETA_MAIN)
        _assert_same_dyadic(xf64, J_FLOOR)
        pieces = _assert_same_combined(xf64, trip.r, J_FLOOR)
        assert len(pieces) > 50

    def test_mask_is_fresh_on_each_access(self):
        g = _seeded_fields("target", 3, 500)[1]
        for pc in dyadic_decompose(g) + combined_decompose(g, 2, 2):
            a, b = pc.mask, pc.mask
            assert a is not b and not np.shares_memory(a, b)
            want = a.tobytes()
            a[...] = ~a  # a caller's copy; the piece is unchanged
            assert pc.mask.tobytes() == want
            with pytest.raises(ValueError):
                pc.levels[(0,) * g.d] = 0

    def test_pieces_share_one_level_array(self):
        g = _seeded_fields("target", 3, 501)[0]
        pieces = dyadic_decompose(g) + combined_decompose(g, 2, 2)
        assert len({id(pc.levels) for pc in pieces}) == 2  # one per call

    @pytest.mark.parametrize("decompose", [
        dyadic_decompose, lambda f: slab_decompose(f, 2),
        lambda f: combined_decompose(f, 2, 2),
    ], ids=["dyadic", "slab", "combined"])
    def test_pieces_compare_by_identity(self, decompose):
        # a piece is a view of its own call's level array, so it equals only
        # itself; the dataclass __eq__ raised numpy's ambiguous-truth error
        f = SampledField(box_grid("target", 0, 1, 4), np.full((4,) * 3, 1.5))
        first = decompose(f)
        assert first
        assert (first == decompose(f)) is False
        assert (first == first) is True
        assert first[0] != decompose(f)[0]

    def test_pieces_hold_one_level_array_of_memory(self, xf64):
        # measured on 64^3 Xfs of three seeds: the pieces held 1.03x
        # values.nbytes (the int64 level array and the t-selectors), the
        # full-mask pieces 18-23x; reading every mask must not grow that
        trip = triple_for_theta(3, THETA_MAIN)
        combined_decompose(xf64, trip.q, trip.r)  # first-call allocations
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pieces = combined_decompose(xf64, trip.q, trip.r)
            held = tracemalloc.get_traced_memory()[0] - base
            for pc in pieces:
                pc.mask
            after_masks = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(pieces) > 50
        assert held <= 1.25 * xf64.values.nbytes
        assert after_masks <= 1.25 * xf64.values.nbytes


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

    @pytest.mark.parametrize("W", [2.5, True, "8", np.float64(8)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_width_rejected(self, W):
        f = positive_field("source", 4, 5)
        with pytest.raises(ValueError, match="W must be an integer"):
            trim_frequency(f, W)

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integer_width_accepted(self, kind):
        f = positive_field("source", 8, 83, lo=0.05, hi=20.0)
        want, j0 = trim_frequency(f, 2)
        got, j1 = trim_frequency(f, kind(2))
        assert j1 == j0
        assert got.values.tobytes() == want.values.tobytes()
