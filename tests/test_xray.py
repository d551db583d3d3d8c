"""The restricted X-ray transform, its adjoint, and the shape functional."""

from fractions import Fraction

import numpy as np
import pytest

from momentxray.field import Grid, SampledField, grid_from_box, lp_norm, mixed_norm
from momentxray.symmetry import Symmetry, Translate, pullback_source
from momentxray.xray import (
    TransformPlan,
    apply_X,
    apply_X_star,
    bilinear,
    phi_functional,
)

from conftest import box_grid

D = 3
THETA = Fraction(5, 6)

# grids aligned so that integer lattice points are nodes; h = 0.125 is an
# exact binary float and the cube [-1,1]^3 is resolved without remainder
H = 0.125
SRC_CUBE = Grid(D, "source", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
TGT_LINE = Grid(D, "target", (-1.0,) * D, (H,) * D, (17,) * D)


def cube_field():
    return SampledField(SRC_CUBE, np.ones((16,) * D))


class TestApplyX:
    def test_zero_maps_to_zero(self):
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(SampledField(SRC_CUBE, np.zeros((16,) * D)), plan)
        assert np.all(out.values == 0.0)

    def test_cube_center_line(self):
        # the line through (t=0, y=0) meets the cube in s-length 2
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(cube_field(), plan)
        assert out.values[8, 8, 8] == pytest.approx(2.0, abs=1e-12)

    def test_cube_diagonal_line(self):
        # t = 1 gives the diagonal direction (1,1); still a chord of length 2
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(cube_field(), plan)
        assert out.values[16, 8, 8] == pytest.approx(2.0, abs=1e-9)

    def test_linear(self):
        rng = np.random.default_rng(3)
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        a = rng.random((16,) * D)
        b = rng.random((16,) * D)
        xa = apply_X(SampledField(SRC_CUBE, a), plan).values
        xb = apply_X(SampledField(SRC_CUBE, b), plan).values
        xab = apply_X(SampledField(SRC_CUBE, a + 2.5 * b), plan).values
        assert np.max(np.abs(xab - xa - 2.5 * xb)) <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(5)
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        f = SampledField(SRC_CUBE, rng.random((16,) * D))
        assert np.all(apply_X(f, plan).values >= 0.0)

    def test_grid_mismatch_rejected(self):
        other = box_grid("source", -1, 1, 12)
        plan = TransformPlan(other, TGT_LINE)
        with pytest.raises(ValueError):
            apply_X(cube_field(), plan)


class TestApplyXStar:
    def test_cube_center_value(self):
        tgt = Grid(D, "target", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
        src = Grid(D, "source", (-1.0,) * D, (H,) * D, (17,) * D)
        g = SampledField(tgt, np.ones((16,) * D))
        plan = TransformPlan(src, tgt)
        out = apply_X_star(g, plan)
        assert out.values[8, 8, 8] == pytest.approx(2.0, abs=1e-12)

    def test_zero(self):
        tgt = Grid(D, "target", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
        src = Grid(D, "source", (-1.0,) * D, (H,) * D, (17,) * D)
        g = SampledField(tgt, np.zeros((16,) * D))
        out = apply_X_star(g, TransformPlan(src, tgt))
        assert np.all(out.values == 0.0)


class TestAdjointness:
    def test_pairing_identity(self):
        rng = np.random.default_rng(7)
        sg = box_grid("source", -2, 2, 20)
        tg = box_grid("target", -2, 2, 20)
        f = SampledField(sg, rng.random((20,) * D))
        g = SampledField(tg, rng.random((20,) * D))
        plan = TransformPlan(sg, tg)
        lhs = bilinear(f, g, plan)
        xsg = apply_X_star(g, plan)
        rhs = float(np.sum(f.values * xsg.values) * sg.cell_volume)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


    def test_pairing_identity_d4(self):
        # matched grids in d = 4: the two sweeps agree to rounding
        rng = np.random.default_rng(43)
        sg = box_grid("source", -2, 2, 10, 4)
        tg = box_grid("target", -2, 2, 10, 4)
        f = SampledField(sg, rng.random(sg.shape))
        g = SampledField(tg, rng.random(tg.shape))
        plan = TransformPlan(sg, tg)
        lhs = bilinear(f, g, plan)
        rhs = float(np.sum(f.values * apply_X_star(g, plan).values)
                    * sg.cell_volume)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _stretched(grid):
    # cross-section spacings off by 1e-9 relative: past the 1e-12 matched
    # test, so the transform resamples with the dense kernel
    h = grid.spacing[:1] + tuple(v * (1 + 1e-9) for v in grid.spacing[1:])
    return Grid(grid.d, grid.side, grid.origin, h, grid.counts)


class TestKernelAgreement:
    @pytest.mark.parametrize("d,n", [(3, 12), (4, 8)])
    def test_shift_and_dense_kernels_agree(self, d, n):
        rng = np.random.default_rng(41)
        sg = box_grid("source", -1.5, 1.5, n, d)
        tg = box_grid("target", -1.5, 1.5, n, d)
        shift = TransformPlan(sg, tg)
        dense = TransformPlan(sg, _stretched(tg))
        f = SampledField(sg, rng.random(sg.shape))
        gv = rng.random(tg.shape)
        x_gap = apply_X(f, dense).values - apply_X(f, shift).values
        assert np.max(np.abs(x_gap)) <= 1e-6
        xs_gap = (apply_X_star(SampledField(dense.target_grid, gv), dense).values
                  - apply_X_star(SampledField(tg, gv), shift).values)
        assert np.max(np.abs(xs_gap)) <= 1e-6


def _overlap(a, b, axis, k):
    """Slices of a and of b shifted by k nodes along axis that line up."""
    def cut(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)
    n = a.shape[axis]
    if k > 0:
        return a[cut(0, n - k)], b[cut(k, n)]
    return a[cut(-k, n)], b[cut(0, n + k)]


class TestTranslationCovariance:
    @pytest.mark.parametrize("d,n", [(3, 16), (4, 10)])
    def test_grid_aligned_shifts_commute_exactly(self, d, n):
        # translating by whole cells along a cross-section axis commutes
        # with X and X* to the last bit; supports keep 3 cells from the
        # section edges, so the +-1, +-2 shifts lose no mass off the grid
        rng = np.random.default_rng(50 + d)
        sg = box_grid("source", -1.5, 1.5, n, d)
        tg = box_grid("target", -1.5, 1.5, n, d)
        plan = TransformPlan(sg, tg)
        inner = (slice(None),) + (slice(3, n - 3),) * (d - 1)
        for grid, op in ((sg, apply_X), (tg, apply_X_star)):
            vals = np.zeros(grid.shape)
            vals[inner] = rng.random(vals[inner].shape)
            out = op(SampledField(grid, vals), plan).values
            for axis in range(1, d):
                for k in (-2, -1, 1, 2):
                    moved = op(SampledField(grid, np.roll(vals, k, axis)),
                               plan).values
                    assert np.array_equal(*_overlap(out, moved, axis, k))


class TestBilinear:
    def test_unit_cubes_against_monte_carlo(self):
        # MC reference frozen from 1e7 samples, seed 2024: 0.666533
        n = 48
        sg = box_grid("source", 0, 1, n)
        tg = box_grid("target", 0, 1, n)
        f = SampledField(sg, np.ones((n,) * D))
        g = SampledField(tg, np.ones((n,) * D))
        val = bilinear(f, g, TransformPlan(sg, tg, 2 * n, 2 * n))
        assert val == pytest.approx(0.666533, rel=1e-2)

    def test_quadrature_refinement_ratio(self):
        # integrands with a nonzero endpoint slope decay at the midpoint rate
        def weighted(grid, c, w, slope):
            pts = grid.nodes()
            gauss = np.exp(-np.sum(((pts[..., 1:] - c) / w) ** 2, axis=-1))
            return SampledField(grid, np.exp(slope * pts[..., 0]) * gauss)

        n = 24
        sg = box_grid("source", -3, 3, n)
        tg = box_grid("target", -3, 3, n)
        f = weighted(sg, np.array([0.1, -0.2]), np.array([1.4, 1.5]), 0.45)
        g = weighted(tg, np.array([0.05, 0.1]), np.array([1.5, 1.4]), 0.35)
        ref = bilinear(f, g, TransformPlan(sg, tg, 256, 256))
        errs = [abs(bilinear(f, g, TransformPlan(sg, tg, nq, nq)) - ref)
                for nq in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


    @pytest.mark.parametrize("lo,hi,n", [(0, 4, 8), (-1, 1, 6)],
                             ids=["other-box", "other-shape"])
    def test_target_grid_mismatch_rejected(self, lo, hi, n):
        sg = box_grid("source", -1, 1, 8)
        plan = TransformPlan(sg, box_grid("target", -1, 1, 8))
        f = SampledField(sg, np.ones((8,) * D))
        g = SampledField(box_grid("target", lo, hi, n), np.ones((n,) * D))
        with pytest.raises(ValueError, match="plan's target grid"):
            bilinear(f, g, plan)


class TestPhiFunctional:
    def _setup(self):
        rng = np.random.default_rng(11)
        sg = box_grid("source", -2.5, 2.5, 20)
        tg = box_grid("target", -2.5, 2.5, 20)
        pts = sg.nodes()
        vals = np.exp(-2.0 * np.sum(pts ** 2, axis=-1)) * (
            1 + 0.2 * rng.random((20,) * D))
        return SampledField(sg, vals), TransformPlan(sg, tg)

    def test_scale_invariant(self):
        f, plan = self._setup()
        a = phi_functional(f, THETA, plan)
        b = phi_functional(f.with_values(3.0 * f.values), THETA, plan)
        assert b == pytest.approx(a, rel=1e-12)

    def test_positive_on_cube(self):
        sg = box_grid("source", -1, 1, 16)
        tg = box_grid("target", -1, 1, 16)
        f = SampledField(sg, np.ones((16,) * D))
        assert phi_functional(f, THETA, TransformPlan(sg, tg)) > 0.0

    def test_translation_invariance(self):
        # pure translation resamples exactly on the auto preimage grid
        f, plan = self._setup()
        base = phi_functional(f, THETA, plan)
        sig = Symmetry((Translate((0.25, -0.25)),))
        pf = pullback_source(sig, f, Fraction(3, 2))
        moved = phi_functional(pf, THETA, TransformPlan(pf.grid, plan.target_grid))
        assert moved == pytest.approx(base, rel=1e-3)

    def test_zero_field_error(self):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        f = SampledField(sg, np.zeros((8,) * D))
        with pytest.raises(ZeroDivisionError):
            phi_functional(f, THETA, TransformPlan(sg, tg))


class TestPlanValidation:
    def test_side_mismatch(self):
        sg = box_grid("source", -1, 1, 8)
        with pytest.raises(ValueError):
            TransformPlan(sg, sg)

    def test_quad_too_small(self):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        with pytest.raises(ValueError):
            TransformPlan(sg, tg, 1, 8)
