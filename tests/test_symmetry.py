"""Symmetry group generators, pullbacks, and the normal-form recentering."""

import math
from fractions import Fraction

import numpy as np
import pytest

from momentxray.exponents import INF
from momentxray.field import SampledField, gamma_eval, grid_from_box, lp_norm
from momentxray.symmetry import (
    Scale,
    Shear,
    Symmetry,
    Translate,
    compose,
    identity,
    inverse,
    map_source,
    map_target,
    normalize_symmetry,
    pullback_source,
    pullback_target,
    shear_matrix,
    source_jacobian,
    target_factors,
)

from conftest import box_grid, drift_fields

D = 3
P = Fraction(3, 2)


def random_symmetry(rng, d=D):
    steps = []
    for _ in range(rng.integers(1, 4)):
        kind = rng.integers(0, 3)
        if kind == 0:
            steps.append(Translate(tuple(rng.uniform(-1, 1, d - 1))))
        elif kind == 1:
            steps.append(Scale(float(rng.uniform(0.5, 2.0)),
                               float(rng.uniform(0.5, 2.0))))
        else:
            steps.append(Shear(float(rng.uniform(-1, 1)),
                               float(rng.uniform(-1, 1))))
    return Symmetry(tuple(steps))


class TestShearMatrix:
    def test_zero_is_identity(self):
        G = shear_matrix(3, 0.0)
        assert np.array_equal(G.entries, np.eye(2))

    def test_d3_unit_rows(self):
        G = shear_matrix(3, 1.0)
        assert np.array_equal(G.entries, [[1.0, 0.0], [2.0, 1.0]])

    def test_unit_determinant_exact(self):
        for d in (3, 4, 5):
            G = shear_matrix(d, 0.7)
            assert np.all(np.diag(G.entries) == 1.0)
            assert np.all(np.triu(G.entries, 1) == 0.0)

    def test_inverse_product(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = int(rng.integers(3, 6))
            t0 = float(rng.uniform(-2, 2))
            prod = shear_matrix(d, t0).entries @ shear_matrix(d, -t0).entries
            assert np.max(np.abs(prod - np.eye(d - 1))) <= 1e-12

    def test_shear_identity(self):
        # G_{t0} gamma(t) = gamma(t + t0) - gamma(t0), the binomial identity
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(3, 6))
            t, t0 = rng.uniform(-1.5, 1.5, 2)
            lhs = shear_matrix(d, t0).entries @ gamma_eval(d, t)
            rhs = gamma_eval(d, t + t0) - gamma_eval(d, t0)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 1e-12


class TestPointMaps:
    def test_identity_source(self):
        out = map_source(identity(), (0.3, (0.1, -0.2)))
        assert np.allclose(out, [0.3, 0.1, -0.2])

    def test_scale_source(self):
        sig = Symmetry((Scale(2.0, 1.0),))
        out = map_source(sig, (1.0, (1.0, 1.0)))
        assert np.allclose(out, [2.0, 2.0, 2.0])

    def test_shear_source(self):
        sig = Symmetry((Shear(1.0, 1.0),))
        out = map_source(sig, (0.0, (0.0, 0.0)))
        assert np.allclose(out, [1.0, 1.0, 1.0])

    def test_scale_target(self):
        sig = Symmetry((Scale(2.0, 3.0),))
        out = map_target(sig, (1.0, (1.0, 1.0)))
        assert np.allclose(out, [3.0, 6.0, 18.0])

    def test_translate_target_fixes_t(self):
        sig = Symmetry((Translate((0.5, -1.0)),))
        out = map_target(sig, (0.7, (0.0, 0.0)))
        assert np.allclose(out, [0.7, 0.5, -1.0])

    def test_incidence_preserved(self):
        # x = y + s gamma(t) stays true after mapping both sides
        rng = np.random.default_rng(8)
        worst = 0.0
        for _ in range(100):
            sig = random_symmetry(rng)
            s, t = rng.uniform(-1, 1, 2)
            y = rng.uniform(-1, 1, D - 1)
            x = y + s * gamma_eval(D, t)
            src = map_source(sig, (s, tuple(x)))
            tgt = map_target(sig, (t, tuple(y)))
            x2 = tgt[1:] + src[0] * gamma_eval(D, tgt[0])
            worst = max(worst, float(np.max(np.abs(src[1:] - x2))))
        assert worst <= 1e-10


class TestComposeInverse:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(12)
        sig = random_symmetry(rng)
        pt = (0.4, (0.2, -0.7))
        assert np.allclose(map_source(compose(sig, identity()), pt),
                           map_source(sig, pt))

    def test_translations_add(self):
        s1 = Symmetry((Translate((1.0, 2.0)),))
        s2 = Symmetry((Translate((0.5, -1.0)),))
        out = map_source(compose(s1, s2), (0.0, (0.0, 0.0)))
        assert np.allclose(out, [0.0, 1.5, 1.0])

    def test_scales_multiply(self):
        s1 = Symmetry((Scale(2.0, 1.0),))
        s2 = Symmetry((Scale(3.0, 1.0),))
        both = compose(s1, s2)
        direct = Symmetry((Scale(6.0, 1.0),))
        rng = np.random.default_rng(13)
        for _ in range(100):
            pt = (float(rng.uniform(-1, 1)), tuple(rng.uniform(-1, 1, 2)))
            assert np.max(np.abs(map_source(both, pt)
                                 - map_source(direct, pt))) <= 1e-12

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            sig = random_symmetry(rng)
            back = compose(inverse(sig, D), sig)
            fwd = compose(sig, inverse(sig, D))
            pt = (float(rng.uniform(-1, 1)), tuple(rng.uniform(-1, 1, 2)))
            for comp in (back, fwd):
                assert np.max(np.abs(map_source(comp, pt)
                                     - np.r_[pt[0], pt[1]])) <= 1e-10
                assert np.max(np.abs(map_target(comp, pt)
                                     - np.r_[pt[0], pt[1]])) <= 1e-10


def _numeric_jacobian(fn, pt, d=D, eps=1e-6):
    base = np.r_[pt[0], pt[1]]
    J = np.zeros((d, d))
    for k in range(d):
        hi = base.copy()
        lo = base.copy()
        hi[k] += eps
        lo[k] -= eps
        fhi = fn((hi[0], tuple(hi[1:])))
        flo = fn((lo[0], tuple(lo[1:])))
        J[:, k] = (fhi - flo) / (2 * eps)
    return J


class TestJacobians:
    def test_source_jacobian_closed_form(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            sig = random_symmetry(rng)
            pt = (float(rng.uniform(-0.5, 0.5)), tuple(rng.uniform(-0.5, 0.5, 2)))
            J = _numeric_jacobian(lambda q: map_source(sig, q), pt)
            assert abs(np.linalg.det(J) - source_jacobian(sig, D)) <= 1e-6 * (
                1 + abs(source_jacobian(sig, D)))

    def test_volume_preserving_families(self):
        sig = Symmetry((Translate((0.3, 0.4)), Shear(0.2, -0.5)))
        assert source_jacobian(sig, D) == 1.0

    def test_target_factors_closed_form(self):
        sig = Symmetry((Scale(2.0, 3.0), Shear(0.1, 0.2), Scale(0.5, 1.0)))
        dt_fac, dy_fac = target_factors(sig, D)
        assert dt_fac == pytest.approx(3.0, rel=1e-12)
        assert dy_fac == pytest.approx((2.0 ** 2 * 3.0 ** 3) * (0.25), rel=1e-12)


class TestPullbacks:
    def test_identity_returns_field(self):
        rng = np.random.default_rng(21)
        g = box_grid("source", -1, 1, 6)
        f = SampledField(g, rng.random((6, 6, 6)))
        assert pullback_source(identity(), f, 2) is f

    def test_scale_multiplier_exact(self):
        # diagonal preimage grids land on nodes, so the factor is elementwise
        rng = np.random.default_rng(22)
        g = box_grid("source", -2, 2, 10)
        vals = rng.random((10, 10, 10)) + 0.5
        f = SampledField(g, vals)
        al = 2.0
        out = pullback_source(Symmetry((Scale(al, 1.0),)), f, 2)
        assert np.max(np.abs(out.values - al ** (D / 2) * vals)) <= 1e-12
        lo, hi = out.grid.box()
        assert np.allclose(lo, -1.0) and np.allclose(hi, 1.0)

    def test_source_norm_preserved_under_scale(self):
        rng = np.random.default_rng(23)
        g = box_grid("source", -2, 2, 12)
        f = SampledField(g, rng.random((12, 12, 12)))
        out = pullback_source(Symmetry((Scale(1.7, 0.8),)), f, P)
        assert lp_norm(out, P) == pytest.approx(lp_norm(f, P), rel=1e-10)

    def test_target_identity_returns_field(self):
        g = box_grid("target", -1, 1, 6)
        f = SampledField(g, np.ones((6, 6, 6)))
        assert pullback_target(identity(), f, 2, 2) is f

    def test_target_scale_constant(self):
        rng = np.random.default_rng(24)
        g = box_grid("target", -2, 2, 10)
        vals = rng.random((10, 10, 10)) + 0.5
        f = SampledField(g, vals)
        al, be = 2.0, 1.5
        q = r = Fraction(2)
        out = pullback_target(Symmetry((Scale(al, be),)), f, q, r)
        mult = be ** 0.5 * (al ** (D - 1) * be ** (D * (D - 1) / 2)) ** 0.5
        assert np.max(np.abs(out.values - mult * vals)) <= 1e-12 * mult

    def test_norm_drift_small_and_first_order(self):
        # frozen seeds; the drift halves when the grid doubles
        for seed in (7000, 7003, 7004, 7009, 7014):
            errs = {}
            for n in (32, 64):
                f, _, sig = drift_fields(seed, n)
                pf = pullback_source(sig, f, P)
                base = lp_norm(f, P)
                errs[n] = abs(lp_norm(pf, P) - base) / base
            assert errs[64] <= 1e-3
            assert 1.0 <= errs[32] / errs[64] <= 3.0


class TestNormalizeSymmetry:
    def test_neutral_cube_near_identity(self):
        g = box_grid("source", -1, 1, 24)
        f = SampledField(g, np.ones((24, 24, 24)))
        sig = normalize_symmetry(f, P)
        for st in sig.steps:
            if isinstance(st, Scale):
                assert abs(st.alpha - 1) <= 1e-6 and abs(st.beta - 1) <= 1e-6
            elif isinstance(st, Shear):
                assert abs(st.s0) <= 1e-6 and abs(st.t0) <= 1e-6
            else:
                assert max(abs(v) for v in st.v) <= 1e-6

    def test_translate_recovery(self):
        # shifting the box in x_1 must surface as the translate step
        g = grid_from_box(3, "source", [-1.0, -0.5, -1.0], [1.0, 1.5, 1.0],
                          [24] * 3)
        f = SampledField(g, np.ones((24, 24, 24)))
        sig = normalize_symmetry(f, P)
        tr = [st for st in sig.steps if isinstance(st, Translate)]
        assert tr and abs(tr[0].v[0] - 0.5) <= 1e-12

    def test_idempotent_on_separable_bumps(self):
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            g = box_grid("source", -3.5, 3.5, 32)
            pts = g.nodes()
            c = rng.uniform(-0.4, 0.4, 3)
            w = rng.uniform(0.8, 1.2, 3)
            f = SampledField(g, np.exp(-np.sum(((pts - c) / w) ** 2, axis=-1)))
            first = normalize_symmetry(f, P)
            pf = pullback_source(first, f, P)
            second = normalize_symmetry(pf, P)
            assert _max_param(second) <= 1e-3

    def test_contraction_on_sheared_bump(self):
        rng = np.random.default_rng(1)
        g = box_grid("source", -3.0, 3.0, 48)
        pts = g.nodes()
        c = rng.uniform(-0.4, 0.4, 3)
        w = rng.uniform(0.9, 1.4, 3)
        sh = float(rng.uniform(-0.08, 0.08))
        z = pts.copy()
        z[..., 1] = z[..., 1] - sh * z[..., 0]
        f = SampledField(g, np.exp(-np.sum(((z - c) / w) ** 2, axis=-1)))
        first = normalize_symmetry(f, P)
        pf = pullback_source(first, f, P)
        second = normalize_symmetry(pf, P)
        assert _max_param(second) <= 0.25 * _max_param(first)

    def test_infinite_p_weighs_by_first_power(self):
        # documented choice: p = inf uses the |f|^1 weights
        rng = np.random.default_rng(4)
        g = box_grid("source", -2.0, 2.0, 16)
        z = g.nodes() - rng.uniform(-0.4, 0.4, 3)
        z[..., 1] -= 0.3 * z[..., 0]
        f = SampledField(g, np.exp(-np.sum(z ** 2, axis=-1)))
        sig = normalize_symmetry(f, INF)
        assert sig == normalize_symmetry(f, 1)
        assert sig != normalize_symmetry(f, 2)

    def test_zero_field_error(self):
        g = box_grid("source", -1, 1, 4)
        with pytest.raises(ValueError):
            normalize_symmetry(SampledField(g, np.zeros((4, 4, 4))), P)

    def test_target_side_rejected(self):
        g = box_grid("target", -1, 1, 4)
        with pytest.raises(ValueError):
            normalize_symmetry(SampledField(g, np.ones((4, 4, 4))), P)


def _max_param(sig):
    mx = 0.0
    for st in sig.steps:
        if isinstance(st, Scale):
            mx = max(mx, abs(st.alpha - 1), abs(st.beta - 1))
        elif isinstance(st, Shear):
            mx = max(mx, abs(st.s0), abs(st.t0))
        else:
            mx = max(mx, max(abs(v) for v in st.v))
    return mx
