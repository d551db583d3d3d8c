"""Terms built once per owner give the bytes of the paths that rebuilt them.

Each reference below is a copy of a paraball or symmetry path as it was
when it rebuilt its terms on every block and every call: G_{t0}, gamma(t0),
alpha beta^m and the powers of -t0 inside each map and band test, gamma at
every member centre in partition, and the intersection volume's kept
sample tested block by block.  The package's paths, which keep those terms
on the paraball, build them once per blocked call or evaluate gamma on the
t-net, must give the same bytes.  The last classes check the search's
Phi taken from the dual map's own norm, the zero-border helper and
phi_functional's field check before any norm pass.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from momentxray import field, paraball, search
from momentxray.field import (_BLOCK, SampledField, _blocks, _interpolator,
                              _moments, _zero_border, gamma_eval,
                              grid_from_box, mixed_norm)
from momentxray.paraball import (Paraball, intersection_volume, membership,
                                 mock_distance, partition, primal_bbox,
                                 to_symmetry, volume)
from momentxray.search import SearchConfig, _evaluate
from momentxray.symmetry import (Scale, Shear, Symmetry, Translate,
                                 _jacobian_power, _scale_diagonal,
                                 _scale_jacobians, inverse, map_source,
                                 map_target, pullback_source,
                                 pullback_target, shear_matrix,
                                 source_jacobian, target_factors)
from momentxray.xray import TransformPlan, apply_X, phi_functional

THETA = Fraction(5, 6)
# a ball with -0.0 fields, which compares equal to its +0.0 twin
NEG_ZERO = Paraball(-0.0, -0.0, (-0.0, 0.0), 1.0, 1.0)


def _ball(rng, d):
    return Paraball(*rng.uniform(-0.8, 0.8, 2),
                    tuple(rng.uniform(-1.0, 1.0, d - 1)),
                    *rng.uniform(0.6, 1.4, 2))


# ---------------------------------------------------------------------------
# references: the paths that rebuilt each term where it was used


def _ref_map(sigma, point, target_side):
    """map_source / map_target, each step's terms built inside the map."""
    z = np.asarray(point, dtype=float)
    shape = z.shape[:-1]
    rows = np.empty((z.shape[-1],) + shape)
    rows[...] = np.moveaxis(z, -1, 0)
    z = rows.reshape(len(rows), -1)
    d = len(z)
    for st in sigma.steps:
        if isinstance(st, Translate):
            z[1:] += np.asarray(st.v)[:, None]
        elif isinstance(st, Scale):
            z[0] *= st.beta if target_side else st.alpha
            z[1:] *= _scale_diagonal(st.alpha, st.beta, d)[:, None]
        elif target_side:
            G = shear_matrix(d, st.t0).entries
            if st.s0 != 0:
                for m, power in enumerate(_moments(z[0], d), 1):
                    z[m] -= st.s0 * power
            z[1:] = (z[1:].T @ G.T).T
            z[0] += st.t0
        else:
            G = shear_matrix(d, st.t0).entries
            z[1:] = (z[1:].T @ G.T).T
            z[0] += st.s0
            for m, power in enumerate(gamma_eval(d, st.t0), 1):
                z[m] += z[0] * power
    return z.T.reshape(shape + (d,))


def _ref_band_columns(lead, rest, s0, t0, ybar, side):
    d = np.shape(rest)[-1] + 1
    g = gamma_eval(d, t0) if side == "primal" else None
    neg = -t0
    powers = [neg ** k for k in range(d - 1)]
    slab = lead - (s0 if side == "primal" else t0)
    v = [rest[..., m] - ybar[..., m] for m in range(d - 1)]
    if side == "primal":
        v = [vm - lead * g[..., m] for m, vm in enumerate(v)]
    cols = []
    for m in range(1, d):
        acc = math.comb(m, 1) * powers[m - 1] * v[0]
        for i in range(2, m + 1):
            acc += math.comb(m, i) * powers[m - i] * v[i - 1]
        if side == "dual":
            acc += s0 * slab ** m
        cols.append(acc)
    return slab, cols


def _ref_inside(lead, rest, s0, t0, ybar, alpha, beta, side):
    centre, width = (s0, alpha) if side == "primal" else (t0, beta)
    ok = np.abs(lead - centre) < width
    if side == "dual":
        lead = np.where(ok, lead, t0)
    _, cols = _ref_band_columns(lead, rest, s0, t0, ybar, side)
    for col, band in zip(cols, _scale_diagonal(alpha, beta, len(cols) + 1)):
        ok &= np.abs(col) <= band
    return ok


def _ref_membership(B, point, side):
    z = np.asarray(point, dtype=float)
    flat = z.reshape(-1, B.d)
    ok = np.empty(len(flat), dtype=bool)
    for blk in _blocks(len(flat)):
        zb = flat[blk]
        ok[blk] = _ref_inside(zb[:, 0], zb[:, 1:], B.s0, B.t0,
                              np.asarray(B.ybar), B.alpha, B.beta, side)
    return bool(ok[0]) if z.ndim == 1 else ok.reshape(z.shape[:-1])


def _ref_contains(cover, points, side):
    d = cover.base.d
    z = np.asarray(points, dtype=float).reshape(-1, d)
    unit = inverse(to_symmetry(cover.base), d)
    a, b = 2.0 * cover.eta1, 2.0 * cover.eta2
    ok = np.zeros(len(z), dtype=bool)
    missed = []
    for blk in _blocks(len(z)):
        u = _ref_map(unit, z[blk], side == "dual")
        lead, rest = u[:, 0], u[:, 1:]
        i = cover._y_index.query(rest)
        j = cover._s_index.query(lead) if side == "primal" else 0
        k = 0 if side == "primal" else cover._t_index.query(lead)
        hit = _ref_inside(lead, rest, cover.s_net[j], cover.t_net[k],
                          cover.y_net[i], a, b, side)
        ok[blk] = hit
        missed.append(u[~hit])
    scan = np.concatenate(missed)
    if len(scan):
        shape = (len(cover.y_net), len(cover.s_net), len(cover.t_net))
        i, j, k = np.indices(shape).reshape(3, -1)
        S, T, Y = cover.s_net[j], cover.t_net[k], cover.y_net[i]
        ok[~ok] = [_ref_inside(p[0], p[1:], S, T, Y, a, b, side).any()
                   for p in scan]
    return ok


def _ref_partition_columns(cover):
    """Member columns (s0, t0, ybar) with gamma taken at every member."""
    B, d = cover.base, cover.base.d
    shape = (len(cover.y_net), len(cover.s_net), len(cover.t_net))
    i, j, k = np.indices(shape).reshape(3, -1)
    S, T, Y = cover.s_net[j], cover.t_net[k], cover.y_net[i]
    sigma = to_symmetry(B)
    g = gamma_eval(d, T)
    src = _ref_map(sigma, np.column_stack(
        [S] + [Y[:, m] + S * g[:, m] for m in range(d - 1)]), False)
    tgt = _ref_map(sigma, np.column_stack([T, Y]), True)
    return src[:, 0], tgt[:, 0], tgt[:, 1:]


def _ref_mock_terms(Ba, Bb, d):
    Va = _scale_jacobians(Ba.alpha, Ba.beta, d)[1]
    Vb = _scale_jacobians(Bb.alpha, Bb.beta, d)[1]
    total = max(Va, Vb) / min(Va, Vb)
    total += Ba.alpha / Bb.alpha + Bb.alpha / Ba.alpha
    total += Ba.beta / Bb.beta + Bb.beta / Ba.beta
    total += abs(Ba.s0 - Bb.s0) * (1.0 / Ba.alpha + 1.0 / Bb.alpha)
    total += abs(Ba.t0 - Bb.t0) * (1.0 / Ba.beta + 1.0 / Bb.beta)

    def primal_offset(A, Bo, gA, gBo):
        G = shear_matrix(d, -A.t0).entries
        v = np.asarray(Bo.ybar) - np.asarray(A.ybar) + Bo.s0 * (gBo - gA)
        return float(np.sum(np.abs(G @ v)
                            / _scale_diagonal(A.alpha, A.beta, d)))

    def dual_offset(A, Bo):
        _, cols = _ref_band_columns(Bo.t0, np.asarray(Bo.ybar), A.s0, A.t0,
                                    np.asarray(A.ybar), "dual")
        return float(np.sum(np.abs(cols)
                            / _scale_diagonal(A.alpha, A.beta, d)))

    ga, gb = gamma_eval(d, Ba.t0), gamma_eval(d, Bb.t0)
    total += primal_offset(Ba, Bb, ga, gb) + primal_offset(Bb, Ba, gb, ga)
    total += dual_offset(Ba, Bb) + dual_offset(Bb, Ba)
    return float(total)


def _ref_mock_distance(Ba, Bb):
    if Ba == Bb:
        return 5.0
    with np.errstate(over="ignore", invalid="ignore"):
        total = _ref_mock_terms(Ba, Bb, Ba.d)
    return math.inf if math.isnan(total) else total


def _ref_intersection_volume(Ba, Bb, n=100_000, seed=0):
    """The kept sample as one array per block, each block tested alone."""
    small, large = (Ba, Bb) if volume(Ba) <= volume(Bb) else (Bb, Ba)
    lo, hi = primal_bbox(small)
    width = hi - lo
    rng = np.random.default_rng(seed)
    hits = 0
    for blk in _blocks(n):
        u = rng.uniform(size=(blk.stop - blk.start, small.d))
        cols = np.empty((small.d, len(u)))
        for k, col in enumerate(cols):
            np.add(u[:, k] * width[k], lo[k], out=col)
        pts = cols.T[_ref_membership(small, cols.T, "primal")]
        hits += np.count_nonzero(_ref_membership(large, pts, "primal"))
    return float(np.prod(width)) * float(hits) / float(n)


def _ref_pullback(sigma, f, grid, target_side, factor):
    evaluate = _interpolator(f)
    values = np.empty(grid.shape)
    out = values.reshape(-1)
    for blk, nodes in field._node_blocks(grid):
        out[blk] = evaluate(_ref_map(sigma, nodes, target_side))
    return values * factor


# ---------------------------------------------------------------------------


# half-width of the unit-frame box drawn from, per side, so that many points
# miss the lattice lookup and many lie in no member
SPREAD = {"primal": 6.0, "dual": 3.0}


def _spread_points(B, rng, n, side, spread=None):
    """Points drawn about B's shadow, from the unit box scaled by spread."""
    spread = SPREAD[side] if spread is None else spread
    fmap = map_source if side == "primal" else map_target
    return fmap(to_symmetry(B), rng.uniform(-spread, spread, (n, B.d)))


class TestPartitionColumns:
    @pytest.mark.parametrize("d,delta", [(3, 0.25), (3, 0.125), (4, 0.5)])
    def test_member_columns(self, d, delta):
        rng = np.random.default_rng(int(1000 * delta) + d)
        balls = [_ball(rng, d) for _ in range(2)]
        if d == 3:
            balls.append(NEG_ZERO)
        for B in balls:
            cover = partition(B, delta, THETA)
            want = _ref_partition_columns(cover)
            got = (cover.members.s0, cover.members.t0, cover.members.ybar)
            for name, g, w in zip(("s0", "t0", "ybar"), got, want):
                assert g.tobytes() == w.tobytes(), (B, name)

    def test_gamma_on_the_net_is_gamma_at_each_member(self):
        # numpy's power is per element: a t-net value gives the same bits
        # alone, in a short array and at any place in a long one
        rng = np.random.default_rng(3)
        t = np.concatenate([rng.uniform(-3.0, 3.0, 997), [0.0, -0.0, 1.0]])
        for d in (3, 4, 5):
            net = gamma_eval(d, t)
            k = rng.integers(0, len(t), 20_000)
            assert net[k].tobytes() == np.ascontiguousarray(
                gamma_eval(d, t[k])).tobytes()
            for n in (0, 1, 7, 998):
                assert net[n].tobytes() == gamma_eval(d, t[n]).tobytes()


class TestContainsAndMembership:
    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d,delta", [(3, 0.25), (4, 0.5)])
    def test_contains_with_misses(self, d, delta, side):
        rng = np.random.default_rng(10 * d + (side == "dual"))
        for B in (_ball(rng, d), _ball(rng, d)):
            cover = partition(B, delta, THETA)
            pts = _spread_points(B, rng, 2 * _BLOCK + 5, side)
            want = _ref_contains(cover, pts, side)
            assert want.any() and not want.all()
            assert cover.contains(pts, side).tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_contains_fine_cover(self, side):
        # delta = 1/8: 38 025 members; the points lie in the base's shadow
        rng = np.random.default_rng(88)
        B = _ball(rng, 3)
        cover = partition(B, 0.125, THETA)
        pts = _spread_points(B, rng, _BLOCK + 9, side, 1.0)
        want = _ref_contains(cover, pts, side)
        assert cover.contains(pts, side).tobytes() == want.tobytes()

    def test_contains_dual_points_of_negative_t(self):
        # t0 = -0.7, beta = 0.3: every dual t drawn x2 about the shadow
        # is negative, the case where the group action's powers of t and
        # the band columns' powers of t - t0 take different numpy kernels
        B = Paraball(0.3, -0.7, (0.2, -0.4), 0.9, 0.3)
        cover = partition(B, 0.25, THETA)
        rng = np.random.default_rng(70)
        pts = _spread_points(B, rng, 25 * _BLOCK, "dual", 2.0)
        assert len(pts) >= 100_000 and (pts[:, 0] < 0).mean() > 0.99
        want = _ref_contains(cover, pts, "dual")
        assert want.any() and not want.all()
        assert cover.contains(pts, "dual").tobytes() == want.tobytes()

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_membership(self, d, side):
        rng = np.random.default_rng(20 * d + (side == "dual"))
        balls = [_ball(rng, d) for _ in range(4)]
        balls += [Paraball(-0.0, -0.0, (-0.0,) * (d - 1), 1.0, 1.0)]
        for B in balls:
            pts = _spread_points(B, rng, _BLOCK + 17, side, 2.0)
            pts[::5, 1:] = B.ybar  # exact zeros in the band sums
            got = membership(B, pts, side)
            assert got.tobytes() == _ref_membership(B, pts, side).tobytes()
            assert membership(B, pts[3], side) == _ref_membership(
                B, pts[3], side)


class TestMockDistance:
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_both_orders(self, d):
        rng = np.random.default_rng(30 + d)
        balls = [_ball(rng, d) for _ in range(12)]
        balls += [Paraball(-0.0, -0.0, (-0.0,) * (d - 1), 1.0, 1.0),
                  Paraball(0.0, 0.0, (0.0,) * (d - 1), 1.0, 1.0)]
        for A in balls:
            for B in balls:
                assert mock_distance(A, B).hex() == \
                    _ref_mock_distance(A, B).hex()

    def test_members_of_a_cover(self):
        # the cover workload's pairs: a ball and members built on access
        rng = np.random.default_rng(41)
        B = _ball(rng, 3)
        members = partition(B, 0.25, THETA).members
        for n in rng.integers(0, len(members), 40):
            m = members[int(n)]
            assert mock_distance(B, m).hex() == _ref_mock_distance(B, m).hex()
            assert mock_distance(m, B).hex() == _ref_mock_distance(m, B).hex()

    @pytest.mark.parametrize("far", [
        Paraball(0.0, 1e200, (0.0, 0.0), 1.0, 1.0),
        Paraball(0.0, 1e200, (0.0, 0.0, 0.0), 1.0, 1.0),
        Paraball(0.5, -1e300, (0.0, 0.0), 1.0, 1.0),
    ], ids=["t0-d3", "t0-d4", "t0-s0"])
    def test_past_the_float_range(self, far):
        near = Paraball(0.1, 0.2, (0.0,) * (far.d - 1), 1.0, 1.0)
        assert mock_distance(near, far) == mock_distance(far, near) == math.inf


class TestIntersectionVolume:
    @pytest.mark.parametrize("d", [3, 4])
    def test_against_blocked_draws(self, d):
        rng = np.random.default_rng(50 + d)
        for n in (1, _BLOCK - 1, 3 * _BLOCK + 7, 100_000):
            A = _ball(rng, d)
            for C in (paraball.scale(A, float(rng.uniform(0.5, 1.5))),
                      _ball(rng, d)):
                for args in ((A, C), (C, A)):
                    got = intersection_volume(*args, n, seed=n)
                    want = _ref_intersection_volume(*args, n, seed=n)
                    assert got.hex() == want.hex(), n

    def test_cover_members_share_one_sample(self):
        # the members are larger than the ball: the ball's sample is kept
        # and every member is tested on it in one membership call
        rng = np.random.default_rng(57)
        B = _ball(rng, 3)
        members = partition(B, 0.25, THETA).members
        paraball._box_sample.cache_clear()
        for n in rng.integers(0, len(members), 4):
            m = members[int(n)]
            assert volume(B) < volume(m)
            assert intersection_volume(B, m).hex() == \
                _ref_intersection_volume(B, m).hex()
        assert paraball._box_sample.cache_info().misses == 1


class TestPointMaps:
    @staticmethod
    def _sigma(rng, d):
        return Symmetry((
            Translate(tuple(rng.uniform(-0.5, 0.5, d - 1))),
            Shear(*rng.uniform(-0.6, 0.6, 2)),
            Scale(*rng.uniform(0.6, 1.5, 2)),
            Shear(0.0, float(rng.uniform(-0.6, 0.6))),
            Shear(-0.0, float(rng.uniform(-0.6, 0.6))),
            Translate(tuple(rng.uniform(-0.5, 0.5, d - 1))),
        ))

    @pytest.mark.parametrize("d", [3, 4])
    def test_map_source_and_target(self, d):
        rng = np.random.default_rng(60 + d)
        for _ in range(5):
            sigma = self._sigma(rng, d)
            pts = rng.uniform(-3.0, 3.0, (2 * _BLOCK + 3, d))
            for fmap, target_side in ((map_source, False), (map_target, True)):
                want = _ref_map(sigma, pts, target_side)
                assert fmap(sigma, pts).tobytes() == want.tobytes()
                shaped = pts[:60].reshape(3, 4, 5, d)
                assert fmap(sigma, shaped).tobytes() == _ref_map(
                    sigma, shaped, target_side).tobytes()
                assert fmap(sigma, pts[7]).tobytes() == _ref_map(
                    sigma, pts[7], target_side).tobytes()

    @pytest.mark.parametrize("d", [3, 4])
    def test_pullbacks(self, d):
        rng = np.random.default_rng(70 + d)
        n = 24 if d == 3 else 12
        src = grid_from_box(d, "source", -2.0, 2.0, n)
        tgt = grid_from_box(d, "target", -2.0, 2.0, n)
        f = SampledField(src, rng.random(src.shape))
        g = SampledField(tgt, rng.random(tgt.shape))
        for _ in range(3):
            sigma = self._sigma(rng, d)
            jac = _jacobian_power(sigma, [(source_jacobian(sigma, d), 0.5, d,
                                          d * (d - 1) // 2)])
            got = pullback_source(sigma, f, 2, out_grid=src)
            want = _ref_pullback(sigma, f, src, False, jac)
            assert got.values.tobytes() == want.tobytes()
            dt_fac, jy = target_factors(sigma, d)
            jac = _jacobian_power(sigma, [(dt_fac, 0.5, 0, 1),
                                          (jy, 0.5, d - 1, d * (d - 1) // 2)])
            got = pullback_target(sigma, g, 2, 2, out_grid=tgt)
            want = _ref_pullback(sigma, g, tgt, True, jac)
            assert got.values.tobytes() == want.tobytes()


class TestKeptTerms:
    B = Paraball(0.3, -0.7, (0.2, -0.4), 1.1, 0.9)

    def test_terms_are_those_of_the_ball(self):
        B = self.B
        kept = B._terms
        assert kept.ybar.tobytes() == np.asarray(B.ybar).tobytes()
        assert kept.gamma.tobytes() == gamma_eval(3, B.t0).tobytes()
        assert kept.powers == tuple((-B.t0) ** k for k in range(2))
        assert kept.bands.tobytes() == _scale_diagonal(
            B.alpha, B.beta, 3).tobytes()
        assert kept.shear.tobytes() == shear_matrix(3, -B.t0).entries.tobytes()
        assert B._terms is kept  # built once

    def test_terms_are_read_only(self):
        kept = Paraball(0.1, 0.2, (0.3, 0.4), 1.0, 1.0)._terms
        for arr in (kept.ybar, kept.gamma, kept.bands, kept.shear):
            with pytest.raises(ValueError):
                arr[0] = 9.0
        with pytest.raises(TypeError):
            kept.powers[0] = 9.0

    def test_not_in_eq_hash_or_repr(self):
        fresh = Paraball(0.3, -0.7, (0.2, -0.4), 1.1, 0.9)
        before = (repr(fresh), hash(fresh))
        membership(self.B, np.zeros((4, 3)), "primal")
        assert "_terms" in vars(self.B) and "_terms" not in vars(fresh)
        assert self.B == fresh and hash(self.B) == hash(fresh)
        assert repr(self.B) == repr(fresh) == before[0]
        assert hash(fresh) == before[1]
        assert "_terms" not in repr(self.B)

    def test_negative_zero_twins_keep_their_own_bits(self):
        plus = Paraball(0.0, 0.0, (0.0, 0.0), 1.0, 1.0)
        minus = Paraball(-0.0, -0.0, (-0.0, -0.0), 1.0, 1.0)
        assert plus == minus and hash(plus) == hash(minus)
        # -t0 is -0.0 for the plus twin and 0.0 for the minus twin
        assert math.copysign(1.0, plus._terms.powers[1]) == -1.0
        assert math.copysign(1.0, minus._terms.powers[1]) == 1.0
        assert np.signbit(minus._terms.ybar).all()
        assert not np.signbit(plus._terms.ybar).any()


class TestSearchTrims:
    def test_phi_is_the_mixed_norm(self):
        cfg = SearchConfig(d=3, counts=12, seed=4)
        plan = cfg.plan()
        trip = cfg.exponents()
        rng = np.random.default_rng(8)
        src = plan.source_grid
        for _ in range(3):
            state = _evaluate(rng.random(src.shape), plan, trip)
            h = apply_X(state.f, plan)
            assert type(state.phi) is float
            assert state.phi.hex() == mixed_norm(h, trip.q, trip.r).hex()
            assert state.g.values.tobytes() == search.dual_map(
                h, trip.q, trip.r).values.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4, 5), (2, 2), (6,)])
    def test_zero_border_is_pad(self, shape):
        values = np.random.default_rng(9).normal(size=shape)
        got = _zero_border(values)
        want = np.pad(values, 1)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestPhiFunctionalRefusal:
    @pytest.mark.parametrize("case", ["off-grid", "target-side"])
    def test_refused_before_any_norm_pass(self, monkeypatch, case):
        src = grid_from_box(3, "source", -1.0, 1.0, 6)
        tgt = grid_from_box(3, "target", -1.0, 1.0, 6)
        plan = TransformPlan(src, tgt)
        other = {"off-grid": grid_from_box(3, "source", -2.0, 2.0, 6),
                 "target-side": tgt}[case]
        f = SampledField(other, np.ones(other.shape))
        calls = []
        real_lq = field._lq
        monkeypatch.setattr(field, "_lq",
                            lambda *a: calls.append(a) or real_lq(*a))
        message = {"off-grid": "^field grid does not match the plan's "
                               "source grid$",
                   "target-side": "^phi_functional expects a source-side "
                                  "field$"}[case]
        with pytest.raises(ValueError, match=message):
            phi_functional(f, THETA, plan)
        assert calls == []
        # a valid field does reach the norm pass
        phi_functional(SampledField(src, np.ones(src.shape)), THETA, plan)
        assert len(calls) >= 1
