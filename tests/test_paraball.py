"""Paraball geometry: membership, duality, covers, distances, and fitting."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from momentxray.exponents import inv, triple_for_theta
from momentxray import field
from momentxray.field import (_BLOCK, Grid, gamma_eval, grid_from_box, lp_norm,
                              mixed_norm, SampledField)
from momentxray import paraball
from momentxray.paraball import (
    Cover,
    _Net,
    _NET_CACHE_SIZE,
    _band_columns,
    _inside,
    _nets,
    Paraball,
    conjugate,
    dual_bbox,
    dual_mixed_norm,
    fit_paraball,
    from_symmetry,
    intersection_volume,
    membership,
    mock_distance,
    partition,
    primal_bbox,
    quasi_ratio,
    raster_dual,
    raster_primal,
    sample_points,
    scale,
    to_symmetry,
    unit_paraball,
    volume,
)
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
    pullback_source,
    pullback_target,
)
from momentxray.search import SearchConfig
from momentxray.xray import TransformPlan, bilinear

from conftest import non_reals

D = 3
THETA = Fraction(5, 6)


def random_ball(rng, center_range=0.8, ybar_range=1.0, scale_lo=0.6,
                scale_hi=1.4):
    return Paraball(
        float(rng.uniform(-center_range, center_range)),
        float(rng.uniform(-center_range, center_range)),
        tuple(rng.uniform(-ybar_range, ybar_range, D - 1)),
        float(rng.uniform(scale_lo, scale_hi)),
        float(rng.uniform(scale_lo, scale_hi)),
    )


class TestMembership:
    def test_center_is_member(self):
        B = unit_paraball(D)
        assert membership(B, (0.0, (0.0, 0.0)), "primal")

    def test_far_point_is_not(self):
        B = unit_paraball(D)
        assert not membership(B, (2.0, (0.0, 0.0)), "primal")

    def test_unit_ball_is_a_box(self):
        # for the centered unit ball the primal conditions reduce to a cube
        B = unit_paraball(D)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.5, 1.5, size=(100_000, D))
        got = membership(B, pts, "primal")
        want = (np.abs(pts[:, 0]) < 1.0) & np.all(np.abs(pts[:, 1:]) <= 1.0,
                                                  axis=1)
        assert np.array_equal(got, want)

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            membership(unit_paraball(D), (0.0, (0.0, 0.0)), "both")


def _reference_band_coords(lead, rest, s0, t0, ybar, side):
    """The stacked band coordinates, each binomial sum started at 0."""
    d = np.shape(rest)[-1] + 1
    if side == "primal":
        slab = lead - s0
        v = rest - ybar - np.asarray(lead)[..., None] * gamma_eval(d, t0)
    elif side == "dual":
        slab = lead - t0
        v = rest - ybar
    else:
        raise ValueError(f"side must be 'primal' or 'dual', got {side!r}")
    cols = []
    for m in range(1, d):
        acc = sum(math.comb(m, i) * (-t0) ** (m - i) * v[..., i - 1]
                  for i in range(1, m + 1))
        if side == "dual":
            acc = acc + s0 * slab ** m
        cols.append(acc)
    return slab, np.stack(cols, axis=-1)


# the references take a caller's kept terms and ignore them: they build
# every term from the centre and widths


def _reference_band_columns(lead, rest, s0, t0, ybar, side, *kept_terms):
    slab, Q = _reference_band_coords(lead, rest, s0, t0, ybar, side)
    return slab, list(np.moveaxis(Q, -1, 0))


def _reference_inside(lead, rest, s0, t0, ybar, alpha, beta, side,
                      *kept_terms):
    slab, Q = _reference_band_coords(lead, rest, s0, t0, ybar, side)
    ok = np.abs(slab) < (alpha if side == "primal" else beta)
    bands = alpha * beta ** np.arange(1, Q.shape[-1] + 1)
    return ok & np.all(np.abs(Q) <= bands, axis=-1)


def _band_case(rng, d, per_point, n=400):
    """Points and centres in the shapes membership and Cover.contains use.

    A quarter of the points sit on the centre in some coordinates and some
    centres have t0 = 0, so exact zeros occur in the band sums.
    """
    lead = rng.uniform(-3.0, 3.0, n)
    rest = rng.uniform(-3.0, 3.0, (n, d - 1))
    shape = (n,) if per_point else ()
    s0 = rng.uniform(-2.0, 2.0, shape)
    t0 = rng.uniform(-2.0, 2.0, shape) * (rng.random(shape) < 0.75)
    ybar = rng.uniform(-2.0, 2.0, shape + (d - 1,))
    on = rng.random((n, d - 1)) < 0.25
    rest = np.where(on, np.broadcast_to(ybar, rest.shape), rest)
    if not per_point:
        s0, t0 = float(s0), float(t0)
    return lead, rest, s0, t0, ybar


class TestBandColumns:
    """The column-by-column band test against the stacked reference."""

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("per_point", [False, True],
                             ids=["scalar-centre", "per-point-centre"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_same_bytes_as_stacked_sums(self, d, per_point, side):
        rng = np.random.default_rng(100 * d + 10 * per_point
                                    + (side == "dual"))
        for _ in range(10):
            case = _band_case(rng, d, per_point)
            slab, cols = _band_columns(*case, side)
            Q = np.stack(cols, axis=-1)
            ref_slab, ref_Q = _reference_band_coords(*case, side)
            assert slab.tobytes() == ref_slab.tobytes()
            assert np.array_equal(Q, ref_Q)
            # only the sign of an exact zero may differ: the reference's
            # leading 0 + turns -0.0 into +0.0
            same = Q.view(np.int64) == ref_Q.view(np.int64)
            assert np.all(same | (ref_Q == 0.0))
            alpha, beta = rng.uniform(0.25, 4.0, 2)
            assert np.array_equal(
                _inside(*case, alpha, beta, side),
                _reference_inside(*case, alpha, beta, side))

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_membership_and_mock_distance_unchanged(self, d, monkeypatch):
        rng = np.random.default_rng(d)
        balls = [Paraball(*rng.uniform(-2.0, 2.0, 2),
                          tuple(rng.uniform(-2.0, 2.0, d - 1)),
                          *rng.uniform(0.25, 4.0, 2)) for _ in range(30)]
        pts = rng.uniform(-5.0, 5.0, (2000, d))
        pts[::4, 1:] = balls[0].ybar
        got_member = [membership(B, pts, side) for B in balls
                      for side in ("primal", "dual")]
        got_mock = [mock_distance(A, B) for A in balls for B in balls]
        monkeypatch.setattr(paraball, "_inside", _reference_inside)
        monkeypatch.setattr(paraball, "_band_columns", _reference_band_columns)
        want_member = [membership(B, pts, side) for B in balls
                       for side in ("primal", "dual")]
        want_mock = [mock_distance(A, B) for A in balls for B in balls]
        for got, want in zip(got_member, want_member):
            assert np.array_equal(got, want)
        assert got_mock == want_mock


def _row_band_columns(lead, rest, s0, t0, ybar, side):
    """_band_columns in row layout: v is one (..., d - 1) array, and the
    moment curve is numpy's row power t0[..., None] ** m."""
    d = np.shape(rest)[-1] + 1
    neg = -t0
    powers = [neg ** k for k in range(d - 1)]
    if side == "primal":
        g = np.asarray(t0, dtype=float)[..., None] ** np.arange(1, d)
        slab = lead - s0
        v = rest - ybar - np.asarray(lead)[..., None] * g
    else:
        slab = lead - t0
        v = rest - ybar
    cols = []
    for m in range(1, d):
        acc = math.comb(m, 1) * powers[m - 1] * v[..., 0]
        for i in range(2, m + 1):
            acc += math.comb(m, i) * powers[m - i] * v[..., i - 1]
        if side == "dual":
            acc += s0 * slab ** m
        cols.append(acc)
    return slab, cols


class TestBandColumnsRowLayout:
    """v built per coordinate column gives the row layout's bytes."""

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("per_point", [False, True],
                             ids=["scalar-centre", "per-point-centre"])
    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_same_bytes(self, d, per_point, side):
        rng = np.random.default_rng(500 + 10 * d + 2 * per_point
                                    + (side == "dual"))
        for _ in range(10):
            case = _band_case(rng, d, per_point)
            slab, cols = _band_columns(*case, side)
            ref_slab, ref_cols = _row_band_columns(*case, side)
            assert slab.tobytes() == ref_slab.tobytes()
            assert len(cols) == len(ref_cols) == d - 1
            for col, ref in zip(cols, ref_cols):
                assert col.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_one_point_against_every_member(self, side):
        # the miss scan's shapes: a single point, per-member centres
        rng = np.random.default_rng(77)
        S, T = rng.uniform(-1, 1, 50), rng.uniform(-1, 1, 50)
        Y = rng.uniform(-1, 1, (50, D - 1))
        for p in rng.uniform(-2, 2, (20, D)):
            slab, cols = _band_columns(p[0], p[1:], S, T, Y, side)
            ref_slab, ref_cols = _row_band_columns(p[0], p[1:], S, T, Y, side)
            assert slab.tobytes() == ref_slab.tobytes()
            assert all(c.tobytes() == r.tobytes()
                       for c, r in zip(cols, ref_cols))


class TestVolume:
    def test_unit_is_eight(self):
        assert volume(unit_paraball(D)) == pytest.approx(8.0, rel=1e-14)

    def test_independent_of_centers(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            B = random_ball(rng)
            moved = Paraball(0.0, 0.0, (0.0,) * (D - 1), B.alpha, B.beta)
            assert volume(B) == volume(moved)

    def test_monte_carlo_agreement(self):
        B = Paraball(0.3, -0.4, (0.2, -0.1), 1.2, 0.8)
        rng = np.random.default_rng(7)
        lo, hi = primal_bbox(B)
        n = 1_000_000
        pts = rng.uniform(lo, hi, size=(n, D))
        boxvol = float(np.prod(np.asarray(hi) - np.asarray(lo)))
        mc = boxvol * membership(B, pts, "primal").mean()
        assert mc == pytest.approx(volume(B), rel=2e-2)


class TestScaleAlgebra:
    """volume, dual_mixed_norm and the volume term of mock_distance against
    the inline Scale formulas they replaced, bit for bit."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_as_inline_formulas(self, d):
        rng = np.random.default_rng(70 + d)
        k = d * (d - 1) // 2
        centre = (0.3, -0.2, tuple(rng.uniform(-1.0, 1.0, d - 1)))
        trips = [triple_for_theta(d, th) for th in (THETA, Fraction(1, 3))]
        for _ in range(300):
            (aa, ba), (ab, bb) = np.exp(rng.uniform(-4.0, 4.0, (2, 2)))
            A = Paraball(*centre, aa, ba)
            B = Paraball(*centre, ab, bb)
            want = 2.0 ** d * A.alpha ** d * A.beta ** k
            assert volume(A).hex() == want.hex()
            for th, trip in zip((THETA, Fraction(1, 3)), trips):
                iqc = float(1 - inv(trip.q))
                irc = float(1 - inv(trip.r))
                section = 2.0 ** (d - 1) * A.alpha ** (d - 1) * A.beta ** k
                want = (2.0 * A.beta) ** iqc * section ** irc
                assert dual_mixed_norm(A, th).hex() == want.hex()
            # coincident centres: every offset term adds an exact zero
            Va = A.alpha ** (d - 1) * A.beta ** k
            Vb = B.alpha ** (d - 1) * B.beta ** k
            want = max(Va, Vb) / min(Va, Vb)
            want += A.alpha / B.alpha + B.alpha / A.alpha
            want += A.beta / B.beta + B.beta / A.beta
            assert mock_distance(A, B).hex() == want.hex()


class TestPastTheFloatRange:
    """A valid paraball whose Scale powers leave the float range: volume and
    dual_mixed_norm answer +inf, and a finite Jacobian reached through a
    power that overflows or underflows to 0 comes from logs."""

    @pytest.mark.parametrize("alpha, beta", [(1.0, 1e200), (1e200, 1.0),
                                             (1e300, 1e300)])
    def test_infinite(self, alpha, beta):
        B = Paraball(0.0, 0.0, (0.0, 0.0), alpha, beta)
        assert volume(B) == math.inf
        assert dual_mixed_norm(B, THETA) == math.inf

    def test_finite_product_of_an_underflowing_power(self):
        B = Paraball(0.0, 0.0, (0.0, 0.0), 1e-120, 1e100)
        assert volume(B) == pytest.approx(8e-60, rel=1e-12)

    def test_finite_product_of_overflowing_powers(self):
        B = Paraball(0.0, 0.0, (0.0, 0.0), 1e200, 1e-200)
        assert volume(B) == pytest.approx(8.0, rel=1e-12)
        trip = triple_for_theta(D, THETA)
        iqc, irc = float(1 - inv(trip.q)), float(1 - inv(trip.r))
        log_section = math.log(4.0) + 2 * math.log(1e200) + 3 * math.log(1e-200)
        want = math.exp(iqc * math.log(2e-200) + irc * log_section)
        assert dual_mixed_norm(B, THETA) == pytest.approx(want, rel=1e-12)

    # a band alpha beta^m past the float range is +inf and holds every
    # point; pyproject turns numpy's overflow warning into an error here
    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_infinite_band_holds_every_point(self, side, d):
        B = Paraball(0, 0, (0,) * (d - 1), 1.0, 1e200)
        assert membership(B, np.zeros((3, d)), side).tolist() == [True] * 3
        ok = _inside(np.zeros(3), np.zeros((3, d - 1)), 0.0, 0.0,
                     np.zeros(d - 1), 1.0, 1e200, side)
        assert ok.all()

    def test_infinite_band_rasters_and_volumes(self):
        big = Paraball(0, 0, (0, 0), 1.0, 1e200)
        unit = unit_paraball(D)
        assert intersection_volume(unit, big, 1000) == intersection_volume(
            unit, unit, 1000)
        grid = grid_from_box(D, "source", -0.9, 0.9, 4)
        assert raster_primal(big, grid).values.all()
        assert raster_dual(big, grid_from_box(D, "target", -0.9, 0.9,
                                              4)).values.all()

    # from a band beta^m past the float range on, Scale keeps a zero
    # coordinate zero and Shear leaves the zeros of G_{t0} out, so no
    # 0 * inf makes a NaN; pyproject turns numpy's warning into an error
    @pytest.mark.parametrize("d", [3, 4])
    def test_primal_bbox_of_an_infinite_band(self, d):
        lo, hi = primal_bbox(Paraball(0, 0, (0,) * (d - 1), 1.0, 1e200))
        assert lo.tolist() == [-1.0, -1e200] + [-math.inf] * (d - 2)
        assert hi.tolist() == [1.0, 1e200] + [math.inf] * (d - 2)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_samples_of_an_infinite_band(self, side, d):
        B = Paraball(0, 0, (0,) * (d - 1), 1.0, 1e200)
        pts = sample_points(B, 500, np.random.default_rng(8), side)
        u = np.random.default_rng(8).uniform(-1.0, 1.0, size=(500, d))
        assert np.isfinite(pts[:, :2]).all()
        assert (pts[:, 2:] == np.copysign(math.inf, u[:, 2:])).all()
        point_map = map_source if side == "primal" else map_target
        assert point_map(to_symmetry(B), np.zeros(d)).tolist() == [0.0] * d

    def test_partition_of_an_infinite_band(self):
        # the members' centres leave the float range: the cover refuses
        # them with one ValueError, not a warning about a NaN
        with pytest.raises(ValueError, match="member parameters must be"):
            partition(Paraball(0, 0, (0, 0), 1.0, 1e200), 0.5,
                      Fraction(5, 6))

    def test_dual_bbox_of_an_infinite_band(self):
        # G_{t0} is lower triangular: its zeros leave the finite rows
        # finite, where the matrix product made them 0 * inf = NaN
        lo, hi = dual_bbox(Paraball(0.5, 0.3, (0, 0), 1.0, 1e200))
        assert lo.tolist() == [0.3 - 1e200, -1.5e200, -math.inf]
        assert hi.tolist() == [0.3 + 1e200, 1.5e200, math.inf]


class TestDualMixedNorm:
    def test_unit_value(self):
        assert dual_mixed_norm(unit_paraball(D), THETA) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12)

    def test_alpha_scaling(self):
        B = Paraball(0.1, 0.2, (0.0, 0.3), 1.0, 0.9)
        lam = 1.7
        B2 = Paraball(0.1, 0.2, (0.0, 0.3), lam, 0.9)
        # r' = 2 at the critical theta: alpha enters at power (d-1)/r' = 1
        assert dual_mixed_norm(B2, THETA) / dual_mixed_norm(B, THETA) == (
            pytest.approx(lam, rel=1e-12))

    def test_raster_agreement(self):
        B = Paraball(0.3, -0.2, (0.4, 0.1), 1.2, 0.8)
        lo, hi = dual_bbox(B)
        g = grid_from_box(D, "target", lo, hi, [48] * D)
        got = mixed_norm(raster_dual(B, g), 2, 2)
        assert got == pytest.approx(dual_mixed_norm(B, THETA), rel=1e-2)


class TestScale:
    def test_identity_at_one(self):
        B = Paraball(0.2, 0.1, (0.4, -0.5), 1.1, 0.7)
        assert scale(B, 1.0) == B

    def test_volume_power(self):
        B = Paraball(0.2, 0.1, (0.4, -0.5), 1.1, 0.7)
        assert volume(scale(B, 2.0)) / volume(B) == pytest.approx(
            2.0 ** (D + D * (D - 1) / 2), rel=1e-12)

    def test_contains_original(self):
        B = Paraball(0.3, -0.4, (0.2, -0.1), 1.2, 0.8)
        rng = np.random.default_rng(3)
        pts = sample_points(B, 100_000, rng, "primal")
        assert membership(scale(B, 2.0), pts, "primal").all()

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale(unit_paraball(D), 0.0)


class TestSymmetryBridge:
    def test_identity_gives_unit_ball(self):
        B = from_symmetry(identity(), D)
        assert B == unit_paraball(D)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            B = random_ball(rng)
            back = from_symmetry(to_symmetry(B), D)
            assert back.s0 == pytest.approx(B.s0, abs=1e-12)
            assert back.t0 == pytest.approx(B.t0, abs=1e-12)
            assert back.alpha == pytest.approx(B.alpha, rel=1e-12)
            assert back.beta == pytest.approx(B.beta, rel=1e-12)
            assert np.allclose(back.ybar, B.ybar, atol=1e-12)

    def test_unit_points_map_into_ball(self):
        rng = np.random.default_rng(9)
        B = Paraball(0.4, -0.3, (0.6, 0.2), 1.3, 0.7)
        pts = sample_points(unit_paraball(D), 10_000, rng, "primal")
        mapped = map_source(to_symmetry(B), pts)
        assert membership(B, mapped, "primal").all()

    @pytest.mark.parametrize("n,side,match", [
        (10, "primla", "side"), (-5, "primal", "n must be >= 0"),
        (-1, "dual", "n must be >= 0")])
    def test_sample_points_rejects_bad_arguments(self, n, side, match):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=match):
            sample_points(unit_paraball(D), n, rng, side)


def _corners(d):
    g = np.meshgrid(*([np.array([-1.0, 1.0])] * d), indexing="ij")
    return np.stack(g, axis=-1).reshape(-1, d)


def _same_unit_box_maps(sig_a, sig_b, d, tol):
    C = _corners(d)
    for fmap in (map_source, map_target):
        assert np.allclose(fmap(sig_a, C), fmap(sig_b, C), rtol=0, atol=tol)


class TestGroupAction:
    def test_from_symmetry_reproduces_corner_images(self):
        rng = np.random.default_rng(29)
        for d in (3, 4):
            for _ in range(100):
                steps = []
                for _ in range(int(rng.integers(1, 7))):
                    kind = int(rng.integers(0, 3))
                    if kind == 0:
                        steps.append(Translate(tuple(rng.uniform(-1, 1, d - 1))))
                    elif kind == 1:
                        steps.append(Scale(float(rng.uniform(0.5, 2.0)),
                                           float(rng.uniform(0.5, 2.0))))
                    else:
                        steps.append(Shear(float(rng.uniform(-1, 1)),
                                           float(rng.uniform(-1, 1))))
                sig = Symmetry(tuple(steps))
                B = from_symmetry(sig, d)
                C = _corners(d)
                for fmap in (map_source, map_target):
                    want = fmap(sig, C)
                    got = fmap(to_symmetry(B), C)
                    assert np.allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("d,delta", [(3, 0.5), (3, 0.25), (4, 0.5)])
    def test_members_are_base_images_of_unit_frame_members(self, d, delta):
        rng = np.random.default_rng(31)
        B = Paraball(float(rng.uniform(-0.8, 0.8)), float(rng.uniform(-0.8, 0.8)),
                     tuple(rng.uniform(-1.0, 1.0, d - 1)),
                     float(rng.uniform(0.6, 1.4)), float(rng.uniform(0.6, 1.4)))
        cover = partition(B, delta, THETA)
        shape = (len(cover.y_net), len(cover.s_net), len(cover.t_net))
        n = len(cover.members)
        picks = rng.choice(n, size=min(n, 200), replace=False)
        for idx in picks:
            i, j, k = np.unravel_index(idx, shape)
            unit = Paraball(cover.s_net[j], cover.t_net[k], cover.y_net[i],
                            2 * cover.eta1, 2 * cover.eta2)
            composed = compose(to_symmetry(B), to_symmetry(unit))
            _same_unit_box_maps(to_symmetry(cover.members[idx]), composed, d,
                                1e-12)


def _plan_with_quad(s_quad, t_quad):
    return TransformPlan(grid_from_box(D, "source", -1, 1, 8),
                         grid_from_box(D, "target", -1, 1, 8), s_quad, t_quad)


@pytest.mark.parametrize("build", [
    lambda: Grid(3, "source", (0, 0, 0), (math.nan, 1, 1), (4, 4, 4)),
    lambda: Grid(3, "source", (math.inf, 0, 0), (1, 1, 1), (4, 4, 4)),
    lambda: Paraball(0.0, 0.0, (0.0, 0.0), math.nan, 1.0),
    lambda: Paraball(math.inf, 0.0, (0.0, 0.0), 1.0, 1.0),
    lambda: Scale(math.inf, 1),
    lambda: Scale(math.nan, 1),
    lambda: Translate((math.nan, 0)),
    lambda: Shear(math.nan, 0),
    lambda: _plan_with_quad(math.nan, 8),
    lambda: _plan_with_quad(8, math.inf),
    lambda: _plan_with_quad(2.5, 8),
    lambda: _plan_with_quad(8, 2.5),
], ids=["grid-nan-spacing", "grid-inf-origin", "paraball-nan-alpha",
        "paraball-inf-s0", "scale-inf", "scale-nan", "translate-nan",
        "shear-nan", "plan-nan-s-quad", "plan-inf-t-quad",
        "plan-fractional-s-quad", "plan-fractional-t-quad"])
def test_constructors_reject_nonfinite(build):
    with pytest.raises(ValueError):
        build()


class TestPartition:
    def test_delta_one_is_single_scale(self):
        B = unit_paraball(D)
        cover = partition(B, 1.0, THETA)
        assert cover.eta1 == pytest.approx(1.0, rel=1e-12)
        assert cover.eta2 == pytest.approx(1.0, rel=1e-12)
        assert 1 <= cover.counts["members"] <= 200

    def test_members_cover_both_shadows(self):
        B = Paraball(0.2, -0.1, (0.3, 0.1), 1.1, 0.9)
        cover = partition(B, 1.0, THETA)
        rng = np.random.default_rng(11)
        prim = sample_points(B, 2000, rng, "primal")
        dual = sample_points(B, 2000, rng, "dual")
        assert cover.contains(prim, "primal").all()
        assert cover.contains(dual, "dual").all()

    def test_member_volume_bracket(self):
        # delta = 0.5 sits exactly on the bracket top; 0.4 is interior
        B = Paraball(0.2, -0.1, (0.3, 0.1), 1.1, 0.9)
        delta = 0.4
        cover = partition(B, delta, THETA)
        lo = delta / 4 ** D * volume(B)
        hi = 4 ** D * delta * volume(B)
        for member in cover.members:
            assert lo <= volume(member) <= hi

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            partition(unit_paraball(D), 0.0, THETA)

    @pytest.mark.parametrize("d,delta", [(3, 0.5), (3, 0.25), (4, 0.5)])
    def test_contains_matches_members_beyond_the_base(self, d, delta):
        # points drawn x3 about the base often miss the lattice lookup
        B = Paraball(0.2, -0.1, (0.3, 0.1, -0.2)[:d - 1], 1.1, 0.9)
        cover = partition(B, delta, THETA)
        rng = np.random.default_rng(37)
        for side, fmap in (("primal", map_source), ("dual", map_target)):
            pts = fmap(to_symmetry(B), rng.uniform(-3.0, 3.0, (300, d)))
            want = np.zeros(len(pts), dtype=bool)
            for member in cover.members:
                want |= membership(member, pts, side)
            assert np.array_equal(cover.contains(pts, side), want), side

    @pytest.mark.parametrize("d,delta", [(3, 0.5), (3, 0.25), (4, 0.5)])
    def test_net_query_returns_a_near_net_point(self, d, delta):
        cover = partition(unit_paraball(d), delta, THETA)
        seps = {"s": cover.eta1, "t": cover.eta2,
                "y": cover.eta1 * cover.eta2 ** d}
        rng = np.random.default_rng(23)
        for name, sep in seps.items():
            net = getattr(cover, f"_{name}_index")
            # every net point is its own nearest net point
            assert np.array_equal(net.query(net.points),
                                  np.arange(len(net.points))), name
            q = rng.uniform(-1.0, 1.0, (2000, net.k))
            gap = np.linalg.norm(net.points[net.query(q)] - q, axis=1)
            assert gap.max() <= 1.25 * sep, name

    def test_members_are_built_from_columns_on_access(self):
        B = Paraball(0.2, -0.1, (0.3, 0.1), 1.1, 0.9)
        cover = partition(B, 0.25, THETA)
        # the eager build: one Paraball per member from the same columns
        shape = (len(cover.y_net), len(cover.s_net), len(cover.t_net))
        i, j, k = np.indices(shape).reshape(3, -1)
        S, T, Y = cover.s_net[j], cover.t_net[k], cover.y_net[i]
        sigma = to_symmetry(B)
        src = map_source(sigma, np.column_stack(
            [S, Y + S[:, None] * gamma_eval(D, T)]))
        tgt = map_target(sigma, np.column_stack([T, Y]))
        alpha, beta = 2 * cover.eta1 * B.alpha, 2 * cover.eta2 * B.beta
        eager = [Paraball(s0, t0, yb, alpha, beta)
                 for s0, t0, yb in zip(src[:, 0], tgt[:, 0], tgt[:, 1:])]
        members = cover.members
        assert cover.counts == {"s": 1, "t": 5, "y": 290, "members": 1450}
        assert len(members) == len(eager) == 1450
        assert list(members) == eager
        for n in (0, 1, 777, 1449, np.int64(12), np.int32(1448), -1, -1450):
            assert members[n] == eager[n], n
        assert list(members[3:9]) == eager[3:9]
        assert list(members[::-97]) == eager[::-97]
        for n in (1450, -1451, np.int64(10**6)):
            with pytest.raises(IndexError):
                members[n]
        with pytest.raises(TypeError):
            members[1.0]
        with pytest.raises(ValueError):
            members.s0[0] = 0.0
        assert eager[5] in members
        assert members.index(eager[5]) == 5


def _reference_net(k, sep):
    """The full-lattice greedy farthest-point loop, updating every candidate."""
    M = max(1, math.ceil(4.0 / sep))
    axis = np.linspace(-1.0, 1.0, 2 * M + 1)
    mesh = np.meshgrid(*([axis] * k), indexing="ij")
    cand = np.stack(mesh, axis=-1).reshape(-1, k)
    zero = (cand.shape[0] - 1) // 2
    chosen = [zero]
    dist = np.linalg.norm(cand - cand[zero], axis=1)
    nearest = np.zeros(cand.shape[0], dtype=np.int64)
    while True:
        i = int(np.argmax(dist))
        if dist[i] < sep:
            break
        newd = np.linalg.norm(cand - cand[i], axis=1)
        closer = newd < dist
        nearest[closer] = len(chosen)
        dist = np.where(closer, newd, dist)
        chosen.append(i)
    return cand[chosen], nearest


def _assert_same_net(net, k, sep):
    points, nearest = _reference_net(k, sep)
    assert net.points.tobytes() == points.tobytes()
    assert net._nearest.tobytes() == nearest.tobytes()


class TestNet:
    @pytest.mark.parametrize("d,delta", [(3, 0.5), (3, 0.25), (3, 0.125),
                                         (4, 0.5)])
    def test_partition_nets_match_full_lattice_greedy(self, d, delta):
        cover = partition(unit_paraball(d), delta, THETA)
        seps = {"s": cover.eta1, "t": cover.eta2,
                "y": cover.eta1 * cover.eta2 ** d}
        for name, sep in seps.items():
            net = getattr(cover, f"_{name}_index")
            _assert_same_net(net, net.k, sep)

    @pytest.mark.parametrize("k,lo,hi", [(1, 0.01, 1.5), (2, 0.05, 1.0)])
    def test_seeded_separations_match_full_lattice_greedy(self, k, lo, hi):
        for sep in np.random.default_rng(41 + k).uniform(lo, hi, 4):
            _assert_same_net(_Net(k, float(sep)), k, float(sep))


class TestNetCache:
    def test_covers_at_one_scale_share_their_nets(self):
        a = partition(unit_paraball(D), 0.25, THETA)
        b = partition(Paraball(0.2, -0.1, (0.3, 0.1), 1.1, 0.9), 0.25, THETA)
        for name in ("s", "t", "y"):
            assert getattr(a, f"_{name}_index") is getattr(b, f"_{name}_index")

    def test_shared_nets_are_read_only(self):
        cover = partition(unit_paraball(D), 0.25, THETA)
        net = cover._y_index
        for arr in (cover.y_net, cover.s_net, cover.t_net, net.points,
                    net._nearest):
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(ValueError):
            cover.y_net[:] = 1.0

    def test_rebuilt_cover_has_the_same_bytes(self):
        B = Paraball(0.2, -0.1, (0.3, 0.1), 1.1, 0.9)
        cached = partition(B, 0.25, THETA)
        _nets.cache_clear()
        fresh = partition(B, 0.25, THETA)
        assert fresh._y_index is not cached._y_index
        for name in ("s0", "t0", "ybar"):
            assert (getattr(fresh.members, name).tobytes()
                    == getattr(cached.members, name).tobytes()), name
        assert (fresh.members.alpha, fresh.members.beta) == \
            (cached.members.alpha, cached.members.beta)
        for name in ("s", "t", "y"):
            got, want = (getattr(c, f"_{name}_index") for c in (fresh, cached))
            assert got.points.tobytes() == want.points.tobytes(), name
            assert got._nearest.tobytes() == want._nearest.tobytes(), name
            assert (getattr(fresh, f"{name}_net").tobytes()
                    == getattr(cached, f"{name}_net").tobytes()), name

    def test_cache_stays_within_its_bound(self):
        deltas = np.linspace(1.0, 0.5, _NET_CACHE_SIZE + 3)
        for delta in deltas:
            partition(unit_paraball(D), float(delta), THETA)
            assert _nets.cache_info().currsize <= _NET_CACHE_SIZE
        assert _nets.cache_info().maxsize == _NET_CACHE_SIZE
        assert _nets.cache_info().currsize == _NET_CACHE_SIZE


class TestMockDistance:
    def test_self_distance_is_five(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            B = random_ball(rng)
            assert mock_distance(B, B) == 5.0

    def test_worked_pair(self):
        a = Paraball(0.0, 0.0, (0.0, 0.0), 1.0, 1.0)
        b = Paraball(0.0, 0.0, (0.0, 0.0), 2.0, 1.0)
        assert mock_distance(a, b) == pytest.approx(8.5, rel=1e-14)

    def test_symmetric_exact(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = random_ball(rng), random_ball(rng)
            assert mock_distance(a, b) == mock_distance(b, a)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            a, b = random_ball(rng), random_ball(rng)
            sig = Symmetry((
                Translate(tuple(rng.uniform(-0.5, 0.5, D - 1))),
                Scale(float(rng.uniform(0.7, 1.4)), float(rng.uniform(0.7, 1.4))),
                Shear(float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.4, 0.4))),
            ))
            base = mock_distance(a, b)
            moved = mock_distance(conjugate(sig, a), conjugate(sig, b))
            assert moved == pytest.approx(base, rel=1e-9)

    def test_dimension_mismatch(self):
        a = unit_paraball(3)
        b = Paraball(0.0, 0.0, (0.0, 0.0, 0.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            mock_distance(a, b)

    @pytest.mark.parametrize("B", [
        Paraball(0.3, 1e200, (0.0, 0.0), 1.0, 1.0),
        Paraball(0.3, 1e120, (0.0, 0.0, 0.0), 1.0, 1.0),
        Paraball(0.0, 0.0, (0.0, 0.0), 1e300, 1.0),
    ], ids=["t0-d3", "t0-d4", "alpha"])
    def test_far_paraball_is_at_five_from_itself(self, B):
        # gamma(t0) and the volume overflow; equal paraballs are at 5
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mock_distance(B, B) == 5.0
            assert mock_distance(B, Paraball(B.s0, B.t0, B.ybar, B.alpha,
                                             B.beta)) == 5.0

    @pytest.mark.parametrize("far", [
        Paraball(0.0, 1e200, (0.0, 0.0), 1.0, 1.0),
        Paraball(0.0, 1e200, (0.0, 0.0, 0.0), 1.0, 1.0),
        Paraball(0.5, -1e300, (0.0, 0.0), 1.0, 1.0),
        Paraball(0.0, 0.0, (1e308, -1e308), 1.0, 1.0),
        Paraball(0.0, 0.0, (0.0, 0.0), 1e300, 1.0),
        Paraball(0.0, 0.0, (0.0, 0.0), 1.0, 1e-300),
    ], ids=["t0-d3", "t0-d4", "t0-s0", "ybar", "alpha", "beta-volume"])
    def test_past_the_float_range_is_inf(self, far):
        # warnings are errors here, with no errstate
        near = unit_paraball(far.d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            there, back = mock_distance(near, far), mock_distance(far, near)
        assert there == back == math.inf


class TestIntersectionVolume:
    def test_self_intersection(self):
        B = Paraball(0.1, 0.3, (0.2, -0.4), 1.1, 0.9)
        iv = intersection_volume(B, B, n=1_000_000, seed=0)
        assert iv == pytest.approx(volume(B), rel=2e-2)

    def test_disjoint_is_zero(self):
        a = unit_paraball(D)
        b = Paraball(10.0, 0.0, (50.0, 50.0), 1.0, 1.0)
        assert intersection_volume(a, b, n=200_000, seed=1) == 0.0

    def test_nested_pair(self):
        B = Paraball(0.1, 0.3, (0.2, -0.4), 1.1, 0.9)
        iv = intersection_volume(B, scale(B, 2.0), n=1_000_000, seed=2)
        assert iv == pytest.approx(volume(B), rel=2e-2)

    def test_deterministic_in_seed(self):
        B = unit_paraball(D)
        C = Paraball(0.3, 0.1, (0.2, 0.0), 1.2, 0.8)
        assert intersection_volume(B, C, seed=5) == intersection_volume(
            B, C, seed=5)

    def test_deterministic_in_seed_from_fresh_draws(self):
        # the second call draws again instead of reading the kept sample
        B = unit_paraball(D)
        C = Paraball(0.3, 0.1, (0.2, 0.0), 1.2, 0.8)
        first = intersection_volume(B, C, seed=5)
        paraball._box_sample.cache_clear()
        assert intersection_volume(B, C, seed=5).hex() == first.hex()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="share a dimension"):
            intersection_volume(unit_paraball(3), unit_paraball(4))


class TestSampleCounts:
    """n is an integer count: numpy integers pass, bools and floats do not."""

    @pytest.mark.parametrize("n", [4.9, 4.0, True, False, np.True_, "8",
                                   None], ids=["float", "integral-float",
                                               "true", "false", "numpy-bool",
                                               "str", "none"])
    def test_non_integer_counts_rejected(self, n):
        B = unit_paraball(D)
        with pytest.raises(ValueError, match="n must be an integer"):
            intersection_volume(B, B, n)
        with pytest.raises(ValueError, match="n must be an integer"):
            sample_points(B, n, np.random.default_rng(0))

    def test_numpy_integers_accepted(self):
        B = Paraball(0.1, 0.3, (0.2, -0.4), 1.1, 0.9)
        C = Paraball(0.3, 0.1, (0.2, 0.0), 1.2, 0.8)
        want = intersection_volume(B, C, 5000, seed=3)
        for n in (np.int64(5000), np.int32(5000), np.uint16(5000)):
            assert intersection_volume(B, C, n, seed=3) == want
        pts = sample_points(B, np.int64(3), np.random.default_rng(1))
        assert pts.shape == (3, D)
        assert np.array_equal(
            pts, sample_points(B, 3, np.random.default_rng(1)))

    def test_ranges(self):
        B = unit_paraball(D)
        with pytest.raises(ValueError, match="n must be >= 1"):
            intersection_volume(B, B, 0)
        with pytest.raises(ValueError, match="n must be >= 0"):
            sample_points(B, -1, np.random.default_rng(0))
        assert sample_points(B, 0, np.random.default_rng(0)).shape == (0, D)

    @pytest.mark.parametrize("seed", [None, 1.5, 2.0, True, np.False_,
                                      np.random.default_rng(0),
                                      np.random.SeedSequence(0)],
                             ids=["none", "float", "integral-float", "true",
                                  "numpy-bool", "generator", "seed-sequence"])
    def test_non_integer_seeds_rejected(self, seed):
        B = unit_paraball(D)
        with pytest.raises(ValueError, match="seed must be an integer"):
            intersection_volume(B, B, 100, seed)

    def test_numpy_integer_seeds_accepted(self):
        B = Paraball(0.1, 0.3, (0.2, -0.4), 1.1, 0.9)
        C = Paraball(0.3, 0.1, (0.2, 0.0), 1.2, 0.8)
        want = intersection_volume(B, C, 5000, seed=3)
        for seed in (np.int64(3), np.int32(3), np.uint8(3)):
            paraball._box_sample.cache_clear()
            assert intersection_volume(B, C, 5000, seed).hex() == want.hex()

    def test_unit_ball_self_volume_uses_the_count_drawn(self):
        # every sample of the unit box hits; the estimate is the box volume
        B = unit_paraball(D)
        assert intersection_volume(B, B, 5) == volume(B) == 8.0


class TestNonFinitePoints:
    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_contains_rejects(self, side, bad):
        cover = partition(unit_paraball(D), 0.5, THETA)
        pts = np.zeros((_BLOCK + 3, D))
        pts[_BLOCK + 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            cover.contains(pts, side)
        with pytest.raises(ValueError, match="finite"):
            cover.contains(pts[_BLOCK + 1], side)

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_membership_answers_false(self, side):
        B = unit_paraball(D)
        pts = np.zeros((6, D))
        for k in range(D):
            pts[k, k] = np.nan
        assert not membership(B, pts[0], side)
        assert membership(B, pts, side).tolist() == [False] * D + [True] * 3


class TestFarDualPoints:
    """A dual point far outside the slab answers False, with no overflow in
    its band term s0 (t - t0)^m (warnings are errors here, with no errstate)."""

    @staticmethod
    def _points(d, centre):
        # |t - t0| past 1e154 overflows the square, past 1e103 the cube;
        # the last point is the centre, inside every dual shadow
        pts = np.zeros((4, d))
        pts[:3, 0] = 1e200, -1e300, 1e120
        pts[:3, 1] = 1.0
        pts[3] = centre
        return pts

    @pytest.mark.parametrize("d", [3, 4])
    def test_membership(self, d):
        B = Paraball(0.5, 0.25, (0.1,) * (d - 1), 1.0, 1.0)
        pts = self._points(d, (B.t0,) + B.ybar)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = membership(B, pts, "dual")
            assert [membership(B, p, "dual") for p in pts] == got.tolist()
        assert got.tolist() == [False, False, False, True]

    @pytest.mark.parametrize("d", [3, 4])
    def test_contains(self, d):
        cover = partition(unit_paraball(d), 0.5, THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cover.contains(self._points(d, 0.0), "dual")
        assert got.tolist() == [False, False, False, True]


class TestFarImages:
    """On a base with s0 != 0, a finite dual point whose unit-frame image
    leaves the float range answers False, with no warning and no miss scan
    (the primal images of these points are finite and miss every member)."""

    BASE = Paraball(0.3, -0.2, (0.1, 0.4), 0.9, 1.2)
    FAR = np.array([[1e200, 0.0, 0.0], [-1e300, 1.0, 0.0]])

    def _centre(self, side):
        fmap = map_source if side == "primal" else map_target
        return fmap(to_symmetry(self.BASE), np.zeros(D))

    def test_far_dual_points_skip_the_miss_scan(self, monkeypatch):
        cover = partition(self.BASE, 0.5, THETA)

        def no_scan(*args):
            raise AssertionError("a far point reached the miss scan")

        monkeypatch.setattr(paraball, "_member_centres", no_scan)
        pts = np.vstack([self.FAR, self._centre("dual")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cover.contains(pts, "dual")
        assert got.tolist() == [False, False, True]

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_misses_keep_their_places(self, side):
        cover = partition(self.BASE, 0.5, THETA)
        rng = np.random.default_rng(97)
        near = self._centre(side) + rng.uniform(-3.0, 3.0, (60, D))
        want = _unblocked_contains(cover, near, side)
        assert want.any() and not want.all()
        at = [0, 9, 9, 60]
        pts = np.insert(near, at, self.FAR[[0, 1, 1, 0]], axis=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cover.contains(pts, side)
        far = np.zeros(len(pts), dtype=bool)
        far[np.array(at) + np.arange(len(at))] = True
        assert not got[far].any()
        assert got[~far].tolist() == want.tolist()


# the point-wise pipelines as one pass over every point, before they ran
# in blocks; each lattice miss is scanned on its own against every member


def _unblocked_membership(B, point, side):
    z = paraball._pack_points(point, B.d)
    ok = _inside(z[..., 0], z[..., 1:], B.s0, B.t0, np.asarray(B.ybar),
                 B.alpha, B.beta, side)
    return bool(ok) if z.ndim == 1 else ok


def _unblocked_contains(cover, points, side):
    d = cover.base.d
    z = np.atleast_2d(paraball._pack_points(points, d))
    u = (map_source if side == "primal" else map_target)(
        inverse(to_symmetry(cover.base), d), z)
    lead, rest = u[:, 0], u[:, 1:]
    a, b = 2.0 * cover.eta1, 2.0 * cover.eta2
    i = cover._y_index.query(rest)
    j = cover._s_index.query(lead) if side == "primal" else 0
    k = 0 if side == "primal" else cover._t_index.query(lead)
    ok = _inside(lead, rest, cover.s_net[j], cover.t_net[k], cover.y_net[i],
                 a, b, side)
    if not ok.all():
        S, T, Y = paraball._member_centres(cover.s_net, cover.t_net,
                                           cover.y_net)
        for idx in np.flatnonzero(~ok):
            ok[idx] = _inside(lead[idx], rest[idx], S, T, Y, a, b,
                              side).any()
    return ok


def _unblocked_intersection_volume(Ba, Bb, n=100_000, seed=0):
    small, large = (Ba, Bb) if volume(Ba) <= volume(Bb) else (Bb, Ba)
    lo, hi = primal_bbox(small)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(int(n), Ba.d)) * (hi - lo) + lo
    pts = pts[_unblocked_membership(small, pts, "primal")]
    hits = np.count_nonzero(_unblocked_membership(large, pts, "primal"))
    box_vol = float(np.prod(hi - lo))
    return box_vol * float(hits) / float(n)


SIZES = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
# half-width of the unit-frame box the cover tests draw from, per side, so
# that many points miss the lattice lookup and many lie in no member
SPREAD = {"primal": 4.0, "dual": 3.0}


def _ball(rng, d):
    return Paraball(*rng.uniform(-0.8, 0.8, 2),
                    tuple(rng.uniform(-1.0, 1.0, d - 1)),
                    *rng.uniform(0.6, 1.4, 2))


class TestBlocks:
    """Point queries in blocks give the bytes of one pass over all points."""

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d", [3, 4])
    def test_membership(self, d, side):
        rng = np.random.default_rng(60 + d)
        for n in SIZES:
            B = _ball(rng, d)
            pts = map_source(to_symmetry(B), rng.uniform(-2.0, 2.0, (n, d)))
            got = membership(B, pts, side)
            assert got.tobytes() == _unblocked_membership(B, pts, side).tobytes()
        shaped = pts.reshape(-1, 5, d)
        got = membership(B, shaped, side)
        assert got.shape == shaped.shape[:-1]
        assert got.tobytes() == _unblocked_membership(B, shaped,
                                                      side).tobytes()
        for point in pts[:20]:
            got = membership(B, point, side)
            assert type(got) is bool
            assert got == _unblocked_membership(B, point, side)
        with pytest.raises(ValueError):
            membership(B, pts[:0], "both")

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d,delta", [(3, 0.25), (4, 0.5)])
    def test_contains_with_misses(self, d, delta, side):
        B = _ball(np.random.default_rng(d), d)
        cover = partition(B, delta, THETA)
        fmap = map_source if side == "primal" else map_target
        rng = np.random.default_rng(70 + d)
        for n in SIZES:
            pts = fmap(to_symmetry(B),
                       rng.uniform(-SPREAD[side], SPREAD[side], (n, d)))
            got = cover.contains(pts, side)
            assert got.shape == (n,)
            assert got.tobytes() == _unblocked_contains(cover, pts,
                                                        side).tobytes(), n
        assert cover.contains(pts[0], side).tobytes() == _unblocked_contains(
            cover, pts[0], side).tobytes()

    @pytest.mark.parametrize("side", ["primal", "dual"])
    def test_misses_from_many_blocks(self, side, monkeypatch):
        # small blocks: the misses of many point blocks are gathered and
        # scanned against every member, in point order
        B = _ball(np.random.default_rng(5), 3)
        cover = partition(B, 0.25, THETA)
        fmap = map_source if side == "primal" else map_target
        pts = fmap(to_symmetry(B), np.random.default_rng(6).uniform(
            -SPREAD[side], SPREAD[side], (2000, 3)))
        want = _unblocked_contains(cover, pts, side)
        monkeypatch.setattr(field, "_BLOCK", 64)
        assert cover.contains(pts, side).tobytes() == want.tobytes()
        assert want.any() and not want.all()

    @pytest.mark.parametrize("side", ["primal", "dual"])
    @pytest.mark.parametrize("d,delta", [(3, 0.25), (4, 0.5)])
    def test_contains_shaped_points(self, d, delta, side):
        # S + (d,) points are answered point by point with shape S, as
        # membership answers them
        B = _ball(np.random.default_rng(90 + d), d)
        cover = partition(B, delta, THETA)
        fmap = map_source if side == "primal" else map_target
        pts = fmap(to_symmetry(B), np.random.default_rng(91 + d).uniform(
            -SPREAD[side], SPREAD[side], (60, d)))
        flat = cover.contains(pts, side)
        assert flat.any() and not flat.all()
        for shape in ((6, 10), (2, 3, 10), (60, 1)):
            got = cover.contains(pts.reshape(shape + (d,)), side)
            assert got.shape == shape
            assert got.tobytes() == flat.tobytes()
        # a view with strides that no reshape of the (n, d) array has
        grid = pts.reshape(6, 10, d)[::2, ::3]
        want = cover.contains(grid.reshape(-1, d).copy(), side)
        assert cover.contains(grid, side).tobytes() == want.tobytes()
        for shape in ((0, d), (0, 2, d), (2, 0, d)):
            got = cover.contains(np.zeros(shape), side)
            assert got.shape == shape[:-1] and got.dtype == bool
        # a single point still gives an array of shape (1,)
        got = cover.contains(pts[7], side)
        assert got.shape == (1,) and got[0] == flat[7]
        assert cover.contains(list(pts[7]), side).tobytes() == got.tobytes()

    def test_contains_zero_grid_of_points(self):
        cover = partition(unit_paraball(3), 0.5, Fraction(5, 6))
        for side in ("primal", "dual"):
            got = cover.contains(np.zeros((2, 2, 3)), side)
            assert got.shape == (2, 2) and got.all()

    @pytest.mark.parametrize("d", [3, 4])
    def test_intersection_volume(self, d):
        rng = np.random.default_rng(80 + d)
        for n in SIZES[1:] + (100_000,):
            A = _ball(rng, d)
            for C in (scale(A, float(rng.uniform(0.5, 1.5))), _ball(rng, d)):
                got = intersection_volume(A, C, n, seed=n)
                want = _unblocked_intersection_volume(A, C, n, seed=n)
                assert got.hex() == want.hex(), n


class TestBoxSampleMemo:
    """intersection_volume keeps one sample of the smaller ball's box; every
    call still returns the bytes of a fresh draw."""

    A = Paraball(0.1, 0.3, (0.2, -0.4), 1.1, 0.9)
    L1 = Paraball(0.3, 0.3, (0.2, -0.4), 1.5, 1.1)
    L2 = Paraball(0.8, 0.2, (0.1, -0.3), 1.4, 1.2)
    S2 = Paraball(-0.2, 0.1, (0.0, -0.2), 1.0, 1.0)

    def test_sequence_matches_fresh_draws(self):
        A, L1, L2, S2 = self.A, self.L1, self.L2, self.S2
        assert volume(A) < min(volume(L1), volume(L2))
        assert volume(S2) < volume(L2)
        n1, n2 = 3 * _BLOCK + 7, 2 * _BLOCK
        calls = [
            (A, L1, n1, 3),
            (A, L1, n1, 3),   # the same key
            (A, L1, n2, 3),   # only n
            (A, L1, n2, 4),   # only the seed
            (A, L2, n2, 4),   # only the partner
            (S2, L2, n2, 4),  # only the smaller ball
            (L2, S2, n2, 4),  # the argument order swapped
            (A, L1, n1, 3),   # back to the first key
        ]
        paraball._box_sample.cache_clear()
        got = [intersection_volume(*c).hex() for c in calls]
        assert got == [_unblocked_intersection_volume(*c).hex() for c in calls]
        assert len(set(got)) >= 5

    def test_negative_zero_fields(self):
        # -0.0 and 0.0 compare and hash equal, so the twins share a key
        plus = Paraball(0.0, 0.0, (0.0, 0.0), 1.0, 1.0)
        minus = Paraball(-0.0, -0.0, (-0.0, -0.0), 1.0, 1.0)
        assert plus == minus and hash(plus) == hash(minus)
        assert math.copysign(1.0, minus.ybar[1]) == -1.0
        want = _unblocked_intersection_volume(minus, self.L1, 5000, 1)
        paraball._box_sample.cache_clear()
        intersection_volume(plus, self.L1, 5000, 1)
        assert intersection_volume(minus, self.L1, 5000, 1).hex() == want.hex()
        assert _unblocked_intersection_volume(
            plus, self.L1, 5000, 1).hex() == want.hex()

    def test_one_entry(self):
        for n, seed in ((1000, 0), (2000, 0), (2000, 1)):
            intersection_volume(self.A, self.L1, n, seed)
            intersection_volume(self.S2, self.L2, n, seed)
            assert paraball._box_sample.cache_info().currsize <= 1

    def test_kept_points_are_read_only(self):
        # the points inside the smaller ball are one (N, d) array, N <= n
        n = 2 * _BLOCK + 1
        _, inside = paraball._box_sample(self.A, n, 0)
        assert isinstance(inside, np.ndarray)
        assert inside.ndim == 2 and inside.shape[1] == D
        assert 0 < len(inside) <= n
        with pytest.raises(ValueError):
            inside[...] = 0.0

    def test_memory(self):
        # the unit ball fills its box, so the memo holds about n d 8 bytes;
        # a repeated call allocates only the band test's temporaries for one
        # block (about two blocks of points), where a fresh draw of the
        # blocks also allocates the draws, their scaling and the kept points
        # (five blocks of points)
        small = unit_paraball(D)
        n = 20 * _BLOCK
        block = _BLOCK * D * 8
        intersection_volume(small, self.L1, 10, 0)
        paraball._box_sample.cache_clear()
        tracemalloc.start()
        try:
            intersection_volume(small, self.L1, n, 0)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            intersection_volume(small, self.L2, n, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.9 * n * D * 8 <= held <= n * D * 8 + 64 * 1024
        assert peak - held <= 3 * block


def _unit_pair(n=32):
    B = unit_paraball(D)
    sg = grid_from_box(D, "source", *primal_bbox(B), [n] * D)
    tg = grid_from_box(D, "target", *dual_bbox(B), [n] * D)
    f = raster_primal(B, sg)
    g = raster_dual(B, tg)
    return f, g, TransformPlan(sg, tg, n, n)


class TestQuasiRatio:
    def test_zero_pair_error(self):
        f, g, plan = _unit_pair(16)
        with pytest.raises(ValueError):
            quasi_ratio(f, g.with_values(np.zeros(g.values.shape)), THETA, plan)

    def test_unit_pair_pinned(self):
        # closed-form value 13/(8 sqrt 2) for the continuum unit pair
        f, g, plan = _unit_pair(32)
        got = quasi_ratio(f, g, THETA, plan)
        assert got == pytest.approx(13.0 / (8.0 * math.sqrt(2.0)), abs=5e-4)

    def test_invariance_under_diagonal_symmetry(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            B = random_ball(rng, center_range=0.5, ybar_range=0.8,
                            scale_lo=0.7, scale_hi=1.3)
            n = 32
            sg = grid_from_box(D, "source", *primal_bbox(B), [n] * D)
            tg = grid_from_box(D, "target", *dual_bbox(B), [n] * D)
            f = raster_primal(B, sg)
            g = raster_dual(B, tg)
            base = quasi_ratio(f, g, THETA, TransformPlan(sg, tg, n, n))
            sig = Symmetry((
                Translate(tuple(rng.uniform(-0.6, 0.6, D - 1))),
                Scale(float(np.exp(rng.uniform(-0.35, 0.35))),
                      float(np.exp(rng.uniform(-0.35, 0.35)))),
            ))
            pf = pullback_source(sig, f, Fraction(3, 2))
            pg = pullback_target(sig, g, 2, 2)
            moved = quasi_ratio(pf, pg, THETA,
                                TransformPlan(pf.grid, pg.grid, n, n))
            assert moved == pytest.approx(base, rel=1e-3)


class TestFitParaball:
    def test_planted_recovery(self):
        B0 = unit_paraball(D)
        f, g, plan = _unit_pair(24)
        fit = fit_paraball(f, g, THETA, plan, starts=4, seed=0)
        assert abs(fit.s0 - B0.s0) <= 0.15 * B0.alpha
        assert abs(fit.t0 - B0.t0) <= 0.15 * B0.beta
        assert abs(fit.alpha - B0.alpha) <= 0.15 * B0.alpha
        assert abs(fit.beta - B0.beta) <= 0.15 * B0.beta
        for m in (1, 2):
            band = B0.alpha * B0.beta ** m
            assert abs(fit.ybar[m - 1] - B0.ybar[m - 1]) <= 0.15 * band

    def test_deterministic(self):
        f, g, plan = _unit_pair(16)
        a = fit_paraball(f, g, THETA, plan, starts=2, seed=3)
        b = fit_paraball(f, g, THETA, plan, starts=2, seed=3)
        assert a == b

    def test_tiny_support_respects_budget(self):
        B = Paraball(0.0, 0.0, (0.0, 0.0), 0.25, 1.0)
        pad = Paraball(0.0, 0.0, (0.0, 0.0), 0.5, 1.0)
        sg = grid_from_box(D, "source", *primal_bbox(pad), [20] * D)
        tg = grid_from_box(D, "target", *dual_bbox(pad), [20] * D)
        f = raster_primal(B, sg)
        g = raster_dual(B, tg)
        plan = TransformPlan(sg, tg, 20, 20)
        budget = 4.0 * float(np.abs(f.values).sum()) * sg.cell_volume / float(
            np.abs(f.values).max())
        fit = fit_paraball(f, g, THETA, plan, starts=2, seed=0)
        assert volume(fit) <= budget * (1 + 1e-12)

    @pytest.mark.parametrize("starts", [2.5, True, "8", np.float64(8)],
                             ids=["float", "bool", "str", "numpy-float"])
    def test_non_integer_starts_rejected(self, starts):
        f, g, plan = _unit_pair(16)
        with pytest.raises(ValueError, match="starts must be an integer"):
            fit_paraball(f, g, THETA, plan, starts=starts)

    def test_no_starts_rejected(self):
        f, g, plan = _unit_pair(16)
        with pytest.raises(ValueError, match="starts must be >= 1"):
            fit_paraball(f, g, THETA, plan, starts=0)

    def test_numpy_integer_starts_accepted(self):
        f, g, plan = _unit_pair(16)
        want = fit_paraball(f, g, THETA, plan, starts=1, seed=3)
        for kind in (np.int32, np.int64):
            assert fit_paraball(f, g, THETA, plan, starts=kind(1),
                                seed=3) == want

    def test_objective_nondecreasing_in_starts(self):
        f, g, plan = _unit_pair(16)
        budget = 4.0 * float(np.abs(f.values).sum()) * plan.source_grid.cell_volume

        def key(B):
            fB = f.with_values(f.values * membership(B, f.grid.nodes(), "primal"))
            gB = g.with_values(g.values * membership(B, g.grid.nodes(), "dual"))
            return bilinear(fB, gB, plan) * (1.0 - 0.02 * volume(B) / budget)

        one = key(fit_paraball(f, g, THETA, plan, starts=1, seed=5))
        more = key(fit_paraball(f, g, THETA, plan, starts=3, seed=5))
        assert more >= one - 1e-9


class TestNodeBlocks:
    """Rasters over node blocks give the bytes of the full-lattice pass."""

    @pytest.mark.parametrize("d, counts", [
        (3, 16), (3, (17, 23, 19)), (4, 12), (4, (9, 11, 7, 13))],
        ids=["d3-one-block", "d3-ragged", "d4", "d4-ragged"])
    def test_rasters_match_full_lattice(self, d, counts):
        B = Paraball(0.2, -0.3, tuple(np.linspace(0.1, 0.4, d - 1)), 0.9, 1.3)
        for raster, side, grid_side in ((raster_primal, "primal", "source"),
                                        (raster_dual, "dual", "target")):
            grid = grid_from_box(d, grid_side, -2.0, 2.0, counts)
            want = membership(B, grid.nodes(), side).astype(float)
            got = raster(B, grid).values
            assert got.tobytes() == want.tobytes()
            assert 0 < got.sum() < got.size


class TestRealRule:
    """Paraballs, scale, partition and fit_paraball take their reals by the
    real-number rule (field._real)."""

    @pytest.mark.parametrize("value", non_reals())
    @pytest.mark.parametrize("name", ["s0", "t0", "ybar", "alpha", "beta"])
    def test_paraball(self, name, value):
        params = {"s0": 0.1, "t0": 0.2, "ybar": (0.3, 0.4), "alpha": 1.5,
                  "beta": 0.5}
        params[name] = (0.3, value) if name == "ybar" else value
        with pytest.raises(ValueError, match=rf"\b{name} must be"):
            Paraball(**params)

    @pytest.mark.parametrize("value", non_reals())
    def test_scale(self, value):
        with pytest.raises(ValueError, match=r"\blam must be"):
            scale(unit_paraball(D), value)

    @pytest.mark.parametrize("value", non_reals())
    def test_partition(self, value):
        with pytest.raises(ValueError, match=r"\bdelta must be"):
            partition(unit_paraball(D), value, THETA)

    @pytest.mark.parametrize("value", non_reals())
    def test_fit_paraball(self, value):
        f, g, plan = _unit_pair(16)
        with pytest.raises(ValueError, match=r"\beps must be"):
            fit_paraball(f, g, THETA, plan, starts=1, eps=value)


class TestThetaZeroMessage:
    """The four theta sites that need a finite q refuse theta = 0 only, and
    say so; theta = 1 is accepted."""

    SITES = {
        "dual_mixed_norm": lambda th: dual_mixed_norm(unit_paraball(3), th),
        "partition": lambda th: partition(unit_paraball(3), 1, th),
        "quasi_ratio": lambda th: quasi_ratio(
            *(field.SampledField(grid_from_box(3, side, -1, 1, 4),
                                 np.ones((4,) * 3))
              for side in ("source", "target")), th,
            TransformPlan(grid_from_box(3, "source", -1, 1, 4),
                          grid_from_box(3, "target", -1, 1, 4))),
        "search": lambda th: SearchConfig(theta=th).exponents(),
    }

    @pytest.mark.parametrize("site", SITES)
    def test_theta_zero(self, site):
        with pytest.raises(ValueError, match=rf"^{site} needs theta > 0$"):
            self.SITES[site](Fraction(0))

    @pytest.mark.parametrize("site", SITES)
    def test_theta_one_accepted(self, site):
        self.SITES[site](Fraction(1))
