"""Exponent arithmetic: exact triples, conjugates, interpolation constants."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentxray.exponents import (
    INF,
    Infinity,
    ExponentTriple,
    as_exponent,
    as_float,
    balance_ratio,
    conj_exponent,
    conjugate,
    interp_constants,
    interpolated_triple,
    inv,
    k0_index,
    theta_zero,
    triple_for_theta,
)

F = Fraction


class TestAsFloat:
    def test_values(self):
        assert as_float(INF) == math.inf
        assert 1.0 / as_float(INF) == 0.0
        assert as_float(F(3, 2)) == 1.5
        assert as_float(2) == 2.0
        assert as_float(0.25) == 0.25


class TestInfinity:
    def test_equals_float_inf(self):
        assert INF == math.inf
        assert float(INF) == math.inf

    def test_is_singleton_type(self):
        assert isinstance(INF, Infinity)


class TestThetaZero:
    def test_d3(self):
        assert theta_zero(3) == F(5, 6)

    def test_d4(self):
        assert theta_zero(4) == F(9, 10)

    def test_d5(self):
        assert theta_zero(5) == F(14, 15)

    def test_formula(self):
        for d in range(3, 12):
            assert theta_zero(d) == F(d * d + d - 2, d * d + d)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            theta_zero(2)


class TestTripleForTheta:
    def test_critical_d3(self):
        t = triple_for_theta(3, F(5, 6))
        assert (t.p, t.q, t.r) == (F(3, 2), F(2), F(2))

    def test_theta_one_d3(self):
        t = triple_for_theta(3, 1)
        assert (t.p, t.q, t.r) == (F(5, 3), F(5, 3), F(5, 2))

    def test_theta_zero_endpoint(self):
        t = triple_for_theta(3, 0)
        assert t.p == 1
        assert isinstance(t.q, Infinity)
        assert t.r == 1

    def test_rejects_float_theta(self):
        with pytest.raises(TypeError):
            triple_for_theta(3, 0.5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            triple_for_theta(3, F(7, 6))

    @given(st.integers(3, 8))
    def test_q_equals_r_at_critical(self, d):
        t = triple_for_theta(d, theta_zero(d))
        assert t.q == t.r

    @given(st.integers(3, 8),
           st.fractions(min_value=F(1, 60), max_value=1, max_denominator=60))
    @settings(max_examples=80)
    def test_scaling_identity(self, d, theta):
        t = triple_for_theta(d, theta)
        assert inv(t.p) - inv(t.q) == 1 - theta


class TestConjugate:
    def test_critical_triple(self):
        t = conjugate(ExponentTriple(F(3, 2), 2, 2))
        assert (t.p, t.q, t.r) == (F(3), F(2), F(2))

    def test_endpoint_triple(self):
        t = conjugate(ExponentTriple(1, INF, 1))
        assert isinstance(t.p, Infinity)
        assert t.q == 1
        assert isinstance(t.r, Infinity)

    def test_involution(self):
        t = ExponentTriple(F(5, 3), F(5, 3), F(5, 2))
        assert conjugate(conjugate(t)) == t

    @given(st.fractions(min_value=F(11, 10), max_value=9, max_denominator=40))
    def test_conj_exponent_involution(self, e):
        assert conj_exponent(conj_exponent(e)) == e

    def test_conj_rejects_below_one(self):
        with pytest.raises(ValueError):
            conj_exponent(F(1, 2))

    def test_as_exponent_rejects_float(self):
        with pytest.raises(TypeError):
            as_exponent(1.5)


def _d3_endpoints():
    e0 = triple_for_theta(3, theta_zero(3))
    e1 = triple_for_theta(3, 1)
    return e0, e1


class TestInterpConstants:
    def test_a0_value(self):
        e0, e1 = _d3_endpoints()
        ic = interp_constants(e0, e1, F(1, 2))
        assert ic.a0 == -5

    def test_a0_independent_of_theta(self):
        e0, e1 = _d3_endpoints()
        vals = {interp_constants(e0, e1, th).a0
                for th in (F(1, 4), F(1, 2), F(11, 12))}
        assert vals == {F(-5)}

    def test_b_exact_oracle(self):
        # b reduces to -u'_theta at the d=3 pair, 1/u' = 1 - interp of 1/q
        e0, e1 = _d3_endpoints()
        th = F(11, 12)
        ic = interp_constants(e0, e1, th)
        iu = 1 - ((1 - th) * inv(e0.q) + th * inv(e1.q))
        assert ic.b == -1 / iu
        assert ic.b == F(-120, 49)

    def test_identical_endpoints_error(self):
        e0, _ = _d3_endpoints()
        with pytest.raises(ValueError):
            interp_constants(e0, e0, F(1, 2))

    @given(st.fractions(min_value=F(1, 20), max_value=F(19, 20),
                        max_denominator=24))
    @settings(max_examples=40)
    def test_swap_antisymmetry(self, theta):
        e0, e1 = _d3_endpoints()
        ic = interp_constants(e0, e1, theta)
        sw = interp_constants(e1, e0, 1 - theta)
        assert sw.a0 == -ic.a1
        assert sw.a1 == -ic.a0
        assert sw.b == ic.b
        assert sw.c0 == ic.c1
        assert sw.c1 == ic.c0
        assert sw.d0 == ic.d1
        assert sw.d1 == ic.d0

    def test_interpolated_triple_matches_formula(self):
        e0, e1 = _d3_endpoints()
        th = F(1, 3)
        t = interpolated_triple(e0, e1, th)
        assert inv(t.p) == (1 - th) * inv(e0.p) + th * inv(e1.p)
        assert inv(t.q) == (1 - th) * inv(e0.q) + th * inv(e1.q)
        assert inv(t.r) == (1 - th) * inv(e0.r) + th * inv(e1.r)


class TestK0Index:
    def _ic(self, theta=F(1, 2)):
        e0, e1 = _d3_endpoints()
        return interp_constants(e0, e1, theta)

    def test_all_ones_is_zero(self):
        ic = self._ic()
        assert k0_index(ic, F(1, 2), 1.0, 1.0, 1.0, 1.0, 1.0) == 0.0

    def test_doubling_measure_shift(self):
        # closed-form shift of the formula between |E| and 2|E|
        th = F(1, 3)
        ic = self._ic(th)
        e0, e1 = _d3_endpoints()
        isc = (1 - th) * inv(e0.p) + th * inv(e1.p)
        is0 = inv(e0.p)
        ivc = 1 - ((1 - th) * inv(e0.r) + th * inv(e1.r))
        rv = (1 - inv(e0.r)) / ivc
        expected = float((isc - is0) / (1 - rv))
        base = k0_index(ic, th, 1.5, 2.5, 1.2, 1.0, 0.7)
        doubled = k0_index(ic, th, 1.5, 2.5, 1.2, 2.0, 0.7)
        assert doubled - base == pytest.approx(expected, rel=1e-12)

    def test_degenerate_ratio_error(self):
        # at theta=0 the interpolated v' collapses onto v0'
        ic = self._ic(F(1, 2))
        with pytest.raises(ValueError):
            k0_index(ic, 0, 1.0, 2.0, 1.0, 1.0, 1.0)

    def test_nonpositive_magnitude_error(self):
        ic = self._ic()
        with pytest.raises(ValueError):
            k0_index(ic, F(1, 2), 0.0, 1.0, 1.0, 1.0, 1.0)


class TestBalanceRatio:
    def test_critical_theta_unit(self):
        # mixedNormF = |F|^{1/q0'} makes numerator and denominator agree
        val = balance_ratio(3, theta_zero(3), 2.0, 3.0 ** 0.5, 3.0)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_all_ones(self):
        assert balance_ratio(3, F(1, 2), 1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_measure_two_at_critical(self):
        assert balance_ratio(3, F(5, 6), 2.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            balance_ratio(3, F(1, 2), 0.0, 1.0, 1.0)


class TestTripleValidation:
    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ExponentTriple(1.5, 2, 2)

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            ExponentTriple(F(1, 2), 2, 2)

    def test_iterates_in_order(self):
        t = ExponentTriple(F(3, 2), 2, 2)
        assert tuple(t) == (F(3, 2), F(2), F(2))


# values the exact rule (exponents._check_rational) refuses with ValueError
NON_RATIONALS = [pytest.param(True, id="bool"),
                 pytest.param(np.True_, id="numpy-bool"),
                 pytest.param("1/2", id="str"), pytest.param(None, id="none")]


def _endpoints():
    return triple_for_theta(3, F(1, 3)), triple_for_theta(3, F(2, 3))


class TestExactRule:
    """exponents._check_rational is the one exact exponent rule: INF
    passes, ints and Fractions become Fractions, a float raises TypeError
    and any other value ValueError naming the parameter."""

    SITES = {
        "ExponentTriple.p": ("p", lambda e: ExponentTriple(e, 2, 2)),
        "ExponentTriple.q": ("q", lambda e: ExponentTriple(2, e, 2)),
        "ExponentTriple.r": ("r", lambda e: ExponentTriple(2, 2, e)),
        "as_exponent": ("exponent", as_exponent),
        "triple_for_theta": ("theta", lambda e: triple_for_theta(3, e)),
        "interpolated_triple": (
            "theta", lambda e: interpolated_triple(*_endpoints(), e)),
        "interp_constants": (
            "theta", lambda e: interp_constants(*_endpoints(), e)),
        "k0_index": ("theta", lambda e: k0_index(
            interp_constants(*_endpoints(), F(1, 2)), e, 1, 2, 3, 4, 5)),
        "balance_ratio": ("theta",
                          lambda e: balance_ratio(3, e, 1.0, 1.0, 1.0)),
        "conj_exponent": ("exponent", conj_exponent),
        "inv": ("exponent", inv),
    }

    @pytest.mark.parametrize("value", NON_RATIONALS)
    @pytest.mark.parametrize("site", SITES)
    def test_site_rejects(self, site, value):
        name, call = self.SITES[site]
        with pytest.raises(ValueError,
                           match=rf"^{name} must be an exact rational or inf"):
            call(value)

    @pytest.mark.parametrize("value", [0.5, np.float64(0.5), np.float32(0.5)],
                             ids=["float", "numpy-float64", "numpy-float32"])
    @pytest.mark.parametrize("site", SITES)
    def test_site_keeps_the_float_type_error(self, site, value):
        with pytest.raises(TypeError, match="must be an exact rational"):
            self.SITES[site][1](value)

    @pytest.mark.parametrize("kind", [int, np.int64, F])
    def test_integers_and_fractions_become_fractions(self, kind):
        assert type(as_exponent(kind(2))) is F and as_exponent(kind(2)) == 2
        assert conj_exponent(kind(2)) == 2
        assert type(conj_exponent(kind(2))) is F
        assert inv(kind(2)) == F(1, 2) and type(inv(kind(2))) is F
        assert conj_exponent(kind(1)) is INF
        t = ExponentTriple(kind(2), kind(3), kind(4))
        assert all(type(e) is F for e in t)
        assert triple_for_theta(3, kind(1)) == triple_for_theta(3, F(1))

    def test_infinity_passes(self):
        assert as_exponent(INF) is INF
        assert conj_exponent(INF) == 1 and inv(INF) == 0
        assert ExponentTriple(2, INF, 2).q is INF
