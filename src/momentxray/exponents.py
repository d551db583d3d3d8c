"""Exact rational arithmetic for the exponent line of the restricted X-ray bound.

The operator norm is studied on a one-parameter family of exponent triples
(p, q, r) indexed by theta in [0, 1).  Everything in this module is exact:
exponents are ``fractions.Fraction`` values, and q = infinity is the
distinguished sentinel :data:`INF`, never a large number.  This exact API
alone rejects floats on input; callers quantize theta to a rational first.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union


class Infinity:
    """Sentinel for an infinite exponent.  Compares above every rational."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, Infinity) or other == math.inf

    def __hash__(self):
        return hash(math.inf)

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return self == other

    def __gt__(self, other):
        return not isinstance(other, Infinity) and other != math.inf

    def __ge__(self, other):
        return True

    def __float__(self):
        return math.inf


INF = Infinity()

Exponent = Union[Fraction, Infinity]


def _check_rational(value, name):
    """The one exact exponent rule: INF passes, ints and Fractions become
    Fractions; a float raises TypeError and any other value ValueError."""
    if isinstance(value, Infinity):
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(
            f"{name} must be an exact rational or inf, got {value!r}")
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"{name} must be an exact rational, got float {value!r}")
    return Fraction(value)


def as_exponent(value) -> Exponent:
    """Coerce ``value`` to a Fraction exponent (or pass INF through)."""
    return _check_rational(value, "exponent")


def as_float(e) -> float:
    """An exponent as a float: INF becomes math.inf, floats pass through and
    anything else is float(Fraction(e)).  1/as_float(INF) is 0."""
    if isinstance(e, Infinity):
        return math.inf
    return float(e) if isinstance(e, float) else float(Fraction(e))


def inv(e: Exponent) -> Fraction:
    """Reciprocal with the convention 1/inf = 0."""
    e = _check_rational(e, "exponent")
    if isinstance(e, Infinity):
        return Fraction(0)
    return 1 / e


def conj_exponent(e: Exponent) -> Exponent:
    """Hoelder conjugate e' with e' = e/(e-1), 1' = inf, inf' = 1."""
    e = _check_rational(e, "exponent")
    if isinstance(e, Infinity):
        return Fraction(1)
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if e == 1:
        return INF
    return e / (e - 1)


@dataclass(frozen=True)
class ExponentTriple:
    """The tuple (p, q, r): p on the source side, (q, r) the mixed target pair."""

    p: Exponent
    q: Exponent
    r: Exponent

    def __post_init__(self):
        for name in ("p", "q", "r"):
            e = _check_rational(getattr(self, name), name)
            if not isinstance(e, Infinity) and e < 1:
                raise ValueError(f"{name} must be >= 1 or inf, got {e}")
            object.__setattr__(self, name, e)

    def __iter__(self):
        return iter((self.p, self.q, self.r))

    def __repr__(self):
        return f"ExponentTriple(p={self.p}, q={self.q}, r={self.r})"


def theta_zero(d: int) -> Fraction:
    """The parameter at which the inner and outer target exponents coincide.

    Returns (d^2 + d - 2)/(d^2 + d) exactly.
    """
    from .field import _D_MIN, _integer  # field imports this module

    d = _integer(d, "d", _D_MIN)
    return Fraction(d * d + d - 2, d * d + d)


def triple_for_theta(d: int, theta) -> ExponentTriple:
    """Exact exponent triple at parameter theta in [0, 1].

    1/p = 1 - theta + theta*d/(d+2)
    1/q = theta*d/(d+2)            (q = inf iff theta = 0)
    1/r = 1 - theta + theta*(d^2-d-2)/(d^2+d-2)
    """
    from .field import _D_MIN, _integer  # field imports this module

    d = _integer(d, "d", _D_MIN)
    theta = _check_rational(theta, "theta")
    if isinstance(theta, Infinity) or not 0 <= theta <= 1:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    ip = 1 - theta + theta * Fraction(d, d + 2)
    iq = theta * Fraction(d, d + 2)
    ir = 1 - theta + theta * Fraction(d * d - d - 2, d * d + d - 2)
    q = INF if iq == 0 else 1 / iq
    return ExponentTriple(p=1 / ip, q=q, r=1 / ir)


def conjugate(t: ExponentTriple) -> ExponentTriple:
    """Hoelder-conjugate triple (p', q', r')."""
    return ExponentTriple(
        p=conj_exponent(t.p), q=conj_exponent(t.q), r=conj_exponent(t.r)
    )


@dataclass(frozen=True)
class InterpConstants:
    """Interpolation constants between two restricted-type endpoints.

    With endpoints (s_j, u_j, v_j), j = 0, 1, and interpolation weight theta,
    the constants below are the exponents that govern how the size of a
    single dyadic piece of the target function is pinned down:

        a_j = 1 / (v_j' (1/v_0' - 1/v_1'))
        b   = u' (1/(v_0' u_1') - 1/(u_0' v_1')) / (1/v_1' - 1/v_0')
        c_j = (1/s_0 - 1/s_1) / (v_j' (1/v_1' - 1/v_0'))
        d_j = 1/u_j' - (1/u_1' - 1/u_0') / (v_j' (1/v_1' - 1/v_0'))

    a_j, c_j, d_j depend on the endpoints only; b also needs the conjugate
    u' = u_theta' of the interpolated middle exponent, which is why theta is
    part of the constructor.  The endpoints and theta are retained so that
    :func:`k0_index` can evaluate the interpolated exponents consistently.
    """

    a0: Fraction
    a1: Fraction
    b: Fraction
    c0: Fraction
    c1: Fraction
    d0: Fraction
    d1: Fraction
    endpoint0: ExponentTriple
    endpoint1: ExponentTriple
    theta: Fraction


def _interp_inv(e0: Exponent, e1: Exponent, theta: Fraction) -> Fraction:
    return (1 - theta) * inv(e0) + theta * inv(e1)


def interpolated_triple(
    endpoint0: ExponentTriple, endpoint1: ExponentTriple, theta
) -> ExponentTriple:
    """Triple whose reciprocals are the convex combination of the endpoints'."""
    theta = _check_rational(theta, "theta")
    out = []
    for e0, e1 in zip(endpoint0, endpoint1):
        ie = _interp_inv(e0, e1, theta)
        out.append(INF if ie == 0 else 1 / ie)
    return ExponentTriple(*out)


def interp_constants(
    endpoint0: ExponentTriple, endpoint1: ExponentTriple, theta
) -> InterpConstants:
    """Exact interpolation constants for the given endpoints and weight."""
    theta = _check_rational(theta, "theta")
    if isinstance(theta, Infinity) or not 0 < theta < 1:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    s0, u0, v0 = endpoint0
    s1, u1, v1 = endpoint1
    for e in (s0, u0, v0, s1, u1, v1):
        if isinstance(e, Infinity) or e <= 1:
            raise ValueError("endpoint exponents must be finite and > 1")
    iv0c = 1 - inv(v0)  # 1/v_0'
    iv1c = 1 - inv(v1)
    iu0c = 1 - inv(u0)
    iu1c = 1 - inv(u1)
    if iv0c == iv1c:
        raise ValueError("degenerate endpoints: conjugate inner exponents coincide")
    # u' at the interpolated middle exponent
    iuc = 1 - _interp_inv(u0, u1, theta)  # 1/u_theta'
    if iuc == 0:
        raise ValueError("interpolated u' is infinite; b is undefined")
    uc = 1 / iuc
    dv = iv0c - iv1c
    a0 = 1 / ((1 / iv0c) * dv)
    a1 = 1 / ((1 / iv1c) * dv)
    b = uc * (iv0c * iu1c - iu0c * iv1c) / (-dv)
    c0 = (inv(s0) - inv(s1)) / ((1 / iv0c) * (-dv))
    c1 = (inv(s0) - inv(s1)) / ((1 / iv1c) * (-dv))
    d0 = iu0c - (iu1c - iu0c) / ((1 / iv0c) * (-dv))
    d1 = iu1c - (iu1c - iu0c) / ((1 / iv1c) * (-dv))
    return InterpConstants(
        a0=a0, a1=a1, b=b, c0=c0, c1=c1, d0=d0, d1=d1,
        endpoint0=endpoint0, endpoint1=endpoint1, theta=theta,
    )


def k0_index(ic: InterpConstants, theta, C0, C1, A, E_measure, g_norm) -> float:
    """Center index of the dominant dyadic block of the target function.

    Evaluates, with base-2 logarithms,

        k0 = [theta*Log(C1/C0) + (u'/u_0' - v'/v_0')*Log(A)
              + (1/s - 1/s_0)*Log(|E|) + (1 - u'/u_0')*Log(||g||)]
             / (1 - v'/v_0')

    where (s, u, v) is the interpolated triple at ``theta`` and primes are
    Hoelder conjugates.  All magnitudes must be strictly positive.
    """
    theta = _check_rational(theta, "theta")
    for name, val in (("C0", C0), ("C1", C1), ("A", A),
                      ("E_measure", E_measure), ("g_norm", g_norm)):
        if not val > 0:
            raise ValueError(f"{name} must be strictly positive, got {val}")
    s0, u0, v0 = ic.endpoint0
    s1, u1, v1 = ic.endpoint1
    isc = _interp_inv(s0, s1, theta)
    iuc = 1 - _interp_inv(u0, u1, theta)   # 1/u'
    ivc = 1 - _interp_inv(v0, v1, theta)   # 1/v'
    iu0c = 1 - inv(u0)
    iv0c = 1 - inv(v0)
    is0 = inv(s0)
    # ratios u'/u_0' = (1/u_0')/(1/u'), etc.
    if iuc == 0 or ivc == 0:
        raise ValueError("interpolated conjugate exponent is infinite")
    ru = iu0c / iuc
    rv = iv0c / ivc
    if rv == 1:
        raise ValueError("v' equals v_0'; k0 is undefined")
    bracket = (
        float(theta) * math.log2(C1 / C0)
        + float(ru - rv) * math.log2(A)
        + float(isc - is0) * math.log2(E_measure)
        + float(1 - ru) * math.log2(g_norm)
    )
    return bracket / float(1 - rv)


def balance_ratio(d: int, theta, E_measure, mixed_norm_F, F_measure) -> float:
    """Ratio comparing a pair's size at theta_0 against its size at theta.

    Returns |E|^{1/p_{theta0}} |F|^{1/q'_{theta0}} / (|E|^{1/p_theta} * mixedNormF).
    """
    theta = _check_rational(theta, "theta")
    for name, val in (("E_measure", E_measure), ("mixed_norm_F", mixed_norm_F),
                      ("F_measure", F_measure)):
        if not val > 0:
            raise ValueError(f"{name} must be strictly positive, got {val}")
    t0 = theta_zero(d)
    top = triple_for_theta(d, t0)
    cur = triple_for_theta(d, theta)
    iq0c = 1 - inv(top.q)  # 1/q'_{theta0}
    num = E_measure ** float(inv(top.p)) * F_measure ** float(iq0c)
    den = E_measure ** float(inv(cur.p)) * mixed_norm_F
    return num / den
