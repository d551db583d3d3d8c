"""Paraballs: sheared anisotropic boxes adapted to the moment curve.

A paraball B(s0, t0, ybar, alpha, beta) is the image of the unit box under
the symmetry Scale(alpha, beta) then Shear(s0, t0) then Translate(ybar).
Every composition of generators has this normal form, read off from the
group action on the origin.  Its primal shadow lives on the source side and
its dual shadow B* on the target side; both are described by band
inequalities below.  The module also provides delta-partitions into
congruent small paraballs (the members are the base paraball's images of
the unit-frame net centres), the mock distance between paraballs, Monte
Carlo intersection volume, the quasi-extremal ratio, and a fitter that
localizes a near-extremal pair.

The hot paths avoid repeated work without changing a byte of output.  The
greedy nets behind a partition depend only on (d, eta1, eta2), so a process
builds each triple once and keeps the last _NET_CACHE_SIZE of them, read-only
(see _nets).  intersection_volume's Monte Carlo draws, and which of them lie
in the smaller ball, depend only on (smaller ball, n, seed), so a process
keeps one such sample as one read-only array, and a call against the same
ball makes one membership call of the larger one on it (see _box_sample;
one entry of at most n d 8 bytes).  Each derived term is built once per
owner: a Paraball keeps its band terms gamma(t0), (-t0)^k, alpha beta^m and
G_{-t0} (see Paraball._terms), which membership and mock_distance read;
Cover.contains builds the terms its blocks share once per call, the
unit-frame map's step terms included (see symmetry._point_map); partition
evaluates gamma once per t-net point.  Band tests take one band column at a
time, with the same float operations in the same order as the stacked form
(see _band_columns).  Point queries (membership, Cover.contains,
intersection_volume) run in field._blocks, and rasters over
field._node_blocks, one coordinate column at a time: the unit-frame maps
return contiguous coordinates (see symmetry's column rule), and
_band_columns' v = x - ybar - s gamma(t0), the lattice index of _Net.query
and intersection_volume's box scaling are built per coordinate.  Each
element gets the float operations of the per-point form, so the outputs are
those of the row layout to the byte.  gamma's first component is t itself,
which is exact because numpy's array power is exact at exponent 1; its
higher components keep numpy's array power through an exponent array,
because with a scalar exponent numpy squares for m = 2 and differs in the
last bit (see field.gamma_eval).
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exponents import _finite_q_triple, conj_exponent, inv
from .field import (Grid, SampledField, _blocks, _field, _integer, _lattice,
                    _node_blocks, _owned, _real, gamma_eval, lp_norm,
                    mixed_norm)
from .symmetry import (Scale, Shear, Symmetry, Translate, _pack, _point_map,
                       _scale_diagonal, _scale_jacobians, inverse, map_source,
                       map_target, shear_matrix)
from .xray import TransformPlan, bilinear

# net triples kept by _nets.  One triple takes 0.6 MB at d = 3, delta = 1/8
# and 23 MB at d = 4, delta = 1/4; under the 4M-candidate cap a net's
# nearest-index table alone can reach 32 MB, so the bound is a fixed constant
_NET_CACHE_SIZE = 4


class _BallTerms(NamedTuple):
    """A paraball's band terms, read-only (see Paraball._terms)."""

    ybar: np.ndarray    # the centre's y, as an array
    gamma: np.ndarray   # gamma(t0)
    powers: tuple       # (-t0)^k, k < d - 1
    bands: np.ndarray   # alpha beta^m, m = 1..d-1
    shear: np.ndarray   # G_{-t0}


@dataclass(frozen=True)
class Paraball:
    """B(s0, t0, ybar, alpha, beta); every parameter follows the real-number
    rule (field._real), and the widths alpha, beta are > 0.

    The band terms that membership (and so intersection_volume and the
    rasters) and mock_distance read are built once per instance, on first
    use, and kept on it (see _terms).
    """

    s0: float
    t0: float
    ybar: tuple
    alpha: float
    beta: float

    def __post_init__(self):
        for name, low in (("s0", None), ("t0", None), ("alpha", 0),
                          ("beta", 0)):
            value = _real(getattr(self, name), name, low)
            object.__setattr__(self, name, value)
        ybar = np.atleast_1d(np.asarray(self.ybar, object))
        object.__setattr__(self, "ybar", tuple(_real(c, "ybar") for c in ybar))
        if len(self.ybar) < 2:
            raise ValueError("ybar must have at least 2 components (d >= 3)")

    @property
    def d(self) -> int:
        return len(self.ybar) + 1

    @functools.cached_property
    def _terms(self) -> _BallTerms:
        """ybar as an array, gamma(t0), the powers (-t0)^k for k < d - 1,
        the bands alpha beta^m and G_{-t0}, built on first use and kept.

        As TransformPlan keeps its schedules: they are not fields, so ==,
        hash and repr ignore them, and each of two -0.0 twins keeps the
        terms of its own bits.  The arrays are read-only.  A gamma(t0) or a
        band past the float range is inf without a warning, as in
        mock_distance; a power (-t0)^k or an entry of G_{-t0} past it
        raises OverflowError.
        """
        d = self.d
        ybar = np.asarray(self.ybar)
        with np.errstate(over="ignore"):
            gamma, powers = _centre_terms(self.t0, d, "primal")
        bands = _scale_diagonal(self.alpha, self.beta, d)
        for arr in (ybar, gamma, bands):
            arr.flags.writeable = False
        return _BallTerms(ybar, gamma, powers, bands,
                          shear_matrix(d, -self.t0).entries)


def unit_paraball(d: int) -> Paraball:
    return Paraball(0.0, 0.0, (0.0,) * (d - 1), 1.0, 1.0)


def _pack_points(point, d: int) -> np.ndarray:
    pts = _pack(point)
    if pts.shape[-1] != d:
        raise ValueError(f"points must have last axis {d}, got {pts.shape}")
    return pts


def _check_side(side: str) -> None:
    if side not in ("primal", "dual"):
        raise ValueError(f"side must be 'primal' or 'dual', got {side!r}")


def _centre_terms(t0, d: int, side: str):
    """The band test's terms that depend on t0 alone: gamma(t0) on the
    primal side (None on the dual side) and the powers (-t0)^k, k < d - 1.
    A paraball keeps its own (Paraball._terms); Cover.contains builds those
    of its primal lookup and of its miss scan once per call."""
    neg = -t0
    return (gamma_eval(d, t0) if side == "primal" else None,
            tuple(neg ** k for k in range(d - 1)))


def _band_columns(lead, rest, s0, t0, ybar, side: str, terms=None):
    """Slab offset and the list of d - 1 band columns.

    Primal points (s, x) give s - s0 and Q = G_{-t0}(x - ybar - s gamma(t0));
    dual points (t, y) give t - t0 and P_m = [G_{-t0}(y - ybar)]_m
    + s0 (t - t0)^m.  The centre is scalars or per-point arrays, so G_{-t0}
    is applied as its binomial sum rather than as a matrix.  Each power of
    -t0 is taken once, and each sum starts at its first term and adds the
    others in order, so the float operations are those of the plain sum
    (only the sign of an exact zero can differ from a sum started at 0).
    v = x - ybar (- s gamma(t0)) is built one coordinate column at a time,
    each element with the operations of the stacked form.
    ``terms`` is _centre_terms(t0, d, side), when the caller has it.
    """
    _check_side(side)
    d = np.shape(rest)[-1] + 1
    g, powers = _centre_terms(t0, d, side) if terms is None else terms
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


def _inside(lead, rest, s0, t0, ybar, alpha, beta, side: str, terms=None,
            bands=None):
    """Strict slab condition on the lead coordinate, closed band conditions.

    The band conditions are ANDed in one column at a time.  A dual point
    outside the slab is outside whatever its bands say, so its band columns
    are taken at the slab centre t0: its term s0 (t - t0)^m would overflow
    once |t - t0| passes about 1e154 (1e102 at d = 4).  ``terms`` is as in
    _band_columns, and ``bands`` is _scale_diagonal(alpha, beta, d), when
    the caller has them.
    """
    centre, width = (s0, alpha) if side == "primal" else (t0, beta)
    ok = np.abs(lead - centre) < width
    if side == "dual":
        lead = np.where(ok, lead, t0)
    _, cols = _band_columns(lead, rest, s0, t0, ybar, side, terms)
    if bands is None:
        bands = _scale_diagonal(alpha, beta, len(cols) + 1)
    for col, band in zip(cols, bands):
        ok &= np.abs(col) <= band
    return ok


def membership(B: Paraball, point, side: str = "primal"):
    """Whether primal points (s, x) or dual points (t, y) lie in B's shadow.

    The slab condition on the first coordinate is strict and the band
    conditions (see _band_columns) are closed.  A single point gives a bool,
    points of shape S + (d,) an array of shape S, tested in _blocks.  Every
    block reads B's kept band terms (Paraball._terms), built once per ball.
    """
    _check_side(side)
    z = _pack_points(point, B.d)
    flat = z.reshape(-1, B.d)
    kept = B._terms
    ok = np.empty(len(flat), dtype=bool)
    for blk in _blocks(len(flat)):
        zb = flat[blk]
        ok[blk] = _inside(zb[:, 0], zb[:, 1:], B.s0, B.t0, kept.ybar, B.alpha,
                          B.beta, side, (kept.gamma, kept.powers), kept.bands)
    return bool(ok[0]) if z.ndim == 1 else ok.reshape(z.shape[:-1])


def volume(B: Paraball) -> float:
    return 2.0 ** B.d * _scale_jacobians(B.alpha, B.beta, B.d)[0]


def dual_mixed_norm(B: Paraball, theta) -> float:
    """Mixed norm of the dual indicator chi_{B*} at the theta exponents."""
    d = B.d
    trip = _finite_q_triple(d, theta, "dual_mixed_norm")
    iqc = float(1 - inv(trip.q))
    irc = float(1 - inv(trip.r))
    slab = 2.0 * B.beta
    section = 2.0 ** (d - 1) * _scale_jacobians(B.alpha, B.beta, d)[1]
    return slab ** iqc * section ** irc


def scale(B: Paraball, lam: float) -> Paraball:
    lam = _real(lam, "lam", 0)
    return Paraball(B.s0, B.t0, B.ybar, lam * B.alpha, lam * B.beta)


def to_symmetry(B: Paraball) -> Symmetry:
    """Normal form: Scale, then Shear, then Translate maps the unit box onto B."""
    return Symmetry((Scale(B.alpha, B.beta), Shear(B.s0, B.t0),
                     Translate(B.ybar)))


def from_symmetry(sigma: Symmetry, d: int | None = None) -> Paraball:
    """Paraball whose unit-box map equals sigma.

    The normal form is read off the group action: (s0, x) and (t0, ybar)
    are the images of the origin and alpha, beta multiply sigma's scales.
    """
    if d is None:
        for st in sigma.steps:
            if isinstance(st, Translate):
                d = len(st.v) + 1
                break
        else:
            raise ValueError("cannot infer dimension; pass d explicitly")
    origin = np.zeros(d)
    target = map_target(sigma, origin)
    scales = [st for st in sigma.steps if isinstance(st, Scale)]
    return Paraball(map_source(sigma, origin)[0], target[0], target[1:],
                    math.prod(st.alpha for st in scales),
                    math.prod(st.beta for st in scales))


def conjugate(sigma: Symmetry, B: Paraball) -> Paraball:
    """The paraball sigma(B): image of B under the symmetry."""
    return from_symmetry(Symmetry(to_symmetry(B).steps + sigma.steps), d=B.d)


def primal_corners(B: Paraball) -> np.ndarray:
    """Vertices of the primal paraball (it is a parallelepiped)."""
    unit = _lattice([(-1.0, 1.0)] * B.d).reshape(-1, B.d)
    return map_source(to_symmetry(B), unit)


def primal_bbox(B: Paraball):
    c = primal_corners(B)
    return c.min(axis=0), c.max(axis=0)


def dual_bbox(B: Paraball):
    """Axis-aligned box containing the dual shadow (interval arithmetic)."""
    d = B.d
    lo = np.empty(d)
    hi = np.empty(d)
    lo[0], hi[0] = B.t0 - B.beta, B.t0 + B.beta
    c = _scale_diagonal(B.alpha + abs(B.s0), B.beta, d)
    Gabs = np.abs(shear_matrix(d, B.t0).entries)
    if np.isfinite(c).all():
        spread = Gabs @ c
    else:
        # a band past the float range spreads its rows to +inf; the zeros
        # of the triangular G are left out, as 0 * inf would give NaN
        spread = np.array([sum(g * ci for g, ci in zip(row, c) if g)
                           for row in Gabs])
    yb = np.asarray(B.ybar)
    lo[1:], hi[1:] = yb - spread, yb + spread
    return lo, hi


def sample_points(B: Paraball, n: int, rng, side: str = "primal") -> np.ndarray:
    """n points uniform on the primal or dual shadow (unit-box push-forward)."""
    _check_side(side)
    u = rng.uniform(-1.0, 1.0, size=(_integer(n, "n", 0), B.d))
    sig = to_symmetry(B)
    return map_source(sig, u) if side == "primal" else map_target(sig, u)


def _node_membership(B: Paraball, grid: Grid, side: str,
                     dtype=bool) -> np.ndarray:
    """membership of grid's nodes, shape grid.shape, in _node_blocks, as
    bools or, for a raster, as the floats 0 and 1."""
    ok = np.empty(grid.shape, dtype=dtype)
    flat = ok.reshape(-1)
    for blk, nodes in _node_blocks(grid):
        flat[blk] = membership(B, nodes, side)
    return ok


def raster_primal(B: Paraball, grid: Grid) -> SampledField:
    if grid.side != "source":
        raise ValueError("primal raster needs a source grid")
    return _owned(grid, _node_membership(B, grid, "primal", float))


def raster_dual(B: Paraball, grid: Grid) -> SampledField:
    if grid.side != "target":
        raise ValueError("dual raster needs a target grid")
    return _owned(grid, _node_membership(B, grid, "dual", float))


# ---------------------------------------------------------------------------
# delta-partitions


class _Net:
    """Greedy farthest-point net over a candidate lattice on [-1, 1]^k.

    Gonzalez's greedy (1985): start at the origin, then repeatedly add the
    candidate farthest from the net until every candidate lies within sep.
    np.argmax breaks ties by the first candidate in C order, which fixes
    the order of the net points.  Window invariant: when c is added at the
    current maximum distance r, a candidate's distance drops (newd < dist
    <= r) only if it lies within r of c, hence within r M lattice steps of
    c on every axis.  So each step updates only the lattice window of
    half-width ceil(r M) + 1 about c (the + 1 absorbs rounding), and the
    distances, net points and nearest indices are bit-identical to a
    full-lattice update.

    Also records, per lattice candidate, the index of its (near-) nearest
    net point, so nearest-net queries are O(1) lattice lookups.  points and
    _nearest are read-only, because partition shares one net between every
    cover built at the same scale (see _nets).
    """

    def __init__(self, k: int, sep: float):
        M = max(1, math.ceil(4.0 / sep))
        n = 2 * M + 1
        if n ** k > 4_000_000:
            raise ValueError("separation too small for the candidate lattice")
        axis = np.linspace(-1.0, 1.0, n)
        cand = _lattice([axis] * k)
        flat = cand.reshape(-1, k)
        zero = (flat.shape[0] - 1) // 2
        chosen = [zero]
        dist = np.linalg.norm(cand - flat[zero], axis=-1)
        nearest = np.zeros(dist.shape, dtype=np.int64)
        while True:
            i = int(np.argmax(dist))
            r = dist.flat[i]
            if r < sep:
                break
            w = math.ceil(r * M) + 1
            win = tuple(slice(max(c - w, 0), c + w + 1)
                        for c in np.unravel_index(i, dist.shape))
            newd = np.linalg.norm(cand[win] - flat[i], axis=-1)
            closer = newd < dist[win]
            nearest[win][closer] = len(chosen)
            dist[win][closer] = newd[closer]
            chosen.append(i)
        self.k = k
        self.M = M
        self.points = flat[chosen]
        self._nearest = nearest.reshape(-1)
        self.points.flags.writeable = False
        self._nearest.flags.writeable = False

    def query(self, pts: np.ndarray) -> np.ndarray:
        """Index of a net point within ~1.2 separations of each query point.

        The lattice index is built one coordinate column at a time.
        """
        q = np.asarray(pts, float)
        if self.k == 1 and q.ndim == 1:
            q = q[:, None]
        flat = np.zeros(q.shape[0], dtype=np.int64)
        for a in range(self.k):
            col = np.rint((np.minimum(np.maximum(q[:, a], -1.0), 1.0) + 1.0)
                          * self.M)
            idx = np.minimum(np.maximum(col.astype(np.int64), 0), 2 * self.M)
            flat = flat * (2 * self.M + 1) + idx
        return self._nearest[flat]


@functools.lru_cache(maxsize=_NET_CACHE_SIZE)
def _nets(d: int, eta1: float, eta2: float):
    """The (s, t, y) nets of a delta-partition at widths (eta1, eta2) in R^d.

    Cached per process: the nets depend only on (d, eta1, eta2), which
    (d, delta, theta) fix, so partitions of many paraballs at one scale
    share one set of read-only nets.  The key is (d, eta1, eta2) and at
    most _NET_CACHE_SIZE triples are kept, the least recently used leaving
    first.
    """
    return _Net(1, eta1), _Net(1, eta2), _Net(d - 1, eta1 * eta2 ** d)


class _Members(Sequence):
    """Read-only sequence of congruent paraballs stored as columns.

    s0, t0 and ybar hold one row per member; alpha and beta are shared.
    Item n is Paraball(s0[n], t0[n], ybar[n], alpha, beta), built on access.
    """

    def __init__(self, s0, t0, ybar, alpha: float, beta: float):
        if not (all(np.isfinite(c).all() for c in (s0, t0, ybar, alpha, beta))
                and alpha > 0 and beta > 0):
            raise ValueError("member parameters must be finite, with "
                             "positive widths")
        for col in (s0, t0, ybar):
            col.flags.writeable = False
        self.s0, self.t0, self.ybar = s0, t0, ybar
        self.alpha, self.beta = alpha, beta

    def __len__(self) -> int:
        return len(self.s0)

    def __getitem__(self, n):
        if isinstance(n, slice):
            return _Members(self.s0[n], self.t0[n], self.ybar[n], self.alpha,
                            self.beta)
        n = operator.index(n)
        return Paraball(self.s0[n], self.t0[n], self.ybar[n], self.alpha,
                        self.beta)


@dataclass(frozen=True)
class Cover:
    """delta-partition of a paraball into congruent members.

    Members are indexed (i, j, k) over the y, s and t nets of the unit
    frame, flattened as (i * n_s + j) * n_t + k.  Member (i, j, k) is the
    base paraball's image of the unit-frame paraball centred at the net
    point (s_j, t_k, y_i) with widths (2 eta1, 2 eta2), so members live in
    the parent's coordinates.  They are stored as columns (a _Members
    sequence) and each Paraball is built when it is accessed.  s_net,
    t_net and y_net are read-only views of the net points, which every
    cover at the same (d, delta, theta) in a process shares.
    """

    base: Paraball
    delta: float
    theta: object
    eta1: float
    eta2: float
    members: _Members
    s_net: np.ndarray = dc_field(repr=False)
    t_net: np.ndarray = dc_field(repr=False)
    y_net: np.ndarray = dc_field(repr=False)
    _s_index: object = dc_field(repr=False, default=None)
    _t_index: object = dc_field(repr=False, default=None)
    _y_index: object = dc_field(repr=False, default=None)

    @property
    def counts(self):
        return {"s": len(self.s_net), "t": len(self.t_net),
                "y": len(self.y_net), "members": len(self.members)}

    def contains(self, points, side: str = "primal") -> np.ndarray:
        """Whether each point lies in the union of members (per-side shadow).

        Points of shape S + (d,) give an array of shape S; a single point
        gives an array of shape (1,).  Points run in _blocks: each block is
        mapped to the unit frame and tested against the member found by the
        lattice lookup; the points that lookup misses are then tested
        against every member.  A point that is not finite raises ValueError;
        a finite point whose unit-frame image leaves the float range lies
        outside every member and gives False.  The terms every block shares
        are built once per call: the unit-frame map's step terms (see
        symmetry._point_map), the members' bands and, on the primal side,
        the centre terms of t-net point 0, the only one the lookup takes.
        """
        _check_side(side)
        d = self.base.d
        z = _pack_points(points, d)
        shape = z.shape[:-1] if z.ndim > 1 else (1,)
        z = z.reshape(-1, d)
        unit = inverse(to_symmetry(self.base), d)
        # the map's terms, like the images below, may leave the float range
        with np.errstate(over="ignore", invalid="ignore"):
            fmap = _point_map(unit, d, side == "dual")
        a, b = 2.0 * self.eta1, 2.0 * self.eta2
        bands = _scale_diagonal(a, b, d)
        terms = (_centre_terms(self.t_net[0], d, side) if side == "primal"
                 else None)
        ok = np.zeros(len(z), dtype=bool)
        far = None  # the points whose image overflowed, once there is one
        missed = []
        for blk in _blocks(len(z)):
            # a far point's image may overflow; the images are screened
            # below, and the errstate covers the mapping alone
            with np.errstate(over="ignore", invalid="ignore"):
                u = fmap(z[blk])
            keep = slice(None)
            if not np.isfinite(u).all():
                if not np.isfinite(z[blk]).all():
                    raise ValueError("points must be finite")
                # a point whose image overflowed stays False and out of the
                # miss scan
                keep = np.isfinite(u).all(axis=1)
                if far is None:
                    far = np.zeros(len(z), dtype=bool)
                far[blk] = ~keep
                u = u[keep]
            lead, rest = u[:, 0], u[:, 1:]
            i = self._y_index.query(rest)
            j = self._s_index.query(lead) if side == "primal" else 0
            k = 0 if side == "primal" else self._t_index.query(lead)
            hit = _inside(lead, rest, self.s_net[j], self.t_net[k],
                          self.y_net[i], a, b, side, terms, bands)
            ok[blk][keep] = hit
            if not hit.all():
                missed.append(u[~hit])
        # points the lattice lookup misses: test against every member, whose
        # centres and t-terms are built once per call
        if missed:
            S, T, Y = _member_centres(self.s_net, self.t_net, self.y_net)
            terms = _centre_terms(T, d, side)
            scan = ~ok if far is None else ~(ok | far)
            ok[scan] = [_inside(p[0], p[1:], S, T, Y, a, b, side, terms,
                               bands).any()
                       for p in np.concatenate(missed)]
        return ok.reshape(shape)


def _member_centres(s, t, y):
    """Unit-frame centre columns (s_j, t_k, y_i) of the members, in order."""
    i, j, k = np.indices((len(y), len(s), len(t))).reshape(3, -1)
    return s[j], t[k], y[i]


def partition(B: Paraball, delta: float, theta) -> Cover:
    """Split B into congruent paraballs of relative volume 4^d delta at d=3.

    eta2 = delta^{(1/r + 1/(r'd)) / (1/q' + (d-1)/(2r'))} and
    eta1 = delta^{1/d} eta2^{-(d-1)/2}; members have widths (2 eta1, 2 eta2)
    in the unit frame, centred at the net points, and are mapped back by
    to_symmetry(B).

    The nets come from _nets, cached per process by (d, eta1, eta2) with at
    most _NET_CACHE_SIZE triples kept.  Only a process that partitions at
    the same (d, delta, theta) more than once gains from the cache; a
    one-shot ``momentxray partition`` run still builds its nets once.
    gamma is evaluated once per t-net point and repeated over the members,
    whose index runs fastest over k: numpy's power works per element, so
    each member gets the floats of gamma_eval at its own t_k.
    """
    delta = _real(delta, "delta", 0)
    if delta > 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta!r}")
    d = B.d
    trip = _finite_q_triple(d, theta, "partition")
    ir = inv(trip.r)
    irc = 1 - ir
    iqc = 1 - inv(trip.q)
    expo = (ir + irc / d) / (iqc + Fraction(d - 1, 2) * irc)
    eta2 = delta ** float(expo)
    eta1 = delta ** (1.0 / d) * eta2 ** (-(d - 1) / 2.0)

    s_net, t_net, y_net = _nets(d, eta1, eta2)
    s, t, y = s_net.points[:, 0], t_net.points[:, 0], y_net.points
    S, T, Y = _member_centres(s, t, y)
    # the unit-frame member centred at (s_j, t_k, y_i) maps the origin to
    # (s_j, y_i + s_j gamma(t_k)) and (t_k, y_i); its image under B's
    # symmetry reads off the member's normal form as in from_symmetry
    sigma = to_symmetry(B)
    g = gamma_eval(d, t)
    reps = len(T) // len(t)
    src = map_source(sigma, np.column_stack(
        [S] + [Y[:, m] + S * np.tile(g[:, m], reps) for m in range(d - 1)]))
    tgt = map_target(sigma, np.column_stack([T, Y]))
    members = _Members(src[:, 0], tgt[:, 0], tgt[:, 1:],
                       2 * eta1 * B.alpha, 2 * eta2 * B.beta)
    return Cover(base=B, delta=delta, theta=theta, eta1=eta1, eta2=eta2,
                 members=members, s_net=s, t_net=t, y_net=y,
                 _s_index=s_net, _t_index=t_net, _y_index=y_net)


# ---------------------------------------------------------------------------
# mock distance and intersections


def mock_distance(Ba: Paraball, Bb: Paraball) -> float:
    """Nine-term quasi-distance; equals 5 when the paraballs coincide.

    Coinciding paraballs give 5 before any term is formed.  Otherwise a
    term past the float range makes it +inf, in either argument order and
    without a warning: a far t0, or a volume that underflows to 0.
    """
    if Ba.d != Bb.d:
        raise ValueError("paraballs must share a dimension")
    if Ba == Bb:
        return 5.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            total = _mock_terms(Ba, Bb, Ba.d)
    except (OverflowError, ZeroDivisionError):  # Python float ops
        return math.inf
    # every term is >= 0, so a NaN comes from an overflowed one
    return math.inf if math.isnan(total) else total


def _mock_terms(Ba: Paraball, Bb: Paraball, d: int) -> float:
    """mock_distance's nine terms, summed; the caller handles overflow.
    Each ball's gamma(t0), G_{-t0}, powers of -t0 and bands are its kept
    terms (Paraball._terms)."""
    Va = _scale_jacobians(Ba.alpha, Ba.beta, d)[1]
    Vb = _scale_jacobians(Bb.alpha, Bb.beta, d)[1]
    total = max(Va, Vb) / min(Va, Vb)
    total += Ba.alpha / Bb.alpha + Bb.alpha / Ba.alpha
    total += Ba.beta / Bb.beta + Bb.beta / Ba.beta
    total += abs(Ba.s0 - Bb.s0) * (1.0 / Ba.alpha + 1.0 / Bb.alpha)
    total += abs(Ba.t0 - Bb.t0) * (1.0 / Ba.beta + 1.0 / Bb.beta)

    def primal_offset(A, Bo):
        # grouped as differences so coincident paraballs give exactly zero
        a, o = A._terms, Bo._terms
        v = o.ybar - a.ybar + Bo.s0 * (o.gamma - a.gamma)
        return float(np.sum(np.abs(a.shear @ v) / a.bands))

    def dual_offset(A, Bo):
        # band coordinates of Bo's dual centre (t0, ybar) in A's dual frame
        a = A._terms
        _, cols = _band_columns(Bo.t0, Bo._terms.ybar, A.s0, A.t0, a.ybar,
                                "dual", (None, a.powers))
        return float(np.sum(np.abs(cols) / a.bands))

    # mirrored offsets are paired before accumulating so the sum is exactly
    # symmetric under swapping the arguments
    total += primal_offset(Ba, Bb) + primal_offset(Bb, Ba)
    total += dual_offset(Ba, Bb) + dual_offset(Bb, Ba)
    return float(total)


@functools.lru_cache(maxsize=1)
def _box_sample(small: Paraball, n: int, seed: int):
    """Box volume and the draws of small's primal bounding box inside small.

    The n draws come in _blocks from one generator, so the sample stream is
    that of one full draw, and are scaled onto the box one coordinate column
    at a time.  The points inside small are kept as one read-only (N, d)
    array, in draw order, built here once per key.  Cached per process with
    one entry, keyed on (small, n, seed): the entry holds at most n d 8
    bytes of points (2.4 MB at n = 100 000, d = 3).
    """
    lo, hi = primal_bbox(small)
    width = hi - lo
    rng = np.random.default_rng(seed)
    inside = []
    for blk in _blocks(n):
        u = rng.uniform(size=(blk.stop - blk.start, small.d))
        cols = np.empty((small.d, len(u)))
        for k, col in enumerate(cols):
            np.add(u[:, k] * width[k], lo[k], out=col)
        inside.append(cols.T[membership(small, cols.T, "primal")])
    kept = np.concatenate(inside)
    kept.flags.writeable = False
    return float(np.prod(width)), kept


def intersection_volume(Ba: Paraball, Bb: Paraball, n: int = 100_000,
                        seed: int = 0) -> float:
    """Monte Carlo volume of the primal intersection.

    Samples the bounding box of the smaller paraball; resolution is limited
    by n, so disjoint-looking pairs can return exactly 0.  n and seed are
    integers (see field._integer).  The draws that land in the smaller ball
    depend only on (smaller ball, n, seed), so they are kept by _box_sample
    as one array, which holds one such sample (at most n d 8 bytes);
    repeated calls against one ball make one membership call of the larger
    ball on it, and every estimate is that of a fresh draw.
    """
    if Ba.d != Bb.d:
        raise ValueError("paraballs must share a dimension")
    n = _integer(n, "n", 1)
    small, large = (Ba, Bb) if volume(Ba) <= volume(Bb) else (Bb, Ba)
    box_vol, inside = _box_sample(small, n, _integer(seed, "seed"))
    # membership is pointwise, so the larger ball sees only the hits
    hits = np.count_nonzero(membership(large, inside, "primal"))
    return box_vol * float(hits) / float(n)


def quasi_ratio(f: SampledField, g: SampledField, theta,
                plan: TransformPlan) -> float:
    """X(f, g) / (|f|_p |g|_{q', r'}) at the theta exponents."""
    _field(f, "quasi_ratio")
    _field(g, "quasi_ratio")
    trip = _finite_q_triple(plan.d, theta, "quasi_ratio")
    num = bilinear(f, g, plan)
    den = lp_norm(f, trip.p) * mixed_norm(g, conj_exponent(trip.q),
                                          conj_exponent(trip.r))
    if den == 0:
        raise ValueError("quasi_ratio needs nonzero f and g")
    return num / den


# ---------------------------------------------------------------------------
# fitting a paraball pair to a quasi-extremal pair


def fit_paraball(f: SampledField, g: SampledField, theta, plan: TransformPlan,
                 starts: int = 4, seed: int = 0, eps: float = 1e-3) -> Paraball:
    """Localize a quasi-extremal pair on a paraball of controlled volume.

    Maximizes X(f chi_B, g chi_{B*}) by seeded multi-start coordinate
    descent, subject to volume(B) <= 4 |f|_1 / |f|_inf, with a small volume
    penalty so ties resolve toward the tightest paraball.  Deterministic for
    fixed (starts, seed); ties across starts go to the lowest start index.
    """
    _field(f, "fit_paraball")
    _field(g, "fit_paraball")
    starts = _integer(starts, "starts", 1)
    eps = _real(eps, "eps", 0, strict=False)
    ratio = quasi_ratio(f, g, theta, plan)
    if ratio < eps:
        raise ValueError(f"pair is not quasi-extremal at eps={eps}"
                         f" (ratio {ratio:.3g})")
    d = plan.d
    av = np.abs(f.values)
    budget = 4.0 * float(av.sum()) * f.grid.cell_volume / float(av.max())

    w = (av * f.grid.cell_volume).ravel()
    pts = f.grid.nodes().reshape(-1, d)
    mu = (w @ pts) / w.sum()
    var = (w @ (pts - mu) ** 2) / w.sum()
    sd = np.sqrt(np.maximum(var, 1e-12))
    a0 = max(2.0 * sd[0], 1e-3)
    b0 = min(max(2.0 * sd[1] / a0, 0.05), 4.0)

    pairings = {}  # X(f chi_B, g chi_B*) per paraball B

    def score(par):
        s0, t0, y, la, lb = par[0], par[1], par[2:d + 1], par[d + 1], par[d + 2]
        B = Paraball(s0, t0, tuple(y), math.exp(la), math.exp(lb))
        vol = volume(B)
        if vol > budget:
            return -np.inf, B
        if B not in pairings:
            fB = f.values * _node_membership(B, f.grid, "primal")
            gB = g.values * _node_membership(B, g.grid, "dual")
            pairings[B] = bilinear(_owned(f.grid, fB), _owned(g.grid, gB),
                                   plan)
        return pairings[B] * (1.0 - 0.02 * vol / budget), B

    rng = np.random.default_rng(seed)
    best_key, best_B = -np.inf, None
    for _ in range(starts):
        fac = rng.uniform(0.6, 1.6, size=2)
        jit = rng.uniform(-0.3, 0.3, size=d + 1)
        a, b = a0 * fac[0], b0 * fac[1]
        s0 = mu[0] + jit[0] * a
        t0 = jit[1] * b
        y = mu[1:] - s0 * gamma_eval(d, t0) + jit[2:] * a
        par = np.concatenate([[s0, t0], y, [math.log(a), math.log(b)]])
        key, B = score(par)
        for sweep in range(3):
            shrink = 0.5 ** sweep
            for axis in range(d + 3):
                if axis < d + 1:
                    # s0 steps by alpha, t0 by beta, y_m by alpha beta^m; as
                    # scalars, since numpy's array power can differ by an ulp
                    al, be = np.exp(par[d + 1]), np.exp(par[d + 2])
                    width = (al, be, *(al * be ** m for m in range(1, d)))[axis]
                    steps = width * shrink * np.array(
                        [-0.6, -0.25, 0.0, 0.25, 0.6])
                else:
                    steps = shrink * np.array([-0.5, -0.2, 0.0, 0.2, 0.5])
                for dv in steps:
                    if dv == 0.0:
                        continue
                    cand = par.copy()
                    cand[axis] += dv
                    ck, cB = score(cand)
                    if ck > key:
                        key, B, par = ck, cB, cand
        if key > best_key:
            best_key, best_B = key, B
    if best_B is None or not np.isfinite(best_key):
        raise ValueError("fit failed: no feasible paraball found")
    return best_B
