"""Symmetries of the restricted X-ray transform.

A symmetry is an ordered composition of three generator families acting on
source points (s, x) and target points (t, y):

* ``Translate(v)``: (s, x + v) and (t, y + v);
* ``Scale(alpha, beta)``: (alpha s, alpha S_beta x) and (beta t, alpha S_beta y),
  where S_beta multiplies component m by beta^m;
* ``Shear(s0, t0)``: (s + s0, G_{t0} x + (s + s0) gamma(t0)) and
  (t + t0, G_{t0}(y - s0 gamma(t))),

with G_{t0} the unit lower-triangular binomial matrix satisfying
gamma(t + t0) = G_{t0} gamma(t) + gamma(t0).  All three preserve the
incidence relation x = y + s gamma(t).  Points are passed as arrays whose
last axis is (s, x_1, ..., x_{d-1}) resp. (t, y_1, ..., y_{d-1}).
Column rule: the maps copy the points into one contiguous row per
coordinate and run each step over whole coordinates (Shear keeps its one
``@ G.T`` product, on the stacked x or y rows), never over the d - 1
entries of one point at a time.  Each element gets the IEEE operations of
the per-point form, so the bytes do not depend on the layout.  A map's
result, shape S + (d,), is a view of those rows: each coordinate [..., k]
is contiguous, which the point queries downstream read column by column.
Scale's powers and Jacobians are computed only by ``_scale_diagonal`` and
``_scale_jacobians``, for the maps, pullbacks and paraball geometry alike;
``_jacobian_power`` takes a pullback's power of them, through logs when a
Jacobian leaves the float range.  Every generator parameter is stored as a
Python float by the real-number rule (field._real).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (_D_MIN, Grid, SampledField, _exponent, _field, _integer,
                    _interpolator, _lattice, _moments, _node_blocks, _real,
                    gamma_eval, grid_from_box)


@dataclass(frozen=True)
class Translate:
    v: tuple

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, object))
        object.__setattr__(self, "v", tuple(_real(c, "v") for c in v))


@dataclass(frozen=True)
class Scale:
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _real(self.alpha, "alpha", 0))
        object.__setattr__(self, "beta", _real(self.beta, "beta", 0))


def _scale_diagonal(alpha, beta, d: int) -> np.ndarray:
    """alpha beta^m for m = 1..d-1: the diagonal of alpha S_beta."""
    return alpha * beta ** np.arange(1, d)


def _scale_jacobians(alpha, beta, d: int):
    """(alpha^d beta^k, alpha^(d-1) beta^k), k = d(d-1)/2: the Jacobians of
    Scale(alpha, beta) on source points (s, x) and on target slices y.  A
    power that overflows or underflows to 0 sends both through logs, and a
    Jacobian past the float range is +inf."""
    k = d * (d - 1) // 2
    try:
        ad, ad1, bk = alpha ** d, alpha ** (d - 1), beta ** k
        if ad and bk:  # ad1 is 0 only if ad is
            return ad * bk, ad1 * bk
    except OverflowError:
        pass
    logs = (m * math.log(alpha) + k * math.log(beta) for m in (d, d - 1))
    return tuple(_exp(x) for x in logs)


_LOG_TOP = math.log(np.finfo(float).max)  # exp is finite below it


def _exp(x: float) -> float:
    """e^x, +inf past the float range."""
    return math.exp(x) if x < _LOG_TOP else math.inf


@dataclass(frozen=True)
class Shear:
    s0: float
    t0: float

    def __post_init__(self):
        object.__setattr__(self, "s0", _real(self.s0, "s0"))
        object.__setattr__(self, "t0", _real(self.t0, "t0"))


@dataclass(frozen=True)
class ShearMatrix:
    """G_{t0}: entry (m, i) is C(m, i) t0^{m-i} for 1 <= i <= m, unit diagonal."""

    t0: float
    entries: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float).copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def shear_matrix(d: int, t0: float) -> ShearMatrix:
    d = _integer(d, "d", _D_MIN)
    t0 = _real(t0, "t0")
    n = d - 1
    entries = np.zeros((n, n))
    for m in range(1, n + 1):
        for i in range(1, m + 1):
            entries[m - 1, i - 1] = math.comb(m, i) * t0 ** (m - i)
    return ShearMatrix(t0=t0, entries=entries)


@dataclass(frozen=True)
class Symmetry:
    """Ordered composition of generators; steps apply first-to-last."""

    steps: tuple = ()

    def __post_init__(self):
        for st in self.steps:
            if not isinstance(st, (Translate, Scale, Shear)):
                raise TypeError(f"unknown generator {st!r}")
        object.__setattr__(self, "steps", tuple(self.steps))


def identity() -> Symmetry:
    return Symmetry(())


def compose(sigma1: Symmetry, sigma2: Symmetry) -> Symmetry:
    """Composition acting as sigma1 after sigma2 (sigma2's steps run first)."""
    return Symmetry(sigma2.steps + sigma1.steps)


def _pack(point) -> np.ndarray:
    if isinstance(point, tuple) and len(point) == 2:
        s, x = point
        return np.concatenate([[float(s)], np.atleast_1d(np.asarray(x, float))])
    return np.asarray(point, dtype=float)


def _coordinate_rows(point):
    """(leading shape S, a fresh (d, N) array whose row k holds coordinate k
    of the N points, contiguous)."""
    z = _pack(point)
    rows = np.empty((z.shape[-1],) + z.shape[:-1])
    rows[...] = np.moveaxis(z, -1, 0)
    return z.shape[:-1], rows.reshape(len(rows), -1)


def _as_points(shape, rows) -> np.ndarray:
    """The points of _coordinate_rows, shape S + (d,), as a view of rows."""
    return rows.T.reshape(shape + (len(rows),))


def map_source(sigma: Symmetry, point) -> np.ndarray:
    """Apply the source-side point map; last axis is (s, x)."""
    shape, z = _coordinate_rows(point)
    d = len(z)
    for st in sigma.steps:
        if isinstance(st, Translate):
            z[1:] += np.asarray(st.v)[:, None]
        elif isinstance(st, Scale):
            z[0] *= st.alpha
            z[1:] *= _scale_diagonal(st.alpha, st.beta, d)[:, None]
        else:
            G = shear_matrix(d, st.t0).entries
            z[1:] = (z[1:].T @ G.T).T
            z[0] += st.s0
            for m, power in enumerate(gamma_eval(d, st.t0), 1):
                z[m] += z[0] * power
    return _as_points(shape, z)


def map_target(sigma: Symmetry, point) -> np.ndarray:
    """Apply the target-side point map; last axis is (t, y)."""
    shape, z = _coordinate_rows(point)
    d = len(z)
    for st in sigma.steps:
        if isinstance(st, Translate):
            z[1:] += np.asarray(st.v)[:, None]
        elif isinstance(st, Scale):
            z[0] *= st.beta
            z[1:] *= _scale_diagonal(st.alpha, st.beta, d)[:, None]
        else:
            G = shear_matrix(d, st.t0).entries
            # s0 gamma(t) is zero at s0 = 0 (or the -0.0 of inverse):
            # skipping it changes only the sign of a zero coordinate, which
            # locate maps like +0, and a NaN of 0 * inf
            if st.s0 != 0:
                for m, power in enumerate(_moments(z[0], d), 1):
                    z[m] -= st.s0 * power
            z[1:] = (z[1:].T @ G.T).T
            z[0] += st.t0
    return _as_points(shape, z)


def _is_noop(st) -> bool:
    if isinstance(st, Translate):
        return all(c == 0 for c in st.v)
    if isinstance(st, Scale):
        return st.alpha == 1 and st.beta == 1
    return st.s0 == 0 and st.t0 == 0


def inverse(sigma: Symmetry, d: int) -> Symmetry:
    """Inverse composition (dimension is needed to invert shears)."""
    steps = []
    for st in reversed(sigma.steps):
        if isinstance(st, Translate):
            steps.append(Translate(tuple(-c for c in st.v)))
        elif isinstance(st, Scale):
            steps.append(Scale(1.0 / st.alpha, 1.0 / st.beta))
        else:
            steps.append(Shear(-st.s0, -st.t0))
            steps.append(Translate(tuple(st.s0 * gamma_eval(d, -st.t0))))
    return Symmetry(tuple(st for st in steps if not _is_noop(st)))


def source_jacobian(sigma: Symmetry, d: int) -> float:
    """Determinant of the composed source map (translations and shears are 1)."""
    jac = 1.0
    for st in sigma.steps:
        if isinstance(st, Scale):
            jac *= _scale_jacobians(st.alpha, st.beta, d)[0]
    return jac


def target_factors(sigma: Symmetry, d: int):
    """(psi_1', J_psi'): the t-derivative factor and the y-Jacobian."""
    dt_fac = 1.0
    jy = 1.0
    for st in sigma.steps:
        if isinstance(st, Scale):
            dt_fac *= st.beta
            jy *= _scale_jacobians(st.alpha, st.beta, d)[1]
    return dt_fac, jy


def _conj_inv(ef: float) -> float:
    """1/e' for an exponent float ef checked by _exponent, with 1/inf = 0."""
    return 1.0 - 1.0 / ef


def _preimage_grid(sigma: Symmetry, grid: Grid, target_side: bool) -> Grid:
    d = grid.d
    corners = _lattice(zip(*grid.box())).reshape(-1, d)
    inv_sigma = inverse(sigma, d)
    mapped = (map_target if target_side else map_source)(inv_sigma, corners)
    return grid_from_box(d, grid.side, mapped.min(axis=0), mapped.max(axis=0),
                         grid.counts)


def _jacobian_power(sigma: Symmetry, factors) -> float:
    """The product of J ** e over factors (J, e, m, k), J being the product
    over sigma's Scale steps of alpha^m beta^k.

    While every J is finite and nonzero, this is the float product of the
    float powers.  A J past the float range (inf, or 0 after underflow)
    sends the whole product through logs, as _scale_jacobians does, so a
    power that is a float is kept, and one past the float range is +inf.
    """
    if all(0 < J < math.inf for J, *_ in factors):
        return math.prod(J ** e for J, e, _, _ in factors)
    return _exp(sum(e * (m * math.log(st.alpha) + k * math.log(st.beta))
                    for _, e, m, k in factors
                    for st in sigma.steps if isinstance(st, Scale)))


def _pullback(sigma: Symmetry, f: SampledField, out_grid: Grid | None,
              target_side: bool, factors) -> SampledField:
    """Both pullbacks' body: _jacobian_power(sigma, factors) times f at
    the images of the nodes of out_grid, or of the preimage grid of f's box.

    The nodes run in _node_blocks: each block is mapped with map_target or
    map_source and evaluated by one interpolator of f, which pads f once,
    before the next block starts.
    """
    grid = out_grid or _preimage_grid(sigma, f.grid, target_side)
    point_map = map_target if target_side else map_source
    evaluate = _interpolator(f)
    values = np.empty(grid.shape)
    out = values.reshape(-1)
    for blk, nodes in _node_blocks(grid):
        out[blk] = evaluate(point_map(sigma, nodes))
    del evaluate  # frees the padded copy of f before SampledField copies
    values *= _jacobian_power(sigma, factors)
    return SampledField(grid=grid, values=values)


def pullback_source(sigma: Symmetry, f: SampledField, p,
                    out_grid: Grid | None = None) -> SampledField:
    """(phi^* f)(z) = J_phi^{1/p} f(phi(z)), resampled on a uniform grid.

    The new grid is the bounding box of the phi-preimage of f's box, with
    f's counts, unless ``out_grid`` is given.  The nodes run in blocks (see
    _pullback), and a Jacobian past the float range still gives its 1/p
    power when that is a float (see _jacobian_power).
    """
    _field(f, "pullback_source", "source")
    pf = _exponent(p, "p")
    if not sigma.steps and out_grid is None:
        return f
    d = f.d
    return _pullback(sigma, f, out_grid, False,
                     [(source_jacobian(sigma, d), 1.0 / pf,
                       d, d * (d - 1) // 2)])


def pullback_target(sigma: Symmetry, g: SampledField, q, r,
                    out_grid: Grid | None = None) -> SampledField:
    """(psi^* g)(t, y) = psi_1'^{1/q'} J_psi'^{1/r'} g(psi(t, y)), resampled
    as pullback_source resamples."""
    _field(g, "pullback_target", "target")
    qf, rf = _exponent(q, "q"), _exponent(r, "r")
    if not sigma.steps and out_grid is None:
        return g
    d = g.d
    dt_fac, jy = target_factors(sigma, d)
    return _pullback(sigma, g, out_grid, True,
                     [(dt_fac, _conj_inv(qf), 0, 1),
                      (jy, _conj_inv(rf), d - 1, d * (d - 1) // 2)])


def _weighted_iqr(values: np.ndarray, weights: np.ndarray) -> float:
    """Interquartile range: midpoint-convention weighted quantiles with
    linear interpolation, both read off one sort."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    cum = (np.cumsum(w) - 0.5 * w) / w.sum()
    return float(np.interp(0.75, cum, v)) - float(np.interp(0.25, cum, v))


def normalize_symmetry(f: SampledField, p) -> Symmetry:
    """Symmetry whose source pullback recenters and rescales f.

    The pulled-back field has its |f|^p mass barycenter at the origin, unit
    interquartile s-spread, x_1-spread equal to the s-spread, and zero
    (s, x_1) mass covariance.  Deterministic given f; spreads below 1e-12
    leave the corresponding factor at 1.  For p = inf the weights are |f|^1,
    a fixed choice: |f|^p has no useful limit as p grows.
    """
    _field(f, "normalize_symmetry", "source")
    d = f.d
    pf = _exponent(p, "p")
    w = np.abs(f.values) ** (1.0 if math.isinf(pf) else pf)
    total = w.sum()
    if not total > 0:
        raise ValueError("cannot normalize the zero field")
    axes = f.grid.axes()
    # barycenter in (s, x)
    mu = np.empty(d)
    for k in range(d):
        marg = w.sum(axis=tuple(a for a in range(d) if a != k))
        mu[k] = (marg * axes[k]).sum() / total
    # covariance-zeroing shear in the (s, x_1) plane
    other = tuple(range(2, d))
    w2 = w.sum(axis=other) if other else w
    s_c = axes[0] - mu[0]
    x1_c = axes[1] - mu[1]
    var_s = (w2.sum(axis=1) * s_c ** 2).sum() / total
    cov = (w2 * np.outer(s_c, x1_c)).sum() / total
    tau = -cov / var_s if var_s > 1e-12 else 0.0
    # spreads after centering and shearing
    ws = w.sum(axis=tuple(range(1, d)))
    rho_s = _weighted_iqr(axes[0], ws)
    x1_sheared = (x1_c[None, :] + tau * s_c[:, None]).ravel()
    rho_x = _weighted_iqr(x1_sheared, w2.ravel())
    a = 1.0 / rho_s if rho_s > 1e-12 else 1.0
    b = rho_s / rho_x if (rho_x > 1e-12 and rho_s > 1e-12) else 1.0
    normalizer = Symmetry((
        Shear(-mu[0], 0.0),
        Translate(tuple(-mu[1:])),
        Shear(0.0, tau),
        Scale(a, b),
    ))
    return inverse(normalizer, d)
