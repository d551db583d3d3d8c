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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import Grid, SampledField, gamma_eval, grid_from_box, interpolate
from .exponents import as_float


@dataclass(frozen=True)
class Translate:
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(float(c) for c in np.atleast_1d(self.v)))
        if not all(map(math.isfinite, self.v)):
            raise ValueError("translation must be finite")


@dataclass(frozen=True)
class Scale:
    alpha: float
    beta: float

    def __post_init__(self):
        if not all(math.isfinite(c) and c > 0
                   for c in (self.alpha, self.beta)):
            raise ValueError(
                "scale factors must be finite and strictly positive")


@dataclass(frozen=True)
class Shear:
    s0: float
    t0: float

    def __post_init__(self):
        if not (math.isfinite(self.s0) and math.isfinite(self.t0)):
            raise ValueError("shear parameters must be finite")


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
    if d < 3:
        raise ValueError(f"dimension d must be >= 3, got {d}")
    n = d - 1
    entries = np.zeros((n, n))
    for m in range(1, n + 1):
        for i in range(1, m + 1):
            entries[m - 1, i - 1] = math.comb(m, i) * t0 ** (m - i)
    return ShearMatrix(t0=float(t0), entries=entries)


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


def map_source(sigma: Symmetry, point) -> np.ndarray:
    """Apply the source-side point map; last axis is (s, x)."""
    z = _pack(point).copy()
    d = z.shape[-1]
    for st in sigma.steps:
        if isinstance(st, Translate):
            z[..., 1:] = z[..., 1:] + np.asarray(st.v)
        elif isinstance(st, Scale):
            powers = st.beta ** np.arange(1, d)
            z[..., 0] = st.alpha * z[..., 0]
            z[..., 1:] = st.alpha * powers * z[..., 1:]
        else:
            G = shear_matrix(d, st.t0).entries
            s_new = z[..., 0] + st.s0
            z[..., 1:] = z[..., 1:] @ G.T + s_new[..., None] * gamma_eval(d, st.t0)
            z[..., 0] = s_new
    return z


def map_target(sigma: Symmetry, point) -> np.ndarray:
    """Apply the target-side point map; last axis is (t, y)."""
    z = _pack(point).copy()
    d = z.shape[-1]
    for st in sigma.steps:
        if isinstance(st, Translate):
            z[..., 1:] = z[..., 1:] + np.asarray(st.v)
        elif isinstance(st, Scale):
            powers = st.beta ** np.arange(1, d)
            z[..., 0] = st.beta * z[..., 0]
            z[..., 1:] = st.alpha * powers * z[..., 1:]
        else:
            G = shear_matrix(d, st.t0).entries
            y_shift = z[..., 1:] - st.s0 * gamma_eval(d, z[..., 0])
            z[..., 1:] = y_shift @ G.T
            z[..., 0] = z[..., 0] + st.t0
    return z


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
            jac *= st.alpha ** d * st.beta ** (d * (d - 1) // 2)
    return jac


def target_factors(sigma: Symmetry, d: int):
    """(psi_1', J_psi'): the t-derivative factor and the y-Jacobian."""
    dt_fac = 1.0
    jy = 1.0
    for st in sigma.steps:
        if isinstance(st, Scale):
            dt_fac *= st.beta
            jy *= st.alpha ** (d - 1) * st.beta ** (d * (d - 1) // 2)
    return dt_fac, jy


def _conj_inv(e) -> float:
    """1/e' as a float, with 1/inf = 0."""
    return 1.0 - 1.0 / as_float(e)


def _preimage_grid(sigma: Symmetry, grid: Grid, target_side: bool) -> Grid:
    lo, hi = grid.box()
    d = grid.d
    corners = np.stack(np.meshgrid(*[(lo[k], hi[k]) for k in range(d)],
                                   indexing="ij"), axis=-1).reshape(-1, d)
    inv_sigma = inverse(sigma, d)
    mapped = (map_target if target_side else map_source)(inv_sigma, corners)
    return grid_from_box(d, grid.side, mapped.min(axis=0), mapped.max(axis=0),
                         grid.counts)


def pullback_source(sigma: Symmetry, f: SampledField, p,
                    out_grid: Grid | None = None) -> SampledField:
    """(phi^* f)(z) = J_phi^{1/p} f(phi(z)), resampled on a uniform grid.

    The new grid is the bounding box of the phi-preimage of f's box, with
    f's counts, unless ``out_grid`` is given.
    """
    if not sigma.steps and out_grid is None:
        return f
    grid = out_grid or _preimage_grid(sigma, f.grid, target_side=False)
    pts = map_source(sigma, grid.nodes())
    jac = source_jacobian(sigma, f.d) ** (1.0 / as_float(p))
    return SampledField(grid=grid, values=jac * interpolate(f, pts))


def pullback_target(sigma: Symmetry, g: SampledField, q, r,
                    out_grid: Grid | None = None) -> SampledField:
    """(psi^* g)(t, y) = psi_1'^{1/q'} J_psi'^{1/r'} g(psi(t, y))."""
    if not sigma.steps and out_grid is None:
        return g
    grid = out_grid or _preimage_grid(sigma, g.grid, target_side=True)
    pts = map_target(sigma, grid.nodes())
    dt_fac, jy = target_factors(sigma, g.d)
    const = dt_fac ** _conj_inv(q) * jy ** _conj_inv(r)
    return SampledField(grid=grid, values=const * interpolate(g, pts))


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Midpoint-convention weighted quantile with linear interpolation."""
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = weights[order]
    total = w.sum()
    cum = (np.cumsum(w) - 0.5 * w) / total
    return float(np.interp(q, cum, v))


def normalize_symmetry(f: SampledField, p) -> Symmetry:
    """Symmetry whose source pullback recenters and rescales f.

    The pulled-back field has its |f|^p mass barycenter at the origin, unit
    interquartile s-spread, x_1-spread equal to the s-spread, and zero
    (s, x_1) mass covariance.  Deterministic given f; spreads below 1e-12
    leave the corresponding factor at 1.  For p = inf the weights are |f|^1,
    a fixed choice: |f|^p has no useful limit as p grows.
    """
    if f.side != "source":
        raise ValueError("normalize_symmetry expects a source-side field")
    d = f.d
    pf = as_float(p)
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
    rho_s = (_weighted_quantile(axes[0], ws, 0.75)
             - _weighted_quantile(axes[0], ws, 0.25))
    x1_sheared = (x1_c[None, :] + tau * s_c[:, None]).ravel()
    rho_x = (_weighted_quantile(x1_sheared, w2.ravel(), 0.75)
             - _weighted_quantile(x1_sheared, w2.ravel(), 0.25))
    a = 1.0 / rho_s if rho_s > 1e-12 else 1.0
    b = rho_s / rho_x if (rho_x > 1e-12 and rho_s > 1e-12) else 1.0
    normalizer = Symmetry((
        Shear(-mu[0], 0.0),
        Translate(tuple(-mu[1:])),
        Shear(0.0, tau),
        Scale(a, b),
    ))
    return inverse(normalizer, d)
