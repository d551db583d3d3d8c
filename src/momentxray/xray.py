"""The restricted X-ray transform X, its adjoint X*, and the functional Phi.

X integrates a source field along the lines s -> (s, y + s gamma(t)):

    Xf(t, y) = int f(s, y + s gamma(t)) ds
    X*g(s, x) = int g(t, x - s gamma(t)) dt

Both are discretized with midpoint quadrature along the integration axis
(over the corresponding grid's extent) and multilinear interpolation of the
integrand, zero outside the field's box.  X* is built directly from the
incidence relation x = y + s gamma(t), not by transposing a discrete matrix
for X, so the adjoint identity <Xf, g> = <f, X*g> is a genuine check.

One incidence sweep serves both: at each quadrature node u of the input's
axis 0 it interpolates the input slice and resamples it onto every output
level's cross-section, shifted by u gamma(t) for X and by -s gamma(u) for
X*.  The resampling has two kernels, chosen per axis from the grids: a
shifted two-tap blend when the input and output share the axis spacing
(the shifted points are then a translated copy of the input lattice), and
a dense hat-weight matrix otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import triple_for_theta
from .field import Grid, SampledField, gamma_eval, lp_norm, mixed_norm


@dataclass(frozen=True)
class TransformPlan:
    """Grids plus quadrature counts for X (s-integral) and X* (t-integral)."""

    source_grid: Grid
    target_grid: Grid
    s_quad: int = 0
    t_quad: int = 0

    def __post_init__(self):
        if self.source_grid.side != "source":
            raise ValueError("source_grid must be source-side")
        if self.target_grid.side != "target":
            raise ValueError("target_grid must be target-side")
        if self.source_grid.d != self.target_grid.d:
            raise ValueError("plan grids must share the dimension d")
        if self.s_quad == 0:
            object.__setattr__(self, "s_quad", self.source_grid.counts[0])
        if self.t_quad == 0:
            object.__setattr__(self, "t_quad", self.target_grid.counts[0])
        if self.s_quad < 2 or self.t_quad < 2:
            raise ValueError("quadrature counts must be >= 2")

    @property
    def d(self):
        return self.source_grid.d


def _quad_nodes(grid: Grid, n: int):
    """Midpoint nodes over the grid's axis-0 extent; grid levels if n matches."""
    if n == grid.counts[0]:
        return grid.axis_nodes(0), grid.spacing[0]
    lo, hi = grid.box()
    step = (hi[0] - lo[0]) / n
    return lo[0] + (np.arange(n) + 0.5) * step, step


def _shift_blend(arr: np.ndarray, axis: int, m0: int, fr: float, n_out: int):
    """out[i] = (1-fr) arr[i+m0] + fr arr[i+m0+1] along ``axis``, zero-padded.

    Both taps go into one zero buffer.  The first is copied and scaled in
    place, so only the second uses numpy's strided arithmetic, which is
    about twice as slow per element on these small sections.
    """
    out = np.zeros(arr.shape[:axis] + (n_out,) + arr.shape[axis + 1:])
    lead = (slice(None),) * axis
    for shift in (m0, m0 + 1):
        lo = max(0, -shift)
        hi = max(lo, min(n_out, arr.shape[axis] - shift))
        tap = arr[lead + (slice(lo + shift, hi + shift),)]
        if shift == m0:
            out[lead + (slice(lo, hi),)] = tap
            out *= 1.0 - fr
        elif fr != 0.0:
            out[lead + (slice(lo, hi),)] += fr * tap
    return out


def _axis_matrix(targets: np.ndarray, origin: float, spacing: float, n: int):
    """Dense interpolation matrix: row i holds hat weights for targets[i]."""
    u = (targets - origin) / spacing
    i0 = np.floor(u).astype(np.int64)
    fr = u - i0
    W = np.zeros((targets.size, n))
    rows = np.arange(targets.size)
    ok0 = (i0 >= 0) & (i0 < n)
    W[rows[ok0], i0[ok0]] = 1.0 - fr[ok0]
    ok1 = (i0 + 1 >= 0) & (i0 + 1 < n)
    W[rows[ok1], i0[ok1] + 1] += fr[ok1]
    return W


def _cross_section(slice_vals: np.ndarray, offsets: np.ndarray,
                   in_grid: Grid, out_grid: Grid):
    """Resample a cross-section slice onto out_grid's section shifted by offsets.

    Returns the array of values of the (zero-extended, multilinearly
    interpolated) slice at points (out-axis nodes + offset) per axis.
    """
    d = in_grid.d
    res = slice_vals
    for m in range(1, d):
        h_in = in_grid.spacing[m]
        same = abs(out_grid.spacing[m] - h_in) <= 1e-12 * h_in
        axis = m - 1
        n_out = out_grid.counts[m]
        if same:
            u0 = (out_grid.origin[m] + offsets[m - 1] - in_grid.origin[m]) / h_in
            m0 = int(np.floor(u0))
            res = _shift_blend(res, axis, m0, u0 - m0, n_out)
        else:
            W = _axis_matrix(out_grid.axis_nodes(m) + offsets[m - 1],
                             in_grid.origin[m], h_in, in_grid.counts[m])
            res = np.moveaxis(np.tensordot(W, np.moveaxis(res, axis, 0),
                                           axes=(1, 0)), 0, axis)
    return res


def _sweep(values: np.ndarray, in_grid: Grid, out_grid: Grid, n_quad: int,
           offsets):
    """Quadrature over in_grid's axis 0 of the incidence-shifted sections.

    At each node u the input slice is interpolated along axis 0 and
    resampled onto output level j's cross-section shifted by offsets(u)[j].
    """
    nodes, step = _quad_nodes(in_grid, n_quad)
    out = np.zeros(out_grid.shape)
    for u in nodes:
        pos = (u - in_grid.origin[0]) / in_grid.spacing[0]
        m0 = int(np.floor(pos))
        section = _shift_blend(values, 0, m0, pos - m0, 1)[0]
        if not section.any():
            continue
        for j, off in enumerate(offsets(u)):
            out[j] += _cross_section(section, off, in_grid, out_grid)
    return out * step


def apply_X(f: SampledField, plan: TransformPlan) -> SampledField:
    """Forward transform onto the plan's target grid."""
    if f.grid != plan.source_grid:
        raise ValueError("field grid does not match the plan's source grid")
    gam = gamma_eval(plan.d, plan.target_grid.axis_nodes(0))  # (n_t, d-1)
    return SampledField(grid=plan.target_grid, values=_sweep(
        f.values, plan.source_grid, plan.target_grid, plan.s_quad,
        lambda s_k: s_k * gam))


def apply_X_star(g: SampledField, plan: TransformPlan) -> SampledField:
    """Adjoint transform onto the plan's source grid."""
    if g.grid != plan.target_grid:
        raise ValueError("field grid does not match the plan's target grid")
    s_levels = plan.source_grid.axis_nodes(0)[:, None]
    return SampledField(grid=plan.source_grid, values=_sweep(
        g.values, plan.target_grid, plan.source_grid, plan.t_quad,
        lambda t_k: -s_levels * gamma_eval(plan.d, t_k)))


def bilinear(f: SampledField, g: SampledField, plan: TransformPlan) -> float:
    """The pairing integral of Xf against g over the target grid."""
    if g.grid != plan.target_grid:
        raise ValueError("field grid does not match the plan's target grid")
    Xf = apply_X(f, plan)
    return float((Xf.values * g.values).sum() * plan.target_grid.cell_volume)


def phi_functional(f: SampledField, theta, plan: TransformPlan) -> float:
    """Rayleigh quotient: mixed norm of Xf over the L^p norm of f."""
    trip = triple_for_theta(plan.d, theta)
    denom = lp_norm(f, trip.p)
    if denom == 0:
        raise ZeroDivisionError("phi_functional is undefined for the zero field")
    Xf = apply_X(f, plan)
    return mixed_norm(Xf, trip.q, trip.r) / denom
