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
X*.  Every interpolation step is a two-tap blend a (1-fr) + b fr of
neighbouring nodes along one axis.  The sweep pads its input once with one
zero node on every side of every axis, so each tap lands on an input node
or on a zero: that border is how both kernels below extend the field by
zero.  An axis is matched when the input and output spacings agree within
1e-12 relative; the shifted points are then a translated copy of the input
lattice.  The resampling has two kernels, chosen once per sweep:

- every cross-section axis matched: a per-level loop over live windows,
  split into a plan step and an execute step.  The plan step
  (``_matched_schedule``) makes one numpy pass per node
  (``_live_windows``) that finds every level's integer shift m0 and
  fraction fr per axis, and with them the window of output nodes whose two
  taps reach the input; levels with an empty window are skipped.  It keeps
  per node the axis-0 section index and weights, and per live level the
  src and dst slice tuples and the weights 1 - fr, fr per axis.  The
  execute step (``_run_schedule``) blends each live level's window, axes
  first to last (the second tap only when fr != 0), and adds it into the
  output.  Each output element gets the same float ops in the same order
  as in a two-tap blend of the whole section per level and axis; the nodes
  outside the window are exact zeros there and only ever add zeros.  So
  the output is byte-identical to that loop (the reference in the tests).
  The schedule depends only on the plan and the direction, so the
  ``TransformPlan`` builds it on the first X (or X*) that it serves and
  holds it until the plan is freed.  It is not a field, so equal plans
  compare, hash and print equal whether used or not.  A (node, level) pair
  holds a src and a dst tuple, whose slices come from one shared table per
  axis, and 2 (d - 1) float64 weights.  With the
  per-node parts that is 180-200 bytes per pair at d = 3 and about 280 at
  d = 4 (CPython 3.11): 1 MB for the X and X* schedules of one 64^3 plan.
- any cross-section axis mismatched: ``_level_sections``, one gather and
  blend per axis for a run of output levels at once, with per-level
  two-tap indices and hat weights.  At each node ``_live_levels`` finds
  the first and last level whose taps reach the input on every axis, from
  the two end nodes of each axis; only that range is resampled.  A level
  outside it would gather only border zeros, a block of +-0, and ``out``
  starts at +0 and never holds -0, so adding that block changes nothing.
  The sweep runs w = min(usable cores, _MAX_WORKERS, block // _MIN_PART)
  workers, at least one, where block is the output elements a node
  resamples (levels times output cross-section), and the usable cores are
  those of the affinity mask, cut to the cgroup CPU quota if one is set.  The levels are dealt out by global parity:
  worker k takes the levels j = k mod w of every node's range, in node
  order; worker 0 is the calling thread, the others are threads joined
  before the sweep returns.  Each level still gets its node contributions
  in node order from one worker, and a level's values do not depend on
  which levels share its gather, so the output is byte-identical for any
  number of workers and to the full-level sweep (the reference in the
  tests).  Blocks under 2 * _MIN_PART stay on the calling thread, and the
  matched kernel, whose windows are smaller still, never threads.  Only
  two workers were ever timed, so _MAX_WORKERS is 2.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .exponents import triple_for_theta
from .field import (Grid, SampledField, _field, _integer, gamma_eval, lp_norm,
                    mixed_norm)


def _usable_cores() -> int:
    """The cores this process may run on, cut to its cgroup's CPU quota."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        cores = os.cpu_count() or 1
    # cgroup v2 holds "quota period" in one file, v1 in two
    for files in (("/sys/fs/cgroup/cpu.max",),
                  ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                   "/sys/fs/cgroup/cpu/cpu.cfs_period_us")):
        fields = []
        try:
            for path in files:
                with open(path) as f:
                    fields += f.read().split()
            quota, period = int(fields[0]), int(fields[1])
        except (OSError, ValueError, IndexError):  # absent, or "max"
            continue
        if quota > 0 and period > 0:
            cores = min(cores, max(1, quota // period))
        break
    return cores


_CORES = _usable_cores()
# the most workers the batched kernel runs: the count whose gain was
# measured (two, on a 2-core VM); three or more were never timed
_MAX_WORKERS = 2
# output elements per quadrature node for each worker of the batched
# kernel.  Measured on a shared 2-core VM (numpy 2.4), two threads ran
# 0.3-0.7x as fast as one at 8k-85k elements per node (each numpy call
# hands the GIL over), 0.95x at 111k and 1.4-1.5x at 176k-216k.
_MIN_PART = 1 << 16


@dataclass(frozen=True)
class TransformPlan:
    """Grids plus quadrature counts for X (s-integral) and X* (t-integral).

    On matched grids the plan also keeps, from the first X and the first
    X* it serves, that direction's matched-kernel schedule, so reusing one
    plan skips the shift arithmetic (see the module docstring).
    """

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
        # 0, the default, takes the grid's count along its first axis
        for name, grid in (("s_quad", self.source_grid),
                           ("t_quad", self.target_grid)):
            n = _integer(getattr(self, name), name) or grid.counts[0]
            object.__setattr__(self, name, _integer(n, name, 2))

    @property
    def d(self):
        return self.source_grid.d

    # the matched kernel's schedules, built on first use and kept with the
    # plan (see the module docstring); not fields, so ==, hash and repr
    # ignore them
    @functools.cached_property
    def _x_schedule(self):
        return _matched_schedule(*_direction(self, adjoint=False))

    @functools.cached_property
    def _x_star_schedule(self):
        return _matched_schedule(*_direction(self, adjoint=True))


def _quad_nodes(grid: Grid, n: int):
    """Midpoint nodes over the grid's axis-0 extent; grid levels if n matches."""
    if n == grid.counts[0]:
        return grid.axis_nodes(0), grid.spacing[0]
    lo, hi = grid.box()
    step = (hi[0] - lo[0]) / n
    return lo[0] + (np.arange(n) + 0.5) * step, step


def _matched(in_grid: Grid, out_grid: Grid, m: int) -> bool:
    """Whether axis m has the same spacing on both grids (1e-12 relative)."""
    h_in = in_grid.spacing[m]
    return abs(out_grid.spacing[m] - h_in) <= 1e-12 * h_in


def _taps(in_grid: Grid, out_grid: Grid, m: int, shifts: np.ndarray,
          k=None):
    """Two-tap indices and hat weights on axis m, shape (levels, len(k)) each.

    Output node k of level j sits at out-axis node k + shifts[j]; k runs
    over every output node unless given.  A matched axis locates one point
    per level, as ``_live_windows`` does.  The indices are into the
    zero-bordered input axis, where input node i is node i + 1; taps off the
    input axis are clipped onto the border, a zero node.  Each entry comes
    from the same float ops whichever k and levels are asked for.
    """
    n_in = in_grid.counts[m]
    if k is None:
        k = np.arange(out_grid.counts[m])
    shifts = shifts[:, None]
    if _matched(in_grid, out_grid, m):
        m0, fr = in_grid.locate(out_grid.origin[m] + shifts, m)
        lo = m0 + k
        fr = np.broadcast_to(fr, lo.shape)
    else:
        lo, fr = in_grid.locate(out_grid.axis_nodes(m)[k] + shifts, m)
    return (np.minimum(np.maximum(lo + 1, 0), n_in + 1),
            np.minimum(np.maximum(lo + 2, 0), n_in + 1), 1.0 - fr, fr)


def _live_levels(offsets: np.ndarray, in_grid: Grid, out_grid: Grid):
    """First and one past the last output level that reaches the input.

    The taps rise along each axis, so a level's taps all lie on the zero
    border of axis m iff its first node's low tap is past the input
    (> n_in) or its last node's high tap is before it (< 1).  Such a level
    resamples to a block of zeros.  Only the two end nodes are computed.
    """
    live = np.ones(len(offsets), dtype=bool)
    for m in range(1, in_grid.d):
        lo, hi, _, _ = _taps(in_grid, out_grid, m, offsets[:, m - 1],
                             np.array([0, out_grid.counts[m] - 1]))
        live &= (lo[:, 0] <= in_grid.counts[m]) & (hi[:, 1] >= 1)
    idx = np.flatnonzero(live)
    return (int(idx[0]), int(idx[-1]) + 1) if idx.size else (0, 0)


def _level_work(in_grid: Grid, out_grid: Grid, n_levels: int):
    """Two flat gather buffers per cross-section axis for ``_level_sections``.

    Sized for n_levels output levels; fewer levels use a prefix.  The input
    axes not yet resampled keep their zero border, n + 2 nodes.  Reused at
    every quadrature node: fresh arrays of this size cost more in page
    faults than the gathers that fill them.
    """
    work = {}
    for m in range(1, in_grid.d):
        size = (math.prod(n + 2 for n in in_grid.counts[1:m]) * n_levels
                * math.prod(out_grid.counts[m:]))
        work[m] = (np.empty(size), np.empty(size))
    return work


def _level_sections(section: np.ndarray, offsets: np.ndarray,
                    in_grid: Grid, out_grid: Grid, work):
    """The section resampled onto the cross-sections of the given levels.

    offsets holds one row per level.  The axes go from last to first, each
    with one gather of whole blocks along its own axis.  The first gathers
    from the section, which all levels share, and puts the level axis in
    front of its output axis.  Every later axis sits just before that level
    axis, so block (i, j) of the two is block i * levels + j of their merged
    axis, and its gather again puts the level axis in front.  The result is
    laid out as (levels, output axes) without any transpose.
    """
    n_levels = len(offsets)
    levels = np.arange(n_levels)[:, None]
    res = section
    for m in range(in_grid.d - 1, 0, -1):
        lo, hi, w_lo, w_hi = _taps(in_grid, out_grid, m, offsets[:, m - 1])
        axis = m - 1
        if res is not section:
            res = res.reshape(res.shape[:axis] + (-1,) + res.shape[axis + 2:])
            lo = lo * n_levels + levels
            hi = hi * n_levels + levels
        shape = res.shape[:axis] + lo.shape + res.shape[axis + 1:]
        size = math.prod(shape)
        a, b = (buf[:size].reshape(shape) for buf in work[m])
        # the indices are in range already; mode="clip" only lets take
        # write straight into the buffer
        np.take(res, lo, axis=axis, out=a, mode="clip")
        np.take(res, hi, axis=axis, out=b, mode="clip")
        tail = (1,) * (in_grid.d - 1 - m)
        a *= w_lo.reshape(w_lo.shape + tail)
        b *= w_hi.reshape(w_hi.shape + tail)
        a += b
        res = a
    return res


def _level_part(values, tasks, in_grid: Grid, out_grid: Grid,
                out: np.ndarray, k: int, workers: int):
    """Worker k's share of the batched sweep: the levels j = k mod workers.

    Walks every node in order and adds the node's blocks for its live
    levels of that parity into ``out``, so each level gets its node
    contributions in node order, and no other worker writes to it.
    """
    work = _level_work(in_grid, out_grid, -(-out_grid.counts[0] // workers))
    for u, offsets, j0, j1 in tasks:
        start = j0 + (k - j0) % workers
        if start >= j1:
            continue
        m0, fr = in_grid.locate(u, 0)
        section = _section(values, m0 + 1, 1.0 - fr, fr)
        if not section.any():
            continue
        mine = slice(start, j1, workers)
        out[mine] += _level_sections(section, offsets[mine], in_grid,
                                     out_grid, work)


def _run_parts(parts):
    """Run parts[0] here and the others on threads; all end before return.

    The first exception raised in a worker is raised again after the join.
    Parts whose thread cannot be started run here after parts[0]; the
    parts write disjoint levels, so which thread runs one changes no bit.
    """
    errors = []

    def guard(part):
        try:
            part()
        except BaseException as exc:  # handed to the calling thread
            errors.append(exc)

    threads, here = [], parts[:1]
    try:
        for i, part in enumerate(parts[1:], 1):
            t = threading.Thread(target=guard, args=(part,))
            try:
                t.start()
            except RuntimeError:  # no thread to be had
                here += parts[i:]
                break
            threads.append(t)
        for part in here:
            part()
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _live_windows(offsets: np.ndarray, in_grid: Grid, out_grid: Grid):
    """Live levels of the matched kernel, with their shifts and fractions.

    On each cross-section axis, output node i of a level blends input nodes
    m0 + i and m0 + i + 1 with weights 1 - fr and fr, where (m0, fr) is
    the input grid's ``locate`` of out origin + offset, for all levels in
    one call.  Only the window i in [max(0, -m0 - 1), min(n_out, n_in - m0))
    reaches the input; outside it the level's section is exactly zero.
    Returns the levels whose windows are all non-empty, and their m0 and fr
    per axis, one row per level.
    """
    ax = slice(1, in_grid.d)
    m0, fr = in_grid.locate(np.array(out_grid.origin[ax]) + offsets, ax)
    lo = np.maximum(0, -m0 - 1)
    hi = np.minimum(np.array(out_grid.counts[ax]),
                    np.array(in_grid.counts[ax]) - m0)
    live = np.flatnonzero((hi > lo).all(axis=1))
    return live, m0[live], fr[live]


def _window_cuts(n_in: int, n_out: int):
    """The slices of a live level's window on one axis, for every live m0.

    Entry m0 + n_out, for m0 in [-n_out, n_in), holds the slice of the
    zero-bordered input (one node wider than the window) and the slice of
    the output; see ``_live_windows``.
    """
    src, dst = [], []
    for m0 in range(-n_out, n_in):
        lo, hi = max(0, -m0 - 1), min(n_out, n_in - m0)
        src.append(slice(lo + m0 + 1, hi + m0 + 2))
        dst.append(slice(lo, hi))
    return src, dst


def _section(values: np.ndarray, i: int, w: float, fr: float) -> np.ndarray:
    """Slices i and i + 1 of the zero-bordered input blended with weights
    w = 1 - fr and fr: the input along axis 0 at a quadrature node that
    ``locate`` puts at (i - 1, fr)."""
    section = values[i] * w
    if fr != 0.0:
        section += fr * values[i + 1]
    return section


def _direction(plan: TransformPlan, adjoint: bool):
    """(input grid, output grid, quadrature count, offsets) of X or X*.

    offsets(u) holds the output levels' shifts at quadrature node u:
    u gamma(t) for X and -s gamma(u) for X*.
    """
    if adjoint:
        s_levels = plan.source_grid.axis_nodes(0)[:, None]
        return (plan.target_grid, plan.source_grid, plan.t_quad,
                lambda t_k: -s_levels * gamma_eval(plan.d, t_k))
    gam = gamma_eval(plan.d, plan.target_grid.axis_nodes(0))  # (n_t, d-1)
    return (plan.source_grid, plan.target_grid, plan.s_quad,
            lambda s_k: s_k * gam)


def _matched_schedule(in_grid: Grid, out_grid: Grid, n_quad: int, offsets):
    """The matched kernel's shift arithmetic for one plan and direction.

    Returns (step, entries) with one entry per quadrature node that has a
    live level: the arguments i, w and fr of its ``_section``, then, for
    the levels that ``_live_windows`` finds live, their src and dst windows
    as two tuples and their weights as one (levels, d - 1, 2) array holding
    (1 - fr, fr) per cross-section axis.  The windows' slices come from
    one ``_window_cuts`` table per axis, so pairs share them.
    """
    nodes, step = _quad_nodes(in_grid, n_quad)
    n_out = np.array(out_grid.counts[1:])
    cuts = [_window_cuts(n_i, n_o)
            for n_i, n_o in zip(in_grid.counts[1:], out_grid.counts[1:])]
    entries = []
    for u in nodes:
        live, shifts, frs = _live_windows(offsets(u), in_grid, out_grid)
        if not live.size:
            continue
        rows = (shifts + n_out).T.tolist()  # table entries, one list per axis
        src = [map(tab.__getitem__, r) for (tab, _), r in zip(cuts, rows)]
        dst = [map(tab.__getitem__, r) for (_, tab), r in zip(cuts, rows)]
        m0, fr = in_grid.locate(u, 0)
        fr = float(fr)
        entries.append((int(m0) + 1, 1.0 - fr, fr, tuple(zip(*src)),
                        tuple(zip(live.tolist(), *dst)),
                        np.stack([1.0 - frs, frs], axis=-1)))
    return step, tuple(entries)


def _run_schedule(values: np.ndarray, schedule, out_grid: Grid):
    """The matched kernel's blends and sums, read off a ``_matched_schedule``.

    values is the zero-bordered input.
    """
    step, entries = schedule
    out = np.zeros(out_grid.shape)
    tap_cuts = [((slice(None),) * axis + (slice(None, -1),),
                 (slice(None),) * axis + (slice(1, None),))
                for axis in range(out_grid.d - 1)]
    for i, w, fr, srcs, dsts, taps in entries:
        section = _section(values, i, w, fr)
        if not section.any():
            continue
        for src, dst, level_taps in zip(srcs, dsts, taps.tolist()):
            res = section[src]
            for (first, second), (w_lo, w_hi) in zip(tap_cuts, level_taps):
                blend = res[first] * w_lo
                if w_hi != 0.0:
                    blend += w_hi * res[second]
                res = blend
            out[dst] += res
    return out * step


def _sweep(values: np.ndarray, plan: TransformPlan, adjoint: bool):
    """Quadrature over the input grid's axis 0 of the incidence-shifted
    sections: X's values if not adjoint, else X*'s.

    At each node u the input slice is interpolated along axis 0 and
    resampled onto output level j's cross-section shifted by offsets(u)[j].
    """
    in_grid, out_grid, n_quad, offsets = _direction(plan, adjoint)
    # one zero node on every side of every axis: each tap of either kernel
    # lands on the input or on a zero
    values = np.pad(values, 1)
    if all(_matched(in_grid, out_grid, m) for m in range(1, in_grid.d)):
        schedule = plan._x_star_schedule if adjoint else plan._x_schedule
        return _run_schedule(values, schedule, out_grid)
    nodes, step = _quad_nodes(in_grid, n_quad)
    out = np.zeros(out_grid.shape)
    tasks = []
    for u in nodes:
        off = offsets(u)
        j0, j1 = _live_levels(off, in_grid, out_grid)
        if j0 < j1:
            tasks.append((u, off, j0, j1))
    workers = max(1, min(_CORES, _MAX_WORKERS, out.size // _MIN_PART))
    _run_parts([functools.partial(_level_part, values, tasks, in_grid,
                                  out_grid, out, k, workers)
                for k in range(workers)])
    return out * step


def apply_X(f: SampledField, plan: TransformPlan) -> SampledField:
    """Forward transform onto the plan's target grid."""
    _field(f, "apply_X", "source", grid=plan.source_grid)
    return SampledField(grid=plan.target_grid,
                        values=_sweep(f.values, plan, adjoint=False))


def apply_X_star(g: SampledField, plan: TransformPlan) -> SampledField:
    """Adjoint transform onto the plan's source grid."""
    _field(g, "apply_X_star", "target", grid=plan.target_grid)
    return SampledField(grid=plan.source_grid,
                        values=_sweep(g.values, plan, adjoint=True))


def bilinear(f: SampledField, g: SampledField, plan: TransformPlan) -> float:
    """The pairing integral of Xf against g over the target grid."""
    _field(f, "bilinear", "source", grid=plan.source_grid)
    _field(g, "bilinear", "target", grid=plan.target_grid)
    Xf = apply_X(f, plan)
    return float((Xf.values * g.values).sum() * plan.target_grid.cell_volume)


def phi_functional(f: SampledField, theta, plan: TransformPlan) -> float:
    """Rayleigh quotient: mixed norm of Xf over the L^p norm of f."""
    _field(f, "phi_functional")
    trip = triple_for_theta(plan.d, theta)
    denom = lp_norm(f, trip.p)
    if denom == 0:
        raise ZeroDivisionError("phi_functional is undefined for the zero field")
    Xf = apply_X(f, plan)
    return mixed_norm(Xf, trip.q, trip.r) / denom
