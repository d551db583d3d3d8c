"""The restricted X-ray transform, its adjoint, and the shape functional."""

import io
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from momentxray import xray
from momentxray.field import (Grid, SampledField, gamma_eval, grid_from_box,
                              lp_norm, mixed_norm)
from momentxray.symmetry import Symmetry, Translate, pullback_source
from momentxray.xray import (
    TransformPlan,
    _quad_nodes,
    apply_X,
    apply_X_star,
    bilinear,
    phi_functional,
)

from conftest import box_grid

D = 3
THETA = Fraction(5, 6)

# grids aligned so that integer lattice points are nodes; h = 0.125 is an
# exact binary float and the cube [-1,1]^3 is resolved without remainder
H = 0.125
SRC_CUBE = Grid(D, "source", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
TGT_LINE = Grid(D, "target", (-1.0,) * D, (H,) * D, (17,) * D)


def cube_field():
    return SampledField(SRC_CUBE, np.ones((16,) * D))


class TestApplyX:
    def test_zero_maps_to_zero(self):
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(SampledField(SRC_CUBE, np.zeros((16,) * D)), plan)
        assert np.all(out.values == 0.0)

    def test_cube_center_line(self):
        # the line through (t=0, y=0) meets the cube in s-length 2
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(cube_field(), plan)
        assert out.values[8, 8, 8] == pytest.approx(2.0, abs=1e-12)

    def test_cube_diagonal_line(self):
        # t = 1 gives the diagonal direction (1,1); still a chord of length 2
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        out = apply_X(cube_field(), plan)
        assert out.values[16, 8, 8] == pytest.approx(2.0, abs=1e-9)

    def test_linear(self):
        rng = np.random.default_rng(3)
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        a = rng.random((16,) * D)
        b = rng.random((16,) * D)
        xa = apply_X(SampledField(SRC_CUBE, a), plan).values
        xb = apply_X(SampledField(SRC_CUBE, b), plan).values
        xab = apply_X(SampledField(SRC_CUBE, a + 2.5 * b), plan).values
        assert np.max(np.abs(xab - xa - 2.5 * xb)) <= 1e-12

    def test_positivity(self):
        rng = np.random.default_rng(5)
        plan = TransformPlan(SRC_CUBE, TGT_LINE)
        f = SampledField(SRC_CUBE, rng.random((16,) * D))
        assert np.all(apply_X(f, plan).values >= 0.0)

    def test_grid_mismatch_rejected(self):
        other = box_grid("source", -1, 1, 12)
        plan = TransformPlan(other, TGT_LINE)
        with pytest.raises(ValueError):
            apply_X(cube_field(), plan)


class TestApplyXStar:
    def test_cube_center_value(self):
        tgt = Grid(D, "target", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
        src = Grid(D, "source", (-1.0,) * D, (H,) * D, (17,) * D)
        g = SampledField(tgt, np.ones((16,) * D))
        plan = TransformPlan(src, tgt)
        out = apply_X_star(g, plan)
        assert out.values[8, 8, 8] == pytest.approx(2.0, abs=1e-12)

    def test_zero(self):
        tgt = Grid(D, "target", (-1.0 + H / 2,) * D, (H,) * D, (16,) * D)
        src = Grid(D, "source", (-1.0,) * D, (H,) * D, (17,) * D)
        g = SampledField(tgt, np.zeros((16,) * D))
        out = apply_X_star(g, TransformPlan(src, tgt))
        assert np.all(out.values == 0.0)


class TestAdjointness:
    def test_pairing_identity(self):
        rng = np.random.default_rng(7)
        sg = box_grid("source", -2, 2, 20)
        tg = box_grid("target", -2, 2, 20)
        f = SampledField(sg, rng.random((20,) * D))
        g = SampledField(tg, rng.random((20,) * D))
        plan = TransformPlan(sg, tg)
        lhs = bilinear(f, g, plan)
        xsg = apply_X_star(g, plan)
        rhs = float(np.sum(f.values * xsg.values) * sg.cell_volume)
        assert abs(lhs - rhs) <= 1e-6 * abs(lhs)


    def test_pairing_identity_d4(self):
        # matched grids in d = 4: the two sweeps agree to rounding
        rng = np.random.default_rng(43)
        sg = box_grid("source", -2, 2, 10, 4)
        tg = box_grid("target", -2, 2, 10, 4)
        f = SampledField(sg, rng.random(sg.shape))
        g = SampledField(tg, rng.random(tg.shape))
        plan = TransformPlan(sg, tg)
        lhs = bilinear(f, g, plan)
        rhs = float(np.sum(f.values * apply_X_star(g, plan).values)
                    * sg.cell_volume)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def _stretched(grid):
    # cross-section spacings off by 1e-9 relative: past the 1e-12 matched
    # test, so the transform resamples with the level-batched kernel
    h = grid.spacing[:1] + tuple(v * (1 + 1e-9) for v in grid.spacing[1:])
    return Grid(grid.d, grid.side, grid.origin, h, grid.counts)


class TestKernelAgreement:
    @pytest.mark.parametrize("d,n", [(3, 12), (4, 8)])
    def test_shift_and_dense_kernels_agree(self, d, n):
        rng = np.random.default_rng(41)
        sg = box_grid("source", -1.5, 1.5, n, d)
        tg = box_grid("target", -1.5, 1.5, n, d)
        shift = TransformPlan(sg, tg)
        dense = TransformPlan(sg, _stretched(tg))
        f = SampledField(sg, rng.random(sg.shape))
        gv = rng.random(tg.shape)
        x_gap = apply_X(f, dense).values - apply_X(f, shift).values
        assert np.max(np.abs(x_gap)) <= 1e-6
        xs_gap = (apply_X_star(SampledField(dense.target_grid, gv), dense).values
                  - apply_X_star(SampledField(tg, gv), shift).values)
        assert np.max(np.abs(xs_gap)) <= 1e-6


# The resampling kernels that the level-batched and live-window ones
# replaced, one output level at a time: a hat matrix per (quadrature node,
# output level, axis) applied by tensordot on a mismatched axis, and a
# two-tap ``_shift_blend`` over the whole section on a matched one (and on
# axis 0 for both).  Kept as the references for both paths.

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


def _axis_matrix(targets, origin, spacing, n):
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


def _dense_cross_section(slice_vals, offsets, in_grid, out_grid):
    res = slice_vals
    for m in range(1, in_grid.d):
        h_in = in_grid.spacing[m]
        axis = m - 1
        if abs(out_grid.spacing[m] - h_in) <= 1e-12 * h_in:
            u0 = (out_grid.origin[m] + offsets[m - 1] - in_grid.origin[m]) / h_in
            m0 = int(np.floor(u0))
            res = _shift_blend(res, axis, m0, u0 - m0, out_grid.counts[m])
        else:
            W = _axis_matrix(out_grid.axis_nodes(m) + offsets[m - 1],
                             in_grid.origin[m], h_in, in_grid.counts[m])
            res = np.moveaxis(np.tensordot(W, np.moveaxis(res, axis, 0),
                                           axes=(1, 0)), 0, axis)
    return res


def _dense_sweep(values, in_grid, out_grid, n_quad, offsets):
    nodes, step = _quad_nodes(in_grid, n_quad)
    out = np.zeros(out_grid.shape)
    for u in nodes:
        pos = (u - in_grid.origin[0]) / in_grid.spacing[0]
        m0 = int(np.floor(pos))
        section = _shift_blend(values, 0, m0, pos - m0, 1)[0]
        if not section.any():
            continue
        for j, off in enumerate(offsets(u)):
            out[j] += _dense_cross_section(section, off, in_grid, out_grid)
    return out * step


def _dense_X(f, plan, sweep=_dense_sweep):
    gam = gamma_eval(plan.d, plan.target_grid.axis_nodes(0))
    return sweep(f.values, plan.source_grid, plan.target_grid, plan.s_quad,
                 lambda s_k: s_k * gam)


def _dense_X_star(g, plan, sweep=_dense_sweep):
    s_levels = plan.source_grid.axis_nodes(0)[:, None]
    return sweep(g.values, plan.target_grid, plan.source_grid, plan.t_quad,
                 lambda t_k: -s_levels * gamma_eval(plan.d, t_k))


def _mixed(side, n, h2):
    # axis 1 has spacing 0.25 on both sides; axis 2 has h2
    return Grid(3, side, (-2.0, -2.0, -2.1), (0.25, 0.25, h2), (n, n, n))


def _far(side, d, n):
    # cross-section box 40 units away: every level's shifted points miss
    # the other side's box
    return grid_from_box(d, side, [-2.0] + [38.0] * (d - 1),
                         [2.0] + [42.0] * (d - 1), [n] * d)


LEVEL_CASES = {
    # name: (source grid, target grid, zero the outer input slices)
    "d3-32-40": (box_grid("source", -2.5, 2.5, 32, 3),
                 box_grid("target", -2.3, 2.3, 40, 3), False),
    "d4-12-14": (box_grid("source", -2.5, 2.5, 12, 4),
                 box_grid("target", -2.3, 2.3, 14, 4), False),
    "mixed": (_mixed("source", 16, 0.25), _mixed("target", 16, 0.3), False),
    # every level's shifted section runs over both edges of the input box
    "over-edges": (box_grid("source", -1.0, 1.0, 12, 3),
                   box_grid("target", -2.6, 2.6, 15, 3), False),
    "off-box": (box_grid("source", -2.0, 2.0, 12, 3), _far("target", 3, 14),
                False),
    "empty-slices": (box_grid("source", -2.5, 2.5, 16, 3),
                     box_grid("target", -2.2, 2.2, 18, 3), True),
}


class TestLevelKernel:
    @pytest.mark.parametrize("case", sorted(LEVEL_CASES))
    def test_matches_dense_reference(self, case):
        sg, tg, hollow = LEVEL_CASES[case]
        plan = TransformPlan(sg, tg)
        rng = np.random.default_rng(60)
        for grid, op, ref in ((sg, apply_X, _dense_X),
                              (tg, apply_X_star, _dense_X_star)):
            vals = rng.random(grid.shape)
            if hollow:
                # zero slices at both ends and in the middle, so some
                # quadrature nodes see an empty section
                vals[:4] = vals[-4:] = vals[7:9] = 0.0
            field = SampledField(grid, vals)
            want = ref(field, plan)
            got = op(field, plan).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            if case == "off-box":
                assert not got.any()
            else:
                assert np.max(np.abs(want)) > 0.0


# The level-batched sweep before it skipped dead levels and dealt levels
# out to threads: every output level at every quadrature node, on the
# calling thread.  Kept as the byte-exact reference for that kernel.

def _full_taps(in_grid, out_grid, m, shifts):
    n_in, h_in = in_grid.counts[m], in_grid.spacing[m]
    shifts = shifts[:, None]
    if abs(out_grid.spacing[m] - h_in) <= 1e-12 * h_in:
        u0 = (out_grid.origin[m] + shifts - in_grid.origin[m]) / h_in
        m0 = np.floor(u0)
        lo = m0.astype(np.int64) + np.arange(out_grid.counts[m])
        fr = np.broadcast_to(u0 - m0, lo.shape)
    else:
        u = (out_grid.axis_nodes(m) + shifts - in_grid.origin[m]) / h_in
        m0 = np.floor(u)
        lo = m0.astype(np.int64)
        fr = u - m0
    return (np.clip(lo + 1, 0, n_in + 1), np.clip(lo + 2, 0, n_in + 1),
            1.0 - fr, fr)


def _full_level_sections(section, offsets, in_grid, out_grid):
    n_levels = len(offsets)
    levels = np.arange(n_levels)[:, None]
    res = section
    for m in range(in_grid.d - 1, 0, -1):
        lo, hi, w_lo, w_hi = _full_taps(in_grid, out_grid, m,
                                        offsets[:, m - 1])
        axis = m - 1
        if res is not section:
            res = res.reshape(res.shape[:axis] + (-1,) + res.shape[axis + 2:])
            lo = lo * n_levels + levels
            hi = hi * n_levels + levels
        a = np.take(res, lo, axis=axis)
        b = np.take(res, hi, axis=axis)
        tail = (1,) * (in_grid.d - 1 - m)
        a *= w_lo.reshape(w_lo.shape + tail)
        b *= w_hi.reshape(w_hi.shape + tail)
        a += b
        res = a
    return res


def _full_level_sweep(values, in_grid, out_grid, n_quad, offsets):
    nodes, step = _quad_nodes(in_grid, n_quad)
    out = np.zeros(out_grid.shape)
    values = np.pad(values, 1)
    for u in nodes:
        pos = (u - in_grid.origin[0]) / in_grid.spacing[0]
        m0 = int(np.floor(pos))
        fr = pos - m0
        section = values[m0 + 1] * (1.0 - fr)
        if fr != 0.0:
            section += fr * values[m0 + 2]
        if not section.any():
            continue
        out += _full_level_sections(section, offsets(u), in_grid, out_grid)
    return out * step


BATCHED_CASES = {
    # name: (source grid, target grid, quadrature nodes per grid level,
    #        zero some input slices); some cross-section axis mismatched
    **{name: (sg, tg, 1, hollow)
       for name, (sg, tg, hollow) in LEVEL_CASES.items()},
    # the size of a pairing op's moved plan, where the shifts put about a
    # quarter of the levels wholly off the box at each node
    "d3-64-60-2n": (box_grid("source", -3.0, 3.0, 64, 3),
                    box_grid("target", -2.9, 2.8, 60, 3), 2, True),
    "d4-14-13-2n": (box_grid("source", -2.5, 2.5, 14, 4),
                    box_grid("target", -2.2, 2.4, 13, 4), 2, False),
}


def _count_parts(monkeypatch):
    """Record how many parts each batched sweep runs."""
    seen = []
    run = xray._run_parts

    def counting(parts):
        seen.append(len(parts))
        run(parts)

    monkeypatch.setattr(xray, "_run_parts", counting)
    return seen


class TestBatchedKernel:
    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_byte_identical_for_any_worker_count(self, case, monkeypatch):
        sg, tg, per_level, hollow = BATCHED_CASES[case]
        plan = TransformPlan(sg, tg, per_level * sg.counts[0],
                             per_level * tg.counts[0])
        monkeypatch.setattr(xray, "_MIN_PART", 1)
        monkeypatch.setattr(xray, "_MAX_WORKERS", 3)
        seen = _count_parts(monkeypatch)
        baseline = threading.active_count()
        rng = np.random.default_rng(90)
        # a positive source field and a sign-changing target field
        for grid, op, ref, shift in ((sg, apply_X, _dense_X, 0.0),
                                     (tg, apply_X_star, _dense_X_star, 0.5)):
            vals = rng.random(grid.shape) - shift
            if hollow:
                n = grid.counts[0]
                vals[:4] = vals[-4:] = vals[n // 2 - 1:n // 2 + 1] = 0.0
            field = SampledField(grid, vals)
            want = ref(field, plan, sweep=_full_level_sweep).tobytes()
            for workers in (1, 2, 3):
                monkeypatch.setattr(xray, "_CORES", workers)
                assert op(field, plan).values.tobytes() == want
                assert seen[-1] == workers
                assert threading.active_count() == baseline

    @pytest.mark.parametrize("failing", [0, 2])
    def test_a_failing_part_reaches_the_caller(self, failing, monkeypatch):
        sg, tg, _ = LEVEL_CASES["d3-32-40"]
        plan = TransformPlan(sg, tg)
        monkeypatch.setattr(xray, "_CORES", 3)
        monkeypatch.setattr(xray, "_MAX_WORKERS", 3)
        monkeypatch.setattr(xray, "_MIN_PART", 1)
        part = xray._level_part

        def level_part(*args):
            if args[5] == failing:
                raise RuntimeError(f"part {failing} failed")
            part(*args)

        monkeypatch.setattr(xray, "_level_part", level_part)
        baseline = threading.active_count()
        field = SampledField(sg, np.ones(sg.shape))
        with pytest.raises(RuntimeError, match=f"part {failing} failed"):
            apply_X(field, plan)
        assert threading.active_count() == baseline

    def test_parts_without_a_thread_run_on_the_caller(self, monkeypatch):
        # under a thread limit the sweep still finishes, with the same bytes
        sg, tg, _ = LEVEL_CASES["d3-32-40"]
        plan = TransformPlan(sg, tg)
        field = SampledField(sg, np.random.default_rng(91).random(sg.shape))
        want = _dense_X(field, plan, sweep=_full_level_sweep).tobytes()
        monkeypatch.setattr(xray, "_CORES", 3)
        monkeypatch.setattr(xray, "_MAX_WORKERS", 3)
        monkeypatch.setattr(xray, "_MIN_PART", 1)
        start = threading.Thread.start
        started = []

        def start_once(thread):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        baseline = threading.active_count()
        assert apply_X(field, plan).values.tobytes() == want
        assert len(started) == 1
        assert threading.active_count() == baseline

    def test_workers_stay_within_the_measured_count(self, monkeypatch):
        # only two workers were timed; more cores do not start more
        monkeypatch.setattr(xray, "_CORES", 8)
        monkeypatch.setattr(xray, "_MIN_PART", 1)
        seen = _count_parts(monkeypatch)
        sg, tg, _ = LEVEL_CASES["d3-32-40"]
        apply_X(SampledField(sg, np.ones(sg.shape)), TransformPlan(sg, tg))
        assert seen == [2]

    @pytest.mark.parametrize("files,want", [
        ({"/sys/fs/cgroup/cpu.max": "150000 100000\n"}, 1),
        ({"/sys/fs/cgroup/cpu.max": "300000 100000\n"}, 3),
        ({"/sys/fs/cgroup/cpu.max": "max 100000\n"}, 8),
        ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "200000\n",
          "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, 2),
        ({"/sys/fs/cgroup/cpu/cpu.cfs_quota_us": "-1\n",
          "/sys/fs/cgroup/cpu/cpu.cfs_period_us": "100000\n"}, 8),
        ({}, 8),
    ])
    def test_usable_cores_respect_a_cpu_quota(self, files, want,
                                              monkeypatch):
        def fake_open(path):
            if path not in files:
                raise FileNotFoundError(path)
            return io.StringIO(files[path])

        monkeypatch.setattr(xray.os, "sched_getaffinity",
                            lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(xray, "open", fake_open, raising=False)
        assert xray._usable_cores() == want

    def test_small_blocks_stay_on_the_calling_thread(self, monkeypatch):
        # two threads ran 0.3-0.7x as fast as one on blocks this small
        monkeypatch.setattr(xray, "_CORES", 2)
        seen = _count_parts(monkeypatch)
        sg, tg, _ = LEVEL_CASES["d3-32-40"]
        field = SampledField(sg, np.ones(sg.shape))
        apply_X(field, TransformPlan(sg, tg))
        # the matched kernel never runs parts
        apply_X(field, TransformPlan(sg, box_grid("target", -2.5, 2.5, 32)))
        assert seen == [1]


class TestQuadNodes:
    def test_nodes_lie_within_half_a_cell_of_the_levels(self):
        # the sweep blends levels m0 and m0 + 1, m0 = floor(pos), as taps
        # m0 + 1 and m0 + 2 of the zero-bordered input (n + 2 levels); an
        # m0 outside [-1, n - 1] would wrap round in numpy without an error
        rng = np.random.default_rng(80)
        for _ in range(40):
            n = int(rng.integers(2, 70))
            lo = rng.uniform(-5.0, 5.0)
            grid = grid_from_box(3, "source", lo, lo + rng.uniform(0.1, 10.0),
                                 n)
            coprime = [m for m in range(2, 4 * n) if math.gcd(m, n) == 1]
            for n_quad in (n, 2 * n, *rng.choice(coprime, 3).tolist()):
                nodes, _ = _quad_nodes(grid, n_quad)
                pos = (nodes - grid.origin[0]) / grid.spacing[0]
                assert len(nodes) == n_quad
                assert np.all(np.abs(pos - np.clip(pos, 0, n - 1)) <= 0.5)
                m0 = np.floor(pos)
                assert m0.min() >= -1 and m0.max() <= n - 1


def _off_axis(side, d, n, axis):
    # cross-section axis `axis` spans [38, 42], 40 units from the other
    # side's: every level's window on that axis alone is empty
    lo, hi = [-2.0] * d, [2.0] * d
    lo[axis], hi[axis] = 38.0, 42.0
    return grid_from_box(d, side, lo, hi, [n] * d)


MATCHED_CASES = {
    # name: (source grid, target grid, quadrature nodes per grid level,
    #        zero some input slices); every cross-section axis is matched.
    # On the +-2.5 boxes the larger shifts u gamma(t) push levels partly
    # and fully off the box on every axis; odd counts put t = 0 and s = 0
    # on a node, a shift of zero cells.
    "d3-16": (box_grid("source", -2.5, 2.5, 16, 3),
              box_grid("target", -2.5, 2.5, 16, 3), 1, False),
    "d3-15-2n": (box_grid("source", -2.5, 2.5, 15, 3),
                 box_grid("target", -2.5, 2.5, 15, 3), 2, True),
    "d4-10": (box_grid("source", -2.5, 2.5, 10, 4),
              box_grid("target", -2.5, 2.5, 10, 4), 1, True),
    "d4-9-2n": (box_grid("source", -2.5, 2.5, 9, 4),
                box_grid("target", -2.5, 2.5, 9, 4), 2, False),
    # h = 1/8 and half-cell offset origins: t = -1, 0, 1 shift by whole
    # cells, so fr == 0 on those levels
    "aligned": (SRC_CUBE, TGT_LINE, 1, False),
    "off-axis-1": (box_grid("source", -2.0, 2.0, 12, 3),
                   _off_axis("target", 3, 12, 1), 1, False),
    "off-axis-2": (box_grid("source", -2.0, 2.0, 12, 3),
                   _off_axis("target", 3, 12, 2), 1, False),
    # unequal counts on the two cross-section axes, and between source and
    # target at one spacing: the padded rows (width n_in + n_out on the
    # last axis) and the output's row stride differ from every count
    "d3-unequal": (Grid(3, "source", (-1.375, -1.0, -1.625), (0.25,) * 3,
                        (12, 9, 14)),
                   Grid(3, "target", (-1.25, -1.5, -0.75), (0.25,) * 3,
                        (11, 13, 7)), 1, True),
}


def _window_kinds(in_grid, out_grid, n_quad, offsets):
    """{(d, axis, kind)} met by the sweep: a level's window on that axis is
    empty ("dead"), cut by the box ("partial"), or its shift is a whole
    number of cells ("aligned")."""
    kinds = set()
    for u in _quad_nodes(in_grid, n_quad)[0]:
        off = offsets(u)
        for m in range(1, in_grid.d):
            u0 = ((out_grid.origin[m] + off[:, m - 1] - in_grid.origin[m])
                  / in_grid.spacing[m])
            m0 = np.floor(u0)
            lo = np.maximum(0, -m0 - 1)
            hi = np.minimum(out_grid.counts[m], in_grid.counts[m] - m0)
            for kind, hit in (("dead", hi <= lo),
                              ("partial", (hi > lo) & ((lo > 0)
                                          | (hi < out_grid.counts[m]))),
                              ("aligned", u0 == m0)):
                if hit.any():
                    kinds.add((in_grid.d, m, kind))
    return kinds


class TestMatchedKernel:
    @pytest.mark.parametrize("case", sorted(MATCHED_CASES))
    def test_byte_identical_to_shift_blend_loop(self, case):
        sg, tg, per_level, hollow = MATCHED_CASES[case]
        plan = TransformPlan(sg, tg, per_level * sg.counts[0],
                             per_level * tg.counts[0])
        rng = np.random.default_rng(70)
        # a positive source field and a sign-changing target field
        for grid, op, ref, shift in ((sg, apply_X, _dense_X, 0.0),
                                     (tg, apply_X_star, _dense_X_star, 0.5)):
            vals = rng.random(grid.shape) - shift
            if hollow:
                # empty sections at both ends and in the middle
                n = grid.counts[0]
                vals[:3] = vals[-3:] = vals[n // 2 - 1:n // 2 + 1] = 0.0
            field = SampledField(grid, vals)
            got = op(field, plan).values
            assert got.tobytes() == ref(field, plan).tobytes()
            assert got.any() == (not case.startswith("off-axis"))

    @pytest.mark.parametrize("case", sorted(
        name for name, (sg, *_) in MATCHED_CASES.items() if sg.d == 3))
    def test_sign_changing_input_on_padded_rows(self, case):
        # the padded-row layout adds +-0 between a window's rows: with
        # inputs of both signs and empty slices it must still give the
        # loop's bytes in both directions
        sg, tg, per_level, _ = MATCHED_CASES[case]
        plan = TransformPlan(sg, tg, per_level * sg.counts[0],
                             per_level * tg.counts[0])
        rng = np.random.default_rng(71)
        for grid, op, ref in ((sg, apply_X, _dense_X),
                              (tg, apply_X_star, _dense_X_star)):
            vals = rng.random(grid.shape) - 0.5
            n = grid.counts[0]
            vals[:2] = vals[-2:] = vals[n // 2] = 0.0
            field = SampledField(grid, vals)
            got = op(field, plan).values
            assert got.tobytes() == ref(field, plan).tobytes()

    def test_cases_cover_every_window_kind(self):
        seen = set()
        for sg, tg, per_level, _ in MATCHED_CASES.values():
            plan = TransformPlan(sg, tg, per_level * sg.counts[0],
                                 per_level * tg.counts[0])
            gam = gamma_eval(plan.d, tg.axis_nodes(0))
            s_levels = sg.axis_nodes(0)[:, None]
            seen |= _window_kinds(sg, tg, plan.s_quad, lambda s: s * gam)
            seen |= _window_kinds(tg, sg, plan.t_quad,
                                  lambda t: -s_levels * gamma_eval(plan.d, t))
        assert seen == {(d, m, kind) for d in (3, 4) for m in range(1, d)
                        for kind in ("dead", "partial", "aligned")}


SCHEDULE_CASES = {
    # name: (source grid, target grid, quadrature nodes per grid level);
    # the mixed plan has a mismatched axis and keeps no schedule
    **{name: MATCHED_CASES[name][:3]
       for name in ("d3-16", "d3-15-2n", "d4-10", "d4-9-2n")},
    "mixed": LEVEL_CASES["mixed"][:2] + (1,),
}


def _schedule_plan(case):
    sg, tg, per_level = SCHEDULE_CASES[case]
    return TransformPlan(sg, tg, per_level * sg.counts[0],
                         per_level * tg.counts[0])


class TestPlanSchedule:
    """A plan keeps the matched kernel's schedule of each direction after
    its first use; later calls give the bytes a fresh plan gives."""

    @pytest.mark.parametrize("case", sorted(SCHEDULE_CASES))
    def test_reuse_gives_a_fresh_plans_bytes(self, case):
        plan = _schedule_plan(case)
        rng = np.random.default_rng(90)
        for grid, op in ((plan.source_grid, apply_X),
                         (plan.target_grid, apply_X_star)):
            field = SampledField(grid, rng.random(grid.shape) - 0.3)
            hollow = field.values.copy()
            hollow[:3] = hollow[-3:] = 0.0  # empty sections at both ends
            other = SampledField(grid, hollow)
            first = op(field, plan).values.tobytes()
            second = op(other, plan).values.tobytes()
            third = op(field, plan).values.tobytes()
            fresh = [op(v, _schedule_plan(case)).values.tobytes()
                     for v in (field, other)]
            assert first == third == fresh[0]
            assert second == fresh[1]
        kept = {"_x_schedule", "_x_star_schedule"} & set(vars(plan))
        assert kept == (set() if case == "mixed"
                        else {"_x_schedule", "_x_star_schedule"})

    def test_each_direction_is_scheduled_on_its_first_call(self, monkeypatch):
        calls = []
        live = xray._live_windows

        def counting(*args):
            calls.append(args)
            return live(*args)

        monkeypatch.setattr(xray, "_live_windows", counting)
        plan = _schedule_plan("d3-15-2n")
        rng = np.random.default_rng(91)
        f = SampledField(plan.source_grid, rng.random(plan.source_grid.shape))
        g = SampledField(plan.target_grid, rng.random(plan.target_grid.shape))
        for _ in range(3):
            apply_X(f, plan)
        assert len(calls) == plan.s_quad
        for _ in range(3):
            apply_X_star(g, plan)
        assert len(calls) == plan.s_quad + plan.t_quad

    @pytest.mark.parametrize("case", ["d3-16", "d4-9-2n"])
    def test_threads_on_a_fresh_plan(self, case):
        # more threads than cores, switching often, all making the plan's
        # first X and X*: each may build a schedule, and every thread must
        # still get a fresh plan's bytes
        plan = _schedule_plan(case)
        rng = np.random.default_rng(92)
        f = SampledField(plan.source_grid, rng.random(plan.source_grid.shape))
        g = SampledField(plan.target_grid, rng.random(plan.target_grid.shape))
        want = [op(v, _schedule_plan(case)).values.tobytes()
                for op, v in ((apply_X, f), (apply_X_star, g))]
        workers = 4
        start = threading.Barrier(workers)
        got, errors = [], []

        def first_calls():
            try:
                start.wait(timeout=30)
                got.append([op(v, plan).values.tobytes()
                            for op, v in ((apply_X, f), (apply_X_star, g))])
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_calls)
                       for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert got == [want] * workers

    @pytest.mark.parametrize("case", ["d3-16", "d4-10"])
    def test_layout_follows_d(self, case):
        # d = 3 runs on padded rows of width n_in + n_out on the last axis,
        # d = 4 on strided windows (width 0)
        plan = _schedule_plan(case)
        for schedule, in_grid, out_grid in (
                (plan._x_schedule, plan.source_grid, plan.target_grid),
                (plan._x_star_schedule, plan.target_grid, plan.source_grid)):
            width = schedule[1]
            assert width == (in_grid.counts[2] + out_grid.counts[2]
                             if plan.d == 3 else 0)

    def test_equal_plans_stay_equal_after_use(self):
        used, fresh = _schedule_plan("d3-16"), _schedule_plan("d3-16")
        rng = np.random.default_rng(93)
        apply_X(SampledField(used.source_grid,
                             rng.random(used.source_grid.shape)), used)
        assert "_x_schedule" in vars(used)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert len({used, fresh}) == 1


def _overlap(a, b, axis, k):
    """Slices of a and of b shifted by k nodes along axis that line up."""
    def cut(lo, hi):
        return (slice(None),) * axis + (slice(lo, hi),)
    n = a.shape[axis]
    if k > 0:
        return a[cut(0, n - k)], b[cut(k, n)]
    return a[cut(-k, n)], b[cut(0, n + k)]


class TestTranslationCovariance:
    @pytest.mark.parametrize("d,n", [(3, 16), (4, 10)])
    def test_grid_aligned_shifts_commute_exactly(self, d, n):
        # translating by whole cells along a cross-section axis commutes
        # with X and X* to the last bit; supports keep 3 cells from the
        # section edges, so the +-1, +-2 shifts lose no mass off the grid
        rng = np.random.default_rng(50 + d)
        sg = box_grid("source", -1.5, 1.5, n, d)
        tg = box_grid("target", -1.5, 1.5, n, d)
        plan = TransformPlan(sg, tg)
        inner = (slice(None),) + (slice(3, n - 3),) * (d - 1)
        for grid, op in ((sg, apply_X), (tg, apply_X_star)):
            vals = np.zeros(grid.shape)
            vals[inner] = rng.random(vals[inner].shape)
            out = op(SampledField(grid, vals), plan).values
            for axis in range(1, d):
                for k in (-2, -1, 1, 2):
                    moved = op(SampledField(grid, np.roll(vals, k, axis)),
                               plan).values
                    assert np.array_equal(*_overlap(out, moved, axis, k))


class TestBilinear:
    def test_unit_cubes_against_monte_carlo(self):
        # MC reference frozen from 1e7 samples, seed 2024: 0.666533
        n = 48
        sg = box_grid("source", 0, 1, n)
        tg = box_grid("target", 0, 1, n)
        f = SampledField(sg, np.ones((n,) * D))
        g = SampledField(tg, np.ones((n,) * D))
        val = bilinear(f, g, TransformPlan(sg, tg, 2 * n, 2 * n))
        assert val == pytest.approx(0.666533, rel=1e-2)

    def test_quadrature_refinement_ratio(self):
        # integrands with a nonzero endpoint slope decay at the midpoint rate
        def weighted(grid, c, w, slope):
            pts = grid.nodes()
            gauss = np.exp(-np.sum(((pts[..., 1:] - c) / w) ** 2, axis=-1))
            return SampledField(grid, np.exp(slope * pts[..., 0]) * gauss)

        n = 24
        sg = box_grid("source", -3, 3, n)
        tg = box_grid("target", -3, 3, n)
        f = weighted(sg, np.array([0.1, -0.2]), np.array([1.4, 1.5]), 0.45)
        g = weighted(tg, np.array([0.05, 0.1]), np.array([1.5, 1.4]), 0.35)
        ref = bilinear(f, g, TransformPlan(sg, tg, 256, 256))
        errs = [abs(bilinear(f, g, TransformPlan(sg, tg, nq, nq)) - ref)
                for nq in (8, 16, 32)]
        assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)
        assert errs[1] / errs[2] == pytest.approx(4.0, abs=1.0)


    @pytest.mark.parametrize("lo,hi,n", [(0, 4, 8), (-1, 1, 6)],
                             ids=["other-box", "other-shape"])
    def test_target_grid_mismatch_rejected(self, lo, hi, n):
        sg = box_grid("source", -1, 1, 8)
        plan = TransformPlan(sg, box_grid("target", -1, 1, 8))
        f = SampledField(sg, np.ones((8,) * D))
        g = SampledField(box_grid("target", lo, hi, n), np.ones((n,) * D))
        with pytest.raises(ValueError, match="plan's target grid"):
            bilinear(f, g, plan)


class TestPhiFunctional:
    def _setup(self):
        rng = np.random.default_rng(11)
        sg = box_grid("source", -2.5, 2.5, 20)
        tg = box_grid("target", -2.5, 2.5, 20)
        pts = sg.nodes()
        vals = np.exp(-2.0 * np.sum(pts ** 2, axis=-1)) * (
            1 + 0.2 * rng.random((20,) * D))
        return SampledField(sg, vals), TransformPlan(sg, tg)

    def test_scale_invariant(self):
        f, plan = self._setup()
        a = phi_functional(f, THETA, plan)
        b = phi_functional(f.with_values(3.0 * f.values), THETA, plan)
        assert b == pytest.approx(a, rel=1e-12)

    def test_positive_on_cube(self):
        sg = box_grid("source", -1, 1, 16)
        tg = box_grid("target", -1, 1, 16)
        f = SampledField(sg, np.ones((16,) * D))
        assert phi_functional(f, THETA, TransformPlan(sg, tg)) > 0.0

    def test_translation_invariance(self):
        # pure translation resamples exactly on the auto preimage grid
        f, plan = self._setup()
        base = phi_functional(f, THETA, plan)
        sig = Symmetry((Translate((0.25, -0.25)),))
        pf = pullback_source(sig, f, Fraction(3, 2))
        moved = phi_functional(pf, THETA, TransformPlan(pf.grid, plan.target_grid))
        assert moved == pytest.approx(base, rel=1e-3)

    def test_zero_field_error(self):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        f = SampledField(sg, np.zeros((8,) * D))
        with pytest.raises(ZeroDivisionError):
            phi_functional(f, THETA, TransformPlan(sg, tg))


class TestPlanValidation:
    def test_side_mismatch(self):
        sg = box_grid("source", -1, 1, 8)
        with pytest.raises(ValueError):
            TransformPlan(sg, sg)

    def test_numpy_integer_quad_accepted(self):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        plan = TransformPlan(sg, tg, np.int64(5), np.int32(6))
        assert (plan.s_quad, plan.t_quad) == (5, 6)

    def test_quad_too_small(self):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        with pytest.raises(ValueError):
            TransformPlan(sg, tg, 1, 8)

    @pytest.mark.parametrize("value", [2.5, True, "8", np.float64(8)],
                             ids=["float", "bool", "str", "numpy-float"])
    @pytest.mark.parametrize("name", ["s_quad", "t_quad"])
    def test_non_integer_quad_rejected(self, name, value):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TransformPlan(sg, tg, **{name: value})

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integer_quad_matches_int(self, kind):
        sg = box_grid("source", -1, 1, 8)
        tg = box_grid("target", -1, 1, 8)
        plan = TransformPlan(sg, tg, kind(5), kind(0))
        assert plan == TransformPlan(sg, tg, 5, 8)
        assert type(plan.s_quad) is int and type(plan.t_quad) is int
