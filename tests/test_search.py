"""Extremizer search: dual multipliers, power ascent, and localization."""

import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from momentxray.exponents import INF
from momentxray.field import (SampledField, grid_from_box, lp_norm, mixed_norm,
                              read_field)
from momentxray.search import (
    PHI_SLACK,
    SearchConfig,
    _normal_form,
    _normalized_profile,
    SearchState,
    ascent_step,
    dual_map,
    init_state,
    localization_report,
    r95_radius,
    renormalize_state,
    run_search,
)
from momentxray import xray
from momentxray.xray import apply_X, bilinear

from conftest import box_grid, non_reals

D = 3

# first ascent step from the unit-cube indicator on the default plan,
# regression values frozen at first run
PHI_CUBE_START = 1.480678530725
PHI_CUBE_STEP = 1.753949532254


def target_field(n, seed, lo=0.1, hi=2.0):
    rng = np.random.default_rng(seed)
    g = box_grid("target", -1, 1, n)
    return SampledField(g, rng.uniform(lo, hi, size=(n,) * D))


class TestDualMap:
    def test_hilbert_case(self):
        h = target_field(10, 1)
        g = dual_map(h, 2, 2)
        N = mixed_norm(h, 2, 2)
        assert np.max(np.abs(g.values - h.values / N)) <= 1e-12

    def test_unit_dual_norm_and_pairing(self):
        for q, r in [(2, 2), (Fraction(5, 2), Fraction(5, 3)), (3, 2)]:
            h = target_field(10, 2)
            g = dual_map(h, q, r)
            qc = Fraction(q) / (Fraction(q) - 1)
            rc = Fraction(r) / (Fraction(r) - 1)
            assert mixed_norm(g, qc, rc) == pytest.approx(1.0, abs=1e-10)
            pair = float(np.sum(h.values * g.values)) * h.grid.cell_volume
            assert pair == pytest.approx(mixed_norm(h, q, r), rel=1e-10)

    def test_slab_indicator_gives_constant(self):
        g = box_grid("target", 0, 1, 8)
        vals = np.zeros((8, 8, 8))
        vals[3] = 1.0
        out = dual_map(SampledField(g, vals), 2, 2)
        support = out.values[3]
        assert np.ptp(support) <= 1e-14
        assert np.all(out.values[[0, 1, 2, 4, 5, 6, 7]] == 0.0)

    def test_zero_field_error(self):
        g = box_grid("target", 0, 1, 4)
        with pytest.raises(ValueError):
            dual_map(SampledField(g, np.zeros((4, 4, 4))), 2, 2)

    def test_exponent_validation(self):
        h = target_field(4, 3)
        with pytest.raises(ValueError):
            dual_map(h, 1, 2)

    def test_infinite_exponent_rejected(self):
        h = target_field(4, 3)
        for q, r in [(INF, 2), (2, INF)]:
            with pytest.raises(ValueError, match="finite q, r > 1"):
                dual_map(h, q, r)

    def test_source_side_rejected(self):
        g = box_grid("source", 0, 1, 4)
        with pytest.raises(ValueError):
            dual_map(SampledField(g, np.ones((4, 4, 4))), 2, 2)


class TestAscent:
    def test_state_invariants_after_steps(self):
        cfg = SearchConfig(counts=16, seed=2)
        trip = cfg.exponents()
        st = init_state(cfg)
        for _ in range(3):
            st = ascent_step(st, cfg)
            assert lp_norm(st.f, trip.p) == pytest.approx(1.0, abs=1e-10)
            pair = bilinear(st.f, st.g, cfg.plan())
            assert pair == pytest.approx(st.phi, rel=1e-8)

    def test_monotone_with_slack(self):
        cfg = SearchConfig(counts=16, seed=4)
        st = init_state(cfg)
        for _ in range(6):
            nxt = ascent_step(st, cfg)
            assert nxt.phi >= st.phi - PHI_SLACK
            st = nxt

    def test_damping_tries_counted(self):
        cfg = SearchConfig(counts=12, seed=3)
        st = init_state(cfg)
        assert ascent_step(st, cfg).damping_tries == 0
        # a Phi no candidate can reach: all three halvings fail and the
        # step keeps the old iterate
        unreachable = replace(st, phi=st.phi + 1.0)
        kept = ascent_step(unreachable, cfg)
        assert kept.f is st.f
        assert kept.damping_tries == 3

    def test_cube_start_first_step_pinned(self):
        cfg = SearchConfig()
        plan = cfg.plan()
        trip = cfg.exponents()
        pts = plan.source_grid.nodes()
        cube = (np.max(np.abs(pts), axis=-1) <= 1.0).astype(float)
        f = SampledField(plan.source_grid, cube)
        f = f.with_values(f.values / lp_norm(f, trip.p))
        h = apply_X(f, plan)
        phi0 = mixed_norm(h, trip.q, trip.r)
        st = SearchState(it=0, f=f, g=dual_map(h, trip.q, trip.r), h=h, phi=phi0)
        st1 = ascent_step(st, cfg)
        assert phi0 == pytest.approx(PHI_CUBE_START, abs=1e-6)
        assert st1.phi == pytest.approx(PHI_CUBE_STEP, abs=1e-6)
        assert st1.phi > phi0

    def test_near_fixed_point_is_stationary(self):
        # run to convergence, then one more step moves Phi very little
        cfg = SearchConfig(counts=12, seed=3)
        st = init_state(cfg)
        for _ in range(11):
            st = ascent_step(st, cfg)
        nxt = ascent_step(st, cfg)
        assert abs(nxt.phi - st.phi) <= 1e-4 * st.phi

    def test_renormalize_never_lowers_phi(self):
        cfg = SearchConfig(counts=16, seed=6)
        st = init_state(cfg)
        st = ascent_step(st, cfg)
        rn = renormalize_state(st, cfg)
        assert rn.phi >= st.phi - PHI_SLACK


class TestRunSearch:
    def test_zero_iters_echoes_init(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=7, max_iters=0,
                           out_dir=str(tmp_path))
        rep = run_search(cfg)
        assert rep.iters == 0
        assert not rep.converged
        assert rep.best_phi == pytest.approx(init_state(cfg).phi, rel=1e-12)
        assert rep.best_phi == rep.final_phi

    def test_deterministic_log(self, tmp_path):
        logs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            cfg = SearchConfig(counts=12, seed=5, max_iters=6,
                               out_dir=str(out))
            run_search(cfg)
            logs.append((out / "search_log.jsonl").read_bytes())
        assert logs[0] == logs[1]

    def test_log_matches_history(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=3, out_dir=str(tmp_path))
        rep = run_search(cfg)
        lines = [json.loads(ln) for ln in
                 (tmp_path / "search_log.jsonl").read_text().splitlines()]
        assert len(lines) == len(rep.history)
        for ln, h in zip(lines, rep.history):
            assert ln["iter"] == h["iter"]
            assert ln["phi"] == pytest.approx(h["phi"], rel=1e-12)

    def test_converges_on_small_grid(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=3, out_dir=str(tmp_path))
        rep = run_search(cfg)
        assert rep.converged
        assert rep.iters <= cfg.max_iters
        assert (tmp_path / "extremizer.field").exists()

    def test_stalled_ascent_is_not_converged(self, monkeypatch):
        # X* g with no positive part leaves the iterate unchanged
        monkeypatch.setattr("momentxray.search.apply_X_star", _no_positive_part)
        rep = run_search(SearchConfig(counts=8, seed=1))
        assert not rep.converged
        assert rep.iters == 1

    def test_stop_reasons(self, monkeypatch):
        def reason(**kw):
            return run_search(SearchConfig(counts=8, seed=1, **kw)).stop_reason

        assert reason() == "converged"
        assert reason(max_iters=2) == "max_iters"
        monkeypatch.setattr("momentxray.search.apply_X_star", _no_positive_part)
        assert reason() == "stalled"

    def test_log_records_damping_tries(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=3, out_dir=str(tmp_path))
        rep = run_search(cfg)
        lines = [json.loads(ln) for ln in
                 (tmp_path / "search_log.jsonl").read_text().splitlines()]
        tries = [ln["damping_tries"] for ln in lines]
        assert len(tries) == rep.iters + 1
        assert all(isinstance(n, int) and 0 <= n <= 3 for n in tries)
        assert [h["damping_tries"] for h in rep.history] == tries

    def test_report_dict_keys(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=3, max_iters=2,
                           out_dir=str(tmp_path))
        rep = run_search(cfg)
        keys = set(rep.as_dict())
        assert keys == {"bestPhi", "finalPhi", "iters", "converged", "r95",
                        "fieldPath", "logPath", "stopReason"}

    def test_stall_after_accepted_renorm(self, monkeypatch):
        # the renormalisation is accepted, then the ascent keeps its iterate
        renormed = []

        def moved(state, cfg):
            renormed.append(state.f.with_values(state.f.values.copy()))
            return replace(state, f=renormed[-1])

        monkeypatch.setattr("momentxray.search.renormalize_state", moved)
        monkeypatch.setattr("momentxray.search.apply_X_star", _no_positive_part)
        rep = run_search(SearchConfig(counts=8, seed=1, renorm_every=1))
        assert rep.stop_reason == "stalled"
        assert rep.iters == 1
        assert rep.history[1]["renorm_applied"] is True
        assert len(renormed) == 1 and rep.state.f is renormed[0]


class TestReportState:
    """The report carries the final iterate; the files agree with it."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("search")
        cfg = SearchConfig(counts=12, seed=3, max_iters=4, out_dir=str(out))
        return run_search(cfg), out

    def test_state_f_is_the_written_field(self, written):
        rep, out = written
        assert rep.field_path == str(out / "extremizer.field")
        raw = read_field(rep.field_path).values.tobytes()
        assert rep.state.f.values.tobytes() == raw

    def test_final_phi_and_iters_come_from_state(self, written):
        rep, _ = written
        assert rep.final_phi == rep.state.phi == rep.history[-1]["phi"]
        assert rep.iters == rep.state.it == rep.history[-1]["iter"]
        assert rep.best_phi == max(h["phi"] for h in rep.history)
        h = apply_X(rep.state.f, SearchConfig(counts=12).plan())
        assert rep.state.h.values.tobytes() == h.values.tobytes()

    def test_report_json_is_as_dict(self, written):
        rep, out = written
        doc = json.loads((out / "report.json").read_text())
        assert doc == rep.as_dict()
        assert doc["fieldPath"] == "extremizer.field"
        assert doc["logPath"] == "search_log.jsonl"
        assert doc["stopReason"] == rep.stop_reason

    def test_no_out_dir_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rep = run_search(SearchConfig(counts=8, seed=1, max_iters=1))
        assert rep.field_path is None and rep.log_path is None
        assert rep.as_dict()["fieldPath"] is None
        assert rep.state.f.values.shape == (8,) * D
        assert list(tmp_path.iterdir()) == []


class TestSharedPlan:
    """One plan per config: a run builds each direction's matched-kernel
    schedule once, and a reused config writes the bytes of a fresh one."""

    OUTPUTS = ("extremizer.field", "search_log.jsonl", "report.json")

    def test_one_plan_per_config(self):
        cfg = SearchConfig(counts=8)
        assert cfg.plan() is cfg.plan()
        assert cfg.plan() == SearchConfig(counts=8).plan()
        assert replace(cfg, counts=10).plan().source_grid.counts == (10,) * D

    def test_a_run_schedules_each_direction_once(self, monkeypatch):
        calls = []
        live = xray._live_windows

        def counting(*args):
            calls.append(args)
            return live(*args)

        monkeypatch.setattr(xray, "_live_windows", counting)
        cfg = SearchConfig(counts=8, seed=1, max_iters=6, renorm_every=2,
                           tol_phi=0.0)
        rep = run_search(cfg)
        assert rep.iters >= 3
        plan = cfg.plan()
        assert len(calls) == plan.s_quad + plan.t_quad

    def test_reused_config_writes_a_fresh_ones_bytes(self, tmp_path):
        cfg = SearchConfig(counts=10, seed=2, max_iters=6, renorm_every=2,
                           out_dir=str(tmp_path / "reused"))

        def written(run_cfg):
            run_search(run_cfg)
            return [Path(run_cfg.out_dir, name).read_bytes()
                    for name in self.OUTPUTS]

        first = written(cfg)
        again = written(cfg)
        fresh = written(replace(cfg, out_dir=str(tmp_path / "fresh")))
        assert first == again == fresh


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        {"tol_phi": float("nan")}, {"tol_phi": float("inf")},
        {"tol_phi": -1e-4}, {"jitter": float("inf")},
        {"jitter": float("nan")}, {"jitter": -0.05}, {"max_iters": -1},
        {"renorm_every": -5},
    ], ids=["tol-nan", "tol-inf", "tol-negative", "jitter-inf",
            "jitter-nan", "jitter-negative", "max-iters-negative",
            "renorm-every-negative"])
    def test_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            SearchConfig(**kw)

    def test_zero_budget_and_tolerance_accepted(self):
        cfg = SearchConfig(max_iters=0, tol_phi=0.0, jitter=0.0)
        assert (cfg.max_iters, cfg.tol_phi, cfg.jitter) == (0, 0.0, 0.0)

    @pytest.mark.parametrize("box_half", [float("nan"), float("inf"),
                                          -float("inf"), -1.0, 0.0],
                             ids=["nan", "inf", "minus-inf", "negative",
                                  "zero"])
    def test_box_half_rejected_at_construction(self, box_half):
        with pytest.raises(ValueError, match="box_half"):
            SearchConfig(box_half=box_half)

    @pytest.mark.parametrize("value", non_reals("nan", "inf"))
    @pytest.mark.parametrize("name", ["box_half", "tol_phi", "jitter"])
    def test_reals_by_rule(self, name, value):
        with pytest.raises(ValueError, match=rf"\b{name} must be"):
            SearchConfig(**{name: value})

    def test_overflowing_box_rejected_by_plan(self):
        cfg = SearchConfig(box_half=1e308)
        with pytest.raises(ValueError, match="finite"):
            cfg.plan()

    INTEGERS = ("d", "counts", "max_iters", "renorm_every", "seed")

    @pytest.mark.parametrize("value", [2.5, True, "8", np.float64(8)],
                             ids=["float", "bool", "str", "numpy-float"])
    @pytest.mark.parametrize("name", INTEGERS)
    def test_non_integers_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SearchConfig(**{name: value})

    @pytest.mark.parametrize("name, least", [("d", 3), ("counts", 2),
                                             ("seed", 0)])
    def test_integer_bounds(self, name, least):
        with pytest.raises(ValueError, match=f"{name} must be >= {least}"):
            SearchConfig(**{name: least - 1})
        assert getattr(SearchConfig(**{name: least}), name) == least

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integers_become_ints(self, kind):
        given = dict(d=4, counts=10, max_iters=3, renorm_every=2, seed=9)
        cfg = SearchConfig(**{k: kind(v) for k, v in given.items()})
        assert cfg == SearchConfig(**given)
        assert all(type(getattr(cfg, k)) is int for k in self.INTEGERS)

    def test_numpy_integer_run_writes_the_same_bytes(self, tmp_path):
        given = dict(counts=8, max_iters=4, renorm_every=2, seed=3)

        def written(kind, out):
            cfg = SearchConfig(**{k: kind(v) for k, v in given.items()},
                               out_dir=str(tmp_path / out))
            run_search(cfg)
            return [Path(cfg.out_dir, name).read_bytes()
                    for name in TestSharedPlan.OUTPUTS]

        assert written(np.int64, "numpy") == written(int, "python")


def _no_positive_part(g, plan):
    grid = plan.source_grid
    return SampledField(grid, -np.ones(grid.shape))


class TestLocalization:
    def _bump(self, n=24):
        g = box_grid("source", -2, 2, n)
        pts = g.nodes()
        vals = np.exp(-4.0 * np.sum(pts ** 2, axis=-1))
        return SampledField(g, vals)

    def test_zero_beyond_support_and_bound(self):
        f = self._bump()
        assert localization_report(f, 2, 10.0) == 0.0

    def test_nonincreasing_in_radius(self):
        f = self._bump()
        fracs = [localization_report(f, 2, R) for R in (0.2, 0.5, 1.0, 2.0)]
        assert all(a >= b - 1e-15 for a, b in zip(fracs, fracs[1:]))

    def test_r95_definition(self):
        f = self._bump()
        R = r95_radius(f, 2)
        frac = localization_report(f, 2, R)
        assert frac <= 0.06

    def test_zero_field_error(self):
        g = box_grid("source", -1, 1, 4)
        with pytest.raises(ValueError):
            r95_radius(SampledField(g, np.zeros((4, 4, 4))), 2)

    @pytest.mark.parametrize("quantile", non_reals() + [
        pytest.param(0.0, id="zero"), pytest.param(1.5, id="above-one"),
        pytest.param(-0.5, id="negative")])
    def test_quantile_rejected(self, quantile):
        with pytest.raises(ValueError, match=r"\bquantile must"):
            r95_radius(self._bump(8), 2, quantile)

    @pytest.mark.parametrize("R", non_reals() + [
        pytest.param(-1.0, id="negative")])
    def test_radius_rejected(self, R):
        with pytest.raises(ValueError, match=r"\bR must be"):
            localization_report(self._bump(8), 2, R)

    def test_closed_ends_accepted(self):
        f = self._bump(8)
        assert r95_radius(f, 2, 1) == r95_radius(f, 2, 1.0)
        assert localization_report(f, 2, 0) == localization_report(f, 2, 0.0)

    @staticmethod
    def _skewed(d, counts, seed):
        g = grid_from_box(d, "source", -2.5, 2.5, counts)
        z = g.nodes()
        rng = np.random.default_rng(seed)
        vals = np.exp(-((z - 0.3) ** 2 * rng.uniform(1, 3, d)).sum(axis=-1))
        return SampledField(g, vals * (1.0 + 0.1 * rng.random(g.shape)))

    @pytest.mark.parametrize("d, counts", [(3, (17, 23, 19)), (4, 12),
                                           (4, (9, 11, 7, 13))])
    def test_profile_same_bytes_as_full_lattice(self, d, counts):
        f = self._skewed(d, counts, 40 + d)
        key, w = _normalized_profile(f, Fraction(3, 2))
        # the profile with its radii from the full node lattice
        fn = _normal_form(f, Fraction(3, 2))
        av = np.abs(fn.values).ravel()
        want_w = av ** 1.5 * fn.grid.cell_volume
        radii = np.linalg.norm(fn.grid.nodes().reshape(-1, d), axis=1)
        want_key = np.maximum(radii, av / lp_norm(fn, Fraction(3, 2)))
        assert key.tobytes() == want_key.tobytes()
        assert w.tobytes() == (want_w / want_w.sum()).tobytes()

    def test_r95_traced_peak_at_d4(self):
        # measured 3.1 MB; the full node lattice took 6.5 MB
        f = self._skewed(4, 16, 48)
        r95_radius(f, Fraction(8, 5))
        tracemalloc.start()
        try:
            r95_radius(f, Fraction(8, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0 * 2 ** 20
