"""Extremizer search: dual multipliers, power ascent, and localization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from momentxray.exponents import INF
from momentxray.field import SampledField, lp_norm, mixed_norm
from momentxray.search import (
    PHI_SLACK,
    SearchConfig,
    SearchState,
    ascent_step,
    dual_map,
    init_state,
    localization_report,
    r95_radius,
    renormalize_state,
    run_search,
)
from momentxray.xray import apply_X, bilinear

from conftest import box_grid

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

    def test_report_dict_keys(self, tmp_path):
        cfg = SearchConfig(counts=12, seed=3, max_iters=2,
                           out_dir=str(tmp_path))
        rep = run_search(cfg)
        keys = set(rep.as_dict())
        assert keys == {"bestPhi", "finalPhi", "iters", "converged", "r95",
                        "fieldPath", "logPath"}


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
