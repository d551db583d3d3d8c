"""Iterative search for extremizers of the mixed-norm operator ratio.

Alternates the exact dual multiplier of the current output with a power
ascent on the pulled-back density, re-centering the iterate with the
symmetry group every few steps so mass cannot drift off the grid.  The
functional Phi(f) = |Xf|_{q,r} / |f|_p is tracked per iteration and is
nondecreasing up to the damping tolerance.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from .exponents import Infinity, as_float, conj_exponent, triple_for_theta
from .field import (SampledField, _slice_r_norms, grid_from_box, lp_norm,
                    mixed_norm, write_field)
from .paraball import raster_primal, unit_paraball
from .symmetry import normalize_symmetry, pullback_source
from .xray import TransformPlan, apply_X, apply_X_star

PHI_SLACK = 1e-8


@dataclass(frozen=True)
class SearchConfig:
    d: int = 3
    theta: object = Fraction(5, 6)
    counts: int = 24
    box_half: float = 2.5
    max_iters: int = 40
    tol_phi: float = 1e-4
    renorm_every: int = 5
    seed: int = 0
    jitter: float = 0.05
    out_dir: str | None = None

    def exponents(self):
        trip = triple_for_theta(self.d, self.theta)
        if isinstance(trip.q, Infinity):
            raise ValueError("search needs 0 < theta < 1")
        return trip

    def plan(self) -> TransformPlan:
        L = self.box_half
        src = grid_from_box(self.d, "source", -L, L, self.counts)
        tgt = grid_from_box(self.d, "target", -L, L, self.counts)
        return TransformPlan(source_grid=src, target_grid=tgt)


@dataclass(frozen=True)
class SearchState:
    it: int
    f: SampledField = dc_field(repr=False)
    g: SampledField = dc_field(repr=False)
    h: SampledField = dc_field(repr=False)
    phi: float = 0.0


@dataclass(frozen=True)
class SearchReport:
    best_phi: float
    final_phi: float
    iters: int
    converged: bool
    r95: float
    field_path: str | None
    log_path: str | None
    history: tuple = dc_field(repr=False, default=())

    def as_dict(self):
        return {"bestPhi": self.best_phi, "finalPhi": self.final_phi,
                "iters": self.iters, "converged": self.converged,
                "r95": self.r95, "fieldPath": self.field_path,
                "logPath": self.log_path}


def dual_map(h: SampledField, q, r) -> SampledField:
    """Unit-norm dual multiplier: <h, dual_map(h)> = |h|_{q,r} exactly.

    g = sign(h) |h|^{r-1} n(t)^{q-r} / N^{q-1} with n(t) the slice r-norm
    and N the mixed norm, both taken with the grid cell weights, so the
    discrete pairing identity holds to rounding.
    """
    if h.side != "target":
        raise ValueError("dual_map expects a target-side field")
    qf, rf = as_float(q), as_float(r)
    if not (1 < qf < math.inf and 1 < rf < math.inf):
        raise ValueError("dual_map needs finite q, r > 1")
    av = np.abs(h.values)
    slice_r = _slice_r_norms(h.with_values(av), rf)
    N = ((slice_r ** qf).sum() * h.grid.spacing[0]) ** (1.0 / qf)
    if N == 0:
        raise ValueError("dual_map needs a nonzero field")
    fac = np.where(slice_r > 0, slice_r, 1.0) ** (qf - rf)
    fac = np.where(slice_r > 0, fac, 0.0) / N ** (qf - 1.0)
    shape = (-1,) + (1,) * (h.d - 1)
    vals = np.sign(h.values) * av ** (rf - 1.0) * fac.reshape(shape)
    return h.with_values(vals)


def _unit_p(f: SampledField, p) -> SampledField:
    n = lp_norm(f, p)
    if n == 0:
        raise ValueError("cannot normalize the zero field")
    return f.with_values(f.values / n)


def _evaluate(f: SampledField, plan: TransformPlan, trip,
              it: int = 0) -> SearchState:
    """State at f normalized in L^p: h = Xf, Phi = |h|_{q,r} and g the dual
    map of h."""
    f = _unit_p(f, trip.p)
    h = apply_X(f, plan)
    return SearchState(it=it, f=f, g=dual_map(h, trip.q, trip.r), h=h,
                       phi=mixed_norm(h, trip.q, trip.r))


def init_state(cfg: SearchConfig) -> SearchState:
    """Jittered unit-paraball indicator, normalized, with its dual pair."""
    plan = cfg.plan()
    rng = np.random.default_rng(cfg.seed)
    base = raster_primal(unit_paraball(cfg.d), plan.source_grid)
    vals = base.values * (1.0 + cfg.jitter * rng.random(base.values.shape))
    return _evaluate(base.with_values(vals), plan, cfg.exponents())


def ascent_step(state: SearchState, cfg: SearchConfig) -> SearchState:
    """One power-ascent update f <- (X* g)^{p'-1}, damped toward the old
    iterate if Phi would drop by more than the slack."""
    plan = cfg.plan()
    trip = cfg.exponents()
    it = state.it + 1
    expo = 1.0 / (float(trip.p) - 1.0)
    u = apply_X_star(state.g, plan)
    raw = np.clip(u.values, 0.0, None) ** expo
    if not raw.any():
        return replace(state, it=it)
    cand = _evaluate(state.f.with_values(raw), plan, trip, it)
    tries = 0
    while cand.phi < state.phi - PHI_SLACK and tries < 3:
        mid = 0.5 * (state.f.values + cand.f.values)
        cand = _evaluate(state.f.with_values(mid), plan, trip, it)
        tries += 1
    if cand.phi < state.phi - PHI_SLACK:
        return replace(state, it=it)
    return cand


def renormalize_state(state: SearchState, cfg: SearchConfig) -> SearchState:
    """Re-center with the symmetry group; kept only if Phi does not drop."""
    plan = cfg.plan()
    trip = cfg.exponents()
    sig = normalize_symmetry(state.f, trip.p)
    if not sig.steps:
        return state
    moved = pullback_source(sig, state.f, trip.p, out_grid=state.f.grid)
    vals = np.clip(moved.values, 0.0, None)
    if not vals.any():
        return state
    cand = _evaluate(moved.with_values(vals), plan, trip, state.it)
    if cand.phi < state.phi - PHI_SLACK:
        return state
    return cand


def _normalized_profile(f: SampledField, p):
    """Weights |f|^p dV and keys max(|z|, |f|/|f|_p) after re-centering."""
    sig = normalize_symmetry(f, p)
    fn = pullback_source(sig, f, p, out_grid=f.grid) if sig.steps else f
    pf = as_float(p)
    av = np.abs(fn.values).ravel()
    w = av ** pf * fn.grid.cell_volume
    tot = w.sum()
    if tot == 0:
        raise ValueError("localization needs a nonzero field")
    radii = np.linalg.norm(fn.grid.nodes().reshape(-1, fn.d), axis=1)
    n = lp_norm(fn, p)
    key = np.maximum(radii, av / n)
    return key, w / tot


def r95_radius(f: SampledField, p, quantile: float = 0.95) -> float:
    """Smallest R with at least the given fraction of |f|^p mass in
    {|z| <= R} intersect {f <= R |f|_p}."""
    key, w = _normalized_profile(f, p)
    order = np.argsort(key, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, quantile, side="left"))
    idx = min(idx, len(key) - 1)
    return float(key[order[idx]])


def localization_report(f: SampledField, p, R: float) -> float:
    """Fraction of |f|^p mass outside {|z| <= R} intersect {f <= R |f|_p},
    measured after symmetry re-centering."""
    key, w = _normalized_profile(f, p)
    return float(w[key > R].sum())


def run_search(cfg: SearchConfig) -> SearchReport:
    trip = cfg.exponents()
    state = init_state(cfg)
    qc, rc = conj_exponent(trip.q), conj_exponent(trip.r)
    history = [{"iter": 0, "phi": state.phi,
                "f_norm": lp_norm(state.f, trip.p),
                "g_norm": mixed_norm(state.g, qc, rc),
                "renorm_applied": False}]
    best = state.phi
    converged = False
    for it in range(1, cfg.max_iters + 1):
        prev = start = state
        if cfg.renorm_every > 0 and it % cfg.renorm_every == 0:
            start = renormalize_state(state, cfg)
        state = ascent_step(start, cfg)
        best = max(best, state.phi)
        history.append({"iter": it, "phi": state.phi,
                        "f_norm": lp_norm(state.f, trip.p),
                        "g_norm": mixed_norm(state.g, qc, rc),
                        "renorm_applied": start is not prev})
        if state.f is start.f:
            break  # stalled: the step kept the old iterate
        if abs(state.phi - prev.phi) <= cfg.tol_phi * max(prev.phi, 1e-300):
            converged = True
            break
    r95 = r95_radius(state.f, trip.p)
    field_path = log_path = None
    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        field_path = os.path.join(cfg.out_dir, "extremizer.field")
        write_field(state.f, field_path)
        log_path = os.path.join(cfg.out_dir, "search_log.jsonl")
        with open(log_path, "w") as fh:
            for entry in history:
                fh.write(json.dumps(entry) + "\n")
    return SearchReport(best_phi=best, final_phi=state.phi, iters=state.it,
                        converged=converged, r95=r95, field_path=field_path,
                        log_path=log_path, history=tuple(history))
