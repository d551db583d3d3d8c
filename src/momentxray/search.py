"""Iterative search for extremizers of the mixed-norm operator ratio.

Alternates the exact dual multiplier of the current output with a power
ascent on the pulled-back density, re-centering the iterate with the
symmetry group every few steps so mass cannot drift off the grid.  The
functional Phi(f) = |Xf|_{q,r} / |f|_p is tracked per iteration and is
nondecreasing up to the damping tolerance.  ``run_search`` returns the final
iterate as its report's ``state``; given ``out_dir`` it writes there
``extremizer.field`` (that f), ``search_log.jsonl`` and ``report.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import numpy as np

from .exponents import _finite_q_triple, conj_exponent
from .field import (_D_MIN, SampledField, _exponent, _field, _integer, _lq,
                    _node_blocks, _real, _slice_r_norms, grid_from_box,
                    lp_norm, mixed_norm, write_field)
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

    def __post_init__(self):
        for name, strict in (("box_half", True), ("tol_phi", False),
                             ("jitter", False)):
            object.__setattr__(self, name, _real(getattr(self, name), name,
                                                 0, strict=strict))
        for name, least in (("d", _D_MIN), ("counts", 2), ("max_iters", 0),
                            ("renorm_every", 0), ("seed", 0)):
            object.__setattr__(self, name,
                               _integer(getattr(self, name), name, least))

    def exponents(self):
        return _finite_q_triple(self.d, self.theta, "search")

    def plan(self) -> TransformPlan:
        """The search's transform plan: one per config, built on first call.

        Every step of a run applies X and X* on this one plan, so each
        direction's matched-kernel schedule is built once per config and
        freed with it.
        """
        return self._plan

    @functools.cached_property
    def _plan(self) -> TransformPlan:
        L = self.box_half
        src = grid_from_box(self.d, "source", -L, L, self.counts)
        tgt = grid_from_box(self.d, "target", -L, L, self.counts)
        return TransformPlan(source_grid=src, target_grid=tgt)


@dataclass(frozen=True)
class SearchState:
    """One iterate.  ``damping_tries`` counts the halvings toward the old
    iterate (0-3) that the ascent step producing it made."""

    it: int
    f: SampledField = dc_field(repr=False)
    g: SampledField = dc_field(repr=False)
    h: SampledField = dc_field(repr=False)
    phi: float = 0.0
    damping_tries: int = 0


@dataclass(frozen=True)
class SearchReport:
    """Outcome of ``run_search``; ``state`` is its final iterate.

    ``stop_reason`` says why the iteration ended: ``converged`` (Phi moved
    by at most tol_phi relative), ``stalled`` (an ascent step kept the old
    iterate) or ``max_iters`` (the iteration budget ran out).
    """

    best_phi: float
    stop_reason: str
    r95: float
    state: SearchState = dc_field(repr=False)
    field_path: str | None
    log_path: str | None
    history: tuple = dc_field(repr=False, default=())

    @property
    def final_phi(self) -> float:
        return self.state.phi

    @property
    def iters(self) -> int:
        return self.state.it

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    def as_dict(self):
        """The ``report.json`` document; its paths are relative to out_dir."""
        field_name, log_name = (p and os.path.basename(p)
                                for p in (self.field_path, self.log_path))
        return {"bestPhi": self.best_phi, "finalPhi": self.final_phi,
                "iters": self.iters, "converged": self.converged,
                "stopReason": self.stop_reason, "r95": self.r95,
                "fieldPath": field_name, "logPath": log_name}


def dual_map(h: SampledField, q, r) -> SampledField:
    """Unit-norm dual multiplier: <h, dual_map(h)> = |h|_{q,r} exactly.

    g = sign(h) |h|^{r-1} n(t)^{q-r} / N^{q-1} with n(t) the slice r-norm
    and N the mixed norm, both taken with the grid cell weights, so the
    discrete pairing identity holds to rounding.
    """
    _field(h, "dual_map", "target")
    qf, rf = _exponent(q, "q"), _exponent(r, "r")
    if not (1 < qf < math.inf and 1 < rf < math.inf):
        raise ValueError("dual_map needs finite q, r > 1")
    av = np.abs(h.values)
    slice_r = _slice_r_norms(av, h.grid, rf)
    N = _lq(slice_r, h.grid.spacing[0], qf)
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
        return replace(state, it=it, damping_tries=0)
    cand = _evaluate(state.f.with_values(raw), plan, trip, it)
    tries = 0
    while cand.phi < state.phi - PHI_SLACK and tries < 3:
        mid = 0.5 * (state.f.values + cand.f.values)
        cand = _evaluate(state.f.with_values(mid), plan, trip, it)
        tries += 1
    if cand.phi < state.phi - PHI_SLACK:
        return replace(state, it=it, damping_tries=tries)
    return replace(cand, damping_tries=tries)


def _normal_form(f: SampledField, p) -> SampledField:
    """f pulled back by normalize_symmetry onto its grid (f if no move)."""
    sig = normalize_symmetry(f, p)
    return pullback_source(sig, f, p, out_grid=f.grid) if sig.steps else f


def renormalize_state(state: SearchState, cfg: SearchConfig) -> SearchState:
    """Re-center with the symmetry group; kept only if Phi does not drop."""
    plan = cfg.plan()
    trip = cfg.exponents()
    moved = _normal_form(state.f, trip.p)
    if moved is state.f:
        return state
    vals = np.clip(moved.values, 0.0, None)
    if not vals.any():
        return state
    cand = _evaluate(moved.with_values(vals), plan, trip, state.it)
    if cand.phi < state.phi - PHI_SLACK:
        return state
    return cand


def _normalized_profile(f: SampledField, p):
    """Weights |f|^p dV and keys max(|z|, |f|/|f|_p) after re-centering;
    at p = inf the weights are |f| dV, as normalize_symmetry takes them."""
    pf = _exponent(p, "p")
    fn = _normal_form(f, p)
    av = np.abs(fn.values).ravel()
    w = av ** (1.0 if math.isinf(pf) else pf) * fn.grid.cell_volume
    tot = w.sum()
    if tot == 0:
        raise ValueError("localization needs a nonzero field")
    radii = np.empty(av.size)
    for blk, nodes in _node_blocks(fn.grid):
        radii[blk] = np.linalg.norm(nodes, axis=1)
    n = lp_norm(fn, p)
    key = np.maximum(radii, av / n)
    return key, w / tot


def r95_radius(f: SampledField, p, quantile: float = 0.95) -> float:
    """Smallest R with at least the given fraction of |f|^p mass in
    {|z| <= R} intersect {f <= R |f|_p}; 0 < quantile <= 1."""
    _field(f, "r95_radius")
    quantile = _real(quantile, "quantile", 0)
    if quantile > 1:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile!r}")
    key, w = _normalized_profile(f, p)
    order = np.argsort(key, kind="stable")
    cum = np.cumsum(w[order])
    idx = int(np.searchsorted(cum, quantile, side="left"))
    idx = min(idx, len(key) - 1)
    return float(key[order[idx]])


def localization_report(f: SampledField, p, R: float) -> float:
    """Fraction of |f|^p mass outside {|z| <= R} intersect {f <= R |f|_p},
    measured after symmetry re-centering; R >= 0."""
    _field(f, "localization_report")
    R = _real(R, "R", 0, strict=False)
    key, w = _normalized_profile(f, p)
    return float(w[key > R].sum())


def run_search(cfg: SearchConfig) -> SearchReport:
    trip = cfg.exponents()
    qc, rc = conj_exponent(trip.q), conj_exponent(trip.r)

    def log_entry(st: SearchState, renorm: bool) -> dict:
        return {"iter": st.it, "phi": st.phi, "f_norm": lp_norm(st.f, trip.p),
                "g_norm": mixed_norm(st.g, qc, rc),
                "renorm_applied": renorm, "damping_tries": st.damping_tries}

    state = init_state(cfg)
    history = [log_entry(state, False)]
    stop_reason = "max_iters"
    for it in range(1, cfg.max_iters + 1):
        prev = start = state
        if cfg.renorm_every > 0 and it % cfg.renorm_every == 0:
            start = renormalize_state(state, cfg)
        state = ascent_step(start, cfg)
        history.append(log_entry(state, start is not prev))
        if state.f is start.f:
            stop_reason = "stalled"  # the step kept the old iterate
            break
        if abs(state.phi - prev.phi) <= cfg.tol_phi * max(prev.phi, 1e-300):
            stop_reason = "converged"
            break
    out = cfg.out_dir
    report = SearchReport(
        best_phi=max(e["phi"] for e in history), stop_reason=stop_reason,
        r95=r95_radius(state.f, trip.p), state=state,
        field_path=out and os.path.join(out, "extremizer.field"),
        log_path=out and os.path.join(out, "search_log.jsonl"),
        history=tuple(history))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        write_field(state.f, report.field_path)
        with open(report.log_path, "w") as fh:
            for entry in history:
                fh.write(json.dumps(entry) + "\n")
        with open(os.path.join(out, "report.json"), "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
