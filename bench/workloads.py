"""Seeded inputs, one op, and the op's output check for each workload.

Every input is derived from (workload seed, op index), so the same seed
gives the same inputs.  The generators live here and not in the package's
test suite, so editing a test cannot change what the benchmark runs.  Ops
call the package through module attributes (``xray.apply_X``), so the
traced run's wrappers see them.  A check returns a list of problems; a
non-empty list makes the op count as failed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from momentxray import (cli, decomposition, exponents, field, paraball,
                        symmetry, xray)

THETA = Fraction(5, 6)
SIDES = ("primal", "dual")
_WORKLOAD_IDS = {"search": 1, "pairing": 2, "cover": 3}


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, _WORKLOAD_IDS[workload], index]))


# ---------------------------------------------------------------------------
# search: the extremizer search through the command line front end

SEARCH_SHAPES = ((3, 32), (4, 16))  # (d, counts); ops alternate between them
SEARCH_BOX_HALF = 2.5


@dataclass(frozen=True)
class SearchInput:
    index: int
    d: int
    counts: int
    seed: int

    def digest_bytes(self):
        return f"{self.d},{self.counts},{self.seed}".encode()


def search_inputs(seed, index, small=False):
    d, counts = SEARCH_SHAPES[index % len(SEARCH_SHAPES)]
    if small:
        counts = 8
    op_seed = int(op_rng(seed, "search", index).integers(0, 2 ** 31 - 1))
    return SearchInput(index=index, d=d, counts=counts, seed=op_seed)


def search_run(inp: SearchInput, workdir: str):
    argv = ["search", "--d", str(inp.d), "--counts", str(inp.counts),
            "--theta", f"{THETA.numerator}/{THETA.denominator}",
            "--box-half", str(SEARCH_BOX_HALF), "--tol", "1e-4",
            "--renorm-every", "5", "--seed", str(inp.seed),
            "--out", workdir,
            "--manifest", os.path.join(workdir, "manifest.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    return {"rc": rc, "dir": workdir}


def _search_plan(d, counts):
    L = SEARCH_BOX_HALF
    return xray.TransformPlan(
        source_grid=field.grid_from_box(d, "source", -L, L, counts),
        target_grid=field.grid_from_box(d, "target", -L, L, counts))


@functools.lru_cache(maxsize=None)
def unit_quasi_ratio(d, counts):
    """quasi_ratio of the unit paraball's rasters on grids fitted to it."""
    B = paraball.unit_paraball(d)
    sg = field.grid_from_box(d, "source", *paraball.primal_bbox(B),
                             [counts] * d)
    tg = field.grid_from_box(d, "target", *paraball.dual_bbox(B),
                             [counts] * d)
    return paraball.quasi_ratio(paraball.raster_primal(B, sg),
                                paraball.raster_dual(B, tg), THETA,
                                xray.TransformPlan(sg, tg, counts, counts))


def _sha256(path):
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def search_check(inp: SearchInput, out):
    problems = []
    if out["rc"] != 0:
        problems.append(f"search exited with {out['rc']}")
    d = out["dir"]
    with open(os.path.join(d, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(d, report["logPath"])) as fh:
        history = [json.loads(line) for line in fh]
    phis = [h["phi"] for h in history]
    if any(b < a - 1e-8 for a, b in zip(phis, phis[1:])):
        problems.append("Phi history decreases by more than 1e-8")
    if report["bestPhi"] != max(phis):
        problems.append("bestPhi is not the largest Phi in the log")
    f = field.read_field(os.path.join(d, report["fieldPath"]))
    plan = _search_plan(inp.d, inp.counts)
    if f.grid != plan.source_grid:
        problems.append("extremizer grid differs from the search grid")
    else:
        phi = xray.phi_functional(f, THETA, plan)
        if abs(phi - report["finalPhi"]) > 1e-9 * abs(report["finalPhi"]):
            problems.append(f"recomputed Phi {phi!r} differs from finalPhi "
                            f"{report['finalPhi']!r}")
    if report["bestPhi"] < unit_quasi_ratio(inp.d, inp.counts):
        problems.append("bestPhi is below the unit paraball's quasi_ratio")
    with open(os.path.join(d, "manifest.json")) as fh:
        manifest = json.load(fh)
    for path, digest in manifest["outputs"].items():
        if _sha256(path) != digest:
            problems.append(f"manifest digest of {os.path.basename(path)} "
                            "does not match the file")
    return problems, {"phi_best": report["bestPhi"]}


# ---------------------------------------------------------------------------
# pairing: invariance of the transform's pairing under a symmetry

PAIRING_D = 3
PAIRING_BOX_HALF = 3.0


@dataclass(frozen=True)
class PairingInput:
    index: int
    n: int
    f: object
    g: object
    sigma: object

    def digest_bytes(self):
        return (self.f.values.tobytes() + self.g.values.tobytes()
                + repr(self.sigma).encode())


def _cusp(r, R):
    return np.sqrt(np.maximum(0.0, 1.0 - r / R))


# Only the centres of the fields' bumps and cusps are random.  The widths
# and cusp radii are fixed: they set the pairing's discretisation error, and
# random ones would make pairing_rel_err differ from op to op for no reason.
# The same holds for the step sizes of sigma below.


def smooth_source(grid, rng):
    """Positive Gaussian bump times a square-root cusp factor."""
    z = grid.nodes()
    c, cc = rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.4, 0.4, 3)
    bump = np.exp(-np.sum(((z - c) / 1.4) ** 2, axis=-1))
    return bump * (1.0 + 0.5 * _cusp(np.linalg.norm(z - cc, axis=-1), 1.2))


def smooth_target(grid, rng):
    """Positive bump, narrower in t, with a square-root cusp in y."""
    z = grid.nodes()
    ct, cy = rng.uniform(-0.2, 0.2), rng.uniform(-0.3, 0.3, 2)
    cyl = rng.uniform(-0.4, 0.4, 2)
    bump = np.exp(-((z[..., 0] - ct) / 0.55) ** 2
                  - np.sum(((z[..., 1:] - cy) / 1.4) ** 2, axis=-1))
    return bump * (1.0 + 0.9 * _cusp(np.linalg.norm(z[..., 1:] - cyl,
                                                    axis=-1), 1.2))


def pairing_inputs(seed, index, small=False):
    n = 16 if small else 64
    rng = op_rng(seed, "pairing", index)
    L = PAIRING_BOX_HALF
    sg = field.grid_from_box(PAIRING_D, "source", -L, L, n)
    tg = field.grid_from_box(PAIRING_D, "target", -L, L, n)
    f = field.SampledField(sg, smooth_source(sg, rng))
    g = field.SampledField(tg, smooth_target(tg, rng))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    t0 = 0.04 if rng.random() < 0.5 else -0.04
    sigma = symmetry.Symmetry((
        symmetry.Translate((0.1 * math.cos(ang), 0.1 * math.sin(ang))),
        symmetry.Shear(0.0, t0)))
    return PairingInput(index=index, n=n, f=f, g=g, sigma=sigma)


def pairing_run(inp: PairingInput, workdir: str):
    trip = exponents.triple_for_theta(PAIRING_D, THETA)
    ctrip = exponents.conjugate(trip)
    f, g, n = inp.f, inp.g, inp.n
    pf = symmetry.pullback_source(inp.sigma, f, trip.p)
    pg = symmetry.pullback_target(inp.sigma, g, ctrip.q, ctrip.r)
    matched = xray.TransformPlan(f.grid, g.grid)
    Xf = xray.apply_X(f, matched)
    Xstar_g = xray.apply_X_star(g, matched)
    base_plan = xray.TransformPlan(f.grid, g.grid, 2 * n, 2 * n)
    base = xray.bilinear(f, g, base_plan)
    moved_plan = xray.TransformPlan(pf.grid, pg.grid, 2 * n, 2 * n)
    moved = xray.bilinear(pf, pg, moved_plan)
    Xstar_pg = xray.apply_X_star(pg, moved_plan)
    pieces = decomposition.combined_decompose(Xf, trip.q, trip.r)
    lorentz = field.lorentz_mixed_norm(Xf, trip.q, trip.q, trip.r)
    return {"trip": trip, "pf": pf, "Xf": Xf, "Xstar_g": Xstar_g,
            "base": base, "moved": moved, "Xstar_pg": Xstar_pg,
            "pieces": pieces, "lorentz": lorentz}


def pairing_check(inp: PairingInput, out):
    problems = []
    f, g, Xf, trip = inp.f, inp.g, out["Xf"], out["trip"]
    lhs = float((Xf.values * g.values).sum() * g.grid.cell_volume)
    rhs = float((f.values * out["Xstar_g"].values).sum() * f.grid.cell_volume)
    if abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs)):
        problems.append(f"matched-plan adjointness off: {lhs!r} vs {rhs!r}")
    base, moved = out["base"], out["moved"]
    rel = abs(moved - base) / base
    if not rel <= 2e-3:
        problems.append(f"pairing moved by {rel:.3g} (limit 2e-3)")
    pf = out["pf"]
    adj = float((pf.values * out["Xstar_pg"].values).sum()
                * pf.grid.cell_volume)
    if not abs(adj - moved) <= 2e-3 * abs(moved):
        problems.append(f"moved-plan adjoint pairing {adj!r} vs {moved!r}")
    q = float(trip.q)
    norm = field.mixed_norm(Xf, trip.q, trip.r)
    parts = 0.0
    for slab in decomposition.slab_decompose(Xf, trip.r):
        sel = slab.t_mask.reshape((-1,) + (1,) * (Xf.d - 1))
        parts += field.mixed_norm(Xf.with_values(Xf.values * sel),
                                  trip.q, trip.r) ** q
    if not abs(parts - norm ** q) <= 1e-10 * norm ** q:
        problems.append("slab pieces' mixed_norm**q do not sum to the total")
    if not 0.25 * norm <= out["lorentz"] <= 4.0 * norm:
        problems.append("Lorentz proxy is not within a factor 4 of the norm")
    overlap = sum(pc.mask.astype(np.int64) for pc in out["pieces"])
    if out["pieces"] and overlap.max() > 1:
        problems.append("combined pieces overlap")
    return problems, {"pairing_rel_err": rel}


# ---------------------------------------------------------------------------
# cover: delta-partitions of a paraball and containment queries

COVER_D = 3
COVER_DELTAS = (0.25, 0.125)
COVER_POINTS = 100_000
COVER_MEMBERS = {0.25: 1450, 0.125: 38025}  # fixed by (d, theta, delta)
COVER_MOCK_PICKS = 64
COVER_VOLUME_PICKS = 8
IV_SAMPLES = 100_000  # intersection_volume's default sample count


@dataclass(frozen=True)
class CoverInput:
    index: int
    ball: object
    deltas: tuple
    points: dict
    picks: np.ndarray

    def digest_bytes(self):
        parts = [repr(self.ball).encode(), self.picks.tobytes()]
        for key in sorted(self.points):
            parts.append(repr(key).encode() + self.points[key].tobytes())
        return b"".join(parts)


def _binomial_shear(d, t0):
    """G_{t0}: entry (m, i) is C(m, i) t0^(m-i) for 1 <= i <= m <= d-1."""
    G = np.zeros((d - 1, d - 1))
    for m in range(1, d):
        for i in range(1, m + 1):
            G[m - 1, i - 1] = math.comb(m, i) * t0 ** (m - i)
    return G


def shadow_points(B, u, side):
    """Push unit-box points u onto B's primal or dual shadow.

    This repeats the package's map_source/map_target for the normal form of
    B, so that a change to those maps cannot change the benchmark's inputs.
    """
    d = u.shape[1]
    powers = np.arange(1, d)
    G = _binomial_shear(d, B.t0)
    yb = np.asarray(B.ybar)
    lead, rest = u[:, 0], u[:, 1:] * (B.alpha * B.beta ** powers)
    if side == "primal":
        s = B.alpha * lead + B.s0
        x = rest @ G.T + s[:, None] * B.t0 ** powers + yb
        return np.column_stack([s, x])
    t = B.beta * lead
    y = (rest - B.s0 * t[:, None] ** powers) @ G.T + yb
    return np.column_stack([t + B.t0, y])


def cover_inputs(seed, index, small=False):
    rng = op_rng(seed, "cover", index)
    s0, t0 = rng.uniform(-0.8, 0.8, size=2)
    yb = rng.uniform(-1.0, 1.0, size=COVER_D - 1)
    al, be = rng.uniform(0.6, 1.4, size=2)
    B = paraball.Paraball(float(s0), float(t0), tuple(yb), float(al),
                          float(be))
    deltas = (0.5,) if small else COVER_DELTAS
    npts = 1000 if small else COVER_POINTS
    points = {}
    for delta in deltas:
        for side in SIDES:
            u = rng.uniform(-1.0, 1.0, size=(npts, COVER_D))
            points[(delta, side)] = shadow_points(B, u, side)
    picks = rng.random(COVER_MOCK_PICKS)
    return CoverInput(index=index, ball=B, deltas=deltas, points=points,
                      picks=picks)


def cover_run(inp: CoverInput, workdir: str):
    B = inp.ball
    res = {}
    for delta in inp.deltas:
        cover = paraball.partition(B, delta, THETA)
        misses = {side: int(np.count_nonzero(
            ~cover.contains(inp.points[(delta, side)], side)))
            for side in SIDES}
        entry = {"cover": cover, "misses": misses}
        if delta == inp.deltas[0]:
            idx = np.unique((inp.picks * len(cover.members)).astype(np.int64))
            sel = [cover.members[i] for i in idx]
            entry["picked"] = sel
            entry["mock"] = [(paraball.mock_distance(B, m),
                              paraball.mock_distance(m, B)) for m in sel]
            entry["iv"] = [paraball.intersection_volume(B, m, IV_SAMPLES)
                           for m in sel[:COVER_VOLUME_PICKS]]
        res[delta] = entry
    return res


def cover_check(inp: CoverInput, out):
    problems = []
    B = inp.ball
    vB = paraball.volume(B)
    d = B.d
    for delta, entry in out.items():
        for side, miss in entry["misses"].items():
            if miss:
                problems.append(f"delta={delta}: {miss} {side} points missed")
        members = entry["cover"].members
        want = COVER_MEMBERS.get(delta)
        if want is not None and len(members) != want:
            problems.append(f"delta={delta}: {len(members)} members, "
                            f"expected {want}")
        mv = np.array([paraball.volume(m) for m in members])
        if (mv.min() < delta / 4 ** d * vB * (1 - 1e-9)
                or mv.max() > 4 ** d * delta * vB * (1 + 1e-9)):
            problems.append(f"delta={delta}: member volume out of range")
        for ab, ba in entry.get("mock", ()):
            if not (ab >= 5.0 and ab == ba):
                problems.append(f"mock distance {ab!r}/{ba!r} is not >= 5 "
                                "and symmetric")
        for m, iv in zip(entry.get("picked", ()), entry.get("iv", ())):
            problems.extend(_volume_problems(B, m, iv))
    return problems, {}


def _volume_problems(B, m, iv):
    """intersection_volume(B, m) against volume(m), within 5 standard errors
    of its Monte Carlo estimate; exact agreement is only expected when m
    lies inside B."""
    lo, hi = paraball.primal_bbox(m)
    box = float(np.prod(hi - lo))
    vm = paraball.volume(m)
    p = min(vm / box, 1.0)
    tol = 5.0 * box * math.sqrt(p * (1.0 - p) / IV_SAMPLES) + 1e-12 * vm
    inside = bool(np.all(paraball.membership(
        B, paraball.primal_corners(m), "primal")))
    if iv > vm + tol or (inside and iv < vm - tol):
        return [f"intersection_volume {iv!r} vs member volume {vm!r}"]
    return []


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # ops per cycle; a run measures whole cycles
    inputs: object
    run: object
    check: object


WORKLOADS = {
    "search": Workload("search", len(SEARCH_SHAPES), search_inputs,
                       search_run, search_check),
    "pairing": Workload("pairing", 1, pairing_inputs, pairing_run,
                        pairing_check),
    "cover": Workload("cover", 1, cover_inputs, cover_run, cover_check),
}


def input_digest(workload: str, seed: int) -> str:
    """sha256 over the inputs of the first two ops of a workload."""
    h = hashlib.sha256()
    make = WORKLOADS[workload].inputs
    for index in range(2):
        h.update(make(seed, index).digest_bytes())
    return h.hexdigest()
