"""Command line front end.

One subcommand per capability.  A subcommand only adds its arguments,
parses, computes and prints; it returns ``(args, outputs, exit_code)``.
``main`` frames every run: it builds the parser with ``--manifest``, stamps
the start time, and after the subcommand returns writes the one JSON
manifest, echoing the tool version, the argv, the parsed configuration, the
seed when one is in play, and sha256 digests of every file the run produced.
Exponent-like inputs are exact rationals (num/den); decimal points there are
rejected so printed exponents stay exact.  Exit codes: 0 success, 1 a failed
``diagnose`` check, 2 an argparse usage error or a ``search`` that ran out of
iterations, 3 a ``search`` that stalled (an ascent step kept the old
iterate), 64 a missing or unknown subcommand, 65 bad data (ValueError), 66
an unreadable or missing file (OSError).  Errors print one line on stderr
and write no manifest.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .decomposition import (combined_decompose, dyadic_decompose,
                            slab_decompose, trim_frequency)
from .exponents import (INF, Infinity, interp_constants, theta_zero,
                        triple_for_theta)
from .field import (SampledField, grid_from_box, lorentz_mixed_norm,
                    lorentz_source_norm, lp_norm, mixed_norm, read_field,
                    write_field)
from .paraball import (Paraball, dual_mixed_norm, membership, mock_distance,
                       partition, raster_dual, raster_primal, sample_points,
                       to_symmetry, volume)
from .search import SearchConfig, run_search
from .symmetry import (Scale, Shear, Symmetry, Translate, normalize_symmetry,
                       pullback_source, pullback_target)
from .xray import TransformPlan, apply_X, apply_X_star, bilinear

USAGE = """usage: momentxray <command> [options]

commands:
  exponents   interpolation exponents and constants for (d, theta)
  norm        Lebesgue / mixed / Lorentz norms of a stored field
  transform   apply the restricted X-ray transform or its adjoint
  symmetry    apply group pullbacks to a field, or re-center it
  paraball    volumes, dual norms, membership and rasters of a paraball
  partition   split a paraball into congruent members at scale delta
  mockdist    mock distance between two paraballs
  decompose   dyadic / slab / combined decompositions of a field
  search      iterative extremizer search for the operator ratio
  diagnose    run the built-in consistency battery
"""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def rational(text: str) -> Fraction:
    """Exact exponent input; decimals are rejected on purpose."""
    t = text.strip()
    if t.lower() in ("inf", "infinity"):
        raise argparse.ArgumentTypeError("infinite value not allowed here")
    if "." in t:
        raise argparse.ArgumentTypeError(
            f"decimal {text!r} not accepted; write an exact ratio like 5/6")
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def exponent(text: str):
    t = text.strip()
    if t.lower() in ("inf", "infinity"):
        return INF
    return rational(text)


def number(text: str) -> float:
    """Geometry input: accepts ratios and decimals."""
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}: {exc}")


def ball_spec(text: str) -> Paraball:
    """s0,t0,y1,...,y_{d-1},alpha,beta as comma-separated numbers."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) < 6:
        raise argparse.ArgumentTypeError(
            "paraball needs at least 6 numbers: s0,t0,y1,y2,alpha,beta")
    vals = [number(p) for p in parts]
    return Paraball(vals[0], vals[1], tuple(vals[2:-2]), vals[-2], vals[-1])


def point_spec(text: str):
    return np.array([number(p) for p in text.split(",")])


def step_spec(text: str):
    """translate:v1,v2 | scale:a,b | shear:s0,t0"""
    try:
        kind, rest = text.split(":", 1)
        vals = [number(v) for v in rest.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad step {text!r}")
    kind = kind.strip().lower()
    if kind == "translate":
        return Translate(tuple(vals))
    if kind == "scale":
        if len(vals) != 2:
            raise argparse.ArgumentTypeError("scale takes alpha,beta")
        return Scale(vals[0], vals[1])
    if kind == "shear":
        if len(vals) != 2:
            raise argparse.ArgumentTypeError("shear takes s0,t0")
        return Shear(vals[0], vals[1])
    raise argparse.ArgumentTypeError(f"unknown step kind {kind!r}")


# ---------------------------------------------------------------------------
# manifest


def _jsonable(v):
    if isinstance(v, (Fraction, Infinity)):
        return str(v)
    if isinstance(v, Paraball):
        return {"s0": v.s0, "t0": v.t0, "ybar": list(v.ybar),
                "alpha": v.alpha, "beta": v.beta}
    if isinstance(v, (Translate, Scale, Shear)):
        return repr(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def write_manifest(path, command, args_ns, outputs, seed=None,
                   started=None) -> None:
    config = {k: _jsonable(v) for k, v in sorted(vars(args_ns).items())
              if k != "manifest"}
    digests = {}
    for out in outputs:
        h = hashlib.sha256()
        with open(out, "rb") as fh:
            h.update(fh.read())
        digests[out] = "sha256:" + h.hexdigest()
    doc = {
        "toolVersion": __version__,
        "command": list(command),
        "config": config,
        "seed": seed,
        "startedAt": started,
        "finishedAt": _now(),
        "outputs": digests,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_csv(path, header, rows) -> None:
    """Comma-separated table; float cells use the printed 12-digit form."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (parsed args, output paths, exit code)


def cmd_exponents(p, argv):
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--theta", type=rational, required=True)
    p.add_argument("--constants", action="store_true",
                   help="also print the interpolation constants a,b,c,d")
    args = p.parse_args(argv)
    trip = triple_for_theta(args.d, args.theta)
    # the exact rule holds every exponent as a Fraction or INF
    print(f"p={trip.p} q={trip.q} r={trip.r}")
    if args.constants:
        t0 = theta_zero(args.d)
        e0 = triple_for_theta(args.d, t0)
        e1 = triple_for_theta(args.d, 1)
        ic = interp_constants(e0, e1, args.theta)
        for name in ("a0", "a1", "b", "c0", "c1", "d0", "d1"):
            print(f"{name}={getattr(ic, name)}")
        print(f"theta0={t0}")
    return args, [], 0


def cmd_norm(p, argv):
    p.add_argument("--field", required=True)
    p.add_argument("--p", type=exponent)
    p.add_argument("--q", type=exponent)
    p.add_argument("--r", type=exponent)
    p.add_argument("--s", type=exponent, help="Lorentz second index")
    args = p.parse_args(argv)
    f = read_field(args.field)
    if f.side == "source":
        if args.p is None:
            p.error("source-side fields need --p")
        if args.s is not None:
            print(f"lorentz={_fmt(lorentz_source_norm(f, args.p, args.s))}")
        else:
            print(f"lp={_fmt(lp_norm(f, args.p))}")
    else:
        if args.q is None or args.r is None:
            p.error("target-side fields need --q and --r")
        if args.s is not None:
            print(f"lorentz={_fmt(lorentz_mixed_norm(f, args.q, args.s, args.r))}")
        else:
            print(f"mixed={_fmt(mixed_norm(f, args.q, args.r))}")
    return args, [], 0


def cmd_transform(p, argv):
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--direction", choices=["forward", "adjoint"],
                   default="forward")
    p.add_argument("--counts", type=int, default=0,
                   help="output grid points per axis; 0, the default, "
                   "keeps the input's count")
    p.add_argument("--lo", type=number, default=None)
    p.add_argument("--hi", type=number, default=None)
    args = p.parse_args(argv)
    if args.counts < 0:
        p.error("--counts must be >= 0")
    f = read_field(args.field)
    lo_in, hi_in = f.grid.box()
    lo = args.lo if args.lo is not None else float(np.min(lo_in))
    hi = args.hi if args.hi is not None else float(np.max(hi_in))
    counts = args.counts if args.counts > 0 else f.grid.counts[0]
    if args.direction == "forward":
        if f.side != "source":
            p.error("forward transform needs a source-side field")
        tgt = grid_from_box(f.d, "target", lo, hi, counts)
        plan = TransformPlan(source_grid=f.grid, target_grid=tgt)
        out = apply_X(f, plan)
    else:
        if f.side != "target":
            p.error("adjoint transform needs a target-side field")
        src = grid_from_box(f.d, "source", lo, hi, counts)
        plan = TransformPlan(source_grid=src, target_grid=f.grid)
        out = apply_X_star(f, plan)
    write_field(out, args.out)
    print(f"wrote {args.out}")
    return args, [args.out], 0


def cmd_symmetry(p, argv):
    p.add_argument("--field", required=True)
    p.add_argument("--out")
    p.add_argument("--step", type=step_spec, action="append", default=[],
                   help="translate:v.. | scale:a,b | shear:s0,t0 (repeatable)")
    p.add_argument("--p", type=exponent)
    p.add_argument("--q", type=exponent)
    p.add_argument("--r", type=exponent)
    p.add_argument("--normalize", action="store_true",
                   help="print the re-centering symmetry of the field")
    args = p.parse_args(argv)
    f = read_field(args.field)
    if args.normalize:
        if f.side != "source" or args.p is None:
            p.error("--normalize needs a source-side field and --p")
        sig = normalize_symmetry(f, args.p)
        print(json.dumps([_jsonable(s) for s in sig.steps]))
        return args, [], 0
    sig = Symmetry(tuple(args.step))
    if f.side == "source":
        if args.p is None:
            p.error("source-side pullback needs --p")
        out = pullback_source(sig, f, args.p)
    else:
        if args.q is None or args.r is None:
            p.error("target-side pullback needs --q and --r")
        out = pullback_target(sig, f, args.q, args.r)
    if not args.out:
        p.error("--out is required when applying steps")
    write_field(out, args.out)
    print(f"wrote {args.out}")
    return args, [args.out], 0


def cmd_paraball(p, argv):
    p.add_argument("--ball", type=ball_spec, required=True)
    p.add_argument("--theta", type=rational)
    p.add_argument("--point", type=point_spec)
    p.add_argument("--side", choices=["primal", "dual"], default="primal")
    p.add_argument("--raster", help="write an indicator raster to this path")
    p.add_argument("--lo", type=number, default=-2.0)
    p.add_argument("--hi", type=number, default=2.0)
    p.add_argument("--counts", type=int, default=32)
    args = p.parse_args(argv)
    B = args.ball
    print(f"volume={_fmt(volume(B))}")
    if args.theta is not None:
        print(f"dualNorm={_fmt(dual_mixed_norm(B, args.theta))}")
    if args.point is not None:
        inside = membership(B, args.point, args.side)
        print(f"member={'true' if inside else 'false'}")
    if args.raster:
        side = "source" if args.side == "primal" else "target"
        grid = grid_from_box(B.d, side, args.lo, args.hi, args.counts)
        ras = raster_primal(B, grid) if args.side == "primal" \
            else raster_dual(B, grid)
        write_field(ras, args.raster)
        print(f"wrote {args.raster}")
    return args, [args.raster] if args.raster else [], 0


def cmd_partition(p, argv):
    p.add_argument("--ball", type=ball_spec, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument("--theta", type=rational, required=True)
    p.add_argument("--check", type=int, default=0,
                   help="Monte Carlo containment check with this many points")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="write the member table as CSV")
    args = p.parse_args(argv)
    if args.check < 0:
        p.error("--check must be >= 0")
    if args.check and args.seed is None:
        p.error("--check is randomized: --seed is required")
    cover = partition(args.ball, float(args.delta), args.theta)
    cnt = cover.counts
    print(f"members={cnt['members']} s={cnt['s']} t={cnt['t']} y={cnt['y']}")
    print(f"eta1={_fmt(cover.eta1)} eta2={_fmt(cover.eta2)}")
    if args.check:
        rng = np.random.default_rng(args.seed)
        misses = 0
        for side in ("primal", "dual"):
            pts = sample_points(args.ball, args.check, rng, side)
            misses += int(np.count_nonzero(~cover.contains(pts, side)))
        print(f"containmentMisses={misses}")
    if args.out:
        header = ["index", "s0", "t0",
                  *(f"y{m}" for m in range(1, args.ball.d)), "alpha", "beta"]
        m = cover.members
        _write_csv(args.out, header,
                   ([i, s0, t0, *yb, m.alpha, m.beta] for i, (s0, t0, yb)
                    in enumerate(zip(m.s0.tolist(), m.t0.tolist(),
                                     m.ybar.tolist()))))
        print(f"wrote {args.out}")
    return args, [args.out] if args.out else [], 0


def cmd_mockdist(p, argv):
    p.add_argument("--ball-a", type=ball_spec, required=True)
    p.add_argument("--ball-b", type=ball_spec, required=True)
    args = p.parse_args(argv)
    print(_fmt(mock_distance(args.ball_a, args.ball_b)))
    return args, [], 0


def cmd_decompose(p, argv):
    p.add_argument("--field", required=True)
    p.add_argument("--mode", choices=["dyadic", "slab", "combined", "trim"],
                   default="dyadic")
    p.add_argument("--r", type=exponent)
    p.add_argument("--p", type=exponent, default=Fraction(2))
    p.add_argument("--window", type=int, default=1, help="trim width W")
    p.add_argument("--out", help="CSV table (or field file for trim)")
    args = p.parse_args(argv)
    f = read_field(args.field)
    if args.mode == "trim":
        trimmed, j0 = trim_frequency(f, args.window, args.p)
        print(f"j0={j0}")
    else:
        if args.mode == "dyadic":
            header = ["j", "cells", "measure"]
            rows = [(pc.j, pc.cells, pc.measure)
                    for pc in dyadic_decompose(f)]
        elif args.r is None:
            p.error(f"{args.mode} mode needs --r")
        elif args.mode == "slab":
            header = ["l", "slices"]
            rows = [(pc.l, int(pc.t_mask.sum()))
                    for pc in slab_decompose(f, args.r)]
        else:
            header = ["k", "l", "m", "cells", "measure"]
            vol = f.grid.cell_volume
            # the pieces depend on r only; q is not read
            rows = [(pc.k, pc.l, pc.m, pc.cells, pc.cells * vol)
                    for pc in combined_decompose(f, None, args.r)]
        print(f"pieces={len(rows)}")
    if args.out:
        if args.mode == "trim":
            write_field(trimmed, args.out)
        else:
            _write_csv(args.out, header, rows)
        print(f"wrote {args.out}")
    return args, [args.out] if args.out else [], 0


SEARCH_EXIT = {"converged": 0, "max_iters": 2, "stalled": 3}


def cmd_search(p, argv):
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--theta", type=rational, default=Fraction(5, 6))
    p.add_argument("--counts", type=int, default=24)
    p.add_argument("--box-half", type=number, default=2.5)
    p.add_argument("--max-iters", type=int, default=40)
    p.add_argument("--tol", type=number, default=1e-4)
    p.add_argument("--renorm-every", type=int, default=5,
                   help="renormalise every this many iterations; 0: never")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--jitter", type=number, default=0.05)
    p.add_argument("--out", required=True, help="output directory")
    args = p.parse_args(argv)
    cfg = SearchConfig(d=args.d, theta=args.theta, counts=args.counts,
                       box_half=args.box_half, max_iters=args.max_iters,
                       tol_phi=args.tol, renorm_every=args.renorm_every,
                       seed=args.seed, jitter=args.jitter,
                       out_dir=args.out)
    report = run_search(cfg)
    print(f"bestPhi={_fmt(report.best_phi)}")
    print(f"iters={report.iters}")
    print(f"converged={'true' if report.converged else 'false'}")
    print(f"stop_reason={report.stop_reason}")
    print(f"r95={_fmt(report.r95)}")
    outputs = [os.path.join(args.out, "report.json"), report.field_path,
               report.log_path]
    return args, outputs, SEARCH_EXIT[report.stop_reason]


def cmd_diagnose(p, argv):
    p.add_argument("--counts", type=int, default=12)
    args = p.parse_args(argv)
    checks = []

    trip = triple_for_theta(3, theta_zero(3))
    checks.append(("endpoint_exponents",
                   (trip.p, trip.q, trip.r) == (Fraction(3, 2), Fraction(2),
                                                Fraction(2))))

    n = args.counts
    src = grid_from_box(3, "source", -1, 1, n)
    tgt = grid_from_box(3, "target", -1, 1, n)
    plan = TransformPlan(source_grid=src, target_grid=tgt)
    rng = np.random.default_rng(7)
    f = SampledField(src, rng.random(src.shape))
    g = SampledField(tgt, rng.random(tgt.shape))
    lhs = bilinear(f, g, plan)
    rhs = float((apply_X_star(g, plan).values * f.values).sum()
                * src.cell_volume)
    checks.append(("adjointness", abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1)))

    from .search import dual_map
    h = SampledField(tgt, rng.random(tgt.shape))
    gd = dual_map(h, Fraction(2), Fraction(2))
    pair = float((h.values * gd.values).sum() * tgt.cell_volume)
    checks.append(("dual_pairing",
                   abs(pair - mixed_norm(h, 2, 2)) <= 1e-9
                   and abs(mixed_norm(gd, 2, 2) - 1) <= 1e-9))

    B = Paraball(0.3, -0.2, (0.1, 0.4), 0.7, 1.3)
    checks.append(("mockdist_self", abs(mock_distance(B, B) - 5) <= 1e-9))

    from .paraball import from_symmetry
    B2 = from_symmetry(to_symmetry(B))
    close = (abs(B2.s0 - B.s0) + abs(B2.t0 - B.t0)
             + sum(abs(a - b) for a, b in zip(B2.ybar, B.ybar))
             + abs(B2.alpha - B.alpha) + abs(B2.beta - B.beta))
    checks.append(("normal_form_roundtrip", close <= 1e-12))

    ok = True
    for name, passed in checks:
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return args, [], 0 if ok else 1


COMMANDS = {
    "exponents": cmd_exponents,
    "norm": cmd_norm,
    "transform": cmd_transform,
    "symmetry": cmd_symmetry,
    "paraball": cmd_paraball,
    "partition": cmd_partition,
    "mockdist": cmd_mockdist,
    "decompose": cmd_decompose,
    "search": cmd_search,
    "diagnose": cmd_diagnose,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in ("-h", "--help"):
        print(USAGE)
        return 0
    if not argv or argv[0] not in COMMANDS:
        sys.stderr.write(USAGE)
        return 64
    name = argv[0]
    p = argparse.ArgumentParser(prog=f"momentxray {name}")
    p.add_argument("--manifest", default="momentxray_run.json",
                   help="where to write the run manifest")
    started = _now()
    try:
        args, outputs, code = COMMANDS[name](p, argv[1:])
        write_manifest(args.manifest, argv, args, outputs,
                       seed=getattr(args, "seed", None), started=started)
    except (ValueError, OSError) as exc:
        message = str(exc).replace("\n", " ")
        sys.stderr.write(f"momentxray {name}: error: {message}\n")
        return 65 if isinstance(exc, ValueError) else 66
    return code


if __name__ == "__main__":
    sys.exit(main())
