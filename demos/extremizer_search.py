#!/usr/bin/env python3
"""Run the symmetry-renormalized ascent and watch the ratio climb.

Starts from a seeded, jittered unit-paraball indicator, alternates dual-map
ascent steps with re-centering renormalizations, and prints the ratio
history, tagging the steps that began with an accepted renormalization.  The run
is small (24^3 grid) and finishes in about a second; the converged ratio
comfortably beats the paraball indicator pair, which is the natural
hand-built competitor.
"""

from fractions import Fraction

from momentxray.field import grid_from_box
from momentxray.paraball import (dual_bbox, primal_bbox, quasi_ratio,
                                 raster_dual, raster_primal, unit_paraball)
from momentxray.search import SearchConfig, localization_report, run_search
from momentxray.xray import TransformPlan

D = 3
THETA = Fraction(5, 6)
P = Fraction(3, 2)


def paraball_baseline(n=24):
    B = unit_paraball(D)
    sg = grid_from_box(D, "source", *primal_bbox(B), [n] * D)
    tg = grid_from_box(D, "target", *dual_bbox(B), [n] * D)
    return quasi_ratio(raster_primal(B, sg), raster_dual(B, tg), THETA,
                       TransformPlan(sg, tg, n, n))


def main():
    baseline = paraball_baseline()
    print(f"unit paraball pair ratio (the shape to beat): {baseline:.6f}")

    cfg = SearchConfig(seed=1)
    report = run_search(cfg)
    print(f"search at {cfg.counts}^3, seed {cfg.seed}:")
    for step in report.history:
        tag = " renorm" if step["renorm_applied"] else ""
        print(f"  iter {step['iter']:2d}  phi={step['phi']:.8f}{tag}")
    print(f"converged={report.converged} after {report.iters} iters")
    print(f"best phi {report.best_phi:.8f} "
          f"(beats paraball by {report.best_phi / baseline - 1:.1%})")
    frac = localization_report(report.state.f, P, report.r95)
    print(f"localization: r95={report.r95:.4f}, mass fraction beyond it "
          f"{frac:.4f}")


if __name__ == "__main__":
    main()
