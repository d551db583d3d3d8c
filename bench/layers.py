"""The traced functions of each momentxray module and the per-layer metrics.

Every per-layer metric is a mean per traced op.  Times are self times:
a span's duration minus the time of the traced calls it made.  Counts named
``pairs``, ``points``, ``bytes`` and ``pieces`` are computed from the
arguments and results of the traced calls, not measured.
"""

from __future__ import annotations

import os

import numpy as np

from tracer import Target, self_times


def _plan_of(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["plan"]


def _spacing_label(args, kwargs):
    """matched when both grids share cross-section spacings (the shift path
    of the transform), mismatched otherwise."""
    plan = _plan_of(args, kwargs)
    hs, ht = plan.source_grid.spacing[1:], plan.target_grid.spacing[1:]
    same = all(abs(a - b) <= 1e-12 * b for a, b in zip(ht, hs))
    return "matched" if same else "mismatched"


def _quad_nodes(grid, n):
    """Quadrature nodes along axis 0, as the transform places them.

    Repeated here rather than imported, so that refactoring the package's
    private helpers cannot break the benchmark.
    """
    o, h, m = grid.origin[0], grid.spacing[0], grid.counts[0]
    if n == m:
        return o + h * np.arange(m)
    lo, hi = o - h / 2, o + (m - 1) * h + h / 2
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


def _transform_counts(values, in_grid, out_grid, n_quad):
    """(pairs, bytes) for one transform call.

    pairs: quadrature nodes whose interpolated input slice is nonzero, times
    the output levels along axis 0 (the transform skips empty slices).
    bytes: per pair, each of the d-1 interpolated axes reads the input
    cross-section and writes the output cross-section, and the output row
    is read and written once more when accumulated; 8 bytes per value.
    """
    n0 = in_grid.counts[0]
    nz = values.reshape(n0, -1).any(axis=1)
    u = (_quad_nodes(in_grid, n_quad) - in_grid.origin[0]) / in_grid.spacing[0]
    i0 = np.floor(u).astype(np.int64)
    fr = u - i0
    ok0 = (i0 >= 0) & (i0 < n0)
    ok1 = (i0 + 1 >= 0) & (i0 + 1 < n0) & (fr != 0.0)
    live = (ok0 & nz[np.clip(i0, 0, n0 - 1)]) | (ok1 & nz[np.clip(i0 + 1, 0,
                                                                 n0 - 1)])
    pairs = int(live.sum()) * out_grid.counts[0]
    s_in = int(np.prod(in_grid.counts[1:]))
    s_out = int(np.prod(out_grid.counts[1:]))
    per_pair = 8 * ((in_grid.d - 1) * (s_in + s_out) + 2 * s_out)
    return {"pairs": pairs, "bytes": pairs * per_pair}


def _after_X(result, args, kwargs):
    plan = _plan_of(args, kwargs)
    return _transform_counts(args[0].values, plan.source_grid,
                             plan.target_grid, plan.s_quad)


def _after_X_star(result, args, kwargs):
    plan = _plan_of(args, kwargs)
    return _transform_counts(args[0].values, plan.target_grid,
                             plan.source_grid, plan.t_quad)


def _delta_label(args, kwargs):
    delta = args[1] if len(args) > 1 else kwargs["delta"]
    return f"delta{round(1.0 / float(delta)):d}"


def _contains_label(args, kwargs):
    cover = args[0]
    side = args[2] if len(args) > 2 else kwargs.get("side", "primal")
    return f"{side}.delta{round(1.0 / cover.delta):d}"


def _after_contains(result, args, kwargs):
    return {"points": int(np.size(result))}


def _after_run_search(report, args, kwargs):
    return {"iters": report.iters,
            "renorm_accepted": sum(bool(h["renorm_applied"])
                                   for h in report.history)}


def _after_write_field(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


TARGETS = (
    Target("momentxray.exponents", "triple_for_theta"),
    Target("momentxray.field", "lp_norm"),
    Target("momentxray.field", "mixed_norm"),
    Target("momentxray.field", "interpolate",
           after=lambda res, a, k: {"points": int(np.size(res))}),
    Target("momentxray.field", "write_field", after=_after_write_field),
    Target("momentxray.field", "read_field"),
    Target("momentxray.field", "lorentz_mixed_norm"),
    Target("momentxray.symmetry", "normalize_symmetry"),
    Target("momentxray.symmetry", "pullback_source"),
    Target("momentxray.symmetry", "pullback_target"),
    Target("momentxray.symmetry", "map_source"),
    Target("momentxray.symmetry", "map_target"),
    Target("momentxray.xray", "apply_X", label=_spacing_label,
           after=_after_X),
    Target("momentxray.xray", "apply_X_star", label=_spacing_label,
           after=_after_X_star),
    Target("momentxray.xray", "bilinear"),
    Target("momentxray.decomposition", "dyadic_decompose"),
    Target("momentxray.decomposition", "slab_decompose"),
    Target("momentxray.decomposition", "combined_decompose",
           after=lambda res, a, k: {"pieces": len(res)}),
    Target("momentxray.paraball", "partition", label=_delta_label,
           after=lambda res, a, k: {"members": len(res.members)}),
    Target("momentxray.paraball", "_Net", optional=True),
    Target("momentxray.paraball:Cover", "contains", label=_contains_label,
           after=_after_contains),
    Target("momentxray.paraball", "mock_distance"),
    Target("momentxray.paraball", "intersection_volume"),
    Target("momentxray.paraball", "raster_primal"),
    Target("momentxray.search", "run_search", after=_after_run_search),
    Target("momentxray.search", "ascent_step"),
    Target("momentxray.search", "renormalize_state"),
    Target("momentxray.search", "dual_map"),
    Target("momentxray.search", "r95_radius"),
    Target("momentxray.cli", "main"),
)

NET_BUILD = "paraball.partition.net_build_s"

# counts derived from the traced calls' arguments and results, not measured
COMPUTED = ("xray.pairs", "xray.bytes_computed", "field.interpolate.points",
            "field.write_field.bytes", "paraball.contains.points",
            "paraball.partition.members",
            "decomposition.combined_decompose.pieces")

# (name, unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = (
    ("xray.apply_X.matched.calls", "count", "lower"),
    ("xray.apply_X.matched.self_s", "s", "lower"),
    ("xray.apply_X.mismatched.calls", "count", "lower"),
    ("xray.apply_X.mismatched.self_s", "s", "lower"),
    ("xray.apply_X_star.matched.calls", "count", "lower"),
    ("xray.apply_X_star.matched.self_s", "s", "lower"),
    ("xray.apply_X_star.mismatched.calls", "count", "lower"),
    ("xray.apply_X_star.mismatched.self_s", "s", "lower"),
    ("xray.bilinear.self_s", "s", "lower"),
    ("xray.pairs", "count", "lower"),
    ("xray.bytes_computed", "B", "lower"),
    ("xray.share", "1", "lower"),
    ("search.run_search.self_s", "s", "lower"),
    ("search.ascent_step.calls", "count", "lower"),
    ("search.ascent_step.self_s", "s", "lower"),
    ("search.dual_map.self_s", "s", "lower"),
    ("search.r95_radius.self_s", "s", "lower"),
    ("search.iters", "count", "lower"),
    ("search.damping_retries", "count", "lower"),
    ("search.renorm.attempted", "count", "lower"),
    ("search.renorm.accepted", "count", "higher"),
    ("field.lp_norm.self_s", "s", "lower"),
    ("field.mixed_norm.self_s", "s", "lower"),
    ("field.interpolate.self_s", "s", "lower"),
    ("field.interpolate.points", "count", "lower"),
    ("field.write_field.self_s", "s", "lower"),
    ("field.write_field.bytes", "B", "lower"),
    ("field.read_field.self_s", "s", "lower"),
    ("field.lorentz_mixed_norm.self_s", "s", "lower"),
    ("symmetry.normalize_symmetry.self_s", "s", "lower"),
    ("symmetry.pullback_source.self_s", "s", "lower"),
    ("symmetry.pullback_target.self_s", "s", "lower"),
    ("symmetry.map_source.self_s", "s", "lower"),
    ("symmetry.map_target.self_s", "s", "lower"),
    ("decomposition.dyadic_decompose.self_s", "s", "lower"),
    ("decomposition.slab_decompose.self_s", "s", "lower"),
    ("decomposition.combined_decompose.self_s", "s", "lower"),
    ("decomposition.combined_decompose.pieces", "count", "lower"),
    ("paraball.partition.delta4.self_s", "s", "lower"),
    ("paraball.partition.delta8.self_s", "s", "lower"),
    ("paraball.partition.members", "count", "lower"),
    (NET_BUILD, "s", "lower"),
    ("paraball.partition.share", "1", "lower"),
    ("paraball.net_build.share", "1", "lower"),
    ("paraball.contains.primal.delta4.self_s", "s", "lower"),
    ("paraball.contains.dual.delta4.self_s", "s", "lower"),
    ("paraball.contains.primal.delta8.self_s", "s", "lower"),
    ("paraball.contains.dual.delta8.self_s", "s", "lower"),
    ("paraball.contains.points", "count", "lower"),
    ("paraball.mock_distance.calls", "count", "lower"),
    ("paraball.mock_distance.self_s", "s", "lower"),
    ("paraball.intersection_volume.self_s", "s", "lower"),
    ("paraball.raster_primal.self_s", "s", "lower"),
    ("exponents.triple_for_theta.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "1", "lower"),
)

_ROOTS = ("bench.op", "bench.check")

# span counters reported as metrics: counter -> {span key: metric}
_ATTR_METRICS = {
    "iters": {"search.run_search": "search.iters"},
    "renorm_accepted": {"search.run_search": "search.renorm.accepted"},
    "points": {"field.interpolate": "field.interpolate.points",
               "paraball.contains": "paraball.contains.points"},
    "bytes": {"field.write_field": "field.write_field.bytes"},
    "pieces": {"decomposition.combined_decompose":
               "decomposition.combined_decompose.pieces"},
    "members": {"paraball.partition": "paraball.partition.members"},
}


def layer_metrics(spans, traced_wall, untraced_wall, absent=()):
    """Per-layer metrics from the spans of the traced ops and their checks.

    ``traced_wall``/``untraced_wall`` are the summed wall times of the same
    ops run with and without tracing.  Spans under a ``bench.check`` root
    count only for ``read_field``, which runs nowhere else.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    root = {}
    for s in spans:  # parents are recorded before their children
        root[s.sid] = s.sid if s.parent is None else root[s.parent]
    n_ops = sum(1 for s in spans if s.name == "bench.op")
    if n_ops == 0:
        raise ValueError("no traced op")
    op_wall = sum(s.end - s.start for s in spans if s.name == "bench.op")

    calls, self_s, total_s, attrs = {}, {}, {}, {}
    for s in spans:
        if s.name in _ROOTS:
            continue
        in_check = by_id[root[s.sid]].name == "bench.check"
        if in_check and s.name != "field.read_field":
            continue
        keys = [s.name] + ([f"{s.name}.{s.label}"] if s.label else [])
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + selfs[s.sid]
            total_s[key] = total_s.get(key, 0.0) + (s.end - s.start)
            for a, v in s.attrs.items():
                attrs[(key, a)] = attrs.get((key, a), 0) + v

    retries = sum(1 for s in spans if s.name == "xray.apply_X"
                  and s.parent is not None
                  and by_id[s.parent].name == "search.ascent_step")
    retries -= calls.get("search.ascent_step", 0)
    xray_self = sum(self_s.get(k, 0.0) for k in (
        "xray.apply_X", "xray.apply_X_star", "xray.bilinear"))
    ratios = {  # over the traced ops' summed wall time, not per op
        "xray.share": xray_self / op_wall,
        "paraball.partition.share": total_s.get("paraball.partition", 0.0)
        / op_wall,
        "paraball.net_build.share": total_s.get("paraball._Net", 0.0)
        / op_wall,
        "trace.overhead": traced_wall / untraced_wall,
    }
    totals = {
        "xray.pairs": attrs.get(("xray.apply_X", "pairs"), 0)
        + attrs.get(("xray.apply_X_star", "pairs"), 0),
        "xray.bytes_computed": attrs.get(("xray.apply_X", "bytes"), 0)
        + attrs.get(("xray.apply_X_star", "bytes"), 0),
        "search.damping_retries": max(retries, 0),
        "search.renorm.attempted": calls.get("search.renormalize_state", 0),
        NET_BUILD: total_s.get("paraball._Net", 0.0),
    }
    for attr, metrics in _ATTR_METRICS.items():
        for key, metric in metrics.items():
            totals[metric] = attrs.get((key, attr), 0)
    out = {}
    for name, _, _ in PER_LAYER:
        if name in ratios:
            out[name] = ratios[name]
            continue
        if name in totals:
            v = totals[name]
        elif name.endswith(".calls"):
            v = calls.get(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            v = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        out[name] = v / n_ops
    if "paraball._Net" in absent:
        out[NET_BUILD] = -1.0
    return out
