"""momentxray benchmark: one workload, closed loop, one op at a time.

Run from the root of a source checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

The package is imported from ``./src``.  The run measures whole op cycles
until ``--seconds`` of wall time have passed, checks every op's output, and
prints one JSON object as its last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics, with every time in them
scaled to a nominal host speed measured beside the ops (see
``hostspeed.py``); with ``--trace 1`` it runs
every op once untraced and once traced on the same input and reports the
per-layer metrics.  Run details (environment, every metric, the spans of a
traced run) are written under ``.bench_out/``.
"""

import time

T_ENTRY = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# single-threaded BLAS for this process and its children, set before numpy
# is imported: threaded BLAS makes the mismatched-grid transforms noisy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

SETUP_PROBES = 14  # extra fresh-process set-ups; setup_s is the median of 15
OUT_DIR = ".bench_out"
NOT_APPLICABLE = 1.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("phi_best", "1"),
    ("pairing_rel_err", "1"),
)


def _import_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "momentxray", "__init__.py")):
        raise SystemExit(f"error: no momentxray sources under {src}")
    sys.path.insert(0, src)
    import momentxray

    where = os.path.realpath(momentxray.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: momentxray was imported from {where}")
    return momentxray


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("search", "pairing", "cover"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def run_ops(wl, seed, seconds, workdir, traced=None, host=None):
    """Closed loop over whole cycles of ops; returns per-op records.

    With ``traced`` (an Instrumentation), each op runs untraced and then
    traced on the same input.  With ``host`` (a list), the reference
    kernel's times are appended to it: once before the first op, then after
    each op, once per second of the op's wall time.  Input generation,
    checks and clean-up are outside the timed region.  An exception in an
    op or a check, or a non-empty problem list, makes the op count as
    failed.
    """
    records = []
    start = time.perf_counter()
    index = 0
    modes = (None,) if traced is None else (None, traced)
    if host is not None:
        host.extend(hostspeed.samples(0.0))
    # run at least two cycles, so that a median has two values; after that,
    # start a cycle only if it should end less than half a cycle late
    while index < 2 * wl.cycle or (time.perf_counter() - start) * (
            1 + 0.5 * wl.cycle / index) < seconds:
        for _ in range(wl.cycle):
            inp = wl.inputs(seed, index)
            for mode in modes:
                records.append(_one_op(wl, inp, workdir, mode))
                if host is not None:
                    host.extend(hostspeed.samples(
                        records[-1].get("wall_s", 0.0)))
            index += 1
    return records


def _one_op(wl, inp, workdir, traced):
    opdir = os.path.join(workdir, f"op{inp.index}")
    os.makedirs(opdir, exist_ok=True)
    rec = {"index": inp.index, "traced": traced is not None, "ok": False,
           "problems": [], "values": {}}

    def root(name):
        if traced is None:
            return contextlib.nullcontext()
        return traced.tracer.root(name, inp.index)

    try:
        with traced or contextlib.nullcontext():
            with root("bench.op"):
                t0, c0 = time.perf_counter(), time.process_time()
                out = wl.run(inp, opdir)
                rec["wall_s"] = time.perf_counter() - t0
                rec["cpu_s"] = time.process_time() - c0
            with root("bench.check"):
                problems, values = wl.check(inp, out)
        rec["problems"], rec["values"] = problems, values
        rec["ok"] = not problems
    except Exception:  # an op that raises is a failed op, not an abort
        rec["problems"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(opdir, ignore_errors=True)
    for msg in rec["problems"]:
        sys.stderr.write(f"op {inp.index} failed: {msg}\n")
    return rec


def _setup_probes(args, n):
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--setup-probe"]
    for _ in range(n):
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(res.stdout.strip().splitlines()[-1]))
    return samples


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes():
    """Unified cache sizes in bytes by level, from the kernel's cpu0 view."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = int(fh.read())
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(size[-1:], 1)
        if kind == "Unified" and size.rstrip("KM").isdigit():
            sizes[level] = int(size.rstrip("KM")) * scale
    return sizes


def environment(root, np):
    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    caches = _cache_sizes()
    return {
        "git_sha": _git_sha(root),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": caches.get(2),
        "l3_bytes": caches.get(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {v: os.environ.get(v) for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def cycle_op_means(records, cycle):
    """Mean op wall time of each cycle of ops, in run order.

    A cycle holds one op of each of the workload's op shapes, so its mean
    does not jump between shapes the way a single op's time does.
    """
    walls = {}
    for r in records:
        if "wall_s" in r:
            walls.setdefault(r["index"] // cycle, []).append(r["wall_s"])
    return [statistics.fmean(walls[k]) for k in sorted(walls)]


def end_to_end(wl, records, setup_samples, scale=1.0):
    """The end-to-end metrics; ``scale`` multiplies every time in them."""
    done = [r for r in records if r["ok"]]
    walls = [r["wall_s"] for r in records if "wall_s" in r]
    cycles = cycle_op_means(records, wl.cycle)
    metrics = {
        "setup_s": statistics.median(setup_samples) * scale,
        "ops_per_s": len(done) / sum(walls) / scale if walls else 0.0,
        "op_p50_s": statistics.median(cycles) * scale if cycles else 0.0,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "phi_best": NOT_APPLICABLE,
        "pairing_rel_err": NOT_APPLICABLE,
    }
    if wl.name == "search" and done:
        metrics["phi_best"] = statistics.fmean(
            r["values"]["phi_best"] for r in done)
    if wl.name == "pairing" and done:
        metrics["pairing_rel_err"] = statistics.median(
            r["values"]["pairing_rel_err"] for r in done)
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END}


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    _import_package(root)
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    for index in range(wl.cycle):
        wl.inputs(args.seed, index)
    setup_main = time.perf_counter() - T_ENTRY
    if args.setup_probe:
        print(repr(setup_main))
        return 0

    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        # warm-up at reduced size: first-use costs stay out of the timing
        for index in range(wl.cycle):
            inp = wl.inputs(args.seed, index, small=True)
            wl.run(inp, os.path.join(workdir, "warmup"))
        shutil.rmtree(os.path.join(workdir, "warmup"), ignore_errors=True)

        result = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "input_digest": workloads.input_digest(args.workload,
                                                         args.seed)}
        if args.trace:
            import layers
            import tracer

            instr = tracer.Instrumentation(tracer.Tracer(), layers.TARGETS)
            with instr:  # a binding that cannot be wrapped stops the run here
                pass
            records = run_ops(wl, args.seed, args.seconds, workdir, instr)
            traced = sum(r["wall_s"] for r in records
                         if r["traced"] and "wall_s" in r)
            plain = sum(r["wall_s"] for r in records
                        if not r["traced"] and "wall_s" in r)
            values = layers.layer_metrics(instr.tracer.spans, traced, plain,
                                          instr.absent)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in layers.PER_LAYER}
            result["absent"] = [layers.NET_BUILD] if instr.absent else []
            result["computed_not_measured"] = list(layers.COMPUTED)
            result["spans"] = [dataclasses.asdict(s)
                               for s in instr.tracer.spans]
        else:
            host = []
            records = run_ops(wl, args.seed, args.seconds, workdir,
                              host=host)
            setup = [setup_main] + _setup_probes(args, SETUP_PROBES)
            scale = hostspeed.NOMINAL_S / statistics.median(host)
            metrics = end_to_end(wl, records, setup, scale)
            result.update(setup_samples_s=setup, host_samples_s=host,
                          host_scale=scale,
                          wall_metrics=end_to_end(wl, records, setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if not r["ok"])
    result.update(environment=environment(root, np), metrics=metrics,
                  ops=records)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")
    print(json.dumps({"environment": result["environment"],
                      "input_digest": result["input_digest"],
                      "details": os.path.relpath(path, root)}))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
