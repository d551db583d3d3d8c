"""How fast the shared host runs right now, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed for the
same work drifts with its neighbours' load: a fixed pure-Python loop's
30-second means spread 18% (quartile distance over median) within four
minutes, and in one set of runs every workload got 1.5 times faster over a
quarter of an hour.  The drift is slow, so it moves whole runs, and a
median over the ops of a run cannot remove it.

So a run also times this kernel between its ops.  The kernel is part of
the benchmark, not of momentxray, so no change to the program changes it.
Its mix follows the package's hot paths: many numpy calls on small arrays
(the transforms' per-section work), plain Python arithmetic (the greedy
nets and the pullbacks' bookkeeping) and a pass over a 2 MiB array (the
norms and the interpolation).  Dividing a run's times by the kernel's
median time in that run, and multiplying by NOMINAL_S, gives the times the
run would have had on a host that runs the kernel in NOMINAL_S seconds.
NOMINAL_S only sets the scale: it cancels when two runs are compared.
"""

import time

import numpy as np

# near the kernel's median times per run (32-49 ms) on the VM of the bounds
NOMINAL_S = 0.04
# one kernel sample per this much op time, and at least one per op
PERIOD_S = 1.0

_rng = np.random.default_rng(20200904)
_A = _rng.random((64, 64))
_B = _rng.random((64, 128))
_C = _rng.random((64, 64, 64))


def kernel():
    acc = 0.0
    for _ in range(400):
        acc += float(np.moveaxis(np.tensordot(_A, _B, axes=([1], [0])),
                                 0, 1)[0, 0])
    s = 0
    for i in range(150_000):
        s += i * i % 7
    for _ in range(25):
        acc += float((_C * 1.5 + 0.5).sum())
    return acc + s


def samples(busy_s):
    """Time the kernel once per PERIOD_S of ``busy_s``, at least once."""
    out = []
    for _ in range(max(1, round(busy_s / PERIOD_S))):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out
