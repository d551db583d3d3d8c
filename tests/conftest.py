"""Shared builders for the test suite."""

import math

import numpy as np
import pytest
from fractions import Fraction

from momentxray.field import SampledField, grid_from_box
from momentxray.symmetry import Symmetry, Translate, Shear

D = 3
P_MAIN = Fraction(3, 2)
THETA_MAIN = Fraction(5, 6)


# values the real-number rule (field._real) refuses, by pytest id
NON_REALS = {"bool": True, "numpy-bool": np.True_, "str": "2", "none": None,
             "nan": math.nan, "inf": math.inf, "huge-int": 10 ** 400}


def non_reals(*skip):
    """pytest params of NON_REALS without the ids in ``skip``: values whose
    refusal, naming the parameter, the site's older checks already gave."""
    return [pytest.param(v, id=k) for k, v in NON_REALS.items()
            if k not in skip]


# values the exponent rule (field._exponent) refuses, by pytest id
NON_EXPONENTS = {"bool": True, "numpy-bool": np.True_, "str": "2",
                 "none": None, "nan": math.nan, "minus-inf": -math.inf,
                 "huge-int": 10 ** 400, "half": 0.5, "zero": 0}


def non_exponents(*skip):
    """pytest params of NON_EXPONENTS without the ids in ``skip``."""
    return [pytest.param(v, id=k) for k, v in NON_EXPONENTS.items()
            if k not in skip]


def box_grid(side, lo, hi, n, d=D):
    """Cubical grid helper used throughout."""
    return grid_from_box(d, side, [lo] * d, [hi] * d, [n] * d)


def smooth_source(grid, rng, amp):
    """Gaussian bump with a mild square-root cusp, positive everywhere."""
    pts = grid.nodes()
    c = rng.uniform(-0.3, 0.3, 3)
    w = rng.uniform(1.2, 1.6, 3)
    vals = np.exp(-np.sum(((pts - c) / w) ** 2, axis=-1))
    cc = rng.uniform(-0.4, 0.4, 3)
    R = rng.uniform(1.0, 1.4)
    r = np.sqrt(np.sum((pts - cc) ** 2, axis=-1))
    vals = vals * (1.0 + amp * np.sqrt(np.maximum(0.0, 1.0 - r / R)))
    return SampledField(grid, vals)


def smooth_target(grid, rng, amp):
    """Anisotropic bump on the target side with a cusp in the y block."""
    pts = grid.nodes()
    ct = rng.uniform(-0.2, 0.2)
    wt = rng.uniform(0.45, 0.65)
    cy = rng.uniform(-0.3, 0.3, 2)
    wy = rng.uniform(1.2, 1.6, 2)
    zt = (pts[..., 0] - ct) / wt
    zy = (pts[..., 1:] - cy) / wy
    vals = np.exp(-zt ** 2 - np.sum(zy ** 2, axis=-1))
    cyl = rng.uniform(-0.4, 0.4, 2)
    Ry = rng.uniform(1.0, 1.4)
    ry = np.sqrt(np.sum((pts[..., 1:] - cyl) ** 2, axis=-1))
    vals = vals * (1.0 + amp * np.sqrt(np.maximum(0.0, 1.0 - ry / Ry)))
    return SampledField(grid, vals)


def drift_symmetry(rng):
    """Small translate-plus-shear used by the norm-drift checks."""
    v = rng.uniform(-0.12, 0.12, 2)
    t0 = rng.uniform(0.025, 0.05) * (1.0 if rng.random() < 0.5 else -1.0)
    return Symmetry((Translate(tuple(v)), Shear(0.0, float(t0))))


def drift_fields(seed, n):
    """Seeded (f, g, sigma) triple on +-3 boxes at resolution n."""
    rng = np.random.default_rng(seed)
    sg = box_grid("source", -3.0, 3.0, n)
    tg = box_grid("target", -3.0, 3.0, n)
    f = smooth_source(sg, rng, 0.5)
    g = smooth_target(tg, rng, 0.9)
    sig = drift_symmetry(rng)
    return f, g, sig
