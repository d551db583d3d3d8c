"""Sampled functions on uniform box grids, the moment curve, and norm functionals.

Grid convention: nodes sit at cell centers.  A grid with ``origin`` o,
``spacing`` h and ``counts`` n covers the box [o - h/2, o + (n - 1)h + h/2]
per axis, so sums of node values times the cell volume are midpoint
quadrature rules over that box, and the indicator of the box is exactly
representable.  Fields are extended by zero outside their box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .exponents import as_float

_SIDES = ("source", "target")


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box in R^d.  Axis 0 is the s (source) or t (target) axis."""

    d: int
    side: str
    origin: tuple
    spacing: tuple
    counts: tuple

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "spacing", tuple(float(v) for v in self.spacing))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        if not (len(self.origin) == len(self.spacing) == len(self.counts) == self.d):
            raise ValueError("origin, spacing, counts must all have length d")
        if not all(math.isfinite(h) and h > 0 for h in self.spacing):
            raise ValueError("spacing must be finite and strictly positive")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError("origin must be finite")
        if any(n < 2 for n in self.counts):
            raise ValueError("counts must be >= 2 on every axis")

    @property
    def shape(self):
        return self.counts

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        o, h, n = self.origin[axis], self.spacing[axis], self.counts[axis]
        return o + h * np.arange(n)

    def axes(self):
        return [self.axis_nodes(k) for k in range(self.d)]

    def box(self):
        """(lo, hi) arrays of the covered box (cell cover of the nodes)."""
        o = np.asarray(self.origin)
        h = np.asarray(self.spacing)
        n = np.asarray(self.counts)
        return o - h / 2, o + (n - 1) * h + h / 2

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape counts + (d,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)


def grid_from_box(d: int, side: str, lo, hi, counts) -> Grid:
    """Grid whose cells exactly tile the box [lo, hi] (nodes at cell centers)."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (d,))
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (d,))
    counts = np.broadcast_to(np.asarray(counts, dtype=int), (d,))
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent on every axis")
    spacing = (hi - lo) / counts
    origin = lo + spacing / 2
    return Grid(d=d, side=side, origin=tuple(origin), spacing=tuple(spacing),
                counts=tuple(counts))


@dataclass(frozen=True)
class SampledField:
    """Real values sampled on a Grid.  Immutable after construction."""

    grid: Grid
    values: np.ndarray = dc_field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            if vals.size == int(np.prod(self.grid.shape)):
                vals = vals.reshape(self.grid.shape)
            else:
                raise ValueError(
                    f"values shape {vals.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def d(self):
        return self.grid.d

    @property
    def side(self):
        return self.grid.side

    def with_values(self, values) -> "SampledField":
        return SampledField(grid=self.grid, values=values)


@dataclass(frozen=True)
class MomentCurve:
    """The curve t -> (t, t^2, ..., t^{d-1}) in R^{d-1}."""

    d: int

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"dimension d must be >= 3, got {self.d}")

    def __call__(self, t):
        return gamma_eval(self.d, t)


def gamma_eval(d: int, t) -> np.ndarray:
    """Moment curve value; component m is t^m for m = 1..d-1.

    Scalar t gives shape (d-1,), an array t of shape S gives S + (d-1,).
    """
    if d < 3:
        raise ValueError(f"dimension d must be >= 3, got {d}")
    t = np.asarray(t, dtype=float)
    powers = np.arange(1, d)
    return t[..., None] ** powers


def lp_norm(f: SampledField, p) -> float:
    """Riemann-sum L^p norm; max norm when p is infinite."""
    pf = as_float(p)
    absv = np.abs(f.values)
    if np.isinf(pf):
        return float(absv.max()) if absv.size else 0.0
    if pf < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((absv ** pf).sum() * f.grid.cell_volume) ** (1.0 / pf)


def _slice_r_norms(g: SampledField, r) -> np.ndarray:
    """Inner L^r norm over y for each t-slice (axis 0)."""
    rf = as_float(r)
    vals = g.values
    yaxes = tuple(range(1, g.d))
    if np.isinf(rf):
        return vals.max(axis=yaxes)
    dy = float(np.prod(g.grid.spacing[1:]))
    return ((vals ** rf).sum(axis=yaxes) * dy) ** (1.0 / rf)


def mixed_norm(g: SampledField, q, r) -> float:
    """Mixed norm: L^r in y inside, L^q in t outside."""
    if g.side != "target":
        raise ValueError("mixed_norm expects a target-side field")
    if np.any(g.values < 0):
        raise ValueError("mixed_norm requires nonnegative values")
    qf = as_float(q)
    rf = as_float(r)
    if (not np.isinf(qf) and qf < 1) or (not np.isinf(rf) and rf < 1):
        raise ValueError("q and r must be >= 1 or inf")
    inner = _slice_r_norms(g, r)
    if np.isinf(qf):
        return float(inner.max()) if inner.size else 0.0
    dt = g.grid.spacing[0]
    return float(((inner ** qf).sum() * dt) ** (1.0 / qf))


def lorentz_source_norm(f: SampledField, p, s) -> float:
    """Dyadic Lorentz proxy (sum_j (2^j |E_j|^{1/p})^s)^{1/s} on the source side.

    Equivalent-norm proxy only: correct up to a bounded dyadic factor,
    never compared tighter than a factor of 4.
    """
    from .decomposition import dyadic_decompose

    if f.side != "source":
        raise ValueError("lorentz_source_norm expects a source-side field")
    if np.any(f.values < 0):
        raise ValueError("lorentz_source_norm requires nonnegative values")
    pf = as_float(p)
    sf = as_float(s)
    if pf < 1 or sf < 1:
        raise ValueError("p and s must be >= 1")
    pieces = dyadic_decompose(f)
    if not pieces:
        return 0.0
    terms = [(2.0 ** pc.j * pc.measure ** (1.0 / pf)) ** sf for pc in pieces]
    return float(sum(terms) ** (1.0 / sf))


def lorentz_mixed_norm(g: SampledField, q, s, r) -> float:
    """Slab Lorentz proxy (sum_l ||g^l||_{q,r}^s)^{1/s} on the target side."""
    from .decomposition import slab_decompose

    if g.side != "target":
        raise ValueError("lorentz_mixed_norm expects a target-side field")
    if np.any(g.values < 0):
        raise ValueError("lorentz_mixed_norm requires nonnegative values")
    sf = as_float(s)
    if sf < 1:
        raise ValueError("s must be >= 1")
    slabs = slab_decompose(g, r)
    if not slabs:
        return 0.0
    total = 0.0
    for slab in slabs:
        piece = g.values * slab.t_mask.reshape((-1,) + (1,) * (g.d - 1))
        total += mixed_norm(g.with_values(piece), q, r) ** sf
    return float(total ** (1.0 / sf))


def truncate(F: SampledField, R: float) -> SampledField:
    """Zero out nodes with |z| >= R or |F(z)| >= R (both cutoffs strict)."""
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    nodes = F.grid.nodes()
    radius2 = (nodes ** 2).sum(axis=-1)
    keep = (radius2 < R * R) & (np.abs(F.values) < R)
    return F.with_values(np.where(keep, F.values, 0.0))


def interpolate(f: SampledField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of f at arbitrary points, zero outside.

    ``points`` has shape S + (d,); the result has shape S.  Node samples
    outside the grid are treated as zero, so values decay linearly to zero
    within one cell beyond the boundary nodes.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != f.d:
        raise ValueError(f"points must have last dimension {f.d}")
    flat = pts.reshape(-1, f.d)
    origin = np.asarray(f.grid.origin)
    spacing = np.asarray(f.grid.spacing)
    counts = np.asarray(f.grid.counts)
    u = (flat - origin) / spacing
    base = np.floor(u).astype(np.int64)
    frac = u - base
    out = np.zeros(flat.shape[0])
    vals = f.values
    for corner in range(1 << f.d):
        offs = np.array([(corner >> k) & 1 for k in range(f.d)])
        idx = base + offs
        w = np.ones(flat.shape[0])
        for k in range(f.d):
            w *= np.where(offs[k] == 1, frac[:, k], 1.0 - frac[:, k])
        valid = np.all((idx >= 0) & (idx < counts), axis=1)
        if not np.any(valid):
            continue
        iv = idx[valid]
        out[valid] += w[valid] * vals[tuple(iv.T)]
    return out.reshape(pts.shape[:-1])


def write_field(f: SampledField, path) -> None:
    """One JSON header line, then raw little-endian float64 values, C order."""
    header = {
        "d": f.grid.d,
        "side": f.grid.side,
        "origin": list(f.grid.origin),
        "spacing": list(f.grid.spacing),
        "counts": list(f.grid.counts),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("ascii"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes())


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real_list(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)


_HEADER_TYPES = {
    "d": _is_int,
    "side": lambda v: isinstance(v, str),
    "origin": _is_real_list,
    "spacing": _is_real_list,
    "counts": lambda v: isinstance(v, list) and all(map(_is_int, v)),
}


def _header_grid(line: bytes) -> Grid:
    header = json.loads(line.decode("ascii"))
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    for key, ok in _HEADER_TYPES.items():
        if key not in header:
            raise ValueError(f"header lacks {key!r}")
        if not ok(header[key]):
            raise ValueError(f"header {key!r} has the wrong type")
    return Grid(d=header["d"], side=header["side"],
                origin=tuple(header["origin"]),
                spacing=tuple(header["spacing"]),
                counts=tuple(header["counts"]))


def read_field(path) -> SampledField:
    """Inverse of write_field; a malformed file raises ValueError naming it."""
    with open(path, "rb") as fh:
        try:
            grid = _header_grid(fh.readline())
        except ValueError as exc:
            raise ValueError(f"{path}: bad field header: {exc}") from None
        raw = fh.read()
    expected = int(np.prod(grid.counts)) * 8
    if len(raw) != expected:
        raise ValueError(f"{path}: field payload has {len(raw)} bytes,"
                         f" expected {expected}")
    values = np.frombuffer(raw, dtype="<f8").reshape(grid.shape)
    return SampledField(grid=grid, values=values)
