"""Sampled functions on uniform box grids, the moment curve, and norm functionals.

Grid convention: nodes sit at cell centers.  A grid with ``origin`` o,
``spacing`` h and ``counts`` n covers the box [o - h/2, o + (n - 1)h + h/2]
per axis, so sums of node values times the cell volume are midpoint
quadrature rules over that box, and the indicator of the box is exactly
representable.  Fields are extended by zero outside their box.  The Grid
owns the map both ways: ``axis_nodes`` and ``box`` give coordinates, and
``locate`` the cell of a coordinate, for every interpolation in the package.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

import numpy as np

from .exponents import Infinity

_SIDES = ("source", "target")

# points per block of every point-wise pipeline (see _blocks): Cover.contains,
# membership, intersection_volume, interpolate, and through _node_blocks the
# passes over a grid's nodes (pullbacks, rasters, truncate, the r95 radii)
_BLOCK = 4096

# the types _real takes; bool, an int subclass, is refused on its own
_REALS = (int, float, Fraction, np.integer, np.floating)

# the least dimension d of the moment curve, its group and exponent line
_D_MIN = 3


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a box in R^d.  Axis 0 is the s (source) or t (target)
    axis.  origin and spacing (> 0) follow the real-number rule (_real)."""

    d: int
    side: str
    origin: tuple
    spacing: tuple
    counts: tuple

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        object.__setattr__(self, "origin",
                           tuple(_real(v, "origin") for v in self.origin))
        object.__setattr__(self, "spacing",
                           tuple(_real(v, "spacing", 0) for v in self.spacing))
        object.__setattr__(self, "d", _integer(self.d, "d", 1))
        object.__setattr__(self, "counts",
                           tuple(_integer(v, "counts", 2) for v in self.counts))
        if not (len(self.origin) == len(self.spacing) == len(self.counts) == self.d):
            raise ValueError("origin, spacing, counts must all have length d")

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

    def locate(self, x, axis=slice(None)):
        """(int64 floor index, fraction) of x = origin + (index + fraction) h.

        x lies on one axis if ``axis`` is an int; for a slice of axes (all by
        default), x's last axis runs over them.
        """
        u = (x - np.asarray(self.origin)[axis]) / np.asarray(self.spacing)[axis]
        base = np.floor(u)
        # a floor beyond 2^62 cells is clipped before the int64 cast, which
        # it would overflow; no grid has that many cells, so the point still
        # lies outside every cell, and the fraction keeps the exact floor.
        # minimum/maximum rather than np.clip, whose call costs 3x as much on
        # the transforms' scalar lookups
        index = np.minimum(np.maximum(base, -2.0 ** 62), 2.0 ** 62)
        return index.astype(np.int64), u - base

    def box(self):
        """(lo, hi) arrays of the covered box (cell cover of the nodes)."""
        o = np.asarray(self.origin)
        h = np.asarray(self.spacing)
        n = np.asarray(self.counts)
        return o - h / 2, o + (n - 1) * h + h / 2

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape counts + (d,)."""
        return _lattice(self.axes())


def _integer(value, name: str, least: int | None = None) -> int:
    """value as a Python int, the one integer rule for every count, budget
    and seed: Python and numpy integers pass; a bool, float, string, None
    or any other object, and an integer below ``least`` when one is given,
    raise ValueError naming ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and number < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    return number


def _real(value, name: str, low=None, *, strict: bool = True) -> float:
    """value as a finite Python float, the one real-number rule for every
    real parameter: Python and numpy ints and floats and Fractions pass; a
    bool, string, None, array or any other object, an int past the float
    range, NaN, +-inf, and, when ``low`` is given, a value not > low (not
    >= low unless ``strict``) raise ValueError naming ``name``."""
    if not isinstance(value, _REALS) or isinstance(value, bool):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and (
            low is None or (number > low if strict else number >= low))):
        bound = "" if low is None else f" and {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")
    return number


def _exponent(value, name: str) -> float:
    """value as a float, the one numeric exponent rule: INF and float +inf
    give math.inf; any other value must pass the real-number rule (_real)
    and be >= 1, or ValueError names ``name`` (a Fraction shown as p/q)."""
    if isinstance(value, Infinity) or (
            isinstance(value, (float, np.floating)) and value == math.inf):
        return math.inf
    try:
        return _real(value, name, 1, strict=False)
    except ValueError:
        shown = value if isinstance(value, Fraction) else repr(value)
        raise ValueError(f"{name} must be >= 1 or inf, got {shown}") from None


def _field(value, site: str, side: str | None = None, *,
           grid: Grid | None = None, nonnegative: bool = False) -> None:
    """The one field-argument rule, run before any transform, pullback or
    norm pass: a value that is not a SampledField, a field not on ``side``
    when one is given, a field whose grid is not ``grid`` (a plan's source
    or target grid) when one is given, and, if ``nonnegative``, a field
    with a negative value raise ValueError; every message but the grid's
    names ``site``."""
    if not isinstance(value, SampledField):
        raise ValueError(f"{site} expects a SampledField,"
                         f" got {type(value).__name__}")
    if side is not None and value.side != side:
        raise ValueError(f"{site} expects a {side}-side field")
    if grid is not None and value.grid != grid:
        raise ValueError(
            f"field grid does not match the plan's {grid.side} grid")
    if nonnegative and np.any(value.values < 0):
        raise ValueError(f"{site} requires nonnegative values")


def _blocks(n: int):
    """Slices that cut n points into consecutive blocks of _BLOCK points.

    Block rule: a point-wise pipeline runs its whole chain of numpy passes
    on one block before it starts the next, so the temporaries of a block
    stay in cache instead of streaming arrays of every point through
    memory, and its memory grows with its output, not with the points it
    maps.  The pipelines: Cover.contains, membership, intersection_volume
    and interpolate over given points, and over a grid's nodes (see
    _node_blocks) the source and target pullbacks, raster_primal and
    raster_dual (with fit_paraball's memberships), truncate and the radii
    of search's localisation profile.  Each point gets the same float
    operations in the same layout as in one full-array pass, so results do
    not depend on the block size.  _BLOCK is a constant measured once, not
    an option.
    """
    return (slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK))


def _node_blocks(grid: Grid):
    """Yield (slice, nodes) over grid's nodes in consecutive C-order blocks.

    The slice runs over the flat C-order node index, and nodes is a
    C-contiguous (len, d) array of those nodes, read off the grid axes: the
    rows of Grid.nodes().reshape(-1, d) in the slice, to the byte, without
    building the whole lattice (see _blocks).
    """
    axes = grid.axes()
    for blk in _blocks(math.prod(grid.counts)):
        index = np.unravel_index(np.arange(blk.start, blk.stop), grid.counts)
        yield blk, np.stack([a[i] for a, i in zip(axes, index)], axis=-1)


def _lattice(axes) -> np.ndarray:
    """Points of the product of 1-D axes, shape (len(a) for a in axes) + (k,)."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def grid_from_box(d: int, side: str, lo, hi, counts) -> Grid:
    """Grid whose cells exactly tile the box [lo, hi] (nodes at cell centers);
    lo and hi are checked entry by entry by the real-number rule (_real)."""
    d = _integer(d, "d", 1)
    lo, hi, counts = (np.broadcast_to(np.asarray(v, dtype=object), (d,))
                      for v in (lo, hi, counts))
    lo = np.array([_real(v, "lo") for v in lo])
    hi = np.array([_real(v, "hi") for v in hi])
    counts = [_integer(n, "counts", 2) for n in counts]
    if np.any(hi <= lo):
        raise ValueError("box must have positive extent on every axis")
    with np.errstate(over="ignore"):
        extent = hi - lo
    if not np.isfinite(extent).all():
        raise ValueError("box extent hi - lo must be finite")
    spacing = extent / counts
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
        object.__setattr__(self, "d", _integer(self.d, "d", _D_MIN))

    def __call__(self, t):
        return gamma_eval(self.d, t)


def gamma_eval(d: int, t) -> np.ndarray:
    """Moment curve value; component m is t^m for m = 1..d-1.

    Scalar t gives shape (d-1,), an array t of shape S gives S + (d-1,),
    stored by component: each [..., m - 1] is contiguous.  The components
    are bit for bit numpy's t[..., None] ** np.arange(1, d) (see _moments):
    component 1 is t itself, because numpy's array power is exact at
    exponent 1, and components m >= 2 come from numpy's array power with
    an array of exponents.  A scalar exponent would not do: numpy then
    squares for m = 2, and t * t differs from its power kernel in the last
    bit for some t (7053 of 262144 uniform t in [-3, 3) on an AVX-512 host,
    numpy 2.4).
    """
    d = _integer(d, "d", _D_MIN)
    t = np.asarray(t, dtype=float)
    flat = t.reshape(-1)
    out = np.empty((d - 1, flat.size))
    for k, power in enumerate(_moments(flat, d)):
        out[k] = power
    return out.T.reshape(t.shape + (d - 1,))


def _moments(t: np.ndarray, d: int):
    """Yield t^m, m = 1..d-1, for a 1-D float array t, as gamma_eval
    defines them: t itself, then numpy's power with an exponent array of m,
    one entry per point.  t must be 1-D: a 0-d operand has zero stride, and
    numpy squares for a zero-stride exponent 2 as for a scalar one.
    """
    yield t
    exponent = np.empty(t.shape)
    for m in range(2, d):
        exponent.fill(m)
        yield np.power(t, exponent)


def _lq(values: np.ndarray, cell: float, qf: float):
    """Riemann-sum L^qf norm of nonnegative samples with cell measure
    ``cell``; the max when qf is infinite."""
    if np.isinf(qf):
        return values.max() if values.size else 0.0
    return ((values ** qf).sum() * cell) ** (1.0 / qf)


def lp_norm(f: SampledField, p) -> float:
    """Riemann-sum L^p norm; max norm when p is infinite."""
    _field(f, "lp_norm")
    pf = _exponent(p, "p")
    return float(_lq(np.abs(f.values), f.grid.cell_volume, pf))


def _slice_integrals(values: np.ndarray, grid: Grid, rf: float) -> np.ndarray:
    """Integral of values^rf over y for each t-slice (axis 0)."""
    dy = float(np.prod(grid.spacing[1:]))
    return (values ** rf).sum(axis=tuple(range(1, grid.d))) * dy


def _slice_r_norms(values: np.ndarray, grid: Grid, rf: float) -> np.ndarray:
    """Inner L^rf norm over y per t-slice (axis 0) of nonnegative values."""
    if np.isinf(rf):
        return values.max(axis=tuple(range(1, grid.d)))
    return _slice_integrals(values, grid, rf) ** (1.0 / rf)


def mixed_norm(g: SampledField, q, r) -> float:
    """Mixed norm: L^r in y inside, L^q in t outside."""
    _field(g, "mixed_norm", "target", nonnegative=True)
    qf, rf = _exponent(q, "q"), _exponent(r, "r")
    inner = _slice_r_norms(g.values, g.grid, rf)
    return float(_lq(inner, g.grid.spacing[0], qf))


def lorentz_source_norm(f: SampledField, p, s) -> float:
    """Dyadic Lorentz proxy (sum_j (2^j |E_j|^{1/p})^s)^{1/s} on the source
    side; the sup over j of 2^j |E_j|^{1/p} when s is infinite.

    Equivalent-norm proxy only: correct up to a bounded dyadic factor,
    never compared tighter than a factor of 4.
    """
    from .decomposition import dyadic_decompose

    _field(f, "lorentz_source_norm", "source", nonnegative=True)
    pf, sf = _exponent(p, "p"), _exponent(s, "s")
    terms = [2.0 ** pc.j * pc.measure ** (1.0 / pf)
             for pc in dyadic_decompose(f)]
    if math.isinf(sf):
        return float(max(terms, default=0.0))
    return float(sum(t ** sf for t in terms) ** (1.0 / sf))


def lorentz_mixed_norm(g: SampledField, q, s, r) -> float:
    """Slab Lorentz proxy (sum_l ||g^l||_{q,r}^s)^{1/s} on the target side;
    the sup over l of ||g^l||_{q,r} when s is infinite."""
    from .decomposition import slab_decompose

    _field(g, "lorentz_mixed_norm", "target", nonnegative=True)
    qf, sf, rf = _exponent(q, "q"), _exponent(s, "s"), _exponent(r, "r")
    slabs = slab_decompose(g, rf)
    inner = _slice_r_norms(g.values, g.grid, rf)
    # g^l is g on slab l's t-slices, so its slice norms are g's there
    terms = [float(_lq(np.where(slab.t_mask, inner, 0.0), g.grid.spacing[0],
                       qf)) for slab in slabs]
    if math.isinf(sf):
        return max(terms, default=0.0)
    total = 0.0
    for t in terms:
        total += t ** sf
    return float(total ** (1.0 / sf))


def truncate(F: SampledField, R: float) -> SampledField:
    """Zero out nodes with |z| >= R or |F(z)| >= R (both cutoffs strict)."""
    _field(F, "truncate")
    R = _real(R, "R", 0)
    radius2 = np.empty(F.values.size)
    for blk, nodes in _node_blocks(F.grid):
        radius2[blk] = (nodes ** 2).sum(axis=-1)
    keep = (radius2.reshape(F.grid.shape) < R * R) & (np.abs(F.values) < R)
    return F.with_values(np.where(keep, F.values, 0.0))


def _interpolator(f: SampledField):
    """Multilinear evaluator of f, zero outside: a function from a (B, d)
    block of points to their B values.

    Border rule: f's values are padded once with one zero node on every
    side, so each corner is one gather with no bounds check and values
    decay linearly to zero within one cell beyond the boundary nodes.
    Corner c takes bit k of c on axis k; it gathers through a view of the
    flat padded values that starts at the corner's offset, and its weight
    is the product, in axis order, of the axes' weights, built from the
    products shared by the corners with the same lower bits.  Points whose
    cell misses the grid give 0, and so do points with a NaN or infinite
    coordinate, without a warning.  The points are read one coordinate
    column at a time.
    """
    d, counts = f.d, f.grid.counts
    padded = np.pad(f.values, 1)
    flat = padded.reshape(-1)
    views = [flat[np.ravel_multi_index([(c >> k) & 1 for k in range(d)],
                                       padded.shape):]
             for c in range(1 << d)]
    # a coordinate beyond one cell past the box on either side, NaN or
    # infinite lies in no cell: its point gives 0 and never reaches locate,
    # whose division a far point on a fine grid would overflow
    reach = [(o - 2.0 * h, o + (n + 1.0) * h)
             for o, h, n in zip(f.grid.origin, f.grid.spacing, counts)]

    def evaluate(points: np.ndarray) -> np.ndarray:
        cells, weights, live = [], [1.0], True
        for k, n in enumerate(counts):
            x = points[:, k]
            near = (x >= reach[k][0]) & (x <= reach[k][1])
            if not near.all():
                x = np.where(near, x, f.grid.origin[k])
                live = live & near
            base, frac = f.grid.locate(x, k)
            cells.append(np.minimum(np.maximum(base + 1, 0), n))
            low = 1.0 - frac
            weights = [w * low for w in weights] + [w * frac for w in weights]
            live = live & (base >= -1) & (base < n)
        start = np.ravel_multi_index(cells, padded.shape)
        acc = np.zeros(len(start))
        for w, view in zip(weights, views):
            acc += w * view[start]
        return np.where(live, acc, 0.0)

    return evaluate


def interpolate(f: SampledField, points: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of f at arbitrary points, zero outside.

    ``points`` has shape S + (d,); the result has shape S.  The points run
    in _blocks through one _interpolator of f, which sets the border rule:
    values decay linearly to zero within one cell beyond the boundary
    nodes, and points whose cell misses the grid, or with a NaN or infinite
    coordinate, give 0 without a warning.
    """
    _field(f, "interpolate")
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != f.d:
        raise ValueError(f"points must have last dimension {f.d}")
    flat = pts.reshape(-1, f.d)
    evaluate = _interpolator(f)
    out = np.empty(len(flat))
    for blk in _blocks(len(flat)):
        out[blk] = evaluate(flat[blk])
    return out.reshape(pts.shape[:-1])


def write_field(f: SampledField, path) -> None:
    """One JSON header line, then raw little-endian float64 values, C order."""
    _field(f, "write_field")
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


def _header_grid(line: bytes) -> Grid:
    header = json.loads(line.decode("ascii"))
    if not isinstance(header, dict):
        raise ValueError("header is not a JSON object")
    for key in ("d", "side", "origin", "spacing", "counts"):
        if key not in header:
            raise ValueError(f"header lacks {key!r}")
    # Grid checks each entry by the integer and real rules
    for key in ("origin", "spacing", "counts"):
        if not isinstance(header[key], list):
            raise ValueError(f"header {key!r} is not a list")
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
