"""Dyadic level-set and slab decompositions of sampled fields.

A nonnegative source function splits into level pieces E_j on which
2^j <= f < 2^{j+1}; a target function splits into t-slabs classified by the
size of the inner integral of g^r per slice; combining value pieces with
slab data gives the (k, l, m) pieces.  Values below 2^{J_FLOOR} are treated
as zero so the piece count stays bounded on finite grids.

The value and (k, l, m) pieces of one call are views of one shared,
read-only level-index array: a piece stores its levels and cell count, and
its ``mask`` is built from the level array on each access and never cached,
so a decomposition holds one grid-sized array, not one per piece.  Pieces
compare by identity (``eq=False``): a piece equals only itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import (SampledField, _exponent, _field, _integer, _owned,
                    _slice_integrals)

J_FLOOR = -40


@dataclass(frozen=True, eq=False)
class DyadicPiece:
    """The level set E_j = {levels == j} of its decomposition's level array."""
    j: int
    cells: int
    measure: float
    levels: np.ndarray = dc_field(repr=False)

    @property
    def mask(self) -> np.ndarray:
        """E_j as a fresh boolean array on each access."""
        return self.levels == self.j


@dataclass(frozen=True, eq=False)
class SlabPiece:
    l: int
    t_mask: np.ndarray = dc_field(repr=False)


@dataclass(frozen=True, eq=False)
class CombinedPiece:
    """Value level k on the t-slices that t_sel selects (slab l, class m)."""
    k: int
    l: int
    m: int
    cells: int
    t_sel: np.ndarray = dc_field(repr=False)
    levels: np.ndarray = dc_field(repr=False)

    @property
    def mask(self) -> np.ndarray:
        """The piece's cells as a fresh boolean array on each access."""
        t_axis = self.t_sel.reshape((-1,) + (1,) * (self.levels.ndim - 1))
        return (self.levels == self.k) & t_axis


def _level_indices(values: np.ndarray, j_min: int) -> np.ndarray:
    """floor(log2) per entry; entries below 2^{j_min} get j_min - 1 (ignored)."""
    out = np.full(values.shape, j_min - 1, dtype=np.int64)
    alive = values >= 2.0 ** j_min
    if np.any(alive):
        out[alive] = np.floor(np.log2(values[alive])).astype(np.int64)
    return out


def dyadic_decompose(f: SampledField, j_min: int = J_FLOOR):
    """Level pieces of f, sorted by j ascending, sharing one level array."""
    _field(f, "dyadic_decompose", nonnegative=True)
    levels = _level_indices(f.values, j_min)
    levels.flags.writeable = False
    cellvol = f.grid.cell_volume
    return [DyadicPiece(j=int(j), cells=int(n), measure=float(n) * cellvol,
                        levels=levels)
            for j, n in zip(*np.unique(levels, return_counts=True))
            if j >= j_min]


def slab_decompose(g: SampledField, r, j_min: int = J_FLOOR):
    """t-slab pieces of g classified by the slice integral of g^r."""
    _field(g, "slab_decompose", "target", nonnegative=True)
    rf = _exponent(r, "r")
    if math.isinf(rf):
        raise ValueError(f"slab_decompose needs a finite r >= 1, got r = {r}")
    levels = _level_indices(_slice_integrals(g.values, g.grid, rf), j_min)
    return [SlabPiece(l=int(l), t_mask=levels == l)
            for l in np.unique(levels) if l >= j_min]


def combined_decompose(g: SampledField, q, r, j_min: int = J_FLOOR):
    """(k, l, m) pieces: value level k, g-slab l, and slice-measure level m.

    The value pieces F_k of g are intersected with the t-slices whose g^r
    integral sits in slab l and whose F_k cross-section measure sits in
    dyadic class m.  q is accepted alongside r for callers that report norm
    contributions; the masks depend on r only.
    """
    _field(g, "combined_decompose", "target", nonnegative=True)
    value_pieces = dyadic_decompose(g, j_min=j_min)
    slabs = slab_decompose(g, r, j_min=j_min)
    slab_of_t = np.full(g.grid.counts[0], j_min - 1, dtype=np.int64)
    for slab in slabs:
        slab_of_t[slab.t_mask] = slab.l
    dy = float(np.prod(g.grid.spacing[1:]))
    yaxes = tuple(range(1, g.d))
    out = []
    for piece in value_pieces:
        per_slice = np.count_nonzero(piece.mask, axis=yaxes)
        m_of_t = _level_indices(per_slice * dy, j_min)
        keys = np.stack([slab_of_t, m_of_t], axis=1)
        for l, m in np.unique(keys, axis=0):
            if l < j_min or m < j_min:
                continue
            # the key comes from a slice, and m >= j_min needs per_slice > 0
            # on every slice it selects, so no piece is empty
            t_sel = (slab_of_t == l) & (m_of_t == m)
            t_sel.flags.writeable = False
            out.append(CombinedPiece(k=piece.j, l=int(l), m=int(m),
                                     cells=int(per_slice[t_sel].sum()),
                                     t_sel=t_sel, levels=piece.levels))
    return out


def reconstruct(pieces, f: SampledField) -> SampledField:
    """The dyadic minorant sum of 2^level chi over the pieces, on f's grid.

    A piece's value level is j for a dyadic piece and k for a combined one.
    Each mask is built for its term and dropped, so one is held at a time.
    """
    _field(f, "reconstruct")
    vals = np.zeros(f.grid.shape)
    for pc in pieces:
        level = pc.k if isinstance(pc, CombinedPiece) else pc.j
        vals += (2.0 ** level) * pc.mask
    return _owned(f.grid, vals)


def trim_frequency(f: SampledField, W: int, p=2):
    """Keep the dyadic pieces within W of the dominant index.

    j0 maximizes 2^{jp} |E_j| (ties to the smaller j); the returned field is
    the minorant sum of 2^j chi_{E_j} over |j - j0| < W, so it is <= f.
    """
    _field(f, "trim_frequency")
    W = _integer(W, "W", 1)
    pf = _exponent(p, "p")
    pieces = dyadic_decompose(f)
    if not pieces:
        raise ValueError("trim_frequency needs a nonzero field")
    best_j, best_w = None, -np.inf
    for pc in pieces:  # ascending j, strict > keeps the smaller index on ties
        weight = 2.0 ** (pc.j * pf) * pc.measure
        if weight > best_w:
            best_j, best_w = pc.j, weight
    kept = [pc for pc in pieces if abs(pc.j - best_j) < W]
    return reconstruct(kept, f), best_j
