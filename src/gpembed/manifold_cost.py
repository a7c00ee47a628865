"""Embedding-quality objective: neighbourhood ordering preservation.

For each point, the neighbours listed in the dataset's input-space order
are re-ranked by their distance to the point in the embedding.  Spearman
correlation between that rank vector and the identity ranking measures how
well the point's neighbourhood survived the mapping; the objective is the
mean of ``(1 - rho) / 2`` over all points, so 0 means every ordering is
preserved and 1 means every ordering is reversed.

Embedding distances are squared Euclidean distances summed in column order
(`dataset.sq_distances`), so equal distances tie exactly as in a plain
left-to-right sum, and tied distances share their average rank.

`embedding_cost` refuses an embedding that is not a finite (n, t) array
matching the neighbour order (tree evaluation saturates every node, so a run
never makes one), then sorts each row once, as integer keys that carry each
distance's column (`_rank_correlations`), and takes an untied row's rho
straight from that permutation in exact arithmetic; rows whose keys come
close to a tie get averaged ranks from their bit patterns and go through
`_row_correlations`.  Both are bitwise what `fractional_ranks` and
`_row_correlations`, the reference path, give.  Columns come from
`eval_individual`, which reuses each tree's column while it is scored on the
same dataset (see `expr.Node`).
"""
from __future__ import annotations

import functools

import numpy as np

from .dataset import Dataset, row_blocks, sq_distances
from .expr import Individual, eval_individual


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Row-wise ranks starting at 1, with tied values sharing the average rank:
    the plain reference that the rank kernel is checked against."""
    v = np.asarray(values, dtype=np.float64)
    rows = np.atleast_2d(v)
    ranks = np.empty(rows.shape)
    for row, out in zip(rows, ranks):
        s = np.sort(row)  # with i entries below it and j at most it, a value holds ranks i+1..j
        out[:] = (np.searchsorted(s, row, "left") + np.searchsorted(s, row, "right") + 1) / 2
    return ranks.reshape(v.shape)


def spearman(ranks_a, ranks_b) -> float:
    """Pearson correlation of two rank vectors; 0 if either has zero variance."""
    a = np.asarray(ranks_a, dtype=np.float64)
    b = np.asarray(ranks_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"rank vectors differ in length: {a.shape} vs {b.shape}")
    if a.ndim != 1 or a.size < 2:
        raise ValueError("rank vectors must be 1-D with at least 2 entries")
    return float(_row_correlations(a[None], b)[0])


def _row_correlations(ranks: np.ndarray, ident: np.ndarray) -> np.ndarray:
    """Per row of `ranks`, its Pearson correlation with `ident`; 0 where either
    has zero variance."""
    centered = ranks - ranks.mean(axis=1, keepdims=True)
    ic = ident - ident.mean()
    ident_ss = float((ic * ic).sum())
    row_ss = (centered * centered).sum(axis=1)
    denom = np.sqrt(row_ss * ident_ss)
    num = centered @ ic
    rho = np.zeros(ranks.shape[0])
    ok = denom > 0.0
    rho[ok] = num[ok] / denom[ok]
    return rho


@functools.cache
def _rank_constants(width: int) -> tuple:
    """Read-only per-width constants of `_rank_correlations`: column indices,
    the identity ranking, its sum of squares about its mean, and the untied
    numerator's offset."""
    columns = np.arange(width)
    ident = np.arange(1.0, width + 1.0)
    ic = ident - ident.mean()
    ident_ss = float((ic * ic).sum())
    centre = (width + 1) / 2.0
    offset = ident.sum() - width * centre * centre
    for a in (columns, ident):
        a.flags.writeable = False
    return columns, ident, ident_ss, offset


def _rank_correlations(d2: np.ndarray) -> np.ndarray:
    """Per row, Spearman rho between the ranks of `d2` and the identity ranking.

    Each row is sorted once, as int64 keys holding a value's bit pattern with
    its low `shift` bits replaced by its column: bit patterns of non-negative
    floats (``+inf`` included) sort like the floats, and the low bits of a
    sorted key give the row's argsort.  Every row without two adjacent keys
    that share their high bits has the inverse permutation as ranks, whose
    numerator ``sum_p (p+1)(order_p+1) - w((w+1)/2)^2`` and sum of squares
    (the identity's) are exact in float64, so rho is bitwise what
    `_row_correlations` gives.  A row in which two do ("near-tied", which
    includes every exact tie) goes through `_row_correlations` itself, with
    the averaged ranks of `_tied_rank_correlations`; they are found in one
    flat pass over the sorted keys, less the pairs that join two rows.  `d2`
    must hold no sign bit and no NaN, as a sum of squares of finite values does not.
    """
    width = d2.shape[1]
    columns, ident, ident_ss, offset = _rank_constants(width)
    shift = (width - 1).bit_length()
    low = (1 << shift) - 1
    keys = d2.view(np.int64) & ~low  # == (bits >> shift) << shift
    keys |= columns
    keys.sort(axis=1)
    flat = keys.reshape(-1)
    hits = (flat[1:] ^ flat[:-1]) <= low  # hits[p]: flat keys p and p + 1 share high bits
    hits[width - 1::width] = False  # one row's last key and the next row's first
    hits = np.flatnonzero(hits)
    hits //= width  # each hit's row
    near_tied = np.zeros(keys.shape[0], dtype=bool)
    near_tied[hits] = True
    del hits  # up to one per key: the product below runs without them
    keys &= low  # each row's argsort
    num = keys @ ident  # in float64, exact while a row's sum stays below 2**53
    num += offset
    rho = num / np.sqrt(ident_ss * ident_ss)
    if near_tied.any():
        rho[near_tied] = _tied_rank_correlations(d2[near_tied])
    return rho


def _tied_rank_correlations(d2: np.ndarray) -> np.ndarray:
    """`_row_correlations(fractional_ranks(d2), ident)` for a non-negative, non-NaN `d2`.

    One unstable argsort of the bit patterns orders each row; equal patterns
    are equal values, and a tie group at sorted positions ``s..e`` shares the
    average rank ``(s + e + 2) / 2`` whatever order the sort left it in.  These
    ranks are exact halves, the ones `fractional_ranks` gives.
    """
    rows, width = d2.shape
    columns, ident, _, _ = _rank_constants(width)
    bits = d2.view(np.int64)
    order = np.argsort(bits, axis=1)
    ordered = np.take_along_axis(bits, order, axis=1)
    tie = np.zeros((rows, width + 1), dtype=bool)  # tie[:, p]: positions p - 1 and p tie
    tie[:, 1:-1] = ordered[:, 1:] == ordered[:, :-1]
    first = np.maximum.accumulate(np.where(tie[:, :-1], 0, columns), axis=1)
    last = np.minimum.accumulate(np.where(tie[:, 1:], width - 1, columns)[:, ::-1], axis=1)
    ranks = np.empty((rows, width))
    np.put_along_axis(ranks, order, (first + last[:, ::-1] + 2) / 2, axis=1)
    return _row_correlations(ranks, ident)


def embedding_cost(embedding: np.ndarray, neighbour_order: np.ndarray) -> float:
    """Mean (1 - spearman)/2 between input-order and embedding-order neighbours.

    Only the ranked pairs (i, neighbour_order[i, j]) get a distance, squared
    and summed in column order as `dataset.sq_distances` documents, one
    `dataset.row_blocks` block of rows at a time.  Raises
    ValueError unless the embedding is finite, (n, t), and n is `neighbour_order`'s.
    """
    E = np.asarray(embedding, dtype=np.float64)
    if E.ndim != 2:
        raise ValueError(f"embedding must be 2-D, got shape {E.shape}")
    n = E.shape[0]
    if n != len(neighbour_order):
        raise ValueError(f"embedding has {n} rows, the neighbour order {len(neighbour_order)}")
    if not np.isfinite(E).all():
        raise ValueError("embedding contains NaN or infinite values")
    width = neighbour_order.shape[1]
    if width < 2:
        rho = np.zeros(n)  # a single neighbour carries no ordering information
    else:
        rho = np.empty(n)
        for rows in row_blocks(n, width):
            # squared distances rank identically to distances and skip the sqrt
            rho[rows] = _rank_correlations(sq_distances(E[rows], E, neighbour_order[rows]))
    return float(np.mean((1.0 - rho) / 2.0))


def cost(ind: Individual, dataset: Dataset) -> float:
    """Neighbourhood-structure cost of an individual's embedding, in [0, 1]."""
    return embedding_cost(eval_individual(ind, dataset), dataset.neighbour_order)
