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

`embedding_cost` sorts each row once, as integer keys that carry each
distance's column (`_rank_correlations`), and takes an untied row's rho
straight from that permutation in exact arithmetic; rows whose keys come
close to a tie go through `fractional_ranks` and `_row_correlations`, the
reference path, so every cost is bitwise what that path gives.  Columns come
from `eval_individual`, which reuses each tree's column while it is scored
on the same dataset (see `expr.Node`).
"""
from __future__ import annotations

import numpy as np

from .dataset import Dataset, sq_distances
from .expr import Individual, eval_individual

_INF_BITS = int(np.array(np.inf).view(np.int64))


def fractional_ranks(values: np.ndarray) -> np.ndarray:
    """Row-wise ranks starting at 1, with tied values sharing the average rank."""
    v = np.asarray(values, dtype=np.float64)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[None, :]
    n, width = v.shape
    order = np.argsort(v, axis=1, kind="stable")
    sorted_vals = np.take_along_axis(v, order, axis=1)
    # flatten so tie groups can be averaged with one reduceat; groups never
    # span rows because every row starts a new group
    new_group = np.ones((n, width), dtype=bool)
    new_group[:, 1:] = sorted_vals[:, 1:] != sorted_vals[:, :-1]
    flat_new = new_group.ravel()
    starts = np.flatnonzero(flat_new)
    counts = np.diff(np.append(starts, n * width))
    positions = np.arange(n * width, dtype=np.float64) % width
    group_rank = np.add.reduceat(positions, starts) / counts + 1.0
    group_ids = np.cumsum(flat_new) - 1
    ranks_in_sorted_order = group_rank[group_ids].reshape(n, width)
    ranks = np.empty_like(ranks_in_sorted_order)
    np.put_along_axis(ranks, order, ranks_in_sorted_order, axis=1)
    return ranks[0] if squeeze else ranks


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


def _rank_correlations(d2: np.ndarray) -> np.ndarray:
    """Per row, Spearman rho between the ranks of `d2` and the identity ranking.

    Each row is sorted once, as int64 keys holding a value's bit pattern with
    its low `shift` bits replaced by its column: bit patterns of non-negative
    floats (``+inf`` included) sort like the floats, and the low bits of a
    sorted key give the row's argsort.  A row in which two adjacent keys share
    their high bits ("near-tied", which includes every exact tie) or which
    holds a sign bit or a NaN payload goes through `fractional_ranks`.  Every
    other row has the inverse permutation as ranks, whose numerator
    ``sum_p (p+1)(order_p+1) - w((w+1)/2)^2`` and sum of squares (the
    identity's) are exact in float64, so rho is bitwise what
    `_row_correlations` gives for those ranks.
    """
    width = d2.shape[1]
    shift = (width - 1).bit_length()
    low = (1 << shift) - 1
    keys = d2.view(np.int64) & ~low  # == (bits >> shift) << shift
    keys |= np.arange(width)
    keys.sort(axis=1)
    fallback = ((keys[:, 1:] ^ keys[:, :-1]) <= low).any(axis=1)
    # a sum of squares holds neither, but embedding_cost takes any array
    fallback |= keys[:, 0] < 0  # a sign bit
    fallback |= keys[:, -1] > (_INF_BITS | low)  # a NaN payload in the high bits
    keys &= low  # each row's argsort
    ident = np.arange(1.0, width + 1.0)
    ic = ident - ident.mean()
    ident_ss = float((ic * ic).sum())
    centre = (width + 1) / 2.0
    num = (keys @ np.arange(1, width + 1)).astype(np.float64)
    num += ident.sum() - width * centre * centre
    rho = num / np.sqrt(ident_ss * ident_ss)
    if fallback.any():
        rho[fallback] = _row_correlations(fractional_ranks(d2[fallback]), ident)
    return rho


def embedding_cost(embedding: np.ndarray, neighbour_order: np.ndarray) -> float:
    """Mean (1 - spearman)/2 between input-order and embedding-order neighbours.

    Only the ranked pairs (i, neighbour_order[i, j]) get a distance, squared
    and summed in column order as `dataset.sq_distances` documents.
    """
    E = np.asarray(embedding, dtype=np.float64)
    n = E.shape[0]
    width = neighbour_order.shape[1]
    if width < 2:
        rho = np.zeros(n)  # a single neighbour carries no ordering information
    else:
        # squared distances rank identically to distances and skip the sqrt
        rho = _rank_correlations(sq_distances(E, E, neighbour_order))
    return float(np.mean((1.0 - rho) / 2.0))


def cost(ind: Individual, dataset: Dataset) -> float:
    """Neighbourhood-structure cost of an individual's embedding, in [0, 1]."""
    return embedding_cost(eval_individual(ind, dataset), dataset.neighbour_order)
