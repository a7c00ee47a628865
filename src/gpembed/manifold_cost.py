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
"""
from __future__ import annotations

import numpy as np

from .dataset import Dataset, sq_distances
from .expr import Individual, eval_individual


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
    ac = a - a.mean()
    bc = b - b.mean()
    denom = np.sqrt((ac * ac).sum() * (bc * bc).sum())
    if denom == 0.0:
        return 0.0
    return float((ac * bc).sum() / denom)


def _row_correlations(ranks: np.ndarray, ident: np.ndarray) -> np.ndarray:
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


def _row_ranks(values: np.ndarray) -> np.ndarray:
    """`fractional_ranks` of a 2-D array, with its stable sort only where needed.

    A row without tied values gets the inverse of its sort permutation as
    exact integer ranks, so the (faster, unstable) default sort is enough;
    only rows holding a tie go through `fractional_ranks`.
    """
    n, width = values.shape
    order = np.argsort(values, axis=1)
    sorted_vals = np.sort(values, axis=1)  # cheaper than gathering by `order`
    tied = (sorted_vals[:, 1:] == sorted_vals[:, :-1]).any(axis=1)
    ranks = np.empty((n, width))
    ranks[np.arange(n)[:, None], order] = np.arange(1.0, width + 1.0)
    if tied.any():
        ranks[tied] = fractional_ranks(values[tied])
    return ranks


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
        ranks = _row_ranks(sq_distances(E, E, neighbour_order))
        rho = _row_correlations(ranks, np.arange(1.0, width + 1.0))
    return float(np.mean((1.0 - rho) / 2.0))


def cost(ind: Individual, dataset: Dataset) -> float:
    """Neighbourhood-structure cost of an individual's embedding, in [0, 1]."""
    return embedding_cost(eval_individual(ind, dataset), dataset.neighbour_order)
