"""Downstream evaluation of evolved individuals and run report files.

Archive individuals are scored by k-nearest-neighbour classification
accuracy on their embeddings under stratified cross-validation, censused
by node cost class, and written out as CSV/s-expression/DOT artifacts.
"""
from __future__ import annotations

import os
import re
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .complexity import CostClass, CostModel, DEFAULT_COST_MODEL, baseline_complexity
from .dataset import Dataset, gram_candidates, row_blocks, sq_distances
from .evolution import LABEL_FOLDS, EvolutionConfig, FrontEntry, RunResult, derive_rng
from .expr import Individual, eval_individual, to_dot


@dataclass(frozen=True)
class SummaryStats:
    """Node census of an individual, by cost class.  The field order is the
    order of the census columns in front.csv and summary.csv."""

    n_nodes: int
    n_exp: int
    n_prod: int
    n_sum: int
    n_leaf: int
    n_unique_features: int


@dataclass(frozen=True)
class EvalRecord:
    cost: float
    complexity: float
    knn_acc_mean: float
    knn_acc_std: float
    stats: SummaryStats


def fold_assignment(labels: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified fold index per instance; falls back to plain shuffling
    (with a warning) when some class has fewer members than folds."""
    n = labels.shape[0]
    assignment = np.empty(n, dtype=np.intp)
    class_ids, counts = np.unique(labels, return_counts=True)
    if counts.min() < folds:
        warnings.warn(
            f"class with {int(counts.min())} members < {folds} folds; "
            "falling back to non-stratified folds",
            stacklevel=2,
        )
        order = rng.permutation(n)
        assignment[order] = np.arange(n) % folds
        return assignment
    for c in class_ids:
        members = np.flatnonzero(labels == c)
        members = members[rng.permutation(members.shape[0])]
        assignment[members] = np.arange(members.shape[0]) % folds
    return assignment


def knn_cv_accuracy(
    embedding: np.ndarray,
    labels: np.ndarray,
    k: int = 5,
    folds: int = 10,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """Mean and stddev of per-fold KNN accuracy on the embedding.

    Each test row votes with its k nearest training rows, or with every
    training row when a fold has k or fewer.  Distance ties resolve to the
    lower instance index, vote ties to the smallest label.  Exact distances
    are taken only to the candidates of the Gram filter that also serves
    `dataset.neighbour_order` (`dataset.gram_candidates`).
    """
    return _cv_accuracy(np.asarray(embedding, dtype=np.float64), labels, k, folds, rng)


def _cv_accuracy(E, labels, k, folds, rng, order=None) -> tuple[float, float] | None:
    """`knn_cv_accuracy`; given E's `neighbour_order`, the voters are read from it.

    One pass takes the rows sorted by fold, so that a row's own fold is one
    column slice, in `dataset.row_blocks` of width n.  A row's voters lead one
    stable argsort of the squared distances to its `gram_candidates` outside
    its fold, listed by index, so they rank by (distance, index) as in
    `neighbour_order`; or they are its first stored entries outside the fold,
    which that order lists by the same rule.  None if a capped row lists too few.
    """
    if labels is None:
        raise ValueError("labels are required for classification scoring")
    if E.ndim != 2:
        raise ValueError(f"embedding must be 2-D, got shape {E.shape}")
    n = E.shape[0]
    if len(labels) != n:
        raise ValueError(f"got {len(labels)} labels for {n} embedding rows")
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    if n < folds:
        raise ValueError(f"need at least {folds} instances for {folds}-fold CV, got {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if not np.isfinite(E).all():  # a NaN distance has no place in a top-k
        raise ValueError("embedding contains NaN or infinite values")
    if rng is None:
        rng = np.random.default_rng(0)
    classes, y = np.unique(np.asarray(labels), return_inverse=True)  # ids in label order
    assignment = fold_assignment(y, folds, rng)
    by_fold = np.argsort(assignment, kind="stable")
    fold, sizes = assignment[by_fold], np.bincount(assignment, minlength=folds)
    edges = np.r_[0, np.cumsum(sizes)]  # fold f: rows edges[f]:edges[f + 1] of by_fold
    kk = np.minimum(k, n - sizes)[fold]  # voters per row
    voters = np.full((n, kk.max()), n)  # voter n pads a row and votes for no class
    if order is None:
        blocks = gram_candidates(E[by_fold], kk - 1, edges)
        padded = np.vstack([E, np.full((1, E.shape[1]), np.inf)])  # index n: +inf from any row
    else:
        blocks = ((block, None) for block in row_blocks(n, n))
        listed = order[:, :kk.max() + sizes.max() - 1]  # only |fold| - 1 share a row's fold
    for block, index in blocks:
        rows = by_fold[block]
        if order is None:
            index = np.sort(np.append(by_fold, n)[index], axis=1)  # by instance index
            near = np.argsort(sq_distances(E[rows], padded, index), axis=1, kind="stable")
            voters[block] = np.take_along_axis(index, near[:, :voters.shape[1]], axis=1)
        else:
            got = listed[rows]
            keep = assignment[got] != fold[block, None]
            keep &= np.cumsum(keep, axis=1) <= kk[block, None]
            if (keep.sum(axis=1) < kk[block]).any():
                return None
            voters[block][np.arange(voters.shape[1]) < kk[block, None]] = got[keep]
    c = classes.shape[0]
    votes = np.bincount((np.arange(n)[:, None] * (c + 1) + np.append(y, c)[voters]).ravel(),
                        minlength=n * (c + 1))
    # argmax keeps the first, i.e. smallest, class of a tied vote
    hits = votes.reshape(n, c + 1)[:, :c].argmax(axis=1) == y[by_fold]
    accuracies = [float(np.mean(hits[a:b])) for a, b in zip(edges[:-1], edges[1:])]
    return float(np.mean(accuracies)), float(np.std(accuracies))


def summary_stats(ind: Individual, model: CostModel = DEFAULT_COST_MODEL) -> SummaryStats:
    counts = dict.fromkeys(CostClass, 0)
    features: list[int] = []
    stack = list(ind.trees)
    while stack:
        node = stack.pop()
        if node.op is None:
            features.append(node.feature)
            continue
        counts[model.operator_costs[node.op]] += 1
        stack.extend(node.children)
    return SummaryStats(
        n_nodes=sum(counts.values()) + len(features),
        n_exp=counts[CostClass.EXP],
        n_prod=counts[CostClass.PROD],
        n_sum=counts[CostClass.SUM],
        n_leaf=len(features),
        n_unique_features=len(set(features)),
    )


FRONT_COLUMNS = (
    "id,cost,complexity,n_trees,n_nodes,n_exp,n_prod,n_sum,n_leaf,"
    "n_unique_feat,knn_acc_mean,knn_acc_std"
)


def sorted_entries(entries: list[FrontEntry]) -> list[FrontEntry]:
    return sorted(entries, key=lambda e: (e.complexity, e.cost, e.sexprs))


def _write_csv(path, header: str, rows) -> None:
    """`header`, then one comma-joined line per row; floats are written with
    `repr`, so they read back exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fields = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(fields) + "\n")


def _front_rows(entries: list[FrontEntry], records: list[EvalRecord]):
    """front.csv rows, in FRONT_COLUMNS order."""
    return [
        (entry_id, rec.cost, rec.complexity, len(entry.individual.trees),
         *astuple(rec.stats), rec.knn_acc_mean, rec.knn_acc_std)
        for entry_id, (entry, rec) in enumerate(zip(entries, records))
    ]


def evaluate_entries(
    entries: list[FrontEntry],
    dataset: Dataset,
    seed: int,
    k: int = 5,
    folds: int = 10,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[EvalRecord]:
    """EvalRecord per entry; the same seeded folds are reused for every entry
    so accuracies are comparable across the front, and a genotype that
    repeats in `entries` is scored once."""
    scored: dict[tuple[str, ...], EvalRecord] = {}
    for entry in entries:
        if entry.sexprs in scored:
            continue
        if dataset.labels is not None:
            embedding = eval_individual(entry.individual, dataset)
            acc_mean, acc_std = knn_cv_accuracy(
                embedding, dataset.labels, k=k, folds=folds, rng=derive_rng(seed, LABEL_FOLDS)
            )
        else:
            acc_mean = acc_std = float("nan")
        scored[entry.sexprs] = EvalRecord(entry.cost, entry.complexity, acc_mean, acc_std,
                                          summary_stats(entry.individual, model))
    return [scored[entry.sexprs] for entry in entries]


def report(
    result: RunResult,
    dataset: Dataset,
    config: EvolutionConfig,
    out_dir,
    k: int = 5,
    folds: int = 10,
    model: CostModel = DEFAULT_COST_MODEL,
) -> list[EvalRecord]:
    """Write front.csv, final_front.csv, summary.csv, telemetry.csv,
    baseline.csv, and per-individual tree files under `out_dir`."""
    trees_dir = os.path.join(out_dir, "trees")
    os.makedirs(trees_dir, exist_ok=True)

    entries = sorted_entries(result.archive)
    final_entries = sorted_entries(result.final_front)
    records = evaluate_entries(
        entries + final_entries, dataset, config.seed, k=k, folds=folds, model=model
    )
    records, final_records = records[:len(entries)], records[len(entries):]
    _write_csv(os.path.join(out_dir, "front.csv"), FRONT_COLUMNS, _front_rows(entries, records))
    _write_csv(os.path.join(out_dir, "final_front.csv"), FRONT_COLUMNS,
               _front_rows(final_entries, final_records))
    _write_csv(
        os.path.join(out_dir, "summary.csv"),
        "id,n_nodes,n_exp,n_prod,n_sum,n_leaf,n_unique_feat,baseline_complexity",
        [
            (entry_id, *astuple(rec.stats),
             sum(baseline_complexity(t) for t in entry.individual.trees))
            for entry_id, (entry, rec) in enumerate(zip(entries, records))
        ],
    )
    _write_csv(os.path.join(out_dir, "telemetry.csv"),
               "generation,min_cost,min_complexity,archive_size", map(astuple, result.telemetry))
    baseline = []
    if dataset.labels is not None:
        baseline.append(_cv_accuracy(dataset.instances, dataset.labels, k, folds,
                                     derive_rng(config.seed, LABEL_FOLDS), dataset.neighbour_order)
                        or knn_cv_accuracy(dataset.instances, dataset.labels, k=k, folds=folds,
                                           rng=derive_rng(config.seed, LABEL_FOLDS)))
    _write_csv(os.path.join(out_dir, "baseline.csv"), "knn_acc_mean,knn_acc_std", baseline)

    for entry_id, entry in enumerate(entries):
        with open(os.path.join(trees_dir, f"{entry_id}.sexp"), "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in entry.sexprs))
        with open(os.path.join(trees_dir, f"{entry_id}.dot"), "w", encoding="utf-8") as fh:
            fh.write(to_dot(entry.individual, feature_names=dataset.feature_names))
    for name in os.listdir(trees_dir):  # an earlier run's trees past this run's last id
        path = os.path.join(trees_dir, name)
        tree_id = re.fullmatch(r"([0-9]+)\.(?:sexp|dot)", name)
        if tree_id and int(tree_id[1]) >= len(entries) and os.path.isfile(path):
            os.remove(path)

    return records
