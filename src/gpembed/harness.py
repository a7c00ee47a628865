"""Downstream evaluation of evolved individuals and run report files.

Archive individuals are scored by k-nearest-neighbour classification
accuracy on their embeddings under stratified cross-validation, censused
by node cost class, and written out as CSV/s-expression/DOT artifacts.
"""
from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .complexity import CostClass, CostModel, DEFAULT_COST_MODEL, baseline_complexity
from .dataset import Dataset, nearest_mask, sq_distances
from .evolution import (
    LABEL_FOLDS,
    EvolutionConfig,
    FrontEntry,
    RunResult,
    derive_rng,
)
from .expr import Individual, Node, eval_individual, to_dot


@dataclass(frozen=True)
class SummaryStats:
    """Node census of an individual, by cost class."""

    n_nodes: int
    n_exp: int
    n_prod: int
    n_sum: int
    n_leaf: int
    n_unique_features: int


@dataclass(frozen=True)
class EvalRecord:
    entry_id: int
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

    Distance ties resolve to the lower instance index, vote ties to the
    smallest class id.
    """
    if labels is None:
        raise ValueError("labels are required for classification scoring")
    E = np.asarray(embedding, dtype=np.float64)
    y = np.asarray(labels)
    n = E.shape[0]
    if n < folds:
        raise ValueError(f"need at least {folds} instances for {folds}-fold CV, got {n}")
    if k < 1:
        raise ValueError("k must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    assignment = fold_assignment(y, folds, rng)
    n_classes = int(y.max()) + 1
    accuracies = []
    for f in range(folds):
        test = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        d2 = sq_distances(E[test], E, train)
        rows, cols = np.nonzero(nearest_mask(d2, min(k, train.shape[0])))
        votes = np.bincount(rows * n_classes + y[train][cols],
                            minlength=test.shape[0] * n_classes)
        # argmax keeps the first, i.e. smallest, class of a tied vote
        predictions = votes.reshape(-1, n_classes).argmax(axis=1)
        accuracies.append(float(np.mean(predictions == y[test])))
    return float(np.mean(accuracies)), float(np.std(accuracies))


def summary_stats(ind: Individual, model: CostModel = DEFAULT_COST_MODEL) -> SummaryStats:
    n_exp = n_prod = n_sum = n_leaf = 0
    features: set[int] = set()

    def walk(node: Node):
        nonlocal n_exp, n_prod, n_sum, n_leaf
        if node.op is None:
            n_leaf += 1
            features.add(node.feature)
            return
        cls = model.operator_costs.get(node.op)
        if cls is None:
            raise ValueError(f"operator {node.op!r} has no cost class in the cost model")
        if cls is CostClass.EXP:
            n_exp += 1
        elif cls is CostClass.PROD:
            n_prod += 1
        else:
            n_sum += 1
        for child in node.children:
            walk(child)

    for tree in ind.trees:
        walk(tree)
    return SummaryStats(
        n_nodes=n_exp + n_prod + n_sum + n_leaf,
        n_exp=n_exp,
        n_prod=n_prod,
        n_sum=n_sum,
        n_leaf=n_leaf,
        n_unique_features=len(features),
    )


def _fmt(value: float) -> str:
    return repr(float(value))


FRONT_COLUMNS = (
    "id,cost,complexity,n_trees,n_nodes,n_exp,n_prod,n_sum,n_leaf,"
    "n_unique_feat,knn_acc_mean,knn_acc_std"
)


def sorted_entries(entries: list[FrontEntry]) -> list[FrontEntry]:
    return sorted(entries, key=lambda e: (e.complexity, e.cost, e.sexprs))


def _write_front_csv(path, entries, records):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(FRONT_COLUMNS + "\n")
        for entry, rec in zip(entries, records):
            stats = rec.stats
            fh.write(
                ",".join(
                    [
                        str(rec.entry_id),
                        _fmt(rec.cost),
                        _fmt(rec.complexity),
                        str(len(entry.individual.trees)),
                        str(stats.n_nodes),
                        str(stats.n_exp),
                        str(stats.n_prod),
                        str(stats.n_sum),
                        str(stats.n_leaf),
                        str(stats.n_unique_features),
                        _fmt(rec.knn_acc_mean),
                        _fmt(rec.knn_acc_std),
                    ]
                )
                + "\n"
            )


def evaluate_entries(
    entries: list[FrontEntry],
    dataset: Dataset,
    seed: int,
    k: int = 5,
    folds: int = 10,
    model: CostModel = DEFAULT_COST_MODEL,
    known: dict[tuple[str, ...], EvalRecord] | None = None,
) -> list[EvalRecord]:
    """EvalRecord per entry; the same seeded folds are reused for every entry
    so accuracies are comparable across the front.  An entry whose trees are a
    key of `known` reuses that record under its own id; `known` must come from
    the same dataset, seed, k, folds and model."""
    records = []
    for entry_id, entry in enumerate(entries):
        if known and entry.sexprs in known:
            records.append(replace(known[entry.sexprs], entry_id=entry_id))
            continue
        if dataset.labels is not None:
            embedding = eval_individual(entry.individual, dataset)
            acc_mean, acc_std = knn_cv_accuracy(
                embedding, dataset.labels, k=k, folds=folds, rng=derive_rng(seed, LABEL_FOLDS)
            )
        else:
            acc_mean = acc_std = float("nan")
        records.append(
            EvalRecord(
                entry_id=entry_id,
                cost=entry.cost,
                complexity=entry.complexity,
                knn_acc_mean=acc_mean,
                knn_acc_std=acc_std,
                stats=summary_stats(entry.individual, model),
            )
        )
    return records


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
    os.makedirs(out_dir, exist_ok=True)
    trees_dir = os.path.join(out_dir, "trees")
    os.makedirs(trees_dir, exist_ok=True)

    entries = sorted_entries(result.archive)
    records = evaluate_entries(entries, dataset, config.seed, k=k, folds=folds, model=model)
    _write_front_csv(os.path.join(out_dir, "front.csv"), entries, records)

    final_entries = sorted_entries(result.final_front)
    final_records = evaluate_entries(
        final_entries, dataset, config.seed, k=k, folds=folds, model=model,
        known={entry.sexprs: rec for entry, rec in zip(entries, records)},
    )
    _write_front_csv(os.path.join(out_dir, "final_front.csv"), final_entries, final_records)

    with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("id,n_nodes,n_exp,n_prod,n_sum,n_leaf,n_unique_feat,baseline_complexity\n")
        for entry, rec in zip(entries, records):
            stats = rec.stats
            baseline = sum(baseline_complexity(t) for t in entry.individual.trees)
            fh.write(
                f"{rec.entry_id},{stats.n_nodes},{stats.n_exp},{stats.n_prod},"
                f"{stats.n_sum},{stats.n_leaf},{stats.n_unique_features},{_fmt(baseline)}\n"
            )

    with open(os.path.join(out_dir, "telemetry.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("generation,min_cost,min_complexity,archive_size\n")
        for row in result.telemetry:
            fh.write(
                f"{row.generation},{_fmt(row.min_cost)},{_fmt(row.min_complexity)},"
                f"{row.archive_size}\n"
            )

    with open(os.path.join(out_dir, "baseline.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("knn_acc_mean,knn_acc_std\n")
        if dataset.labels is not None:
            base_mean, base_std = knn_cv_accuracy(
                dataset.instances, dataset.labels, k=k, folds=folds,
                rng=derive_rng(config.seed, LABEL_FOLDS),
            )
            fh.write(f"{_fmt(base_mean)},{_fmt(base_std)}\n")

    for entry_id, entry in enumerate(entries):
        with open(os.path.join(trees_dir, f"{entry_id}.sexp"), "w", encoding="utf-8") as fh:
            for line in entry.sexprs:
                fh.write(line + "\n")
        with open(os.path.join(trees_dir, f"{entry_id}.dot"), "w", encoding="utf-8") as fh:
            fh.write(to_dot(entry.individual, feature_names=dataset.feature_names))

    return records
