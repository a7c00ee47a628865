"""Correctness checks of a run's report files against independent oracles.

The oracles are the brute-force implementations in the repository's
`tests/oracles.py`, imported as they are.  Each check returns a list of
human-readable problems; an empty list means the outputs are correct.
"""
from __future__ import annotations

import csv
import math
import os

import numpy as np

# The library sums squared coordinate differences with einsum, the oracle
# left to right.  Distances that are equal in real arithmetic (permuted
# coordinates, common after min/max/relu) can then tie in one and not in the
# other; each such flip moves the cost by at most 6 / (w^2 * 2n), about 5e-7
# on these workloads, while a wrong distance, rank or correlation moves it
# by far more.
COST_ABS_TOL = 1e-6
COMPLEXITY_REL_TOL = 1e-9
KNN_ABS_TOL = 1e-12  # one changed prediction moves the mean by >= 1/(folds * n)


def read_front(out_dir):
    """Front rows of `front.csv` as dicts, with each row's parsed trees."""
    from gpembed import harness
    from gpembed.expr import Individual, parse

    with open(os.path.join(out_dir, "front.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != harness.FRONT_COLUMNS:
            raise ValueError(f"front.csv header {header} differs from {harness.FRONT_COLUMNS}")
        rows = [dict(zip(header, r)) for r in reader]
    for row in rows:
        with open(os.path.join(out_dir, "trees", f"{row['id']}.sexp"), encoding="utf-8") as fh:
            trees = tuple(parse(line) for line in fh.read().splitlines() if line.strip())
        row["individual"] = Individual(trees=trees)
        row["cost"] = float(row["cost"])
        row["complexity"] = float(row["complexity"])
        row["knn_acc_mean"] = float(row["knn_acc_mean"])
    return rows


def knn_accuracy_from_scratch(embedding, labels, assignment, k=5) -> float:
    """Mean per-fold accuracy of k-NN, one test point at a time.

    Neighbours sort by (squared distance, training index); a vote tie goes
    to the smallest class id.
    """
    folds = int(assignment.max()) + 1
    accuracies = []
    for f in range(folds):
        test = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        correct = 0
        for i in test:
            d2 = ((embedding[train] - embedding[i]) ** 2).sum(axis=1)
            nearest = train[np.lexsort((train, d2))[:k]]
            votes = {}
            for j in nearest:
                votes[int(labels[j])] = votes.get(int(labels[j]), 0) + 1
            best = max(votes.values())
            predicted = min(c for c, v in votes.items() if v == best)
            correct += predicted == int(labels[i])
        accuracies.append(correct / test.shape[0])
    return float(np.mean(accuracies))


def check_front(out_dir, dataset, config, oracles, folds=10, k=5) -> list[str]:
    """Every front row against the oracles, plus the front's properties."""
    from gpembed import complexity, evolution, harness
    from gpembed.expr import eval_individual

    model = complexity.DEFAULT_COST_MODEL
    problems = []
    rows = read_front(out_dir)
    if not rows:
        return [f"{out_dir}: empty front"]
    X = dataset.instances.tolist()
    order = dataset.neighbour_order.tolist()
    assignment = harness.fold_assignment(
        dataset.labels, folds, evolution.derive_rng(config.seed, evolution.LABEL_FOLDS)
    )
    for row in rows:
        ind = row["individual"]
        where = f"{out_dir} row {row['id']}"
        if int(row["n_trees"]) != len(ind.trees):
            problems.append(f"{where}: n_trees {row['n_trees']} but {len(ind.trees)} trees saved")
        census = tuple(int(row[c]) for c in (
            "n_nodes", "n_exp", "n_prod", "n_sum", "n_leaf", "n_unique_feat"))
        want_census = oracles.brute_census(ind, model)
        if census != want_census:
            problems.append(f"{where}: census {census} != brute_census {want_census}")
        want_cplx = sum(oracles.brute_tree_complexity(t, model) for t in ind.trees)
        if not math.isclose(row["complexity"], want_cplx, rel_tol=COMPLEXITY_REL_TOL):
            problems.append(f"{where}: complexity {row['complexity']} != brute {want_cplx}")
        brute_embedding = [[oracles.brute_eval(t, x) for t in ind.trees] for x in X]
        want_cost = oracles.brute_embedding_cost(brute_embedding, order)
        if abs(row["cost"] - want_cost) > COST_ABS_TOL:
            problems.append(f"{where}: cost {row['cost']} != brute {want_cost}")
        want_acc = knn_accuracy_from_scratch(
            eval_individual(ind, dataset), dataset.labels, assignment, k=k)
        if abs(row["knn_acc_mean"] - want_acc) > KNN_ABS_TOL:
            problems.append(f"{where}: knn_acc_mean {row['knn_acc_mean']} != {want_acc}")

    for a, b in zip(rows, rows[1:]):
        if b["complexity"] < a["complexity"]:
            problems.append(f"{out_dir}: rows {a['id']},{b['id']} not sorted by complexity")
    for row in rows:
        if not 0.0 <= row["cost"] <= 1.0:
            problems.append(f"{out_dir} row {row['id']}: cost {row['cost']} outside [0, 1]")
    for a in rows:
        for b in rows:
            if (a["cost"] <= b["cost"] and a["complexity"] <= b["complexity"]
                    and (a["cost"] < b["cost"] or a["complexity"] < b["complexity"])):
                problems.append(f"{out_dir}: row {a['id']} dominates row {b['id']}")
    return problems


def check_neighbour_order(dataset, oracles, sample_rows=None, probes=150, rng=None) -> list[str]:
    """Stored neighbour orders against brute_neighbour_order.

    With `sample_rows` None every row is checked on the whole point set.
    Otherwise, for each sampled row i, the oracle runs on the sub-set made of
    i, its stored neighbours and `probes` random other rows, kept in index
    order so index tie-breaks agree.  The order over a sub-set is the full
    order restricted to it, so i's stored neighbours must come first in it,
    in the stored order; a probe nearer than any of them would come first.
    """
    X = dataset.instances
    stored = dataset.neighbour_order
    n = X.shape[0]
    if sample_rows is None:
        want = oracles.brute_neighbour_order(X.tolist())
        got = [row[: stored.shape[1]] for row in want]
        if stored.tolist() != got:
            bad = [i for i in range(n) if stored[i].tolist() != got[i]]
            return [f"neighbour order differs from brute_neighbour_order on rows {bad[:10]}"]
        return []
    problems = []
    for i in rng.choice(n, size=sample_rows, replace=False):
        i = int(i)
        others = np.setdiff1d(np.arange(n), np.append(stored[i], i))
        subset = np.union1d(np.append(stored[i], i), rng.choice(others, size=probes, replace=False))
        local_i = int(np.searchsorted(subset, i))
        brute = oracles.brute_neighbour_order(X[subset].tolist())[local_i]
        got = subset[brute[: stored.shape[1]]].tolist()
        if got != stored[i].tolist():
            problems.append(f"neighbour order of row {i} differs from brute_neighbour_order")
    return problems


def same_bytes(dir_a, dir_b, names=("front.csv", "telemetry.csv")) -> bool:
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True
