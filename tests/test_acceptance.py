"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Wine runs behind
criteria 6 and 7 take a few minutes; everything else is fast.
"""
import time

import numpy as np
import pytest

from conftest import WINE_CSV, make_clusters, make_separated_clusters
from gpembed import cli
from gpembed.complexity import (
    DEFAULT_COST_MODEL,
    asymmetry_penalty,
    scaling_term,
    tree_complexity,
)
from gpembed.dataset import from_arrays, load_csv
from gpembed.evolution import EvolutionConfig, derive_rng, initialise, run
from gpembed.expr import Individual, eval_individual, parse
from gpembed.harness import evaluate_entries, knn_cv_accuracy
from gpembed.manifold_cost import cost, embedding_cost, fractional_ranks, spearman
from oracles import brute_spearman, brute_tree_complexity
from test_complexity import HAND_WRITTEN_TREES


def check(cid: str, description: str, ok: bool):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {cid}: {description}")
    assert ok, f"criterion {cid} failed: {description}"


def test_criterion_1_complexity_oracle_suite():
    corpus = [parse(text) for text in HAND_WRITTEN_TREES]
    assert len(corpus) >= 20
    start = time.perf_counter()
    ok = True
    for tree in corpus:
        got = tree_complexity(tree, DEFAULT_COST_MODEL).value
        want = brute_tree_complexity(tree, DEFAULT_COST_MODEL)
        if want == int(want) and abs(want) < 2**53:
            ok = ok and (got == want)
        else:
            ok = ok and (abs(got - want) <= 1e-9 * abs(want))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    check("1", f"{len(corpus)}-tree corpus matches independent evaluator "
               f"in {elapsed * 1000:.0f} ms", ok)


def test_criterion_2_pointwise_formulas():
    ok = (
        asymmetry_penalty(4, 1) == 7.0
        and asymmetry_penalty(3, 3) == 0.0
        and scaling_term(90, 100, 0.75) == 1.8
        and scaling_term(30, 100, 0.75) == 1.0
    )
    check("2", "asymmetry (4,1)=7, (3,3)=0; scaling (90)=1.8, (30)=1", ok)


def test_criterion_3_cost_bounds_and_invariances():
    rng = np.random.default_rng(303)
    ds = from_arrays(rng.normal(size=(50, 6)))
    config = EvolutionConfig(population_size=500, seed=303)
    individuals = initialise(config, ds, derive_rng(303, 1))
    assert len(individuals) == 500

    in_bounds = True
    scale_ok = True
    for ind in individuals:
        embedding = eval_individual(ind, ds)
        value = embedding_cost(embedding, ds.neighbour_order)
        in_bounds = in_bounds and 0.0 <= value <= 1.0
        scaled = embedding_cost(embedding * 1000.0, ds.neighbour_order)
        scale_ok = scale_ok and abs(scaled - value) <= 1e-12

    # copying every feature reproduces the input space exactly
    copier = Individual(trees=tuple(parse(f"f{j}") for j in range(ds.n_features)))
    copy_ok = cost(copier, ds) <= 1e-12

    check("3", "500 random individuals: cost in [0,1]; feature copy = 0; "
               "x1000 scaling invariant", in_bounds and copy_ok and scale_ok)


def test_criterion_4_spearman_oracle():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(1000):
        length = int(rng.integers(2, 40))
        a = rng.integers(0, 6, size=length).astype(float)
        b = rng.integers(0, 6, size=length).astype(float)
        got = spearman(fractional_ranks(a), fractional_ranks(b))
        ok = ok and abs(got - brute_spearman(a, b)) <= 1e-12
    check("4", "1000 tied random vectors agree with brute-force "
               "Pearson-on-ranks to 1e-12", ok)


def test_criterion_5_archive_soundness():
    X, labels = make_clusters(100, 10, 3, seed=505, spread=1.0, separation=8.0)
    ds = from_arrays(X, labels=labels)
    config = EvolutionConfig(generations=50, population_size=32, seed=505)

    sound = [True]
    min_costs = []

    def inspect(gen, entries, population):
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                if _dominates(a, b) or _dominates(b, a):
                    sound[0] = False
        min_costs.append(min(e.cost for e in entries))

    run(ds, config, on_generation=inspect)
    monotone = all(x >= y for x, y in zip(min_costs, min_costs[1:]))
    check("5", "50-generation 3-cluster run: archive dominance-free every "
               "generation, min-cost non-increasing", sound[0] and monotone)


def _dominates(a, b):
    return (
        a.cost <= b.cost
        and a.complexity <= b.complexity
        and (a.cost < b.cost or a.complexity < b.complexity)
    )


@pytest.fixture(scope="module")
def wine_runs():
    """Five 200-generation, population-64 runs on Wine, with KNN records."""
    ds = load_csv(WINE_CSV, label_column="class")
    pooled = []
    start = time.perf_counter()
    for seed in (1, 2, 3, 4, 5):
        config = EvolutionConfig(generations=200, population_size=64, seed=seed)
        result = run(ds, config)
        records = evaluate_entries(result.archive, ds, seed=seed, k=5, folds=10)
        for entry, record in zip(result.archive, records):
            pooled.append((entry, record))
    elapsed = time.perf_counter() - start
    print(f"\n(wine runs: {len(pooled)} pooled front entries in {elapsed:.0f} s)")
    return pooled


@pytest.mark.slow
def test_criterion_6_wine_accuracy_trend(wine_runs):
    qualifying = [
        record for _, record in wine_runs
        if record.complexity <= 100.0 and record.knn_acc_mean >= 0.85
    ]
    best = max((r.knn_acc_mean for _, r in wine_runs if r.complexity <= 100.0), default=0.0)
    check("6", f"Wine, 5 seeds x 200 gens: {len(qualifying)} front individuals with "
               f"complexity <= 100 and accuracy >= 85% (best {best:.1%})",
          len(qualifying) >= 1)


@pytest.mark.slow
def test_criterion_7_explainability_trend(wine_runs):
    ordered = sorted(wine_runs, key=lambda pair: pair[1].knn_acc_mean)
    _, median_record = ordered[len(ordered) // 2]
    stats = median_record.stats
    check("7", f"accuracy-median Wine individual: {stats.n_nodes} nodes "
               f"(<= 60), {stats.n_exp} exp-class nodes (<= 10)",
          stats.n_nodes <= 60 and stats.n_exp <= 10)


def test_criterion_8_determinism(tmp_path):
    X, labels = make_clusters(30, 6, 2, seed=808)
    data_path = tmp_path / "synth.csv"
    header = ",".join(f"x{j}" for j in range(6)) + ",cls"
    lines = [header] + [
        ",".join(repr(float(v)) for v in row) + f",{label}"
        for row, label in zip(X, labels)
    ]
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def run_cli(out, threads):
        code = cli.main([
            "run", "--data", str(data_path), "--label-col", "cls",
            "--out", str(out), "--seed", "99", "--generations", "10",
            "--population", "16", "--neighbourhood", "8",
            "--threads", str(threads),
        ])
        assert code == 0

    run_cli(tmp_path / "a", threads=1)
    run_cli(tmp_path / "b", threads=1)
    run_cli(tmp_path / "c", threads=4)

    def same_bytes(x, y):
        return all(
            (tmp_path / x / name).read_bytes() == (tmp_path / y / name).read_bytes()
            for name in ("front.csv", "telemetry.csv")
        )

    check("8", "single-threaded reruns and a 4-thread run write byte-identical "
               "front.csv and telemetry.csv", same_bytes("a", "b") and same_bytes("a", "c"))


def test_criterion_9_knn_harness_sanity():
    X, labels = make_separated_clusters(100, 3, 2, seed=909, sigma=1.0, separation=10.0)
    ds = from_arrays(X, labels=labels)
    separable_mean, _ = knn_cv_accuracy(
        ds.instances, ds.labels, k=5, folds=10, rng=np.random.default_rng(0)
    )

    rng = np.random.default_rng(910)
    noise = rng.normal(size=(200, 4))
    shuffled = rng.integers(0, 2, size=200)
    chance_means = [
        knn_cv_accuracy(noise, shuffled, k=5, folds=10, rng=np.random.default_rng(s))[0]
        for s in range(10)
    ]
    chance = float(np.mean(chance_means))
    check("9", f"separable clusters score {separable_mean:.3f} (= 1.0); shuffled "
               f"labels average {chance:.3f} over 10 seeds (in [0.4, 0.6])",
          separable_mean == 1.0 and 0.4 <= chance <= 0.6)
