import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import WINE_CSV, make_clusters, make_separated_clusters, small_config
from gpembed import dataset
from gpembed.dataset import from_arrays, load_csv, neighbour_order
from gpembed.evolution import (LABEL_FOLDS, EvolutionConfig, FrontEntry, GenerationStats,
                               RunResult, derive_rng, run)
from gpembed.expr import Individual, parse
from gpembed import harness
from gpembed.harness import fold_assignment, knn_cv_accuracy, report, summary_stats
from oracles import brute_census


class TestKnn:
    def test_separable_clusters_are_perfect(self):
        X, labels = make_separated_clusters(100, 3, 2, seed=1, sigma=1.0, separation=10.0)
        ds = from_arrays(X, labels=labels)
        mean, std = knn_cv_accuracy(ds.instances, ds.labels, k=5, folds=10,
                                    rng=np.random.default_rng(0))
        assert mean == 1.0
        assert std == 0.0

    def test_random_labels_score_at_chance(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(200, 4))
        labels = rng.integers(0, 2, size=200)
        means = []
        for seed in range(10):
            mean, _ = knn_cv_accuracy(X, labels, k=5, folds=10,
                                      rng=np.random.default_rng(seed))
            means.append(mean)
        assert 0.4 <= float(np.mean(means)) <= 0.6

    def test_k_of_n_minus_one_votes_globally(self):
        # balanced 2-class set: majority over (almost) all points always ties,
        # and ties break to the smallest class id, so accuracy is exactly 0.5
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        labels = np.array([0, 1] * 10)
        mean, _ = knn_cv_accuracy(X, labels, k=19, folds=10, rng=np.random.default_rng(1))
        assert mean == 0.5

    def test_scaling_invariance(self):
        X, labels = make_clusters(30, 3, 3, seed=5, spread=2.0, separation=6.0)
        ds = from_arrays(X, labels=labels)
        a = knn_cv_accuracy(ds.instances, ds.labels, rng=np.random.default_rng(4))
        b = knn_cv_accuracy(ds.instances * 1000.0, ds.labels, rng=np.random.default_rng(4))
        assert a == b

    @pytest.mark.parametrize("k", [1, 4, 5, 9])
    def test_matches_bruteforce_with_duplicated_points(self, k):
        # 12 distinct points, each repeated 5 times: every query has exact
        # distance ties at its k-th neighbour and random labels split votes
        rng = np.random.default_rng(100 + k)
        X = np.repeat(rng.integers(0, 3, size=(12, 3)).astype(float), 5, axis=0)
        labels = rng.integers(0, 3, size=60)
        got = knn_cv_accuracy(X, labels, k=k, folds=10, rng=np.random.default_rng(k))
        assignment = fold_assignment(labels, 10, np.random.default_rng(k))
        assert got == _brute_knn_cv(X, labels, assignment, k, 10)

    @pytest.mark.filterwarnings("ignore:class with .* non-stratified folds:UserWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 40),
        st.integers(1, 3),
        st.sampled_from(["grid", "duplicates", "normal", "offset-grid", "huge"]),
        st.integers(2, 10),
        st.integers(1, 3),
        st.booleans(),
        st.integers(1, 45),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @example(4, 2, "offset-grid", 2, 1, False, 1, 1, 5)  # a zero slack drops a tied voter
    # n >= 50 (kth + 1): each row's bound comes from minima over sets of 12 or 6 columns
    @example(300, 2, "offset-grid", 2, 1, False, 1, 3, 5)
    @example(300, 2, "offset-grid", 10, 3, True, 2, 4, 6)
    @example(300, 2, "duplicates", 10, 3, True, 2, 1, 7)
    @example(300, 3, "normal", 10, 3, True, 2, 2, 8)
    def test_one_pass_matches_bruteforce(self, n, dims, kind, folds, classes, stratified, k,
                                         block_rows, seed):
        # coarse integer grids and repeated rows tie many distances at the k-th;
        # the offset grid's Gram values round exact ties apart, so a zero slack
        # drops tied columns; 1e154 squares overflow, which empties the Gram
        # filter (every column outside the fold is a candidate) and ties
        # distances at +inf; blocks of 1-4 rows straddle the fold boundaries
        rng = np.random.default_rng(seed)
        n = max(n, folds * classes if stratified else folds)
        X = {
            "grid": lambda: rng.integers(0, 3, size=(n, dims)).astype(float),
            "duplicates": lambda: np.repeat(rng.normal(size=(n, dims)), 4, axis=0)[:n],
            "normal": lambda: rng.normal(size=(n, dims)),
            "offset-grid": lambda: rng.integers(0, 3, size=(n, dims)) + 1e8,
            "huge": lambda: rng.normal(size=(n, dims)) * 1e154,
        }[kind]()
        if kind == "huge":
            X[0, 0] = 1e154  # 8 max s overflows whatever the draw
        labels = rng.permutation(np.arange(n) % classes)
        if not stratified:
            labels[0] = classes  # a class of one: fewer members than folds
        assignment = fold_assignment(labels, folds, np.random.default_rng(seed))
        want = _brute_knn_cv(X, labels, assignment, k, folds)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "BLOCK_VALUES", n * block_rows)
            assert knn_cv_accuracy(X, labels, k=k, folds=folds,
                                   rng=np.random.default_rng(seed)) == want
            # the stored-order source, capped or not, reads the same voters
            order = neighbour_order(X, max_neighbours=int(rng.integers(1, n)))
            got = harness._cv_accuracy(X, labels, k, folds, np.random.default_rng(seed), order)
            assert got in (None, want)
            assert harness._cv_accuracy(X, labels, k, folds, np.random.default_rng(seed),
                                        neighbour_order(X)) == want

    @pytest.mark.parametrize("kind", ["normal", "grid"])
    def test_own_fold_columns_never_vote(self, kind):
        # folds = 2 over 3-member classes: fold 0 holds two thirds of the rows,
        # and with k = 5 each bound is a minimum over pairs of columns, a third
        # of them wholly inside fold 0
        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 2)) if kind == "normal" else rng.integers(0, 4, size=(300, 2))
        labels = np.arange(300) // 3
        assignment = fold_assignment(labels, 2, np.random.default_rng(2))
        assert np.bincount(assignment).tolist() == [200, 100]
        got = knn_cv_accuracy(X, labels, k=5, folds=2, rng=np.random.default_rng(2))
        assert got == _brute_knn_cv(X, labels, assignment, 5, 2)

    def test_constant_embedding_votes_with_the_lowest_rows_outside_the_fold(self):
        # every distance is 0, so every column outside a row's fold is a
        # candidate, and its voters are the 5 lowest-index rows outside it
        labels = np.random.default_rng(3).integers(0, 3, size=2000)
        assignment = fold_assignment(labels, 10, np.random.default_rng(1))
        accuracies = []
        for f in range(10):
            guess = np.bincount(labels[np.flatnonzero(assignment != f)[:5]], minlength=3).argmax()
            accuracies.append(float(np.mean(labels[assignment == f] == guess)))
        got = knn_cv_accuracy(np.zeros((2000, 2)), labels, k=5, folds=10,
                              rng=np.random.default_rng(1))
        assert got == (float(np.mean(accuracies)), float(np.std(accuracies)))

    def test_labels_need_not_be_class_codes(self):
        # two clusters 10 apart: each row's 5 nearest share its label, whatever
        # the labels are
        X, _ = make_separated_clusters(50, 2, 2, seed=1)
        for labels in (np.repeat([1, -1], 50), np.repeat([0.5, -2.5], 50),
                       np.repeat(["b", "a"], 50)):
            assert knn_cv_accuracy(X, labels, k=5, folds=10,
                                   rng=np.random.default_rng(0)) == (1.0, 0.0)

    @pytest.mark.parametrize("k", [2, 4])
    def test_labels_in_code_order_score_as_their_codes(self, k):
        # labels mapped in order score as their codes do, tied votes included
        rng = np.random.default_rng(k)
        X = rng.integers(0, 3, size=(60, 2)).astype(float)
        codes = rng.integers(0, 3, size=60)
        want = knn_cv_accuracy(X, codes, k=k, rng=np.random.default_rng(1))
        for labels in (codes * 2.5 - 7.0, np.array(["a", "b", "c"])[codes], codes + 10):
            assert knn_cv_accuracy(X, labels, k=k, rng=np.random.default_rng(1)) == want

    def test_missing_labels_rejected(self):
        with pytest.raises(ValueError, match="labels"):
            knn_cv_accuracy(np.zeros((10, 2)), None)

    @pytest.mark.parametrize("count", [30, 50])
    def test_label_count_must_match_rows(self, count):
        E = np.random.default_rng(0).normal(size=(40, 3))
        with pytest.raises(ValueError, match=f"got {count} labels for 40 embedding rows"):
            knn_cv_accuracy(E, np.arange(count) % 2)

    @pytest.mark.parametrize("shape", [(40,), (40, 2, 2)])
    def test_embedding_must_be_2d(self, shape):
        message = f"embedding must be 2-D, got shape {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            knn_cv_accuracy(np.zeros(shape), np.arange(40) % 2)

    def test_too_few_instances(self):
        with pytest.raises(ValueError, match="10-fold"):
            knn_cv_accuracy(np.zeros((5, 2)), np.zeros(5, dtype=int), folds=10)

    @pytest.mark.parametrize("folds", [0, 1])
    def test_fewer_than_two_folds_rejected(self, folds):
        with pytest.raises(ValueError, match="folds must be >= 2"):
            knn_cv_accuracy(np.zeros((10, 2)), np.arange(10) % 2, folds=folds)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_embedding_rejected(self, bad):
        E = np.random.default_rng(0).normal(size=(40, 2))
        E[3, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            knn_cv_accuracy(E, np.arange(40) % 2, k=3, folds=4)

    def test_small_class_falls_back_with_warning(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        labels = np.array([0] * 27 + [1] * 3)
        with pytest.warns(UserWarning, match="non-stratified"):
            mean, std = knn_cv_accuracy(X, labels, k=3, folds=10,
                                        rng=np.random.default_rng(0))
        assert 0.0 <= mean <= 1.0


def _brute_knn_cv(X, labels, assignment, k, folds):
    """Per test point: sort training points by (squared distance, index), vote
    over the first k, smallest class id wins a tied vote."""
    rows = X.tolist()
    accuracies = []
    for f in range(folds):
        hits = []
        for i in np.flatnonzero(assignment == f):
            ranked = sorted(
                (sum((a - b) * (a - b) for a, b in zip(rows[i], rows[j])), j)
                for j in np.flatnonzero(assignment != f)
            )
            votes = [0] * (int(labels.max()) + 1)
            for _, j in ranked[:k]:
                votes[labels[j]] += 1
            hits.append(votes.index(max(votes)) == labels[i])
        accuracies.append(float(np.mean(hits)))
    return float(np.mean(accuracies)), float(np.std(accuracies))


class TestFoldAssignment:
    def test_partition_is_exact(self):
        labels = np.array([0, 1] * 25)
        assignment = fold_assignment(labels, 10, np.random.default_rng(0))
        assert assignment.shape == (50,)
        assert int((assignment >= 0).sum()) == 50
        # every instance lands in exactly one fold; per-class counts are
        # as even as 25 over 10 folds allows
        for f in range(10):
            for c in (0, 1):
                count = int(((assignment == f) & (labels == c)).sum())
                assert count in (2, 3)
        assert sum(int((assignment == f).sum()) for f in range(10)) == 50

    def test_stratification_balances_classes(self):
        labels = np.array([0] * 40 + [1] * 20)
        assignment = fold_assignment(labels, 10, np.random.default_rng(1))
        for f in range(10):
            fold_labels = labels[assignment == f]
            assert int((fold_labels == 0).sum()) == 4
            assert int((fold_labels == 1).sum()) == 2

    def test_seeded_reproducibility(self):
        labels = np.array([0, 1, 2] * 20)
        a = fold_assignment(labels, 10, np.random.default_rng(9))
        b = fold_assignment(labels, 10, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestSummaryStats:
    def test_two_add_trees(self):
        ind = Individual(trees=(parse("(add f0 f1)"), parse("(add f0 f1)")))
        stats = summary_stats(ind)
        assert stats.n_nodes == 6
        assert stats.n_sum == 2
        assert stats.n_prod == 0
        assert stats.n_exp == 0
        assert stats.n_leaf == 4
        assert stats.n_unique_features == 2

    def test_single_sigmoid(self):
        stats = summary_stats(Individual(trees=(parse("(sigmoid f3)"),)))
        assert (stats.n_exp, stats.n_leaf, stats.n_unique_features) == (1, 1, 1)

    def test_counts_sum_to_total(self):
        ind = Individual(
            trees=(parse("(mul (add f0 f1) (relu f2))"), parse("(pdiv f3 (max f1 f4))"))
        )
        stats = summary_stats(ind)
        assert stats.n_nodes == stats.n_exp + stats.n_prod + stats.n_sum + stats.n_leaf

    def test_matches_census_oracle(self):
        from gpembed.evolution import initialise

        rng = np.random.default_rng(11)
        ds = from_arrays(rng.normal(size=(10, 8)))
        from gpembed.complexity import DEFAULT_COST_MODEL

        for ind in initialise(small_config(population_size=10, seed=0), ds, rng):
            stats = summary_stats(ind)
            total, n_exp, n_prod, n_sum, n_leaf, n_feat = brute_census(ind, DEFAULT_COST_MODEL)
            assert (
                stats.n_nodes,
                stats.n_exp,
                stats.n_prod,
                stats.n_sum,
                stats.n_leaf,
                stats.n_unique_features,
            ) == (total, n_exp, n_prod, n_sum, n_leaf, n_feat)


class TestEvaluateEntries:
    def test_repeated_genotype_is_scored_once(self, monkeypatch):
        X, labels = make_clusters(20, 6, 2, seed=4)
        ds = from_arrays(X, labels=labels)
        e = FrontEntry(Individual(trees=(parse("(add f0 f1)"), parse("f2"))), 0.25, 3.0,
                       ("(add f0 f1)", "f2"))
        e2 = FrontEntry(Individual(trees=(parse("(mul f3 f4)"), parse("f5"))), 0.5, 2.0,
                        ("(mul f3 f4)", "f5"))
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return knn_cv_accuracy(*args, **kwargs)

        monkeypatch.setattr(harness, "knn_cv_accuracy", counting)
        first, second, third = harness.evaluate_entries([e, e2, e], ds, seed=3)
        assert len(calls) == 2
        assert third == first != second


@pytest.fixture
def finished_run():
    X, labels = make_clusters(20, 6, 2, seed=4)
    ds = from_arrays(X, labels=labels)
    config = EvolutionConfig(generations=5, population_size=8, moead_neighbourhood=4, seed=1)
    return ds, config, run(ds, config)


class TestReport:
    def test_report_files_and_schema(self, finished_run, tmp_path):
        ds, config, result = finished_run
        out = tmp_path / "out"
        records = report(result, ds, config, out)
        front = (out / "front.csv").read_text().splitlines()
        assert front[0] == (
            "id,cost,complexity,n_trees,n_nodes,n_exp,n_prod,n_sum,n_leaf,"
            "n_unique_feat,knn_acc_mean,knn_acc_std"
        )
        assert len(front) == len(result.archive) + 1
        complexities = [float(line.split(",")[2]) for line in front[1:]]
        assert complexities == sorted(complexities)
        telemetry = (out / "telemetry.csv").read_text().splitlines()
        assert telemetry[0] == "generation,min_cost,min_complexity,archive_size"
        assert len(telemetry) == config.generations + 2
        assert (out / "final_front.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "baseline.csv").read_text().splitlines()[0] == "knn_acc_mean,knn_acc_std"
        for entry_id, _ in enumerate(records):
            assert (out / "trees" / f"{entry_id}.sexp").exists()
            assert (out / "trees" / f"{entry_id}.dot").exists()

    def test_rerun_is_byte_identical(self, finished_run, tmp_path):
        ds, config, result = finished_run
        report(result, ds, config, tmp_path / "a")
        report(result, ds, config, tmp_path / "b")
        for name in ("front.csv", "final_front.csv", "summary.csv", "telemetry.csv", "baseline.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_individual_on_both_fronts_is_scored_once(self, finished_run, tmp_path, monkeypatch):
        ds, config, result = finished_run
        archive_trees = {e.sexprs for e in result.archive}
        shared = [e for e in result.final_front if e.sexprs in archive_trees]
        assert shared, "the run must put an individual on both fronts"
        final_entries = harness.sorted_entries(result.final_front)
        unshared = harness.evaluate_entries(final_entries, ds, config.seed)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return knn_cv_accuracy(*args, **kwargs)

        monkeypatch.setattr(harness, "knn_cv_accuracy", counting)
        report(result, ds, config, tmp_path / "once")
        # archive and final-front entries not in it; the raw-feature baseline
        # reads the stored neighbour order instead
        assert len(calls) == len(result.archive) + len(result.final_front) - len(shared)
        harness._write_csv(tmp_path / "unshared.csv", harness.FRONT_COLUMNS,
                           harness._front_rows(final_entries, unshared))
        assert (tmp_path / "once" / "final_front.csv").read_bytes() == (
            (tmp_path / "unshared.csv").read_bytes()
        )

    def test_empty_archive_writes_headers_only(self, tmp_path):
        X, labels = make_clusters(10, 4, 2, seed=8)
        ds = from_arrays(X, labels=labels)
        config = EvolutionConfig(generations=0, population_size=8, moead_neighbourhood=4, seed=0)
        result = RunResult(
            archive=[],
            final_front=[],
            telemetry=[GenerationStats(0, 0.0, 0.0, 0)],
        )
        report(result, ds, config, tmp_path / "empty")
        front = (tmp_path / "empty" / "front.csv").read_text().splitlines()
        assert len(front) == 1

    def test_sexp_files_round_trip(self, finished_run, tmp_path):
        ds, config, result = finished_run
        records = report(result, ds, config, tmp_path / "rt")
        from gpembed.harness import sorted_entries

        entries = sorted_entries(result.archive)
        for entry_id, (rec, entry) in enumerate(zip(records, entries)):
            lines = (tmp_path / "rt" / "trees" / f"{entry_id}.sexp").read_text().split()
            parsed = tuple(parse(line) for line in
                           (tmp_path / "rt" / "trees" / f"{entry_id}.sexp").read_text().splitlines())
            assert tuple(t for t in parsed) == entry.individual.trees

    def test_accuracy_in_unit_interval(self, finished_run, tmp_path):
        ds, config, result = finished_run
        records = report(result, ds, config, tmp_path / "acc")
        for rec in records:
            assert 0.0 <= rec.knn_acc_mean <= 1.0
            assert rec.knn_acc_std >= 0.0


def _grid_with_duplicates(max_neighbours):
    # 15 distinct points on a 3-level grid, each repeated 4 times, random labels:
    # many rows tie at their k-th distance, and votes split
    rng = np.random.default_rng(5)
    X = np.repeat(rng.integers(0, 3, size=(15, 3)).astype(float), 4, axis=0)
    return from_arrays(X, labels=rng.integers(0, 3, size=60), max_neighbours=max_neighbours)


def _mixed_clusters(max_neighbours):
    # 300 rows in 3 overlapping clusters, so accuracy is well below 1
    X, labels = make_clusters(100, 4, 3, seed=6, spread=4.0, separation=6.0)
    return from_arrays(X, labels=labels, max_neighbours=max_neighbours)


def _random_rows(n, labels, seed):
    return from_arrays(np.random.default_rng(seed).normal(size=(n, 2)), labels=labels)


# name: (dataset, k, folds, whether the capped order lists too few)
BASELINE_CASES = {
    "wine-all-neighbours": (lambda: load_csv(WINE_CSV, label_column="class"), 5, 10, False),
    "clusters-50-neighbours": (lambda: _mixed_clusters(50), 5, 10, False),
    "clusters-1-neighbour": (lambda: _mixed_clusters(1), 5, 10, True),
    "grid-ties-all": (lambda: _grid_with_duplicates(None), 4, 10, False),
    "grid-ties-12-neighbours": (lambda: _grid_with_duplicates(12), 4, 10, False),
    "class-smaller-than-folds": (lambda: _random_rows(30, [0] * 27 + [1] * 3, 2), 3, 10, False),
    "k-above-a-fold": (lambda: _random_rows(20, np.arange(20) % 3, 8), 19, 10, False),
}


class TestStoredBaseline:
    """report reads baseline.csv's voters from the dataset's neighbour order,
    and calls knn_cv_accuracy only when a capped order lists too few."""

    @pytest.mark.filterwarnings("ignore:class with .* non-stratified folds:UserWarning")
    @pytest.mark.parametrize("case", list(BASELINE_CASES))
    def test_baseline_matches_distance_path_and_oracle(self, case, tmp_path, monkeypatch):
        make, k, folds, falls_back = BASELINE_CASES[case]
        ds = make()
        config = EvolutionConfig(generations=0, population_size=8, moead_neighbourhood=4, seed=3)
        want = knn_cv_accuracy(ds.instances, ds.labels, k=k, folds=folds,
                               rng=derive_rng(config.seed, LABEL_FOLDS))
        assignment = fold_assignment(ds.labels, folds, derive_rng(config.seed, LABEL_FOLDS))
        assert want == _brute_knn_cv(ds.instances, ds.labels, assignment, k, folds)
        harness._write_csv(tmp_path / "want.csv", "knn_acc_mean,knn_acc_std", [want])
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return knn_cv_accuracy(*args, **kwargs)

        monkeypatch.setattr(harness, "knn_cv_accuracy", counting)
        empty = RunResult(archive=[], final_front=[], telemetry=[GenerationStats(0, 0.0, 0.0, 0)])
        report(empty, ds, config, tmp_path / "out", k=k, folds=folds)
        assert (tmp_path / "out" / "baseline.csv").read_bytes() == (
            (tmp_path / "want.csv").read_bytes())
        assert len(calls) == falls_back
