"""Every row-blocked distance loop gives bitwise its one-block result.

At the default budget every dataset here is one block per loop; patching
`dataset.BLOCK_VALUES` down splits each loop into 1-row blocks, or into
blocks of a few rows that end in a partial one.
"""
import numpy as np
import pytest

from gpembed import dataset
from gpembed.dataset import BLOCK_VALUES, from_arrays, neighbour_order, row_blocks
from gpembed.evolution import LABEL_FOLDS, EvolutionConfig, GenerationStats, RunResult, derive_rng
from gpembed.harness import _write_csv, fold_assignment, knn_cv_accuracy, report
from gpembed.manifold_cost import embedding_cost
from oracles import brute_embedding_cost, brute_neighbour_order
from test_harness import _brute_knn_cv

# 1-row blocks; and 216 values: 3 rows of the 61-wide order (20 blocks, then 1
# row), 3 or 18 rows of the 60- or 12-wide cost, and 3 or 4 test rows of a KNN
# fold against its 53 to 56 training rows (each fold of 5 to 8 rows spans 2 or 3)
BUDGETS = [1, 216]


def _tied_grid():
    # 61 rows on a 3-level grid of 3 features, so each point has ~2 duplicates
    # and many distances tie; random labels split the votes
    rng = np.random.default_rng(23)
    X = rng.integers(0, 3, size=(61, 3)).astype(float)
    return X, rng.integers(0, 3, size=61)


def _embeddings(n):
    rng = np.random.default_rng(29)
    yield rng.normal(size=(n, 3))
    yield rng.choice([0.1, 0.2, 0.3, 0.7], size=(n, 2))  # many tied distances


def test_row_blocks_cover_every_row_once_in_order(monkeypatch):
    for budget in (1, 216, BLOCK_VALUES):
        monkeypatch.setattr(dataset, "BLOCK_VALUES", budget)
        for n in (1, 5, 61, 300):
            for width in (1, 7, 60, 2000, 10**6):
                blocks = [np.arange(n)[block] for block in row_blocks(n, width)]
                step = max(1, budget // width)
                assert np.array_equal(np.concatenate(blocks), np.arange(n))
                assert [b.shape[0] for b in blocks[:-1]] == [step] * (len(blocks) - 1)
                assert 0 < blocks[-1].shape[0] <= step


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("max_neighbours", [None, 12])
def test_neighbour_order_is_the_one_block_order(budget, max_neighbours, monkeypatch):
    X, _ = _tied_grid()
    want = neighbour_order(X, max_neighbours)
    monkeypatch.setattr(dataset, "BLOCK_VALUES", budget)
    got = neighbour_order(X, max_neighbours)
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [row[:want.shape[1]] for row in brute_neighbour_order(X)]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("max_neighbours", [None, 12])
def test_embedding_cost_is_the_one_block_cost(budget, max_neighbours, monkeypatch):
    X, _ = _tied_grid()
    order = neighbour_order(X, max_neighbours)
    for embedding in _embeddings(X.shape[0]):
        want = embedding_cost(embedding, order)
        with monkeypatch.context() as patch:
            patch.setattr(dataset, "BLOCK_VALUES", budget)
            got = embedding_cost(embedding, order)
        assert got == want
        assert abs(got - brute_embedding_cost(embedding.tolist(), order.tolist())) <= 1e-12


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("k", [1, 4])
def test_knn_cv_accuracy_is_the_one_block_accuracy(budget, k, monkeypatch):
    X, labels = _tied_grid()
    want = knn_cv_accuracy(X, labels, k=k, rng=np.random.default_rng(k))
    monkeypatch.setattr(dataset, "BLOCK_VALUES", budget)
    got = knn_cv_accuracy(X, labels, k=k, rng=np.random.default_rng(k))
    assert got == want
    assignment = fold_assignment(labels, 10, np.random.default_rng(k))
    assert got == _brute_knn_cv(X, labels, assignment, k, 10)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("max_neighbours", [None, 12])
def test_baseline_csv_is_the_one_block_baseline(budget, max_neighbours, tmp_path, monkeypatch):
    X, labels = _tied_grid()
    ds = from_arrays(X, labels=labels, max_neighbours=max_neighbours)
    config = EvolutionConfig(generations=0, population_size=8, moead_neighbourhood=4, seed=5)
    empty = RunResult(archive=[], final_front=[], telemetry=[GenerationStats(0, 0.0, 0.0, 0)])
    report(empty, ds, config, tmp_path / "one-block", k=4)
    assignment = fold_assignment(ds.labels, 10, derive_rng(config.seed, LABEL_FOLDS))
    _write_csv(tmp_path / "brute.csv", "knn_acc_mean,knn_acc_std",
               [_brute_knn_cv(ds.instances, ds.labels, assignment, 4, 10)])
    monkeypatch.setattr(dataset, "BLOCK_VALUES", budget)
    report(empty, ds, config, tmp_path / "blocked", k=4)
    got = (tmp_path / "blocked" / "baseline.csv").read_bytes()
    assert got == (tmp_path / "one-block" / "baseline.csv").read_bytes()
    assert got == (tmp_path / "brute.csv").read_bytes()
