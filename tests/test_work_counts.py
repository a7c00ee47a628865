"""Exact work counts of the filters, the rank kernel and the objective cache.

The other tests check every output exactly, but a change that keeps the
outputs and does more work passes them: a Gram slack 3.6 times too loose kept
18.2 candidates per row against 5.1, each KNN call ran 1.1-1.2 times slower,
and every output still matched.  A count on fixed, seeded inputs does not drift
with the host, so it is pinned exactly.  A change that moves one names the
change and its reason in CHANGES.md, with timings in alternating pairs, whether
the count goes up or down.  Only public functions are called, and spies wrap
the names the library calls through its module globals.
"""
import numpy as np
import pytest

from gpembed import dataset, evolution, harness, manifold_cost
from gpembed.dataset import from_arrays
from gpembed.evolution import EvolutionConfig, run
from gpembed.expr import Individual, eval_individual, parse
from gpembed.harness import knn_cv_accuracy
from gpembed.manifold_cost import embedding_cost


def blobs_2k(seed):
    """The `blobs-2k` bench workload's data (`bench/run.py`, `write_blobs`):
    2,000 rows dealt in turn to 5 clusters in 10 features; its CSV holds these
    values exactly, as `repr` round-trips a float."""
    centres = np.random.default_rng(0).normal(0.0, 4.0, size=(5, 10))
    labels = np.arange(2000) % 5
    X = centres[labels] + np.random.default_rng(seed).normal(0.0, 1.0, size=(2000, 10))
    return X, [f"c{label}" for label in labels]


def spy_gram(monkeypatch, owner):
    """Per block that `owner` takes from `gram_candidates`: (candidates, index width)."""
    seen = []
    real = dataset.gram_candidates

    def spy(X, *args):
        for block, index in real(X, *args):
            seen.append((int((index < X.shape[0]).sum()), index.shape[1]))
            yield block, index

    monkeypatch.setattr(owner, "gram_candidates", spy)
    return seen


@pytest.fixture(scope="module")
def blobs():
    """The blobs-2k seed-1 dataset as the bench loads it (50 neighbours), with the
    Gram filter's work at load: (candidates, index width) per block."""
    with pytest.MonkeyPatch.context() as patch:
        seen = spy_gram(patch, dataset)
        ds = from_arrays(*blobs_2k(1), max_neighbours=50)
    return ds, seen


class TestGramCandidates:
    def test_knn_pass_on_a_normal_embedding(self, monkeypatch):
        E = np.random.default_rng(1).normal(size=(2000, 3))
        seen = spy_gram(monkeypatch, harness)
        knn_cv_accuracy(E, np.arange(2000) % 5, k=5)  # kth = 4 in every row
        assert sum(c for c, _ in seen) == 10_131

    def test_knn_pass_on_wine(self, wine_dataset, monkeypatch):
        seen = spy_gram(monkeypatch, harness)
        knn_cv_accuracy(wine_dataset.instances, wine_dataset.labels, k=5)
        assert sum(c for c, _ in seen) == 890

    def test_blobs_load(self, blobs):
        _, seen = blobs
        assert sum(c for c, _ in seen) == 102_000  # 51 a row: the 50 nearest and itself

    def test_blobs_load_block_widths(self, blobs):
        # each block's exact distances: its rows times this width
        _, seen = blobs
        assert [w for _, w in seen] == [51] * 31


# relu, min and max make exact ties, and a few of their distances tie within a row
GENOTYPES = [
    ("(relu (sub f0 f1))", "(max f2 f3)"),
    ("(abs (sub f4 f5))", "(min f6 f7)", "f8"),
    ("(mul f0 f1)", "(sigmoid (add f2 f9))"),
    ("(relu (sub f3 f6))", "(relu (sub f7 f1))"),
    ("(max (min f0 f4) f9)", "(pdiv f5 f2)"),
]


def ranked_rows(ds, monkeypatch):
    """(calls, rows) of `fractional_ranks` while `GENOTYPES` are costed on `ds`:
    the near-tied rows of `_rank_correlations`."""
    embeddings = [eval_individual(Individual(trees=tuple(map(parse, texts))), ds)
                  for texts in GENOTYPES]
    seen = []
    real = manifold_cost.fractional_ranks
    monkeypatch.setattr(manifold_cost, "fractional_ranks",
                        lambda values: seen.append(len(values)) or real(values))
    for E in embeddings:
        embedding_cost(E, ds.neighbour_order)
    return len(seen), sum(seen)


class TestRankedRows:
    def test_wine(self, wine_dataset, monkeypatch):
        assert ranked_rows(wine_dataset, monkeypatch) == (3, 357)

    def test_blobs(self, blobs, monkeypatch):
        assert ranked_rows(blobs[0], monkeypatch) == (1, 767)


class TestObjectiveCache:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_fresh_genotypes_and_hits_of_a_wine_run(self, wine_dataset, threads, monkeypatch):
        fresh, entries = [], []
        real_cost, real_entry = manifold_cost.embedding_cost, evolution._entry
        monkeypatch.setattr(manifold_cost, "embedding_cost",
                            lambda E, order: fresh.append(None) or real_cost(E, order))
        monkeypatch.setattr(evolution, "_entry",
                            lambda ind, scores: entries.append(None) or real_entry(ind, scores))
        run(wine_dataset, EvolutionConfig(generations=20, population_size=16,
                                          moead_neighbourhood=8, seed=1, threads=threads))
        assert (len(fresh), len(entries) - len(fresh)) == (315, 21)
