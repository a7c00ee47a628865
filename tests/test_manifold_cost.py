import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import small_config
from gpembed.dataset import from_arrays, sq_distances
from gpembed.evolution import initialise
from gpembed.expr import FLOAT_MAX, Individual, parse
from gpembed.manifold_cost import (
    _rank_correlations,
    _row_correlations,
    _tied_rank_correlations,
    cost,
    embedding_cost,
    fractional_ranks,
    spearman,
)
from oracles import (
    brute_embedding_cost,
    brute_fractional_ranks,
    brute_spearman,
)


class TestSpearman:
    def test_identical_rankings(self):
        assert spearman([1, 2, 3], [1, 2, 3]) == 1.0

    def test_reversed_rankings(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_computed_value(self):
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_returns_zero(self):
        assert spearman([2, 2, 2], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differ in length"):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0])

    def test_agrees_with_bruteforce_on_tied_vectors(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            length = int(rng.integers(2, 30))
            a = rng.integers(0, 5, size=length).astype(float)
            b = rng.integers(0, 5, size=length).astype(float)
            got = spearman(fractional_ranks(a), fractional_ranks(b))
            assert got == pytest.approx(brute_spearman(a, b), abs=1e-12)


class TestFractionalRanks:
    def test_simple(self):
        assert fractional_ranks(np.array([10.0, 30.0, 20.0])).tolist() == [1.0, 3.0, 2.0]

    def test_ties_average(self):
        assert fractional_ranks(np.array([1.0, 1.0, 2.0])).tolist() == [1.5, 1.5, 3.0]
        assert fractional_ranks(np.array([5.0, 5.0, 5.0])).tolist() == [2.0, 2.0, 2.0]

    def test_rowwise(self):
        out = fractional_ranks(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert out.tolist() == [[1.0, 2.0], [2.0, 1.0]]

    def test_rank_sum_invariant(self):
        rng = np.random.default_rng(9)
        mat = rng.integers(0, 4, size=(10, 7)).astype(float)
        ranks = fractional_ranks(mat)
        assert np.allclose(ranks.sum(axis=1), 7 * 8 / 2)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 20)),
                  elements=st.one_of(st.integers(-3, 3).map(float),
                                     st.sampled_from([0.0, -0.0, np.inf, 5e-324]))))
    def test_matches_bruteforce(self, values):
        assert fractional_ranks(values).tolist() == [brute_fractional_ranks(r) for r in values]
        assert fractional_ranks(values[0]).tolist() == brute_fractional_ranks(values[0])


def reference_cost(embedding, order):
    """`embedding_cost` through `fractional_ranks` for every row."""
    width = order.shape[1]
    d2 = sq_distances(embedding, embedding, order)
    rho = _row_correlations(fractional_ranks(d2), np.arange(1.0, width + 1.0))
    return float(np.mean((1.0 - rho) / 2.0))


def shuffled_order(n, width, seed):
    """Each row lists `width` of the other points in a random order."""
    rng = np.random.default_rng(seed)
    rows = [rng.permutation(np.delete(np.arange(n), i))[:width] for i in range(n)]
    return np.array(rows, dtype=np.int64)


EPS = np.finfo(np.float64).eps
# small integers give exact ties; scaled by a few ulps, their squared
# distances share high key bits without a tie
NEAR_TIES = st.tuples(st.integers(0, 3), st.integers(-6, 6)).map(
    lambda p: p[0] * (1.0 + p[1] * EPS)
)
# +-FLOAT_MAX coordinates give infinite distances
MIXED = st.one_of(NEAR_TIES, st.sampled_from([FLOAT_MAX, -FLOAT_MAX]), st.floats(-10.0, 10.0))


def embeddings(width, coordinates):
    """(width + 1) x t embeddings, so each point ranks every other one."""
    return arrays(np.float64, st.tuples(st.just(width + 1), st.integers(1, 3)),
                  elements=coordinates)


def tie_rows(width):
    """Rows of squared distances with runs of exact ties (small integers and
    +inf), values a few ulps from a tie, and a last row of one repeated value."""
    value = st.one_of(NEAR_TIES.map(lambda v: v * v), st.just(np.inf))
    rows = arrays(np.float64, st.tuples(st.integers(1, 4), st.just(width)), elements=value)
    return st.tuples(rows, value).map(lambda p: np.vstack([p[0], np.full(width, p[1])]))


class TestRankKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.sampled_from([2, 3, 5, 17, 129]), st.sampled_from([NEAR_TIES, MIXED]))
        .flatmap(lambda p: st.tuples(embeddings(*p), st.integers(0, 2**32 - 1)))
    )
    def test_equals_reference_path(self, case):
        embedding, seed = case
        n = embedding.shape[0]
        order = shuffled_order(n, n - 1, seed)
        assert embedding_cost(embedding, order) == reference_cost(embedding, order)

    @pytest.mark.parametrize("width", [2, 3, 5, 17, 129])
    def test_near_ties_without_a_tie(self, width):
        # from point 0, the squared distances (1 + k eps)^2 are all distinct
        # but a few ulps apart, so above width 2 their keys share high bits
        x = np.concatenate([[0.0], 1.0 + np.arange(width) * EPS])
        d2 = (x[1:] - x[0]) ** 2
        assert np.unique(d2).size == width
        embedding = x[:, None]
        order = shuffled_order(width + 1, width, width)
        assert embedding_cost(embedding, order) == reference_cost(embedding, order)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([2, 3, 5, 17, 129]).flatmap(tie_rows))
    def test_tied_path_equals_reference(self, d2):
        ident = np.arange(1.0, d2.shape[1] + 1.0)
        want = _row_correlations(fractional_ranks(d2), ident)
        assert np.array_equal(_tied_rank_correlations(d2), want)
        assert np.array_equal(_rank_correlations(d2), want)
        assert not want[-1]  # the last row is one tie group

    @pytest.mark.parametrize("width", [3, 4, 17])
    def test_only_near_tied_rows_take_the_tied_path(self, width, monkeypatch):
        from gpembed import manifold_cost

        sent = []

        def spy(d2):
            sent.append(d2.copy())
            return _tied_rank_correlations(d2)

        def routed(d2):
            sent.clear()
            want = _row_correlations(fractional_ranks(d2), np.arange(1.0, width + 1.0))
            assert np.array_equal(_rank_correlations(d2), want)
            return np.vstack(sent) if sent else d2[:0]

        monkeypatch.setattr(manifold_cost, "_tied_rank_correlations", spy)
        rng = np.random.default_rng(width)
        steps = np.arange(1.0, width + 1.0)
        # each row's largest value is the next row's smallest: across the row
        # boundary their keys share high bits, yet no row holds a near-tie
        chain = np.vstack([rng.permutation(steps + r * (width - 1)) for r in range(5)])
        assert routed(chain).shape == (0, width)
        # row 2's only near-tie is its largest pair, the last pair of its sorted keys
        last = chain.copy()
        last[2, last[2].argmax()] = last[2].max() - 1.0
        assert np.array_equal(routed(last), last[2:3])
        # one repeated value per row: every row is tied
        flat = np.repeat(rng.permutation(5)[:, None].astype(float), width, axis=1)
        assert np.array_equal(routed(flat), flat)

    def test_against_bruteforce(self):
        rng = np.random.default_rng(5)
        embedding = rng.normal(size=(40, 2))
        order = shuffled_order(40, 17, 6)
        got = embedding_cost(embedding, order)
        want = brute_embedding_cost(embedding.tolist(), order.tolist())
        assert abs(got - want) <= 1e-12


class TestEmbeddingCostInput:
    ORDER = np.array([[1, 2], [0, 2], [1, 0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_non_finite_embedding_is_refused(self, value):
        embedding = np.array([[0.0], [1.0], [value]])
        with pytest.raises(ValueError, match="NaN or infinite"):
            embedding_cost(embedding, self.ORDER)

    def test_one_dimensional_embedding_is_refused(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            embedding_cost(np.array([0.0, 1.0, 3.0]), self.ORDER)

    def test_row_count_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="4 rows, the neighbour order 3"):
            embedding_cost(np.zeros((4, 2)), self.ORDER)


class TestCost:
    def test_feature_copy_is_free(self):
        rng = np.random.default_rng(0)
        ds = from_arrays(rng.normal(size=(20, 2)))
        ind = Individual(trees=(parse("f0"), parse("f1")))
        assert cost(ind, ds) <= 1e-12

    def test_collapsed_embedding_costs_half(self):
        rng = np.random.default_rng(1)
        ds = from_arrays(rng.normal(size=(15, 3)))
        ind = Individual(trees=(parse("(sub f0 f0)"), parse("(sub f1 f1)")))
        assert cost(ind, ds) == 0.5

    def test_matches_bruteforce_on_random_individuals(self):
        from gpembed.expr import eval_individual

        rng = np.random.default_rng(42)
        ds = from_arrays(rng.normal(size=(8, 4)))
        config = small_config(population_size=6, seed=3)
        for ind in initialise(config, ds, np.random.default_rng(3)):
            embedding = eval_individual(ind, ds)
            got = cost(ind, ds)
            assert got == embedding_cost(embedding, ds.neighbour_order)
            want = brute_embedding_cost(embedding, ds.neighbour_order.tolist())
            assert got == pytest.approx(want, abs=1e-12)

    def test_matches_bruteforce_on_quantized_embeddings(self):
        # few distinct coordinates make many squared distances equal in exact
        # arithmetic; they must tie exactly as in the oracle's left-to-right sum
        rng = np.random.default_rng(2403)
        levels = np.array([0.1, 0.2, 0.3, 0.7, 1.1])
        order = from_arrays(rng.normal(size=(30, 4))).neighbour_order
        for trial in range(60):
            t = 3 + trial % 4
            embedding = rng.choice(levels, size=(30, t))
            got = embedding_cost(embedding, order)
            want = brute_embedding_cost(embedding.tolist(), order.tolist())
            assert abs(got - want) <= 1e-12, (trial, got, want)

    def test_bounds(self):
        rng = np.random.default_rng(17)
        ds = from_arrays(rng.normal(size=(12, 4)))
        config = small_config(population_size=30, seed=8)
        for ind in initialise(config, ds, np.random.default_rng(8)):
            assert 0.0 <= cost(ind, ds) <= 1.0

    def test_reversed_ordering_costs_one(self):
        # 1-D line: mapping x -> -x preserves orderings; to get cost 1 we need
        # each point's neighbour ordering exactly reversed, which 1/x does on
        # a geometric line for the furthest-out point... simpler: check the
        # arithmetic on a crafted two-point-neighbourhood case.
        order = np.array([[1, 2], [0, 2], [1, 0]])
        emb = np.array([[0.0], [1.0], [3.0]])
        # point 0: input order [1, 2] vs embedding distances [1, 3] -> rho 1
        # reversing the embedding ordering for every listed pair flips rho
        flipped = embedding_cost(emb, np.array([[2, 1], [2, 0], [0, 1]]))
        straight = embedding_cost(emb, order)
        assert straight == 0.0
        assert flipped == 1.0

    def test_invariant_under_scaling_and_translation(self):
        rng = np.random.default_rng(23)
        ds = from_arrays(rng.normal(size=(10, 3)))
        ind = Individual(trees=(parse("(mul f0 f1)"), parse("(sigmoid f2)")))
        from gpembed.expr import eval_individual

        E = eval_individual(ind, ds)
        base = embedding_cost(E, ds.neighbour_order)
        assert embedding_cost(E * 1000.0, ds.neighbour_order) == pytest.approx(base, abs=1e-12)
        assert embedding_cost(E + 5.0, ds.neighbour_order) == pytest.approx(base, abs=1e-12)

    def test_invariant_under_tree_permutation(self):
        rng = np.random.default_rng(29)
        ds = from_arrays(rng.normal(size=(9, 4)))
        trees = (parse("(add f0 f1)"), parse("(mul f2 f3)"), parse("(relu f1)"))
        forward = cost(Individual(trees=trees), ds)
        backward = cost(Individual(trees=trees[::-1]), ds)
        assert forward == backward

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(31)
        ds = from_arrays(rng.normal(size=(11, 3)))
        ind = Individual(trees=(parse("(sigmoid (mul f0 f1))"), parse("(sub f2 f0)")))
        assert cost(ind, ds) == cost(ind, ds)

    def test_two_point_dataset_is_degenerate(self):
        ds = from_arrays([[0.0, 0.0], [1.0, 1.0]])
        ind = Individual(trees=(parse("f0"), parse("f1")))
        # single-neighbour orderings carry no information: rho := 0
        assert cost(ind, ds) == 0.5
