import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gpembed import expr
from gpembed.dataset import from_arrays
from gpembed.evolution import _crossover
from gpembed.expr import (
    FLOAT_MAX,
    MAX_TREE_DEPTH,
    OPERATOR_TABLE,
    OPERATORS,
    PDIV_EPS,
    Individual,
    Node,
    TreeParseError,
    eval_individual,
    eval_tree,
    eval_tree_matrix,
    get_subtree,
    max_feature_index,
    node_depth,
    parse,
    random_tree,
    replace_subtree,
    serialize,
    to_dot,
)
from oracles import brute_eval


def random_trees(max_features=5):
    """Hypothesis strategy producing arbitrary valid trees."""
    leaves = st.integers(0, max_features - 1).map(Node.leaf)
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.tuples(st.sampled_from(["abs", "relu", "sigmoid"]), children).map(
                lambda t: Node.call(t[0], t[1])
            ),
            st.tuples(
                st.sampled_from(["add", "sub", "mul", "pdiv", "max", "min"]),
                children,
                children,
            ).map(lambda t: Node.call(t[0], t[1], t[2])),
        ),
        max_leaves=20,
    )


TINY = float(np.finfo(np.float64).smallest_subnormal)
# every finite float, weighted towards the values an operator could turn into
# NaN or inf: signed zeros, subnormals, pdiv's threshold, and near-overflow
EXTREME = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, PDIV_EPS, -PDIV_EPS,
                     float(np.nextafter(PDIV_EPS, 0.0)), 1e300, -1e300, FLOAT_MAX, -FLOAT_MAX]),
    st.floats(allow_nan=False, allow_infinity=False),
)


class TestEval:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(OPERATORS),
           arrays(np.float64, st.tuples(st.integers(1, 16), st.just(2)), elements=EXTREME))
    def test_every_operator_keeps_finite_inputs_finite(self, op, X):
        # `manifold_cost.embedding_cost` refuses non-finite embeddings, so a
        # kernel that made NaN or inf from finite columns would stop a run
        tree = Node.call(op, *(Node.leaf(f) for f in range(OPERATOR_TABLE[op].arity)))
        assert np.isfinite(eval_tree_matrix(tree, X)).all()

    def test_add(self):
        assert eval_tree(parse("(add f0 f1)"), [2.0, 3.0]) == 5.0

    def test_protected_division(self):
        assert eval_tree(parse("(pdiv f0 f1)"), [4.0, 0.0]) == 1.0
        assert eval_tree(parse("(pdiv f0 f1)"), [4.0, 2.0]) == 2.0
        assert eval_tree(parse("(pdiv f0 f1)"), [4.0, 9e-7]) == 1.0

    def test_sigmoid_at_zero(self):
        assert eval_tree(parse("(sigmoid f0)"), [0.0]) == 0.5

    def test_unary_ops(self):
        assert eval_tree(parse("(abs f0)"), [-3.0]) == 3.0
        assert eval_tree(parse("(relu f0)"), [-3.0]) == 0.0
        assert eval_tree(parse("(relu f0)"), [3.0]) == 3.0

    def test_min_max(self):
        assert eval_tree(parse("(max f0 f1)"), [1.0, 2.0]) == 2.0
        assert eval_tree(parse("(min f0 f1)"), [1.0, 2.0]) == 1.0

    def test_overflow_saturates_with_sign(self):
        sq = parse("(mul (mul f0 f0) (mul f0 f0))")
        assert eval_tree(sq, [1e200]) == FLOAT_MAX
        cube = parse("(mul (mul f0 f0) f0)")
        assert eval_tree(cube, [-1e150]) == -FLOAT_MAX

    def test_never_nan(self):
        hairy = parse("(sub (mul (mul f0 f0) (mul f0 f0)) (mul (mul f0 f0) (mul f0 f0)))")
        assert eval_tree(hairy, [1e300]) == 0.0  # max - max, post-saturation

    def test_purity(self):
        tree = parse("(pdiv (sigmoid f1) (sub f0 f2))")
        row = [0.3, -1.7, 0.3]
        values = {eval_tree(tree, row) for _ in range(5)}
        assert len(values) == 1

    def test_eval_individual_columns(self):
        ind = Individual(trees=(parse("(add f0 f0)"), parse("(add f1 f1)")))
        out = eval_individual(ind, np.array([[1.0, 2.0]]))
        assert out.tolist() == [[2.0, 4.0]]

    def test_constant_dataset_gives_constant_columns(self):
        ind = Individual(trees=(parse("(mul f0 f1)"), parse("(sigmoid f1)")))
        X = np.zeros((4, 2))
        out = eval_individual(ind, X)
        assert (out == out[0]).all()

    def test_matches_recursive_interpreter(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(5, 3))
        trees = tuple(random_tree(3, 2, 4, "grow", rng) for _ in range(3))
        ind = Individual(trees=trees)
        out = eval_individual(ind, X)
        for r, row in enumerate(X):
            for c, tree in enumerate(trees):
                assert out[r, c] == pytest.approx(brute_eval(tree, row), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(random_trees(), st.lists(st.floats(-1e6, 1e6), min_size=5, max_size=5))
    def test_vectorized_equals_scalar_oracle(self, tree, row):
        got = eval_tree(tree, row)
        want = brute_eval(tree, row)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestColumnReuse:
    def test_tree_scored_on_two_datasets(self):
        rng = np.random.default_rng(12)
        first = from_arrays(rng.normal(size=(6, 2)))
        second = from_arrays(rng.normal(size=(6, 2)))
        ind = Individual(trees=(parse("(add f0 f1)"),))
        for ds in (first, second, first):
            want = ds.instances[:, 0] + ds.instances[:, 1]
            assert eval_individual(ind, ds)[:, 0].tolist() == want.tolist()

    def test_plain_array_leaves_the_cache_untouched(self):
        tree = parse("(mul f0 f1)")
        eval_individual(Individual(trees=(tree,)), np.ones((3, 2)))
        assert tree.column_memo is None

    def test_crossover_child_evaluates_one_tree(self, monkeypatch):
        rng = np.random.default_rng(13)
        ds = from_arrays(rng.normal(size=(10, 4)))
        parent = Individual(trees=tuple(random_tree(4, 2, 4, "grow", rng) for _ in range(3)))
        other = Individual(trees=tuple(random_tree(4, 2, 4, "grow", rng) for _ in range(3)))
        calls = []
        real = expr.eval_tree_matrix
        monkeypatch.setattr(expr, "eval_tree_matrix", lambda t, X: calls.append(t) or real(t, X))
        parent_columns = eval_individual(parent, ds)
        assert len(calls) == 3
        child = _crossover(parent, other, rng)
        child_columns = eval_individual(child, ds)
        assert len(calls) == 4
        (i,) = [k for k in range(3) if child.trees[k] is not parent.trees[k]]
        assert calls[-1] is child.trees[i]
        kept = [k for k in range(3) if k != i]
        assert np.array_equal(child_columns[:, kept], parent_columns[:, kept])

    def test_crossover_child_serializes_one_tree(self):
        rng = np.random.default_rng(15)
        parent = Individual(trees=tuple(random_tree(4, 2, 4, "grow", rng) for _ in range(3)))
        other = Individual(trees=tuple(random_tree(4, 2, 4, "grow", rng) for _ in range(3)))
        texts = parent.serialized()
        child = _crossover(parent, other, rng)
        (i,) = [k for k in range(3) if child.trees[k] is not parent.trees[k]]
        assert child.trees[i].text_memo is None
        got = child.serialized()
        assert [got[k] is texts[k] for k in range(3)] == [k != i for k in range(3)]
        assert got[i] == expr._sexpr(child.trees[i]) and child.trees[i].text_memo[1] is got[i]

    def test_threads_sharing_trees_get_fresh_columns(self):
        rng = np.random.default_rng(14)
        datasets = [from_arrays(rng.normal(size=(20, 4))) for _ in range(2)]
        pool = [random_tree(4, 2, 5, "grow", rng) for _ in range(6)]
        jobs = [(Individual(trees=tuple(pool[k] for k in rng.choice(6, size=3))), ds)
                for _ in range(200) for ds in datasets]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as executor:
                got = list(executor.map(lambda job: eval_individual(*job), jobs))
        finally:
            sys.setswitchinterval(interval)
        for (ind, ds), columns in zip(jobs, got):
            assert np.array_equal(columns, eval_individual(ind, ds.instances))


class TestRandomTree:
    def test_depth_one_full_is_operator_over_terminals(self):
        rng = np.random.default_rng(0)
        tree = random_tree(4, 1, 1, "full", rng)
        assert tree.op is not None
        assert all(c.op is None for c in tree.children)
        assert tree.depth == 1

    def test_full_puts_all_leaves_at_target(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            tree = random_tree(6, 3, 3, "full", rng)
            depths = []

            def walk(node, d):
                if node.op is None:
                    depths.append(d)
                for c in node.children:
                    walk(c, d + 1)

            walk(tree, 0)
            assert set(depths) == {3}

    def test_depth_bounds_hold_over_many_samples(self):
        rng = np.random.default_rng(11)
        for i in range(10_000):
            method = "grow" if i % 2 else "full"
            tree = random_tree(5, 2, 6, method, rng)
            assert 2 <= tree.depth <= 6

    def test_fixed_seed_reproduces(self):
        a = random_tree(7, 2, 6, "grow", np.random.default_rng(1234))
        b = random_tree(7, 2, 6, "grow", np.random.default_rng(1234))
        assert serialize(a) == serialize(b)

    def test_pinned_draws(self):
        # the operator table's order is part of every seeded run
        full = random_tree(13, 4, 4, "full", np.random.default_rng(92))
        assert serialize(full) == (
            "(max (min (sigmoid (add f6 f4)) (pdiv (pdiv f8 f0) (abs f11))) "
            "(mul (add (min f0 f6) (min f0 f0)) (mul (sub f4 f2) (relu f6))))"
        )
        grow = random_tree(13, 2, 5, "grow", np.random.default_rng(2024))
        assert serialize(grow) == "(abs (add f2 f4))"

    def test_feature_indices_in_range(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            tree = random_tree(3, 2, 5, "grow", rng)
            assert max_feature_index(tree) < 3

    def test_bad_args(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_tree(3, 0, 4, "grow", rng)
        with pytest.raises(ValueError):
            random_tree(3, 3, 2, "grow", rng)
        with pytest.raises(ValueError):
            random_tree(3, 2, 4, "bushy", rng)


class TestGrowSubtree:
    @pytest.mark.parametrize("depth_min, target",
                             [(lo, hi) for lo in range(4) for hi in range(lo, 6)])
    def test_depth_within_range(self, depth_min, target):
        for seed in range(30):
            tree = expr.grow_subtree(4, depth_min, target, np.random.default_rng(seed))
            assert depth_min <= tree.depth <= target
            assert max_feature_index(tree) < 4
            if target == 0:
                assert tree.op is None

    @pytest.mark.parametrize("depth_min, target", [(1, 0), (3, 2), (-1, 3)])
    def test_bad_depth_range_rejected(self, depth_min, target):
        with pytest.raises(ValueError, match="bad depth range"):
            expr.grow_subtree(4, depth_min, target, np.random.default_rng(0))


class TestSerialization:
    def test_canonical_form(self):
        assert serialize(parse("(sub (add f0 f1) f2)")) == "(sub (add f0 f1) f2)"

    def test_round_trip(self):
        text = "(mul f3 (relu f7))"
        assert serialize(parse(text)) == text

    def test_terminal_round_trip(self):
        assert serialize(parse("f12")) == "f12"

    def test_unknown_operator_reports_name_and_position(self):
        with pytest.raises(TreeParseError, match="'foo'") as err:
            parse("(foo f0)")
        assert err.value.position == 1

    def test_bad_terminal(self):
        with pytest.raises(TreeParseError, match="feature terminal"):
            parse("(add f0 g1)")

    def test_unbalanced(self):
        with pytest.raises(TreeParseError, match="missing '\\)'"):
            parse("(add f0 f1")
        with pytest.raises(TreeParseError, match="unexpected trailing"):
            parse("(add f0 f1) f2")
        with pytest.raises(TreeParseError, match="unexpected '\\)'"):
            parse(")")

    def test_missing_operand(self):
        with pytest.raises(TreeParseError, match="missing operand|expected '\\)'"):
            parse("(add f0)")

    def test_empty_input(self):
        with pytest.raises(TreeParseError, match="empty input"):
            parse("   ")

    def test_depth_bound(self):
        def chain(depth):
            return "(abs " * depth + "f0" + ")" * depth

        deepest = parse(chain(MAX_TREE_DEPTH))
        assert deepest.depth == MAX_TREE_DEPTH
        assert serialize(deepest) == chain(MAX_TREE_DEPTH)
        assert eval_tree(deepest, [-2.0]) == 2.0
        for depth in (MAX_TREE_DEPTH + 1, 1200):
            with pytest.raises(TreeParseError, match="deeper than") as err:
                parse(chain(depth))
            assert err.value.position == len("(abs ") * MAX_TREE_DEPTH

    @settings(max_examples=100, deadline=None)
    @given(random_trees())
    def test_parse_serialize_identity(self, tree):
        assert parse(serialize(tree)) == tree

    def test_to_dot_one_digraph_per_tree(self):
        ind = Individual(trees=(parse("(add f0 f1)"), parse("f2")))
        dot = to_dot(ind)
        assert dot.count("digraph") == 2
        assert 'label="add"' in dot
        assert 'label="f2"' in dot
        named = to_dot(ind, feature_names=("alpha", "beta", "gamma"))
        assert 'label="gamma"' in named

    def test_to_dot_text(self):
        # node ids are preorder positions; each node's edge precedes its label
        ind = Individual(trees=(parse("(sub (add f0 f1) (abs f2))"),))

        def text(a, b, c):
            return (
                "digraph tree0 {\n"
                '  n0 [label="sub"];\n'
                "  n0 -> n1;\n"
                '  n1 [label="add"];\n'
                "  n1 -> n2;\n"
                f'  n2 [label="{a}"];\n'
                "  n1 -> n3;\n"
                f'  n3 [label="{b}"];\n'
                "  n0 -> n4;\n"
                '  n4 [label="abs"];\n'
                "  n4 -> n5;\n"
                f'  n5 [label="{c}"];\n'
                "}\n"
            )

        assert to_dot(ind) == text("f0", "f1", "f2")
        assert to_dot(ind, ("alpha", "beta", "gamma")) == text("alpha", "beta", "gamma")
        # header cells are free text; DOT quoted strings escape quotes and backslashes
        assert to_dot(ind, ('a"b', "c\\d", "e")) == text('a\\"b', "c\\\\d", "e")


class TestSurgery:
    def test_get_subtree_preorder(self):
        tree = parse("(sub (add f0 f1) f2)")
        assert serialize(get_subtree(tree, 0)) == "(sub (add f0 f1) f2)"
        assert serialize(get_subtree(tree, 1)) == "(add f0 f1)"
        assert serialize(get_subtree(tree, 2)) == "f0"
        assert serialize(get_subtree(tree, 3)) == "f1"
        assert serialize(get_subtree(tree, 4)) == "f2"

    def test_replace_subtree(self):
        tree = parse("(sub (add f0 f1) f2)")
        out = replace_subtree(tree, 3, parse("(relu f9)"))
        assert serialize(out) == "(sub (add f0 (relu f9)) f2)"
        # original untouched
        assert serialize(tree) == "(sub (add f0 f1) f2)"

    def test_node_depth(self):
        tree = parse("(sub (add f0 f1) f2)")
        assert [node_depth(tree, i) for i in range(tree.size)] == [0, 1, 2, 2, 1]

    def test_out_of_range(self):
        tree = parse("(add f0 f1)")
        with pytest.raises(IndexError):
            get_subtree(tree, 3)
        with pytest.raises(IndexError):
            replace_subtree(tree, 5, parse("f0"))

    @given(random_trees(), random_trees())
    def test_preorder_walk(self, tree, replacement):
        preorder = []

        def walk(node, depth):
            preorder.append((node, depth))
            for child in node.children:
                walk(child, depth + 1)

        walk(tree, 0)
        assert len(preorder) == tree.size
        for i, (node, depth) in enumerate(preorder):
            assert get_subtree(tree, i) is node
            assert replace_subtree(tree, i, get_subtree(tree, i)) == tree
            assert get_subtree(replace_subtree(tree, i, replacement), i) == replacement
            assert node_depth(tree, i) == depth
        for surgery in (get_subtree, node_depth):
            with pytest.raises(IndexError):
                surgery(tree, tree.size)
        with pytest.raises(IndexError):
            replace_subtree(tree, tree.size, replacement)

    def test_size_and_depth_fields(self):
        tree = parse("(sub (add f0 f1) f2)")
        assert tree.size == 5
        assert tree.depth == 2
        assert parse("f0").size == 1
        assert parse("f0").depth == 0
