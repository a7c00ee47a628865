import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpembed import complexity
from gpembed.complexity import (
    CostClass,
    CostModel,
    DEFAULT_COST_MODEL,
    asymmetry_penalty,
    baseline_complexity,
    individual_complexity,
    scaling_term,
    tree_complexity,
)
from gpembed.expr import Individual, Node, parse, random_tree, serialize
from oracles import brute_tree_complexity

# Hand-written corpus: every operator, unary chains, unbalanced shapes, and
# a comb long enough to trip the size scaling. Expected values (where frozen)
# were computed with the independent recursive evaluator in oracles.py.
HAND_WRITTEN_TREES = [
    "f0",
    "(add f0 f1)",
    "(sub f0 f1)",
    "(mul f0 f1)",
    "(pdiv f0 f1)",
    "(max f0 f1)",
    "(min f0 f1)",
    "(abs f0)",
    "(relu f0)",
    "(sigmoid f0)",
    "(mul (add f0 f1) f2)",
    "(sub (add f0 f1) f2)",
    "(abs (add f0 f1))",
    "(mul (mul f0 f1) (mul f2 f3))",
    "(add (add f0 f1) (add f2 f3))",
    "(sigmoid (sigmoid (sigmoid f0)))",
    "(max (min f0 f1) (abs f2))",
    "(pdiv (sub f0 f1) (add f2 (mul f3 f4)))",
    "(add f0 (add f1 (add f2 (add f3 f4))))",
    "(relu (mul (add f0 f1) (sub f2 f3)))",
    "(min (sigmoid (add f0 f1)) f2)",
    "(sub (mul (mul f0 f0) f1) (pdiv f2 (abs f3)))",
    "(add (sigmoid f0) (sigmoid (add f1 (mul f2 f3))))",
    "(mul (sub (add f0 f1) (add f2 f3)) (max f4 (relu f5)))",
]
# a right comb of 40 adds (81 nodes) activates the scaling term at defaults
_comb = "f0"
for _k in range(40):
    _comb = f"(add f{_k % 6} {_comb})"
HAND_WRITTEN_TREES.append(_comb)


class TestAsymmetryPenalty:
    def test_equal_sizes_are_free(self):
        assert asymmetry_penalty(3, 3) == 0.0

    def test_unbalanced(self):
        assert asymmetry_penalty(4, 1) == 7.0

    def test_unary_convention(self):
        assert asymmetry_penalty(1, 0) == 1.0

    def test_caps_instead_of_overflowing(self):
        assert asymmetry_penalty(100_000, 0) == 2.0**64 - 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            asymmetry_penalty(-1, 0)

    @given(st.integers(0, 500), st.integers(0, 500))
    def test_symmetric_and_nonnegative(self, a, b):
        assert asymmetry_penalty(a, b) == asymmetry_penalty(b, a)
        assert asymmetry_penalty(a, b) >= 0.0
        assert (asymmetry_penalty(a, b) == 0.0) == (a == b)


class TestScalingTerm:
    def test_below_threshold(self):
        assert scaling_term(30, 100, 0.75) == 1.0

    def test_above_threshold(self):
        assert scaling_term(90, 100, 0.75) == pytest.approx(1.8)

    def test_boundary_goes_to_lower_branch(self):
        assert scaling_term(50, 100, 0.5) == 1.0

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            scaling_term(0, 100, 0.5)


class TestTreeComplexity:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("(add f0 f1)", 2.0),
            ("(sigmoid f0)", 3.0),
            ("(mul (add f0 f1) f2)", 8.0),
            ("(sub (add f0 f1) f2)", 9.0),
            ("(max f0 f1)", 4.0),
            ("(relu f0)", 3.0),
            ("(abs (add f0 f1))", 17.0),
            ("(pdiv f0 f1)", 1.0),
            ("(mul (mul f0 f1) (mul f2 f3))", 11.0),
            ("f0", 1.0),
        ],
    )
    def test_frozen_values(self, text, expected):
        assert tree_complexity(parse(text)).value == expected

    def test_matches_independent_evaluator_on_corpus(self):
        for text in HAND_WRITTEN_TREES:
            tree = parse(text)
            got = tree_complexity(tree).value
            want = brute_tree_complexity(tree, DEFAULT_COST_MODEL)
            if want == int(want):
                assert got == want, text
            else:
                assert got == pytest.approx(want, rel=1e-9), text

    def test_matches_independent_evaluator_on_random_trees(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            tree = random_tree(6, 2, 6, "grow", rng)
            got = tree_complexity(tree).value
            want = brute_tree_complexity(tree, DEFAULT_COST_MODEL)
            assert got == pytest.approx(want, rel=1e-9), serialize(tree)

    def test_scaling_activates_on_large_trees(self):
        tree = parse(HAND_WRITTEN_TREES[-1])
        assert tree.size == 81
        report = tree_complexity(tree)
        assert report.scaling == pytest.approx(2 * 81 / 100)

    def test_report_fields(self):
        report = tree_complexity(parse("(mul (add f0 f1) f2)"))
        assert report.scaling == 1.0
        assert [c.asymmetry for c in report.contributions] == [0.0, 3.0]
        by_op = {c.op: c for c in report.contributions}
        assert by_op["add"].formula_value == 2.0
        assert by_op["mul"].formula_value == 3.0

    def test_unassigned_operator_errors(self):
        with pytest.raises(ValueError, match="sigmoid"):
            CostModel(operator_costs={"add": CostClass.SUM})

    def test_leaf_complexity_parameter(self):
        model = CostModel(leaf_complexity=2.0)
        # (add f0 f1): L = R = 2 -> 4, asymmetry on node counts still 0
        assert tree_complexity(parse("(add f0 f1)"), model).value == 4.0

    def test_mirror_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            tree = random_tree(5, 2, 5, "grow", rng)
            mirrored = _mirror_random(tree, rng)
            assert tree_complexity(tree).value == tree_complexity(mirrored).value

    def test_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            tree = random_tree(4, 2, 6, "grow", rng)
            assert tree_complexity(tree).value > 0.0

    def test_parent_exceeds_proper_subtree(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            tree = random_tree(4, 2, 5, "grow", rng)
            if tree.size > int(DEFAULT_COST_MODEL.mu * DEFAULT_COST_MODEL.size_max):
                continue
            for child in tree.children:
                assert tree_complexity(tree).value > tree_complexity(child).value

    def test_size_independent_while_below_mu(self):
        tree = parse("(mul (add f0 f1) f2)")
        small = CostModel(size_max=50)
        large = CostModel(size_max=100_000)
        assert tree_complexity(tree, small).value == tree_complexity(tree, large).value

    def test_exp_cap_keeps_deep_trees_finite(self):
        text = "f0"
        for _ in range(30):
            text = f"(sigmoid {text})"
        value = tree_complexity(parse(text)).value
        assert np.isfinite(value)


def _mirror_random(node: Node, rng) -> Node:
    if node.op is None:
        return node
    children = tuple(_mirror_random(c, rng) for c in node.children)
    if len(children) == 2 and rng.random() < 0.5:
        children = (children[1], children[0])
    return Node(node.op, node.feature, children)


class TestIndividualComplexity:
    def test_sum_of_trees(self):
        ind = Individual(trees=(parse("(add f0 f1)"), parse("(add f0 f1)")))
        assert individual_complexity(ind) == 4.0

    def test_additivity_ratio(self):
        one = Individual(trees=(parse("(sigmoid (add f0 f1))"),))
        two = Individual(trees=(parse("(sigmoid (add f0 f1))"),) * 2)
        assert individual_complexity(two) == 2 * individual_complexity(one)

    def test_adding_a_tree_strictly_increases(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            trees = tuple(random_tree(4, 2, 4, "grow", rng) for _ in range(2))
            bigger = trees + (random_tree(4, 2, 4, "grow", rng),)
            assert individual_complexity(Individual(trees=bigger)) > individual_complexity(
                Individual(trees=trees)
            )

    def test_two_cost_models_give_two_values(self):
        tree = parse("(mul (add f0 f1) f2)")
        ind = Individual(trees=(tree, parse("(sigmoid f0)")))
        as_sum = CostModel(operator_costs={**DEFAULT_COST_MODEL.operator_costs,
                                           "mul": CostClass.SUM})
        for model in (DEFAULT_COST_MODEL, as_sum, DEFAULT_COST_MODEL):
            want = sum(tree_complexity(t, model).value for t in ind.trees)
            assert individual_complexity(ind, model) == want
        assert individual_complexity(ind, as_sum) != individual_complexity(ind)

    def test_shared_tree_is_scored_once_per_model(self, monkeypatch):
        calls = []
        real = complexity.tree_complexity
        monkeypatch.setattr(complexity, "tree_complexity",
                            lambda t, m: calls.append(t) or real(t, m))
        shared = parse("(add f0 (abs f1))")
        first = Individual(trees=(shared, parse("f2")))
        second = Individual(trees=(parse("(relu f0)"), shared))
        individual_complexity(first)
        individual_complexity(second)
        assert sum(t is shared for t in calls) == 1 and len(calls) == 3

    def test_report_totals(self):
        ind = Individual(trees=(parse("(add f0 f1)"), parse("(sigmoid f0)")))
        assert individual_complexity(ind) == 5.0
        assert [tree_complexity(t).value for t in ind.trees] == [2.0, 3.0]


class TestBaseline:
    def test_variable(self):
        assert baseline_complexity(parse("f0")) == 2.0

    def test_sum_rule(self):
        assert baseline_complexity(parse("(add f0 f1)")) == 4.0

    def test_product_rule(self):
        # 2 * 2 + 1
        assert baseline_complexity(parse("(mul f0 f1)")) == 5.0

    def test_exponential_rule(self):
        assert baseline_complexity(parse("(sigmoid f0)")) == 4.0

    def test_binary_special_uses_first_child(self):
        # max -> 2 ** baseline(f0) = 4 regardless of the second child
        assert baseline_complexity(parse("(max f0 (add f1 f2))")) == 4.0

    def test_nested(self):
        # relu(add(f0,f1)) -> 2 ** 4 = 16
        assert baseline_complexity(parse("(relu (add f0 f1))")) == 16.0

    def test_deep_chain_saturates(self):
        text = "f0"
        for _ in range(10):
            text = f"(sigmoid {text})"
        assert baseline_complexity(parse(text)) == pytest.approx(1.7976931348623157e308)


class TestCostModel:
    def test_defaults_match_published_cost_set(self):
        costs = DEFAULT_COST_MODEL.operator_costs
        assert costs["add"] is CostClass.SUM
        assert costs["sub"] is CostClass.SUM
        assert costs["mul"] is CostClass.PROD
        assert costs["pdiv"] is CostClass.PROD
        for op in ("relu", "sigmoid", "max", "min", "abs"):
            assert costs[op] is CostClass.EXP

    def test_with_overrides(self):
        model = CostModel(operator_costs={**DEFAULT_COST_MODEL.operator_costs,
                                          "mul": CostClass.SUM})
        assert model.operator_costs["mul"] is CostClass.SUM
        assert DEFAULT_COST_MODEL.operator_costs["mul"] is CostClass.PROD

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(mu=0.0)
        with pytest.raises(ValueError):
            CostModel(mu=1.5)
        with pytest.raises(ValueError):
            CostModel(size_max=0)
        for leaf in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                CostModel(leaf_complexity=leaf)
        with pytest.raises(ValueError):
            CostModel(operator_costs={"frobnicate": CostClass.SUM})

    def test_from_string(self):
        assert CostClass.from_string("Exp") is CostClass.EXP
        with pytest.raises(ValueError, match="unknown cost class"):
            CostClass.from_string("quadratic")
