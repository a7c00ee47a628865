"""Structural complexity of expression trees.

Every internal node contributes a cost that depends on the sizes of its
child subtrees and on how unbalanced they are:

* sum-class operators cost ``L + R``,
* prod-class operators cost ``max(L * R, L, R)``,
* exp-class operators cost ``2 ** (L + R)``,

where ``L`` and ``R`` are the child subtree sizes (leaves weigh
``leaf_complexity``, internal nodes weigh 1; a unary operator's right side
is empty, size 0).  Each node also pays an asymmetry penalty
``2 ** |size_left - size_right| - 1`` on raw node counts, so balanced trees
are penalty-free.  The per-node contributions are summed over the whole
tree and multiplied by a step scaling term that kicks in once the tree
exceeds a fraction ``mu`` of ``size_max`` nodes.  Exponents are capped at
2**64 so pathological trees stay finite and comparable.

A simpler legacy metric (`baseline_complexity`) is kept for comparison
reports: by default cost class, variables cost 2, sum operators sum their
children, prod operators multiply them plus one, and exp operators cost 2
to the power of their first child's value.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

from .expr import FLOAT_MAX, OPERATOR_TABLE, Individual, Node, memoized

EXP_CAP_BITS = 64.0
_BASELINE_EXP_LIMIT = 1023.0


class CostClass(Enum):
    SUM = "sum"
    PROD = "prod"
    EXP = "exp"

    @staticmethod
    def from_string(text: str) -> "CostClass":
        try:
            return CostClass(text.lower())
        except ValueError:
            raise ValueError(
                f"unknown cost class {text!r}; expected one of sum, prod, exp"
            ) from None


DEFAULT_OPERATOR_COSTS: dict[str, CostClass] = {
    name: CostClass(op.cost_class) for name, op in OPERATOR_TABLE.items()
}


@dataclass(frozen=True)
class CostModel:
    """Operator cost classes, held read-only, plus the scaling and leaf parameters."""

    operator_costs: Mapping[str, CostClass] = field(default_factory=lambda: DEFAULT_OPERATOR_COSTS)
    mu: float = 0.75
    size_max: int = 100
    leaf_complexity: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.mu <= 1.0:
            raise ValueError(f"mu must be in (0, 1], got {self.mu}")
        if self.size_max < 1:
            raise ValueError(f"size_max must be >= 1, got {self.size_max}")
        if not 0.0 < self.leaf_complexity <= FLOAT_MAX:
            raise ValueError(f"leaf_complexity must be > 0 and finite, got {self.leaf_complexity}")
        if self.leaf_complexity > 2.0 ** EXP_CAP_BITS:  # so that no sum or product overflows
            raise ValueError(f"leaf_complexity must be at most 2**64, got {self.leaf_complexity}")
        for op, cls in self.operator_costs.items():
            if op not in OPERATOR_TABLE:
                raise ValueError(f"cost assigned to unknown operator {op!r}")
            if not isinstance(cls, CostClass):
                raise ValueError(f"cost for {op!r} must be a CostClass, got {cls!r}")
        missing = [op for op in OPERATOR_TABLE if op not in self.operator_costs]
        if missing:
            raise ValueError(f"cost model has no cost class for {', '.join(missing)}")
        object.__setattr__(self, "operator_costs", MappingProxyType(dict(self.operator_costs)))

    def __reduce__(self):  # copied and pickled from a dict, as a mappingproxy is neither
        return CostModel, (dict(self.operator_costs), self.mu, self.size_max, self.leaf_complexity)


DEFAULT_COST_MODEL = CostModel()


@dataclass(frozen=True)
class NodeContribution:
    op: str
    formula_value: float
    asymmetry: float


@dataclass(frozen=True)
class TreeComplexity:
    """Per-tree breakdown: F(T) = scaling * sum of node contributions."""

    value: float
    scaling: float
    contributions: tuple[NodeContribution, ...]


def asymmetry_penalty(size_left: int, size_right: int) -> float:
    """2^|size_left - size_right| - 1; zero iff the subtrees have equal size."""
    if size_left < 0 or size_right < 0:
        raise ValueError("subtree sizes must be non-negative")
    delta = abs(size_left - size_right)
    return 2.0 ** min(float(delta), EXP_CAP_BITS) - 1.0


def scaling_term(t: int, size_max: int, mu: float) -> float:
    """1 while t/size_max <= mu, otherwise 2 * t/size_max."""
    if t < 1 or size_max < 1:
        raise ValueError("tree size and size_max must be >= 1")
    alpha = t / size_max
    return 1.0 if alpha <= mu else 2.0 * alpha


def _collect(node: Node, model: CostModel, out: list[NodeContribution]) -> float:
    """Append the contributions of `node`'s subtree in post-order and return
    its weighted size (leaves weigh leaf_complexity, internal nodes 1)."""
    if node.op is None:
        return model.leaf_complexity
    sizes = [_collect(child, model, out) for child in node.children]
    cost_class = model.operator_costs[node.op]
    L = sizes[0]
    size_left = node.children[0].size
    if len(node.children) == 2:
        R = sizes[1]
        size_right = node.children[1].size
    else:
        R = 0.0
        size_right = 0
    if cost_class is CostClass.SUM:
        value = L + R
    elif cost_class is CostClass.PROD:
        value = max(L * R, L, R)
    else:
        value = 2.0 ** min(L + R, EXP_CAP_BITS)
    out.append(NodeContribution(node.op, value, asymmetry_penalty(size_left, size_right)))
    return 1.0 + sum(sizes)


def tree_complexity(tree: Node, model: CostModel = DEFAULT_COST_MODEL) -> TreeComplexity:
    """F(T) for one tree, with the per-node breakdown."""
    contributions: list[NodeContribution] = []
    _collect(tree, model, contributions)
    scaling = scaling_term(tree.size, model.size_max, model.mu)
    raw = sum(c.formula_value + c.asymmetry for c in contributions)
    if tree.op is None:
        raw = model.leaf_complexity  # a bare terminal still has positive cost
    return TreeComplexity(value=scaling * raw, scaling=scaling, contributions=tuple(contributions))


def individual_complexity(ind: Individual, model: CostModel = DEFAULT_COST_MODEL) -> float:
    """Sum of F(T) over the individual's trees, left to right.

    Each tree keeps its F(T) and reuses it while scored with that same model
    (`expr.memoized`).
    """
    return sum(memoized(t, "complexity_memo", model, lambda: tree_complexity(t, model).value)
               for t in ind.trees)


def baseline_complexity(tree: Node) -> float:
    """Legacy recursive metric used for side-by-side comparison.

    Saturates instead of overflowing on deeply nested non-arithmetic chains.
    """
    if tree.op is None:
        return 2.0
    children = [baseline_complexity(c) for c in tree.children]
    cost_class = DEFAULT_OPERATOR_COSTS[tree.op]
    if cost_class is CostClass.SUM:
        return sum(children)
    if cost_class is CostClass.PROD:
        prod = 1.0
        for c in children:
            prod = min(prod * c, FLOAT_MAX)
        return min(prod + 1.0, FLOAT_MAX)
    exponent = children[0]
    if exponent > _BASELINE_EXP_LIMIT:
        return FLOAT_MAX
    return 2.0**exponent
