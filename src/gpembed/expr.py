"""Symbolic expression trees over dataset features.

A tree maps a feature vector to one scalar output (one embedding
dimension).  Trees are immutable after construction: variation operators
build new trees instead of mutating in place, so evaluation is pure and
safe to run concurrently.  A tree root's cache slots (see `Node`) only
ever hold what evaluation or serialization would compute again; threads
that race to fill one store equal values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

FLOAT_MAX = float(np.finfo(np.float64).max)
PDIV_EPS = 1e-6
# deepest tree (in edges) that `parse` accepts and a run may build; far above
# any search depth, and well inside the interpreter's frame limit for the
# recursive walks (some use two frames per level)
MAX_TREE_DEPTH = 200


class Operator(NamedTuple):
    arity: int
    kernel: Callable[..., np.ndarray]
    cost_class: str  # default `complexity.CostClass` value


# The function set, written once: config keys, cost defaults, the parser and
# evaluation all read it.  Its order is part of every seeded run, since
# random generation draws `OPERATORS[rng.integers(len(OPERATORS))]`.
OPERATOR_TABLE: dict[str, Operator] = {
    "add": Operator(2, np.add, "sum"),
    "sub": Operator(2, np.subtract, "sum"),
    "mul": Operator(2, np.multiply, "prod"),
    "pdiv": Operator(2, lambda a, b: np.where(np.abs(b) >= PDIV_EPS, np.divide(a, b), 1.0), "prod"),
    "max": Operator(2, np.maximum, "exp"),
    "min": Operator(2, np.minimum, "exp"),
    "abs": Operator(1, np.abs, "exp"),
    "relu": Operator(1, lambda a: np.maximum(a, 0.0), "exp"),
    "sigmoid": Operator(1, lambda a: 1.0 / (1.0 + np.exp(-a)), "exp"),
}
OPERATORS: tuple[str, ...] = tuple(OPERATOR_TABLE)

_TOKEN_RE = re.compile(r"[()]|[^\s()]+")
_FEATURE_RE = re.compile(r"^f(\d+)$")


class TreeParseError(ValueError):
    """Malformed s-expression; `position` is the char offset of the bad token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Node:
    """A tree node: either an operator with children or a feature terminal.

    `size` (node count) and `depth` (edge count to the deepest leaf) are
    computed once at construction; a lone terminal has size 1 and depth 0.

    Three cache slots, each filled by `memoized`, keep what a tree root was
    last computed to: `column_memo` is ``(dataset, column)`` from
    `eval_individual` and `complexity_memo` is ``(cost_model, value)`` from
    `complexity.individual_complexity`, so that an offspring re-scores only
    the trees it does not share with its parent, and `text_memo` is
    ``(None, text)`` from `serialize`.  Each is reused only for the very
    owner it names; holding that reference keeps the owner's identity from
    being recycled.  None takes part in equality.
    """

    __slots__ = ("op", "feature", "children", "size", "depth",
                 "column_memo", "complexity_memo", "text_memo")

    def __init__(self, op: str | None, feature: int, children: tuple["Node", ...]):
        self.op = op
        self.feature = feature
        self.children = children
        self.column_memo = None
        self.complexity_memo = None
        self.text_memo = None
        if op is None:
            self.size = 1
            self.depth = 0
        else:
            self.size = 1 + sum(c.size for c in children)
            self.depth = 1 + max(c.depth for c in children)

    @staticmethod
    def leaf(feature: int) -> "Node":
        if feature < 0:
            raise ValueError(f"feature index must be >= 0, got {feature}")
        return Node(None, feature, ())

    @staticmethod
    def call(op: str, *children: "Node") -> "Node":
        if op not in OPERATOR_TABLE:
            raise ValueError(f"unknown operator {op!r}")
        arity = OPERATOR_TABLE[op].arity
        if len(children) != arity:
            raise ValueError(f"{op} takes {arity} children, got {len(children)}")
        return Node(op, -1, children)

    def __repr__(self) -> str:
        return f"Node({serialize(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (
            self.op == other.op
            and self.feature == other.feature
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.op, self.feature, self.children))


@dataclass
class Individual:
    """A genotype: an ordered collection of trees, one embedding dimension per
    tree, and nothing else; its scores live in `evolution.FrontEntry`."""

    trees: tuple[Node, ...]

    @property
    def n_nodes(self) -> int:
        return sum(t.size for t in self.trees)

    def serialized(self) -> tuple[str, ...]:
        return tuple(serialize(t) for t in self.trees)


# ---------------------------------------------------------------------------
# evaluation

def _eval(node: Node, X: np.ndarray) -> np.ndarray:
    if node.op is None:
        return X[:, node.feature]
    kernel = OPERATOR_TABLE[node.op].kernel
    a = _eval(node.children[0], X)
    if len(node.children) == 1:
        out = kernel(a)
    else:
        out = kernel(a, _eval(node.children[1], X))
    # saturate overflow so downstream ranks stay well-defined; every kernel
    # returns a new array, and this is np.clip's arithmetic without its wrapper
    np.maximum(out, -FLOAT_MAX, out=out)
    return np.minimum(out, FLOAT_MAX, out=out)


def eval_tree_matrix(tree: Node, instances: np.ndarray) -> np.ndarray:
    """Evaluate one tree on every row of an (n, m) matrix; returns shape (n,)."""
    X = np.asarray(instances, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _eval(tree, X)


def eval_tree(tree: Node, instance) -> float:
    """Evaluate one tree on a single feature vector."""
    row = np.asarray(instance, dtype=np.float64).reshape(1, -1)
    return float(eval_tree_matrix(tree, row)[0])


def eval_individual(ind: Individual, data) -> np.ndarray:
    """Embedding matrix (n x n_trees); accepts a Dataset or an instance matrix.

    On a Dataset each tree's column is kept in its `column_memo` and reused
    while the tree is scored on that same dataset; a plain matrix bypasses it.
    """
    if not hasattr(data, "instances"):
        X = np.asarray(data, dtype=np.float64)
        return np.column_stack([eval_tree_matrix(t, X) for t in ind.trees])
    X = data.instances
    return np.column_stack(
        [memoized(t, "column_memo", data, lambda: eval_tree_matrix(t, X)) for t in ind.trees])


def memoized(tree: Node, slot: str, owner, compute: Callable[[], object]):
    """``compute()``, kept in `tree`'s cache `slot` as ``(owner, value)`` and
    reused only while it is asked for with that very `owner` (see `Node`)."""
    memo = getattr(tree, slot)
    if memo is None or memo[0] is not owner:
        setattr(tree, slot, memo := (owner, compute()))
    return memo[1]


def max_feature_index(tree: Node) -> int:
    if tree.op is None:
        return tree.feature
    return max(max_feature_index(c) for c in tree.children)


# ---------------------------------------------------------------------------
# random generation

def random_tree(
    n_features: int,
    depth_min: int,
    depth_max: int,
    method: str,
    rng: np.random.Generator,
) -> Node:
    """Generate a random tree with depth in [depth_min, depth_max].

    `full` places every leaf at exactly the sampled target depth; `grow`
    stops early below the target, picking a terminal with probability equal
    to the terminal set's share of the combined primitive set, but never
    above depth_min so the bound still holds.
    """
    if not 1 <= depth_min <= depth_max:
        raise ValueError(f"bad depth range [{depth_min}, {depth_max}]")
    if method not in ("grow", "full"):
        raise ValueError(f"method must be 'grow' or 'full', got {method!r}")
    target = int(rng.integers(depth_min, depth_max + 1))
    return _generate(0, target, depth_min, method, n_features, rng)


def grow_subtree(
    n_features: int,
    depth_min: int,
    target: int,
    rng: np.random.Generator,
) -> Node:
    """Grow-method subtree of depth in [depth_min, target]; depth 0 allowed."""
    if not 0 <= depth_min <= target:
        raise ValueError(f"bad depth range [{depth_min}, {target}]")
    return _generate(0, target, depth_min, "grow", n_features, rng)


def _generate(depth, target, depth_min, method, n_features, rng) -> Node:
    if depth == target:
        return Node.leaf(int(rng.integers(n_features)))
    if method == "grow" and depth >= depth_min:
        share = n_features / (n_features + len(OPERATORS))
        if rng.random() < share:
            return Node.leaf(int(rng.integers(n_features)))
    op = OPERATORS[int(rng.integers(len(OPERATORS)))]
    children = tuple(
        _generate(depth + 1, target, depth_min, method, n_features, rng)
        for _ in range(OPERATOR_TABLE[op].arity)
    )
    return Node(op, -1, children)


# ---------------------------------------------------------------------------
# structural surgery (preorder indexing)

def _path(tree: Node, index: int) -> tuple[list[tuple[Node, int]], Node]:
    """The (ancestor, child slot) steps from the root down to the node at
    preorder position `index` (root is 0), and that node."""
    if not 0 <= index < tree.size:
        raise IndexError(f"node index {index} out of range for tree of size {tree.size}")
    steps = []
    node = tree
    while index:
        index -= 1  # step past `node` itself
        slot = 0
        while index >= node.children[slot].size:
            index -= node.children[slot].size
            slot += 1
        steps.append((node, slot))
        node = node.children[slot]
    return steps, node


def get_subtree(tree: Node, index: int) -> Node:
    """Subtree rooted at preorder position `index` (root is 0)."""
    return _path(tree, index)[1]


def replace_subtree(tree: Node, index: int, replacement: Node) -> Node:
    """New tree with the subtree at preorder position `index` replaced."""
    for parent, slot in reversed(_path(tree, index)[0]):
        children = parent.children
        replacement = Node(parent.op, parent.feature,
                           children[:slot] + (replacement,) + children[slot + 1:])
    return replacement


def node_depth(tree: Node, index: int) -> int:
    """Depth (edges from the root) of the node at preorder position `index`."""
    return len(_path(tree, index)[0])


# ---------------------------------------------------------------------------
# serialization

def serialize(tree: Node) -> str:
    """Canonical s-expression, e.g. ``(sub (add f0 f1) f2)``; kept in the
    tree's `text_memo`, and its subtrees keep none."""
    return memoized(tree, "text_memo", None, lambda: _sexpr(tree))


def _sexpr(tree: Node) -> str:
    if tree.op is None:
        return f"f{tree.feature}"
    return "(" + " ".join([tree.op] + [_sexpr(c) for c in tree.children]) + ")"


def parse(text: str) -> Node:
    """Parse a single s-expression; raises TreeParseError on the first bad token,
    including an operator nested deeper than MAX_TREE_DEPTH allows."""
    tokens = [(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
    if not tokens:
        raise TreeParseError("empty input", 0)
    tree, end = _parse_tokens(tokens, 0, 0)
    if end < len(tokens):
        tok, pos = tokens[end]
        raise TreeParseError(f"unexpected trailing token {tok!r}", pos)
    return tree


def _parse_tokens(tokens, i: int, depth: int):
    """Parse the subtree that starts at tokens[i], `depth` edges below the root;
    returns it and the index of the token after it."""
    tok, pos = tokens[i]
    if tok == ")":
        raise TreeParseError("unexpected ')'", pos)
    if tok != "(":
        m = _FEATURE_RE.match(tok)
        if m is None:
            raise TreeParseError(f"expected a feature terminal, got {tok!r}", pos)
        return Node.leaf(int(m.group(1))), i + 1
    if depth >= MAX_TREE_DEPTH:
        raise TreeParseError(f"tree deeper than {MAX_TREE_DEPTH} levels", pos)
    if i + 1 == len(tokens):
        raise TreeParseError("unexpected end of input after '('", pos)
    op, op_pos = tokens[i + 1]
    if op not in OPERATOR_TABLE:
        raise TreeParseError(f"unknown operator {op!r}", op_pos)
    i += 2
    children = []
    for _ in range(OPERATOR_TABLE[op].arity):
        if i == len(tokens):
            raise TreeParseError(f"missing operand for {op!r}", op_pos)
        child, i = _parse_tokens(tokens, i, depth + 1)
        children.append(child)
    if i == len(tokens):
        raise TreeParseError(f"missing ')' for {op!r}", op_pos)
    close, close_pos = tokens[i]
    if close != ")":
        raise TreeParseError(f"expected ')', got {close!r}", close_pos)
    return Node(op, -1, tuple(children)), i + 1


def to_dot(ind: Individual, feature_names=None) -> str:
    """DOT text with one digraph per tree; labels are operator or feature names."""
    graphs = []
    for t, tree in enumerate(ind.trees):
        lines = [f"digraph tree{t} {{"]
        stack = [(tree, None)]  # (node, its parent's id); a node's id is its preorder position
        my_id = -1
        while stack:
            node, parent = stack.pop()
            my_id += 1
            if parent is not None:
                lines.append(f"  n{parent} -> n{my_id};")
            if node.op is not None:
                label = node.op
            elif feature_names is None:
                label = f"f{node.feature}"
            else:  # header text; escape it for a DOT quoted string
                label = feature_names[node.feature].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  n{my_id} [label="{label}"];')
            stack.extend((child, my_id) for child in reversed(node.children))
        lines.append("}")
        graphs.append("\n".join(lines))
    return "\n".join(graphs) + "\n"
