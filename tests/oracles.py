"""Independent brute-force implementations used as test oracles.

Everything here is deliberately written with plain Python loops and a
different structure from the library code so that agreement between the
two is meaningful.
"""
from __future__ import annotations

import math

from gpembed.complexity import CostClass, CostModel
from gpembed.expr import Individual, Node

FLOAT_MAX = 1.7976931348623157e308


def brute_neighbour_order(points) -> list[list[int]]:
    """Sort every other point by (Euclidean distance, index), per point."""
    pts = [list(map(float, row)) for row in points]
    n = len(pts)
    out = []
    for i in range(n):
        dists = []
        for j in range(n):
            if j == i:
                continue
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(pts[i], pts[j])))
            dists.append((d, j))
        dists.sort()
        out.append([j for _, j in dists])
    return out


def brute_eval(node: Node, row) -> float:
    """Recursive scalar interpreter with the same saturation rules."""
    def clamp(x: float) -> float:
        if x > FLOAT_MAX:
            return FLOAT_MAX
        if x < -FLOAT_MAX:
            return -FLOAT_MAX
        return x

    if node.op is None:
        return float(row[node.feature])
    a = brute_eval(node.children[0], row)
    if node.op == "abs":
        return clamp(abs(a))
    if node.op == "relu":
        return clamp(max(a, 0.0))
    if node.op == "sigmoid":
        try:
            e = math.exp(-a)
        except OverflowError:
            e = float("inf")
        return clamp(1.0 / (1.0 + e))
    b = brute_eval(node.children[1], row)
    if node.op == "add":
        return clamp(a + b)
    if node.op == "sub":
        return clamp(a - b)
    if node.op == "mul":
        return clamp(a * b)
    if node.op == "pdiv":
        return clamp(a / b) if abs(b) >= 1e-6 else 1.0
    if node.op == "max":
        return clamp(max(a, b))
    if node.op == "min":
        return clamp(min(a, b))
    raise AssertionError(node.op)


def brute_tree_complexity(node: Node, model: CostModel) -> float:
    """Iterative re-implementation of the structural complexity metric."""

    def node_count(t: Node) -> int:
        total = 0
        stack = [t]
        while stack:
            cur = stack.pop()
            total += 1
            stack.extend(cur.children)
        return total

    def weighted(t: Node) -> float:
        if t.op is None:
            return model.leaf_complexity
        return 1.0 + sum(weighted(c) for c in t.children)

    if node.op is None:
        raw = model.leaf_complexity
    else:
        raw = 0.0
        stack = [node]
        while stack:
            cur = stack.pop()
            if cur.op is None:
                continue
            stack.extend(cur.children)
            left = cur.children[0]
            L, sL = weighted(left), node_count(left)
            if len(cur.children) == 2:
                right = cur.children[1]
                R, sR = weighted(right), node_count(right)
            else:
                R, sR = 0.0, 0
            cls = model.operator_costs[cur.op]
            if cls is CostClass.SUM:
                val = L + R
            elif cls is CostClass.PROD:
                val = max(L * R, L, R)
            else:
                val = 2.0 ** min(L + R, 64.0)
            raw += val + (2.0 ** min(abs(sL - sR), 64) - 1.0)
    t = node_count(node)
    alpha = t / model.size_max
    scale = 1.0 if alpha <= model.mu else 2.0 * alpha
    return scale * raw


def brute_fractional_ranks(values) -> list[float]:
    """Average ranks with ties, via explicit grouping of sorted positions."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0  # positions are 0-based
        for p in range(i, j + 1):
            ranks[order[p]] = avg
        i = j + 1
    return ranks


def brute_pearson(a, b) -> float:
    n = len(a)
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    num = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
    var_a = sum((x - mean_a) ** 2 for x in a)
    var_b = sum((y - mean_b) ** 2 for y in b)
    if var_a == 0.0 or var_b == 0.0:
        return 0.0
    return num / math.sqrt(var_a * var_b)


def brute_spearman(raw_a, raw_b) -> float:
    return brute_pearson(brute_fractional_ranks(raw_a), brute_fractional_ranks(raw_b))


def brute_embedding_cost(embedding, neighbour_order) -> float:
    """Recompute the neighbourhood cost entirely from scratch."""
    emb = [list(map(float, row)) for row in embedding]
    total = 0.0
    for i, neighbours in enumerate(neighbour_order):
        dists = []
        for j in neighbours:
            dists.append(sum((a - b) ** 2 for a, b in zip(emb[i], emb[int(j)])))
        ranks = brute_fractional_ranks(dists)
        ident = [float(r) for r in range(1, len(ranks) + 1)]
        if len(ranks) < 2:
            rho = 0.0
        else:
            rho = brute_pearson(ranks, ident)
        total += (1.0 - rho) / 2.0
    return total / len(neighbour_order)


def brute_census(ind: Individual, model: CostModel):
    """Count nodes per cost class by scanning serialized trees token by token."""
    from gpembed.expr import serialize

    counts = {"exp": 0, "prod": 0, "sum": 0, "leaf": 0}
    features = set()
    for tree in ind.trees:
        for token in serialize(tree).replace("(", " ").replace(")", " ").split():
            if token.startswith("f") and token[1:].isdigit():
                counts["leaf"] += 1
                features.add(int(token[1:]))
            else:
                counts[model.operator_costs[token].value] += 1
    total = sum(counts.values())
    return total, counts["exp"], counts["prod"], counts["sum"], counts["leaf"], len(features)
