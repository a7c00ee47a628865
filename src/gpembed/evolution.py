"""Decomposition-based multi-objective evolution of multi-tree individuals.

The population is attached to evenly spaced weight vectors, one scalarised
subproblem each.  Every generation each subproblem breeds one offspring
from parents drawn from its neighbourhood, offspring are evaluated on the
two objectives (neighbourhood cost, structural complexity), and each
offspring may replace up to two neighbouring incumbents whose Tchebycheff
value it improves.  An external archive keeps every non-dominated
individual seen across the whole run.

Determinism: variation, replacement, and archive updates run sequentially
in subproblem order; only the (pure) objective evaluations are fanned out
across threads, so any thread count reproduces the single-threaded run
bit for bit.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import complexity, manifold_cost
from .dataset import Dataset
from .expr import (
    MAX_TREE_DEPTH,
    Individual,
    get_subtree,
    grow_subtree,
    node_depth,
    random_tree,
    replace_subtree,
)

# labelled sub-streams of the run seed; adding a label never perturbs the others
LABEL_INIT = 1
LABEL_VARY = 2
LABEL_FOLDS = 3


def derive_rng(seed: int, label: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, label)))


@dataclass
class EvolutionConfig:
    generations: int = 1000
    population_size: int = 100
    p_crossover: float = 0.70
    p_standard_mutation: float = 0.15
    p_tree_mutation: float = 0.15
    min_depth: int = 2
    max_depth: int = 14
    init_depth_cap: int = 6
    max_trees: int | None = None  # None: max(2, m // 2) for the dataset at hand
    moead_neighbourhood: int = 15
    seed: int = 0
    threads: int = 1

    def validate(self) -> None:
        p_total = self.p_crossover + self.p_standard_mutation + self.p_tree_mutation
        if abs(p_total - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1")
        for name in ("p_crossover", "p_standard_mutation", "p_tree_mutation"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.population_size < 4:
            raise ValueError("population_size must be >= 4")
        if self.moead_neighbourhood < 2:
            raise ValueError("moead_neighbourhood must be >= 2")
        if self.moead_neighbourhood > self.population_size:
            raise ValueError("moead_neighbourhood must not exceed population_size")
        if not 1 <= self.min_depth <= self.max_depth <= MAX_TREE_DEPTH:
            raise ValueError(f"need 1 <= min_depth <= max_depth <= {MAX_TREE_DEPTH}")
        if not self.min_depth <= self.init_depth_cap <= self.max_depth:
            raise ValueError("init_depth_cap must lie in [min_depth, max_depth]")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.max_trees is not None and self.max_trees < 2:
            raise ValueError("max_trees must be >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative 64-bit integer")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    def resolved_max_trees(self, n_features: int) -> int:
        if self.max_trees is not None:
            return self.max_trees
        return max(2, n_features // 2)


@dataclass(frozen=True)
class FrontEntry:
    individual: Individual
    cost: float
    complexity: float
    sexprs: tuple[str, ...]


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    min_cost: float
    min_complexity: float
    archive_size: int


@dataclass
class RunResult:
    archive: list[FrontEntry]
    final_front: list[FrontEntry]
    telemetry: list[GenerationStats]


def _dominates(a: FrontEntry, b: FrontEntry) -> bool:
    return (
        a.cost <= b.cost
        and a.complexity <= b.complexity
        and (a.cost < b.cost or a.complexity < b.complexity)
    )


class Archive:
    """Non-dominated set under minimisation of (cost, complexity)."""

    def __init__(self):
        self.entries: list[FrontEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, entry: FrontEntry) -> bool:
        for existing in self.entries:
            if _dominates(existing, entry):
                return False
            if (
                existing.cost == entry.cost
                and existing.complexity == entry.complexity
                and existing.sexprs == entry.sexprs
            ):
                return False
        self.entries = [e for e in self.entries if not _dominates(entry, e)]
        self.entries.append(entry)
        return True

    def min_cost(self) -> float:
        return min(e.cost for e in self.entries)

    def min_complexity(self) -> float:
        return min(e.complexity for e in self.entries)


def non_dominated(entries: list[FrontEntry]) -> list[FrontEntry]:
    """Non-dominated, de-duplicated filter preserving input order."""
    archive = Archive()
    for entry in entries:
        archive.add(entry)
    return archive.entries


def tchebycheff(objectives, weights, ideal, nadir) -> float:
    """max_j w_j * (f_j - ideal_j) / (nadir_j - ideal_j), spans epsilon-widened."""
    g = 0.0
    for f, w, z, nad in zip(objectives, weights, ideal, nadir):
        span = max(nad - z, 1e-12)
        g = max(g, w * (f - z) / span)
    return g


def initialise(config: EvolutionConfig, dataset: Dataset, rng: np.random.Generator) -> list[Individual]:
    """Ramped population: depths cycle over the ramp, grow and full alternate."""
    config.validate()
    m = dataset.n_features
    max_trees = config.resolved_max_trees(m)
    ramp = list(range(config.min_depth, config.init_depth_cap + 1))
    population = []
    counter = 0
    for _ in range(config.population_size):
        n_trees = int(rng.integers(2, max_trees + 1))
        trees = []
        for _ in range(n_trees):
            depth = ramp[counter % len(ramp)]
            method = "full" if counter % 2 == 0 else "grow"
            trees.append(random_tree(m, depth, depth, method, rng))
            counter += 1
        population.append(Individual(trees=tuple(trees)))
    return population


def _individual_valid(ind: Individual, config: EvolutionConfig, max_trees: int) -> bool:
    if not 2 <= len(ind.trees) <= max_trees:
        return False
    return all(config.min_depth <= t.depth <= config.max_depth for t in ind.trees)


def _crossover(a: Individual, b: Individual, rng) -> Individual:
    i = int(rng.integers(len(a.trees)))
    j = int(rng.integers(len(b.trees)))
    tree_a = a.trees[i]
    tree_b = b.trees[j]
    point_a = int(rng.integers(tree_a.size))
    point_b = int(rng.integers(tree_b.size))
    new_tree = replace_subtree(tree_a, point_a, get_subtree(tree_b, point_b))
    return Individual(trees=a.trees[:i] + (new_tree,) + a.trees[i + 1 :])


def _standard_mutation(a: Individual, config, rng, n_features) -> Individual | None:
    i = int(rng.integers(len(a.trees)))
    tree = a.trees[i]
    point = int(rng.integers(tree.size))
    at_depth = node_depth(tree, point)
    lo = config.min_depth if point == 0 else 0
    hi = min(config.init_depth_cap, config.max_depth - at_depth)
    if hi < lo:
        return None
    target = int(rng.integers(lo, hi + 1))
    replacement = grow_subtree(n_features, lo, target, rng)
    new_tree = replace_subtree(tree, point, replacement)
    return Individual(trees=a.trees[:i] + (new_tree,) + a.trees[i + 1 :])


def _tree_mutation(a: Individual, config, rng, n_features, max_trees) -> Individual | None:
    want_add = rng.random() < 0.5
    can_add = len(a.trees) < max_trees
    can_remove = len(a.trees) > 2
    if want_add:
        action = "add" if can_add else ("remove" if can_remove else None)
    else:
        action = "remove" if can_remove else ("add" if can_add else None)
    if action is None:
        return None
    if action == "add":
        depth = int(rng.integers(config.min_depth, config.init_depth_cap + 1))
        method = "full" if rng.random() < 0.5 else "grow"
        new_tree = random_tree(n_features, depth, depth, method, rng)
        return Individual(trees=a.trees + (new_tree,))
    drop = int(rng.integers(len(a.trees)))
    return Individual(trees=a.trees[:drop] + a.trees[drop + 1 :])


def vary(
    parent_a: Individual,
    parent_b: Individual,
    config: EvolutionConfig,
    rng: np.random.Generator,
    n_features: int,
    max_trees: int | None = None,
) -> Individual:
    """One offspring via crossover / subtree mutation / add-remove-tree.

    Offspring violating the depth or tree-count bounds trigger a fresh
    attempt, up to 10; after that the offspring is a copy of parent_a.
    """
    if max_trees is None:
        max_trees = config.resolved_max_trees(n_features)
    for _ in range(10):
        u = rng.random()
        if u < config.p_crossover:
            child = _crossover(parent_a, parent_b, rng)
        elif u < config.p_crossover + config.p_standard_mutation:
            child = _standard_mutation(parent_a, config, rng, n_features)
        else:
            child = _tree_mutation(parent_a, config, rng, n_features, max_trees)
        if child is not None and _individual_valid(child, config, max_trees):
            return child
    return Individual(trees=parent_a.trees)


def _transformed(objectives: tuple[float, float]) -> tuple[float, float]:
    # complexity is heavy-tailed; log-compress it so the weight geometry
    # is not flattened by exp-class outliers
    return (objectives[0], math.log1p(objectives[1]))


def _entry(ind: Individual) -> FrontEntry:
    cost_value, cplx_value = ind.objectives
    return FrontEntry(
        individual=ind,
        cost=cost_value,
        complexity=cplx_value,
        sexprs=ind.serialized(),
    )


def run(
    dataset: Dataset,
    config: EvolutionConfig,
    cost_model: complexity.CostModel = complexity.DEFAULT_COST_MODEL,
    on_generation=None,
) -> RunResult:
    """Full evolutionary run; returns archive, final-population front, telemetry.

    `on_generation(gen, archive_entries, population)` is invoked after every
    generation when given.
    """
    config.validate()
    m = dataset.n_features
    max_trees = config.resolved_max_trees(m)
    pop_size = config.population_size

    def evaluate(ind: Individual) -> Individual:
        if ind.objectives is None:
            ind.objectives = (
                manifold_cost.cost(ind, dataset),
                complexity.individual_complexity(ind, cost_model),
            )
        return ind

    executor = ThreadPoolExecutor(max_workers=config.threads) if config.threads > 1 else None

    def evaluate_all(individuals):
        if executor is None:
            for ind in individuals:
                evaluate(ind)
        else:
            list(executor.map(evaluate, individuals))

    try:
        rng_init = derive_rng(config.seed, LABEL_INIT)
        rng_vary = derive_rng(config.seed, LABEL_VARY)

        population = initialise(config, dataset, rng_init)
        evaluate_all(population)

        lam = [i / (pop_size - 1) for i in range(pop_size)]
        weights = [(l, 1.0 - l) for l in lam]
        neighbourhoods = []
        size = min(config.moead_neighbourhood, pop_size)
        for i in range(pop_size):
            dist = np.abs(np.asarray(lam) - lam[i])
            neighbourhoods.append(tuple(int(j) for j in np.argsort(dist, kind="stable")[:size]))

        archive = Archive()
        for ind in population:
            archive.add(_entry(ind))

        ideal = [
            min(_transformed(ind.objectives)[k] for ind in population) for k in (0, 1)
        ]

        telemetry = [
            GenerationStats(0, archive.min_cost(), archive.min_complexity(), len(archive))
        ]
        if on_generation is not None:
            on_generation(0, list(archive.entries), list(population))

        for gen in range(1, config.generations + 1):
            incumbent_objs = [_transformed(ind.objectives) for ind in population]
            nadir = [max(t[k] for t in incumbent_objs) for k in (0, 1)]

            children = []
            for i in range(pop_size):
                nb = neighbourhoods[i]
                pa = population[nb[int(rng_vary.integers(len(nb)))]]
                pb = population[nb[int(rng_vary.integers(len(nb)))]]
                children.append(vary(pa, pb, config, rng_vary, m, max_trees))
            evaluate_all(children)

            for i, child in enumerate(children):
                t_child = _transformed(child.objectives)
                ideal = [min(ideal[k], t_child[k]) for k in (0, 1)]
                replaced = 0
                for j in neighbourhoods[i]:
                    inc = population[j]
                    g_child = tchebycheff(t_child, weights[j], ideal, nadir)
                    g_inc = tchebycheff(_transformed(inc.objectives), weights[j], ideal, nadir)
                    if g_child < g_inc or (g_child == g_inc and child.n_nodes < inc.n_nodes):
                        population[j] = child
                        replaced += 1
                        if replaced == 2:
                            break
                archive.add(_entry(child))

            telemetry.append(
                GenerationStats(gen, archive.min_cost(), archive.min_complexity(), len(archive))
            )
            if on_generation is not None:
                on_generation(gen, list(archive.entries), list(population))

        final_front = non_dominated([_entry(ind) for ind in population])
        return RunResult(
            archive=list(archive.entries),
            final_front=final_front,
            telemetry=telemetry,
        )
    finally:
        if executor is not None:
            executor.shutdown()
