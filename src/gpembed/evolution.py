"""Decomposition-based multi-objective evolution of multi-tree individuals.

The population is attached to evenly spaced weight vectors, one scalarised
subproblem each.  Generation 0 is the scored initial population.  In
every later generation each subproblem breeds one offspring from parents
drawn from its neighbourhood, offspring are evaluated on the two
objectives (neighbourhood cost, structural complexity), and each offspring
may replace up to two neighbouring incumbents whose Tchebycheff value it
improves.  Every generation then offers its new entries to an external
archive, which keeps every non-dominated individual seen across the whole
run, and records one telemetry row.

Determinism: variation, replacement, and archive updates run sequentially
in subproblem order.  Only the objective evaluations are fanned out across
threads; each is a pure function of the genotype, and the main thread
records its result as one `FrontEntry`, in subproblem order.  So any thread
count reproduces the single-threaded run bit for bit.  For the same reason
a genotype whose tree texts were already scored in the run takes the cached
objectives; the main thread looks them up and de-duplicates each batch
before fanning it out, so every thread count evaluates the same genotypes.
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


# initial trees, added trees and mutation subtrees are at most this deep
INIT_DEPTH_CAP = 6


def max_trees(n_features: int) -> int:
    """The most trees an individual may hold on a dataset of `n_features` features."""
    return max(2, n_features // 2)


@dataclass(frozen=True)
class EvolutionConfig:
    """Search settings, checked when built, so an EvolutionConfig is always valid."""

    generations: int = 1000
    population_size: int = 100
    p_crossover: float = 0.70
    p_standard_mutation: float = 0.15
    p_tree_mutation: float = 0.15
    min_depth: int = 2
    max_depth: int = 14
    moead_neighbourhood: int = 15
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
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
        if not 1 <= self.min_depth <= INIT_DEPTH_CAP <= self.max_depth <= MAX_TREE_DEPTH:
            raise ValueError(
                f"need 1 <= min_depth <= {INIT_DEPTH_CAP} <= max_depth <= {MAX_TREE_DEPTH}"
            )
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


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
    """Ramped population of full trees: depths cycle over the ramp, and "grow" alternates
    with "full" but, at its one fixed depth, builds the same tree from the same draws."""
    m = dataset.n_features
    ramp = list(range(config.min_depth, INIT_DEPTH_CAP + 1))
    population = []
    counter = 0
    for _ in range(config.population_size):
        n_trees = int(rng.integers(2, max_trees(m) + 1))
        trees = []
        for _ in range(n_trees):
            depth = ramp[counter % len(ramp)]
            method = "full" if counter % 2 == 0 else "grow"
            trees.append(random_tree(m, depth, depth, method, rng))
            counter += 1
        population.append(Individual(trees=tuple(trees)))
    return population


def _depths_valid(ind: Individual, config: EvolutionConfig) -> bool:
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


def _standard_mutation(a: Individual, config, rng, n_features) -> Individual:
    i = int(rng.integers(len(a.trees)))
    tree = a.trees[i]
    point = int(rng.integers(tree.size))
    at_depth = node_depth(tree, point)
    lo = config.min_depth if point == 0 else 0
    hi = min(INIT_DEPTH_CAP, config.max_depth - at_depth)  # >= lo for any valid parent
    target = int(rng.integers(lo, hi + 1))
    replacement = grow_subtree(n_features, lo, target, rng)
    new_tree = replace_subtree(tree, point, replacement)
    return Individual(trees=a.trees[:i] + (new_tree,) + a.trees[i + 1 :])


def _tree_mutation(a: Individual, config, rng, n_features) -> Individual | None:
    """`a` with a tree removed or a full tree of a random ramp depth added; None if neither fits."""
    want_add = rng.random() < 0.5
    can_add = len(a.trees) < max_trees(n_features)
    can_remove = len(a.trees) > 2
    if want_add:
        action = "add" if can_add else ("remove" if can_remove else None)
    else:
        action = "remove" if can_remove else ("add" if can_add else None)
    if action is None:
        return None
    if action == "add":
        depth = int(rng.integers(config.min_depth, INIT_DEPTH_CAP + 1))
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
) -> Individual:
    """One offspring of valid parents via crossover / subtree mutation / add-remove-tree.

    Each keeps the tree count in [2, max_trees]; an offspring outside the depth
    bounds, or no possible tree mutation, triggers a fresh attempt, up to 10;
    after that the offspring is parent_a itself.
    """
    for _ in range(10):
        u = rng.random()
        if u < config.p_crossover:
            child = _crossover(parent_a, parent_b, rng)
        elif u < config.p_crossover + config.p_standard_mutation:
            child = _standard_mutation(parent_a, config, rng, n_features)
        else:
            child = _tree_mutation(parent_a, config, rng, n_features)
        if child is not None and _depths_valid(child, config):
            return child
    return parent_a


def _transformed(entry: FrontEntry) -> tuple[float, float]:
    # complexity is heavy-tailed; log-compress it so the weight geometry
    # is not flattened by exp-class outliers
    return (entry.cost, math.log1p(entry.complexity))


def _entry(ind: Individual, scores: tuple[float, float, tuple[str, ...]]) -> FrontEntry:
    """The record of `ind` scored as (cost, complexity, its `serialized()` texts)."""
    return FrontEntry(ind, *scores)


def run(
    dataset: Dataset,
    config: EvolutionConfig,
    cost_model: complexity.CostModel = complexity.DEFAULT_COST_MODEL,
    on_generation=None,
) -> RunResult:
    """Full evolutionary run; returns archive, final-population front, telemetry.

    `on_generation(gen, archive_entries, population)` is invoked after every
    generation, 0 (the scored initial population) through
    `config.generations`, when given; both lists hold `FrontEntry`s.
    """
    m = dataset.n_features
    pop_size = config.population_size

    def objectives(ind: Individual) -> tuple[float, float]:
        return (
            manifold_cost.cost(ind, dataset),
            complexity.individual_complexity(ind, cost_model),
        )

    # the pool starts no thread until it is used
    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        pool_map = pool.map if config.threads > 1 else map

        # objectives of every genotype scored this run, keyed by its tree texts
        cache: dict[tuple[str, ...], tuple[float, float]] = {}

        def scored(individuals: list[Individual]) -> list[FrontEntry]:
            keys = [ind.serialized() for ind in individuals]
            fresh = {key: ind for key, ind in zip(keys, individuals) if key not in cache}
            cache.update(zip(fresh, pool_map(objectives, fresh.values())))
            return [_entry(ind, (*cache[key], key)) for ind, key in zip(individuals, keys)]

        rng_init = derive_rng(config.seed, LABEL_INIT)
        rng_vary = derive_rng(config.seed, LABEL_VARY)

        new_entries = scored(initialise(config, dataset, rng_init))
        population = list(new_entries)
        transformed = [_transformed(entry) for entry in population]
        ideal = [min(t[k] for t in transformed) for k in (0, 1)]

        lam = [i / (pop_size - 1) for i in range(pop_size)]
        weights = [(l, 1.0 - l) for l in lam]
        neighbourhoods = [
            tuple(sorted(range(pop_size), key=lambda j: abs(lam[j] - lam[i]))
                  [:config.moead_neighbourhood])
            for i in range(pop_size)
        ]

        def parent(nb: tuple[int, ...]) -> Individual:
            return population[nb[int(rng_vary.integers(len(nb)))]].individual

        archive = Archive()
        telemetry = []
        for gen in range(config.generations + 1):
            if gen > 0:
                nadir = [max(t[k] for t in transformed) for k in (0, 1)]
                new_entries = scored([vary(parent(nb), parent(nb), config, rng_vary, m)
                                      for nb in neighbourhoods])
                for i, child in enumerate(new_entries):
                    t_child = _transformed(child)
                    ideal = [min(ideal[k], t_child[k]) for k in (0, 1)]
                    replaced = 0
                    for j in neighbourhoods[i]:
                        inc = population[j]
                        g_child = tchebycheff(t_child, weights[j], ideal, nadir)
                        g_inc = tchebycheff(transformed[j], weights[j], ideal, nadir)
                        if g_child < g_inc or (
                            g_child == g_inc and child.individual.n_nodes < inc.individual.n_nodes
                        ):
                            population[j] = child
                            transformed[j] = t_child
                            replaced += 1
                            if replaced == 2:
                                break

            for entry in new_entries:
                archive.add(entry)
            telemetry.append(GenerationStats(gen, min(e.cost for e in archive.entries),
                                             min(e.complexity for e in archive.entries),
                                             len(archive)))
            if on_generation is not None:
                on_generation(gen, list(archive.entries), list(population))

    return RunResult(
        archive=list(archive.entries),
        final_front=non_dominated(population),
        telemetry=telemetry,
    )
