import ctypes
import dataclasses
import math
import os
import platform
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, WINE_CSV, make_clusters, small_config
from gpembed import evolution
from gpembed.dataset import from_arrays, set_heap_thresholds
from gpembed.evolution import (
    Archive,
    EvolutionConfig,
    FrontEntry,
    derive_rng,
    initialise,
    max_trees,
    non_dominated,
    run,
    tchebycheff,
    vary,
)
from gpembed.expr import MAX_TREE_DEPTH, Individual, parse, serialize


def entry(cost, complexity, tag="t"):
    ind = Individual(trees=(parse("(add f0 f1)"),))
    return FrontEntry(ind, cost, complexity, (f"({tag} {cost} {complexity})",))


@pytest.fixture
def small_dataset():
    X, labels = make_clusters(n_per_cluster=15, n_features=6, n_clusters=2, seed=0)
    return from_arrays(X, labels=labels)


class TestConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            EvolutionConfig(p_crossover=0.9, p_standard_mutation=0.2)

    def test_population_floor(self):
        with pytest.raises(ValueError, match="population"):
            EvolutionConfig(population_size=3, moead_neighbourhood=2)

    def test_max_depth_bounded_by_parser(self):
        EvolutionConfig(max_depth=MAX_TREE_DEPTH)
        with pytest.raises(ValueError, match="max_depth"):
            EvolutionConfig(max_depth=MAX_TREE_DEPTH + 1)

    def test_neighbourhood_bounded_by_population(self):
        with pytest.raises(ValueError, match="neighbourhood"):
            EvolutionConfig(population_size=8, moead_neighbourhood=9)

    def test_frozen_and_checked_on_every_copy(self):
        config = EvolutionConfig(population_size=8, moead_neighbourhood=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.threads = 0
        with pytest.raises(ValueError, match="threads must be >= 1"):
            dataclasses.replace(config, threads=0)
        assert dataclasses.replace(config, seed=2).seed == 2

    def test_resolved_max_trees(self):
        assert max_trees(4) == 2
        assert max_trees(13) == 6
        assert max_trees(3) == 2


class TestInitialise:
    def test_four_features_forces_two_trees(self):
        X = np.random.default_rng(0).normal(size=(10, 4))
        ds = from_arrays(X)
        config = small_config(population_size=20, seed=0)
        for ind in initialise(config, ds, derive_rng(0, 1)):
            assert len(ind.trees) == 2

    def test_thirteen_features_bounds_tree_count(self, wine_dataset):
        config = small_config(population_size=30, seed=0)
        counts = {len(ind.trees) for ind in initialise(config, wine_dataset, derive_rng(0, 1))}
        assert counts <= set(range(2, 7))
        assert len(counts) > 1  # uniform draw actually spreads

    def test_depths_respect_ramp(self, small_dataset):
        config = small_config(population_size=25, seed=0)
        for ind in initialise(config, small_dataset, derive_rng(0, 1)):
            for tree in ind.trees:
                assert 2 <= tree.depth <= 6

    def test_fixed_seed_reproduces(self, small_dataset):
        config = small_config(population_size=10, seed=5)
        a = initialise(config, small_dataset, derive_rng(5, 1))
        b = initialise(config, small_dataset, derive_rng(5, 1))
        assert [i.serialized() for i in a] == [i.serialized() for i in b]


class TestTchebycheff:
    def test_ideal_point_scores_zero(self):
        assert tchebycheff((0.1, 3.0), (0.5, 0.5), (0.1, 3.0), (1.0, 10.0)) == 0.0

    def test_weight_masking(self):
        g = tchebycheff((0.4, 123.0), (1.0, 0.0), (0.0, 0.0), (1.0, 200.0))
        assert g == pytest.approx(0.4)

    def test_normalized_example(self):
        g = tchebycheff((0.2, 0.8), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0))
        assert g == pytest.approx(0.4)

    def test_epsilon_widening_handles_flat_spans(self):
        g = tchebycheff((1.0, 1.0), (0.5, 0.5), (1.0, 1.0), (1.0, 1.0))
        assert g == 0.0


class TestArchive:
    def test_dominated_entries_are_rejected(self):
        archive = Archive()
        assert archive.add(entry(0.5, 10.0))
        assert not archive.add(entry(0.6, 11.0))
        assert len(archive) == 1

    def test_dominating_entry_evicts(self):
        archive = Archive()
        archive.add(entry(0.5, 10.0))
        assert archive.add(entry(0.4, 9.0))
        assert len(archive) == 1
        assert archive.entries[0].cost == 0.4

    def test_incomparable_entries_coexist(self):
        archive = Archive()
        archive.add(entry(0.5, 10.0))
        assert archive.add(entry(0.4, 20.0))
        assert archive.add(entry(0.6, 5.0))
        assert len(archive) == 3

    def test_duplicates_excluded(self):
        archive = Archive()
        archive.add(entry(0.5, 10.0, tag="same"))
        assert not archive.add(entry(0.5, 10.0, tag="same"))
        # same objectives, different trees: kept
        assert archive.add(entry(0.5, 10.0, tag="other"))
        assert len(archive) == 2

    def test_equal_on_one_objective_dominates(self):
        archive = Archive()
        archive.add(entry(0.5, 10.0))
        assert not archive.add(entry(0.5, 12.0))
        assert archive.add(entry(0.5, 8.0))
        assert len(archive) == 1

    def test_non_dominated_filter(self):
        entries = [entry(0.5, 10.0), entry(0.4, 20.0), entry(0.6, 30.0), entry(0.45, 15.0)]
        kept = non_dominated(entries)
        assert {(e.cost, e.complexity) for e in kept} == {(0.5, 10.0), (0.4, 20.0), (0.45, 15.0)}

    # small grids force duplicates, equal objectives with other trees, and ties on one objective
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from("ab")),
                    max_size=25))
    def test_add_keeps_exactly_the_non_dominated_inserts(self, inserts):
        inserted = [entry(float(c), float(x), tag) for c, x, tag in inserts]
        archive = Archive()
        for e in inserted:
            archive.add(e)
        kept = archive.entries
        for a in kept:
            assert not any(_dominates(b, a) for b in kept)
        key = lambda e: (e.cost, e.complexity, e.sexprs)  # noqa: E731
        assert len({key(e) for e in kept}) == len(kept)
        assert {key(e) for e in kept} == {
            key(e) for e in inserted if not any(_dominates(o, e) for o in inserted)
        }


def assert_offspring_valid(config, dataset, calls):
    m = dataset.n_features
    rng = derive_rng(0, 2)
    parents = initialise(config, dataset, derive_rng(0, 1))
    for i in range(calls):
        pa = parents[i % len(parents)]
        pb = parents[(i * 7 + 3) % len(parents)]
        child = vary(pa, pb, config, rng, m)
        assert 2 <= len(child.trees) <= max_trees(m)
        for tree in child.trees:
            assert config.min_depth <= tree.depth <= config.max_depth


class TestVary:
    def test_offspring_always_valid(self, small_dataset):
        assert_offspring_valid(small_config(population_size=8, seed=0), small_dataset, 10_000)

    @pytest.mark.parametrize("min_depth, max_depth", [(1, 6), (6, 6), (1, 200)])
    def test_offspring_always_valid_at_depth_bounds(self, small_dataset, min_depth, max_depth):
        # vary checks neither the tree count nor a subtree mutation's depth
        # range: valid parents cannot leave them, at any depth bounds
        config = small_config(population_size=8, seed=0, min_depth=min_depth, max_depth=max_depth)
        assert_offspring_valid(config, small_dataset, 5_000)

    def test_crossover_changes_at_most_one_tree(self, small_dataset):
        config = small_config(
            p_crossover=1.0, p_standard_mutation=0.0, p_tree_mutation=0.0,
            population_size=8, seed=0,
        )
        rng = derive_rng(1, 2)
        parents = initialise(small_config(population_size=8, seed=1), small_dataset, derive_rng(1, 1))
        m = small_dataset.n_features
        for i in range(200):
            pa = parents[i % len(parents)]
            pb = parents[(i + 1) % len(parents)]
            child = vary(pa, pb, config, rng, m)
            assert len(child.trees) == len(pa.trees)
            differing = sum(
                serialize(a) != serialize(b) for a, b in zip(child.trees, pa.trees)
            )
            assert differing <= 1

    def test_two_tree_parent_never_drops_below_two(self):
        # m=4 -> max_trees=2, so add/remove can neither add nor remove:
        # every offspring keeps exactly two trees
        X = np.random.default_rng(0).normal(size=(12, 4))
        ds = from_arrays(X)
        config = small_config(
            p_crossover=0.0, p_standard_mutation=0.0, p_tree_mutation=1.0,
            population_size=6, seed=0,
        )
        rng = derive_rng(3, 2)
        parents = initialise(small_config(population_size=6, seed=3), ds, derive_rng(3, 1))
        for i in range(100):
            child = vary(parents[i % 6], parents[(i + 1) % 6], config, rng, 4)
            assert len(child.trees) == 2

    def test_tree_mutation_adds_and_removes(self, small_dataset):
        config = small_config(
            p_crossover=0.0, p_standard_mutation=0.0, p_tree_mutation=1.0,
            population_size=6, seed=0,
        )
        m = small_dataset.n_features
        assert max_trees(m) == 3
        rng = derive_rng(4, 2)
        parents = initialise(small_config(population_size=6, seed=4), small_dataset, derive_rng(4, 1))
        sizes = set()
        for i in range(300):
            child = vary(parents[i % 6], parents[(i + 1) % 6], config, rng, m)
            sizes.add(len(child.trees))
        assert sizes == {2, 3}

    def test_no_valid_offspring_falls_back_to_parent_a_itself(self):
        # m=4 -> max_trees=2: a 2-tree parent can neither gain nor lose a tree
        config = small_config(
            p_crossover=0.0, p_standard_mutation=0.0, p_tree_mutation=1.0,
            population_size=6, seed=0,
        )
        pa = Individual(trees=(parse("(add f0 f1)"), parse("(mul f2 f3)")))
        pb = Individual(trees=(parse("(sub f0 f3)"), parse("(min f1 f2)")))
        assert vary(pa, pb, config, derive_rng(5, 2), 4) is pa


class TestRun:
    def test_zero_generations_returns_initial_front(self, small_dataset):
        config = EvolutionConfig(generations=0, population_size=8, moead_neighbourhood=4, seed=9)
        result = run(small_dataset, config)
        population = initialise(config, small_dataset, derive_rng(9, 1))
        objs = set()
        for ind in population:
            from gpembed import complexity, manifold_cost

            objs.add((manifold_cost.cost(ind, small_dataset),
                      complexity.individual_complexity(ind)))
        archive_objs = {(e.cost, e.complexity) for e in result.archive}
        assert archive_objs <= objs
        # every archived point is non-dominated within the initial objectives
        for c, x in archive_objs:
            assert not any(
                (oc <= c and ox <= x and (oc < c or ox < x)) for oc, ox in objs
            )
        assert len(result.telemetry) == 1

    def test_same_seed_is_bitwise_identical(self, small_dataset):
        config = EvolutionConfig(generations=8, population_size=8, moead_neighbourhood=4, seed=33)
        a = run(small_dataset, config)
        b = run(small_dataset, config)
        assert [(e.cost, e.complexity, e.sexprs) for e in a.archive] == [
            (e.cost, e.complexity, e.sexprs) for e in b.archive
        ]
        assert a.telemetry == b.telemetry

    def test_threads_do_not_change_results(self, small_dataset):
        base = EvolutionConfig(generations=6, population_size=8, moead_neighbourhood=4, seed=12)
        threaded = EvolutionConfig(
            generations=6, population_size=8, moead_neighbourhood=4, seed=12, threads=3
        )
        a = run(small_dataset, base)
        b = run(small_dataset, threaded)
        assert [(e.cost, e.complexity, e.sexprs) for e in a.archive] == [
            (e.cost, e.complexity, e.sexprs) for e in b.archive
        ]

    def test_archive_sound_and_monotone(self, small_dataset):
        config = EvolutionConfig(generations=12, population_size=8, moead_neighbourhood=4, seed=2)
        seen = []

        def check(gen, archive_entries, population):
            for i, a in enumerate(archive_entries):
                for b in archive_entries[i + 1 :]:
                    assert not _dominates(a, b)
                    assert not _dominates(b, a)
            seen.append(min(e.cost for e in archive_entries))

        result = run(small_dataset, config, on_generation=check)
        assert len(seen) == 13
        assert all(x >= y for x, y in zip(seen, seen[1:]))
        assert [row.min_cost for row in result.telemetry] == seen
        complexities = [row.min_complexity for row in result.telemetry]
        assert all(x >= y for x, y in zip(complexities, complexities[1:]))

    def test_archive_individuals_respect_bounds(self, small_dataset):
        config = EvolutionConfig(generations=10, population_size=8, moead_neighbourhood=4, seed=6)
        result = run(small_dataset, config)
        for entry_ in result.archive:
            assert 2 <= len(entry_.individual.trees) <= max_trees(small_dataset.n_features)
            for tree in entry_.individual.trees:
                assert config.min_depth <= tree.depth <= config.max_depth

    def test_final_front_subset_of_population_objectives(self, small_dataset):
        config = EvolutionConfig(generations=5, population_size=8, moead_neighbourhood=4, seed=1)
        result = run(small_dataset, config)
        assert result.final_front
        for i, a in enumerate(result.final_front):
            for b in result.final_front[i + 1 :]:
                assert not _dominates(a, b)
                assert not _dominates(b, a)

    def test_each_scored_individual_serialized_once(self, small_dataset, monkeypatch):
        calls = [0]
        serialized = Individual.serialized

        def counting(ind):
            calls[0] += 1
            return serialized(ind)

        monkeypatch.setattr(Individual, "serialized", counting)
        config = EvolutionConfig(generations=3, population_size=8, moead_neighbourhood=4, seed=4)
        run(small_dataset, config)
        assert calls[0] == 8 * (3 + 1)

    def test_population_holds_scored_front_entries(self, small_dataset):
        from gpembed import complexity, manifold_cost

        config = EvolutionConfig(generations=4, population_size=8, moead_neighbourhood=4, seed=7)
        populations = []
        result = run(small_dataset, config,
                     on_generation=lambda gen, entries, population: populations.append(population))
        assert len(populations) == 5
        for population in populations:
            for e in population:
                assert isinstance(e, FrontEntry)
                assert e.cost == manifold_cost.cost(e.individual, small_dataset)
                assert e.complexity == complexity.individual_complexity(e.individual)
                assert e.sexprs == e.individual.serialized()
        key = lambda entries: [(e.cost, e.complexity, e.sexprs) for e in entries]  # noqa: E731
        assert key(result.final_front) == key(non_dominated(populations[-1]))

    def test_archive_is_non_dominated_of_every_scored_entry(self, small_dataset, monkeypatch):
        from gpembed import evolution

        scored = []
        make_entry = evolution._entry

        def recording(ind, objectives):
            scored.append(make_entry(ind, objectives))
            return scored[-1]

        monkeypatch.setattr(evolution, "_entry", recording)
        key = lambda entries: [(e.cost, e.complexity, e.sexprs) for e in entries]  # noqa: E731
        generations = []

        def check(gen, archive_entries, population):
            assert len(scored) == 8 * (gen + 1)
            assert key(archive_entries) == key(non_dominated(scored))
            generations.append(gen)

        config = EvolutionConfig(generations=10, population_size=8, moead_neighbourhood=4, seed=3)
        result = run(small_dataset, config, on_generation=check)
        assert generations == list(range(11))
        assert key(result.archive) == key(non_dominated(scored))

    def test_replacement_replays_from_recomputed_objectives(self, small_dataset, monkeypatch):
        # the reference loop recomputes every transformed objective per comparison
        scored, populations = [], []
        make_entry = evolution._entry

        def recording(ind, objectives):
            scored.append(make_entry(ind, objectives))
            return scored[-1]

        monkeypatch.setattr(evolution, "_entry", recording)
        config = EvolutionConfig(generations=12, population_size=8, moead_neighbourhood=4, seed=5)
        run(small_dataset, config,
            on_generation=lambda gen, entries, population: populations.append(population))

        def transformed(e):
            return (e.cost, math.log1p(e.complexity))

        lam = [i / 7 for i in range(8)]
        neighbourhoods = [sorted(range(8), key=lambda j: abs(lam[j] - lam[i]))[:4]
                          for i in range(8)]
        ideal = [min(transformed(e)[k] for e in scored[:8]) for k in (0, 1)]
        replacements = 0
        for gen in range(1, 13):
            population = list(populations[gen - 1])
            nadir = [max(transformed(e)[k] for e in population) for k in (0, 1)]
            for i, child in enumerate(scored[8 * gen : 8 * (gen + 1)]):
                ideal = [min(ideal[k], transformed(child)[k]) for k in (0, 1)]
                replaced = 0
                for j in neighbourhoods[i]:
                    inc = population[j]
                    weights = (lam[j], 1.0 - lam[j])
                    g_child = tchebycheff(transformed(child), weights, ideal, nadir)
                    g_inc = tchebycheff(transformed(inc), weights, ideal, nadir)
                    if g_child < g_inc or (
                        g_child == g_inc and child.individual.n_nodes < inc.individual.n_nodes
                    ):
                        population[j] = child
                        replaced += 1
                        if replaced == 2:
                            break
                replacements += replaced
            assert all(a is b for a, b in zip(population, populations[gen]))
        assert replacements > 0

    def test_telemetry_schema(self, small_dataset):
        config = EvolutionConfig(generations=4, population_size=8, moead_neighbourhood=4, seed=0)
        result = run(small_dataset, config)
        assert [row.generation for row in result.telemetry] == [0, 1, 2, 3, 4]
        for row in result.telemetry:
            assert row.archive_size >= 1


@pytest.fixture
def fresh_heap_thresholds():
    set_heap_thresholds.cache_clear()
    yield
    set_heap_thresholds.cache_clear()


def _no_libc(name):
    raise OSError("no C library")


class TestHeapTopPad:
    """`set_heap_thresholds`: two `mallopt` calls, once per process, and no faults."""

    def test_mallopt_called_once_per_process(self, small_dataset, monkeypatch,
                                             fresh_heap_thresholds):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
        config = EvolutionConfig(generations=1, population_size=8, moead_neighbourhood=4, seed=1)
        run(small_dataset, config)
        run(small_dataset, config)
        assert calls == [(-3, 32 << 20), (-1, 128 << 20)]

    @pytest.mark.parametrize("cdll", [_no_libc, lambda name: object()],
                             ids=["cdll-raises", "no-mallopt"])
    def test_without_mallopt_does_nothing(self, small_dataset, monkeypatch,
                                          fresh_heap_thresholds, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        config = EvolutionConfig(generations=2, population_size=8, moead_neighbourhood=4, seed=1)
        assert len(run(small_dataset, config).telemetry) == 3
        # run's first distance loop called it, with the fake
        assert set_heap_thresholds.cache_info().misses == 1

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_cost_kernel_does_not_fault_freed_pages_back_in(self):
        ds = f"load_csv({WINE_CSV!r}, label_column='class')"
        config = "EvolutionConfig(generations=4, population_size=64, seed=1)"
        assert _faults_per_cost_call(ds, config) < 25  # 276 when glibc trims on every free

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc heap trimming")
    def test_per_thread_arenas_do_not_fault_freed_pages_back_in(self):
        ds = f"load_csv({WINE_CSV!r}, label_column='class')"
        config = "EvolutionConfig(generations=4, population_size=64, seed=1, threads=2)"
        assert _faults_per_cost_call(ds, config) < 25  # about 210-280 without the thresholds

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mmap threshold")
    def test_wide_rows_do_not_map_temporaries_afresh(self):
        # 599 neighbours per row make 2.9 MB n*k temporaries, larger than any
        # block loading freed; under a lower mmap threshold glibc maps each afresh
        ds = "from_arrays(np.random.default_rng(0).normal(size=(600, 10)))"
        config = "EvolutionConfig(generations=1, population_size=8, moead_neighbourhood=4, seed=1)"
        assert _faults_per_cost_call(ds, config) < 25  # about 4,200 with no setting

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc mmap threshold")
    def test_library_knn_calls_do_not_map_blocks_afresh(self):
        # no run and no parse: the KNN pass's first row block sets the thresholds,
        # else each 65 x 2,000 filter block is mapped afresh (14,698 faults a call)
        script = """
import resource
import numpy as np
from gpembed.harness import knn_cv_accuracy
E, labels = np.random.default_rng(0).normal(size=(2000, 3)), np.arange(2000) % 3
knn_cv_accuracy(E, labels)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
knn_cv_accuracy(E, labels)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
        assert _run_for_number(script) < 1000


def _faults_per_cost_call(dataset: str, config: str) -> float:
    """Minor page faults per `manifold_cost.cost` call of the second of two runs
    in a fresh process, so no earlier test has shaped the heap; the dataset is
    loaded before the first, which grows the heap to its size."""
    return _run_for_number(f"""
import resource
import numpy as np
from gpembed import manifold_cost
from gpembed.dataset import from_arrays, load_csv
from gpembed.evolution import EvolutionConfig, run
calls = []
cost = manifold_cost.cost
manifold_cost.cost = lambda ind, ds: calls.append(None) or cost(ind, ds)
ds, config = {dataset}, {config}
run(ds, config)
calls.clear()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run(ds, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / len(calls))
""")


def _run_for_number(script: str) -> float:
    """What `script`, run in a fresh Python process on this checkout's `src`, prints."""
    src = os.path.join(REPO_ROOT, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    return float(out.stdout)


class TestObjectiveCache:
    """A genotype scored earlier in the run reuses its objectives.  The reference
    run scores every entry afresh instead, whatever the cache held."""

    def trajectory(self, dataset, threads, out_dir, monkeypatch, bypass=False):
        from gpembed import complexity, harness, manifold_cost

        calls, entries = [], []
        cost, make_entry = manifold_cost.cost, evolution._entry

        def entry(ind, scores):
            entries.append(None)
            if bypass:
                scores = (cost(ind, dataset), complexity.individual_complexity(ind), scores[2])
            return make_entry(ind, scores)

        monkeypatch.setattr(manifold_cost, "cost",
                            lambda ind, ds: calls.append(None) or cost(ind, ds))
        monkeypatch.setattr(evolution, "_entry", entry)
        config = EvolutionConfig(generations=20, population_size=16, moead_neighbourhood=8,
                                 seed=2, threads=threads)
        harness.report(run(dataset, config), dataset, config, out_dir)
        monkeypatch.undo()
        files = [(out_dir / name).read_bytes() for name in ("front.csv", "telemetry.csv")]
        return files, len(calls), len(entries)

    @pytest.mark.parametrize("threads", [1, 8])
    def test_matches_a_cache_bypassed_run(self, wine_dataset, threads, tmp_path, monkeypatch):
        want, _, _ = self.trajectory(wine_dataset, 1, tmp_path / "bypassed", monkeypatch,
                                     bypass=True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got, calls, entries = self.trajectory(wine_dataset, threads, tmp_path / "cached",
                                                  monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert entries == 16 * 21
        assert calls < entries  # the run repeats genotypes, so the cache is used
        assert got == want


class TestReferencePath:
    """A short Wine run writes the same report as one that keeps no per-tree
    memo, ranks every row with `fractional_ranks` and scores every entry afresh:
    each fast layer is checked per call elsewhere, this checks the whole run."""

    def report(self, dataset, threads, out_dir, monkeypatch, reference):
        from gpembed import complexity, expr, harness, manifold_cost

        if reference:
            def fresh(tree, slot, owner, compute):
                return compute()

            def ranked(d2):
                ident = np.arange(1.0, d2.shape[1] + 1.0)
                return manifold_cost._row_correlations(manifold_cost.fractional_ranks(d2), ident)

            make_entry = evolution._entry

            def entry(ind, scores):  # whatever the objective cache held
                scores = (manifold_cost.cost(ind, dataset),
                          complexity.individual_complexity(ind), scores[2])
                return make_entry(ind, scores)

            monkeypatch.setattr(expr, "memoized", fresh)
            monkeypatch.setattr(complexity, "memoized", fresh)
            monkeypatch.setattr(manifold_cost, "_rank_correlations", ranked)
            monkeypatch.setattr(evolution, "_entry", entry)
        config = EvolutionConfig(generations=20, population_size=16, moead_neighbourhood=8,
                                 seed=1, threads=threads)
        harness.report(run(dataset, config), dataset, config, out_dir)
        monkeypatch.undo()
        return {path.relative_to(out_dir).as_posix(): path.read_bytes()
                for path in sorted(out_dir.rglob("*")) if path.is_file()}

    @pytest.fixture(scope="class")
    def reference(self, wine_dataset, tmp_path_factory):
        with pytest.MonkeyPatch.context() as patch:
            return self.report(wine_dataset, 1, tmp_path_factory.mktemp("reference"), patch, True)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_the_reference_run(self, wine_dataset, reference, threads, tmp_path,
                                       monkeypatch):
        got = self.report(wine_dataset, threads, tmp_path, monkeypatch, False)
        assert "front.csv" in got and any(name.startswith("trees/") for name in got)
        assert got.keys() == reference.keys()
        for name in got:
            assert got[name] == reference[name], name


def _dominates(a, b):
    return (
        a.cost <= b.cost
        and a.complexity <= b.complexity
        and (a.cost < b.cost or a.complexity < b.complexity)
    )
