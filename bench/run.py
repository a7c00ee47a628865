"""gpembed benchmark: one workload per process, printing one JSON result line.

    python3 bench/run.py --workload wine --seed 7 --seconds 30 --trace 0

Each trajectory drives the calls `gpembed run` makes, `dataset.load_csv` ->
`evolution.run` -> `harness.report`, from the sources under `src/` of the
checkout this file sits in.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics from a traced pass (see README.md).
Report files are checked against `tests/oracles.py` before the result is
printed; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from hypervolume import front_hypervolume  # noqa: E402
from tracing import BOOKKEEPING, Tracer, summarise  # noqa: E402


@dataclass(frozen=True)
class Workload:
    data: str  # "wine" or "blobs"
    population: int
    generations: int  # per trajectory
    trajectories: int  # evolution seeds per cycle
    threads: int
    setup_reps: int  # load_csv calls before each trajectory; setup_s is their median
    evo_seed: int | None = None  # None: the evolution seed is --seed
    max_neighbours: int | None = None
    neighbour_sample: int | None = None  # rows checked against the oracle; None = all
    twin_threads: int | None = None  # rerun trajectory 0 on this many threads; bytes must match


# blobs-2k keeps its evolution seed fixed: its 2 x 16 initial individuals
# hold 2..5 trees each, and which counts a seed draws moved its n*n*t distance
# work, and so its timings, by about 10% between seeds.  --seed draws the data.
WORKLOADS = {
    "wine": Workload("wine", population=64, generations=10, trajectories=7, threads=1,
                     setup_reps=6, twin_threads=2),
    "blobs-2k": Workload("blobs", population=16, generations=4, trajectories=2, threads=1,
                         setup_reps=2, evo_seed=1, max_neighbours=50, neighbour_sample=12),
}

# Gaussian blobs: BLOBS_ROWS rows dealt in turn to BLOBS_CLUSTERS clusters in
# BLOBS_FEATURES dimensions.  The centres, N(0, BLOBS_SEPARATION^2) in every
# feature, come from the fixed BLOBS_CENTRE_SEED, so every data seed gives the
# same geometry and the fronts it allows vary little; the data seed draws
# the N(0, BLOBS_SPREAD^2) offsets of the points.
BLOBS_ROWS, BLOBS_FEATURES, BLOBS_CLUSTERS = 2000, 10, 5
BLOBS_SEPARATION, BLOBS_SPREAD, BLOBS_CENTRE_SEED = 4.0, 1.0, 0

SEED_LIMIT = 1 << 32  # trajectory r evolves with evolution seed + r * SEED_LIMIT


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import gpembed from this checkout's src/ and the oracles from tests/."""
    src = ROOT / "src"
    for needed in (src / "gpembed" / "__init__.py", ROOT / "tests" / "oracles.py",
                   ROOT / "data" / "wine.csv"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import gpembed

    if Path(gpembed.__file__).resolve().parent != (src / "gpembed").resolve():
        fail(f"imported gpembed from {gpembed.__file__}, not from {src}")
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return oracles


def write_blobs(path, seed: int) -> None:
    centres = np.random.default_rng(BLOBS_CENTRE_SEED).normal(
        0.0, BLOBS_SEPARATION, size=(BLOBS_CLUSTERS, BLOBS_FEATURES))
    rng = np.random.default_rng(seed)
    labels = np.arange(BLOBS_ROWS) % BLOBS_CLUSTERS
    X = centres[labels] + rng.normal(0.0, BLOBS_SPREAD, size=(BLOBS_ROWS, BLOBS_FEATURES))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(f"x{j}" for j in range(BLOBS_FEATURES)) + ",cls\n")
        for row, label in zip(X, labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",c{label}\n")


class Probe:
    """`on_generation` hook: generation timestamps, plus counters when traced.

    Phase follows the last generation reported: -1 while the initial
    population is evaluated, 0..G-1 while offspring are, G for the final
    front.
    """

    def __init__(self, generations: int, tracer: Tracer | None):
        self.generations = generations
        self.tracer = tracer
        self.stamps: list[float] = []
        self.generation = -1
        self.previous = None
        self.replacements = 0
        self.duplicates = 0
        self.accepts = 0
        self.seen: set[tuple[str, ...]] = set()

    def __call__(self, gen, archive_entries, population):
        self.stamps.append(perf_counter())
        self.generation = gen
        if self.tracer is None:
            return
        with self.tracer.span(BOOKKEEPING):
            if self.previous is not None:
                self.replacements += sum(a is not b for a, b in zip(self.previous, population))
            self.previous = population

    @property
    def breeding(self) -> bool:
        return 0 <= self.generation < self.generations

    def saw_entry(self, entry) -> None:
        """Called with every FrontEntry built; counts repeated offspring genotypes."""
        if self.generation >= self.generations:
            return
        if self.breeding and entry.sexprs in self.seen:
            self.duplicates += 1
        self.seen.add(entry.sexprs)

    def saw_add(self, accepted: bool) -> None:
        if self.breeding and accepted:
            self.accepts += 1

    def gen_ms(self) -> list[float]:
        return [(b - a) * 1000.0 for a, b in zip(self.stamps, self.stamps[1:])]


@dataclass
class Trajectory:
    config: object
    out_dir: str
    run_s: float
    report_s: float
    entries: int  # archive + final front entries reported
    probe: Probe
    spans: list = None  # traced trajectories only


class Bench:
    def __init__(self, name: str, seed: int, evo_seed: int | None, work: Path, oracles):
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.evo_seed = next(s for s in (evo_seed, self.wl.evo_seed, seed) if s is not None)
        self.work = work
        self.oracles = oracles
        self.probe: Probe | None = None
        self.setup_times: list[float] = []
        if self.wl.data == "wine":
            self.csv, self.label = ROOT / "data" / "wine.csv", "class"
        else:
            self.csv, self.label = work / "blobs.csv", "cls"
            write_blobs(self.csv, seed)

    # -- phases ---------------------------------------------------------------

    def setup(self):
        """Load the CSV setup_reps times, keeping each time; returns the dataset.

        Loads run before every trajectory, so the setup_s median samples the
        whole run rather than one moment of it.
        """
        from gpembed import dataset

        for _ in range(self.wl.setup_reps):
            start = perf_counter()
            ds = dataset.load_csv(self.csv, label_column=self.label,
                                  max_neighbours=self.wl.max_neighbours)
            self.setup_times.append(perf_counter() - start)
        return ds

    def trajectory(self, r: int, name: str, threads: int, tracer=None):
        """Set up, then one evolution.run + harness.report; returns it and the dataset."""
        from gpembed import evolution, harness

        if tracer is not None:
            tracer.spans = []
        ds = self.setup()
        config = evolution.EvolutionConfig(
            generations=self.wl.generations, population_size=self.wl.population,
            moead_neighbourhood=min(evolution.EvolutionConfig.moead_neighbourhood,
                                    self.wl.population),
            seed=self.evo_seed + r * SEED_LIMIT, threads=threads)
        self.probe = Probe(self.wl.generations, tracer)
        out_dir = str(self.work / name)
        with root_span(tracer, "evolution.run"):
            start = perf_counter()
            result = evolution.run(ds, config, on_generation=self.probe)
            run_s = perf_counter() - start
        with root_span(tracer, "harness.report"):
            start = perf_counter()
            harness.report(result, ds, config, out_dir)
            report_s = perf_counter() - start
        return ds, Trajectory(config, out_dir, run_s, report_s,
                              len(result.archive) + len(result.final_front), self.probe,
                              tracer.spans if tracer is not None else None)

    def cycles(self, seconds: float):
        """Whole cycles of the workload's trajectories while the next one fits."""
        done: list[Trajectory] = []
        start = perf_counter()
        while True:
            cycle_start = perf_counter()
            for r in range(self.wl.trajectories):
                ds, t = self.trajectory(r, f"run-{len(done)}", self.wl.threads)
                done.append(t)
            cycle_s = perf_counter() - cycle_start
            if perf_counter() - start + cycle_s > seconds:
                return ds, done

    def twin(self, tracer=None) -> Trajectory | None:
        """Trajectory 0 again on twin_threads threads, if the workload has a twin."""
        if self.wl.twin_threads is None:
            return None
        return self.trajectory(0, "twin", self.wl.twin_threads, tracer)[1]

    def install(self, tracer: Tracer) -> None:
        from gpembed import complexity, dataset, evolution, harness, manifold_cost

        nodes = lambda args, _: args[0].n_nodes  # noqa: E731
        tracer.wrap(dataset, "neighbour_order", "dataset.neighbour_order", pairwise_mb)
        tracer.wrap(manifold_cost, "cost", "manifold_cost.cost")
        tracer.wrap(manifold_cost, "eval_individual", "expr.eval_individual", nodes)
        tracer.wrap(manifold_cost, "embedding_cost", "manifold_cost.embedding_cost", pairwise_mb)
        tracer.wrap(manifold_cost, "fractional_ranks", "manifold_cost.fractional_ranks",
                    lambda args, ranks: (np.size(ranks), has_ties(ranks)))
        tracer.wrap(complexity, "individual_complexity", "complexity.individual_complexity", nodes)
        tracer.wrap(evolution, "vary", "evolution.vary")
        tracer.wrap(evolution, "_entry", "evolution.archive_add",
                    lambda _, entry: self.probe.saw_entry(entry))
        tracer.wrap(evolution.Archive, "add", "evolution.archive_add",
                    lambda _, accepted: self.probe.saw_add(accepted))
        tracer.wrap(harness, "evaluate_entries", "harness.evaluate_entries")
        tracer.wrap(harness, "knn_cv_accuracy", "harness.knn_cv_accuracy")

    # -- checks ---------------------------------------------------------------

    def check(self, ds, trajectories, twin) -> tuple[list[str], int, int]:
        """Oracle checks; returns problems and the (attempted, failed) twin checks."""
        problems = checks.check_neighbour_order(
            ds, self.oracles, self.wl.neighbour_sample, rng=np.random.default_rng(self.seed))
        first = {}
        for t in trajectories:
            seed = t.config.seed
            if seed in first:
                if not checks.same_bytes(first[seed], t.out_dir):
                    problems.append(f"{t.out_dir}: rerun of seed {seed} changed front/telemetry")
                continue
            first[seed] = t.out_dir
            problems += checks.check_front(t.out_dir, ds, t.config, self.oracles)
        if twin is None:
            return problems, 0, 0
        same = checks.same_bytes(twin.out_dir, first[twin.config.seed])
        return problems, 1, 0 if same else 1


def root_span(tracer, name):
    return tracer.span(name, root=True) if tracer is not None else nullcontext()


def pairwise_mb(args, _) -> float:
    """MB of an n x n x d float64 array for the (n, d) first argument: the
    full difference array that neighbour_order and embedding_cost build."""
    n, d = np.shape(args[0])
    return n * n * d * 8 / 1e6


def has_ties(ranks) -> bool:
    """Whether any row of fractional ranks holds a tie.

    Ties replace distinct ranks by their mean, which keeps each row's sum
    and strictly lowers its sum of squares below that of 1..w.  Ranks are
    multiples of 1/2, so the sums are exact.
    """
    r = np.atleast_2d(ranks)
    w = r.shape[1]
    return bool(((r * r).sum(axis=1) < w * (w + 1) * (2 * w + 1) / 6).any())


def offspring_per_s(trajectories) -> float:
    """Median over trajectories of offspring bred per second of evolution.run."""
    return statistics.median(
        t.config.population_size * t.config.generations / t.run_s for t in trajectories)


def end_to_end(trajectories, setup_times, peak_rss_mb) -> dict:
    gen_ms = [ms for t in trajectories for ms in t.probe.gen_ms()]
    # the union of the trajectories' fronts: the best a user gets from the cycle's seeds
    rows = [r for t in trajectories for r in checks.read_front(t.out_dir)]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "offspring_per_s": (offspring_per_s(trajectories), "1/s"),
        "gen_ms.p50": (float(np.percentile(gen_ms, 50)), "ms"),
        "gen_ms.p90": (float(np.percentile(gen_ms, 90)), "ms"),
        "report_ms_per_entry": (
            statistics.median(1000.0 * t.report_s / t.entries for t in trajectories), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "front_hypervolume": (front_hypervolume((r["cost"], r["complexity"]) for r in rows), "1"),
        "front_knn_acc.max": (max(r["knn_acc_mean"] for r in rows), "fraction"),
    }


def pool_efficiency(trajectories) -> float:
    """Evaluation span time over evolution.run time times threads."""
    evaluation = capacity = 0.0
    for t in trajectories:
        total, _, _ = summarise(t.spans)
        evaluation += total["manifold_cost.cost"] + total["complexity.individual_complexity"]
        capacity += total["evolution.run"] * t.config.threads
    return evaluation / capacity


def per_layer(traced, untraced, twin) -> dict:
    spans = [s for t in traced for s in t.spans]
    total, self_time, calls = summarise(spans)
    n = len(traced)

    def extras(name):
        return [s.extra for s in spans if s.name == name]

    cost_ms = [s.duration * 1000.0 for s in spans if s.name == "manifold_cost.cost"]
    ranks = extras("manifold_cost.fractional_ranks")
    order_spans = [s for s in spans if s.name == "dataset.neighbour_order"]
    return {
        "dataset.neighbour_order.s": (statistics.median(s.duration for s in order_spans), "s"),
        "dataset.neighbour_order.temp_mb": (order_spans[0].extra, "MB"),
        "expr.eval_individual.s": (total["expr.eval_individual"] / n, "s"),
        "expr.eval_individual.calls": (calls["expr.eval_individual"] / n, "count"),
        "expr.nodes_evaluated": (sum(extras("expr.eval_individual")) / n, "count"),
        "manifold_cost.cost.s": (total["manifold_cost.cost"] / n, "s"),
        "manifold_cost.cost.calls": (calls["manifold_cost.cost"] / n, "count"),
        "manifold_cost.fractional_ranks.s": (total["manifold_cost.fractional_ranks"] / n, "s"),
        "manifold_cost.embedding_cost.self_s": (
            self_time["manifold_cost.embedding_cost"] / n, "s"),
        "manifold_cost.distance_mb": (
            statistics.fmean(extras("manifold_cost.embedding_cost")), "MB"),
        "manifold_cost.ranked_values": (sum(v for v, _ in ranks) / n, "count"),
        "manifold_cost.tied_individuals": (sum(t for _, t in ranks) / n, "count"),
        "manifold_cost.call_ms.p50": (float(np.percentile(cost_ms, 50)), "ms"),
        "manifold_cost.call_ms.p99": (float(np.percentile(cost_ms, 99)), "ms"),
        "complexity.individual_complexity.s": (
            total["complexity.individual_complexity"] / n, "s"),
        "complexity.individual_complexity.calls": (
            calls["complexity.individual_complexity"] / n, "count"),
        "complexity.nodes": (sum(extras("complexity.individual_complexity")) / n, "count"),
        "evolution.vary.s": (total["evolution.vary"] / n, "s"),
        "evolution.vary.calls": (calls["evolution.vary"] / n, "count"),
        "evolution.archive_add.s": (total["evolution.archive_add"] / n, "s"),
        "evolution.run.self_s": (self_time["evolution.run"] / n, "s"),
        "evolution.duplicate_offspring": (sum(t.probe.duplicates for t in traced) / n, "count"),
        "evolution.replacements": (sum(t.probe.replacements for t in traced) / n, "count"),
        "evolution.archive_accepts": (sum(t.probe.accepts for t in traced) / n, "count"),
        # the multi-threaded twin where there is one: a single thread only
        # shows the share of the search spent evaluating
        "evolution.pool_efficiency": (pool_efficiency([twin] if twin else traced), "fraction"),
        "harness.evaluate_entries.s": (total["harness.evaluate_entries"] / n, "s"),
        "harness.knn_cv_accuracy.s": (total["harness.knn_cv_accuracy"] / n, "s"),
        "harness.knn_cv_accuracy.calls": (calls["harness.knn_cv_accuracy"] / n, "count"),
        "harness.write.s": (self_time["harness.report"] / n, "s"),
        "trace.offspring_per_s_delta": (
            offspring_per_s(traced) - offspring_per_s(untraced), "1/s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--evo-seed", type=int,
                        help="evolution seed in place of the workload's own (blobs-2k: 1)")
    args = parser.parse_args(argv)
    for name in ("seed", "evo_seed"):
        if getattr(args, name) is not None and not 0 <= getattr(args, name) < SEED_LIMIT:
            fail(f"--{name.replace('_', '-')} must lie in [0, {SEED_LIMIT})")
    oracles = import_program()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        bench = Bench(args.workload, args.seed, args.evo_seed, work, oracles)
        ds, trajectories = bench.cycles(args.seconds)
        if args.trace:
            tracer = Tracer()
            bench.install(tracer)
            try:
                traced = [bench.trajectory(r, f"traced-{r}", bench.wl.threads, tracer)[1]
                          for r in range(bench.wl.trajectories)]
                twin = bench.twin(tracer)
            finally:
                tracer.close()
            metrics = per_layer(traced, trajectories, twin)
            trajectories += traced
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            metrics = end_to_end(trajectories, bench.setup_times, peak_rss_mb)
            twin = bench.twin()
        problems, twin_attempted, twin_failed = bench.check(ds, trajectories, twin)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:  # another run still uses it
            pass

    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(trajectories) + twin_attempted,
        "failed": twin_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
