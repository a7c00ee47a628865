"""Command-line entry point: `run`, `score`, and `embed` subcommands.

Values resolve as defaults < config file < flags, and every run writes the
fully resolved configuration next to its outputs so it can be replayed
exactly (`gpembed run --config <out>/config.resolved`).
"""
from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from typing import NamedTuple

from . import evolution, harness
from .complexity import (DEFAULT_OPERATOR_COSTS, CostClass, CostModel, baseline_complexity,
                         individual_complexity, tree_complexity)
from .dataset import from_arrays, normalize, read_csv
from .expr import OPERATORS, Individual, eval_individual, max_feature_index, parse


class ConfigError(ValueError):
    pass


class Setting(NamedTuple):
    """One config key: its type, its default (None = unset), when a flag sets
    it too the flag's argparse dest (the flag is `--dest` with dashes), the
    subcommands that take the flag and its help text, and for an `evo.*` or
    `cost.*` key the `EvolutionConfig` or `CostModel` keyword it fills."""

    kind: type
    default: object = None
    dest: str | None = None
    commands: tuple[str, ...] = ()
    help: str | None = None
    field: str | None = None


_RUN = ("run",)
_DATA = ("run", "embed")
_COST = ("run", "score")

# flat config-file keys; the `cost.<operator>` keys come from the operator table
CONFIG_SCHEMA: dict[str, Setting] = {
    "data.path": Setting(str, None, "data", _DATA, "dataset CSV path"),
    "data.label_col": Setting(str, None, "label_col", _DATA, "name of the label column"),
    "cost.max_neighbours": Setting(int, None, "max_neighbours", _RUN, "neighbours ranked per row"),
    "cost.mu": Setting(float, 0.75, "mu", _COST, "scaling threshold", "mu"),
    "cost.size_max": Setting(int, 100, "size_max", _COST, "scaling reference size", "size_max"),
    "cost.leaf": Setting(float, 1.0, "leaf", _COST, "leaf complexity weight", "leaf_complexity"),
    "out.dir": Setting(str, "out", "out", _RUN, "output directory (default: out)"),
    "evo.seed": Setting(int, 0, "seed", _RUN, "run seed", "seed"),
    "evo.generations": Setting(int, 1000, "generations", _RUN, "number of generations",
                               "generations"),
    "evo.population": Setting(int, 100, "population", _RUN, "population size",
                              "population_size"),
    "evo.threads": Setting(int, 1, "threads", _RUN, "threads evaluating offspring", "threads"),
    "evo.p_xover": Setting(float, 0.70, "p_xover", _RUN, "crossover probability",
                           "p_crossover"),
    "evo.p_mut": Setting(float, 0.15, "p_mut", _RUN, "subtree mutation probability",
                         "p_standard_mutation"),
    "evo.p_tree_mut": Setting(float, 0.15, "p_tree_mut", _RUN, "add/remove-tree probability",
                              "p_tree_mutation"),
    "evo.min_depth": Setting(int, 2, "min_depth", _RUN, "minimum tree depth", "min_depth"),
    "evo.max_depth": Setting(int, 14, "max_depth", _RUN, "maximum tree depth", "max_depth"),
    "evo.neighbourhood": Setting(int, 15, "neighbourhood", _RUN, "mating neighbourhood size",
                                 "moead_neighbourhood"),
    "eval.k": Setting(int, 5, "k", _RUN, "KNN neighbours for evaluation"),
    "eval.folds": Setting(int, 10, "folds", _RUN, "cross-validation folds"),
    **{f"cost.{op}": Setting(str) for op in OPERATORS},
}


def parse_config_file(path) -> dict[str, object]:
    values: dict[str, object] = {}
    for line_no, raw in enumerate(_read_lines(path, "config"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = _coerce(key, value)
    return values


def _read_lines(path, kind: str) -> list[str]:
    """The lines of a user's `kind` file, read as UTF-8 less any leading BOM."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc


def _coerce(key: str, value: str):
    kind = CONFIG_SCHEMA[key].kind
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {kind.__name__}") from None


def parse_cost_set(text: str) -> dict[str, str]:
    overrides: dict[str, str] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"--cost-set entries must look like op=class, got {item!r}")
        op, _, cls = item.partition("=")
        overrides[op.strip()] = cls.strip()
    return overrides


def resolve_config(args: argparse.Namespace) -> dict[str, object]:
    values = {key: setting.default for key, setting in CONFIG_SCHEMA.items()}
    if args.config:
        values.update(parse_config_file(args.config))
    for key, setting in CONFIG_SCHEMA.items():
        if setting.dest and getattr(args, setting.dest, None) is not None:
            values[key] = getattr(args, setting.dest)
    if getattr(args, "cost_set", None):
        for op, cls in parse_cost_set(args.cost_set).items():
            if op not in OPERATORS:
                raise ConfigError(f"--cost-set names unknown operator {op!r}")
            values[f"cost.{op}"] = cls
    return values


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _label(key: str) -> str:
    """A setting as errors name it, by key and flag, e.g. "evo.population (--population)"."""
    return f"{key} ({_flag(CONFIG_SCHEMA[key].dest)})"


def _build(section: str, make, values: dict[str, object], *args):
    """``make(*args, **fields)``, each field filled from its `<section>.*` key;
    a ValueError it raises names each such field by its `_label`."""
    keys = {setting.field: key for key, setting in CONFIG_SCHEMA.items()
            if setting.field and key.startswith(section + ".")}
    try:
        return make(*args, **{field: values[key] for field, key in keys.items()})
    except ValueError as exc:
        raise ConfigError(re.sub(r"\b(?:" + "|".join(keys) + r")\b",
                                 lambda m: _label(keys[m.group()]), str(exc))) from None


def build_cost_model(values: dict[str, object]) -> CostModel:
    set_costs = {op: CostClass.from_string(values[f"cost.{op}"])
                 for op in OPERATORS if values[f"cost.{op}"] is not None}
    return _build("cost", CostModel, values, {**DEFAULT_OPERATOR_COSTS, **set_costs})


def build_evolution_config(values: dict[str, object]) -> evolution.EvolutionConfig:
    return _build("evo", evolution.EvolutionConfig, values)


def resolved_text(values: dict[str, object]) -> str:
    """The set values as config-file text that `parse_config_file` reads back
    unchanged; a value it would read differently is a ConfigError."""
    lines = []
    for key in sorted(values):
        if values[key] is None:
            continue
        text = str(values[key])
        if "#" in text or "\n" in text or "\r" in text or text != text.strip():
            raise ConfigError(
                f"{key} = {text!r} cannot be replayed from a config file: "
                "it holds '#', a line break, or leading or trailing whitespace"
            )
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


def _load_trees(path) -> Individual:
    lines = [line.strip() for line in _read_lines(path, "tree")]
    trees = tuple(parse(line) for line in lines if line)
    if not trees:
        raise ConfigError(f"{path}: no trees found")
    return Individual(trees=trees)


def _data_path(values: dict[str, object]) -> str:
    if not values["data.path"]:
        raise ConfigError("a dataset is required (--data or data.path)")
    return values["data.path"]


def cmd_run(args) -> int:
    values = resolve_config(args)
    cost_model = build_cost_model(values)
    config = build_evolution_config(values)
    k, folds, nbrs = values["eval.k"], values["eval.folds"], values["cost.max_neighbours"]
    for key, least in (("eval.k", 1), ("cost.max_neighbours", 1), ("eval.folds", 2)):
        if values[key] is not None and values[key] < least:
            raise ConfigError(f"{_label(key)} must be >= {least}, got {values[key]}")
    resolved = resolved_text(values)  # refused before any file I/O if not replayable
    matrix, labels, names = read_csv(_data_path(values), values["data.label_col"])
    # loading builds the n x k neighbour order, which the search and the report
    # keep; every distance loop adds only blocks of dataset.BLOCK_VALUES values
    n = matrix.shape[0]
    no_memory = ConfigError(f"out of memory holding {n} x {min(nbrs or n, n - 1)} neighbours; "
                            f"set a lower {_label('cost.max_neighbours')}")
    try:
        dataset = from_arrays(matrix, labels, names, max_neighbours=nbrs)
    except MemoryError:
        raise no_memory from None
    if dataset.labels is not None:
        if folds > dataset.n_instances:
            raise ConfigError(
                f"{_label('eval.folds')} = {folds} exceeds the {dataset.n_instances} instances"
            )
        with warnings.catch_warnings():  # the report gives any fold warning itself
            warnings.simplefilter("ignore")
            assignment = harness.fold_assignment(
                dataset.labels, folds, evolution.derive_rng(config.seed, evolution.LABEL_FOLDS))
        train = min(int((assignment != f).sum()) for f in range(folds))
        if k > train:
            raise ConfigError(f"{_label('eval.k')} = {k} exceeds a fold's {train} training rows")

    out_dir = values["out.dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "config.resolved"), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(resolved)
    except OSError as exc:
        raise ConfigError(f"{_label('out.dir')} = {out_dir}: {exc}") from exc

    try:
        result = evolution.run(dataset, config, cost_model=cost_model)
        records = harness.report(result, dataset, config, out_dir, k=k, folds=folds,
                                 model=cost_model)
    except MemoryError:
        raise no_memory from None

    print(f"archive: {len(result.archive)} non-dominated individuals "
          f"({len(result.final_front)} in the final population front)")
    print(f"{'id':>4} {'cost':>10} {'complexity':>12} {'trees':>5} {'nodes':>5} {'knn_acc':>8}")
    entries = harness.sorted_entries(result.archive)
    for entry_id, (entry, rec) in enumerate(zip(entries, records)):
        acc = f"{rec.knn_acc_mean:.3f}" if rec.knn_acc_mean == rec.knn_acc_mean else "-"
        print(
            f"{entry_id:>4} {rec.cost:>10.4f} {rec.complexity:>12.2f} "
            f"{len(entry.individual.trees):>5} {rec.stats.n_nodes:>5} {acc:>8}"
        )
    print(f"reports written to {out_dir}")
    return 0


def cmd_score(args) -> int:
    values = resolve_config(args)
    cost_model = build_cost_model(values)
    ind = _load_trees(args.tree_file)
    for idx, tree in enumerate(ind.trees):
        tc = tree_complexity(tree, cost_model)
        base = baseline_complexity(tree)
        print(f"tree {idx}: F(T) = {tc.value}")
        asymmetry_total = sum(c.asymmetry for c in tc.contributions)
        print(f"  nodes = {tree.size}  scaling = {tc.scaling}  "
              f"asymmetry_total = {asymmetry_total}  baseline = {base}")
        for contrib in tc.contributions:
            print(f"    {contrib.op}: formula {contrib.formula_value}, "
                  f"asymmetry {contrib.asymmetry}")
    print(f"individual complexity = {individual_complexity(ind, cost_model)}")
    return 0


def cmd_embed(args) -> int:
    values = resolve_config(args)
    ind = _load_trees(args.tree_file)
    instances = normalize(read_csv(_data_path(values), values["data.label_col"])[0])
    for idx, tree in enumerate(ind.trees):
        top = max_feature_index(tree)
        if top >= instances.shape[1]:
            raise ConfigError(
                f"tree {idx} references f{top} but the dataset has "
                f"{instances.shape[1]} features"
            )
    embedding = eval_individual(ind, instances)
    try:  # an --out that cannot be written is refused like run's out.dir
        harness._write_csv(args.out, ",".join(f"e{j}" for j in range(len(ind.trees))), embedding)
    except OSError as exc:
        raise ConfigError(f"--out = {args.out}: {exc}") from exc
    print(f"embedding ({embedding.shape[0]} x {embedding.shape[1]}) written to {args.out}")
    return 0


def _add_flags(sub: argparse.ArgumentParser, command: str) -> None:
    sub.add_argument("--config", help="config file of 'key = value' lines")
    if command in _COST:
        sub.add_argument("--cost-set", dest="cost_set",
                         help="operator cost overrides, e.g. mul=sum,relu=prod")
    for setting in CONFIG_SCHEMA.values():
        if command in setting.commands:
            sub.add_argument(
                _flag(setting.dest),
                dest=setting.dest,
                type=None if setting.kind is str else setting.kind,
                help=setting.help,
            )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpembed",
        description="Evolve explainable tree mappings to low-dimensional embeddings.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run an evolutionary search and write reports")
    _add_flags(run_p, "run")
    run_p.set_defaults(func=cmd_run)

    score_p = subs.add_parser("score", help="print the complexity breakdown of trees")
    score_p.add_argument("tree_file", help="file of s-expressions, one per line")
    _add_flags(score_p, "score")
    score_p.set_defaults(func=cmd_score)

    embed_p = subs.add_parser("embed", help="evaluate trees on a dataset to a CSV")
    embed_p.add_argument("tree_file", help="file of s-expressions, one per line")
    _add_flags(embed_p, "embed")
    embed_p.add_argument("--out", default="embedding.csv",
                         help="embedding CSV path (default: embedding.csv)")
    embed_p.set_defaults(func=cmd_embed)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, DatasetError and TreeParseError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
