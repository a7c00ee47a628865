import dataclasses
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import WINE_CSV, make_clusters
from gpembed.cli import (
    CONFIG_SCHEMA,
    ConfigError,
    build_cost_model,
    build_evolution_config,
    build_parser,
    main,
    parse_config_file,
    parse_cost_set,
    resolve_config,
    resolved_text,
)
from gpembed.complexity import DEFAULT_COST_MODEL
from gpembed.dataset import load_csv
from gpembed.evolution import EvolutionConfig
from gpembed.expr import Individual, eval_individual, parse as parse_tree
from gpembed.manifold_cost import embedding_cost


@pytest.fixture
def tiny_csv(tmp_path):
    X, labels = make_clusters(10, 4, 2, seed=0)
    path = tmp_path / "tiny.csv"
    header = "a,b,c,d,cls"
    lines = [header]
    for row, label in zip(X, labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{label}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_args(tiny_csv, out_dir, extra=()):
    return [
        "run",
        "--data", tiny_csv,
        "--label-col", "cls",
        "--out", str(out_dir),
        "--seed", "7",
        "--generations", "3",
        "--population", "8",
        "--neighbourhood", "4",
        *extra,
    ]


class TestRunCommand:
    def test_run_writes_all_reports(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_args(tiny_csv, out)) == 0
        for name in (
            "front.csv",
            "final_front.csv",
            "summary.csv",
            "telemetry.csv",
            "baseline.csv",
            "config.resolved",
        ):
            assert (out / name).exists(), name
        stdout = capsys.readouterr().out
        assert "archive:" in stdout
        assert "knn_acc" in stdout

    def test_identical_invocations_match_byte_for_byte(self, tiny_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(run_args(tiny_csv, out_a)) == 0
        assert main(run_args(tiny_csv, out_b)) == 0
        assert (out_a / "front.csv").read_bytes() == (out_b / "front.csv").read_bytes()
        assert (out_a / "telemetry.csv").read_bytes() == (out_b / "telemetry.csv").read_bytes()

    def test_bad_probabilities_exit_one(self, tiny_csv, tmp_path, capsys):
        code = main(run_args(tiny_csv, tmp_path / "x", extra=["--p-xover", "0.9", "--p-mut", "0.2"]))
        assert code == 1
        assert "probabilities must sum to 1" in capsys.readouterr().err

    def test_missing_dataset_exit_one(self, tmp_path, capsys):
        code = main(["run", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_resolved_reproduces_run(self, tiny_csv, tmp_path):
        out_a = tmp_path / "a"
        assert main(run_args(tiny_csv, out_a)) == 0
        out_b = tmp_path / "b"
        assert main([
            "run", "--config", str(out_a / "config.resolved"), "--out", str(out_b),
        ]) == 0
        assert (out_a / "front.csv").read_bytes() == (out_b / "front.csv").read_bytes()

    def test_hash_in_data_path_rejected_before_search(self, tiny_csv, tmp_path, capsys):
        # '#' starts a comment in a config file, so this path would not replay
        hashed = tmp_path / "a#b"
        hashed.mkdir()
        data = shutil.copy(tiny_csv, hashed / "tiny.csv")
        out = tmp_path / "out"
        assert main(run_args(str(data), out)) == 1
        assert "cannot be replayed" in capsys.readouterr().err
        assert not out.exists()

    # tiny_csv holds 20 labelled instances
    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "0", "eval.k (--k) must be >= 1"),
        ("--folds", "0", "eval.folds (--folds) must be >= 2"),
        ("--folds", "1", "eval.folds (--folds) must be >= 2"),
        ("--folds", "21", "exceeds the 20 instances"),
        # 10 stratified folds of 2: each trains on 18
        ("--k", "19", "eval.k (--k) = 19 exceeds a fold's 18 training rows"),
    ])
    def test_bad_evaluation_settings_rejected_before_search(
        self, tiny_csv, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "out"
        assert main(run_args(tiny_csv, out, extra=[flag, value])) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    # Wine's largest of the 10 folds holds 19 of its 178 instances, so one trains on 159
    @pytest.mark.parametrize("k, code", [("5", 0), ("159", 0), ("160", 1)])
    def test_k_above_a_training_fold_rejected_before_search(self, tmp_path, capsys, k, code):
        out = tmp_path / "out"
        argv = ["run", "--data", WINE_CSV, "--label-col", "class", "--out", str(out),
                "--generations", "1", "--population", "8", "--neighbourhood", "4", "--k", k]
        assert main(argv) == code
        if code:
            assert "eval.k (--k) = 160 exceeds a fold's 159 training" in capsys.readouterr().err
        assert out.exists() == (code == 0)

    def test_out_naming_a_file_exits_one(self, tiny_csv, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        assert main(run_args(tiny_csv, taken)) == 1
        assert f"out.dir (--out) = {taken}" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == ""

    @pytest.mark.parametrize("flag, value", [("--max-depth", "4"), ("--min-depth", "7")])
    def test_depth_range_error_names_settable_bounds(self, tiny_csv, tmp_path, capsys,
                                                     flag, value):
        assert main(run_args(tiny_csv, tmp_path / "o", extra=[flag, value])) == 1
        assert ("evo.min_depth (--min-depth) <= 6 <= evo.max_depth (--max-depth)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("extra, message", [
        (["--neighbourhood", "80", "--population", "64"],
         "evo.neighbourhood (--neighbourhood) must not exceed evo.population (--population)"),
        (["--population", "3", "--neighbourhood", "2"],
         "evo.population (--population) must be >= 4"),
        (["--p-xover", "1.2", "--p-mut", "-0.1", "--p-tree-mut", "-0.1"],
         "evo.p_xover (--p-xover) must be in [0, 1]"),
        (["--leaf", "0"], "cost.leaf (--leaf) must be > 0"),
        (["--leaf", "nan"], "cost.leaf (--leaf) must be > 0 and finite"),
        (["--leaf", "inf"], "cost.leaf (--leaf) must be > 0 and finite"),
        (["--max-neighbours", "0"], "cost.max_neighbours (--max-neighbours) must be >= 1"),
        (["--cost-set", "mul="], "unknown cost class ''"),
        (["--seed", "-1"], "evo.seed (--seed) must be >= 0"),
        (["--cost-set", "mul=seed"], "unknown cost class 'seed'"),
        (["--cost-set", "mul=mu"], "unknown cost class 'mu'"),
    ], ids=["neighbourhood", "population", "p-xover", "leaf-0", "leaf-nan", "leaf-inf",
            "max-neighbours", "empty-cost-class", "seed", "cost-class-seed", "cost-class-mu"])
    def test_setting_errors_name_key_and_flag(self, tiny_csv, tmp_path, capsys, extra, message):
        out = tmp_path / "out"
        assert main(run_args(tiny_csv, out, extra=extra)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_leaf_weight_above_cap_rejected_before_search(self, tiny_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(run_args(tiny_csv, out, extra=["--leaf", "1e200"])) == 1
        assert "cost.leaf (--leaf) must be at most 2**64" in capsys.readouterr().err
        assert not out.exists()

    def test_cost_set_flag(self, tiny_csv, tmp_path):
        out = tmp_path / "cs"
        assert main(run_args(tiny_csv, out, extra=["--cost-set", "mul=sum,relu=prod"])) == 0
        resolved = (out / "config.resolved").read_text()
        assert "cost.mul = sum" in resolved
        assert "cost.relu = prod" in resolved

    def test_reused_out_keeps_only_this_runs_trees(self, tmp_path):
        out = tmp_path / "out"
        argv = ["run", "--data", WINE_CSV, "--label-col", "class", "--out", str(out),
                "--generations", "5", "--population", "8", "--neighbourhood", "4"]
        assert main([*argv, "--seed", "1"]) == 0
        first = len(list((out / "trees").glob("*.sexp")))
        others = ("notes.txt", "3.sexp.bak", "x.dot", "trees.sexp")  # not tree files
        for name in others:
            (out / "trees" / name).write_text("kept", encoding="utf-8")
        (out / "trees" / "99.dot").mkdir()  # named like a tree file, but a directory
        assert main([*argv, "--seed", "2"]) == 0
        ids = [line.split(",")[0] for line in (out / "front.csv").read_text().splitlines()[1:]]
        assert 0 < len(ids) < first  # the first run's last trees must go
        assert {p.name for p in (out / "trees").iterdir()} == {
            f"{i}.{ext}" for i in ids for ext in ("sexp", "dot")} | {*others, "99.dot"}
        assert all((out / "trees" / name).read_text(encoding="utf-8") == "kept"
                   for name in others)

    def test_failed_run_leaves_the_previous_files(self, tiny_csv, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(run_args(tiny_csv, out)) == 0
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert out / "config.resolved" in before and out / "trees" / "0.sexp" in before

        def allocate(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("gpembed.evolution.run", allocate)
        assert main(run_args(tiny_csv, out, extra=["--seed", "8"])) == 1
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    # an allocation in each phase; tiny.csv has 20 rows
    @pytest.mark.parametrize("target, extra, needed", [
        ("gpembed.dataset.neighbour_order", [], "20 x 19"),
        ("gpembed.manifold_cost.sq_distances", ["--max-neighbours", "6"], "20 x 6"),
        ("gpembed.harness.sq_distances", ["--max-neighbours", "6"], "20 x 6"),
    ], ids=["load", "search", "report"])
    def test_out_of_memory_exits_one_naming_max_neighbours(self, tiny_csv, tmp_path, capsys,
                                                           monkeypatch, target, extra, needed):
        def allocate(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(target, allocate)
        assert main(run_args(tiny_csv, tmp_path / "out", extra=extra)) == 1
        err = capsys.readouterr().err
        assert f"out of memory holding {needed} neighbours" in err
        assert "cost.max_neighbours (--max-neighbours)" in err


class TestConfigResolution:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("evo.genertions = 10\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("evo.generations\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# comment\n\nevo.generations = 12  # trailing\n", encoding="utf-8")
        assert parse_config_file(cfg) == {"evo.generations": 12}

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("evo.seed = 1\nevo.generations = 5\n", encoding="utf-8")
        import argparse

        args = argparse.Namespace(config=str(cfg), seed=9, cost_set=None)
        values = resolve_config(args)
        assert values["evo.seed"] == 9  # flag wins
        assert values["evo.generations"] == 5  # file beats default
        assert values["evo.population"] == 100  # default

    def test_type_errors_are_config_errors(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("evo.generations = soon\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_file(cfg)

    def test_write_resolved_round_trip(self, tmp_path):
        args = build_parser().parse_args([
            "run", "--data", "data dir/wine.csv", "--label-col", "class", "--seed", "3",
            "--p-xover", "0.6", "--p-mut", "0.25", "--p-tree-mut", "0.15", "--mu", "0.8",
            "--max-neighbours", "40", "--cost-set", "mul=sum,relu=prod",
        ])
        values = resolve_config(args)
        (tmp_path / "config.resolved").write_text(resolved_text(values), encoding="utf-8")
        assert parse_config_file(tmp_path / "config.resolved") == {
            key: value for key, value in values.items() if value is not None
        }

    @pytest.mark.parametrize("bad", ["a#b.csv", " wine.csv", "wine.csv ", "a\nb.csv", "a\rb.csv"])
    def test_write_resolved_rejects_unreadable_values(self, bad):
        with pytest.raises(ConfigError, match="cannot be replayed"):
            resolved_text({"data.path": bad})

    def test_flag_set(self):
        # option strings, dests and types per subcommand; str flags carry no type
        common = {
            "--config": ("config", None),
            "--mu": ("mu", float),
            "--size-max": ("size_max", int),
            "--leaf": ("leaf", float),
            "--cost-set": ("cost_set", None),
        }
        data = {
            "--data": ("data", None),
            "--label-col": ("label_col", None),
            "--max-neighbours": ("max_neighbours", int),
        }
        expected = {
            "run": {
                **common,
                **data,
                "--out": ("out", None),
                "--seed": ("seed", int),
                "--generations": ("generations", int),
                "--population": ("population", int),
                "--threads": ("threads", int),
                "--p-xover": ("p_xover", float),
                "--p-mut": ("p_mut", float),
                "--p-tree-mut": ("p_tree_mut", float),
                "--min-depth": ("min_depth", int),
                "--max-depth": ("max_depth", int),
                "--neighbourhood": ("neighbourhood", int),
                "--k": ("k", int),
                "--folds": ("folds", int),
            },
            "score": {**common, "tree_file": ("tree_file", None)},
            "embed": {
                "--config": ("config", None),
                "--data": ("data", None),
                "--label-col": ("label_col", None),
                "--out": ("out", None),
                "tree_file": ("tree_file", None),
            },
        }
        subparsers = next(a for a in build_parser()._actions if a.dest == "command")
        assert set(subparsers.choices) == set(expected)
        for command, sub in subparsers.choices.items():
            flags = {
                " ".join(action.option_strings) or action.dest: (action.dest, action.type)
                for action in sub._actions
                if action.dest != "help"
            }
            assert flags == expected[command], command

    def test_each_config_field_has_one_key(self):
        owners = {"evo": EvolutionConfig(), "cost": DEFAULT_COST_MODEL}
        wanted = {
            "evo": sorted(f.name for f in dataclasses.fields(EvolutionConfig)),
            "cost": ["leaf_complexity", "mu", "size_max"],
        }
        for section, fields in wanted.items():
            settings = {
                key: setting for key, setting in CONFIG_SCHEMA.items()
                if setting.field and key.startswith(section + ".")
            }
            assert sorted(s.field for s in settings.values()) == fields
            for key, setting in settings.items():
                assert setting.default == getattr(owners[section], setting.field), key

    def test_config_file_sets_every_field(self, tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text(
            "evo.seed = 5\nevo.generations = 7\nevo.population = 12\nevo.threads = 2\n"
            "evo.p_xover = 0.5\nevo.p_mut = 0.3\nevo.p_tree_mut = 0.2\n"
            "evo.min_depth = 3\nevo.max_depth = 9\nevo.neighbourhood = 5\n"
            "cost.mu = 0.5\ncost.size_max = 50\ncost.leaf = 2.0\n",
            encoding="utf-8",
        )
        values = parse_config_file(cfg)
        assert {key for key in values if key.startswith("evo.")} == {
            key for key in CONFIG_SCHEMA if key.startswith("evo.")
        }
        values = resolve_config(build_parser().parse_args(["run", "--config", str(cfg)]))
        config = build_evolution_config(values)
        assert config == EvolutionConfig(
            generations=7, population_size=12, p_crossover=0.5, p_standard_mutation=0.3,
            p_tree_mutation=0.2, min_depth=3, max_depth=9, moead_neighbourhood=5, seed=5,
            threads=2,
        )
        for f in dataclasses.fields(EvolutionConfig):
            assert getattr(config, f.name) != f.default, f.name
        model = build_cost_model(values)
        assert (model.mu, model.size_max, model.leaf_complexity) == (0.5, 50, 2.0)
        assert model.operator_costs == DEFAULT_COST_MODEL.operator_costs

    def test_parse_cost_set(self):
        assert parse_cost_set("mul=sum, relu=prod") == {"mul": "sum", "relu": "prod"}
        with pytest.raises(ConfigError):
            parse_cost_set("mul")

    def test_unknown_cost_class_rejected(self, tiny_csv, tmp_path, capsys):
        code = main(run_args(tiny_csv, tmp_path / "o", extra=["--cost-set", "mul=quadratic"]))
        assert code == 1
        assert "unknown cost class" in capsys.readouterr().err


class TestScoreCommand:
    def test_score_breakdown(self, tmp_path, capsys):
        path = tmp_path / "trees.sexp"
        path.write_text("(add f0 f1)\n(mul (add f0 f1) f2)\n", encoding="utf-8")
        assert main(["score", str(path)]) == 0
        out = capsys.readouterr().out
        assert "F(T) = 2.0" in out
        assert "F(T) = 8.0" in out
        assert "baseline = 4.0" in out
        assert "individual complexity = 10.0" in out

    def test_leading_utf8_bom_is_dropped(self, tmp_path, capsys):
        text = "(add f0 f1)\n(mul (add f0 f1) f2)\n"
        plain, marked = tmp_path / "plain.sexp", tmp_path / "marked.sexp"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert main(["score", str(plain)]) == 0
        want = capsys.readouterr().out
        assert main(["score", str(marked)]) == 0
        assert capsys.readouterr().out == want

    def test_empty_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "empty.sexp"
        path.write_text("", encoding="utf-8")
        assert main(["score", str(path)]) == 1
        assert "no trees" in capsys.readouterr().err

    def test_parse_error_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.sexp"
        path.write_text("(foo f0)\n", encoding="utf-8")
        assert main(["score", str(path)]) == 1
        err = capsys.readouterr().err
        assert "'foo'" in err
        assert "position" in err

    def test_too_deep_tree_exits_one_with_position(self, tmp_path, capsys):
        path = tmp_path / "deep.sexp"
        path.write_text("(abs " * 1200 + "f0" + ")" * 1200 + "\n", encoding="utf-8")
        assert main(["score", str(path)]) == 1
        err = capsys.readouterr().err
        assert "deeper than" in err
        assert "position" in err

    def test_score_respects_cost_flags(self, tmp_path, capsys):
        path = tmp_path / "trees.sexp"
        path.write_text("(mul f0 f1)\n", encoding="utf-8")
        assert main(["score", str(path), "--cost-set", "mul=sum"]) == 0
        assert "F(T) = 2.0" in capsys.readouterr().out

    def test_empty_cost_class_in_config_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "trees.sexp"
        path.write_text("(mul f0 f1)\n", encoding="utf-8")
        cfg = tmp_path / "costs.cfg"
        cfg.write_text("cost.mul =\n", encoding="utf-8")
        assert main(["score", str(path), "--config", str(cfg)]) == 1
        assert "unknown cost class ''" in capsys.readouterr().err


class TestNonUtf8Files:
    """A data, tree or config file that is not UTF-8 exits 1 naming the file."""

    @pytest.mark.parametrize("kind", ["data", "tree", "config"])
    def test_refused_naming_the_file(self, tiny_csv, tmp_path, capsys, kind):
        trees = tmp_path / "trees.sexp"
        trees.write_text("(mul f0 f1)\n", encoding="utf-8")
        bad = tmp_path / f"latin1.{kind}"
        if kind == "data":
            bad.write_bytes(Path(tiny_csv).read_bytes().replace(b",cls", b",cl\xe9"))
            argv, out = run_args(str(bad), tmp_path / "out"), tmp_path / "out"
        elif kind == "tree":
            bad.write_bytes(b"(add f0 f1) ; caf\xe9\n")
            argv, out = ["score", str(bad)], None
        else:
            bad.write_bytes(b"cost.mu = 0.5  # caf\xe9\n")
            argv, out = ["score", str(trees), "--config", str(bad)], None
        assert main(argv) == 1
        assert str(bad) in capsys.readouterr().err
        assert out is None or not out.exists()


class TestEmbedCommand:
    def test_embed_matches_eval(self, tiny_csv, tmp_path, capsys):
        trees = tmp_path / "trees.sexp"
        trees.write_text("f0\n(add f1 f2)\n", encoding="utf-8")
        out_csv = tmp_path / "emb.csv"
        assert main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(out_csv)]) == 0
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "e0,e1"
        ds = load_csv(tiny_csv, label_column="cls")
        values = np.array([[float(v) for v in line.split(",")] for line in rows[1:]])
        assert values.shape == (ds.n_instances, 2)
        assert np.array_equal(values[:, 0], ds.instances[:, 0])

    def test_embed_cost_round_trip(self, tiny_csv, tmp_path):
        trees = tmp_path / "trees.sexp"
        trees.write_text("(add f0 f1)\n(mul f2 f3)\n", encoding="utf-8")
        out_csv = tmp_path / "emb.csv"
        assert main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(out_csv)]) == 0
        ds = load_csv(tiny_csv, label_column="cls")
        rows = out_csv.read_text().splitlines()[1:]
        embedding = np.array([[float(v) for v in line.split(",")] for line in rows])
        from gpembed.expr import Individual, parse as parse_tree
        from gpembed.manifold_cost import cost

        ind = Individual(trees=(parse_tree("(add f0 f1)"), parse_tree("(mul f2 f3)")))
        assert embedding_cost(embedding, ds.neighbour_order) == cost(ind, ds)

    def test_out_of_range_feature_names_tree(self, tiny_csv, tmp_path, capsys):
        trees = tmp_path / "trees.sexp"
        trees.write_text("f0\n(add f1 f99)\n", encoding="utf-8")
        code = main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(tmp_path / "emb.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "tree 1" in err
        assert "f99" in err

    def test_embed_orders_no_neighbours(self, tiny_csv, tmp_path, monkeypatch):
        from gpembed import dataset

        want = eval_individual(
            Individual(trees=(parse_tree("(add f0 f1)"), parse_tree("(mul f2 f3)"))),
            load_csv(tiny_csv, label_column="cls"),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("embed ordered neighbours")

        monkeypatch.setattr(dataset, "neighbour_order", refuse)
        trees = tmp_path / "trees.sexp"
        trees.write_text("(add f0 f1)\n(mul f2 f3)\n", encoding="utf-8")
        out_csv = tmp_path / "emb.csv"
        assert main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(out_csv)]) == 0
        lines = ["e0,e1"] + [",".join(repr(float(v)) for v in row) for row in want]
        assert out_csv.read_text(encoding="utf-8") == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("target", ["directory", "missing-directory/e.csv", ""])
    def test_unwritable_out_exits_one(self, tiny_csv, tmp_path, capsys, monkeypatch, target):
        monkeypatch.chdir(tmp_path)  # an empty --out must not fall back to embedding.csv
        (tmp_path / "directory").mkdir()
        trees = tmp_path / "trees.sexp"
        trees.write_text("(add f0 f1)\n", encoding="utf-8")
        out = tmp_path / target if target else ""
        assert main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(out)]) == 1
        assert f"error: --out = {out}: " in capsys.readouterr().err
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["directory", "tiny.csv", "trees.sexp"]

    def test_embed_rejects_cost_flags(self, tiny_csv, tmp_path, capsys):
        trees = tmp_path / "trees.sexp"
        trees.write_text("(add f0 f1)\n", encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["embed", str(trees), "--data", tiny_csv, "--mu", "0.5"])
        assert exc.value.code == 2
        assert main(["score", str(trees), "--mu", "0.5"]) == 0
        assert main(run_args(tiny_csv, tmp_path / "o", extra=["--mu", "0.5"])) == 0

    def test_config_file_with_leading_utf8_bom(self, tiny_csv, tmp_path):
        trees = tmp_path / "trees.sexp"
        trees.write_text("(add f0 f1)\n", encoding="utf-8")
        cfg = tmp_path / "embed.cfg"
        cfg.write_text(f"\ufeffdata.path = {tiny_csv}\ndata.label_col = cls\n",
                       encoding="utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        assert main(["embed", str(trees), "--data", tiny_csv, "--label-col", "cls",
                     "--out", str(plain)]) == 0
        assert main(["embed", str(trees), "--config", str(cfg), "--out", str(marked)]) == 0
        assert marked.read_bytes() == plain.read_bytes()

    def test_embed_reads_config_resolved(self, tiny_csv, tmp_path):
        out = tmp_path / "run"
        assert main(run_args(tiny_csv, out, extra=["--max-neighbours", "5"])) == 0
        out_csv = tmp_path / "emb.csv"
        assert main(["embed", str(out / "trees" / "0.sexp"), "--config",
                     str(out / "config.resolved"), "--out", str(out_csv)]) == 0
        ds = load_csv(tiny_csv, label_column="cls")
        ind = Individual(trees=tuple(
            parse_tree(line) for line in (out / "trees" / "0.sexp").read_text().splitlines()
        ))
        rows = out_csv.read_text().splitlines()[1:]
        got = np.array([[float(v) for v in line.split(",")] for line in rows])
        assert np.array_equal(got, eval_individual(ind, ds))
