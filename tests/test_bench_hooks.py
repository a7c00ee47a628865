"""The traced bench (`bench/run.py --trace 1`) wraps gpembed functions by name;
a rename or removal under `src/` must fail here, not only in a traced run."""
import importlib.util
import sys

from gpembed import complexity, dataset, evolution, harness, manifold_cost

from conftest import REPO_ROOT

RUN_PY = f"{REPO_ROOT}/bench/run.py"
OWNERS = (complexity, dataset, evolution, evolution.Archive, harness, manifold_cost)


def attributes():
    return {(owner, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_traced_bench_wraps_and_restores_its_hooks(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py puts bench/ on it
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)
    spec.loader.exec_module(run)

    before = attributes()
    tracer = run.Tracer()
    try:
        run.Bench("wine", 1, None, tmp_path, oracles=None).install(tracer)
        wrapped = {key for key, value in attributes().items() if value is not before[key]}
    finally:
        tracer.close()
    assert {(manifold_cost, "fractional_ranks"), (evolution, "_entry"),
            (evolution.Archive, "add")} <= wrapped
    after = attributes()
    assert all(after[key] is value for key, value in before.items())
