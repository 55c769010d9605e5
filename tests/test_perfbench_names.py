"""The benchmark under ``perfbench/`` reaches into the package by name.

Its tracer wraps functions listed as strings, and its workloads read
module attributes and report fields. These tests read those files as text,
so nothing is imported from or written under ``perfbench/``, and they fail
when a rename in the package would break the benchmark.
"""

import ast
import contextlib
import dataclasses
import importlib
import inspect
import json
import sys
import types
from pathlib import Path

import pytest

from conftest import block_pairs
from mtunlearn import (
    EvalReport,
    GenConfig,
    TrainConfig,
    UnlearnConfig,
    cli,
    default_forget_split,
    generate_synthetic,
    init_subspaces,
    linalg,
    model,
    run_unlearning,
    theory,
    train_reference,
    unlearn,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer() -> types.ModuleType:
    """``perfbench/tracer.py`` compiled from its text, so no bytecode is written."""
    path = PERFBENCH / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def package_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "mtunlearn" or k.startswith("mtunlearn.")}


def test_traced_names_are_functions_of_their_layer():
    tracer = load_tracer()
    for table in (tracer.TIMED, tracer.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module(f"mtunlearn.{layer}")
            for name in names:
                assert callable(getattr(module, name, None)), f"mtunlearn.{layer}.{name}"


def pinned_calls() -> dict:
    """``EXPECTED_CALLS_SEED0`` of ``perfbench/run.py``, read from its text."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) == "EXPECTED_CALLS_SEED0"
    )


def test_pinned_call_counts_name_traced_functions():
    spans = set(load_tracer().span_names())
    assert {name for counts in pinned_calls().values() for name in counts} <= spans


def count_calls(monkeypatch, *functions) -> dict:
    """Count the calls to each function under its ``layer.name``, through
    every module binding, as the benchmark's tracer wraps them."""
    calls = {}
    for true_fn in functions:
        name = f"{true_fn.__module__.removeprefix('mtunlearn.')}.{true_fn.__name__}"
        calls[name] = 0

        def counted(*args, _true_fn=true_fn, _name=name, **kwargs):
            calls[_name] += 1
            return _true_fn(*args, **kwargs)

        for module in package_modules().values():
            for attr, value in list(vars(module).items()):
                if value is true_fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_suites_make_the_pinned_solve_spd_calls(monkeypatch):
    calls = count_calls(monkeypatch, linalg.solve_spd)
    theory.run_all_checks(seed=0)
    assert calls == {"linalg.solve_spd": pinned_calls()["verify"]["linalg.solve_spd"]}


def workload_literals() -> dict:
    """The literal assignments of ``perfbench/workloads.py``, read from its
    text: module constants by name, class attributes as ``Class.name``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    scopes = [("", tree.body)]
    scopes += [(f"{node.name}.", node.body) for node in tree.body if isinstance(node, ast.ClassDef)]
    found = {}
    for prefix, body in scopes:
        for node in body:
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                with contextlib.suppress(ValueError):
                    found[prefix + node.targets[0].id] = ast.literal_eval(node.value)
    return found


def run_scale(tmp_path: Path, seed: int, n_instances: int) -> Path:
    """``mtunlearn run`` on the run_scale workload's config at ``n_instances``
    (n_val in the workload's proportion); returns the seed's output directory."""
    w = workload_literals()
    n_val = n_instances * w["RunScale.n_val"] // w["RunScale.n_instances"]
    doc = {
        "schema_version": 1,
        "data": dict(w["DATA"], n_instances=n_instances, n_val=n_val),
        # RunScale.setup forgets task 0.
        "partition": {"forget_fraction": w["FORGET_FRACTION"], "forget_tasks": [0]},
        "train": w["TRAIN"],
        "subspace": w["SUBSPACE"],
        "unlearn": w["UNLEARN"],
        "seed": seed,
        "n_seeds": 1,
    }
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(doc))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == cli.EXIT_OK
    (seed_dir,) = out.glob("seed_*")
    return seed_dir


def test_a_run_makes_the_pinned_model_calls(tmp_path, monkeypatch):
    # The run_scale workload's `mtunlearn run` at N=200: the counts do not depend on N.
    calls = count_calls(monkeypatch, model.subset_gradient, model.subset_loss)
    run_scale(tmp_path, seed=0, n_instances=200)
    assert calls == pinned_calls()["run_scale"]


@pytest.mark.parametrize("seed", [0, 7])
def test_a_run_reproduces_the_pinned_uis(tmp_path, seed):
    w = workload_literals()
    seed_dir = run_scale(tmp_path, seed, n_instances=w["RunScale.n_instances"])
    got = 100.0 * json.loads((seed_dir / "uis.json").read_text())["uis"]
    expected = w["EXPECTED_UIS_PCT"]["run_scale"][seed]
    assert abs(got - expected) <= w["UIS_RTOL"] * expected, got


def test_unlearning_epochs_make_the_pinned_model_calls(monkeypatch):
    # The ablation workload's grid (4 forget settings x 6 strategies x 20
    # epochs, d=16, K=3, rank 6) at N=50: the call counts do not depend on N.
    problem = generate_synthetic(
        GenConfig(
            n_instances=50,
            input_dim=16,
            n_tasks=3,
            task_dims=(2, 2, 2),
            shared_dim=12,
            teacher_rank=6,
            noise_std=0.3,
            seed=0,
            n_val=15,
        )
    )
    ds, epochs = problem.dataset, 20
    tc = TrainConfig(epochs=100, step_size=0.3, seed=0, rank=6)
    original = train_reference(problem, ds.all_pairs(), tc)
    subspaces = init_subspaces(3, rank=6, dim=2, mode="random", seed=0)
    log = []

    def counted(name):
        true_fn = getattr(unlearn, name)

        def call(*args, **kwargs):
            log.append(name)
            return true_fn(*args, **kwargs)

        return call

    for name in ("subset_gradient", "subset_loss"):
        monkeypatch.setattr(unlearn, name, counted(name))
    settings = [("partial", (0,)), ("partial", (1,)), ("partial", (2,)), ("full", (0, 1, 2))]
    runs = 0
    totals = {"model.subset_gradient": 0, "model.subset_loss": 0}
    for setting, tasks in settings:
        part = default_forget_split(ds, 0.1, tasks, 0)
        retrain = train_reference(problem, part.retain, tc)
        # Per record: the forget set plus each non-empty retain subset.
        blocks = block_pairs(part)
        per_record = 1 + sum(
            bool(blocks[name].size) for name in ("retain_clean", "retain_inst", "retain_task")
        )
        for strategy in unlearn.STRATEGIES:
            cfg = UnlearnConfig(
                setting=setting,
                strategy=strategy,
                seed=0,
                eta1=0.3,
                eta2=0.05,
                anchor_fraction=1.0,
                max_epochs=epochs,
            )
            log.clear()
            run_unlearning(original, problem, part, subspaces, cfg, retrain)
            epoch = ["subset_gradient"] * (2 * ds.n_tasks) + ["subset_loss"] * per_record
            assert log == ["subset_loss"] * per_record + epoch * epochs, (setting, strategy)
            runs += 1
            totals["model.subset_gradient"] += log.count("subset_gradient")
            totals["model.subset_loss"] += log.count("subset_loss")
    pinned = pinned_calls()["ablation"]
    assert runs == pinned["unlearn.run_unlearning"]
    assert totals == {name: pinned[name] for name in totals}


def test_tracer_install_then_uninstall_restores_every_binding():
    tracer = load_tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"mtunlearn.{layer}")
    before = {key: dict(vars(m)) for key, m in package_modules().items()}
    spans = tracer.Tracer()
    spans.install()
    try:
        evaluation = sys.modules["mtunlearn.evaluation"]
        assert evaluation.mia_auc is not before["mtunlearn.evaluation"]["mia_auc"]
        evaluation.mia_auc([0.1], [0.2])
        assert spans.calls["evaluation.mia_auc"] == 1
    finally:
        spans.uninstall()
    for key, module in package_modules().items():
        now = vars(module)
        assert now.keys() == before[key].keys(), key
        changed = [attr for attr, value in before[key].items() if now[attr] is not value]
        assert not changed, f"{key}: {changed} not restored"


def test_names_the_workloads_read_exist():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "mtunlearn"
        for alias in node.names
    }
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert {
        ("cli", "gen_config_from_doc"),
        ("cli", "EXIT_OK"),
        ("cli", "EXIT_NUMERIC"),
        ("unlearn", "STRATEGIES"),
    } <= used
    for module, attr in sorted(used):
        assert hasattr(importlib.import_module(f"mtunlearn.{module}"), attr), f"{module}.{attr}"
    # Every call into the package binds to its callable's signature: as many
    # positional arguments, and keywords (a ``**NAME`` expands NAME's
    # module-level dict literal) that are parameters of the callable.
    literal_keys = {
        node.targets[0].id: [key.value for key in node.value.keys]
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Dict)
    }
    called = set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if not (isinstance(func, ast.Attribute) and (getattr(func.value, "id", None), func.attr) in used):
            continue
        keywords = [k.arg for k in node.keywords if k.arg]
        keywords += [key for k in node.keywords if k.arg is None for key in literal_keys[k.value.id]]
        target = getattr(importlib.import_module(f"mtunlearn.{func.value.id}"), func.attr)
        try:
            inspect.signature(target).bind_partial(*node.args, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"line {node.lineno}: {func.value.id}.{func.attr}: {exc}") from None
        called.add(func.attr)
    assert {"init_subspaces", "TrainConfig", "UnlearnConfig", "UISInput"} <= called
    # Ablation reads the .values() of three report dicts.
    report = EvalReport(n_tasks=1)
    fields = {f.name for f in dataclasses.fields(EvalReport)}
    for name in ("metrics", "mia_unl", "mia_ret"):
        assert name in fields and isinstance(getattr(report, name), dict)


def test_strategies_iterate_in_the_ablation_order():
    # The ablation workload's pinned uis_pct sums its cells in this order.
    assert list(unlearn.STRATEGIES) == [
        "ours",
        "neggrad_plus",
        "wo_projection",
        "wo_task",
        "wo_inst",
        "wo_clean",
    ]
