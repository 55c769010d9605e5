"""The three benchmark workloads: set-up, one op, and the op's output check.

Each workload loads the layers in a different proportion (see README.md):

- ``run_scale``: ``mtunlearn run`` at 10x the paper's N. Reference training
  in the model layer dominates.
- ``ablation``: the paper-size unlearning grid, 4 forget settings x 6
  strategies, with the references trained in set-up. The unlearning loop
  is the whole op and no training runs.
- ``verify``: ``mtunlearn verify``. Linalg and theory do the work and the
  model layer is never called, so it is the control for model changes.

Every op of a run gets the same inputs, so every op must return the same
result; ``check`` compares each op's result with the run's first one.
The library is reached only through public functions, looked up on the
module at call time so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

from mtunlearn import cli, data, evaluation, model, subspace, unlearn

# The README config: d=16, K=3, rank 6, 400 training epochs, random
# subspaces of dim 2, 20 unlearning epochs, 10% of instances forgotten.
DATA = {
    "input_dim": 16,
    "n_tasks": 3,
    "task_dims": [2, 2, 2],
    "shared_dim": 12,
    "teacher_rank": 6,
    "noise_std": 0.3,
}
FORGET_FRACTION = 0.1
TRAIN = {"epochs": 400, "step_size": 0.3}
SUBSPACE = {"dim": 2, "mode": "random"}
# The 20-epoch budget is part of the workload: at 200 epochs on N=200,
# neggrad_plus diverges with StepSizeError.
UNLEARN = {"eta1": 0.3, "eta2": 0.05, "anchor_fraction": 1.0, "max_epochs": 20}

# Forget settings of the ablation grid, as in the published benchmark
# cells of tests/benchdata.py: each task alone, then all three.
ABLATION_SETTINGS = (
    ("partial", (0,)),
    ("partial", (1,)),
    ("partial", (2,)),
    ("full", (0, 1, 2)),
)

# uis_pct the library gave on seeds 0-9 when this benchmark was added
# (one BLAS thread). The UIS is bit-identical run to run, so an op that
# moves it by more than UIS_RTOL has changed the library's results, not
# only its speed.
EXPECTED_UIS_PCT = {
    "run_scale": {
        0: 0.15095602453656032,
        1: 0.4649947311487231,
        2: 0.49425007139877314,
        3: 0.5310058774722476,
        4: 0.08575668067702254,
        5: 0.4192558755794316,
        6: 0.5489220886909782,
        7: 0.6327270030633546,
        8: 0.5249116069050753,
        9: 0.4864323514127004,
    },
    "ablation": {
        0: 3.4465340068989856,
        1: 2.472334897310199,
        2: 3.2667238927971023,
        3: 2.438296866978998,
        4: 2.047582272906345,
        5: 2.162930088925815,
        6: 3.152162073474981,
        7: 2.075161035008205,
        8: 2.9801842462153534,
        9: 4.266657656440956,
    },
}
UIS_RTOL = 1e-9

# The suites ``mtunlearn verify`` failed on seeds 0-9 when this benchmark
# was added; every other suite passed. Only seeds 0, 5 and 9 pass all
# five: first_order_interference misses its 10% tolerance on the others
# (see README.md). An op whose suite results differ from these has
# changed the library's results.
VERIFY_SUITES = (
    "first_order_interference",
    "aggregation_linearity",
    "optimal_direction",
    "projection_bound",
    "orthogonalization_identity",
)
EXPECTED_FAILING_SUITES = {
    seed: () if seed in (0, 5, 9) else ("first_order_interference",) for seed in range(10)
}


def _check_uis(name: str, result: dict):
    expected = EXPECTED_UIS_PCT[name].get(result["seed"])
    if expected is not None and abs(result["uis_pct"] - expected) > UIS_RTOL * expected:
        raise OpFailed(
            f"uis_pct {result['uis_pct']!r} on seed {result['seed']}, expected {expected!r}"
        )


def _call_cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and captured stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class OpFailed(Exception):
    """An op returned a non-zero exit code or an output that fails its check."""


class RunScale:
    """``mtunlearn run`` at N=2000 (n_val=1000), forgetting task 0."""

    name = "run_scale"
    n_instances = 2000
    n_val = 1000

    def setup(self, seed: int, workdir: Path) -> dict:
        doc = {
            "schema_version": 1,
            "data": dict(DATA, n_instances=self.n_instances, n_val=self.n_val),
            "partition": {"forget_fraction": FORGET_FRACTION, "forget_tasks": [0]},
            "train": TRAIN,
            "subspace": SUBSPACE,
            "unlearn": UNLEARN,
            "seed": seed,
            "n_seeds": 1,
        }
        config = workdir / "config.json"
        config.write_text(json.dumps(doc, indent=2))
        return {"config": config, "workdir": workdir, "seed": seed, "n_ops": 0}

    def op(self, state: dict) -> dict:
        state["n_ops"] += 1
        out = state["workdir"] / f"run_{state['n_ops']}"
        code, err = _call_cli(["run", "--config", str(state["config"]), "--out", str(out)])
        return {"code": code, "stderr": err, "out": out, "seed": state["seed"]}

    def finish(self, result: dict) -> dict:
        """Read the op's artifacts, then delete them (outside the timed region)."""
        out = result.pop("out")
        if result["code"] == 0:
            manifest = json.loads((out / "manifest.json").read_text())
            seed_dir = next(out.glob("seed_*"))
            result["digests"] = manifest["outputs"]
            result["uis_json"] = (seed_dir / "uis.json").read_text()
            result["uis_pct"] = 100.0 * json.loads(result["uis_json"])["uis"]
        result["bytes_written"] = _dir_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, result: dict, first: dict):
        if result["code"] != 0:
            raise OpFailed(f"mtunlearn run exited {result['code']}: {result['stderr']}")
        if result["digests"] != first["digests"]:
            raise OpFailed("manifest digests differ from the run's first op")
        if result["uis_json"] != first["uis_json"]:
            raise OpFailed("uis.json differs from the run's first op")
        _check_uis(self.name, result)


class Ablation:
    """Unlearning grid at the paper's size (N=200, n_val=100)."""

    name = "ablation"
    n_instances = 200
    n_val = 100

    def setup(self, seed: int, workdir: Path) -> dict:
        doc = {"data": dict(DATA, n_instances=self.n_instances, n_val=self.n_val)}
        gen = cli.gen_config_from_doc(doc, seed)
        problem = data.generate_synthetic(gen)
        ds, val = problem.dataset, problem.val_dataset
        tc = model.TrainConfig(
            epochs=TRAIN["epochs"],
            step_size=TRAIN["step_size"],
            seed=seed,
            rank=DATA["teacher_rank"],
        )
        original = model.train_reference(problem, ds.all_pairs(), tc)
        subspaces = subspace.init_subspaces(
            DATA["n_tasks"],
            rank=DATA["teacher_rank"],
            dim=SUBSPACE["dim"],
            mode=SUBSPACE["mode"],
            seed=seed,
        )
        settings = []
        for setting, tasks in ABLATION_SETTINGS:
            part = data.default_forget_split(ds, FORGET_FRACTION, tasks, seed)
            retrain = model.train_reference(problem, list(part.retain), tc)
            settings.append(
                {
                    "setting": setting,
                    "tasks": frozenset(tasks),
                    "part": part,
                    "retrain": retrain,
                    "original_report": evaluation.evaluate(original, ds, part, val),
                    "retrain_report": evaluation.evaluate(retrain, ds, part, val),
                }
            )
        return {
            "problem": problem,
            "original": original,
            "subspaces": subspaces,
            "settings": settings,
            "seed": seed,
        }

    def op(self, state: dict) -> dict:
        problem = state["problem"]
        cells = []
        for s in state["settings"]:
            for strategy in unlearn.STRATEGIES:
                cfg = unlearn.UnlearnConfig(
                    setting=s["setting"], strategy=strategy, seed=state["seed"], **UNLEARN
                )
                unlearned, trace = unlearn.run_unlearning(
                    state["original"], problem, s["part"], state["subspaces"], cfg, s["retrain"]
                )
                report = evaluation.evaluate(
                    unlearned, problem.dataset, s["part"], problem.val_dataset
                )
                score = evaluation.uis(
                    evaluation.UISInput(
                        evaluated=report,
                        original_ref=s["original_report"],
                        retrain_ref=s["retrain_report"],
                        setting=s["setting"],
                        forget_tasks=s["tasks"],
                    )
                )
                cells.append(
                    {
                        "cell": (s["setting"], tuple(sorted(s["tasks"])), strategy),
                        "selected_epoch": trace.selected_epoch,
                        "uis": score,
                        "values": [
                            *report.metrics.values(),
                            *report.mia_unl.values(),
                            *report.mia_ret.values(),
                        ],
                    }
                )
        return {"cells": cells, "seed": state["seed"]}

    def finish(self, result: dict) -> dict:
        cells = result["cells"]
        result["uis_pct"] = 100.0 * sum(c["uis"] for c in cells) / len(cells)
        result["bytes_written"] = 0
        return result

    def check(self, result: dict, first: dict):
        cells = result["cells"]
        if len(cells) != len(ABLATION_SETTINGS) * len(unlearn.STRATEGIES):
            raise OpFailed(f"expected 24 cells, got {len(cells)}")
        for c in cells:
            if not all(math.isfinite(v) for v in [c["uis"], *c["values"]]):
                raise OpFailed(f"cell {c['cell']} has a non-finite value")
        def outcome(r):
            return [(c["cell"], c["selected_epoch"], c["uis"]) for c in r["cells"]]

        if outcome(result) != outcome(first):
            raise OpFailed("selected epochs or UIS differ from the run's first op")
        _check_uis(self.name, result)


class Verify:
    """``mtunlearn verify``: the five theory suites.

    On seeds 0-9 each suite must pass or fail as ``EXPECTED_FAILING_SUITES``
    records. On any seed the op must report faithfully: exit 3 exactly
    when a suite fails, with all five suites in the report.
    """

    name = "verify"

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"workdir": workdir, "seed": seed, "n_ops": 0}

    def op(self, state: dict) -> dict:
        state["n_ops"] += 1
        out = state["workdir"] / f"verify_{state['n_ops']}"
        code, err = _call_cli(["verify", "--seed", str(state["seed"]), "--out", str(out)])
        return {"code": code, "stderr": err, "out": out, "seed": state["seed"]}

    def finish(self, result: dict) -> dict:
        out = result.pop("out")
        path = out / "verification.json"
        if path.exists():
            text = path.read_text()
            report = json.loads(text)
            result["digest"] = hashlib.sha256(text.encode()).hexdigest()
            result["suites"] = {s["suite"]: s["passed"] for s in report["suites"]}
        result["bytes_written"] = _dir_bytes(out) if out.exists() else 0
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check(self, result: dict, first: dict):
        suites = result.get("suites")
        if result["code"] not in (cli.EXIT_OK, cli.EXIT_NUMERIC) or suites is None:
            raise OpFailed(f"mtunlearn verify exited {result['code']}: {result['stderr']}")
        if sorted(suites) != sorted(VERIFY_SUITES):
            raise OpFailed(f"expected suites {VERIFY_SUITES}, got {sorted(suites)}")
        if (result["code"] == cli.EXIT_OK) != all(suites.values()):
            raise OpFailed(f"exit code {result['code']} disagrees with the suites {suites}")
        failing = EXPECTED_FAILING_SUITES.get(result["seed"])
        if failing is not None and suites != {s: s not in failing for s in VERIFY_SUITES}:
            raise OpFailed(
                f"suites {suites} on seed {result['seed']}, expected only {failing} to fail"
            )
        if result["digest"] != first["digest"]:
            raise OpFailed("verification.json differs from the run's first op")


WORKLOADS = {w.name: w for w in (RunScale(), Ablation(), Verify())}
