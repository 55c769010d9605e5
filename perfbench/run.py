"""Closed-loop benchmark of the mtunlearn pipeline.

    python3 perfbench/run.py --workload run_scale --seed 0 --seconds 35 --trace 0

One client, one process: each op starts only after the previous one has
returned and its output has been checked. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` makes a separate traced run that
alternates untraced and traced ops and prints the per-layer metrics and
the tracer's own overhead. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. Workloads,
metrics and measurement rules are described in perfbench/README.md.

The library is imported from ``src/`` of the checkout that holds this
file; the benchmark exits with code 2 when it is not there.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported: it fixes the
# reduction order, so uis_pct is bit-identical, and keeps the load to one
# core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Calibration  # noqa: E402
from tracer import COUNTED, LAYERS, Tracer, span_names  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_NO_LIBRARY = 2

WORKLOAD_NAMES = ("run_scale", "ablation", "verify")

# Set-ups per run; setup_s is their median. The ablation set-up trains
# five references (about 1.5 s); the others are mostly the import.
SETUP_REPEATS = {"run_scale": 7, "ablation": 5, "verify": 7}

# The child's import of the package, timed without interpreter start-up.
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import mtunlearn.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)

# Exact per-op counts the traced run must reproduce on seed 0.
EXPECTED_CALLS_SEED0 = {
    "run_scale": {"model.subset_gradient": 920, "model.subset_loss": 885},
    "ablation": {
        "model.subset_gradient": 2880,
        "model.subset_loss": 1764,
        "unlearn.run_unlearning": 24,
        "model.train_reference": 0,
    },
    "verify": {"linalg.solve_spd": 1730},
}
# Layers a workload must never reach, on any seed.
ZERO_LAYERS = {"run_scale": ("theory",), "ablation": ("theory",), "verify": ("model",)}


def import_library():
    """Import mtunlearn from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mtunlearn

    where = Path(mtunlearn.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise ImportError(f"mtunlearn imported from {where}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_sha": sha,
    }


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def time_setups(wl, seed: int, workroot: Path, repeats: int, calib: Calibration):
    """Set up ``repeats`` times; return the last state and each set-up's scaled seconds.

    One set-up is a fresh interpreter's import of the package plus the
    workload's own set-up, which is what a user pays before the first op.
    """
    seconds = []
    state = None
    before = calib.seconds()
    for i in range(repeats):
        workdir = workroot / f"setup_{i}"
        workdir.mkdir()
        imported = import_seconds()
        start = time.perf_counter()
        state = wl.setup(seed, workdir)
        elapsed = imported + time.perf_counter() - start
        after = calib.seconds()
        seconds.append(elapsed * calib.scale(before, after))
        before = after
    return state, seconds


class Loop:
    """Closed loop over ops: runs, times and checks each op in turn.

    A calibration run sits between consecutive ops, so each op is scaled
    by the host speed measured just before and just after it.
    """

    def __init__(self, wl, state, calib: Calibration):
        self.wl = wl
        self.state = state
        self.calib = calib
        self.before = calib.seconds()
        self.scale = 1.0
        self.first = None
        self.attempted = 0
        self.failed = 0

    def run_op(self, tracer=None):
        """One op; returns (scaled seconds, checked result or None if it failed)."""
        self.attempted += 1
        if tracer is not None:
            tracer.reset()
            tracer.install()
        start = time.perf_counter()
        try:
            result = self.wl.op(self.state)
        except Exception as exc:  # an op that raises is a failed op
            result = exc
        finally:
            seconds = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        after = self.calib.seconds()
        self.scale = self.calib.scale(self.before, after)
        seconds *= self.scale
        self.before = after
        if isinstance(result, Exception):
            self._fail(f"op raised {type(result).__name__}: {result}")
            return seconds, None
        try:
            result = self.wl.finish(result)
            self.wl.check(result, self.first or result)
        except Exception as exc:  # a failed output check is a failed op
            self._fail(f"output check: {type(exc).__name__}: {exc}")
            return seconds, None
        if self.first is None:
            self.first = result
        return seconds, result

    def _fail(self, message: str):
        self.failed += 1
        print(f"{self.wl.name} op {self.attempted} failed: {message}", file=sys.stderr)


def end_to_end(wl, seed: int, seconds: float, workroot: Path) -> dict:
    calib = Calibration()
    state, setups = time_setups(wl, seed, workroot, SETUP_REPEATS[wl.name], calib)
    loop = Loop(wl, state, calib)
    op_seconds = []
    deadline = time.perf_counter() + seconds
    while not op_seconds or time.perf_counter() < deadline:
        op_seconds.append(loop.run_op()[0])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(op_seconds), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    print(f"# {wl.name}: {len(op_seconds)} ops, {len(setups)} set-ups", file=sys.stderr)
    return {"loop": loop, "metrics": metrics}


def _self_check(name: str, seed: int, snapshots: list[dict]):
    """Problems with the traced counts; an empty list means they hold."""
    problems = []
    first = snapshots[0]
    for s in snapshots[1:]:
        for key in ("calls", "work"):
            if s[key] != first[key]:
                diff = sorted(k for k in {*s[key], *first[key]} if s[key].get(k) != first[key].get(k))
                problems.append(f"per-op {key} differ between traced ops: {diff}")
    counts = first["calls"]
    for span in span_names():
        layer = span.split(".", 1)[0]
        if layer in ZERO_LAYERS[name] and counts.get(span, 0):
            problems.append(f"{span} called {counts[span]} times; predicted 0")
    if seed == 0:
        for span, expected in EXPECTED_CALLS_SEED0[name].items():
            if counts.get(span, 0) != expected:
                problems.append(f"{span}: {counts.get(span, 0)} calls, expected {expected}")
    return problems


def traced(wl, seed: int, seconds: float, workroot: Path) -> dict:
    workdir = workroot / "setup_0"
    workdir.mkdir()
    loop = Loop(wl, wl.setup(seed, workdir), Calibration())
    tracer = Tracer()
    plain, traced_s, snapshots, bytes_written = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced_s or time.perf_counter() < deadline:
        plain.append(loop.run_op()[0])
        op_s, result = loop.run_op(tracer)
        traced_s.append(op_s)
        if result is not None:
            snap = tracer.snapshot()
            for key in ("self_s", "layer_self_s"):
                snap[key] = {k: v * loop.scale for k, v in snap[key].items()}
            snapshots.append(snap)
            bytes_written.append(result["bytes_written"])
    problems = _self_check(wl.name, seed, snapshots) if snapshots else ["no traced op passed"]
    for problem in problems:
        print(f"{wl.name} trace self-check: {problem}", file=sys.stderr)

    def median_of(key, name):
        return statistics.median(s[key].get(name, 0.0) for s in snapshots) if snapshots else 0.0

    calls, work = (snapshots[0]["calls"], snapshots[0]["work"]) if snapshots else ({}, {})
    metrics = {}
    for span in span_names():
        metrics[f"{span}.calls"] = (calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = (median_of("self_s", span), "s")
    for layer, fns in COUNTED.items():
        for fn in fns:
            metrics[f"{layer}.{fn}.calls"] = (calls.get(f"{layer}.{fn}", 0), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (median_of("layer_self_s", layer), "s")
    metrics["model.pairs_in"] = (work.get("model.pairs_in", 0), "count")
    metrics["evaluation.mia_auc.pairs_compared"] = (
        work.get("evaluation.mia_auc.pairs_compared", 0),
        "count",
    )
    # The manifest records the op's elapsed time, so its length can vary
    # by a few bytes; report the median.
    metrics["cli.bytes_written"] = (statistics.median(bytes_written) if bytes_written else 0, "bytes")
    epochs = work.get("unlearn.epochs_run", 0)
    metrics["unlearn.useful_epoch_frac"] = (
        work.get("unlearn.selected_epochs", 0) / epochs if epochs else 0.0,
        "fraction",
    )
    first = loop.first or {}
    metrics["evaluation.uis_pct"] = (first.get("uis_pct", 0.0), "%")
    suites = first.get("suites", {})
    metrics["theory.suites_failed"] = (sum(not ok for ok in suites.values()), "count")
    plain_p50, traced_p50 = statistics.median(plain), statistics.median(traced_s)
    metrics["trace.op_s_p50"] = (traced_p50, "s")
    metrics["trace.untraced_op_s_p50"] = (plain_p50, "s")
    metrics["trace.overhead_pct"] = (100.0 * (traced_p50 - plain_p50) / plain_p50, "%")
    print(f"# {wl.name}: {len(plain)} untraced and {len(traced_s)} traced ops", file=sys.stderr)
    return {"loop": loop, "metrics": metrics, "problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("MTUNLEARN_OUT", None)

    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import mtunlearn from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_LIBRARY
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    print("# env " + json.dumps(environment(), sort_keys=True))
    # Op artifacts go under the checkout, not the system temp directory:
    # the benchmark reads and writes only inside the checkout it runs from.
    workroot = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        run = (traced if args.trace else end_to_end)(wl, args.seed, args.seconds, workroot)
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    loop = run["loop"]
    failing = [name for name, ok in (loop.first or {}).get("suites", {}).items() if not ok]
    if failing:
        print(f"# verify --seed {args.seed}: suites failing: {', '.join(failing)}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0 and loop.first is not None and not run.get("problems"),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
