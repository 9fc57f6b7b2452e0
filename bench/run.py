"""levyq benchmark: one closed-loop client per workload, in-process CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload {mc_table,chain,direct} --seed N \
        --seconds S --trace {0,1}

One process per workload issues one ``levyq.cli.main`` call at a time and
starts the next only after the previous returned, until ``--seconds`` have
passed (at least one operation).  Every operation's output is checked; a
nonzero exit, an exception or a failed check counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
SETUP_PROBES fresh interpreters timed from spawn to ready), median seconds
per operation, peak RSS and success rate.  ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics of
tracer.py, the tracing overhead, the counters and the quantile errors
against model truth; it fails the run when the traced results differ from
the untraced ones.

The last stdout line is the result object; the line before it records the
environment.  Inputs and outputs live in .bench_work/ under the checkout and
are removed on exit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_table", "chain", "direct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for bench/selftest.py")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _pin_blas() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in _BLAS_VARS:
        os.environ[var] = str(nproc)
    return nproc


def _environment(nproc: int) -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": os.environ[_BLAS_VARS[0]],
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _setup(workload, seed, size, workdir):
    """Inputs for the workload plus one tiny warm-up operation."""
    from levyq.cli import main as levyq_main
    from workloads import Workload

    job = Workload(workload, seed, size, workdir / "job")
    job.setup()
    warm = Workload(workload, seed, "tiny", workdir / "warmup")
    warm.setup()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        levyq_main(warm.argv)
    return job


def _probe_setup(args) -> list:
    """Seconds from spawn to ready of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        started = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--trace", "0", "--size", args.size,
                 "--setup-probe"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            elapsed = perf_counter() - started
            child.stdout.read()
        if not ready or child.returncode != 0:
            raise RuntimeError(f"set-up probe exited {child.returncode}")
        times.append(elapsed)
    return times


def _run_op(levyq_main, job, tracer=None):
    """One checked CLI call: (seconds, error or None, q_rmse, q_oracle)."""
    job.clear_output()
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    started = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = levyq_main(job.argv)
    except Exception as exc:  # noqa: BLE001 -- any raise is a failed op
        elapsed = perf_counter() - started
        return elapsed, f"raised {exc!r}", math.nan, math.nan
    finally:
        if tracer is not None:
            tracer.uninstall()
    elapsed = perf_counter() - started
    if code != 0:
        return elapsed, f"exit {code}: {err.getvalue().strip()}", \
            math.nan, math.nan
    error, q_rmse, q_oracle = job.check(out.getvalue())
    return elapsed, error, q_rmse, q_oracle


def _layer_metrics(snapshots, traced_s, untraced_s):
    from tracer import LAYERS, counter_values

    n = len(snapshots)
    metrics = {}
    total_self = 0.0
    for layer in LAYERS:
        self_s = sum(s["self_s"].get(layer, 0.0) for s in snapshots) / n
        total_self += self_s
        metrics[f"{layer}.calls"] = (
            sum(s["calls"].get(layer, 0) for s in snapshots) / n, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    tracer_s = sum(s["tracer_s"] for s in snapshots) / n
    op_s = statistics.fmean(traced_s)
    metrics["harness.other"] = (op_s - total_self - tracer_s, "s")
    metrics["harness.tracer_s"] = (tracer_s, "s")
    metrics["harness.traced_op_s"] = (op_s, "s")
    metrics["harness.untraced_op_s"] = (statistics.fmean(untraced_s), "s")
    metrics["harness.trace_overhead"] = (
        op_s / statistics.fmean(untraced_s), "ratio")
    metrics.update(counter_values(snapshots[0]["counts"],
                                  snapshots[0]["calls"]))
    return metrics


def _measure(args, nproc):
    from levyq.cli import main as levyq_main
    from tracer import Tracer, absent_layers

    env = _environment(nproc)
    setup_times = [] if args.trace else _probe_setup(args)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        job = _setup(args.workload, args.seed, args.size, workdir)
        job.load_truth()
        times = {False: [], True: []}
        errors, results, snapshots, absent = [], set(), [], set()
        started = perf_counter()
        while not times[False] or perf_counter() - started < args.seconds:
            for traced in ((False, True) if args.trace else (False,)):
                tracer = Tracer() if traced else None
                elapsed, error, q_rmse, q_oracle = _run_op(
                    levyq_main, job, tracer)
                times[traced].append(elapsed)
                if error is not None:
                    errors.append(error)
                else:
                    results.add((q_rmse, q_oracle))
                if tracer is not None:
                    snapshots.append(tracer.snapshot())
                    absent.update(tracer.absent)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    attempted = len(times[False]) + len(times[True])
    detail = {"op_s": times[False], "traced_op_s": times[True],
              "setup_s": setup_times, "errors": errors[:5]}
    # identical inputs every operation: results must repeat exactly,
    # traced or not
    problems = []
    if len(results) > 1:
        problems.append(f"results differ between operations: {results}")
    if args.trace:
        repeat = {json.dumps([s["calls"], s["counts"]], sort_keys=True)
                  for s in snapshots}
        if len(repeat) > 1:
            problems.append("counters differ between traced operations")
        detail["absent"] = sorted(absent)
        detail["absent_layers"] = absent_layers(absent)
    detail["problems"] = problems

    q_rmse, q_oracle = next(iter(results)) if results \
        else (math.nan, math.nan)
    if args.trace:
        metrics = _layer_metrics(snapshots, times[True], times[False])
        metrics["result.q_rmse"] = (q_rmse, "x100")
        metrics["result.q_rmse_oracle"] = (q_oracle, "x100")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s": (statistics.median(times[False]), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "success_rate": (1.0 - len(errors) / attempted, "ratio"),
        }
        detail["q_rmse"], detail["q_rmse_oracle"] = q_rmse, q_oracle
    correct = not errors and not problems and all(
        math.isfinite(value) for value, _ in metrics.values())
    print(json.dumps({"env": env, "detail": detail}))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "levyq" / "cli.py").is_file():
        print(f"error: no levyq sources under {SRC}; run from the root of "
              "a full checkout", file=sys.stderr)
        return 2
    nproc = _pin_blas()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.setup_probe:
        workdir = WORK / f"probe-{os.getpid()}"
        try:
            _setup(args.workload, args.seed, args.size, workdir)
            print("ready", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    result = _measure(args, nproc)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
