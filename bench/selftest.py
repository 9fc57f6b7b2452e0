"""Tiny-size self-test of the benchmark; about a minute on two cores.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at the tiny size through bench/run.py
and checks that:

* the result line has exactly the keys correct/attempted/failed/metrics and
  reports a correct run;
* ``--trace 0`` emits every end_to_end metric and ``--trace 1`` every
  per_layer metric, each with the unit BENCHMARK.json gives;
* two traced runs of the same seed give identical call counts, counters
  and quantile errors;
* the closed-form CGMY oracle reproduces the frozen truth table;
* a directory holding only BENCHMARK.json and the benchmark exits nonzero
  without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1",
                             "--seconds", "0", "--trace", str(trace),
                             "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(workload: str, trace: int, failures: list) -> dict:
    proc = _run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{workload} trace {trace}: exit {proc.returncode}"
                        f"\n{proc.stderr[-2000:]}")
        return {}
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{workload} trace {trace}: keys {sorted(result)}")
    if result.get("correct") is not True or result.get("attempted", 0) < 1:
        failures.append(f"{workload} trace {trace}: not correct: "
                        f"{lines[-2] if len(lines) > 1 else ''}")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        failures.append(f"{workload} trace {trace}: metrics differ from "
                        f"BENCHMARK.json: missing {sorted(set(want) - set(got))}"
                        f", extra {sorted(set(got) - set(want))}, units "
                        f"{ {k: got[k] for k in want if got.get(k, want[k]) != want[k]} }")
    return result


def _counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result.get("metrics", {}).items()
            if v["unit"] in ("count", "ratio", "x100")
            and k != "harness.trace_overhead"}


def main() -> int:
    failures: list = []

    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from workloads import TRUE_QUANTILES, TRUE_QUANTILE_TOL, cgmy_quantile
    jumps = {"C": 1.0, "G": 5.0, "M": 8.0, "Y": 0.5}
    for tau, (left, right) in TRUE_QUANTILES.items():
        got = (cgmy_quantile(jumps, tau, "-"), cgmy_quantile(jumps, tau, "+"))
        if max(abs(got[0] - left), abs(got[1] - right)) > TRUE_QUANTILE_TOL:
            failures.append(f"closed-form oracle at tau {tau}: {got}")

    for workload in (w["name"] for w in SPEC["workloads"]):
        _result(workload, 0, failures)
        first = _counts(_result(workload, 1, failures))
        second = _counts(_result(workload, 1, failures))
        if first != second:
            diff = {k: (first.get(k), second.get(k))
                    for k in set(first) | set(second)
                    if first.get(k) != second.get(k)}
            failures.append(f"{workload}: counters differ between runs: {diff}")
        print(f"{workload}: done", flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(SPEC["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            failures.append("bare directory: expected a nonzero exit and no "
                            f"result, got exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if (ROOT / ".bench_work").is_dir() and \
                not any((ROOT / ".bench_work").iterdir()):
            (ROOT / ".bench_work").rmdir()

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
