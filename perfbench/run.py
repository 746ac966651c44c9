"""desim benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the benchmark imports desim from ``src/``.
Workloads and metrics are declared in ``perfbench/spec.py`` (and so in
``BENCHMARK.json``). With ``--trace 0`` it times the set-up in several fresh
interpreters, then runs the workload untraced for S seconds in another and
reports the end-to-end metrics. With ``--trace 1`` one interpreter runs
repetition 0 alternately untraced and with every desim layer wrapped, and
reports the per-layer metrics. The human-readable report comes first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and traced spans are also
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 14  # fresh interpreters that only set up; the measuring one adds one
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               out_dir: Path, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed),
           repr(seconds), str(out_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, out_dir: Path,
               deadline: float) -> tuple[dict, dict]:
    setups = [run_worker("setup", workload, seed, seconds, out_dir, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    result = run_worker("measure", workload, seed, seconds, out_dir, deadline)
    setups.append(result["setup_s"])
    reps = result["reps"]

    def rate(key):
        return statistics.median(r[key] / r["norm_s"] for r in reps)

    metrics = {
        "setup_s": statistics.median(setups),
        "sim_time_per_s": rate("sim_time"),
        "customers_per_s": rate("customers"),
        "cells_per_s": rate("cells"),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"repetitions": len(reps), "setup_samples": len(setups)}
    return metrics, {**result, "notes": notes}


def per_layer(workload: str, seed: int, seconds: float, out_dir: Path,
              deadline: float) -> tuple[dict, dict]:
    result = run_worker("traced", workload, seed, seconds, out_dir, deadline)
    notes = {"pairs": result["pairs"], "cells": result["cells"],
             "cell_tail_percentile": result["cell_tail_percentile"]}
    return result["metrics"], {**result, "notes": notes}


def source_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "desim").glob("*.py")))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w for w, _ in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "desim" / "__init__.py").is_file():
        print(f"perfbench: no desim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, result = measure(args.workload, args.seed, args.seconds, out_dir, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    declared = spec.PER_LAYER if args.trace else spec.END_TO_END
    units = {name: unit for name, unit, *_ in declared}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} are not as declared",
              file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": source_lines(),
        **result["notes"],
    }
    failures = result["failures"]
    attempted = result["attempted"]
    print("meta " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, unit, *_ in declared:
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"ops {attempted}")
    print(f"fail_ratio {len(failures) / attempted!r}")
    for failure in failures:
        print(f"failed {failure}")
    print(f"digest sha256 {result['digest']}")

    report = {"meta": meta, "digest": result["digest"], "attempted": attempted,
              "failures": failures,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    out = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
