"""Compare two commits on one perfbench workload and record it in BENCH_<pr>.json.

    python3 benchmarks/bench.py --workload mm1 --parent HEAD~1 --change HEAD \\
        --label claim --out BENCH_30.json

Each side is exported with ``git archive`` into its own temporary directory,
which is removed afterwards, so both run from committed files alone, as the
benchmark runs them. ``perfbench/run.py --trace 0`` then runs on the two
sides in fresh interpreters, at BENCHMARK.json's ``run_seconds``, in ten
pairs that alternate which side goes first; pair i gives both sides the
perfbench seed ``--seed`` + i. perfbench already rescales host drift and
checks each run's outputs; a run that fails a check stops the comparison.

For every end-to-end metric the report gives each side's median and
quartiles, the pairs the change won, and the median of the per-pair ratios
change / parent with a 95% bootstrap interval from a fixed resampling seed.
``claim_holds`` applies the pairs rule: the change wins at least nine of the
ten pairs and the medians differ by more than the parent's interquartile
range. A run is stored under its label and workload; one already in ``--out``
with both is replaced, the others are kept. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = float(DECLARED["run_seconds"])  # both sides, as the benchmark runs them
PAIRS = 10
RESAMPLES = 10_000
RESAMPLE_SEED = 20070101  # fixed, so a report's intervals can be recomputed


def bootstrap_median_ci(ratios: list[float]) -> tuple[float, float, float]:
    """Median of ``ratios`` and its 95% percentile bootstrap interval."""
    if not ratios:
        raise ValueError("no ratios to resample")
    rng = random.Random(RESAMPLE_SEED)
    n = len(ratios)
    medians = sorted(statistics.median(rng.choices(ratios, k=n)) for _ in range(RESAMPLES))
    lo = medians[math.floor(0.025 * RESAMPLES)]
    hi = medians[math.ceil(0.975 * RESAMPLES) - 1]
    return statistics.median(ratios), lo, hi


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Compare one metric's paired samples; ``better`` is "higher" or "lower"."""
    sign = 1.0 if better == "higher" else -1.0
    ratios = [c / p for p, c in zip(parent, change)]
    median, lo, hi = bootstrap_median_ci(ratios)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_median, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    return {
        "better": better,
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "ratio_median": median,
        "ratio_ci95": [lo, hi],
        "wins": wins,
        "claim_holds": wins >= 0.9 * len(ratios)
                       and sign * (c_median - p_median) > p_q3 - p_q1,
    }


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                          check=True).stdout


def export(commit: str, dest: Path) -> None:
    """Write the files of ``commit`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")


def src_lines(tree: Path) -> int:
    """Lines of ``src/desim``, counted as perfbench counts them."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((tree / "src" / "desim").glob("*.py")))


def perfbench(tree: Path, workload: str, seed: int) -> dict[str, float]:
    """One untraced perfbench run in ``tree``; its end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(RUN_SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"]:
        raise RuntimeError(f"perfbench {workload} seed {seed} in {tree} failed its checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(args: argparse.Namespace, metrics: dict[str, str]) -> dict:
    sides = {"parent": git("rev-parse", args.parent).decode().strip(),
             "change": git("rev-parse", args.change).decode().strip()}
    with tempfile.TemporaryDirectory(prefix="desim-bench-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, commit in sides.items():
            export(commit, trees[side])
        samples = []
        for i in range(PAIRS):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            got = {side: perfbench(trees[side], args.workload, seed) for side in order}
            samples.append({"seed": seed, "first": order[0], **got})
            print(f"pair {i + 1}/{PAIRS} seed {seed}: " + " ".join(
                f"{name} {got['parent'][name]:.6g}->{got['change'][name]:.6g}"
                for name in metrics), file=sys.stderr)
        lines = {side: src_lines(tree) for side, tree in trees.items()}
    return {
        "label": args.label,
        "workload": args.workload,
        "seconds": RUN_SECONDS,
        "pairs": PAIRS,
        "python": sys.version,
        "nproc": len(os.sched_getaffinity(0)),
        **{side: {"commit": commit, "src_lines": lines[side],
                  "src_tree": git("rev-parse", f"{commit}:src").decode().strip()}
           for side, commit in sides.items()},
        "metrics": {name: summarize([s["parent"][name] for s in samples],
                                    [s["change"][name] for s in samples], better)
                    for name, better in metrics.items()},
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in DECLARED["workloads"]])
    parser.add_argument("--parent", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--change", default="HEAD", help="commit to measure")
    parser.add_argument("--seed", type=int, default=1, help="perfbench seed of the first pair")
    parser.add_argument("--label", required=True, help="name of this run in the report")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<pr>.json to update")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m["better"] for m in DECLARED["end_to_end"]}
    run = compare(args, metrics)
    report = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    runs = [r for r in report.get("runs", [])
            if (r["label"], r["workload"]) != (args.label, args.workload)]
    args.out.write_text(json.dumps({"runs": runs + [run]}, indent=1) + "\n",
                        encoding="utf-8")
    for name, m in run["metrics"].items():
        lo, hi = m["ratio_ci95"]
        print(f"{args.label} {args.workload} {name}: ratio {m['ratio_median']:.4f} "
              f"[{lo:.4f}, {hi:.4f}], won {m['wins']}/{PAIRS}, "
              f"claim {'holds' if m['claim_holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
