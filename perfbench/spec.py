"""What the benchmark measures: workloads, metrics, units, directions, bounds.

This module is the single source of ``BENCHMARK.json``. Run

    python3 perfbench/spec.py            # print the layer -> metric -> workload map
    python3 perfbench/spec.py --write    # regenerate BENCHMARK.json

from the repository root. It imports nothing from ``desim``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 15

# Each workload exercises one mechanism and bypasses the others, so that an
# optimisation shows on one workload and must show no change on the rest.
WORKLOADS = [
    ("party-impatient",
     "one long impatient party run: the only workload with any_of races, container "
     "get/cancel and give-ups, about 10% of events are losing race timers"),
    ("mm1",
     "M/M/1 at utilisation 0.9 run to exhaustion: one process per customer and a long "
     "FIFO queue on one Resource; never touches scenarios, Container or any_of"),
    ("sweep",
     "acceptance-sweep shape: ordered, bowl and impatient at n=2..20 on a worker pool; "
     "cell cost grows with n, so pool reuse and dispatch order show here only"),
    ("trace",
     "desim run --diag of an impatient party written to a file, in-process: the only "
     "workload where trace recording, emit_trace formatting and output matter"),
]

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("sim_time_per_s", "tu/s", "higher", 0.25),
    ("customers_per_s", "1/s", "higher", 0.25),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

LAYERS = ("kernel", "process", "resources", "rng", "scenarios", "stats", "cli")

EVENT_KINDS = ("timeout", "plain", "process", "request", "container", "condition")

# name, unit, better, (end-to-end metric it should move, on which workloads)
PER_LAYER = [
    ("kernel.events", "count", "lower", "every throughput metric, every workload"),
    *[(f"kernel.events.{kind}", "count", "lower",
       "every throughput metric, every workload") for kind in EVENT_KINDS],
    ("kernel.us_per_event", "us", "lower", "every throughput metric, every workload"),
    ("kernel.any_of_calls", "count", "lower",
     "sim_time_per_s on party-impatient; no change on mm1"),
    ("kernel.any_of_us", "us", "lower",
     "sim_time_per_s on party-impatient; no change on mm1"),
    ("kernel.lost_race_ratio", "ratio", "lower",
     "sim_time_per_s on party-impatient; no change on mm1"),
    ("process.spawns", "count", "lower",
     "customers_per_s on mm1, sim_time_per_s on party-impatient"),
    ("process.spawn_us", "us", "lower",
     "customers_per_s on mm1, sim_time_per_s on party-impatient"),
    ("process.completions", "count", "lower",
     "customers_per_s on mm1, sim_time_per_s on party-impatient"),
    ("resources.requests", "count", "lower", "customers_per_s on mm1"),
    ("resources.request_us", "us", "lower", "customers_per_s on mm1"),
    ("resources.release_us", "us", "lower", "customers_per_s on mm1"),
    ("resources.container_gets", "count", "lower", "sim_time_per_s on party-impatient only"),
    ("resources.container_cancels", "count", "lower", "sim_time_per_s on party-impatient only"),
    ("resources.get_us", "us", "lower", "sim_time_per_s on party-impatient only"),
    ("rng.draws", "count", "lower", "small share on every workload"),
    ("rng.draw_us", "us", "lower", "small share on every workload"),
    ("scenarios.build_party_s", "s", "lower", "setup_s"),
    ("scenarios.meals", "count", "higher", "none: an exact count that shows the trajectory kept"),
    ("scenarios.give_ups", "count", "lower", "none: an exact count that shows the trajectory kept"),
    ("stats.cell_s_p50", "s", "lower", "cells_per_s on sweep only"),
    ("stats.cell_s_p90", "s", "lower", "cells_per_s on sweep only"),
    ("stats.sweep_efficiency", "ratio", "higher", "cells_per_s on sweep only"),
    ("cli.emit_trace_s", "s", "lower", "sim_time_per_s and peak_rss_mb on trace only"),
    ("cli.trace_records", "count", "lower", "sim_time_per_s and peak_rss_mb on trace only"),
    ("cli.output_bytes", "bytes", "lower", "sim_time_per_s and peak_rss_mb on trace only"),
    *[(f"{layer}.self_share", "ratio", "lower",
       "the throughput metric of every workload that enters the layer") for layer in LAYERS],
    ("trace_overhead", "ratio", "lower", "none: traced over untraced wall time"),
]


def benchmark_json() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        path.write_text(render(), encoding="utf-8")
        return 0
    if argv:
        print("usage: spec.py [--write]", file=sys.stderr)
        return 1
    for name, unit, _, moves in PER_LAYER:
        print(f"{name:30} {unit:6} -> {moves}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
