"""One fresh interpreter of the benchmark: set up, measure or trace one workload.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS OUT_DIR

MODE is ``setup`` (time the set-up and stop), ``measure`` (repeat the
untraced timed call until SECONDS have passed and at least the workload's
minimum of repetitions ran) or ``traced`` (alternate an untraced and a
traced run of repetition 0 until SECONDS have passed, at least twice).
Prints one JSON object on its last line. ``run.py`` starts this script;
it is not meant to be run by hand.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402 - imports nothing at load time
from reference import Reference, normalised, reference_seconds  # noqa: E402


def main(mode: str, name: str, seed: int, seconds: float, out_dir: str) -> dict:
    wl = workloads.WORKLOADS[name]
    start = time.perf_counter()
    state = wl.setup(workloads.rep_seed(seed, name, 0), out_dir)
    setup_s = time.perf_counter() - start
    setup_s = normalised(setup_s, reference_seconds(), reference_seconds())
    if mode == "setup":
        return {"setup_s": setup_s}
    if mode == "measure":
        return measure(wl, seed, seconds, out_dir, state, setup_s)
    return traced(wl, seed, seconds, out_dir, state)


def _checks(found: list[tuple[str, bool]]) -> dict:
    return {"attempted": len(found), "failures": [n for n, ok in found if not ok]}


def measure(wl, seed, seconds, out_dir, state, setup_s) -> dict:
    import resource

    began = time.perf_counter()
    reps, inspections = [], []
    with Reference(wl.workers()) as reference:
        while True:
            before = reference.seconds()
            start = time.perf_counter()
            output = wl.run(state)
            wall = time.perf_counter() - start
            after = reference.seconds()
            inspection = wl.inspect(state, output)
            inspections.append(inspection)
            reps.append({"wall_s": wall, "norm_s": normalised(wall, before, after),
                         "sim_time": inspection.sim_time,
                         "customers": inspection.customers, "cells": inspection.cells})
            if len(reps) == wl.min_reps:  # the same repetitions at every speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(reps) >= wl.min_reps and time.perf_counter() - began >= seconds:
                break
            state = wl.setup(workloads.rep_seed(seed, wl.name, len(reps)), out_dir)
    found = [c for i in inspections for c in i.checks] + wl.final_checks(inspections)
    return {
        "setup_s": setup_s,
        "reps": reps,
        "digest": inspections[0].digest,
        "peak_rss_mb": peak_rss_mb,
        **_checks(found),
    }


def traced(wl, seed, seconds, out_dir, state) -> dict:
    import statistics
    from pathlib import Path

    from tracer import Tracer

    tracer = Tracer(Path(out_dir))
    for stale in tracer.out_dir.glob("worker-*.jsonl"):
        stale.unlink()
    seed0 = workloads.rep_seed(seed, wl.name, 0)
    began = time.perf_counter()
    pairs, found = [], []
    while len(pairs) < 2 or time.perf_counter() - began < seconds:
        if pairs:
            state = wl.setup(seed0, out_dir)
        start = time.perf_counter()
        output = wl.run(state)
        untraced_s = time.perf_counter() - start
        plain = wl.inspect(state, output)

        tracer.reset()
        tracer.install()
        try:
            state = wl.setup(seed0, out_dir)
            start = time.perf_counter()
            output = wl.run(state)
            traced_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        merged = tracer.merge_workers()
        snap = tracer.snapshot()
        inspection = wl.inspect(state, output, traced=snap)
        found += plain.checks + inspection.checks + [
            ("tracing leaves the output unchanged", inspection.digest == plain.digest),
            ("no resource granted beyond its capacity", snap["over_capacity"] == 0),
        ]
        if wl.workers() > 1:
            found.append(("every pool cell reported", merged == inspection.cells))
        pairs.append((untraced_s, traced_s, snap, inspection))

    counts = [exact_counts(snap) for _, _, snap, _ in pairs]
    found += [("exact counts repeat", c == counts[0]) for c in counts[1:]]
    tracer.write_spans(Path(out_dir) / f"spans-{wl.name}-seed{seed}.json")

    per_pair = [layer_metrics(wl, *pair) for pair in pairs]
    metrics = {}
    for key, value in per_pair[0].items():
        if isinstance(value, int):
            metrics[key] = value
        else:
            metrics[key] = statistics.median(p[key] for p in per_pair)
    cells = sorted(c for _, _, snap, _ in pairs for c in snap["cells_ns"])
    p50, (tail_pct, tail) = percentile(cells, 0.5), tail_percentile(cells)
    metrics["stats.cell_s_p50"] = p50 / 1e9
    metrics["stats.cell_s_p90"] = tail / 1e9
    return {
        "digest": pairs[0][3].digest,
        "pairs": len(pairs),
        "cells": len(cells),
        "cell_tail_percentile": tail_pct,
        "metrics": metrics,
        **_checks(found),
    }


def exact_counts(snap: dict) -> dict:
    return {"calls": {k: v[0] for k, v in snap["agg"].items()},
            **{k: snap[k] for k in ("events", "lost_races", "grants_checked",
                                    "meals", "give_ups", "trace_records")}}


def percentile(sorted_values: list, q: float):
    if not sorted_values:
        return 0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def tail_percentile(sorted_values: list) -> tuple[float, float]:
    """(percentile, value): p90, or the highest percentile with ten values beyond
    it when p90 has fewer; the median when no percentile has ten beyond it."""
    n = len(sorted_values)
    if n < 11:
        return 50.0, percentile(sorted_values, 0.5)
    index = min(int(0.9 * n), n - 11)
    return 100.0 * index / n, sorted_values[index]


def layer_metrics(wl, untraced_s: float, traced_s: float, snap: dict,
                  inspection) -> dict:
    from spec import LAYERS

    agg = snap["agg"]

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def mean_us(*names):
        n = calls(*names)
        return sum(agg.get(x, (0, 0, 0))[1] for x in names) / n / 1e3 if n else 0.0

    def total_s(*names):
        return sum(agg.get(n, (0, 0, 0))[1] for n in names) / 1e9

    events = sum(snap["events"].values())
    rng = [n for n in agg if n.startswith("rng.")]
    sweep_calls = agg.get("stats.sweep", (0, 0, 0))
    cell_busy = sum(snap["cells_ns"])
    metrics = {
        "kernel.events": events,
        **{f"kernel.events.{kind}": count for kind, count in snap["events"].items()},
        "kernel.us_per_event": untraced_s * 1e6 / events if events else 0.0,
        "kernel.any_of_calls": calls("kernel.any_of"),
        "kernel.any_of_us": mean_us("kernel.any_of"),
        "kernel.lost_race_ratio": snap["lost_races"] / events if events else 0.0,
        "process.spawns": calls("process.spawn"),
        "process.spawn_us": mean_us("process.spawn"),
        "process.completions": snap["events"]["process"],
        "resources.requests": calls("resources.Resource.request"),
        "resources.request_us": mean_us("resources.Resource.request"),
        "resources.release_us": mean_us("resources.Resource.release"),
        "resources.container_gets": calls("resources.Container.get"),
        "resources.container_cancels": calls("resources.Container.cancel_get"),
        "resources.get_us": mean_us("resources.Container.get"),
        "rng.draws": calls(*rng),
        "rng.draw_us": mean_us(*rng),
        "scenarios.build_party_s": mean_us("scenarios.build_party") / 1e6,
        "scenarios.meals": snap["meals"],
        "scenarios.give_ups": snap["give_ups"],
        "stats.sweep_efficiency": (cell_busy / (wl.workers() * sweep_calls[1])
                                   if sweep_calls[1] else 0.0),
        "cli.emit_trace_s": total_s("cli.emit_trace"),
        "cli.trace_records": snap["trace_records"],
        "cli.output_bytes": inspection.extra.get("output_bytes", 0),
    }
    for layer in LAYERS:
        own = sum(v[2] for n, v in agg.items() if n.startswith(layer + "."))
        metrics[f"{layer}.self_share"] = own / 1e9 / traced_s
    metrics["trace_overhead"] = traced_s / untraced_s
    return metrics


if __name__ == "__main__":
    mode, name, seed, seconds, out_dir = sys.argv[1:]
    result = main(mode, name, int(seed), float(seconds), out_dir)
    import json

    print(json.dumps(result))
