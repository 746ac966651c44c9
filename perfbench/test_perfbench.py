"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench -q

The end-to-end test runs every workload once in each mode at its minimum
length (under a minute on two cores); the rest run in-process on
shrunken workloads.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spec  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from desim import Environment, cli, stats  # noqa: E402
from desim.scenarios import build_party  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_is_generated_from_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.render()


def test_declared_metrics_follow_the_format():
    data = spec.benchmark_json()
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in data["end_to_end"] + data["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in data["workloads"])
    assert set(workloads.WORKLOADS) == {w["name"] for w in data["workloads"]}


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_printed_metric_is_declared_and_outputs_check(workload):
    declared = {m["name"]: m["unit"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    digests = []
    for trace, expected in ((0, declared), (1, layers)):
        lines, result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        printed = {line.split()[1]: line.split()[3] for line in lines
                   if line.startswith("metric ")}
        assert printed == expected
        digests += [line.split()[2] for line in lines if line.startswith("digest ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_benchmark_refuses_a_tree_without_desim(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


# -- exact counts and digests, in-process on shrunken workloads ----------------

SMALL = {
    "party-impatient": {"N": 6, "HORIZON": 3000.0},
    "mm1": {"CUSTOMERS": 2000},
    "sweep": {"NS": [2, 3, 4], "T": 300.0},
    "trace": {"HORIZON": 3000.0},
}


@pytest.fixture
def small(monkeypatch):
    for name, sizes in SMALL.items():
        for attr, value in sizes.items():
            monkeypatch.setattr(type(workloads.WORKLOADS[name]), attr, value)


def _traced(workload: str, seed: int, out_dir: Path) -> tuple[dict, str]:
    result = worker.main("traced", workload, seed, 0.0, str(out_dir))
    exact = {k: v for k, v in result["metrics"].items() if isinstance(v, int)}
    return exact, result["digest"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_exact_counts_and_digests_repeat_and_follow_the_seed(small, tmp_path, workload):
    first = _traced(workload, 1, tmp_path)
    assert first == _traced(workload, 1, tmp_path)
    other = _traced(workload, 2, tmp_path)
    assert other[1] != first[1]
    assert other[0] != first[0] or workload == "mm1"  # mm1 counts depend on N only
    assert first[0]["kernel.events"] > 0


# -- each check fails on a corrupted output -------------------------------------

def test_party_checks_catch_lost_rice_and_a_short_run():
    env = Environment(3)
    party = build_party(env, 5, "impatient")
    init = party.bowl.level
    outcome = env.run(until=2000.0)
    consumed = sum(ph.rice_consumed for ph in party.philosophers)
    args = (init, party.chef.total_restocked, party.bowl.level)
    assert all(ok for _, ok in checks.party_checks(2000.0, outcome, *args, consumed))
    assert not all(ok for _, ok in checks.party_checks(2000.0, outcome, *args, consumed - 20))
    assert not all(ok for _, ok in checks.party_checks(3000.0, outcome, *args, consumed))


def test_mm1_check_catches_a_mean_outside_the_band():
    expected = stats.mm1_expected_wait(stats.MM1Params(0.09, 0.1))
    assert all(ok for _, ok in checks.mm1_checks([expected * 0.95, expected * 1.02], expected))
    assert not all(ok for _, ok in checks.mm1_checks([expected * 1.2] * 2, expected))


def test_sweep_checks_catch_a_tampered_row():
    ns = [2, 3]
    csv_text = stats.to_csv(stats.sweep("impatient", ns, 500.0, [4]))
    assert all(ok for _, ok in checks.sweep_checks("impatient", ns, 500.0, 4, csv_text))
    row = csv_text.split("\n")[2]
    assert checks.sweep_row_check(row)[1]
    fields = row.split(",")
    fields[4] = repr(float(fields[4]) + 1e-9)
    assert not checks.sweep_row_check(",".join(fields))[1]
    assert not checks.sweep_row_check(row.replace(",", ";"))[1]
    unparsable = csv_text.replace("true", "yes").replace("false", "no")
    not_round_trip = csv_text.replace(",500.0,", ",500.00,")
    for bad in (unparsable, not_round_trip):
        assert not all(ok for _, ok in checks.sweep_checks("impatient", ns, 500.0, 4, bad))
    assert not all(ok for _, ok in checks.sweep_checks("impatient", ns, 500.0, 5, csv_text))


def test_trace_checks_catch_a_truncated_trace(tmp_path):
    out = tmp_path / "trace.txt"
    rc = cli.main(["run", "--scenario", "impatient", "--n", "5", "--seed", "2",
                   "--until", "2000", "--diag", "--output", str(out)])
    text = out.read_text(encoding="utf-8")
    records = text.count("\n") - 2
    assert all(ok for _, ok in checks.trace_checks(rc, text, 2000.0, records))
    truncated = text[: len(text) // 2]
    assert not all(ok for _, ok in checks.trace_checks(rc, truncated, 2000.0))
    cut = text[: text.rindex("\n", 0, len(text) - 1) + 1]  # drop the last line
    assert not all(ok for _, ok in checks.trace_checks(rc, cut, 2000.0))
    assert not all(ok for _, ok in checks.trace_checks(rc, text, 2000.0, records + 1))
    assert not all(ok for _, ok in checks.trace_checks(2, text, 2000.0))
    swapped = text.split("\n")
    swapped[0], swapped[-4] = swapped[-4], swapped[0]
    assert not all(ok for _, ok in checks.trace_checks(rc, "\n".join(swapped), 2000.0))
