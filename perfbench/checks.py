"""Correctness checks of workload outputs.

Each function takes the outputs of one workload repetition and returns a
list of ``(check name, passed)`` pairs; the benchmark counts every pair as
one check attempted and every ``False`` as one failure.
"""

from __future__ import annotations

import math
import re

from desim import stats

# The band ``desim validate`` accepts around the M/M/1 closed form.
MM1_BAND = 0.1

TRACE_LINE = re.compile(r"P\d+ [a-z ]+ @(\d+\.\d+)")


def party_checks(horizon: float, outcome, init: float, restocked: float,
                 level: float, consumed: float) -> list[tuple[str, bool]]:
    """The horizon was reached and rice was conserved (exactly: amounts are whole)."""
    return [
        ("horizon reached", not outcome.exhausted and outcome.at == horizon),
        ("rice conserved", init + restocked == level + consumed),
    ]


def mm1_checks(mean_waits: list[float], expected: float) -> list[tuple[str, bool]]:
    """Every mean wait is positive and their pooled mean lies in the validate band."""
    pooled = sum(mean_waits) / len(mean_waits)
    return [
        ("mean waits positive and finite",
         all(w > 0 and math.isfinite(w) for w in mean_waits)),
        ("pooled mean wait within 10% of the closed form",
         abs(pooled - expected) <= MM1_BAND * expected),
    ]


def sweep_checks(variant: str, ns: list[int], t: float, base: int,
                 csv_text: str) -> list[tuple[str, bool]]:
    """The CSV parses, re-renders byte for byte and holds the expected cells."""
    try:
        rows = stats.parse_csv(csv_text)
    except ValueError:
        return [("csv parses", False)]
    cells = [(r.variant, r.n, r.t, r.seed) for r in rows]
    expected = [(variant, n, float(t), stats.derive_seed(base, variant, n)) for n in ns]
    return [
        ("csv parses", True),
        ("csv round-trips through parse_csv", stats.to_csv(rows) == csv_text),
        ("csv holds the requested cells", cells == expected),
    ]


def sweep_row_check(csv_line: str) -> tuple[str, bool]:
    """A CSV row matches its cell recomputed serially: exact values and same bytes."""
    try:
        (row,) = stats.parse_csv(f"{stats.CSV_HEADER}\n{csv_line}\n")
    except ValueError:
        return ("row recomputed serially matches", False)
    again = stats.simulate(row.n, row.t, row.variant, row.seed)
    exact = row == (again.variant, again.n, again.t, again.seed, again.mean_waiting,
                    again.deadlocked)
    same_bytes = stats.to_csv([again]).split("\n")[1] == csv_line
    return ("row recomputed serially matches", exact and same_bytes)


def trace_checks(rc: int, text: str, horizon: float,
                 records: int | None = None) -> list[tuple[str, bool]]:
    """Exit code 0, well-formed trace lines in time order, then the horizon report.

    ``records``, when given, is the number of trace records the traced run saw
    passing through ``emit_trace``; the trace must have exactly that many lines.
    """
    lines = text.split("\n")
    ends_cleanly = len(lines) >= 3 and lines[-1] == ""
    body, report = lines[:-3], lines[-3:-1]
    times = []
    for line in body:
        match = TRACE_LINE.fullmatch(line)
        if match is None:
            times = None
            break
        times.append(float(match.group(1)))
    checks = [
        ("exit code 0", rc == 0),
        ("horizon line present",
         ends_cleanly and report[0] == f"reached horizon at t={horizon:.6f}"
         and report[1].startswith("mean waiting time ")),
        ("trace lines well formed and in time order",
         times is not None and all(a <= b for a, b in zip(times, times[1:]))),
    ]
    if records is not None:
        checks.append(("line count equals cli.trace_records", len(body) == records))
    return checks
