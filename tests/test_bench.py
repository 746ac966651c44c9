"""The statistics of ``benchmarks/bench.py``, on fixed data."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

# Ten per-pair ratios as an A/A run gives them: noise around 1.
NOISE = [0.981, 1.012, 0.996, 1.024, 0.989, 1.003, 1.017, 0.977, 1.008, 0.994]


def test_interval_brackets_the_median_and_repeats():
    median, lo, hi = bench.bootstrap_median_ci(NOISE)
    assert median == pytest.approx(0.9995)
    assert min(NOISE) <= lo <= median <= hi <= max(NOISE)
    assert lo < 1.0 < hi  # noise alone shows no change
    assert bench.bootstrap_median_ci(NOISE) == (median, lo, hi)


def test_interval_of_a_shift_excludes_one():
    shifted = [r * 1.14 for r in NOISE]
    _, lo, hi = bench.bootstrap_median_ci(shifted)
    assert 1.0 < lo < hi


def test_interval_of_equal_ratios_is_a_point_and_empty_data_is_refused():
    assert bench.bootstrap_median_ci([1.25] * 10) == (1.25, 1.25, 1.25)
    with pytest.raises(ValueError):
        bench.bootstrap_median_ci([])


def test_summary_applies_the_direction_and_the_pairs_rule():
    parent = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75
    faster = [p * 1.1 for p in parent]
    up = bench.summarize(parent, faster, "higher")
    assert up["wins"] == 10 and up["claim_holds"]
    assert up["parent"]["median"] == pytest.approx(104.5)
    assert up["ratio_median"] == pytest.approx(1.1)
    down = bench.summarize(parent, faster, "lower")
    assert down["wins"] == 0 and not down["claim_holds"]
    # Nine wins, but by less than the parent's interquartile range of 4.5.
    close = [p + 1.0 for p in parent[:9]] + [parent[9] - 1.0]
    near = bench.summarize(parent, close, "higher")
    assert near["wins"] == 9 and not near["claim_holds"]
    same = bench.summarize(parent, list(parent), "lower")
    assert same["wins"] == 0 and same["ratio_ci95"] == [1.0, 1.0]
    assert not same["claim_holds"]
