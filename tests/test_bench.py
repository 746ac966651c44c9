"""The statistics of ``benchmarks/bench.py`` on fixed data, and ``benchmarks/icount.py``."""

import importlib.util
import sys
from pathlib import Path

import pytest

import desim.kernel
from desim import stats

_BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench, icount = _load("bench"), _load("icount")

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


@pytest.mark.skipif(sys.version_info >= (3, 12), reason="sys.monitoring exists")
def test_icount_exits_with_its_message_before_python_3_12():
    with pytest.raises(SystemExit, match=r"^icount\.py needs Python 3\.12 or later"):
        icount.main([])


@pytest.mark.skipif(sys.version_info < (3, 12), reason="needs sys.monitoring")
def test_icount_repeats_exactly_and_counts_the_kernel():
    def mm1():
        stats.mm1_simulate(stats.MM1Params(0.09, 0.1), 200, seed=1)

    mm1()  # warm-up, as icount.main runs each shape
    first, second = icount.count(mm1), icount.count(mm1)
    assert first == second
    assert icount.count.__code__ not in first
    kernel = Path(desim.kernel.__file__)
    assert sum(n for code, n in first.items() if Path(code.co_filename) == kernel) > 0
