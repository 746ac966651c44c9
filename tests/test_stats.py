"""Seeded randomness, sweep harness, CSV round-trip, and the M/M/1 oracle."""

import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from desim import Environment, Resource, Rng, UnhandledFailureError, stats
from desim.scenarios import counter_scenario
from desim.stats import (
    CSV_HEADER,
    MM1Params,
    SweepResult,
    derive_seed,
    exponential_ks,
    mm1_expected_wait,
    mm1_simulate,
    parse_csv,
    simulate,
    sweep,
    to_csv,
)


def ks_by_hand(seed, mean=4.0, n=10_000):
    """Independent oracle: KS distance of ``n`` draws from Exp(mean)."""
    rng = Rng(seed)
    draws = sorted(rng.expovariate_mean(mean) for _ in range(n))
    stat = 0.0
    for i, x in enumerate(draws):
        cdf = 1.0 - math.exp(-x / mean)
        stat = max(stat, (i + 1) / n - cdf, cdf - i / n)
    return stat


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(99), Rng(99)
        assert [a.expovariate_mean(10.0) for _ in range(100)] == \
               [b.expovariate_mean(10.0) for _ in range(100)]

    def test_draws_are_strictly_positive_and_finite(self):
        rng = Rng(0)
        for _ in range(10_000):
            x = rng.expovariate_mean(10.0)
            assert x > 0.0 and math.isfinite(x)

    def test_zero_uniform_draw_is_redrawn(self):
        # log(0) would give an infinite variate; 0.0 has chance 2**-53 per draw.
        class Stub:
            draws = iter([0.0, 0.5])

            def random(self):
                return next(self.draws)

        rng = Rng(0)
        rng._mt = Stub()
        assert rng.expovariate_mean(2.0) == -2.0 * math.log(0.5)

    def test_empirical_mean_within_one_percent(self):
        rng = Rng(1234)
        n = 1_000_000
        total = sum(rng.expovariate_mean(10.0) for _ in range(n))
        assert abs(total / n - 10.0) <= 0.1

    def test_kolmogorov_smirnov_against_exponential_cdf(self):
        # 1% critical value for n=10^4 draws is about 1.628/sqrt(n) = 0.01628.
        # Computed statistics for these seeds: 0.006732, 0.006445, 0.008395.
        for seed in (0, 7, 102):
            assert ks_by_hand(seed) < 0.01628

    @pytest.mark.parametrize("seed", [0, 7, 102])
    def test_ks_helper_matches_the_oracle_exactly(self, seed):
        assert exponential_ks(seed, 4.0, 10_000) == ks_by_hand(seed)

    @pytest.mark.parametrize("n", [0, -5])
    def test_ks_of_no_draws_is_rejected(self, n):
        # Zero draws used to read as a perfect fit, 0.0, which validate passes.
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            exponential_ks(0, 10.0, n)

    @pytest.mark.parametrize("n", [2.5, "3"])
    def test_ks_count_must_be_an_integer(self, n):
        with pytest.raises(ValueError, match=f"n must be an integer >= 1, got {n!r}"):
            exponential_ks(0, 10.0, n)

    def test_randint_bounds(self):
        rng = Rng(5)
        draws = [rng.randint(0, 9) for _ in range(1000)]
        assert set(draws) == set(range(10))

    def test_invalid_mean_rejected(self):
        rng = Rng(0)
        for mean in (0.0, float("inf"), -1.0, float("nan")):
            with pytest.raises(ValueError):
                rng.expovariate_mean(mean)


class TestSimulate:
    def test_repeat_runs_are_identical(self):
        a = simulate(4, 2000.0, "ordered", seed=17)
        b = simulate(4, 2000.0, "ordered", seed=17)
        assert a == b
        assert a.per_philosopher == b.per_philosopher

    def test_mean_is_exactly_the_average_of_per_philosopher(self):
        r = simulate(5, 1500.0, "ordered", seed=3)
        assert r.mean_waiting == sum(r.per_philosopher) / 5
        assert len(r.per_philosopher) == 5

    def test_mean_is_a_running_total_in_seat_order(self):
        # Pinned on Python 3.11; the compensated sum() of Python 3.12 and
        # later gives 2078.6852802276294, which changed the sweep rows.
        r = simulate(4, 5000.0, "bowl", 9315470670392932011)
        assert r.mean_waiting == 2078.68528022763

    def test_party_size_validated(self):
        with pytest.raises(ValueError):
            simulate(1, 1000.0, "ordered", seed=0)
        with pytest.raises(ValueError):
            simulate(5, 0.0, "ordered", seed=0)

    def test_classic_flags_deadlock(self):
        r = simulate(5, 100000.0, "classic", seed=16)
        assert r.deadlocked
        assert r.exhausted_at is not None and r.exhausted_at < 100000.0

    def test_ordered_never_flags_deadlock(self):
        r = simulate(5, 2000.0, "ordered", seed=16)
        assert not r.deadlocked
        assert r.exhausted_at is None


class TestSeedDerivation:
    def test_stable_known_values(self):
        # Frozen: these must never change across releases, or sweeps stop
        # being reproducible.
        assert derive_seed(0, "ordered", 2) == 2920268671547522315
        assert derive_seed(1, "bowl", 16) == 16143031556594740665

    def test_coordinates_all_matter(self):
        base = derive_seed(0, "ordered", 5)
        assert derive_seed(1, "ordered", 5) != base
        assert derive_seed(0, "bowl", 5) != base
        assert derive_seed(0, "ordered", 6) != base


class TestSweep:
    def test_rows_ordered_and_cell_independent(self):
        rows = sweep("ordered", [2, 3], 800.0, [0, 1])
        assert [(r.n,) for r in rows] == [(2,), (2,), (3,), (3,)]
        lone = simulate(3, 800.0, "ordered", derive_seed(1, "ordered", 3))
        assert rows[3] == lone

    def test_workers_do_not_change_results(self):
        serial = sweep("ordered", [2, 3], 600.0, [0, 1])
        parallel = sweep("ordered", [2, 3], 600.0, [0, 1], workers=2)
        assert serial == parallel

    def test_spawn_workers_import_the_party_model_themselves(self):
        # A spawned worker imports desim.stats afresh, and that import does
        # not load desim.scenarios: simulate must import it in the worker.
        script = "\n".join([
            "import multiprocessing, os",
            "from desim.stats import sweep, to_csv",
            "if __name__ == '__main__':",
            "    multiprocessing.set_start_method('spawn')",
            "    os.cpu_count = lambda: 2",
            "    args = ('ordered', [2, 3], 100.0, [0])",
            "    serial = to_csv(sweep(*args, workers=1))",
            "    print(to_csv(sweep(*args, workers=2)) == serial, end='')",
        ])
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True"

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            sweep("ordered", [], 100.0, [0])
        with pytest.raises(ValueError):
            sweep("ordered", [2], 100.0, [])

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers"):
            sweep("ordered", [2], 100.0, [0], workers=workers)

    @pytest.mark.parametrize("t", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_horizon_rejected_before_any_pool(self, t, no_workers):
        with pytest.raises(ValueError, match="horizon must be finite and > 0"):
            sweep("ordered", [2, 3], t, [0], workers=2)

    def test_non_integer_workers_rejected(self):
        with pytest.raises(ValueError, match=r"workers must be an integer >= 1, got 2\.5"):
            sweep("ordered", [2], 100.0, [0], workers=2.5)

    @pytest.mark.parametrize("base", [1.0, True, "a"])
    def test_non_integer_seed_rejected_before_any_pool(self, base, no_workers):
        # 1.0 would hash as "1.0:ordered:2", a different cell from seed 1.
        with pytest.raises(ValueError, match=rf"seeds must be integers, got {base!r}"):
            sweep("ordered", [2], 100.0, [0, base], workers=2)

    @pytest.mark.parametrize("variant, ns, message", [
        ("bogus", [2, 3], "unknown variant 'bogus'"),
        ("ordered", [1, 2], "a party needs at least 2 philosophers, got 1"),
        ("ordered", [2, 1], "a party needs at least 2 philosophers, got 1"),
    ])
    def test_bad_party_rejected_before_any_pool(self, variant, ns, message, no_workers):
        with pytest.raises(ValueError, match=message):
            sweep(variant, ns, 100.0, [0], workers=2)

    def test_pool_never_exceeds_the_cell_count(self, monkeypatch, inline_workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)  # only the cell cap binds
        one = sweep("ordered", [2], 100.0, [0], workers=64)
        two = sweep("ordered", [2, 3], 100.0, [0], workers=64)
        assert len(inline_workers) == 2
        assert one == sweep("ordered", [2], 100.0, [0])
        assert two == sweep("ordered", [2, 3], 100.0, [0])

    def test_pool_never_exceeds_the_cpu_count(self, monkeypatch, inline_workers):
        def no_cell(n, t, variant, seed):
            raise RuntimeError("no cell runs in this test")

        monkeypatch.setattr(stats, "simulate", no_cell)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="no cell runs"):
            sweep("ordered", range(2, 600), 10.0, range(10), workers=5000)
        assert len(inline_workers) == 2

    def test_cells_are_taken_largest_party_first(self, monkeypatch, inline_workers):
        # The first inline worker runs before the second starts, so it takes
        # every cell, and the second finds none left.
        taken = []
        real = stats.simulate

        def logged(n, t, variant, seed):
            taken.append(n)
            return real(n, t, variant, seed)

        monkeypatch.setattr(stats, "simulate", logged)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        rows = sweep("ordered", [3, 2, 5, 4], 100.0, [0, 1], workers=2)
        assert taken == [5, 5, 4, 4, 3, 3, 2, 2]
        assert len(inline_workers) == 2
        monkeypatch.setattr(stats, "simulate", real)
        assert rows == sweep("ordered", [3, 2, 5, 4], 100.0, [0, 1])

    @pytest.mark.parametrize("variant, ns, bases", [
        ("classic", range(2, 7), [0, 1, 2]),  # cells deadlock at different times
        ("ordered", range(2, 9), [0, 1, 2]),  # 21 cells: an odd count
    ])
    def test_parallel_rows_match_serial_rows(self, variant, ns, bases):
        serial = sweep(variant, ns, 3000.0, bases)
        assert sweep(variant, ns, 3000.0, bases, workers=2) == serial
        assert multiprocessing.active_children() == []
        if variant == "classic":
            assert len({r.exhausted_at for r in serial}) > 2

    def test_worker_error_is_raised_in_the_parent(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched simulate only when forked")
        real = stats.simulate

        def fails_at_three(n, t, variant, seed):
            if n == 3:
                raise RuntimeError("cell 3")
            return real(n, t, variant, seed)

        monkeypatch.setattr(stats, "simulate", fails_at_three)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(RuntimeError, match="^cell 3$"):
            sweep("ordered", [2, 3, 4], 500.0, [0, 1], workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_kernel_error_reads_as_in_a_serial_sweep(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched simulate only when forked")

        def unhandled(n, t, variant, seed):
            raise UnhandledFailureError(ValueError("boom"), "p1")

        monkeypatch.setattr(stats, "simulate", unhandled)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        messages = []
        for workers in (1, 2):
            with pytest.raises(UnhandledFailureError) as err:
                sweep("ordered", [2, 3], 500.0, [0], workers=workers)
            messages.append(str(err.value))
        assert messages == ["unhandled failure in process 'p1': ValueError('boom')"] * 2
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_unheard_fails_the_sweep(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched simulate only when forked")
        monkeypatch.setattr(stats, "simulate", lambda *cell: os._exit(3))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.raises(EOFError):
            sweep("ordered", [2, 3, 4], 500.0, [0], workers=2)
        assert multiprocessing.active_children() == []

    def test_worker_error_that_does_not_pickle_reads_as_in_a_serial_sweep(
            self, monkeypatch, capfd):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched simulate only when forked")

        def local():  # a local function does not pickle
            return 0

        def unhandled(n, t, variant, seed):
            raise UnhandledFailureError(ValueError(local), "p1")

        monkeypatch.setattr(stats, "simulate", unhandled)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        messages = []
        for workers in (1, 2):
            with pytest.raises(UnhandledFailureError) as err:
                sweep("ordered", [2, 3], 500.0, [0], workers=workers)
            messages.append(str(err.value))
        assert messages[1] == messages[0]
        assert "Traceback" not in capfd.readouterr().err
        assert multiprocessing.active_children() == []

    def test_cell_that_fails_only_in_a_worker_is_run_again_here(self, monkeypatch):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers see the patched simulate only when forked")
        real = stats.simulate
        here = os.getpid()

        def fails_in_a_worker(n, t, variant, seed):
            if os.getpid() != here:
                raise MemoryError
            return real(n, t, variant, seed)

        serial = sweep("ordered", [2, 3, 4], 500.0, [0, 1])
        monkeypatch.setattr(stats, "simulate", fails_in_a_worker)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert sweep("ordered", [2, 3, 4], 500.0, [0, 1], workers=2) == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [{3, 4}, {2, 4}, {4}])
    def test_parallel_sweep_raises_the_serial_sweeps_first_error(
            self, monkeypatch, inline_workers, failing):
        # The first inline worker takes 5, then stops at 4; the second takes
        # 3, then 2, until one fails. A serial sweep fails at the smallest.
        real = stats.simulate

        def fails(n, t, variant, seed):
            if n in failing:
                raise RuntimeError(f"cell {n}")
            return real(n, t, variant, seed)

        monkeypatch.setattr(stats, "simulate", fails)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        messages = []
        for workers in (1, 2):
            with pytest.raises(RuntimeError) as err:
                sweep("ordered", [2, 3, 4, 5], 100.0, [0], workers=workers)
            messages.append(str(err.value))
        assert messages == [f"cell {min(failing)}"] * 2
        assert len(inline_workers) == 2


@pytest.fixture
def no_workers(monkeypatch):
    """Fail the test if a sweep starts a worker process."""
    class NoProcess:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a worker was started")

    monkeypatch.setattr(multiprocessing, "Process", NoProcess)


@pytest.fixture
def inline_workers(monkeypatch):
    """Run each sweep worker in this process when started; lists the workers."""
    started = []

    class InlineProcess:
        def __init__(self, target, args, daemon):
            assert daemon
            started.append(self)
            self.target, self.args = target, args

        def start(self):
            self.target(*self.args)

        def terminate(self):
            pass

        def join(self):
            pass

    monkeypatch.setattr(multiprocessing, "Process", InlineProcess)
    return started


class TestCsv:
    def test_round_trip_is_lossless(self):
        rows = sweep("ordered", [2, 3], 700.0, [0, 1])
        text = to_csv(rows)
        assert text.startswith(CSV_HEADER + "\n")
        assert text.endswith("\n") and "\r" not in text
        parsed = parse_csv(text)
        for row, original in zip(parsed, rows):
            assert row.variant == original.variant
            assert row.n == original.n
            assert row.t == original.t
            assert row.seed == original.seed
            assert row.mean_waiting == original.mean_waiting
            assert row.deadlocked == original.deadlocked

    def test_deadlocked_flag_round_trips(self):
        row = SweepResult("classic", 5, 1000.0, 3, 12.5, (12.5,) * 5, 900.0)
        parsed = parse_csv(to_csv([row]))
        assert parsed[0].deadlocked is True

    def test_malformed_header_rejected(self):
        row = "classic,5,1000.0,3,12.5,true\n"
        for text in ("", "nope\n1,2,3\n", row, f"{CSV_HEADER.upper()}\n{row}"):
            with pytest.raises(ValueError, match="malformed CSV header"):
                parse_csv(text)

    def test_malformed_deadlocked_flag_rejected(self):
        with pytest.raises(ValueError, match="malformed deadlocked flag"):
            parse_csv(f"{CSV_HEADER}\nclassic,5,1000.0,3,12.5,yes\n")


class TestMM1:
    def test_closed_form_known_answers(self):
        assert abs(mm1_expected_wait(MM1Params(0.05, 0.1)) - 10.0) < 1e-12
        assert abs(mm1_expected_wait(MM1Params(0.01, 0.1)) - 10.0 / 9.0) < 1e-12

    def test_wait_vanishes_with_arrival_rate(self):
        assert mm1_expected_wait(MM1Params(1e-9, 0.1)) < 1e-6

    def test_stability_enforced(self):
        with pytest.raises(ValueError):
            MM1Params(0.1, 0.1)
        with pytest.raises(ValueError):
            MM1Params(0.2, 0.1)
        with pytest.raises(ValueError):
            MM1Params(0.0, 0.1)

    @pytest.mark.parametrize("rates", [(0.05, math.inf), (math.nan, 0.1)])
    def test_rates_must_be_finite(self, rates):
        # An infinite service rate would otherwise fail only inside the run.
        with pytest.raises(ValueError, match="need 0 < arrival_rate < service_rate"):
            MM1Params(*rates)

    @pytest.mark.parametrize("n", [0, -5, 2.5])
    def test_customer_count_must_be_a_positive_integer(self, n):
        # No mean wait from no data; a fractional count fails before any event.
        with pytest.raises(ValueError, match="n_customers must be an integer >= 1"):
            mm1_simulate(MM1Params(0.05, 0.1), n)

    def test_simulation_is_deterministic(self):
        a = mm1_simulate(MM1Params(0.05, 0.1), 2000, seed=4)
        b = mm1_simulate(MM1Params(0.05, 0.1), 2000, seed=4)
        assert a == b

    def test_mean_is_a_running_total_in_grant_order(self):
        # Pinned on Python 3.11; a compensated sum gives 12.88727290227045.
        assert mm1_simulate(MM1Params(0.05, 0.1), 200, seed=0) == 12.887272902270452

    def test_short_run_lands_in_a_loose_band(self):
        observed = mm1_simulate(MM1Params(0.05, 0.1), 20_000, seed=0)
        assert 7.0 < observed < 13.0

    def test_light_load_converges_at_full_size(self):
        # Second known-answer point: 0.01/(0.1 * 0.09) = 1.111..., 10% band.
        params = MM1Params(0.01, 0.1)
        observed = mm1_simulate(params, 100_000, seed=0)
        expected = mm1_expected_wait(params)
        assert abs(observed - expected) <= 0.1 * expected


class TestRecordValues:
    ROW = ("classic", 5, 1000.0, 3, 12.5, (12.5, 12.5), 900.0)

    def test_sweep_result_repr_equality_and_defaults(self):
        row = SweepResult(*self.ROW)
        assert repr(row) == (
            "SweepResult(variant='classic', n=5, t=1000.0, seed=3, mean_waiting=12.5, "
            "per_philosopher=(12.5, 12.5), exhausted_at=900.0)")
        assert row == SweepResult(variant="classic", n=5, t=1000.0, seed=3,
                                  mean_waiting=12.5, per_philosopher=(12.5, 12.5),
                                  exhausted_at=900.0)
        assert row != SweepResult(*self.ROW[:-1])
        assert SweepResult(*self.ROW[:-1]).exhausted_at is None

    def test_sweep_result_is_frozen_and_pickles(self):
        row = SweepResult(*self.ROW)
        with pytest.raises(AttributeError):
            row.mean_waiting = 0.0
        copy = pickle.loads(pickle.dumps(row))
        assert copy == row and type(copy) is SweepResult and copy.deadlocked

    def test_mm1_params_repr_equality_and_frozen(self):
        params = MM1Params(service_rate=0.1, arrival_rate=0.05)
        assert repr(params) == "MM1Params(arrival_rate=0.05, service_rate=0.1)"
        assert params == MM1Params(0.05, 0.1)
        assert hash(params) == hash(MM1Params(0.05, 0.1))
        assert pickle.loads(pickle.dumps(params)) == params
        with pytest.raises(AttributeError):
            params.arrival_rate = 0.2
        with pytest.raises(AttributeError):
            params.note = "no other fields either"

    def test_mm1_params_error_message(self):
        with pytest.raises(ValueError) as info:
            MM1Params(0.2, 0.1)
        assert str(info.value) == "need 0 < arrival_rate < service_rate, got 0.2, 0.1"

    def test_mm1_params_replace_is_checked_too(self):
        params = MM1Params(0.05, 0.1)
        assert params._replace(arrival_rate=0.01) == MM1Params(0.01, 0.1)
        with pytest.raises(ValueError, match="need 0 < arrival_rate < service_rate"):
            params._replace(arrival_rate=0.2)


# True is an int to isinstance, but it is no count or seed: it used to reach
# the CSV seed column as "True", open a server for one customer, and so on.
@pytest.mark.parametrize("call, message", [
    (lambda: Rng(True), "seed must be an integer >= 0, got True"),
    (lambda: simulate(2, 100.0, "ordered", True), "seed must be an integer >= 0"),
    (lambda: Resource(Environment(0), True), "capacity must be an integer >= 1"),
    (lambda: counter_scenario(Environment(0), True, trace=print),
     "n_customers must be an integer >= 1, got True"),
    (lambda: mm1_simulate(MM1Params(0.09, 0.1), True), "n_customers must be an integer"),
    (lambda: exponential_ks(0, 10.0, True), "n must be an integer >= 1, got True"),
    (lambda: sweep("ordered", [2], 100.0, [0], workers=True), "workers must be an integer"),
], ids=["rng-seed", "simulate-seed", "capacity", "counter-customers",
        "mm1-customers", "ks-draws", "sweep-workers"])
def test_bool_is_not_an_integer_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()
