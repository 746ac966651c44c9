"""Command line behavior: formats, exit codes, determinism, file output."""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from desim.cli import SCENARIOS, emit_trace, main
from desim.kernel import UnhandledFailureError
from desim.process import spawn
from desim.scenarios import VARIANTS
from desim.stats import parse_csv


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestEmitTrace:
    def test_human_format(self):
        records = [(1.108437215824142, "P1", "obtained chopstick")]
        assert emit_trace(records, "human", 6) == "P1 obtained chopstick @1.108437\n"

    def test_counter_precision(self):
        records = [(10.0, "Customer", "left")]
        assert emit_trace(records, "human", 1) == "Customer left @10.0\n"

    def test_jsonl_format(self):
        records = [(0.5, "P0", "requested chopstick")]
        line = emit_trace(records, "jsonl").strip()
        assert json.loads(line) == {"time": 0.5, "actor": "P0",
                                    "message": "requested chopstick"}

    @pytest.mark.parametrize("precision", [0, 1, 6, 12, 20])
    def test_human_format_matches_the_f_string_rendering(self, precision):
        # Runs of equal times share one formatted stamp; the signed zeros,
        # NaN and the infinities are where a stamp reused by equality alone
        # would differ from formatting each time.
        nan, inf = float("nan"), float("inf")
        times = [0.0, 1e-7, 0.5, 2.5, 24999.9999995, 1e16, 7,
                 3.25, 3.25, 3.25, 7, 7.0, 0.0, -0.0, -0.0, 0.0,
                 nan, nan, inf, inf, -inf, -inf, 1e-7]
        records = [(t, f"P{i}", "obtained chopstick") for i, t in enumerate(times)]
        expected = "".join(f"{actor} {message} @{t:.{precision}f}\n"
                           for t, actor, message in records)
        assert emit_trace(records, "human", precision) == expected

    def test_empty_records_empty_output(self):
        assert emit_trace([], "human") == ""
        assert emit_trace([], "jsonl") == ""

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_trace([], "xml")


class TestRunCommand:
    def test_classic_deadlock_report(self):
        # Seed 16 deadlocks early; the report is a normal outcome, exit 0.
        code, out, err = run_cli("run", "--scenario", "classic", "--n", "5",
                                 "--seed", "16", "--diag")
        assert code == 0 and err == ""
        lines = out.splitlines()
        deadlock_lines = [l for l in lines if l.startswith("DEADLOCK detected at t=")]
        assert len(deadlock_lines) == 1
        assert "counts=[1, 1, 1, 1, 1]" in deadlock_lines[0]
        assert any(l.startswith("P") and "requested chopstick" in l for l in lines)
        assert lines[-1].startswith("mean waiting time ")

    def test_counter_trace_structure(self):
        code, out, err = run_cli("run", "--scenario", "counter", "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "The operator fell asleep @0.0"
        assert lines[1] == "Customer arrived @0.0"
        assert lines[2] == "The operator woke up @0.0"
        assert any(l.startswith("Customer left @") for l in lines)

    def test_counter_customer_count_flag(self):
        code, out, _ = run_cli("run", "--scenario", "counter", "--seed", "3",
                               "--n", "25")
        assert code == 0
        assert sum(1 for l in out.splitlines() if l.startswith("Customer arrived")) == 25

    def test_counter_trace_is_spooled_and_its_log_slotted(self, tmp_path):
        # The counter's trace goes through the chunked spool as a party's does,
        # and a customer's log has no __dict__: the run peaks at 2.6 MiB. An
        # object kept per trace line, or a dict per customer log, takes it
        # past 4 MiB (7.1 MiB with both).
        import tracemalloc
        from desim.scenarios import CustomerRecord
        tracemalloc.start()
        try:
            code = main(["run", "--scenario", "counter", "--n", "10000", "--seed", "7",
                         "--output", str(tmp_path / "out.txt")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 4 * 2**20, f"peak {peak / 2**20:.2f} MiB"
        assert not hasattr(CustomerRecord(0), "__dict__")

    def test_philosopher_times_use_six_decimals_by_default(self):
        code, out, _ = run_cli("run", "--scenario", "ordered", "--n", "3",
                               "--seed", "1", "--until", "50", "--diag")
        assert code == 0
        first = out.splitlines()[0]
        time_text = first.rsplit("@", 1)[1]
        whole, frac = time_text.split(".")
        assert len(frac) == 6

    def test_horizon_line_without_diag(self):
        code, out, _ = run_cli("run", "--scenario", "ordered", "--n", "3",
                               "--seed", "1", "--until", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("reached horizon at t=100.000000")
        assert lines[1].startswith("mean waiting time ")

    def test_large_classic_party_stops_at_default_horizon(self):
        # Seed 0 at n=8 does not deadlock, so without --until the run would
        # never run out of events.
        code, out, err = run_cli("run", "--scenario", "classic", "--n", "8",
                                 "--seed", "0")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[-2] == "reached horizon at t=1000000.000000"
        assert lines[-1].startswith("mean waiting time ")

    def test_jsonl_run_parses(self):
        code, out, _ = run_cli("run", "--scenario", "counter", "--seed", "3",
                               "--format", "jsonl")
        assert code == 0
        records = [json.loads(l) for l in out.splitlines()]
        assert records[0]["actor"] == "The operator"
        assert all(set(r) == {"time", "actor", "message"} for r in records)

    def test_jsonl_party_run_without_diag_is_usage_error(self):
        # jsonl carries trace records only; a party without --diag has none,
        # so the run would print nothing, deadlock report included.
        code, out, err = run_cli("run", "--scenario", "classic", "--n", "5",
                                 "--seed", "16", "--format", "jsonl")
        assert code == 1 and out == ""
        assert "usage error" in err and "--diag" in err

    def test_deterministic_output(self):
        args = ("run", "--scenario", "impatient", "--n", "6", "--seed", "99",
                "--until", "2000", "--diag")
        assert run_cli(*args) == run_cli(*args)

    def test_output_file(self, tmp_path):
        target = tmp_path / "trace.txt"
        code, out, _ = run_cli("run", "--scenario", "counter", "--seed", "3",
                               "--output", str(target))
        assert code == 0 and out == ""
        data = target.read_bytes()
        assert data.decode("utf-8").splitlines()[0] == "The operator fell asleep @0.0"
        assert b"\r" not in data


class TestOutputFile:
    """An existing --output file is replaced only by a run that succeeds."""

    def test_rejected_argument_leaves_file_as_it_was(self, tmp_path):
        target = tmp_path / "f.csv"
        target.write_text("keep\n")
        code, out, err = run_cli("sweep", "--scenario", "ordered", "--until", "inf",
                                 "--output", str(target))
        assert code == 1 and out == "" and err.startswith("usage error: ")
        assert target.read_text() == "keep\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.csv"]

    def test_simulation_error_leaves_file_as_it_was(self, tmp_path, monkeypatch):
        import desim.cli as cli
        def explode(env, config, until, trace):
            raise UnhandledFailureError(RuntimeError("boom"), "counter")
        monkeypatch.setattr(cli, "counter_scenario", explode)
        target = tmp_path / "trace.txt"
        target.write_text("keep\n")
        code, _, _ = run_cli("run", "--scenario", "counter", "--output", str(target))
        assert code == 2
        assert target.read_text() == "keep\n"

    def test_rejected_argument_creates_no_file(self, tmp_path):
        # The path is created only once the run has succeeded.
        target = tmp_path / "new.txt"
        code, out, err = run_cli("run", "--scenario", "counter", "--seed", "-5",
                                 "--output", str(target))
        assert code == 1 and out == "" and err.startswith("usage error: ")
        assert list(tmp_path.iterdir()) == []

    def test_simulation_error_creates_no_file(self, tmp_path, monkeypatch):
        import desim.cli as cli
        def explode(env, config, until, trace):
            raise UnhandledFailureError(RuntimeError("boom"), "counter")
        monkeypatch.setattr(cli, "counter_scenario", explode)
        code, out, _ = run_cli("run", "--scenario", "counter", "--output",
                               str(tmp_path / "trace.txt"))
        assert code == 2 and out == ""
        assert list(tmp_path.iterdir()) == []

    def test_longer_existing_file_is_fully_replaced(self, tmp_path):
        args = ("run", "--scenario", "counter", "--n", "2", "--seed", "3")
        _, expected, _ = run_cli(*args)
        target = tmp_path / "trace.txt"
        target.write_text("x" * (10 * len(expected)))
        code, out, _ = run_cli(*args, "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == expected

    def test_directory_is_usage_error(self, tmp_path):
        code, out, err = run_cli("run", "--scenario", "counter", "--output",
                                 str(tmp_path))
        assert code == 1 and out == ""
        assert err.startswith("usage error: cannot write --output")

    def test_device_is_written_without_truncating(self):
        code, out, err = run_cli("run", "--scenario", "counter", "--output",
                                 os.devnull)
        assert (code, out, err) == (0, "", "")


class TestDiagChunks:
    """``--diag`` renders its trace in chunks while the run goes; the bytes
    and the write-after-success rule are those of one whole rendering."""

    ARGS = ("run", "--scenario", "impatient", "--n", "4", "--seed", "99",
            "--until", "300", "--diag")
    RECORDS = 226  # trace lines of ARGS; human output adds two report lines

    @staticmethod
    def spy_chunks(monkeypatch, size):
        import desim.cli as cli
        monkeypatch.setattr(cli._Spool, "CHUNK", size)
        sizes = []
        def emit(records, *args):
            sizes.append(len(records))
            return emit_trace(records, *args)
        monkeypatch.setattr(cli, "emit_trace", emit)
        return sizes

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_any_chunk_size_gives_the_same_bytes(self, monkeypatch, fmt):
        code, expected, _ = run_cli(*self.ARGS, "--format", fmt)
        records = self.RECORDS
        assert code == 0
        assert expected.count("\n") == records + (2 if fmt == "human" else 0)
        # 1, 113 and 226 divide the record count, so the last chunk is empty.
        for size in (1, 3, 113, records, records + 1, 10**9):
            sizes = self.spy_chunks(monkeypatch, size)
            assert run_cli(*self.ARGS, "--format", fmt) == (0, expected, "")
            assert sum(sizes) == records and len(sizes) == records // size + 1
            assert all(n == size for n in sizes[:-1]) and sizes[-1] < size

    @pytest.mark.parametrize("fmt", ["human", "jsonl"])
    def test_zero_records(self, monkeypatch, fmt):
        sizes = self.spy_chunks(monkeypatch, 3)
        code, out, err = run_cli(*self.ARGS[:-3], "--until", "0", "--diag",
                                 "--format", fmt)
        assert (code, err) == (0, "") and sizes == [0]
        assert out == ("" if fmt == "jsonl" else
                       "reached horizon at t=0.000000\nmean waiting time 0.000000\n")

    def test_failure_after_chunks_have_rendered_writes_nothing(
            self, tmp_path, monkeypatch):
        import desim.cli as cli
        sizes = self.spy_chunks(monkeypatch, 3)
        real_build_party = cli.build_party
        def build_party(env, *args, **kwargs):
            def bomb():
                yield env.timeout(100)
                raise RuntimeError("boom")
            party = real_build_party(env, *args, **kwargs)
            spawn(env, bomb(), "bomb")
            return party
        monkeypatch.setattr(cli, "build_party", build_party)

        code, out, err = run_cli(*self.ARGS)
        assert code == 2 and out == "" and "bomb" in err
        assert len(sizes) > 1  # more than one chunk rendered before the failure

        missing = tmp_path / "new.txt"
        code, out, _ = run_cli(*self.ARGS, "--output", str(missing))
        assert code == 2 and out == "" and not missing.exists()
        existing = tmp_path / "old.txt"
        existing.write_bytes(b"keep\n")
        code, out, _ = run_cli(*self.ARGS, "--output", str(existing))
        assert code == 2 and out == "" and existing.read_bytes() == b"keep\n"


class TestSweepCommand:
    def test_csv_output_parses(self):
        code, out, _ = run_cli("sweep", "--scenario", "ordered", "--n", "2..4",
                               "--until", "500", "--seeds", "2")
        assert code == 0
        rows = parse_csv(out)
        assert [(r.n,) for r in rows] == [(2,), (2,), (3,), (3,), (4,), (4,)]
        assert all(r.variant == "ordered" and r.t == 500.0 for r in rows)

    def test_single_n(self):
        code, out, _ = run_cli("sweep", "--scenario", "ordered", "--n", "3",
                               "--until", "300", "--seeds", "1")
        assert code == 0
        assert len(parse_csv(out)) == 1

    def test_output_file_holds_exactly_what_stdout_gets(self, tmp_path):
        args = ("sweep", "--scenario", "ordered", "--n", "2..3", "--until", "100",
                "--seeds", "1")
        code, printed, _ = run_cli(*args)
        assert code == 0 and printed.startswith("variant,")
        target = tmp_path / "sweep.csv"
        code, out, err = run_cli(*args, "--output", str(target))
        assert (code, out, err) == (0, "", "")
        assert target.read_text(encoding="utf-8") == printed

    def test_counter_not_sweepable(self):
        code, _, err = run_cli("sweep", "--scenario", "counter", "--n", "2..3")
        assert code == 1 and "usage error" in err


class TestExitCodes:
    def test_unknown_scenario_is_usage_error(self):
        code, _, err = run_cli("run", "--scenario", "barbershop")
        assert code == 1 and "usage error" in err

    def test_party_too_small_is_usage_error(self):
        code, _, err = run_cli("run", "--scenario", "classic", "--n", "1")
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("scenario", ["ordered", "bowl", "impatient"])
    def test_party_that_never_exhausts_needs_until(self, scenario):
        code, out, err = run_cli("run", "--scenario", scenario, "--n", "3")
        assert code == 1 and out == ""
        assert "usage error" in err and "--until" in err

    def test_bad_range_is_usage_error(self):
        code, _, err = run_cli("sweep", "--scenario", "ordered", "--n", "9..2")
        assert code == 1 and "usage error" in err

    @pytest.mark.parametrize("n", ["2..", "..3", "x", "2..x"])
    def test_malformed_sweep_n_names_the_flag(self, n):
        code, out, err = run_cli("sweep", "--scenario", "ordered", "--n", n)
        assert code == 1 and out == ""
        assert err == f"usage error: --n must be an integer or a range 'A..B', got {n!r}\n"

    def test_zero_seeds_is_usage_error(self):
        code, _, err = run_cli("sweep", "--scenario", "ordered", "--seeds", "0")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("run", "--scenario", "counter", "--precision", "-1"),
        ("run", "--scenario", "counter", "--precision", "21"),
        ("run", "--scenario", "counter", "--precision", "2000000000"),
        ("run", "--scenario", "counter", "--until", "-1"),
        ("run", "--scenario", "counter", "--n", "0"),
        ("sweep", "--scenario", "ordered", "--n", "1..3"),
        ("sweep", "--scenario", "ordered", "--until", "0"),
        ("sweep", "--scenario", "ordered", "--workers", "0"),
        ("run", "--scenario", "ordered", "--until", "inf"),
        ("run", "--scenario", "counter", "--until", "nan"),
        ("sweep", "--scenario", "ordered", "--until", "inf"),
        ("validate", "--customers", "0"),
        ("validate", "--customers", "-5"),
        ("run", "--scenario", "counter", "--seed", "-5"),
    ], ids=" ".join)
    def test_out_of_range_option_is_usage_error(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 1 and out == ""
        assert "usage error" in err

    def test_party_too_small_for_a_pool_is_usage_error_before_any_pool(self, monkeypatch):
        import multiprocessing

        class NoPool:
            def __init__(self, processes):
                raise AssertionError("a pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", NoPool)
        code, out, err = run_cli("sweep", "--scenario", "ordered", "--n", "1..3",
                                 "--workers", "2")
        assert code == 1 and out == ""
        assert err == "usage error: a party needs at least 2 philosophers, got 1\n"

    def test_library_rejection_is_usage_error_in_its_own_words(self):
        code, out, err = run_cli("run", "--scenario", "classic", "--n", "1")
        assert code == 1 and out == ""
        assert err == "usage error: a party needs at least 2 philosophers, got 1\n"

    def test_customer_count_is_checked_by_the_library(self):
        code, out, err = run_cli("validate", "--customers", "0")
        assert code == 1 and out == ""
        assert err == "usage error: n_customers must be an integer >= 1, got 0\n"

    @pytest.mark.parametrize("argv", [
        ("run", "--scenario", "counter", "--n", "2"),
        ("sweep", "--scenario", "ordered", "--n", "2", "--seeds", "1"),
    ], ids=" ".join)
    def test_unwritable_output_is_usage_error_before_any_run(
            self, argv, tmp_path, monkeypatch):
        import desim.cli as cli
        def must_not_run(*args, **kwargs):
            raise AssertionError("simulated before opening --output")
        monkeypatch.setattr(cli, "counter_scenario", must_not_run)
        monkeypatch.setattr("desim.stats.sweep", must_not_run)
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(*argv, "--output", str(target))
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_output_is_checked_before_the_command_flags(self, tmp_path):
        # Both --output and the missing --until are bad: --output is named.
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli("run", "--scenario", "ordered", "--n", "3",
                                 "--output", str(target))
        assert code == 1 and out == ""
        assert err.startswith("usage error: cannot write --output")
        assert not target.parent.exists()

    def test_missing_command_is_usage_error(self):
        code, _, err = run_cli()
        assert code == 1

    def test_simulation_contract_error_exits_2(self, monkeypatch):
        import desim.cli as cli
        def explode(env, config, until, trace):
            raise UnhandledFailureError(RuntimeError("boom"), "counter")
        monkeypatch.setattr(cli, "counter_scenario", explode)
        code, out, err = run_cli("run", "--scenario", "counter")
        assert code == 2 and out == ""
        # One line: the error is not also reported as running out of memory.
        assert err == ("simulation error: unhandled failure in process "
                       "'counter': RuntimeError('boom')\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_out_of_memory_is_one_line_and_exit_2(tmp_path):
    # The child caps its own address space; the test process allocates nothing big.
    target = tmp_path / "out.txt"
    script = "\n".join([
        "import resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))",
        "from desim.cli import main",
        "sys.exit(main(['run', '--scenario', 'ordered', '--n', '30000000',",
        f"             '--until', '1', '--output', {str(target)!r}]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "simulation error: out of memory\n"
    assert not target.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_counter_memory_follows_the_customers_who_arrived():
    # 1e8 customers cannot all be held under 512 MB; the 10 time units
    # before the horizon see only a few of them.
    script = "\n".join([
        "import resource, sys",
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))",
        "from desim.cli import main",
        "sys.exit(main(['run', '--scenario', 'counter', '--n', '100000000',",
        "             '--until', '10']))",
    ])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0 and proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 6


def test_memory_error_in_a_process_body_is_one_line_and_exit_2(monkeypatch):
    # The 50th draw is taken inside a diner's body, mid-run.
    from desim.rng import Rng
    draw = Rng.expovariate_mean
    calls = 0
    def exhausted(self, mean):
        nonlocal calls
        calls += 1
        if calls == 50:
            raise MemoryError()
        return draw(self, mean)
    monkeypatch.setattr(Rng, "expovariate_mean", exhausted)
    code, out, err = run_cli("run", "--scenario", "ordered", "--n", "5",
                             "--until", "1000")
    assert calls == 50
    assert (code, out, err) == (2, "", "simulation error: out of memory\n")


def run_module(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def src_env():
    return dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))


# A --diag run whose text (1.4 MB) is far larger than a pipe's buffer.
BIG_DIAG = ("run", "--scenario", "impatient", "--n", "12", "--until", "20000", "--diag")


class TestWriteFailure:
    """A write that fails after the run is one stderr line and exit 1, never a
    traceback, whether from ``main`` or from the interpreter's exit flush."""

    def test_stdout_reader_that_has_gone_exits_1_in_silence(self):
        proc = subprocess.Popen([sys.executable, "-m", "desim", *BIG_DIAG],
                                env=src_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        first = proc.stdout.readline()  # as ``| head -1`` does, then hang up
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"P") and err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("where", ["--output", "stdout"])
    def test_full_device_is_one_line_and_exit_1(self, where):
        argv = BIG_DIAG + (("--output", "/dev/full") if where == "--output" else ())
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "desim", *argv], env=src_env(),
                                  stdout=full if where == "stdout" else subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == (f"usage error: cannot write {where}: "
                               f"[Errno 28] No space left on device\n")


def test_rendered_text_does_not_outlive_main(tmp_path):
    # A party stopped at its horizon is a reference cycle that reaches the
    # trace sink, so only a full collection frees what the sink still holds.
    # With the collector off, what cli.py allocated and is still alive after
    # main returns must be far less than the text it wrote.
    target = tmp_path / "diag.txt"
    script = "\n".join([
        "import gc, tracemalloc",
        "from desim.cli import main",
        "gc.disable()",
        "tracemalloc.start()",
        f"code = main([*{BIG_DIAG!r}, '--output', {str(target)!r}])",
        "live = tracemalloc.take_snapshot().filter_traces(",
        f"    [tracemalloc.Filter(True, {os.path.join('*desim', 'cli.py')!r})])",
        "print(code, sum(stat.size for stat in live.statistics('filename')))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    code, live = map(int, proc.stdout.split())
    assert code == 0 and proc.stderr == ""
    assert live < target.stat().st_size / 4


class TestModuleEntryPoints:
    def test_cli_module_runs_main(self):
        proc = run_module("desim.cli", "sweep", "--scenario", "ordered", "--n", "2",
                          "--seeds", "1", "--until", "100", "--format", "csv")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "usage error" in proc.stderr

    def test_package_module_runs_main(self):
        proc = run_module("desim", "run", "--scenario", "counter", "--n", "2")
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.splitlines()[-1] == "Customer left @20.0"


class TestValidateCommand:
    def test_validate_quick_run_passes(self):
        # Cut the customer count so the check stays fast; the bands are the
        # acceptance suite's job at full size.
        code, out, _ = run_cli("validate", "--customers", "20000")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(l.startswith("PASS") for l in lines)

    def test_failed_check_exits_2_with_its_fail_line(self, monkeypatch):
        monkeypatch.setattr("desim.stats.exponential_ks", lambda *args: 1.0)
        code, out, err = run_cli("validate", "--customers", "20000")
        assert code == 2 and err == ""
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("FAIL")
        assert all(l.startswith("PASS") for l in lines[1:])


@st.composite
def command_lines(draw):
    """``(argv, output)``: a ``run``, ``sweep`` or ``validate`` command line with
    small sizes, and an ``--output`` name or ``None``. About one value in eight
    is drawn from ``bad``, the values its command must reject."""
    def value(good, bad):
        return str(draw(st.sampled_from(bad) if draw(st.integers(0, 7)) == 0 else good))

    def until():
        good = st.integers(1, 1000) | st.floats(0.0, 1e3)
        return value(good, ["-1.5", "inf", "nan", "x"])

    seed = st.integers(0, 2**32)
    command = draw(st.sampled_from(["run", "sweep", "validate"]))
    if command == "validate":
        argv = ["validate", "--customers", value(st.integers(1, 200), [0, -1]),
                "--seed", value(seed, [-1])]
    elif command == "sweep":
        lo = draw(st.integers(2, 12))
        n = st.sampled_from([str(lo), f"{lo}..{draw(st.integers(lo, 12))}"])
        argv = ["sweep", "--scenario", value(st.sampled_from(VARIANTS), ["counter"]),
                "--n", value(n, ["1", "4..2", "x"]), "--until", until(),
                "--seeds", value(st.integers(1, 2), [0]),
                "--workers", value(st.integers(1, 2), [0])]
    else:
        scenario = draw(st.sampled_from(SCENARIOS))
        argv = ["run", "--scenario", scenario, "--seed", value(seed, [-1])]
        if draw(st.booleans()):
            good = st.integers(1, 200) if scenario == "counter" else st.integers(2, 12)
            argv += ["--n", value(good, [0, 1] if scenario != "counter" else [0])]
        # A classic party without --until may run to t=1e6: always bound it.
        if scenario == "classic" or draw(st.integers(0, 7)):
            argv += ["--until", until()]
        if draw(st.booleans()):
            argv += ["--diag"]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["human", "jsonl"]))]
        if draw(st.booleans()):
            argv += ["--precision", value(st.integers(0, 20), [-1, 21])]
    output = None  # validate has no --output
    if command != "validate" and draw(st.booleans()):
        output = value(st.sampled_from(["new.txt", "old.txt"]), ["missing/new.txt", "."])
    return argv, output


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=command_lines())
def test_exit_code_and_output_contract(tmp_path, drawn):
    # Exit 0, 1 or 2 and nothing raised; a failed command writes no stdout and
    # leaves --output as it was. The one nonzero exit with output is validate's
    # 2, which prints its PASS and FAIL lines.
    argv, output = drawn
    where = Path(tempfile.mkdtemp(dir=tmp_path))
    (where / "old.txt").write_text("keep\n")
    if output is not None:
        argv = [*argv, "--output", str(where / output)]
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
        if output is not None:
            assert out == "" and (where / output).is_file()
        return
    assert sorted(p.name for p in where.iterdir()) == ["old.txt"]
    assert (where / "old.txt").read_text() == "keep\n"
    if code == 2 and argv[0] == "validate":
        lines = out.splitlines()
        assert err == "" and len(lines) == 3
        assert all(l.startswith(("PASS", "FAIL")) for l in lines)
        assert any(l.startswith("FAIL") for l in lines)
    else:
        prefix = "usage error: " if code == 1 else "simulation error: "
        assert out == "" and err.startswith(prefix) and err.count("\n") == 1
