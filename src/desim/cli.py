"""Command line front end: run scenarios, sweep waiting times, validate.

Exit codes: 0 success, 1 usage error (a ValueError: a bad flag, or an
argument the library rejects before any event is processed) or output that
cannot be written (``--output`` on a full disk, or a stdout whose reader has
gone, as in ``| head``), 2 kernel contract error (e.g. an unhandled process
failure) or out of memory. Deadlock of the classic party is a normal, expected
outcome and exits 0 with a report line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import IO, Iterable

from .kernel import Environment, KernelError
from .scenarios import VARIANTS, build_party, counter_scenario

__all__ = ["main", "emit_trace"]

SCENARIOS = VARIANTS + ("counter",)

KS_CRITICAL_1PCT_10K = 0.01628  # 1.628 / sqrt(10_000)

# Horizon of a classic run without --until: a large classic party may
# practically never deadlock, and so never run out of events.
CLASSIC_HORIZON = 1e6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise ValueError(message)


def emit_trace(records: Iterable[tuple[float, str, str]], fmt: str = "human",
               precision: int = 6) -> str:
    """Render ``(time, actor, message)`` tuples, one line each; empty input
    yields empty output.

    Human lines carry the bytes of ``{time:.{precision}f}``. The time is
    formatted once for each run of equal consecutive times, since a model
    often writes several lines at one instant, and every line of the run
    reuses that stamp."""
    if fmt == "human":
        stamp = f"%.{precision}f"
        lines = []
        last = at = None
        for time, actor, message in records:
            # 0.0 == -0.0 prints differently, so a zero is always formatted;
            # so is a NaN, which equals nothing.
            if time != last or not time:
                at = stamp % time
                last = time
            lines.append(f"{actor} {message} @{at}\n")
        return "".join(lines)
    if fmt == "jsonl":
        import json  # here, not at the top: only jsonl output needs it
        return "".join(json.dumps({"time": time, "actor": actor,
                                   "message": message}) + "\n"
                       for time, actor, message in records)
    raise ValueError(f"unknown trace format {fmt!r}")


class _Spool:
    """``desim run``'s trace: :meth:`emit` is the models' sink. It keeps plain
    tuples and renders every ``CHUNK`` of them: it holds the text and one chunk."""

    CHUNK = 4096

    def __init__(self, fmt: str, precision: int):
        self.fmt, self.precision = fmt, precision
        self.records, self.parts = [], []  # tuples held; text rendered

    def emit(self, time: float, actor: str, message: str) -> None:
        records = self.records
        records.append((time, actor, message))
        if len(records) >= self.CHUNK:
            self.parts.append(emit_trace(records, self.fmt, self.precision))
            self.records = []

    def take(self) -> list[str]:
        """Render the records still held and hand over all the text, keeping
        none: a party stopped at its horizon is a reference cycle that reaches
        the spool, so what it holds lives until a full collection."""
        parts, self.parts = self.parts, []
        parts.append(emit_trace(self.records, self.fmt, self.precision))
        self.records = []
        return parts


def _parse_n_range(text: str) -> list[int]:
    """Accept '5' or an inclusive range 'A..B'."""
    lo_text, dots, hi_text = text.partition("..")
    try:
        lo, hi = int(lo_text), int(hi_text if dots else lo_text)
    except ValueError:
        raise ValueError(f"--n must be an integer or a range 'A..B', "
                         f"got {text!r}") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _build_parser() -> _Parser:
    parser = _Parser(prog="desim", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and print its trace")
    run.add_argument("--scenario", required=True, choices=SCENARIOS)
    run.add_argument("--n", type=int, default=None,
                     help="party size (default 5) or customer count (default 10)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--until", type=float, default=None,
                     help="time horizon; required for ordered, bowl and "
                          "impatient; default: counter runs to exhaustion, "
                          "classic to deadlock or t=1e6")
    run.add_argument("--diag", action="store_true",
                     help="emit per-event trace lines for philosopher scenarios")
    run.add_argument("--format", choices=("human", "jsonl"), default="human")
    run.add_argument("--precision", type=int, default=None,
                     help="decimals for times in human output, 0-20")
    run.add_argument("--output", default=None, help="file path; default stdout")

    swp = sub.add_parser("sweep", help="waiting time vs party size, CSV output")
    swp.add_argument("--scenario", required=True, choices=VARIANTS)
    swp.add_argument("--n", default="2..19",
                     help="party size or inclusive range 'A..B' (default 2..19)")
    swp.add_argument("--until", type=float, default=50000.0)
    swp.add_argument("--seeds", type=int, default=10,
                     help="number of base seeds (0..k-1) per cell")
    swp.add_argument("--workers", type=int, default=1,
                     help="parallel cell runners; rows stay in (n, seed) order")
    swp.add_argument("--output", default=None)

    val = sub.add_parser("validate", help="known-answer checks of the kernel")
    val.add_argument("--customers", type=int, default=100_000)
    val.add_argument("--seed", type=int, default=0)
    return parser


def _check_output(path: str | None) -> None:
    """Reject an ``--output`` that is a directory or cannot be written."""
    if path is not None:
        target = path if os.path.exists(path) else os.path.dirname(path) or os.curdir
        if os.path.isdir(path) or not os.access(target, os.W_OK):
            raise ValueError(f"cannot write --output: no writable file at {path!r}")


def _write(path: str | None, stdout: IO[str], parts: list[str]) -> None:
    """Write a command's text parts to stdout, or to ``path``, opened only now.
    Failing to open, write or close ``path`` is a ValueError; stdout is flushed,
    so that its write errors are raised here, not at interpreter exit."""
    if path is None:
        stdout.writelines(parts)
        stdout.flush()
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as sink:
            sink.writelines(parts)
    except OSError as exc:
        raise ValueError(f"cannot write --output: {exc}") from None


def _cmd_run(args) -> tuple[int, list[str]]:
    """Run one scenario; return 0 and its text parts: its trace, rendered in
    chunks as the run goes (:class:`_Spool`), then a party's report lines.
    The spool hands its text over and holds none of it."""
    precision = args.precision
    if precision is None:
        # Default time precision in human output: the counter model is
        # traditionally reported at one decimal, the philosopher traces at six.
        precision = 1 if args.scenario == "counter" else 6
    if not 0 <= precision <= 20:
        raise ValueError("--precision must be between 0 and 20")
    spool = _Spool(args.format, precision)
    if args.scenario == "counter":
        n = 10 if args.n is None else args.n
        counter_scenario(Environment(args.seed), n, args.until, trace=spool.emit)
        return 0, spool.take()
    if args.until is None and args.scenario != "classic":
        # Only a classic party can run out of events (by deadlocking).
        raise ValueError(f"--until is required for the {args.scenario} "
                         f"scenario, which never runs to exhaustion")
    if args.format == "jsonl" and not args.diag:
        # jsonl carries trace records only, not the report lines.
        raise ValueError("--format jsonl prints a party's trace, which needs --diag")
    env = Environment(args.seed)
    n = 5 if args.n is None else args.n
    until = CLASSIC_HORIZON if args.until is None else args.until
    party = build_party(env, n, args.scenario,
                        trace=spool.emit if args.diag else None)
    outcome = env.run(until)
    out = spool.take()
    if args.format == "human":
        counts = [c.count for c in party.chopsticks]
        if outcome.exhausted:
            out.append(f"DEADLOCK detected at t={outcome.at:.{precision}f}; "
                       f"counts={counts}\n")
        else:
            out.append(f"reached horizon at t={outcome.at:.{precision}f}\n")
        out.append(f"mean waiting time {party.mean_waiting:.{precision}f}\n")
    return 0, out


def _cmd_sweep(args) -> tuple[int, list[str]]:
    """Run a sweep; return 0 and its CSV text. Loads :mod:`desim.stats`, and
    through it the party model, only now: ``desim run`` needs neither."""
    from .stats import sweep, to_csv
    ns = _parse_n_range(args.n)
    return 0, [to_csv(sweep(args.scenario, ns, args.until, range(args.seeds),
                            workers=args.workers))]


def _cmd_validate(args) -> tuple[int, list[str]]:
    """Run the known-answer checks; return 2 if any failed, and their PASS/FAIL lines.
    Loads :mod:`desim.stats` only now, and never the party model."""
    from .stats import MM1Params, exponential_ks, mm1_expected_wait, mm1_simulate
    ks = exponential_ks(args.seed, 10.0, 10_000)
    checks = [(
        "exponential draws vs analytic CDF (KS, 1% level)",
        ks < KS_CRITICAL_1PCT_10K,
        f"statistic {ks:.5f} vs bound {KS_CRITICAL_1PCT_10K}",
    )]

    for lam, mu in ((0.05, 0.1), (0.01, 0.1)):
        params = MM1Params(lam, mu)
        expected = mm1_expected_wait(params)
        observed = mm1_simulate(params, args.customers, args.seed)
        within = abs(observed - expected) <= 0.1 * expected
        checks.append((
            f"M/M/1 mean queue wait (arrival {lam}, service {mu})",
            within,
            f"observed {observed:.4f} vs expected {expected:.4f} (10% band)",
        ))

    code = 0 if all(ok for _, ok, _ in checks) else 2
    return code, [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n"
                  for name, ok, detail in checks]


def main(argv: list[str] | None = None, stdout: IO[str] | None = None,
         stderr: IO[str] | None = None) -> int:
    """Check ``--output`` first, run the command (no I/O), then write its text
    parts with :func:`_write`; return the command's exit code: 1 for a usage
    error or output that cannot be written, 2 for a kernel contract error or
    when memory runs out. A stdout whose reader has gone exits 1 in silence."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        args = _build_parser().parse_args(argv)
        path = getattr(args, "output", None)  # validate has no --output
        _check_output(path)
        code, parts = {"run": _cmd_run, "sweep": _cmd_sweep,
                       "validate": _cmd_validate}[args.command](args)
        try:
            _write(path, stdout, parts)
        except OSError as exc:  # from stdout: _write reports --output itself
            if stdout is sys.stdout:
                # Point the descriptor at devnull, so that the flush of what
                # stdout still buffers at interpreter exit cannot fail again.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stdout.fileno())
                os.close(devnull)
            if isinstance(exc, BrokenPipeError):
                return 1  # the reader has gone (``| head``): nothing to say
            raise ValueError(f"cannot write stdout: {exc}") from None
        return code
    except ValueError as exc:
        # A bad flag, or an argument the library rejects before any event;
        # one raised in a process body surfaces as UnhandledFailureError.
        stderr.write(f"usage error: {exc}\n")
        return 1
    except KernelError as exc:
        stderr.write(f"simulation error: {exc}\n")
        return 2
    except MemoryError:
        pass  # reported below, once the failed run's frames have been freed
    stderr.write("simulation error: out of memory\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
