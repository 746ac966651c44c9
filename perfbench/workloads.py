"""The four workloads: inputs from the seed, set-up, the timed call, inspection.

Every workload is a closed loop run from one process: one repetition starts
when the previous one has finished. ``setup`` imports the desim modules it
needs and builds the model of one repetition; ``run`` is the timed call;
``inspect`` checks the output and reads what the repetition amounted to.

This module imports nothing at load time, so that the set-up time measured
in a fresh interpreter includes every import desim needs.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1


def rep_seed(seed: int, workload: str, rep: int) -> int:
    """Seed of repetition ``rep``: SplitMix64 over (benchmark seed, workload, rep)."""
    z = seed & MASK64
    for part in (sum(ord(c) << (i % 56) for i, c in enumerate(workload)), rep):
        z = (z + 0x9E3779B97F4A7C15 + part) & MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
    return z >> 33  # 31 bits: a plain, portable seed for the program


class Inspection:
    """What one repetition amounted to, its checks and the digest of its output."""

    def __init__(self, sim_time: float, customers: int, cells: int,
                 checks: list[tuple[str, bool]], output: bytes, **extra):
        import hashlib

        self.sim_time = sim_time
        self.customers = customers
        self.cells = cells
        self.checks = checks
        self.digest = hashlib.sha256(output).hexdigest()
        self.extra = extra


class Workload:
    name = ""
    min_reps = 1

    def final_checks(self, inspections: list[Inspection]) -> list[tuple[str, bool]]:
        """Checks over the first ``min_reps`` repetitions together."""
        return []

    def workers(self) -> int:
        """Processes that run the timed call at once."""
        return 1


class PartyImpatient(Workload):
    """One long impatient party: build_party + env.run(until=HORIZON)."""

    name = "party-impatient"
    min_reps = 3
    N = 16
    HORIZON = 25_000.0

    def setup(self, seed: int, out_dir: str):
        from desim import Environment
        from desim.scenarios import build_party

        env = Environment(seed)
        party = build_party(env, self.N, "impatient")
        return env, party, party.bowl.level

    def run(self, state):
        env, _, _ = state
        return env.run(until=self.HORIZON)

    def inspect(self, state, outcome, traced=None) -> Inspection:
        import checks

        env, party, init = state
        diners = party.philosophers
        consumed = sum(ph.rice_consumed for ph in diners)
        final = [repr(env.now), repr(party.bowl.level), repr(party.chef.total_restocked)]
        final += [f"{ph.waiting!r},{ph.meals},{ph.total_give_ups},{ph.rice_consumed!r}"
                  for ph in diners]
        return Inspection(
            self.HORIZON, sum(ph.meals for ph in diners), 1,
            checks.party_checks(self.HORIZON, outcome, init, party.chef.total_restocked,
                                party.bowl.level, consumed),
            "\n".join(final).encode())


class MM1(Workload):
    """stats.mm1_simulate at utilisation 0.9, run to exhaustion.

    At this utilisation one run's mean wait has a standard deviation of
    about 10% of the closed form at 50k customers, so the 10% band is checked
    on the mean of the first ``min_reps`` runs (900k customers, about 4.5
    standard deviations of margin).
    """

    name = "mm1"
    min_reps = 18
    ARRIVAL = 0.09
    SERVICE = 0.1
    CUSTOMERS = 50_000

    def setup(self, seed: int, out_dir: str):
        from desim.stats import MM1Params

        return MM1Params(self.ARRIVAL, self.SERVICE), seed

    def run(self, state):
        from desim import stats

        params, seed = state
        return stats.mm1_simulate(params, self.CUSTOMERS, seed)

    def inspect(self, state, mean_wait, traced=None) -> Inspection:
        # Simulated time is the nominal span of the arrival process, N / lambda:
        # mm1_simulate does not expose its final clock.
        return Inspection(self.CUSTOMERS / self.ARRIVAL, self.CUSTOMERS, 1, [],
                          repr(mean_wait).encode(), mean_wait=mean_wait)

    def final_checks(self, inspections: list[Inspection]) -> list[tuple[str, bool]]:
        import checks
        from desim.stats import MM1Params, mm1_expected_wait

        expected = mm1_expected_wait(MM1Params(self.ARRIVAL, self.SERVICE))
        waits = [i.extra["mean_wait"] for i in inspections[:self.min_reps]]
        return checks.mm1_checks(waits, expected)


class Sweep(Workload):
    """stats.sweep over three variants at n=2..20, one base seed, nproc workers."""

    name = "sweep"
    min_reps = 3
    VARIANTS = ("ordered", "bowl", "impatient")
    NS = list(range(2, 21))
    T = 2_500.0

    def workers(self) -> int:
        import os

        return min(2, len(os.sched_getaffinity(0)))

    def setup(self, seed: int, out_dir: str):
        import desim.stats  # noqa: F401 - set-up time covers this import

        return seed, [(variant, self.NS, self.T, [seed]) for variant in self.VARIANTS]

    def run(self, state):
        from desim import stats

        _, cells = state
        workers = self.workers()
        return [stats.to_csv(stats.sweep(variant, ns, t, bases, workers=workers))
                for variant, ns, t, bases in cells]

    def inspect(self, state, csvs, traced=None) -> Inspection:
        import checks

        base, _ = state
        found = []
        for variant, csv_text in zip(self.VARIANTS, csvs):
            found += checks.sweep_checks(variant, self.NS, self.T, base, csv_text)
            rows = csv_text.split("\n")[1:-1]
            if rows:  # one row per variant, chosen by the seed, recomputed serially
                found.append(checks.sweep_row_check(rows[base % len(rows)]))
        cells = len(self.VARIANTS) * len(self.NS)
        return Inspection(cells * self.T, len(self.VARIANTS) * sum(self.NS), cells,
                          found, "".join(csvs).encode())


class Trace(Workload):
    """desim.cli.main(["run", "--diag", ...]) written to a file, in-process."""

    name = "trace"
    min_reps = 5
    N = 12
    HORIZON = 25_000.0

    def setup(self, seed: int, out_dir: str):
        import os

        import desim.cli  # noqa: F401 - set-up time covers this import

        path = os.path.join(out_dir, f"trace-{os.getpid()}.txt")
        argv = ["run", "--scenario", "impatient", "--n", str(self.N), "--seed", str(seed),
                "--until", repr(self.HORIZON), "--diag", "--output", path]
        return argv, path

    def run(self, state):
        from desim import cli

        argv, _ = state
        return cli.main(argv)

    def inspect(self, state, rc, traced=None) -> Inspection:
        import os

        import checks

        _, path = state
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            os.remove(path)
        except FileNotFoundError:  # a failed run may write nothing; the checks say so
            data = b""
        text = data.decode("utf-8")
        records = None if traced is None else traced["trace_records"]
        return Inspection(self.HORIZON, text.count(" reserved food @"), 1,
                          checks.trace_checks(rc, text, self.HORIZON, records), data,
                          output_bytes=len(data))


WORKLOADS = {w.name: w for w in (PartyImpatient(), MM1(), Sweep(), Trace())}
