"""Replication harness: seeded runs, waiting-time sweeps, CSV, M/M/1 oracle.

Every cell of a sweep runs in a fresh environment under a seed derived by
hashing (base seed, variant, party size), so results do not depend on cell
order and any row can be reproduced in isolation. The M/M/1 single-server
queue, whose mean queue wait has the closed form lambda / (mu * (mu -
lambda)), serves as a known-answer check that the kernel, processes and
resources compose correctly.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from typing import Iterable, NamedTuple

from .kernel import Environment
from .process import spawn
from .resources import Resource
from .rng import Rng

__all__ = [
    "SweepResult",
    "simulate",
    "derive_seed",
    "sweep",
    "CSV_HEADER",
    "to_csv",
    "CsvRow",
    "parse_csv",
    "MM1Params",
    "mm1_expected_wait",
    "mm1_simulate",
    "exponential_ks",
]


class SweepResult(NamedTuple):
    """Waiting-time aggregate of one seeded party run.

    ``exhausted_at`` is the stop time when the run ran out of events before
    the horizon, else None; a party runs out exactly when it deadlocks.
    """

    variant: str
    n: int
    t: float
    seed: int
    mean_waiting: float
    per_philosopher: tuple[float, ...]
    exhausted_at: float | None = None

    @property
    def deadlocked(self) -> bool:
        return self.exhausted_at is not None


def _check_horizon(t: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"horizon must be finite and > 0, got {t!r}")


def simulate(n: int, t: float, variant: str = "ordered", seed: int = 0) -> SweepResult:
    """Run one fresh party for up to ``t`` time units and aggregate waiting."""
    from .scenarios import build_party  # here, not at the top: M/M/1 needs no party
    _check_horizon(t)
    env = Environment(seed)
    party = build_party(env, n, variant)
    outcome = env.run(until=t)
    return SweepResult(variant=variant, n=n, t=float(t), seed=seed,
                       mean_waiting=party.mean_waiting,
                       per_philosopher=tuple(ph.waiting for ph in party.philosophers),
                       exhausted_at=outcome.at if outcome.exhausted else None)


def derive_seed(base_seed: int, variant: str, n: int) -> int:
    """Mix a base seed with the cell coordinates into an independent seed.

    SHA-256 over the decimal rendering of the inputs, truncated to 64 bits;
    stable across platforms and runs.
    """
    import hashlib  # here, not at the top: only a sweep pays for OpenSSL
    text = f"{base_seed}:{variant}:{n}".encode("ascii")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def _take_cells(queue: list[tuple[int, tuple]], taken, conn) -> None:
    rows = []
    try:
        while True:
            with taken.get_lock():
                k = taken.value
                taken.value = k + 1
            if k >= len(queue):
                break
            i, cell = queue[k]
            rows.append((i, simulate(*cell)))  # the global, which a tracer may wrap
    except Exception:
        pass  # stop here; the parent runs every cell that has no row
    conn.send(rows)


def sweep(variant: str, n_values: Iterable[int], t: float,
          seeds: Iterable[int], workers: int = 1) -> list[SweepResult]:
    """Cross product of party sizes and base seeds, one independent run each.

    Results are ordered by (n, seed position). Each cell's seed is derived
    from its own coordinates, so a cell rerun alone matches its sweep row and
    cells may run in parallel (``workers`` > 1) without affecting results.
    No more workers are started than there are cells or CPUs. Each is one
    process that takes cells largest party first, as it comes free, stops
    at a cell that raises, and sends back the rows it has. The parent runs
    every cell that has no row, in (n, seed) order, so it raises what a
    serial sweep would. A worker that dies without sending is an EOFError.
    """
    ns = list(n_values)
    bases = list(seeds)
    if not ns or not bases:
        raise ValueError("sweep needs at least one party size and one seed")
    if type(workers) is not int or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    for base in bases:
        if type(base) is not int:  # a bool or a float would hash as other text
            raise ValueError(f"seeds must be integers, got {base!r}")
    from .scenarios import check_party
    _check_horizon(t)
    check_party(variant, *ns)
    cells = [(n, t, variant, derive_seed(base, variant, n))
             for n in ns for base in bases]
    workers = min(workers, len(cells), os.cpu_count() or 1)
    rows = {}
    if workers > 1:
        import multiprocessing

        queue = sorted(enumerate(cells), key=lambda cell: -cell[1][0])  # cost grows with n
        taken = multiprocessing.Value("l", 0)
        children = []
        try:
            for _ in range(workers):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_take_cells,
                                                args=(queue, taken, sender), daemon=True)
                child.start()
                children.append((child, receiver))
                sender.close()  # so a worker that dies unheard reads as EOFError
            for _, receiver in children:
                rows.update(receiver.recv())
        finally:
            for child, receiver in children:
                child.terminate()
                child.join()
                receiver.close()
    return [rows[i] if i in rows else simulate(*cell) for i, cell in enumerate(cells)]


CSV_HEADER = "variant,n,t,seed,mean_waiting,deadlocked"


def to_csv(results: Iterable[SweepResult]) -> str:
    """Render sweep rows as CSV (UTF-8 text, LF endings, repr-exact floats)."""
    lines = [CSV_HEADER]
    for r in results:
        deadlocked = "true" if r.deadlocked else "false"
        lines.append(f"{r.variant},{r.n},{r.t!r},{r.seed},{r.mean_waiting!r},{deadlocked}")
    return "\n".join(lines) + "\n"


class CsvRow(NamedTuple):
    variant: str
    n: int
    t: float
    seed: int
    mean_waiting: float
    deadlocked: bool


def parse_csv(text: str) -> list[CsvRow]:
    """Parse sweep CSV back into rows; floats round-trip exactly."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed CSV header")
    rows = []
    for line in lines[1:]:
        variant, n, t, seed, mean_waiting, deadlocked = line.split(",")
        if deadlocked not in ("true", "false"):
            raise ValueError(f"malformed deadlocked flag {deadlocked!r}")
        rows.append(CsvRow(variant, int(n), float(t), int(seed),
                           float(mean_waiting), deadlocked == "true"))
    return rows


class MM1Params(namedtuple("MM1Params", "arrival_rate service_rate")):
    """Single-server queue rates: finite, and stable (0 < arrival < service)."""

    __slots__ = ()
    _make = classmethod(lambda cls, rates: cls(*rates))  # so _replace checks too

    def __new__(cls, arrival_rate: float, service_rate: float):
        if not 0 < arrival_rate < service_rate < math.inf:
            raise ValueError(f"need 0 < arrival_rate < service_rate, "
                             f"got {arrival_rate!r}, {service_rate!r}")
        return super().__new__(cls, arrival_rate, service_rate)


def mm1_expected_wait(params: MM1Params) -> float:
    """Closed-form mean time in queue: arrival / (service * (service - arrival))."""
    lam = params.arrival_rate
    mu = params.service_rate
    return lam / (mu * (mu - lam))


def mm1_simulate(params: MM1Params, n_customers: int, seed: int = 0) -> float:
    """Observed mean queue wait of ``n_customers`` through a capacity-1 server.

    Poisson arrivals at ``arrival_rate``, exponential service at
    ``service_rate``; the wait is measured from request to grant.
    """
    if type(n_customers) is not int or n_customers < 1:
        raise ValueError(f"n_customers must be an integer >= 1, got {n_customers!r}")
    env = Environment(seed)
    server = Resource(env, capacity=1)
    mean_service = 1.0 / params.service_rate
    mean_gap = 1.0 / params.arrival_rate
    total_wait = 0.0  # a running total in grant order, as in Party.mean_waiting

    def customer():
        nonlocal total_wait
        arrived = env.now
        grant = server.request()
        yield grant
        total_wait += env.now - arrived
        yield env.timeout(env.rng.expovariate_mean(mean_service))
        server.release(grant)

    def arrivals():
        for i in range(n_customers):
            spawn(env, customer(), name=f"mm1-customer-{i}")
            yield env.timeout(env.rng.expovariate_mean(mean_gap))

    spawn(env, arrivals(), name="mm1-arrivals")
    env.run()
    return total_wait / n_customers


def exponential_ks(seed: int, mean: float, n: int) -> float:
    """Kolmogorov-Smirnov distance of ``n`` draws of ``Rng(seed)`` from Exp(mean)."""
    if type(n) is not int or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    rng = Rng(seed)
    draws = sorted(rng.expovariate_mean(mean) for _ in range(n))
    ks = 0.0
    for i, x in enumerate(draws):
        cdf = 1.0 - math.exp(-x / mean)
        ks = max(ks, (i + 1) / n - cdf, cdf - i / n)
    return ks
