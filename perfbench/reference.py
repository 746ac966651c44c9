"""A fixed pure-Python loop that measures how fast the host runs right now.

The hosts this benchmark runs on are shared virtual machines whose speed
drifts by a third within a minute. Timing this loop just before and just
after every timed repetition, and dividing by it, cancels most of that
drift: both slow down together, and no change to desim can change this loop.
It mimics desim's inner loop: a binary heap of a few thousand pending
entries, generator resumption and small slotted objects.
"""

from time import perf_counter

# Host seconds are reported as if one run of the reference loop took this long.
NOMINAL_S = 0.05
STEPS = 30_000
PENDING = 4_000


class _Entry:
    __slots__ = ("time", "body", "data")

    def __init__(self, time, body, data):
        self.time = time
        self.body = body
        self.data = data


def _body(seed):
    x = seed
    while True:
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        yield (x % 1000 + 1) / 100.0


def reference_seconds() -> float:
    """Wall time of one run of the reference loop (its set-up excluded).

    heapq is imported here, not at load time, so that importing this module
    before a timed set-up leaves the set-up's imports untouched.
    """
    from heapq import heappop, heappush

    queue = []
    for seq in range(PENDING):
        heappush(queue, (seq % 97 / 10.0, seq, _Entry(0.0, _body(seq), None)))
    seq = PENDING
    start = perf_counter()
    for _ in range(STEPS):
        time, _, entry = heappop(queue)
        time += entry.body.send(None)
        heappush(queue, (time, seq, _Entry(time, entry.body, {"seq": seq})))
        seq += 1
    return perf_counter() - start


def _run(_index: int) -> float:
    return reference_seconds()


class Reference:
    """Times the reference loop on as many processes at once as the workload uses.

    A workload that keeps two cores busy slows down when either core does,
    so its reference runs on two processes too and is timed until both end.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self._pool = None

    def __enter__(self) -> "Reference":
        if self.processes > 1:
            from multiprocessing import get_context

            self._pool = get_context("spawn").Pool(self.processes)
            self.seconds()  # the first map also starts the workers
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()

    def seconds(self) -> float:
        if self._pool is None:
            return reference_seconds()
        start = perf_counter()
        self._pool.map(_run, range(self.processes), chunksize=1)
        return perf_counter() - start


def normalised(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` rescaled to a host on which the reference loop takes NOMINAL_S."""
    return wall_s * NOMINAL_S / ((before_s + after_s) / 2)
