"""Reference models built on the kernel: dining philosophers and a service counter.

Four party variants are provided, each wired by ``build_party``. ``classic``
diners pick up their pair in seating order, which lets the party deadlock.
``ordered`` diners take the lower-numbered chopstick first, which provably
cannot deadlock. ``bowl`` adds a shared rice container drained by meals and
restocked periodically by a chef. ``impatient`` philosophers additionally cap
how long they wait for rice, give the chopsticks back when they give up, and
demand a bigger meal on the next attempt.

The counter scenario models direct process interaction instead of resource
sharing: customers queue tickets into a service line and wake the operator by
interrupting it when it has dozed off on an empty line.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Callable, NamedTuple

from .kernel import Environment, Event, RunOutcome, any_of
from .process import Interrupted, Process, spawn
from .resources import Container, Resource

__all__ = [
    "PhilosopherState",
    "CustomerFailed",
    "Philosopher",
    "Chef",
    "Party",
    "VARIANTS",
    "build_party",
    "detect_deadlock",
    "CustomerRecord",
    "CounterResult",
    "counter_scenario",
]

VARIANTS = ("classic", "ordered", "bowl", "impatient")
RICE_VARIANTS = ("bowl", "impatient")

# Model timings in simulated time units. A diner thinks and eats for
# exponential spells of mean THINK_MEAN and EAT_MEAN and pauses
# SECOND_PICK_DELAY before reaching for the second chopstick. A meal takes
# PORTION of rice, one PORTION more per consecutive give-up, and an impatient
# diner gives up after MAX_FOOD_WAIT, half the chef's RESTOCK_PERIOD. The
# counter serves a ticket in exactly SERVICE_DELAY, also the mean gap between
# arrivals, and fails one service in FAIL_ONE_IN on average.
THINK_MEAN = 10.0
EAT_MEAN = 10.0
SECOND_PICK_DELAY = 1.0
PORTION = 20.0
RESTOCK_PERIOD = 150.0
MAX_FOOD_WAIT = RESTOCK_PERIOD / 2
BOWL_CAPACITY = 1000.0
SERVICE_DELAY = 10.0
FAIL_ONE_IN = 10


class PhilosopherState(Enum):
    THINKING = "thinking"
    HUNGRY = "hungry"
    HUNGRY_WITH_ONE = "hungry-with-one-chopstick"
    EATING = "eating"


# Legal state transitions; the give-up edge only occurs for impatient diners.
ALLOWED_TRANSITIONS = {
    (PhilosopherState.THINKING, PhilosopherState.HUNGRY),
    (PhilosopherState.HUNGRY, PhilosopherState.HUNGRY_WITH_ONE),
    (PhilosopherState.HUNGRY_WITH_ONE, PhilosopherState.EATING),
    (PhilosopherState.EATING, PhilosopherState.THINKING),
}
GIVE_UP_TRANSITION = (PhilosopherState.HUNGRY_WITH_ONE, PhilosopherState.THINKING)


class CustomerFailed(Exception):
    """Service of a customer's ticket failed."""


def check_party(variant: str, *sizes: int) -> None:
    """Reject an unknown variant, and each party size ``build_party`` cannot seat."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    for n in sizes:
        if not isinstance(n, int) or n < 2:
            raise ValueError(f"a party needs at least 2 philosophers, got {n!r}")


class Philosopher:
    """One diner: think, grab two chopsticks (and maybe rice), eat, repeat.

    The whole cycle, hungry spell included, runs in the diner's one process;
    a diner who gives up on the rice puts both chopsticks back and thinks.
    The pair is picked up in the order given (``build_party`` decides it).
    A diner with a ``bowl`` takes a meal of rice before eating; an
    ``impatient`` one (which needs a bowl) gives up after ``MAX_FOOD_WAIT``.

    Instruments itself with the accumulated ``waiting`` time between wanting
    to eat and having everything needed to eat, the meal/give-up counters
    and its current ``state``. ``trace`` is a sink called as
    ``trace(time, actor, message)`` at each step of the cycle, or ``None``,
    in which case the diner makes no trace call at all.
    """

    def __init__(self, env: Environment, chopsticks, my_id: int, *,
                 bowl: Container | None = None, impatient: bool = False,
                 trace: Callable[[float, str, str], object] | None = None):
        pair = tuple(chopsticks)
        if len(pair) != 2 or pair[0] is pair[1]:
            raise ValueError("a philosopher needs two different chopsticks")
        if impatient and bowl is None:
            raise ValueError("impatient philosophers need a bowl")
        self.env = env
        self.chopsticks = pair
        self.bowl = bowl
        self.impatient = impatient
        self.waiting = 0.0
        self.meals = 0
        self.meal_size = PORTION
        self.give_ups = 0        # consecutive give-ups since the last meal
        self.total_give_ups = 0
        self.rice_consumed = 0.0
        self.state = PhilosopherState.THINKING
        self._trace = trace
        self._label = f"P{my_id}"
        spawn(env, self._run(), name=f"philosopher-{my_id}")

    def _run(self):
        env = self.env
        rng = env.rng
        first, second = self.chopsticks
        emit, label = self._trace, self._label
        bowl, impatient = self.bowl, self.impatient
        thinking = PhilosopherState.THINKING
        hungry = PhilosopherState.HUNGRY
        hungry_with_one = PhilosopherState.HUNGRY_WITH_ONE
        eating = PhilosopherState.EATING
        while True:
            yield env.timeout(rng.expovariate_mean(THINK_MEAN))
            self.state = hungry
            start_waiting = env.now
            if emit is not None:
                emit(env.now, label, "requested chopstick")
            rq1 = first.request()
            yield rq1
            self.state = hungry_with_one
            if emit is not None:
                emit(env.now, label, "obtained chopstick")
            yield env.timeout(SECOND_PICK_DELAY)
            if emit is not None:
                emit(env.now, label, "requested another chopstick")
            rq2 = second.request()
            yield rq2
            if emit is not None:
                emit(env.now, label, "obtained another chopstick")
            fed = True
            if bowl is not None:
                request = bowl.get(self.meal_size)
                if impatient and not request.triggered:
                    # A withdrawal granted at once cannot lose to the deadline.
                    yield any_of(env, [request, env.timeout(MAX_FOOD_WAIT)])
                    fed = request.processed
                else:
                    yield request
                if emit is not None:
                    emit(env.now, label, "reserved food" if fed else "gave up")
                if fed:
                    self.rice_consumed += self.meal_size
                else:
                    # The abandoned withdrawal must not drain stock later.
                    bowl.cancel_get(request)
            self.waiting += env.now - start_waiting
            if fed:
                self.state = eating
                self.meals += 1
                yield env.timeout(rng.expovariate_mean(EAT_MEAN))
                self.meal_size = PORTION
                self.give_ups = 0
            else:
                self.give_ups += 1
                self.total_give_ups += 1
                self.meal_size += PORTION
            self.state = thinking
            first.release(rq1)
            second.release(rq2)
            if emit is not None:
                emit(env.now, label, "released the chopsticks")


class Chef:
    """Tops the bowl back up to capacity every ``RESTOCK_PERIOD`` time units."""

    def __init__(self, env: Environment, bowl: Container):
        self.env = env
        self.bowl = bowl
        self.total_restocked = 0.0
        spawn(env, self._replenish(), name="chef")

    def _replenish(self):
        env = self.env
        bowl = self.bowl
        while True:
            yield env.timeout(RESTOCK_PERIOD)
            if bowl.level < bowl.capacity:
                amount = bowl.capacity - bowl.level
                yield bowl.put(amount)
                self.total_restocked += amount


class Party(NamedTuple):
    philosophers: list[Philosopher]
    chopsticks: list[Resource]
    bowl: Container | None = None
    chef: Chef | None = None

    @property
    def mean_waiting(self) -> float:
        """Mean of the diners' waiting times, as a running total in seat order.

        Not ``sum()``, which rounds differently from Python 3.12 on.
        """
        total = 0.0
        for ph in self.philosophers:
            total += ph.waiting
        return total / len(self.philosophers)


def build_party(env: Environment, n: int, variant: str,
                trace: Callable[[float, str, str], object] | None = None) -> Party:
    """Wire ``n`` philosophers and chopsticks in a ring for one variant.

    Philosopher ``i`` is handed chopsticks ``i`` and ``(i+1) mod n``: in that
    order if classic, else lower index first, so no cycle of waits can form
    (Dijkstra's resource hierarchy). Rice variants add a full bowl and a chef.
    Every diner reports to the one ``trace`` sink (see :class:`Philosopher`).
    """
    check_party(variant, n)
    bowl = chef = None
    if variant in RICE_VARIANTS:
        bowl = Container(env, init=BOWL_CAPACITY, capacity=BOWL_CAPACITY)
        chef = Chef(env, bowl)
    chopsticks = [Resource(env, capacity=1) for _ in range(n)]
    seats = [(i, (i + 1) % n) for i in range(n)]
    if variant != "classic":
        seats = [sorted(seat) for seat in seats]
    philosophers = [
        Philosopher(env, (chopsticks[a], chopsticks[b]), i, bowl=bowl,
                    impatient=variant == "impatient", trace=trace)
        for i, (a, b) in enumerate(seats)
    ]
    return Party(philosophers, chopsticks, bowl, chef)


def detect_deadlock(chopsticks) -> bool:
    """Whether every chopstick is held and waited for: a stuck ring, exactly.

    A ``build_party`` diner waits for at most one chopstick and never cancels,
    so n waiters among n diners each hold one and wait for the next: none can
    release. A classic diner waiting for its first would wait on a neighbour
    holding both, who will release them; so every stuck ring is this state.
    """
    return bool(chopsticks) and all(c.count and c.queued for c in chopsticks)


class CustomerRecord:
    """One customer's log, filled in by ``counter_scenario`` as the run goes."""

    __slots__ = ("index", "arrival", "service_start", "departure", "failed")

    def __init__(self, index: int, arrival: float | None = None,
                 service_start: float | None = None,
                 departure: float | None = None, failed: bool = False):
        self.index, self.arrival, self.service_start = index, arrival, service_start
        self.departure, self.failed = departure, failed

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"CustomerRecord({fields})"

    def __eq__(self, other):
        if type(other) is not CustomerRecord:
            return NotImplemented
        names = self.__slots__
        return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


class CounterResult(NamedTuple):
    customers: list[CustomerRecord]
    outcome: RunOutcome


def counter_scenario(env: Environment, n_customers: int = 10,
                     until: float | None = None, *,
                     trace: Callable[[float, str, str], object]) -> CounterResult:
    """Run the service-counter model and return its per-customer log.

    Customers arrive with exponential interarrival gaps, append a ticket
    event to the service line and wake the operator if it fell asleep. The
    operator serves the head ticket after exactly ``SERVICE_DELAY``, failing
    one service in ``FAIL_ONE_IN`` on average; with nothing to do it sleeps
    on an event nobody ever triggers until a customer interrupts it. Each
    step goes to the sink ``trace(time, actor, message)``, as a diner's does.
    The log holds one record per customer who arrived by the horizon.
    """
    if type(n_customers) is not int or n_customers < 1:
        raise ValueError(f"n_customers must be an integer >= 1, got {n_customers!r}")
    line: deque[tuple[Event, CustomerRecord]] = deque()
    records: list[CustomerRecord] = []
    idle = False

    def customer(record: CustomerRecord):
        record.arrival = env.now
        trace(env.now, "Customer", "arrived")
        ticket = env.event()
        line.append((ticket, record))
        if idle:
            counter_handle.interrupt()
        try:
            yield ticket
        except CustomerFailed:
            record.failed = True
        record.departure = env.now
        trace(env.now, "Customer", "failed (and left)" if record.failed else "left")

    def customer_generator():
        for i in range(n_customers):
            record = CustomerRecord(i)
            records.append(record)
            spawn(env, customer(record), name=f"customer-{i}")
            yield env.timeout(env.rng.expovariate_mean(SERVICE_DELAY))

    def counter():
        nonlocal idle
        while True:
            if line:
                ticket, record = line.popleft()
                record.service_start = env.now
                yield env.timeout(SERVICE_DELAY)
                if env.rng.randint(0, FAIL_ONE_IN - 1) == FAIL_ONE_IN - 1:
                    ticket.fail(CustomerFailed())
                else:
                    ticket.succeed()
            else:
                idle = True
                trace(env.now, "The operator", "fell asleep")
                try:
                    yield env.event()
                except Interrupted:
                    idle = False
                    trace(env.now, "The operator", "woke up")

    spawn(env, customer_generator(), name="customer-generator")
    counter_handle: Process = spawn(env, counter(), name="counter")
    outcome = env.run(until)
    return CounterResult(records, outcome)
