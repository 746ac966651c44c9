"""Simulation core: clock, future event list, event lifecycle, run loop.

An :class:`Environment` owns a monotone clock and a priority queue of
triggered events (the future event list). Everything else in the package
is layered on top of the four event-lifecycle primitives defined here:
create pending, trigger (schedule), process, and the success/failure
outcome that processing delivers to callbacks.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, NamedTuple, Optional

from .rng import Rng

__all__ = [
    "URGENT",
    "NORMAL",
    "Event",
    "Environment",
    "RunOutcome",
    "KernelError",
    "LifecycleError",
    "UnhandledFailureError",
    "Condition",
    "any_of",
]

# Scheduling priorities: smaller runs earlier at equal time. Internal
# bookkeeping (process starts, interrupt deliveries) uses URGENT so it wins
# ties against ordinary timeouts and grants.
URGENT = 0
NORMAL = 1

_INF = math.inf


class KernelError(Exception):
    """Base class for simulation contract violations."""


class LifecycleError(KernelError):
    """An event or handle was driven through an illegal state transition."""


class UnhandledFailureError(KernelError):
    """A failure outcome was processed with nobody observing it.

    Carries the original cause and, when the failed event was a process
    completion, the name of the failing process.
    """

    def __init__(self, cause: BaseException, process_name: str | None = None):
        self.cause = cause
        self.process_name = process_name
        who = f"process {process_name!r}" if process_name else "an event"
        super().__init__(f"unhandled failure in {who}: {cause!r}")

    def __reduce__(self):
        # The constructor takes (cause, process_name), not the message that
        # the default reduce would pass it, so a copy rebuilds from those.
        return (type(self), (self.cause, self.process_name))


class Event:
    """One-shot occurrence with a pending -> triggered -> processed lifecycle.

    A processed event carries exactly one outcome: success with a value or
    failure with a cause. Callbacks registered before processing fire exactly
    once, in registration order, when the event is processed.

    The lifecycle is read off two fields: an event is pending until
    ``_triggered`` is set, and processed once ``callbacks`` is None. The
    outcome is a success unless ``fail`` cleared ``_ok``. The key an event
    is queued under is held only by its queue entry.
    """

    __slots__ = ("env", "eid", "callbacks", "_ok", "_value", "_observed",
                 "_triggered")

    def __init__(self, env: "Environment"):
        self.env = env
        self.eid = next(env._eids)
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._ok = True
        self._value: Any = None
        self._observed = False
        self._triggered = False

    # -- observation --------------------------------------------------

    @property
    def pending(self) -> bool:
        return not self._triggered

    @property
    def triggered(self) -> bool:
        return self._triggered and self.callbacks is not None

    @property
    def processed(self) -> bool:
        """True iff the event has been processed (outcome delivered)."""
        return self.callbacks is None

    @property
    def succeeded(self) -> bool:
        return self.callbacks is None and self._ok

    @property
    def failed(self) -> bool:
        return self.callbacks is None and not self._ok

    @property
    def value(self) -> Any:
        """Success value; raises unless the event succeeded."""
        if not self.succeeded:
            raise LifecycleError(f"{self!r} has no success value")
        return self._value

    @property
    def failure_cause(self) -> BaseException:
        """Failure cause; raises unless the event failed."""
        if not self.failed:
            raise LifecycleError(f"{self!r} has no failure cause")
        return self._value

    # -- lifecycle ----------------------------------------------------

    def succeed(self, value: Any = None) -> None:
        """Set a success outcome and queue the event at the current time."""
        self.env.schedule(self)
        self._value = value

    def fail(self, cause: BaseException) -> None:
        """Set a failure outcome and queue the event at the current time.

        The cause must be an exception; waiters have it raised as-is at
        their yield points.
        """
        if not isinstance(cause, BaseException):
            raise TypeError(f"failure cause must be an exception, got {cause!r}")
        self.env.schedule(self)
        self._ok = False
        self._value = cause

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register a callback invoked with this event when it is processed."""
        if self.callbacks is None:
            raise LifecycleError(f"cannot add a callback to processed {self!r}")
        self.callbacks.append(callback)

    def _stage(self) -> str:
        return ("pending" if not self._triggered else
                "triggered" if self.callbacks is not None else "processed")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} #{self.eid} {self._stage()}>"


class RunOutcome(NamedTuple):
    """How a run ended: queue exhausted, or the time horizon was reached."""

    exhausted: bool
    at: float


class Environment:
    """Single-threaded simulation environment.

    Owns the clock (``now``), the future event list, the event id counter
    and one seeded random stream. An environment must only ever be driven
    from one thread; independent environments are fully isolated and may
    run in parallel.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eids = itertools.count()
        self.rng = Rng(seed)
        # Optional instrumentation: called with each event that step pops,
        # right after its callbacks have run (a process completion nobody
        # waits on is never queued, so never seen). Used by invariant-checking
        # tests; None-cost when unset.
        self.on_processed: Optional[Callable[[Event], None]] = None

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def event(self) -> Event:
        """Create a fresh pending event owned by this environment."""
        return Event(self)

    def schedule(self, event: Event, priority: int = NORMAL,
                 delay: float = 0.0) -> None:
        """Queue a pending event for processing at ``now + delay``.

        Ties at equal time are broken by priority (smaller first), then by
        event creation sequence. An event already triggered or processed
        cannot be scheduled again.
        """
        if event._triggered:
            raise LifecycleError(f"cannot schedule {event!r}: not pending")
        if event.env is not self:
            raise LifecycleError(f"{event!r} belongs to a different environment")
        if not 0.0 <= delay < _INF:  # also rejects NaN
            raise ValueError(f"delay must be finite and >= 0, got {delay!r}")
        event._triggered = True
        heappush(self._queue, (self._now + delay, priority, event.eid, event))

    def timeout(self, delay: float) -> Event:
        """Event that succeeds, with value ``None``, ``delay`` time units from now."""
        ev = Event(self)
        self.schedule(ev, NORMAL, delay)
        return ev

    def step(self) -> bool:
        """Process the next queued event; returns False iff the queue is empty.

        Advances the clock to the event's scheduled time, marks it processed
        and runs its callbacks in registration order. A callback that raises
        does not stop the others: the first error is raised once all have run
        and ``on_processed`` has seen the event. A failure outcome that no
        waiter observes raises :class:`UnhandledFailureError`. Only queued
        events pass through here: a process completion that nobody waits on
        is processed by the step that ran its body, unseen by the hook.
        """
        if not self._queue:
            return False
        self._now, _, _, event = heappop(self._queue)
        callbacks = event.callbacks
        event.callbacks = None
        error = None
        for callback in callbacks:
            try:
                callback(event)
            except Exception as exc:
                if error is None:
                    error = exc
        if self.on_processed is not None:
            self.on_processed(event)
        if error is not None:
            raise error
        if not event._ok and not event._observed:
            raise UnhandledFailureError(event._value, getattr(event, "name", None))
        return True

    def run(self, until: float | None = None) -> RunOutcome:
        """Step until the queue is empty or the next event lies beyond ``until``.

        Events scheduled exactly at ``until`` are processed. On reaching the
        horizon the clock is advanced to ``until``; if the queue empties
        strictly before the horizon (or no horizon was given) the outcome is
        exhaustion with the clock at the last processed time.
        """
        queue = self._queue
        step = self.step  # read once, so an instance override is honoured
        horizon = math.inf if until is None else float(until)
        if until is not None and not (math.isfinite(horizon) and horizon >= self._now):
            raise ValueError(f"until must be finite and >= now, got {until!r}")
        while queue and queue[0][0] <= horizon:
            step()
        if not queue and self._now < horizon:
            return RunOutcome(exhausted=True, at=self._now)
        self._now = horizon
        return RunOutcome(exhausted=False, at=horizon)

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"


class Condition(Event):
    """Composite over a fixed set of events, met when the first is processed.

    Succeeds with its first successful constituent (the first in list order
    if several are processed at construction). The first failing constituent
    fails the composite with the same cause; constituent failures are counted
    as observed by the composite whether they arrive before or after it
    triggers, so a losing branch cannot abort the run.
    """

    __slots__ = ()

    def __init__(self, env: Environment, events: Iterable[Event]):
        events = list(events)
        if not events:
            raise ValueError("composite event over an empty list")
        for ev in events:
            if ev.env is not env:
                raise LifecycleError(f"{ev!r} belongs to a different environment")
        super().__init__(env)
        for ev in events:
            if ev.callbacks is None:
                self._on_constituent(ev)
            else:
                ev.callbacks.append(self._on_constituent)

    def _on_constituent(self, ev: Event) -> None:
        if not ev._ok:
            ev._observed = True
            if not self._triggered:
                self.fail(ev._value)
        elif not self._triggered:
            self.succeed(ev)


def any_of(env: Environment, events: Iterable[Event]) -> Condition:
    """Event processed once the first of ``events`` is processed."""
    return Condition(env, events)
