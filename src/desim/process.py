"""Resumable processes driven by the event loop.

A process body is a Python generator that yields events belonging to its
environment. The body is suspended at each yield until the yielded event is
processed: a success resumes it with the event's value, a failure raises the
cause at the yield point. A :class:`Process` is itself an event — its
completion — so one process can wait for another simply by yielding its
handle, and a parent observes a child's return value or failure cause
directly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from .kernel import (
    NORMAL,
    URGENT,
    Environment,
    Event,
    EventFailed,
    LifecycleError,
)
from .kernel import _PROCESSED

__all__ = ["Process", "Interrupted", "spawn"]


class Interrupted(Exception):
    """Raised inside a process body when another process interrupts it."""

    def __init__(self, cause: Any = None):
        self.cause = cause
        super().__init__(cause)


class Process(Event):
    """Handle for a spawned body; usable as an event that is its completion.

    The completion succeeds with the body's return value or fails with the
    exception the body raised. ``alive`` is true from spawn until the
    completion event has been processed.
    """

    __slots__ = ("name", "_body", "_awaiting", "_started", "_finished",
                 "_queued_interrupts")

    def __init__(self, env: Environment, body: Generator[Event, Any, Any],
                 name: str | None = None):
        if not hasattr(body, "send") or not hasattr(body, "throw"):
            raise TypeError(f"process body must be a generator, got {body!r}")
        super().__init__(env)
        self.name = name or getattr(body, "__name__", None) or f"process-{self.eid}"
        self._body = body
        self._awaiting: Event | None = None
        self._started = False
        self._finished = False
        self._queued_interrupts: deque[Any] = deque()
        start = Event(env)
        start._ok = True
        env.schedule(start, URGENT, 0.0)
        start.add_callback(self._start)

    @property
    def alive(self) -> bool:
        """True between spawn and the processing of the completion event."""
        return self.state is not _PROCESSED

    def interrupt(self, cause: Any = None) -> None:
        """Resume the process exceptionally with ``cause`` at its yield point.

        Delivery happens at the current time, ahead of whatever event the
        process was waiting on; that event is detached and will no longer
        resume the process. Interrupting a process that has not started yet
        queues the interrupt for delivery at its first suspension.
        Interrupting a completed process is an error.
        """
        if self._finished:
            raise LifecycleError(f"cannot interrupt completed process {self.name!r}")
        if not self._started:
            self._queued_interrupts.append(cause)
            return
        self._schedule_interrupt(cause)

    # -- internals ------------------------------------------------------

    def _schedule_interrupt(self, cause: Any) -> None:
        delivery = Event(self.env)
        delivery._ok = True
        delivery._value = cause
        self.env.schedule(delivery, URGENT, 0.0)
        delivery.add_callback(self._deliver_interrupt)

    def _deliver_interrupt(self, delivery: Event) -> None:
        if self._finished:
            # The body completed between the interrupt call and its
            # delivery (e.g. a prior interrupt ended it); nothing to wake.
            return
        awaited = self._awaiting
        if awaited is not None:
            awaited.callbacks.remove(self._resume)
            self._awaiting = None
        self._advance(None, Interrupted(delivery._value))

    def _start(self, start_event: Event) -> None:
        self._started = True
        self._advance(None, None)
        while self._queued_interrupts:
            cause = self._queued_interrupts.popleft()
            if self._finished:
                break
            self._schedule_interrupt(cause)

    def _resume(self, event: Event) -> None:
        self._awaiting = None
        if event._ok:
            self._advance(event._value, None)
        else:
            event._observed = True
            cause = event._value
            exc = cause if isinstance(cause, BaseException) else EventFailed(cause)
            self._advance(None, exc)

    def _advance(self, value: Any, exc: BaseException | None) -> None:
        body = self._body
        while True:
            try:
                if exc is not None:
                    target = body.throw(exc)
                else:
                    target = body.send(value)
            except StopIteration as stop:
                self._finished = True
                self._ok = True
                self._value = stop.value
                self.env.schedule(self, NORMAL, 0.0)
                return
            except Exception as failure:
                self._finished = True
                self._ok = False
                self._value = failure
                self.env.schedule(self, NORMAL, 0.0)
                return
            if not isinstance(target, Event) or target.env is not self.env:
                raise LifecycleError(
                    f"process {self.name!r} yielded {target!r}, which is not "
                    f"an event of its environment")
            if target is self:
                raise LifecycleError(
                    f"process {self.name!r} yielded its own completion")
            if target.state is _PROCESSED:
                # Already settled: continue in place without suspending.
                if target._ok:
                    value, exc = target._value, None
                else:
                    target._observed = True
                    cause = target._value
                    value = None
                    exc = cause if isinstance(cause, BaseException) else EventFailed(cause)
                continue
            target.callbacks.append(self._resume)
            self._awaiting = target
            return

    def _process_name(self) -> str | None:
        return self.name

    def __repr__(self) -> str:
        return f"<Process {self.name!r} #{self.eid} {self.state.value}>"


def spawn(env: Environment, body: Generator[Event, Any, Any],
          name: str | None = None) -> Process:
    """Register a generator body to start at the current time."""
    return Process(env, body, name)
