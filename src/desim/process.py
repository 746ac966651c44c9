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

from types import GeneratorType
from typing import Any, Generator, NoReturn

from .kernel import URGENT, Environment, Event, LifecycleError

__all__ = ["Process", "Interrupted", "spawn"]


class Interrupted(Exception):
    """Raised inside a process body when another process interrupts it."""

    def __init__(self, cause: Any = None):
        self.cause = cause
        super().__init__(cause)


class Process(Event):
    """Handle for a spawned body; usable as an event that is its completion.

    The completion succeeds with the body's return value or fails with the
    exception the body raised; a ``MemoryError`` ends the run instead.
    A body must be a generator that has not started: any other object is a
    ``TypeError``, and a generator that has run, even to its end, is a
    ``ValueError``; either way nothing is queued. The start is the first
    resume. A body that has run by then (one generator spawned twice,
    started by the first process), or that yields anything but an event of
    its environment other than its own completion, aborts the process: it
    fails with a :class:`LifecycleError`, and ``env.run`` raises the same error.

    A failure, or a success that someone already waits on, is queued at the
    current time like any triggered event. A success that nobody waits on is
    processed in place, in the step that ran the body: it is never queued, so
    ``on_processed`` does not see it, and a process that yields the handle
    later continues at once with the return value. That holds also for a
    join made at the same time, before the step that would have processed a
    queued completion: an interrupt sent to the joiner at that time arrives
    at its next yield, not at the join.
    """

    __slots__ = ("name", "_body", "_awaiting")

    def __init__(self, env: Environment, body: Generator[Event, Any, Any],
                 name: str | None = None):
        if type(body) is not GeneratorType:
            raise TypeError(f"process body must be a generator, got {body!r}")
        if _has_run(body):
            raise ValueError(f"process body {body!r} has already started")
        Event.__init__(self, env)
        self.name = name or body.__name__
        self._body = body
        # The start is the first resume: an urgent success now.
        self._awaiting: Event | None = None
        env._queued(Event, None, URGENT).callbacks.append(self._resume)

    def interrupt(self, cause: Any = None) -> None:
        """Resume the process exceptionally with ``cause`` at its yield point.

        Delivery happens at the current time, ahead of whatever event the
        process was waiting on; that event is detached and will no longer
        resume the process. The delivery is queued when ``interrupt`` is
        called, as an urgent event. Interrupting a process that has not
        started yet therefore delivers the interrupt at its first yield,
        right after its start and ahead of any urgent event (such as a
        child's start) that its first step creates. An interrupt that
        arrives after the body has completed is dropped. Interrupting a
        completed process is an error.
        """
        if self._triggered:
            raise LifecycleError(f"cannot interrupt completed process {self.name!r}")
        wake = Event(self.env)
        wake._ok = False
        wake._value = Interrupted(cause)
        wake._observed = True  # an interrupt is never an unhandled failure
        wake.callbacks.append(self._resume)
        self.env.schedule(wake, URGENT, 0.0)

    # -- internals ------------------------------------------------------

    def _resume(self, event: Event) -> None:
        """Run the body from its yield point with ``event``'s outcome."""
        if self._triggered:
            # The body completed before this wake arrived (e.g. a prior
            # interrupt ended it); nothing to resume.
            return
        awaited = self._awaiting
        body = self._body
        if awaited is not event:
            if awaited is not None:
                # An interrupt overtook the awaited event, which is detached.
                awaited.callbacks.remove(self._resume)
            elif _has_run(body):  # the start
                # Whoever ran the body owns it: fail without resuming or closing it.
                self._abort("cannot start: its body has already started")
        while True:
            try:
                if event._ok:
                    target = body.send(event._value)
                else:
                    event._observed = True
                    target = body.throw(event._value)
            except StopIteration as stop:
                self._value = stop.value
                if self.callbacks:
                    self.env.schedule(self)
                else:  # nobody waits: processed in place, never queued
                    self._triggered = True
                    self.callbacks = None
                return
            except MemoryError:
                raise
            except Exception as failure:
                self.fail(failure)
                return
            if (not isinstance(target, Event) or target.env is not self.env
                    or target is self):
                body.close()
                self._abort("yielded " + (
                    "its own completion" if target is self else
                    f"{target!r}, which is not an event of its environment"))
            callbacks = target.callbacks
            if callbacks is not None:
                callbacks.append(self._resume)
                self._awaiting = target
                return
            # Already settled: continue in place without suspending.
            event = target

    def _abort(self, what: str) -> NoReturn:
        """Raise a ``LifecycleError`` out of ``env.run``; the process fails with it."""
        error = LifecycleError(f"process {self.name!r} {what}")
        self._observed = True  # raised right here; failed so no joiner is stranded
        self.fail(error)
        raise error

    def __repr__(self) -> str:
        return f"<Process {self.name!r} #{self.eid} {self._stage()}>"


def _has_run(body: GeneratorType) -> bool:
    """Whether ``body`` is suspended, running, exhausted or closed."""
    return body.gi_suspended or body.gi_running or body.gi_frame is None


def spawn(env: Environment, body: Generator[Event, Any, Any],
          name: str | None = None) -> Process:
    """Register a generator body to start at the current time."""
    return Process(env, body, name)
