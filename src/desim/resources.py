"""Shared resources: capacity-limited renewables and consumable containers.

A :class:`Resource` hands out up to ``capacity`` concurrent grants and queues
further requests FIFO; grants are renewable, so releasing one immediately
passes it to the head of the queue. A :class:`Container` holds a divisible
real-valued stock bounded by its capacity; ``get`` and ``put`` block (as
pending events) until the head of their FIFO queue fits the current level.
"""

from __future__ import annotations

import math
from collections import deque

from .kernel import Environment, Event, LifecycleError

__all__ = ["Resource", "Request", "Container", "ContainerGet", "ContainerPut"]


class Request(Event):
    """Grant handle for one unit of a resource; succeeds when granted."""

    __slots__ = ("resource",)


class Resource:
    """Renewable resource shared by at most ``capacity`` users at a time."""

    def __init__(self, env: Environment, capacity: int = 1):
        if type(capacity) is not int or capacity < 1:
            raise ValueError(f"capacity must be an integer >= 1, got {capacity!r}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.wait_queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a grant."""
        return len(self.wait_queue)

    def request(self) -> Request:
        """Ask for one unit; the returned event succeeds when granted.

        If a unit is free the grant happens at the current time, otherwise
        the request joins the FIFO queue.
        """
        rq = Request(self.env)
        rq.resource = self
        if len(self.users) < self.capacity:
            self._grant(rq)
        else:
            self.wait_queue.append(rq)
        return rq

    def release(self, rq: Request) -> None:
        """Return a granted unit; the head waiter (if any) is granted now.

        Never blocks the caller. Releasing a request that was not granted,
        or releasing one twice, is an error.
        """
        if rq.resource is not self:
            raise LifecycleError("request belongs to a different resource")
        try:
            self.users.remove(rq)
        except ValueError:
            raise LifecycleError(
                "release of an ungranted or already-released request") from None
        if self.wait_queue:
            self._grant(self.wait_queue.popleft())

    def _grant(self, rq: Request) -> None:  # as rq.succeed(), without the call
        self.users.append(rq)
        self.env.schedule(rq)

    def __repr__(self) -> str:
        return (f"<Resource capacity={self.capacity} count={len(self.users)} "
                f"queued={len(self.wait_queue)}>")


class ContainerGet(Event):
    """Pending withdrawal of a fixed amount; succeeds once stock suffices."""

    __slots__ = ("amount",)


class ContainerPut(Event):
    """Pending deposit of a fixed amount; succeeds once it fits the capacity."""

    __slots__ = ("amount",)


class Container:
    """Consumable stock with blocking put/get of real-valued amounts.

    Both queues are strict FIFO: a large blocked get at the head holds back
    smaller later gets even if those would fit the current level.
    """

    def __init__(self, env: Environment, init: float, capacity: float):
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity!r}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init must lie in [0, capacity], got {init!r}")
        self.env = env
        self.capacity = float(capacity)
        self.level = float(init)
        self.get_queue: deque[ContainerGet] = deque()
        self.put_queue: deque[ContainerPut] = deque()

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; the returned event succeeds when stock allows.

        An amount above the container capacity can never be satisfied and is
        rejected immediately rather than blocking forever.
        """
        return self._enqueue(ContainerGet, self.get_queue, "get", amount)

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; the returned event succeeds when it fits.

        An amount above the container capacity can never fit and is rejected
        immediately rather than blocking every later put forever.
        """
        return self._enqueue(ContainerPut, self.put_queue, "put", amount)

    def _enqueue(self, kind, queue: deque, verb: str, amount: float):
        """Check ``amount``, queue a new ``kind`` event for it and settle."""
        if not (amount > 0 and math.isfinite(amount)):
            raise ValueError(f"{verb} amount must be finite and > 0, got {amount!r}")
        if amount > self.capacity:
            raise ValueError(
                f"{verb} of {amount!r} exceeds container capacity {self.capacity!r}")
        ev = kind(self.env)
        ev.amount = float(amount)
        queue.append(ev)
        self._settle()
        return ev

    def cancel_get(self, ev: ContainerGet) -> None:
        """Withdraw a pending get so it can never take stock.

        Required when a waiter abandons its withdrawal (e.g. after losing a
        race against a timeout); otherwise the queued get would eventually
        drain stock nobody consumes.
        """
        if ev not in self.get_queue:
            raise LifecycleError("cancel of an unknown, cancelled, or completed get")
        self.get_queue.remove(ev)
        # Removing a blocked head may make the new head satisfiable.
        self._settle()

    def _settle(self) -> None:
        """Grant queue heads until neither queue can advance."""
        gets, puts = self.get_queue, self.put_queue
        progress = True
        while progress:
            progress = False
            while gets and gets[0].amount <= self.level:
                ev = gets.popleft()
                self.level -= ev.amount
                ev.succeed(ev.amount)
            # A put that would overflow the level to inf stays queued; no get lowers inf
            while puts and math.isfinite(level := self.level + puts[0].amount) \
                    and level <= self.capacity:
                ev = puts.popleft()
                self.level = level
                ev.succeed(ev.amount)
                progress = True  # only a put can let another get through

    def __repr__(self) -> str:
        return f"<Container level={self.level} capacity={self.capacity}>"
