"""Stateful property tests: resource and container invariants under any mix of calls.

Hypothesis drives each machine through random sequences of its rules and
checks the invariants after every step. The resource is compared against a
plain FIFO model of who holds a unit and who waits; the container keeps its
stock ledger, with whole-number amounts so the float sums are exact.
"""

from collections import deque

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from desim import Container, Environment, Resource

SETTINGS = settings(max_examples=50, stateful_step_count=30, deadline=None)


class ResourceMachine(RuleBasedStateMachine):
    @initialize(capacity=st.integers(1, 3))
    def setup(self, capacity):
        self.env = Environment(0)
        self.res = Resource(self.env, capacity)
        self.created = []           # requests, in creation order
        self.grants = []            # granted requests, in grant order
        self.holders = []           # model: granted and not released
        self.waiting = deque()      # model: FIFO of requests not yet granted

    def _record_grants(self):
        for rq in self.created:
            if not rq.pending and rq not in self.grants:
                self.grants.append(rq)

    @rule()
    def request(self):
        rq = self.res.request()
        self.created.append(rq)
        if len(self.holders) < self.res.capacity:
            self.holders.append(rq)
        else:
            self.waiting.append(rq)
        self._record_grants()

    @precondition(lambda self: self.holders)
    @rule(data=st.data())
    def release(self, data):
        rq = data.draw(st.sampled_from(self.holders))
        self.res.release(rq)
        self.holders.remove(rq)
        if self.waiting:
            self.holders.append(self.waiting.popleft())
        self._record_grants()

    @rule()
    def step(self):
        self.env.step()

    @invariant()
    def count_within_capacity(self):
        assert self.res.count <= self.res.capacity

    @invariant()
    def matches_fifo_model(self):
        assert self.res.users == self.holders
        assert list(self.res.wait_queue) == list(self.waiting)
        assert not any(rq.pending for rq in self.holders)
        assert all(rq.pending for rq in self.waiting)

    @invariant()
    def grants_come_in_fifo_order(self):
        # Requests are granted exactly in the order they were made.
        assert self.grants == self.created[:len(self.grants)]


class ContainerMachine(RuleBasedStateMachine):
    @initialize(data=st.data())
    def setup(self, data):
        capacity = data.draw(st.integers(1, 20), label="capacity")
        self.init = float(data.draw(st.integers(0, capacity), label="init"))
        self.env = Environment(0)
        self.box = Container(self.env, init=self.init, capacity=float(capacity))
        self.gets = []
        self.puts = []
        self.amounts = st.integers(1, capacity).map(float)

    @rule(data=st.data())
    def get(self, data):
        self.gets.append(self.box.get(data.draw(self.amounts)))

    @rule(data=st.data())
    def put(self, data):
        self.puts.append(self.box.put(data.draw(self.amounts)))

    @precondition(lambda self: self.box.get_queue)
    @rule(data=st.data())
    def cancel_get(self, data):
        ev = data.draw(st.sampled_from(list(self.box.get_queue)))
        self.box.cancel_get(ev)
        self.gets.remove(ev)

    @rule()
    def step(self):
        self.env.step()

    @invariant()
    def level_within_bounds(self):
        assert 0.0 <= self.box.level <= self.box.capacity

    @invariant()
    def stock_ledger_balances(self):
        put = sum(ev.amount for ev in self.puts if not ev.pending)
        got = sum(ev.amount for ev in self.gets if not ev.pending)
        assert self.init + put - got == self.box.level

    @invariant()
    def queue_heads_are_blocked(self):
        box = self.box
        if box.get_queue:
            assert box.get_queue[0].amount > box.level
        if box.put_queue:
            assert box.level + box.put_queue[0].amount > box.capacity


TestResourceMachine = ResourceMachine.TestCase
TestResourceMachine.settings = SETTINGS
TestContainerMachine = ContainerMachine.TestCase
TestContainerMachine.settings = SETTINGS
