"""Deterministic event counts, and the insert/pop interception contract.

Each model processes a fixed number of events for a fixed seed, so the count
is a noise-free second metric next to any timing: a change to the hot path
that keeps the trajectory keeps these numbers. The interception contract is
what criterion 9's shadow heap relies on: every insert goes through the
instance's ``schedule`` and every pop through the instance's ``step``.
"""

import pytest

from desim import (
    NORMAL,
    Container,
    Environment,
    Interrupted,
    Resource,
    any_of,
    spawn,
)
from desim import stats
from desim.scenarios import build_party, counter_scenario


def processed_count(env):
    """Count ``env``'s processed events with ``on_processed``; return a reader."""
    count = 0

    def tick(event):
        nonlocal count
        count += 1

    env.on_processed = tick
    return lambda: count


class TestEventCounts:
    @pytest.mark.parametrize("variant, events", [
        ("ordered", 77_498),
        ("bowl", 90_539),
        ("impatient", 91_222),
    ])
    def test_party_event_count_is_pinned(self, variant, events):
        env = Environment(1)
        build_party(env, 12, variant)
        count = processed_count(env)
        env.run(until=5e4)
        assert count() == events

    def test_mm1_processes_four_events_per_customer_plus_one(self, monkeypatch):
        # Per customer: start, grant, service timeout and arrival gap; plus
        # the arrivals process's start. Nobody joins a customer or the
        # arrivals, so their completions are processed in place, unqueued.
        counters = []

        class CountingEnvironment(Environment):
            def __init__(self, seed):
                super().__init__(seed)
                counters.append(processed_count(self))

        monkeypatch.setattr(stats, "Environment", CountingEnvironment)
        stats.mm1_simulate(stats.MM1Params(0.09, 0.1), 5_000, seed=1)
        [count] = counters
        assert count() == 4 * 5_000 + 1

    def test_counter_event_count_is_pinned(self):
        env = Environment(7)
        count = processed_count(env)
        counter_scenario(env, 2000, trace=lambda time, actor, message: None)
        assert count() == 8_099


class TestInterceptionContract:
    def test_every_insert_and_pop_goes_through_the_instance(self):
        env = Environment(0)
        inserted, popped, processed = [], [], []
        original_schedule, original_step = env.schedule, env.step

        def schedule(event, priority=NORMAL, delay=0.0):
            original_schedule(event, priority, delay)
            inserted.append(type(event).__name__)

        def step():
            progressed = original_step()
            if progressed:
                popped.append(True)
            return progressed

        env.schedule, env.step = schedule, step
        env.on_processed = processed.append

        res = Resource(env, capacity=1)
        box = Container(env, init=0.0, capacity=10.0)
        seen = {}

        def holder():
            rq = res.request()  # free: granted at request
            yield rq
            yield env.timeout(1.0)
            res.release(rq)  # hands the unit to the waiter

        def waiter():
            rq = res.request()  # busy: queued
            yield rq
            seen["granted_at"] = env.now
            res.release(rq)

        def producer():
            yield env.timeout(2.0)
            yield box.put(3.0)

        def consumer():
            got = box.get(3.0)
            race = yield any_of(env, [got, env.timeout(5.0)])
            seen["won"] = race is got

        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupted as stop:
                seen["interrupted"] = (env.now, stop.cause)

        def parent():
            child = spawn(env, sleeper())
            yield env.timeout(0.5)
            child.interrupt("wake")
            yield child

        for body in (holder(), waiter(), producer(), consumer(), parent()):
            spawn(env, body)
        outcome = env.run()

        assert outcome.exhausted
        assert seen == {"granted_at": 1.0, "won": True, "interrupted": (0.5, "wake")}
        assert {"Request", "ContainerGet", "ContainerPut", "Condition",
                "Process", "Event"} <= set(inserted)
        assert len(inserted) == len(popped) == len(processed)
