"""Event lifecycle, scheduling order, and run-loop semantics."""

import pickle
import random
import time

import pytest

from desim import (
    NORMAL,
    URGENT,
    Container,
    ContainerGet,
    ContainerPut,
    Environment,
    Event,
    Interrupted,
    LifecycleError,
    Request,
    Resource,
    RunOutcome,
    UnhandledFailureError,
    any_of,
    spawn,
)


def drain(env, until=None):
    return env.run(until)


class TestEnvironment:
    def test_fresh_environment(self):
        env = Environment(seed=0)
        assert env.now == 0.0
        outcome = env.run()
        assert outcome.exhausted and outcome.at == 0.0

    def test_same_seed_same_stream(self):
        a, b = Environment(seed=42), Environment(seed=42)
        draws = [[env.rng.expovariate_mean(10.0) for _ in range(5)] for env in (a, b)]
        assert draws[0] == draws[1]

    def test_different_seeds_diverge(self):
        # First exponential draw differs between seeds 1 and 2.
        a, b = Environment(seed=1), Environment(seed=2)
        assert a.rng.expovariate_mean(10.0) != b.rng.expovariate_mean(10.0)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # random.Random seeds with abs(seed), so -1 would replay seed 1.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            Environment(seed)

    def test_repr_shows_clock_and_queue_length(self):
        env = Environment(0)
        env.timeout(2.5)
        assert repr(env) == "<Environment now=0.0 queued=1>"
        env.run()
        assert repr(env) == "<Environment now=2.5 queued=0>"


class TestTimeout:
    def test_single_timeout_advances_clock(self):
        env = Environment(0)
        env.timeout(3.0)
        assert env.step() is True
        assert env.now == 3.0

    def test_timeout_from_reference_trace_times(self):
        # A one-unit pause starting at the trace's first grant instant lands
        # on the trace's second request instant, bit for bit.
        env = Environment(0)
        env.timeout(0.10843721582414197)
        env.step()
        assert env.now == 0.10843721582414197
        env.timeout(1.0)
        env.step()
        assert env.now == 1.108437215824142

    def test_zero_timeout_runs_after_existing_same_time_entries(self):
        env = Environment(0)
        order = []
        first = env.timeout(0.0)
        first.add_callback(lambda e: order.append("first"))
        second = env.timeout(0.0)
        second.add_callback(lambda e: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_invalid_delay_rejected(self, bad):
        env = Environment(0)
        with pytest.raises(ValueError) as caught:
            env.timeout(bad)
        assert str(caught.value) == f"delay must be finite and >= 0, got {bad!r}"
        assert env._queue == []
        # The rejected timeout's event was made before the check and keeps eid 0.
        assert env.event().eid == 1


class TestSchedule:
    def test_priority_orders_same_time_entries(self):
        env = Environment(0)
        order = []
        low = env.event()
        low.add_callback(lambda e: order.append("normal"))
        urgent = env.event()
        urgent.add_callback(lambda e: order.append("urgent"))
        env.schedule(low, priority=NORMAL, delay=0.0)
        env.schedule(urgent, priority=URGENT, delay=0.0)
        env.run()
        assert order == ["urgent", "normal"]

    def test_creation_order_breaks_ties(self):
        # Scheduled b-then-a, but a was created first and wins the tie.
        env = Environment(0)
        order = []
        a = env.event()
        b = env.event()
        a.add_callback(lambda e: order.append("a"))
        b.add_callback(lambda e: order.append("b"))
        env.schedule(b, delay=0.0)
        env.schedule(a, delay=0.0)
        env.run()
        assert order == ["a", "b"]

    def test_every_event_kind_numbered_from_zero_per_environment(self):
        def eids(env):
            box = Container(env, init=5.0, capacity=10.0)
            events = (env.timeout(1.0), Resource(env).request(), box.get(3.0),
                      box.put(2.0))
            return [ev.eid for ev in events]

        assert eids(Environment(0)) == [0, 1, 2, 3]
        assert eids(Environment(0)) == [0, 1, 2, 3]

    def test_schedule_twice_is_lifecycle_error(self):
        env = Environment(0)
        ev = env.event()
        env.schedule(ev, delay=1.0)
        with pytest.raises(LifecycleError):
            env.schedule(ev, delay=2.0)

    def test_foreign_event_rejected(self):
        env, other = Environment(0), Environment(0)
        ev = other.event()
        with pytest.raises(LifecycleError):
            env.schedule(ev)

    @pytest.mark.parametrize("foreign, delay, error", [
        pytest.param(True, 0.0, LifecycleError, id="other-environment"),
        pytest.param(False, -1.0, ValueError, id="negative"),
        pytest.param(False, float("inf"), ValueError, id="inf"),
        pytest.param(False, float("nan"), ValueError, id="nan"),
    ])
    def test_rejected_schedule_leaves_the_event_pending(self, foreign, delay,
                                                        error):
        env = Environment(0)
        ev = env.event()
        scheduler = Environment(0) if foreign else env
        with pytest.raises(error):
            scheduler.schedule(ev, NORMAL, delay)
        assert ev.pending
        assert env._queue == [] and scheduler._queue == []
        ev.succeed()
        assert env._queue == [(0.0, NORMAL, ev.eid, ev)]

    def test_same_instant_inserts_pop_in_a_pinned_order(self):
        # At t=1 one step queues a spawn's start, a grant, a zero timeout, a
        # plain success, a container get and an interrupt: urgent entries
        # first, then each priority in creation order, not in insert order.
        env = Environment(0)
        res = Resource(env)
        box = Container(env, init=5.0, capacity=10.0)
        popped = []
        original_step = env.step

        def step():
            head = env._queue[0][3]
            popped.append((type(head).__name__, head.eid))
            return original_step()

        def sleeper():
            try:
                yield env.timeout(5.0)
            except Interrupted:
                pass

        def idle():
            yield env.timeout(1.0)

        def driver():
            early = env.event()
            target = spawn(env, sleeper())
            yield env.timeout(1.0)
            spawn(env, idle())
            res.request()
            env.timeout(0.0)
            box.get(2.0)
            early.succeed()
            target.interrupt("now")

        env.step = step
        spawn(env, driver())
        env.run()
        assert popped == [
            ("Event", 1), ("Event", 4), ("Event", 5),  # t=0 starts, driver's pause
            ("Event", 8), ("Event", 12),  # t=1 urgent: idle's start, the interrupt
            ("Event", 2), ("Request", 9), ("Event", 10), ("ContainerGet", 11),
            ("Event", 13), ("Event", 6),  # idle's pause; the sleeper's detached one
        ]

    def test_plain_scheduled_event_succeeds_with_none(self):
        env = Environment(0)
        ev = env.event()
        env.schedule(ev, delay=2.0)
        env.run()
        assert ev.succeeded and ev.value is None


def slot_values(ev):
    """Every slot the event's classes declare, with its value or ``"unset"``."""
    return {name: getattr(ev, name, "unset")
            for cls in type(ev).__mro__ for name in getattr(cls, "__slots__", ())}


def same_but_eid(built, by_class):
    """Whether two events hold the same fields, but for the eid, and the same stage."""
    def observed(ev):
        return (ev._stage(), ev.pending, ev.triggered, ev.processed, ev.succeeded,
                ev.failed)

    return (slot_values(built) == {**slot_values(by_class), "eid": built.eid}
            and observed(built) == observed(by_class))


class TestBuiltWithoutTheClass:
    # _queued and timeout repeat the stores of Event.__init__ rather than
    # call the class, so each must leave exactly what the class and succeed
    # leave, before and after processing; a field added to __init__ alone
    # shows up here as "unset".
    @pytest.mark.parametrize("kind", [Event, Request, ContainerGet, ContainerPut])
    @pytest.mark.parametrize("value", [None, 2.5])
    @pytest.mark.parametrize("priority", [URGENT, NORMAL])
    def test_queued_event_matches_one_built_by_its_class(self, kind, value, priority):
        env = Environment(0)
        by_class = kind(env)
        by_class.succeed(value)
        built = env._queued(kind, value, priority)
        assert type(built) is kind and built.env is env
        assert built.eid == by_class.eid + 1
        assert built.callbacks == [] and built._observed is False
        assert same_but_eid(built, by_class)
        assert sorted(env._queue) == sorted([(0.0, NORMAL, by_class.eid, by_class),
                                             (0.0, priority, built.eid, built)])
        env.run()
        assert same_but_eid(built, by_class)
        assert built.value == by_class.value == value

    def test_timeout_matches_an_event_built_by_its_class(self):
        env = Environment(0)
        by_class = Event(env)
        by_class.succeed()
        built = env.timeout(2.0)
        assert type(built) is Event and built.eid == by_class.eid + 1
        assert built.callbacks == [] and built._observed is False
        assert same_but_eid(built, by_class)
        assert env._queue == [(0.0, NORMAL, by_class.eid, by_class),
                              (2.0, NORMAL, built.eid, built)]
        env.run()
        assert same_but_eid(built, by_class)


class TestOutcome:
    @pytest.mark.parametrize("processed", [False, True])
    def test_succeed_twice_is_lifecycle_error_and_keeps_the_value(self, processed):
        env = Environment(0)
        ev = env.event()
        ev.succeed("first")
        if processed:
            env.run()
        with pytest.raises(LifecycleError) as caught:
            ev.succeed("second")
        stage = "processed" if processed else "triggered"
        assert str(caught.value) == f"cannot schedule <Event #0 {stage}>: not pending"
        assert env._queue == ([] if processed else [(0.0, NORMAL, 0, ev)])
        env.run()
        assert ev.value == "first"

    def test_succeed_delivers_value(self):
        env = Environment(0)
        got = []
        def waiter():
            ev = env.event()
            def trigger():
                yield env.timeout(4.0)
                ev.succeed("ticket-paid")
            spawn(env, trigger())
            got.append((yield ev))
            got.append(env.now)
        spawn(env, waiter())
        env.run()
        assert got == ["ticket-paid", 4.0]

    def test_fail_raises_cause_in_waiter(self):
        env = Environment(0)
        class ServiceFailed(Exception):
            pass
        seen = []
        def waiter():
            ev = env.event()
            def trigger():
                yield env.timeout(1.0)
                ev.fail(ServiceFailed())
            spawn(env, trigger())
            try:
                yield ev
            except ServiceFailed:
                seen.append(env.now)
        spawn(env, waiter())
        env.run()
        assert seen == [1.0]

    def test_non_exception_cause_rejected(self):
        env = Environment(0)
        ev = env.event()
        with pytest.raises(TypeError, match="must be an exception"):
            ev.fail(("cause", 17))
        assert ev.pending and env._queue == []

    def test_succeed_twice_is_error(self):
        env = Environment(0)
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(LifecycleError):
            ev.succeed(2)

    def test_fail_after_succeed_is_error(self):
        env = Environment(0)
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(LifecycleError):
            ev.fail(RuntimeError())

    def test_rejected_trigger_leaves_outcome_untouched(self):
        env = Environment(0)
        ev = env.event()
        ev.succeed(1)
        queued = [(0.0, NORMAL, ev.eid, ev)]
        assert env._queue == queued
        with pytest.raises(LifecycleError):
            ev.succeed(2)
        with pytest.raises(LifecycleError):
            ev.fail(RuntimeError())
        assert env._queue == queued
        env.run()
        assert ev.succeeded and ev.value == 1

    def test_unobserved_failure_aborts_run(self):
        env = Environment(0)
        ev = env.event()
        ev.fail(RuntimeError("nobody listens"))
        with pytest.raises(UnhandledFailureError):
            env.run()

    def test_unhandled_failure_error_survives_pickling(self):
        # A public exception: a copy made by pickle must read the same.
        error = UnhandledFailureError(ValueError("boom"), "p1")
        copy = pickle.loads(pickle.dumps(error))
        assert str(copy) == str(error) == "unhandled failure in process 'p1': ValueError('boom')"
        assert copy.process_name == "p1"
        assert type(copy.cause) is ValueError and copy.cause.args == ("boom",)


class TestCallbacks:
    def test_callback_fires_once_at_processing_time(self):
        env = Environment(0)
        calls = []
        ev = env.timeout(5.0)
        ev.add_callback(lambda e: calls.append(env.now))
        env.run()
        assert calls == [5.0]

    def test_callbacks_fire_in_registration_order(self):
        env = Environment(0)
        calls = []
        ev = env.timeout(1.0)
        ev.add_callback(lambda e: calls.append("one"))
        ev.add_callback(lambda e: calls.append("two"))
        env.run()
        assert calls == ["one", "two"]

    def test_step_raises_the_first_of_two_callback_errors(self):
        # Both callbacks and the hook run, in that order; the first error wins.
        env = Environment(0)
        seen = []
        def first(e):
            seen.append("first")
            raise KeyError("first")
        def second(e):
            seen.append("second")
            raise IndexError("second")
        ev = env.timeout(1.0)
        ev.add_callback(first)
        ev.add_callback(second)
        env.on_processed = lambda e: seen.append(e)
        with pytest.raises(KeyError, match="first"):
            env.step()
        assert seen == ["first", "second", ev]

    def test_callback_on_processed_event_is_error(self):
        env = Environment(0)
        ev = env.timeout(0.0)
        env.run()
        with pytest.raises(LifecycleError):
            ev.add_callback(lambda e: None)

    def test_process_resumption_is_a_callback(self):
        # A waiter's resumption registers exactly one callback on the event.
        env = Environment(0)
        ev = env.timeout(1.0)
        before = len(ev.callbacks)
        def waiter():
            yield ev
        spawn(env, waiter())
        env.run(until=0.5)
        assert len(ev.callbacks) == before + 1


class TestStepAndRun:
    def test_step_on_empty_queue(self):
        env = Environment(0)
        assert env.step() is False
        assert env.now == 0.0

    def test_run_outcome_is_a_frozen_value(self):
        env = Environment(0)
        env.timeout(5.0)
        outcome = env.run(until=3.0)
        assert repr(outcome) == "RunOutcome(exhausted=False, at=3.0)"
        assert outcome == RunOutcome(exhausted=False, at=3.0) != RunOutcome(True, 3.0)
        assert not outcome.exhausted
        with pytest.raises(AttributeError):
            outcome.at = 4.0

    def test_run_until_processes_events_at_horizon(self):
        env = Environment(0)
        hit = []
        ev = env.timeout(10.0)
        ev.add_callback(lambda e: hit.append(env.now))
        outcome = env.run(until=10.0)
        assert hit == [10.0]
        assert not outcome.exhausted and outcome.at == 10.0

    def test_run_until_skips_later_events(self):
        env = Environment(0)
        hit = []
        later = env.timeout(10.000001)
        later.add_callback(lambda e: hit.append(env.now))
        outcome = env.run(until=10.0)
        assert hit == []
        assert not later.processed
        assert not outcome.exhausted and env.now == 10.0

    def test_run_exhausted_keeps_last_processed_time(self):
        env = Environment(0)
        env.timeout(7.0)
        outcome = env.run(until=100.0)
        assert outcome.exhausted and outcome.at == 7.0
        assert env.now == 7.0

    def test_run_until_zero_on_fresh_env(self):
        env = Environment(0)
        outcome = env.run(until=0.0)
        assert not outcome.exhausted and outcome.at == 0.0

    def test_run_until_zero_processes_zero_time_entries(self):
        env = Environment(0)
        hit = []
        env.timeout(0.0).add_callback(lambda e: hit.append(True))
        env.run(until=0.0)
        assert hit == [True]

    def test_run_until_in_the_past_rejected(self):
        env = Environment(0)
        env.timeout(5.0)
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1.0)

    @pytest.mark.parametrize("until", [float("inf"), float("nan")])
    def test_run_until_not_finite_rejected(self, until):
        env = Environment(0)
        env.timeout(5.0)
        with pytest.raises(ValueError, match="finite"):
            env.run(until=until)
        assert env.now == 0.0


class TestComposites:
    def test_any_of_first_wins(self):
        env = Environment(0)
        out = {}
        def racer():
            fast = env.timeout(5.0)
            slow = env.timeout(9.0)
            got = yield any_of(env, [fast, slow])
            out["t"] = env.now
            out["won"] = got is fast
            out["slow_processed"] = slow.processed
        spawn(env, racer())
        env.run()
        assert out["t"] == 5.0
        assert out["won"] is True
        assert out["slow_processed"] is False

    def test_any_of_is_linear_in_its_constituents(self):
        # 2 s is far above linear time and far below a re-scan of the whole
        # list on every constituent's success, which is quadratic.
        env = Environment(0)
        events = [env.timeout(float(i)) for i in range(20_000)]
        started = time.perf_counter()
        cond = any_of(env, events)
        env.run()
        assert time.perf_counter() - started < 2.0
        assert cond.processed and cond.value is events[0]

    def test_any_of_over_a_generator_expression(self):
        env = Environment(0)
        slow, fast = env.timeout(9.0), env.timeout(5.0)
        cond = any_of(env, (ev for ev in (slow, fast)))
        env.run()
        assert cond.processed and cond.value is fast

    def test_empty_composite_rejected(self):
        env = Environment(0)
        with pytest.raises(ValueError):
            any_of(env, [])

    def test_constituent_of_another_environment_rejected(self):
        with pytest.raises(LifecycleError, match="different environment"):
            any_of(Environment(0), [Environment(1).event()])

    def test_singleton_matches_constituent_clock_and_disposition(self):
        env = Environment(0)
        out = {}
        def single():
            ev = env.timeout(3.0)
            got = yield any_of(env, [ev])
            out["t"] = env.now
            out["won"] = got is ev
        spawn(env, single())
        env.run()
        assert out == {"t": 3.0, "won": True}

    def test_singleton_failure_keeps_cause_identity(self):
        env = Environment(0)
        cause = RuntimeError("sentinel")
        out = {}
        def single():
            ev = env.event()
            ev.fail(cause)
            try:
                yield any_of(env, [ev])
            except RuntimeError as exc:
                out["same"] = exc is cause
                out["t"] = env.now
        spawn(env, single())
        env.run()
        assert out == {"same": True, "t": 0.0}

    def test_failed_constituent_fails_composite(self):
        env = Environment(0)
        class Broke(Exception):
            pass
        out = {}
        def racer():
            doomed = env.event()
            def failer():
                yield env.timeout(2.0)
                doomed.fail(Broke())
            spawn(env, failer())
            try:
                yield any_of(env, [doomed, env.timeout(10.0)])
            except Broke:
                out["t"] = env.now
        spawn(env, racer())
        env.run()
        assert out == {"t": 2.0}

    def test_late_failure_of_losing_branch_is_defused(self):
        # After the composite resolves, a failing loser must not abort the run.
        env = Environment(0)
        out = {}
        def racer():
            doomed = env.event()
            def failer():
                yield env.timeout(8.0)
                doomed.fail(RuntimeError("late"))
            spawn(env, failer())
            fast = env.timeout(1.0)
            got = yield any_of(env, [fast, doomed])
            out["t"] = env.now
            out["won"] = got is fast
        spawn(env, racer())
        env.run()
        assert out == {"t": 1.0, "won": True}

    def test_already_processed_constituent_meets_any_of_at_once(self):
        env = Environment(0)
        done = env.timeout(1.0)
        also = env.timeout(1.0)
        env.run()
        later = env.timeout(5.0)
        cond = any_of(env, [later, done, also])
        assert not hasattr(cond, "__dict__")
        assert cond.triggered
        env.step()
        assert cond.succeeded and env.now == 1.0
        assert cond.value is done
        assert not later.processed
        env.run()
        assert cond.value is done

    def test_is_processed_observation(self):
        env = Environment(0)
        ev = env.timeout(1.0)
        assert not ev.processed
        env.run()
        assert ev.processed


def record_popped_keys(env, keys):
    """Make ``env.step`` append the key of the queue entry it is about to pop."""
    step = env.step
    def recording_step():
        if env._queue:
            keys.append(env._queue[0][:3])
        return step()
    env.step = recording_step


class TestOrderingProperties:
    """The processed stream is exactly sorted schedule-key order."""

    def test_processed_keys_sorted_and_clock_monotone(self):
        rng = random.Random(7)
        for _ in range(20):
            env = Environment(0)
            keys = []
            clocks = []
            record_popped_keys(env, keys)
            env.on_processed = lambda ev: clocks.append(env.now)
            for _ in range(rng.randint(1, 60)):
                env.schedule(env.event(),
                             priority=rng.choice([URGENT, NORMAL, 3]),
                             delay=rng.choice([0.0, 0.5, 1.0, 2.5]))
            env.run()
            assert keys == sorted(keys)
            assert clocks == sorted(clocks)

    def test_every_callback_fires_exactly_once(self):
        rng = random.Random(11)
        env = Environment(0)
        fired = {}
        def make_callback(i):
            def cb(ev):
                fired[i] = fired.get(i, 0) + 1
            return cb
        for i in range(200):
            ev = env.timeout(rng.random() * 10)
            ev.add_callback(make_callback(i))
        env.run()
        assert all(count == 1 for count in fired.values())
        assert len(fired) == 200

    def test_identical_seed_gives_identical_processed_stream(self):
        def run_once():
            env = Environment(5)
            keys = []
            record_popped_keys(env, keys)
            def worker(i):
                for _ in range(5):
                    yield env.timeout(env.rng.expovariate_mean(3.0))
            for i in range(4):
                spawn(env, worker(i))
            env.run()
            return keys
        assert run_once() == run_once()
