"""Lifecycle observations at every stage, and every illegal transition.

Pins what ``pending``, ``triggered``, ``processed``, ``succeeded``,
``failed``, ``value`` and ``failure_cause`` report for a plain event, a
timeout, a resource request and a container get, so that the way these
facts are recorded can change without changing what they say.
"""

import pytest

from desim import NORMAL, Container, Environment, LifecycleError, Resource, spawn

_NO_VALUE = object()


def assert_stage(ev, stage, value=_NO_VALUE, cause=_NO_VALUE):
    """``stage`` is pending, triggered, succeeded or failed (both processed)."""
    processed = stage in ("succeeded", "failed")
    assert ev.pending is (stage == "pending")
    assert ev.triggered is (stage == "triggered")
    assert ev.processed is processed
    assert ev.succeeded is (stage == "succeeded")
    assert ev.failed is (stage == "failed")
    if stage == "succeeded":
        assert ev.value is value
    else:
        with pytest.raises(LifecycleError):
            ev.value
    if stage == "failed":
        assert ev.failure_cause is cause
    else:
        with pytest.raises(LifecycleError):
            ev.failure_cause


def assert_not_pending(env, ev):
    """A triggered or processed event can be neither settled nor queued again."""
    with pytest.raises(LifecycleError):
        ev.succeed()
    with pytest.raises(LifecycleError):
        ev.fail(RuntimeError("late"))
    with pytest.raises(LifecycleError):
        env.schedule(ev)


def assert_processed_rejects_callbacks(ev):
    with pytest.raises(LifecycleError):
        ev.add_callback(lambda _: None)


class TestPlainEvent:
    def test_succeed_then_process(self):
        env = Environment(0)
        ev = env.event()
        assert_stage(ev, "pending")
        assert env._queue == []
        ev.add_callback(lambda _: None)
        value = object()
        ev.succeed(value)
        assert_stage(ev, "triggered")
        assert env._queue == [(0.0, NORMAL, ev.eid, ev)]
        assert_not_pending(env, ev)
        ev.add_callback(lambda _: None)
        assert env.step()
        assert_stage(ev, "succeeded", value=value)
        assert_not_pending(env, ev)
        assert_processed_rejects_callbacks(ev)

    def test_fail_then_process(self):
        env = Environment(0)
        ev = env.event()
        cause = RuntimeError("boom")
        caught = []
        def waiter():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(exc)
        spawn(env, waiter())
        env.run()
        assert_stage(ev, "pending")
        ev.fail(cause)
        assert_stage(ev, "triggered")
        assert_not_pending(env, ev)
        env.run()
        assert caught == [cause]
        assert_stage(ev, "failed", cause=cause)
        assert_not_pending(env, ev)
        assert_processed_rejects_callbacks(ev)

    def test_scheduled_without_outcome(self):
        env = Environment(0)
        ev = env.event()
        env.schedule(ev, delay=3.0)
        assert_stage(ev, "triggered")
        assert_not_pending(env, ev)
        env.run()
        assert_stage(ev, "succeeded", value=None)
        assert_not_pending(env, ev)


class TestTimeout:
    def test_triggered_at_creation_then_processed(self):
        env = Environment(0)
        ev = env.timeout(2.0)
        assert_stage(ev, "triggered")
        assert_not_pending(env, ev)
        env.run(until=1.0)
        assert_stage(ev, "triggered")
        env.run()
        assert env.now == 2.0
        assert_stage(ev, "succeeded", value=None)
        assert_not_pending(env, ev)
        assert_processed_rejects_callbacks(ev)


class TestRequest:
    def test_queued_granted_processed_released(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        holder = res.request()
        rq = res.request()
        assert_stage(rq, "pending")
        with pytest.raises(LifecycleError):
            res.release(rq)
        res.release(holder)
        assert_stage(rq, "triggered")
        assert_not_pending(env, rq)
        env.run()
        assert_stage(rq, "succeeded", value=None)
        res.release(rq)
        assert_stage(rq, "succeeded", value=None)
        assert res.count == 0
        with pytest.raises(LifecycleError):
            res.release(rq)
        assert_processed_rejects_callbacks(rq)

    def test_released_before_processing(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        rq = res.request()
        assert_stage(rq, "triggered")
        res.release(rq)
        assert_stage(rq, "triggered")
        with pytest.raises(LifecycleError):
            res.release(rq)
        env.run()
        assert_stage(rq, "succeeded", value=None)

    def test_other_resource_rejects_release_and_cancel(self):
        env = Environment(0)
        res, other = Resource(env, capacity=1), Resource(env, capacity=1)
        granted = res.request()
        res.request()
        with pytest.raises(LifecycleError, match="different resource"):
            other.release(granted)
        assert res.count == 1 and res.queued == 1


class TestContainerGet:
    def test_blocked_granted_processed(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        get = bowl.get(30.0)
        assert_stage(get, "pending")
        bowl.put(50.0)
        assert_stage(get, "triggered")
        assert bowl.level == 20.0
        with pytest.raises(LifecycleError):
            bowl.cancel_get(get)
        assert_not_pending(env, get)
        env.run()
        assert_stage(get, "succeeded", value=30.0)
        with pytest.raises(LifecycleError):
            bowl.cancel_get(get)
        assert_processed_rejects_callbacks(get)

    def test_cancelled_stays_pending_forever(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        get = bowl.get(30.0)
        bowl.cancel_get(get)
        assert_stage(get, "pending")
        with pytest.raises(LifecycleError):
            bowl.cancel_get(get)
        bowl.put(100.0)
        env.run()
        assert_stage(get, "pending")
        assert bowl.level == 100.0
