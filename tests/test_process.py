"""Process contract: suspension, composition, interrupts, failure payloads."""

import pytest

from desim import (
    Environment,
    Interrupted,
    LifecycleError,
    UnhandledFailureError,
    spawn,
)


class Boom(Exception):
    pass


class TestSpawn:
    def test_bodies_start_at_current_time(self):
        env = Environment(0)
        started = []
        def body(i):
            started.append((i, env.now))
            yield env.timeout(1.0)
        handles = [spawn(env, body(i)) for i in range(5)]
        assert not any(h.processed for h in handles)
        env.run(until=0.0)
        assert started == [(i, 0.0) for i in range(5)]

    def test_immediate_return_completes_at_time_zero(self):
        env = Environment(0)
        def body():
            return 7
            yield  # makes this a generator
        handle = spawn(env, body())
        env.run()
        assert handle.succeeded and handle.value == 7
        assert env.now == 0.0

    def test_non_generator_rejected(self):
        class SendThrow:  # no close, which ending a body needs
            def send(self, value):
                raise StopIteration
            def throw(self, exc):
                raise exc
        async def coroutine():
            pass
        never_awaited = coroutine()
        try:
            for body in (lambda: None, SendThrow(), never_awaited):
                env = Environment(0)
                with pytest.raises(TypeError, match="must be a generator"):
                    spawn(env, body)
                assert env.step() is False  # nothing was queued
        finally:
            never_awaited.close()  # silences the never-awaited warning

    def test_body_with_send_but_no_throw_is_rejected(self):
        env = Environment(0)
        class SendOnly:
            def send(self, value):
                raise StopIteration
        with pytest.raises(TypeError, match="must be a generator"):
            spawn(env, SendOnly())
        assert env.step() is False  # nothing was queued

    @pytest.mark.parametrize("how", ["spawned", "exhausted", "closed",
                                     "closed-unstarted"])
    def test_a_body_that_has_run_is_rejected(self, how):
        env = Environment(0)
        log = []
        def body():
            for i in range(3):
                yield env.timeout(1.0)
                log.append((env.now, i))
        gen = body()
        if how == "spawned":
            spawn(env, gen)
            env.step()  # its start: the body is now suspended at a yield
        elif how == "exhausted":
            for _ in gen:
                pass
        elif how == "closed":
            next(gen)
            gen.close()
        else:
            gen.close()
        queued = list(env._queue)
        log.clear()
        with pytest.raises(ValueError, match="already started"):
            spawn(env, gen)
        assert env._queue == queued  # nothing was queued
        env.run()
        # The rejected spawn leaves the body alone: only a first spawn runs it.
        assert log == ([(1.0, 0), (2.0, 1), (3.0, 2)] if how == "spawned"
                       else [])

    def test_a_body_spawned_twice_runs_in_the_first_process_only(self):
        env = Environment(0)
        log = []
        def body():
            for i in range(3):
                yield env.timeout(1.0)
                log.append((env.now, i))
        gen = body()
        first = spawn(env, gen, name="first")
        second = spawn(env, gen, name="second")  # gen has not run yet
        with pytest.raises(LifecycleError, match="'second'"):
            env.run()
        assert env.now == 0.0 and log == []
        env.run()
        assert log == [(1.0, 0), (2.0, 1), (3.0, 2)]
        assert first.succeeded
        assert isinstance(second.failure_cause, LifecycleError)

    def test_a_body_spawned_twice_aborts_the_interrupted_and_joined_second(self):
        env = Environment(0)
        log, caught = [], []
        def body():
            for i in range(3):
                yield env.timeout(1.0)
                log.append((env.now, i))
        gen = body()
        spawn(env, gen, name="first")
        second = spawn(env, gen, name="second")
        second.interrupt("dropped")
        def joiner():
            try:
                yield second
            except LifecycleError as error:
                caught.append((env.now, str(error)))
        spawn(env, joiner())
        with pytest.raises(LifecycleError) as info:
            env.run()
        message = "process 'second' cannot start: its body has already started"
        assert str(info.value) == message and env.now == 0.0
        env.run()  # the interrupt is dropped: the shared body never sees it
        assert caught == [(0.0, message)]
        assert log == [(1.0, 0), (2.0, 1), (3.0, 2)]

    def test_a_body_that_spawns_itself_fails(self):
        env = Environment(0)
        def body():
            spawn(env, me)  # the generator is running
            yield env.timeout(1.0)
        me = body()
        spawn(env, me)
        with pytest.raises(UnhandledFailureError) as info:
            env.run()
        assert isinstance(info.value.cause, ValueError)
        assert info.value.process_name == "body"

    def test_repr_shows_name_id_and_stage(self):
        env = Environment(0)
        def body():
            yield env.timeout(1.0)
        handle = spawn(env, body(), name="worker")
        assert repr(handle) == f"<Process 'worker' #{handle.eid} pending>"
        env.run()
        assert repr(handle) == f"<Process 'worker' #{handle.eid} processed>"
        assert spawn(env, body()).name == "body"  # unnamed: the generator's name


class TestSuspension:
    def test_timeout_resumes_with_value_at_right_time(self):
        env = Environment(0)
        seen = []
        def body():
            value = yield env.timeout(3.0)
            seen.append((env.now, value))
        spawn(env, body())
        env.run()
        assert seen == [(3.0, None)]

    def test_request_on_free_resource_resumes_same_clock(self):
        from desim import Resource
        env = Environment(0)
        seen = []
        def body():
            yield env.timeout(2.5)
            asked = env.now
            rq = chopstick.request()
            yield rq
            seen.append((asked, env.now))
        chopstick = Resource(env, capacity=1)
        spawn(env, body())
        env.run()
        assert seen == [(2.5, 2.5)]

    def test_yield_foreign_event_is_contract_violation(self):
        env, other = Environment(0), Environment(0)
        def body():
            yield other.timeout(1.0)
        spawn(env, body())
        with pytest.raises(LifecycleError):
            env.run()

    def test_yield_non_event_is_contract_violation(self):
        env = Environment(0)
        closed = []
        def body():
            try:
                yield 42
            finally:
                closed.append(env.now)
        handle = spawn(env, body())
        with pytest.raises(LifecycleError):
            env.run()
        # ``handle`` keeps the body from being collected, so only an explicit
        # close before the error leaves the run can have run its finally.
        assert closed == [0.0]

    def test_contract_violation_fails_the_process_for_its_joiner(self):
        env = Environment(0)
        caught = []
        def parent():
            try:
                yield kid
            except LifecycleError as exc:
                caught.append((env.now, exc))
        def child():
            yield 42
        dad = spawn(env, parent(), name="parent")
        kid = spawn(env, child(), name="child")
        with pytest.raises(LifecycleError) as raised:
            env.run()
        assert caught == []
        # The error was raised out of the first run; the second delivers it
        # to the parent instead of leaving the parent joined on a live child.
        outcome = env.run()
        assert caught == [(0.0, raised.value)]
        assert kid.failed and kid.failure_cause is raised.value
        assert kid.processed and dad.processed
        assert outcome.exhausted

    def test_contract_violation_does_not_strand_other_waiters(self):
        env = Environment(0)
        processed = []
        env.on_processed = processed.append
        tick = env.timeout(1.0)
        resumed = []
        def bad():
            yield tick
            yield 42
        def good():
            yield tick
            resumed.append(env.now)
        spawn(env, bad(), name="bad")
        other = spawn(env, good(), name="good")
        with pytest.raises(LifecycleError):
            env.run()
        # The timeout finished processing although one of its callbacks
        # raised: the other waiter was resumed and the hook saw the event.
        assert tick in processed
        assert resumed == [1.0]
        env.run()
        assert other.succeeded and other.processed

    def test_yield_own_completion_is_contract_violation(self):
        env = Environment(0)
        holder = {}
        def body():
            yield holder["me"]
        holder["me"] = spawn(env, body())
        with pytest.raises(LifecycleError):
            env.run()

    def test_yield_already_processed_event_continues_in_place(self):
        env = Environment(0)
        seen = []
        done = env.timeout(0.0)
        def body():
            yield env.timeout(1.0)
            value = yield done  # processed long ago
            seen.append((env.now, value))
        spawn(env, body())
        env.run()
        assert seen == [(1.0, None)]


class TestSubprocess:
    def test_parent_receives_child_return_value(self):
        env = Environment(0)
        sentinel = object()
        seen = []
        def child():
            yield env.timeout(2.0)
            return sentinel
        def parent():
            value = yield spawn(env, child())
            seen.append((env.now, value is sentinel))
        spawn(env, parent())
        env.run()
        assert seen == [(2.0, True)]

    def test_parent_observes_child_failure_cause_identity(self):
        env = Environment(0)
        cause = Boom("with", "payload")
        seen = []
        def child():
            yield env.timeout(1.0)
            raise cause
        def parent():
            try:
                yield spawn(env, child())
            except Boom as exc:
                seen.append((exc is cause, exc.args))
        spawn(env, parent())
        env.run()
        assert seen == [(True, ("with", "payload"))]

    def test_handled_child_failure_lets_simulation_continue(self):
        env = Environment(0)
        seen = []
        def child():
            raise Boom()
            yield
        def parent():
            try:
                yield spawn(env, child())
            except Boom:
                pass
            yield env.timeout(5.0)
            seen.append(env.now)
        spawn(env, parent())
        env.run()
        assert seen == [5.0]

    def test_failing_by_yielding_a_failed_event(self):
        # A body may end itself by creating an event, failing it with a
        # payload and yielding it: the cause comes back out of the handle.
        env = Environment(0)
        cause = Boom("handle-one", "handle-two")
        seen = []
        def child():
            yield env.timeout(2.0)
            doom = env.event()
            doom.fail(cause)
            yield doom
        def parent():
            try:
                yield spawn(env, child())
            except Boom as exc:
                seen.append((env.now, exc is cause, exc.args))
        spawn(env, parent())
        env.run()
        assert seen == [(2.0, True, ("handle-one", "handle-two"))]

    def test_unhandled_child_failure_aborts_with_identity(self):
        env = Environment(0)
        def child():
            yield env.timeout(1.0)
            raise Boom("nobody catches this")
        spawn(env, child(), name="doomed-child")
        with pytest.raises(UnhandledFailureError) as err:
            env.run()
        assert err.value.process_name == "doomed-child"
        assert isinstance(err.value.cause, Boom)

    def test_memory_error_in_a_body_ends_the_run_not_the_process(self):
        # Running out of memory is not a process outcome a joiner can handle.
        env = Environment(0)
        def hog():
            yield env.timeout(1.0)
            raise MemoryError()
        handle = spawn(env, hog(), name="hog")
        with pytest.raises(MemoryError):
            env.run()
        assert env.now == 1.0 and not handle.triggered

    def test_alive_tracks_completion_processing(self):
        env = Environment(0)
        def body():
            yield env.timeout(3.0)
        handle = spawn(env, body())
        assert not handle.processed
        env.run(until=2.0)
        assert not handle.processed
        env.run()
        assert handle.processed


class TestUnwatchedCompletion:
    """A body that returns while nobody waits on it is processed in place."""

    def test_processed_in_the_step_that_ran_the_body_and_never_queued(self):
        env = Environment(0)
        processed = []
        env.on_processed = processed.append
        def body():
            yield env.timeout(2.0)
            return "done"
        handle = spawn(env, body())
        env.step()  # the start
        env.step()  # the timeout: the body returns
        assert handle.processed and handle.value == "done"
        assert env._queue == []
        assert handle not in processed
        assert env.run().at == 2.0

    def test_a_later_join_continues_in_the_same_step(self):
        env = Environment(0)
        tick, tock = env.timeout(1.0), env.timeout(1.0)
        seen = []
        def child():
            yield tick
            return 7
        kid = spawn(env, child())
        def joiner():
            yield tock  # processed after tick, ahead of a queued completion
            seen.append((yield kid))
        spawn(env, joiner())
        for _ in range(3):  # both starts, then tick: the child returns
            env.step()
        assert kid.processed and seen == []
        env.step()  # tock: the joiner yields the finished handle
        assert seen == [7]
        assert env.step() is False

    def test_an_interrupt_sent_after_the_join_arrives_at_the_next_yield(self):
        env = Environment(0)
        tick, tock = env.timeout(1.0), env.timeout(1.0)
        seen = []
        def child():
            yield tick
            return 7
        kid = spawn(env, child())
        def joiner():
            yield tock
            try:
                seen.append((yield kid))  # continues in place with 7
                yield env.timeout(5.0)
            except Interrupted as stop:
                seen.append((env.now, stop.cause))
        target = spawn(env, joiner())
        def poker():
            yield tock  # resumed after the joiner has joined
            target.interrupt("now")
        spawn(env, poker())
        env.run()
        assert seen == [7, (1.0, "now")]


class TestInterrupt:
    def test_interrupt_wakes_at_current_clock_with_cause(self):
        env = Environment(0)
        seen = []
        def sleeper():
            try:
                yield env.timeout(100.0)
            except Interrupted as stop:
                seen.append((env.now, stop.cause))
        handle = spawn(env, sleeper())
        def poker():
            yield env.timeout(5.0)
            handle.interrupt("get up")
        spawn(env, poker())
        env.run()
        assert seen == [(5.0, "get up")]

    def test_abandoned_event_never_resumes_target(self):
        env = Environment(0)
        resumes = []
        def sleeper():
            try:
                yield env.timeout(10.0)
                resumes.append("timeout branch")
            except Interrupted:
                resumes.append("interrupt branch")
            yield env.timeout(50.0)
            resumes.append(("tail", env.now))
        handle = spawn(env, sleeper())
        def poker():
            yield env.timeout(1.0)
            handle.interrupt()
        spawn(env, poker())
        env.run()
        # One resume per suspension: interrupt, then the trailing timeout; the
        # abandoned timeout at t=10 fires with no effect.
        assert resumes == ["interrupt branch", ("tail", 51.0)]
        assert env.now == 51.0

    def test_interrupt_before_start_delivered_at_first_yield(self):
        env = Environment(0)
        seen = []
        def target():
            try:
                yield env.timeout(10.0)
            except Interrupted as stop:
                seen.append((env.now, stop.cause))
        handle = spawn(env, target())
        handle.interrupt("early")
        env.run()
        assert seen == [(0.0, "early")]

    def test_interrupts_before_start_delivered_at_time_zero_in_call_order(self):
        env = Environment(0)
        seen = []
        def target():
            for _ in range(2):
                try:
                    yield env.timeout(10.0)
                except Interrupted as stop:
                    seen.append((env.now, stop.cause))
        handle = spawn(env, target())
        handle.interrupt("first")
        handle.interrupt("second")
        env.run()
        assert seen == [(0.0, "first"), (0.0, "second")]
        assert env.now == 10.0

    def test_interrupt_before_start_of_body_that_never_yields_is_dropped(self):
        env = Environment(0)
        def body():
            return "done"
            yield  # pragma: no cover - makes this a generator
        handle = spawn(env, body())
        handle.interrupt("too late")
        env.run()
        assert handle.succeeded
        assert handle.value == "done"

    def test_second_interrupt_after_first_ends_body_is_dropped(self):
        env = Environment(0)
        def target():
            try:
                yield env.timeout(10.0)
            except Interrupted as stop:
                return stop.cause
        handle = spawn(env, target())
        def poker():
            yield env.timeout(1.0)
            handle.interrupt("first")
            handle.interrupt("second")
        spawn(env, poker())
        env.run()
        assert handle.value == "first"
        assert env.now == 10.0

    def test_interrupt_before_start_precedes_start_of_child_spawned_in_first_step(self):
        env = Environment(0)
        order = []
        def child():
            order.append("child starts")
            yield env.timeout(1.0)
        def parent():
            spawn(env, child())
            try:
                yield env.timeout(10.0)
            except Interrupted:
                order.append("parent interrupted")
        handle = spawn(env, parent())
        handle.interrupt()
        env.run()
        # The interrupt is scheduled when it is sent, so it is queued ahead
        # of every urgent event the parent's first step creates.
        assert order == ["parent interrupted", "child starts"]

    def test_interrupt_completed_process_is_error(self):
        env = Environment(0)
        def body():
            yield env.timeout(1.0)
        handle = spawn(env, body())
        env.run()
        with pytest.raises(LifecycleError):
            handle.interrupt()

    def test_interrupt_beats_same_time_awaited_event(self):
        env = Environment(0)
        seen = []
        handle_box = {}
        def poker():
            yield env.timeout(5.0)
            handle_box["sleeper"].interrupt()
        def sleeper():
            try:
                yield env.timeout(5.0)
                seen.append("timeout")
            except Interrupted:
                seen.append("interrupt")
        # Spawned first, the poker's t=5 timeout pops first; its urgent
        # interrupt must then win over the sleeper's own t=5 timeout.
        spawn(env, poker())
        handle_box["sleeper"] = spawn(env, sleeper())
        env.run()
        assert seen == ["interrupt"]

    def test_interrupt_does_not_cancel_resource_request(self):
        from desim import Resource
        env = Environment(0)
        resource = Resource(env, capacity=1)
        first = resource.request()
        def waiter():
            try:
                yield resource.request()
            except Interrupted:
                yield env.timeout(100.0)
        handle = spawn(env, waiter())
        def poker():
            yield env.timeout(1.0)
            handle.interrupt()
            yield env.timeout(1.0)
            resource.release(first)
        spawn(env, poker())
        env.run()
        # The abandoned request was still granted at release time.
        assert resource.count == 1
        assert resource.queued == 0


class TestAtomicity:
    def test_bodies_never_overlap(self):
        env = Environment(0)
        inside = {"flag": False, "violations": 0}
        def body(i):
            for _ in range(20):
                if inside["flag"]:
                    inside["violations"] += 1
                inside["flag"] = True
                # A suspension point inside the "critical" section would be
                # the only way another body could observe flag=True.
                inside["flag"] = False
                yield env.timeout(env.rng.expovariate_mean(1.0))
        for i in range(5):
            spawn(env, body(i))
        env.run()
        assert inside["violations"] == 0

    def test_resume_happens_after_callback_chain_not_during_yield(self):
        env = Environment(0)
        order = []
        def a():
            order.append("a-start")
            yield env.timeout(1.0)
            order.append("a-resumed")
        def b():
            order.append("b-start")
            yield env.timeout(1.0)
            order.append("b-resumed")
        spawn(env, a())
        spawn(env, b())
        env.run()
        assert order == ["a-start", "b-start", "a-resumed", "b-resumed"]
