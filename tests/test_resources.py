"""Resource grant/release discipline and container stock accounting."""

import gc
import math
import random
import traceback

import pytest

from desim import Container, Environment, LifecycleError, Resource, spawn
from desim.resources import Request
from desim.stats import MM1Params, mm1_simulate


class TestResource:
    def test_capacity_must_be_positive_integer(self):
        env = Environment(0)
        with pytest.raises(ValueError):
            Resource(env, capacity=0)
        with pytest.raises(ValueError):
            Resource(env, capacity=-1)

    def test_idle_counts(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        assert (res.count, res.queued) == (0, 0)

    def test_request_knows_its_resource(self):
        res = Resource(Environment(0))
        assert res.request().resource is res

    def test_grants_up_to_capacity_then_queues(self):
        env = Environment(0)
        res = Resource(env, capacity=2)
        r1, r2, r3 = res.request(), res.request(), res.request()
        assert (r1.pending, r2.pending, r3.pending) == (False, False, True)
        assert (res.count, res.queued) == (2, 1)

    def test_one_holder_two_waiters(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        res.request()
        res.request()
        res.request()
        assert (res.count, res.queued) == (1, 2)

    def test_grant_happens_at_request_timestamp(self):
        env = Environment(0)
        seen = []
        res = Resource(env, capacity=1)
        def body():
            yield env.timeout(3.0)
            asked = env.now
            yield res.request()
            seen.append((asked, env.now))
        spawn(env, body())
        env.run()
        assert seen == [(3.0, 3.0)]

    def test_release_hands_over_to_head_waiter_same_timestamp(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        seen = []
        def holder():
            rq = res.request()
            yield rq
            yield env.timeout(4.0)
            res.release(rq)
            seen.append(("released", env.now))
        def waiter():
            rq = res.request()
            yield rq
            seen.append(("granted", env.now))
        spawn(env, holder())
        spawn(env, waiter())
        env.run()
        assert seen == [("released", 4.0), ("granted", 4.0)]

    def test_fifo_grant_order_matches_arrival_order(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        grants = []
        def contender(i):
            yield env.timeout(float(i) * 0.25)
            rq = res.request()
            yield rq
            grants.append(i)
            yield env.timeout(10.0)
            res.release(rq)
        arrival_order = [3, 0, 5, 1, 4, 2]
        for i in arrival_order:
            spawn(env, contender(i))
        env.run()
        assert grants == sorted(arrival_order, key=lambda i: i * 0.25)

    def test_double_release_is_error(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        rq = res.request()
        res.release(rq)
        with pytest.raises(LifecycleError):
            res.release(rq)

    def test_release_of_queued_request_is_error(self):
        env = Environment(0)
        res = Resource(env, capacity=1)
        res.request()
        queued = res.request()
        with pytest.raises(LifecycleError):
            res.release(queued)

    @pytest.mark.parametrize("case, message", [
        ("double", "ungranted or already-released"),
        ("queued", "ungranted or already-released"),
        ("foreign", "different resource"),
    ])
    def test_release_error_keeps_message_state_and_no_chained_error(self, case, message):
        env = Environment(0)
        res = Resource(env, capacity=1)
        released = res.request()
        res.release(released)
        holder = res.request()
        queued = res.request()
        rq = {"double": released, "queued": queued,
              "foreign": Resource(env).request()}[case]
        users, waiting = list(res.users), list(res.wait_queue)
        with pytest.raises(LifecycleError, match=message) as info:
            res.release(rq)
        assert info.value.__cause__ is None
        assert info.value.__context__ is None or info.value.__suppress_context__
        assert "ValueError" not in "".join(traceback.format_exception(info.value))
        assert (res.users, list(res.wait_queue)) == (users, waiting) == ([holder], [queued])

    def test_grant_leaves_no_reference_cycle(self):
        # A granted request once held itself as its value, so every grant
        # outlived its run until a full collection.
        enabled, flags, saved = gc.isenabled(), gc.get_debug(), gc.garbage[:]
        gc.collect()
        gc.disable()
        try:
            gc.set_debug(gc.DEBUG_SAVEALL)
            mm1_simulate(MM1Params(0.09, 0.1), 500)
            gc.collect()
            cyclic = sum(isinstance(ob, Request) for ob in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage[:] = saved
            if enabled:
                gc.enable()
        assert cyclic == 0


class TestContainer:
    def test_bounds_validated(self):
        env = Environment(0)
        with pytest.raises(ValueError):
            Container(env, init=1001.0, capacity=1000.0)
        with pytest.raises(ValueError):
            Container(env, init=-1.0, capacity=1000.0)
        with pytest.raises(ValueError):
            Container(env, init=0.0, capacity=0.0)

    def test_repr_shows_level_and_capacity(self):
        box = Container(Environment(0), init=5.0, capacity=10.0)
        box.get(2)
        assert repr(box) == "<Container level=3.0 capacity=10.0>"

    def test_event_amount_is_a_float(self):
        box = Container(Environment(0), init=5.0, capacity=10.0)
        got = box.get(3)
        assert type(got.amount) is float and got.amount == 3.0

    def test_full_bowl_and_immediate_get(self):
        env = Environment(0)
        bowl = Container(env, init=1000.0, capacity=1000.0)
        got = bowl.get(20.0)
        assert got.triggered
        assert bowl.level == 980.0

    def test_get_from_empty_blocks_until_put(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        seen = []
        def eater():
            yield bowl.get(20.0)
            seen.append(env.now)
        def chef():
            yield env.timeout(15.0)
            yield bowl.put(60.0)
        spawn(env, eater())
        spawn(env, chef())
        env.run()
        assert seen == [15.0]
        assert bowl.level == 40.0

    def test_get_above_capacity_rejected_eagerly(self):
        env = Environment(0)
        bowl = Container(env, init=1000.0, capacity=1000.0)
        with pytest.raises(ValueError):
            bowl.get(1020.0)

    def test_put_above_capacity_rejected_eagerly(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=10.0)
        with pytest.raises(ValueError):
            bowl.put(20.0)
        # Nothing was queued ahead of it, so a put that fits still completes.
        assert bowl.put(1.0).triggered
        assert bowl.level == 1.0

    @pytest.mark.parametrize("amount", [0.0, -5.0])
    def test_nonpositive_amounts_rejected(self, amount):
        env = Environment(0)
        bowl = Container(env, init=50.0, capacity=100.0)
        with pytest.raises(ValueError):
            bowl.get(amount)
        with pytest.raises(ValueError):
            bowl.put(amount)

    @pytest.mark.parametrize("amount", [math.inf, math.nan])
    def test_non_finite_amounts_rejected(self, amount):
        # An infinite capacity is allowed, so only this check stops an
        # infinite put and get from leaving the level at NaN.
        env = Environment(0)
        bowl = Container(env, init=5.0, capacity=math.inf)
        for verb in ("put", "get"):
            with pytest.raises(ValueError) as info:
                getattr(bowl, verb)(amount)
            assert str(info.value) == f"{verb} amount must be finite and > 0, got {amount!r}"
        assert bowl.level == 5.0 and not bowl.put_queue and not bowl.get_queue

    def test_put_that_would_overflow_to_inf_stays_queued(self):
        # With an infinite capacity two finite puts used to raise the level to
        # inf, after which every get succeeded without lowering it.
        bowl = Container(Environment(0), init=0.0, capacity=math.inf)
        first, second = bowl.put(1e308), bowl.put(1e308)
        assert first.triggered and not second.triggered
        assert bowl.level == 1e308 and list(bowl.put_queue) == [second]
        got = bowl.get(1e308)
        assert got.triggered and second.triggered and bowl.level == 1e308
        assert bowl.get(1e308).triggered and bowl.level == 0.0

    def test_second_put_that_would_overflow_stays_queued_after_the_first_is_granted(self):
        # One get lets the first put in; the put loop must then stop at the
        # second, which would raise the level to inf.
        bowl = Container(Environment(0), init=1e308, capacity=math.inf)
        first, second = bowl.put(1e308), bowl.put(1e308)
        assert not first.triggered and not second.triggered
        assert bowl.get(1e308).triggered
        assert first.triggered and not second.triggered
        assert bowl.level == 1e308 and list(bowl.put_queue) == [second]

    def test_put_when_full_blocks_until_space(self):
        env = Environment(0)
        bowl = Container(env, init=100.0, capacity=100.0)
        deposited = []
        def producer():
            yield bowl.put(30.0)
            deposited.append(env.now)
        def consumer():
            yield env.timeout(7.0)
            yield bowl.get(50.0)
        spawn(env, producer())
        spawn(env, consumer())
        env.run()
        assert deposited == [7.0]
        assert bowl.level == 80.0

    def test_put_wakes_queued_gets_in_fifo_order(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        order = []
        def eater(i):
            yield env.timeout(float(i))  # arrival order 1, 2
            yield bowl.get(20.0)
            order.append((i, env.now))
        def chef():
            yield env.timeout(10.0)
            yield bowl.put(40.0)
        spawn(env, eater(1))
        spawn(env, eater(2))
        spawn(env, chef())
        env.run()
        assert order == [(1, 10.0), (2, 10.0)]
        assert bowl.level == 0.0

    def test_fifo_head_blocks_smaller_later_get(self):
        env = Environment(0)
        bowl = Container(env, init=30.0, capacity=100.0)
        big = bowl.get(50.0)   # cannot be satisfied yet
        small = bowl.get(10.0)  # would fit, but must wait behind the head
        assert not big.triggered
        assert not small.triggered
        assert bowl.level == 30.0

    def test_cancel_get_unblocks_next_head(self):
        env = Environment(0)
        bowl = Container(env, init=30.0, capacity=100.0)
        big = bowl.get(50.0)
        small = bowl.get(10.0)
        bowl.cancel_get(big)
        assert small.triggered
        assert bowl.level == 20.0

    def test_cancelled_get_never_withdraws_after_refill(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        abandoned = bowl.get(20.0)
        bowl.cancel_get(abandoned)
        bowl.put(100.0)
        assert bowl.level == 100.0
        assert not abandoned.processed

    def test_cancel_of_completed_get_is_error(self):
        env = Environment(0)
        bowl = Container(env, init=50.0, capacity=100.0)
        done = bowl.get(10.0)
        with pytest.raises(LifecycleError):
            bowl.cancel_get(done)

    def test_cancel_of_foreign_get_is_error(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=100.0)
        other = Container(env, init=0.0, capacity=100.0)
        pending = other.get(10.0)
        with pytest.raises(LifecycleError):
            bowl.cancel_get(pending)


class TestContainerProperties:
    def test_conservation_under_random_traffic(self):
        # init + successful puts - successful gets == final level, exactly,
        # with integer-valued amounts.
        rng = random.Random(123)
        for trial in range(10):
            env = Environment(trial)
            bowl = Container(env, init=500.0, capacity=1000.0)
            granted = {"put": 0.0, "get": 0.0}
            def producer():
                for _ in range(40):
                    amount = float(rng.randint(1, 80))
                    ev = bowl.put(amount)
                    ev.add_callback(lambda e, a=amount: granted.__setitem__(
                        "put", granted["put"] + a))
                    yield env.timeout(env.rng.expovariate_mean(2.0))
            def consumer():
                for _ in range(40):
                    amount = float(rng.randint(1, 80))
                    ev = bowl.get(amount)
                    ev.add_callback(lambda e, a=amount: granted.__setitem__(
                        "get", granted["get"] + a))
                    yield env.timeout(env.rng.expovariate_mean(2.0))
            spawn(env, producer())
            spawn(env, consumer())
            env.run(until=200.0)
            assert 500.0 + granted["put"] - granted["get"] == bowl.level

    def test_bounds_hold_after_every_step(self):
        env = Environment(9)
        bowl = Container(env, init=100.0, capacity=150.0)
        res = Resource(env, capacity=3)
        violations = []
        def check(ev):
            if not (0.0 <= bowl.level <= bowl.capacity):
                violations.append(("level", env.now, bowl.level))
            if res.count > res.capacity:
                violations.append(("count", env.now, res.count))
        env.on_processed = check
        def churn(i):
            for _ in range(30):
                rq = res.request()
                yield rq
                yield bowl.get(float(env.rng.randint(1, 50)))
                yield env.timeout(env.rng.expovariate_mean(1.0))
                yield bowl.put(float(env.rng.randint(1, 50)))
                res.release(rq)
        for i in range(4):
            spawn(env, churn(i))
        env.run(until=500.0)
        assert violations == []
