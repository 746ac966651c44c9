"""Party variants and the service counter against hand-traced expectations."""

import io
import pickle

import pytest

from desim import Condition, Container, Environment, Process, Resource
from desim.scenarios import (
    ALLOWED_TRANSITIONS,
    GIVE_UP_TRANSITION,
    VARIANTS,
    Chef,
    CounterResult,
    CustomerRecord,
    Party,
    Philosopher,
    PhilosopherState,
    build_party,
    counter_scenario,
    detect_deadlock,
)


def watch_transitions(env, diners):
    """Log each diner's ``(now, old, new)`` state changes, keyed by diner.

    Hooks ``env.on_processed``. A diner changes state at most once per
    resumption, and each resumption happens while some event is processed,
    so comparing states after every processed event misses no edge.
    """
    logs = {ph: [] for ph in diners}
    last = {ph: ph.state for ph in diners}

    def watch(ev):
        for ph, log in logs.items():
            if ph.state is not last[ph]:
                log.append((env.now, last[ph], ph.state))
                last[ph] = ph.state

    env.on_processed = watch
    return logs


def collecting_sink():
    """A ``trace`` sink that keeps each call as a ``(time, actor, message)``
    tuple, and its list."""
    trace = []
    return trace, lambda *record: trace.append(record)


def make_solo_philosopher(env, **kwargs):
    """A diner with two chopsticks of their own: every grant is instant."""
    chopsticks = (Resource(env, 1), Resource(env, 1))
    return Philosopher(env, chopsticks, 0, **kwargs)


class TestPhilosopher:
    def test_uncontended_waiting_is_exactly_the_pickup_pause_per_meal(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        ph = make_solo_philosopher(env, trace=sink)
        env.run(until=500.0)
        assert ph.meals > 0
        # Independent oracle from the trace: each attempt waits from its
        # first request to the second grant; with free chopsticks that is
        # one pickup pause. Replaying the same float additions must give
        # the recorded total bit for bit.
        starts = [t for t, _, message in trace if message == "requested chopstick"]
        ends = [t for t, _, message in trace if message == "obtained another chopstick"]
        expected = 0.0
        for start, end in zip(starts, ends):
            assert abs((end - start) - 1.0) < 1e-9
            expected += end - start
        assert len(ends) == ph.meals
        assert ph.waiting == expected

    def test_trace_message_sequence_for_one_meal(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        make_solo_philosopher(env, trace=sink)
        env.run(until=60.0)
        messages = [message for _, _, message in trace[:6]]
        assert messages == [
            "requested chopstick",
            "obtained chopstick",
            "requested another chopstick",
            "obtained another chopstick",
            "released the chopsticks",
            "requested chopstick",
        ]
        # Request and grant of a free chopstick share a timestamp; the second
        # request comes exactly one pause later.
        assert trace[0][0] == trace[1][0]
        assert trace[2][0] == trace[1][0] + 1.0
        assert all(actor == "P0" for _, actor, _ in trace)

    def test_transitions_follow_the_state_graph(self):
        env = Environment(5)
        party = build_party(env, 4, "ordered")
        transitions = watch_transitions(env, party.philosophers)
        env.run(until=400.0)
        for ph in party.philosophers:
            assert transitions[ph], "expected some activity"
            previous_end = None
            for _, src, dst in transitions[ph]:
                assert (src, dst) in ALLOWED_TRANSITIONS
                if previous_end is not None:
                    assert src is previous_end
                previous_end = dst

    def test_give_up_edge_only_for_impatient(self):
        env = Environment(11)
        bowl = Container(env, init=0.0, capacity=1000.0)  # starved, no chef
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
        )
        transitions = watch_transitions(env, [ph])
        env.run(until=400.0)
        edges = {(src, dst) for _, src, dst in transitions[ph]}
        assert GIVE_UP_TRANSITION in edges
        assert (PhilosopherState.HUNGRY_WITH_ONE, PhilosopherState.EATING) not in edges

    def test_same_chopstick_twice_rejected(self):
        env = Environment(0)
        chopstick = Resource(env, 1)
        with pytest.raises(ValueError, match="two different chopsticks"):
            Philosopher(env, (chopstick, chopstick), 0)

    def test_three_chopsticks_rejected(self):
        env = Environment(0)
        with pytest.raises(ValueError, match="two different chopsticks"):
            Philosopher(env, [Resource(env, 1) for _ in range(3)], 0)

    def test_options_are_keyword_only(self):
        env = Environment(0)
        bowl = Container(env, init=100.0, capacity=100.0)
        with pytest.raises(TypeError):
            Philosopher(env, (Resource(env, 1), Resource(env, 1)), 0, "bowl", bowl)
        assert env.step() is False  # no diner was spawned


class TestClassicDeadlock:
    def test_deadlock_shape(self):
        # Seed 16 deadlocks quickly; every chopstick held once, all diners
        # stuck one chopstick short, queue fully drained.
        env = Environment(16)
        party = build_party(env, 5, "classic")
        outcome = env.run(until=100000.0)
        assert outcome.exhausted
        assert [c.count for c in party.chopsticks] == [1, 1, 1, 1, 1]
        assert detect_deadlock(party.chopsticks)
        assert all(ph.state is PhilosopherState.HUNGRY_WITH_ONE
                   for ph in party.philosophers)

    def test_two_philosophers_can_deadlock_unordered_but_not_ordered(self):
        # Every seed that exhausts must be a stuck ring, and no ordered pair
        # ever exhausts.
        classic_exhausted = []
        for seed in range(30):
            env = Environment(seed)
            party = build_party(env, 2, "classic")
            if env.run(until=2000.0).exhausted:
                classic_exhausted.append(seed)
                assert detect_deadlock(party.chopsticks)
        assert classic_exhausted
        for seed in range(30):
            env = Environment(seed)
            build_party(env, 2, "ordered")
            assert not env.run(until=2000.0).exhausted

    def test_detect_deadlock_needs_every_chopstick_held_and_waited_for(self):
        env = Environment(0)
        assert not detect_deadlock([])
        chopsticks = [Resource(env, 1) for _ in range(3)]
        for c in chopsticks:
            c.request()
        assert not detect_deadlock(chopsticks)  # all held, nobody waiting
        chopsticks[0].request()
        chopsticks[1].request()
        assert not detect_deadlock(chopsticks)  # the third has no waiter
        chopsticks[2].request()
        assert detect_deadlock(chopsticks)


class TestBuildParty:
    def test_wiring_validation(self):
        env = Environment(0)
        with pytest.raises(ValueError):
            build_party(env, 1, "classic")
        with pytest.raises(ValueError):
            build_party(env, 5, "banquet")

    def test_ring_assignment(self):
        env = Environment(0)
        party = build_party(env, 5, "classic")
        for i, ph in enumerate(party.philosophers):
            assert ph.chopsticks[0] is party.chopsticks[i]
            assert ph.chopsticks[1] is party.chopsticks[(i + 1) % 5]

    def test_two_diner_ring_shares_both_chopsticks_in_opposite_order(self):
        env = Environment(0)
        party = build_party(env, 2, "classic")
        first, second = party.philosophers
        assert first.chopsticks == (party.chopsticks[0], party.chopsticks[1])
        assert second.chopsticks == (party.chopsticks[1], party.chopsticks[0])

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_pickup_order_as_chopstick_indexes(self, variant, n):
        party = build_party(Environment(0), n, variant)
        for i, ph in enumerate(party.philosophers):
            seat = (i, (i + 1) % n)
            expected = seat if variant == "classic" else tuple(sorted(seat))
            assert tuple(party.chopsticks.index(c) for c in ph.chopsticks) == expected

    def test_ordered_variant_sorts_by_creation_order(self):
        env = Environment(0)
        party = build_party(env, 5, "ordered")
        last = party.philosophers[-1]
        assert last.chopsticks == (party.chopsticks[0], party.chopsticks[4])

    def test_bowl_variant_attaches_full_bowl_and_chef(self):
        env = Environment(0)
        party = build_party(env, 5, "bowl")
        assert party.bowl is not None and party.chef is not None
        assert party.bowl.level == 1000.0 and party.bowl.capacity == 1000.0
        assert all(ph.bowl is party.bowl for ph in party.philosophers)

    def test_classic_and_ordered_have_no_bowl(self):
        env = Environment(0)
        assert build_party(env, 3, "classic").bowl is None
        assert build_party(env, 3, "ordered").bowl is None


class TestBowlAndChef:
    def test_first_meal_reserves_food(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        bowl = Container(env, init=1000.0, capacity=1000.0)
        make_solo_philosopher(env, bowl=bowl, trace=sink)
        env.run(until=30.0)
        assert "reserved food" in [message for _, _, message in trace]
        assert bowl.level <= 980.0

    def test_chef_refills_exactly_the_missing_amount(self):
        env = Environment(0)
        bowl = Container(env, init=1000.0, capacity=1000.0)
        chef = Chef(env, bowl)
        def eater():
            yield env.timeout(10.0)
            yield bowl.get(20.0)
            yield env.timeout(20.0)
            yield bowl.get(20.0)
            yield env.timeout(20.0)
            yield bowl.get(20.0)
        from desim import spawn
        spawn(env, eater())
        env.run(until=150.0)
        # Three meals of 20 before the first restock check at t=150.
        assert bowl.level == 1000.0
        assert chef.total_restocked == 60.0

    def test_chef_restocks_once_a_restock_period(self):
        env = Environment(0)
        bowl = Container(env, init=0.0, capacity=1000.0)
        Chef(env, bowl)
        env.run(until=149.9)
        assert bowl.level == 0.0
        env.run(until=150.0)
        assert bowl.level == 1000.0

    def test_chef_skips_restock_when_full(self):
        env = Environment(0)
        bowl = Container(env, init=1000.0, capacity=1000.0)
        chef = Chef(env, bowl)
        env.run(until=450.0)
        assert chef.total_restocked == 0.0
        assert bowl.level == 1000.0

    def test_rice_conservation_with_party(self):
        for variant in ("bowl", "impatient"):
            env = Environment(21)
            party = build_party(env, 6, variant)
            env.run(until=5000.0)
            consumed = sum(ph.rice_consumed for ph in party.philosophers)
            assert 1000.0 + party.chef.total_restocked - consumed == party.bowl.level


class TestImpatient:
    def test_give_up_after_max_wait_with_starved_bowl(self):
        env = Environment(2)
        trace, sink = collecting_sink()
        bowl = Container(env, init=0.0, capacity=1000.0)  # chef never spawned
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
            trace=sink,
        )
        env.run(until=1000.0)
        gave_ups = [t for t, _, message in trace if message == "gave up"]
        assert len(gave_ups) >= 2, "a dead chef means perpetual give-ups"
        assert ph.meals == 0
        # The give-up lands exactly MAX_FOOD_WAIT after the second grant.
        second_grants = [t for t, _, message in trace
                         if message == "obtained another chopstick"]
        assert gave_ups[0] == second_grants[0] + 75.0
        # Escalation: one extra portion per consecutive give-up.
        assert ph.meal_size == 20.0 * (1 + ph.give_ups)
        assert ph.total_give_ups == ph.give_ups
        # Abandoned withdrawals were cancelled, not left to drain the bowl.
        assert len(bowl.get_queue) <= 1

    def test_waiting_counts_the_futile_attempt(self):
        env = Environment(2)
        bowl = Container(env, init=0.0, capacity=1000.0)
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
        )
        env.run(until=200.0)
        assert ph.total_give_ups >= 1
        # Each failed attempt contributes pickup pause + MAX_FOOD_WAIT.
        assert ph.waiting >= ph.total_give_ups * 76.0

    def test_chopsticks_come_back_after_giving_up(self):
        env = Environment(2)
        bowl = Container(env, init=0.0, capacity=1000.0)
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
        )
        transitions = watch_transitions(env, [ph])
        while ph.total_give_ups == 0:
            env.step()
        # Giving up, going back to thinking and releasing both chopsticks
        # all happen within the one resumption that lost the race.
        assert transitions[ph][-1][1:] == GIVE_UP_TRANSITION
        assert ph.state is PhilosopherState.THINKING
        assert all(c.count == 0 for c in ph.chopsticks)
        env.run(until=200.0)
        assert ph.total_give_ups >= 1
        assert ph.state is PhilosopherState.THINKING or ph.state is PhilosopherState.HUNGRY_WITH_ONE
        released = all(c.count in (0, 1) for c in ph.chopsticks)
        assert released
        # After the last completed cycle nothing is leaked: a thinking diner
        # holds no chopsticks.
        if ph.state is PhilosopherState.THINKING:
            assert all(c.count == 0 for c in ph.chopsticks)

    def test_meal_size_resets_after_success(self):
        env = Environment(4)
        trace, sink = collecting_sink()
        bowl = Container(env, init=0.0, capacity=1000.0)
        Chef(env, bowl)
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
            trace=sink,
        )
        env.run(until=3000.0)
        assert ph.total_give_ups >= 1, "expected an initial give-up on the empty bowl"
        assert ph.meals >= 1, "expected the chef to rescue later attempts"
        assert ph.meal_size == 20.0 * (1 + ph.give_ups)

    def test_withdrawal_granted_at_once_starts_no_race(self):
        # With rice in the bowl the withdrawal is granted when it is made,
        # so it cannot lose to the deadline and no any_of race is started.
        env = Environment(3)
        conditions = []
        def record(event):
            if isinstance(event, Condition):
                conditions.append(event)
        env.on_processed = record
        bowl = Container(env, init=1000.0, capacity=1000.0)
        ph = make_solo_philosopher(
            env,
            impatient=True,
            bowl=bowl,
        )
        env.run(until=400.0)
        assert ph.meals == 20 and ph.total_give_ups == 0
        assert conditions == []

    def test_impatient_requires_bowl(self):
        env = Environment(0)
        with pytest.raises(ValueError, match="impatient philosophers need a bowl"):
            make_solo_philosopher(env, impatient=True)
        assert env.step() is False  # no diner was spawned

    def test_everyone_satisfies_escalation_ledger_in_a_real_party(self):
        env = Environment(8)
        party = build_party(env, 12, "impatient")
        env.run(until=20000.0)
        for ph in party.philosophers:
            assert ph.meal_size == 20.0 * (1 + ph.give_ups)


class TestTraceSink:
    """``build_party``'s ``trace`` is called as ``emit(time, actor, message)``."""

    @staticmethod
    def run_party(trace):
        env = Environment(99)
        processed = []
        env.on_processed = processed.append
        party = build_party(env, 12, "impatient", trace=trace)
        env.run(until=5000.0)
        return party.mean_waiting, env.now, len(processed)

    def test_calls_render_the_diag_output_and_leave_the_run_unchanged(self):
        from desim.cli import emit_trace, main
        calls = []
        traced = self.run_party(lambda *args: calls.append(args))
        assert all(len(call) == 3 and tuple(map(type, call)) == (float, str, str)
                   for call in calls)
        out = io.StringIO()
        assert main(["run", "--scenario", "impatient", "--n", "12", "--seed", "99",
                     "--until", "5000", "--diag"], stdout=out) == 0
        assert emit_trace(calls) == "".join(out.getvalue().splitlines(True)[:-2])
        # Tracing does not perturb the model.
        assert traced == self.run_party(None)


class TestInlineMealAttempt:
    @pytest.mark.parametrize("variant", ["bowl", "impatient"])
    def test_no_process_completes_in_a_party(self, variant):
        # Each hungry spell runs inside the diner's own process, so no
        # process ever completes and none is processed as an event, also in
        # a run with give-ups.
        env = Environment(1)
        processes = []
        def record(event):
            if isinstance(event, Process):
                processes.append(event)
        env.on_processed = record
        party = build_party(env, 16, variant)
        env.run(until=10000.0)
        assert sum(ph.meals for ph in party.philosophers) > 0
        if variant == "impatient":
            assert sum(ph.total_give_ups for ph in party.philosophers) > 0
        assert processes == []


class TestCounter:
    def test_time_zero_block_matches_reference_ordering(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        counter_scenario(env, trace=sink)
        head = [(actor, message, t) for t, actor, message in trace[:3]]
        assert head == [
            ("The operator", "fell asleep", 0.0),
            ("Customer", "arrived", 0.0),
            ("The operator", "woke up", 0.0),
        ]

    def test_departures_follow_arrival_order(self):
        env = Environment(5)
        result = counter_scenario(env, n_customers=50, trace=collecting_sink()[1])
        resolved = sorted(result.customers, key=lambda c: (c.departure, c.index))
        assert [c.index for c in resolved] == list(range(50))
        assert all(c.departure is not None for c in result.customers)

    def test_arrival_is_the_time_of_the_arrived_line(self):
        env = Environment(5)
        trace, sink = collecting_sink()
        result = counter_scenario(env, n_customers=50, trace=sink)
        arrived = [t for t, _, message in trace if message == "arrived"]
        assert [c.arrival for c in result.customers] == arrived
        assert len(set(arrived)) == 50  # distinct times: the order is checked too

    def test_successful_service_takes_exactly_the_service_delay(self):
        env = Environment(5)
        result = counter_scenario(env, n_customers=50, trace=collecting_sink()[1])
        for c in result.customers:
            assert c.departure == c.service_start + 10.0

    def test_failed_customers_traced_and_flagged(self):
        env = Environment(1)
        trace, sink = collecting_sink()
        result = counter_scenario(env, n_customers=200, trace=sink)
        failures = [c for c in result.customers if c.failed]
        assert failures, "with 200 customers some services should fail"
        failed_lines = [m for _, _, m in trace if m == "failed (and left)"]
        assert len(failed_lines) == len(failures)

    def test_trace_times_nondecreasing(self):
        env = Environment(9)
        trace, sink = collecting_sink()
        counter_scenario(env, n_customers=40, trace=sink)
        times = [t for t, _, _ in trace]
        assert times == sorted(times)

    def test_run_ends_with_operator_asleep_and_queue_exhausted(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        result = counter_scenario(env, trace=sink)
        assert result.outcome.exhausted
        assert trace[-2][2] in ("fell asleep", "left", "failed (and left)")

    def test_config_validation(self):
        # Every bad count is a ValueError, not a TypeError from comparing it.
        for n in (0, -1, 2.5, "3"):
            with pytest.raises(ValueError,
                               match=f"n_customers must be an integer >= 1, got {n!r}"):
                counter_scenario(Environment(0), n_customers=n,
                                 trace=collecting_sink()[1])

    def test_horizon_cuts_the_scenario_short(self):
        env = Environment(3)
        trace, sink = collecting_sink()
        result = counter_scenario(env, until=5.0, trace=sink)
        assert not result.outcome.exhausted and result.outcome.at == 5.0
        assert all(t <= 5.0 for t, _, _ in trace)
        assert any(c.departure is None for c in result.customers)


class TestRecordValues:
    def test_party_fields_defaults_and_equality(self):
        env = Environment(0)
        party = build_party(env, 3, "ordered")
        assert party.bowl is None and party.chef is None
        same = Party(philosophers=party.philosophers, chopsticks=party.chopsticks)
        assert same == party
        assert repr(same).startswith("Party(philosophers=[")
        with pytest.raises(AttributeError):
            party.bowl = Container(env, init=1.0, capacity=1.0)

    def test_counter_result_repr_and_equality(self):
        result = counter_scenario(Environment(3), n_customers=2,
                                  trace=collecting_sink()[1])
        assert result == CounterResult(result.customers, result.outcome)
        assert repr(result).startswith(
            "CounterResult(customers=[CustomerRecord(index=0, ")
        assert result.outcome.exhausted

    def test_customer_record_is_a_mutable_value(self):
        record = CustomerRecord(4)
        assert repr(record) == ("CustomerRecord(index=4, arrival=None, "
                                "service_start=None, departure=None, failed=False)")
        record.arrival, record.failed = 1.5, True
        assert record == CustomerRecord(4, arrival=1.5, failed=True)
        assert record != CustomerRecord(4)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is CustomerRecord

    def test_customer_record_compares_only_with_customer_records(self):
        from unittest import mock
        record = CustomerRecord(4)
        assert record != (4, None, None, None, False)
        assert record == mock.ANY  # another type's __eq__ gets its turn
        with pytest.raises(TypeError):
            hash(record)  # mutable, so unhashable
