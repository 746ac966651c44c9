"""``detect_deadlock`` checked after every processed event, not only at the end.

The rule (every chopstick held and waited for) must equal exhaustion at each
step: false while a classic party can still move, true from its last event
on, and never true for the variants that take the lower-numbered chopstick
first, which cannot deadlock (Dijkstra's resource hierarchy).
"""

import pytest

from desim import Environment
from desim.scenarios import build_party, detect_deadlock


def verdicts(seed, n, variant, until):
    """The rule after each processed event of one party run, and its outcome."""
    env = Environment(seed)
    party = build_party(env, n, variant)
    seen = []
    env.on_processed = lambda event: seen.append(detect_deadlock(party.chopsticks))
    return seen, env.run(until=until)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_classic_rule_turns_true_exactly_at_the_last_event(n):
    exhausted = 0
    for seed in range(20):
        seen, outcome = verdicts(seed, n, "classic", 5e3)
        if outcome.exhausted:
            exhausted += 1
            assert seen[-1] and not any(seen[:-1]), seed
        else:
            assert not any(seen), seed
    assert exhausted


@pytest.mark.parametrize("variant", ["ordered", "bowl", "impatient"])
@pytest.mark.parametrize("n", [2, 5, 26])
def test_deadlock_free_variants_never_read_deadlocked(variant, n):
    for seed in range(5):
        seen, outcome = verdicts(seed, n, variant, 5e3)
        assert not outcome.exhausted and seen and not any(seen), seed
