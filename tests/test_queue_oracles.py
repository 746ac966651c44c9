"""Known-answer checks for multi-server grants, fixed service times and reneging.

No model in ``desim.scenarios`` uses a ``Resource`` with capacity above 1 or a
fixed service time, and ``mm1_simulate`` covers M/M/1 only. A small FIFO queue
model, defined here, is checked against two closed forms in the same 10% band
as the M/M/1 oracle:

- M/M/c, mean queue wait by Erlang C (Erlang 1917; Kleinrock 1975,
  *Queueing Systems*, Vol. 1);
- M/D/1, mean queue wait by Pollaczek-Khinchine, Wq = rho / (2 mu (1 - rho)).

A third model checks the impatient diner's race-and-cancel path: a
``Container`` holding ``c`` units is a pool of servers, and each customer
races ``get(1)`` against an exponential patience with ``any_of``, calling
``cancel_get`` on losing. That is Erlang-A, M/M/c+M (Palm 1943; Garnett,
Mandelbaum & Reiman 2002, *Manufacturing & Service Operations Management*),
whose abandonment probability follows from its birth-death chain. With one
server and a fixed patience D, as the diner's, it is M/M/1+D (Baccelli, Boyer
& Hebuterne 1984, *Advances in Applied Probability*), whose abandonment
probability has a closed form.

A fourth runs that path as the diner does, on a stock refilled one unit at a
time: make-to-stock with impatient backorders. Its abandonment probability
follows from the birth-death chain of the net inventory.
"""

import math

import pytest

from desim import Container, Environment, Resource, any_of, spawn

CUSTOMERS = 60_000
SERVICE_RATE = 0.1


def mean_queue_wait(servers, arrival_rate, service_time, seed=0):
    """Mean request-to-grant wait of ``CUSTOMERS`` Poisson arrivals.

    Each customer holds one of ``servers`` units for ``service_time(rng)``.
    """
    env = Environment(seed)
    desk = Resource(env, servers)
    total_wait = 0.0

    def customer():
        nonlocal total_wait
        arrived = env.now
        grant = desk.request()
        yield grant
        total_wait += env.now - arrived
        yield env.timeout(service_time(env.rng))
        desk.release(grant)

    def arrivals():
        for _ in range(CUSTOMERS):
            spawn(env, customer())
            yield env.timeout(env.rng.expovariate_mean(1.0 / arrival_rate))

    spawn(env, arrivals())
    env.run()
    return total_wait / CUSTOMERS


def erlang_c_wait(servers, arrival_rate, service_rate):
    """Mean queue wait of M/M/c: P(wait) / (c mu - lambda)."""
    load = arrival_rate / service_rate
    rho = load / servers
    queued = load ** servers / math.factorial(servers) / (1.0 - rho)
    idle = sum(load ** k / math.factorial(k) for k in range(servers))
    return queued / (idle + queued) / (servers * service_rate - arrival_rate)


def pollaczek_khinchine_wait(rho, service_rate):
    """Mean queue wait of M/D/1."""
    return rho / (2.0 * service_rate * (1.0 - rho))


def test_erlang_c_reduces_to_the_mm1_closed_form():
    # With one server, Erlang C is lambda / (mu (mu - lambda)).
    assert erlang_c_wait(1, 0.05, 0.1) == pytest.approx(10.0, rel=1e-12)


@pytest.mark.parametrize("servers, rho", [(2, 0.75), (3, 0.80)])
def test_multi_server_wait_matches_erlang_c(servers, rho):
    arrival_rate = rho * servers * SERVICE_RATE
    expected = erlang_c_wait(servers, arrival_rate, SERVICE_RATE)
    observed = mean_queue_wait(
        servers, arrival_rate,
        lambda rng: rng.expovariate_mean(1.0 / SERVICE_RATE))
    assert abs(observed - expected) <= 0.1 * expected


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_fixed_service_wait_matches_pollaczek_khinchine(rho):
    expected = pollaczek_khinchine_wait(rho, SERVICE_RATE)
    observed = mean_queue_wait(1, rho * SERVICE_RATE, lambda rng: 1.0 / SERVICE_RATE)
    assert abs(observed - expected) <= 0.1 * expected


def abandon_fraction(arrival_rate, service_rate, patience, servers, seed=0):
    """Share of ``CUSTOMERS`` Poisson arrivals who give up before a grant.

    Each customer waits at most ``patience(rng)`` for one of ``servers`` units.
    """
    env = Environment(seed)
    pool = Container(env, init=servers, capacity=servers)
    abandoned = 0

    def customer():
        nonlocal abandoned
        grant = pool.get(1)
        deadline = env.timeout(patience(env.rng))
        if (yield any_of(env, [grant, deadline])) is not grant:
            pool.cancel_get(grant)
            abandoned += 1
            return
        yield env.timeout(env.rng.expovariate_mean(1.0 / service_rate))
        pool.put(1)

    def arrivals():
        for _ in range(CUSTOMERS):
            spawn(env, customer())
            yield env.timeout(env.rng.expovariate_mean(1.0 / arrival_rate))

    spawn(env, arrivals())
    env.run()
    return abandoned / CUSTOMERS


def erlang_a_abandon(arrival_rate, service_rate, patience_rate, servers, states=400):
    """P(abandon) of M/M/c+M: theta E[queue] / lambda, chain truncated at ``states``."""
    weights = [1.0]
    for n in range(1, states):
        death = min(n, servers) * service_rate + max(n - servers, 0) * patience_rate
        weights.append(weights[-1] * arrival_rate / death)
    queue = sum(max(n - servers, 0) * w for n, w in enumerate(weights)) / sum(weights)
    return patience_rate * queue / arrival_rate


def test_erlang_a_without_patience_limit_is_erlang_c():
    # As theta -> 0 the queue tends to M/M/c's, so theta E[queue] / lambda
    # tends to theta Wq by Little's law.
    theta = 1e-9
    expected = theta * erlang_c_wait(2, 1.5, 1.0)
    assert erlang_a_abandon(1.5, 1.0, theta, 2) == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("arrival_rate, service_rate, patience_rate, servers", [
    (0.9, 1.0, 0.5, 1),
    (1.2, 1.0, 0.2, 1),  # overloaded: only reneging keeps the queue finite
    (2.5, 1.0, 0.3, 3),
])
def test_reneging_matches_erlang_a(arrival_rate, service_rate, patience_rate, servers):
    expected = erlang_a_abandon(arrival_rate, service_rate, patience_rate, servers)
    observed = abandon_fraction(
        arrival_rate, service_rate,
        lambda rng: rng.expovariate_mean(1.0 / patience_rate), servers)
    assert abs(observed - expected) <= 0.1 * expected


def fixed_patience_abandon(arrival_rate, service_rate, patience):
    """P(abandon) of M/M/1+D: pi0 (lambda / mu) e^(-(mu - lambda) D), lambda != mu."""
    decay = math.exp(-(service_rate - arrival_rate) * patience)
    load = arrival_rate / service_rate
    idle = 1.0 / (1.0 + arrival_rate * (1.0 - decay) / (service_rate - arrival_rate)
                  + load * decay)
    return idle * load * decay


def test_fixed_patience_near_zero_is_mm11_blocking():
    # As D -> 0 a customer leaves unless the server is free: M/M/1/1, which
    # blocks lambda / (lambda + mu) of arrivals (Erlang B with one server).
    assert fixed_patience_abandon(0.9, 1.0, 1e-12) == pytest.approx(0.9 / 1.9, rel=1e-9)


@pytest.mark.parametrize("arrival_rate, service_rate, patience", [
    (0.9, 1.0, 2.0),
    (1.2, 1.0, 3.0),  # overloaded: only reneging keeps the queue finite
])
def test_fixed_patience_matches_mm1_plus_d(arrival_rate, service_rate, patience):
    expected = fixed_patience_abandon(arrival_rate, service_rate, patience)
    observed = abandon_fraction(arrival_rate, service_rate, lambda rng: patience, 1)
    assert abs(observed - expected) <= 0.1 * expected


def stock_abandon_fraction(base_stock, arrival_rate, production_rate, patience_rate,
                           seed=0):
    """Share of ``CUSTOMERS`` Poisson arrivals who give up waiting for a unit.

    A producer makes one unit in an exponential time, puts it into a stock of
    ``base_stock`` units that starts full, and blocks while the stock is full.
    Each customer races ``get(1)`` against an exponential patience.
    """
    env = Environment(seed)
    stock = Container(env, init=base_stock, capacity=base_stock)
    decided = abandoned = 0

    def producer():
        while decided < CUSTOMERS:
            yield env.timeout(env.rng.expovariate_mean(1.0 / production_rate))
            yield stock.put(1)

    def customer():
        nonlocal decided, abandoned
        unit = stock.get(1)
        deadline = env.timeout(env.rng.expovariate_mean(1.0 / patience_rate))
        if (yield any_of(env, [unit, deadline])) is not unit:
            stock.cancel_get(unit)
            abandoned += 1
        decided += 1

    def arrivals():
        for _ in range(CUSTOMERS):
            spawn(env, customer())
            yield env.timeout(env.rng.expovariate_mean(1.0 / arrival_rate))

    spawn(env, producer())
    spawn(env, arrivals())
    env.run()
    assert decided == CUSTOMERS
    return abandoned / CUSTOMERS


def make_to_stock_abandon(base_stock, arrival_rate, production_rate, patience_rate,
                          states=400):
    """P(abandon) with impatient backorders: theta E[backorders] / lambda.

    Net inventory n is stock on hand minus backorders, and K+1 stands for a
    full stock with the producer blocked. It falls at rate lambda and rises at
    rate mu + theta (-n)+. The chain is truncated at ``states`` states.
    """
    weights = [1.0]  # weights[i] is net inventory K+1-i
    for i in range(1, states):
        backorders = max(i - base_stock - 1, 0)
        weights.append(weights[-1] * arrival_rate
                       / (production_rate + backorders * patience_rate))
    backorders = sum(max(i - base_stock - 1, 0) * w
                     for i, w in enumerate(weights)) / sum(weights)
    return patience_rate * backorders / arrival_rate


def test_make_to_stock_without_patience_limit_is_geometric():
    # As theta -> 0, K+1-n is the M/M/1 queue length, geometric in
    # rho = lambda / mu, so E[backorders] = rho^(K+2) / (1 - rho).
    theta, arrival_rate, rho = 1e-9, 0.8, 0.8
    expected = theta * rho ** 5 / (1 - rho) / arrival_rate
    observed = make_to_stock_abandon(3, arrival_rate, 1.0, theta)
    assert observed == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize("base_stock, arrival_rate, production_rate, patience_rate", [
    (3, 1.0, 0.9, 0.5),
    (2, 1.0, 0.8, 1.0),
])
def test_reneging_matches_make_to_stock(base_stock, arrival_rate, production_rate,
                                        patience_rate):
    expected = make_to_stock_abandon(base_stock, arrival_rate, production_rate,
                                     patience_rate)
    observed = stock_abandon_fraction(base_stock, arrival_rate, production_rate,
                                      patience_rate)
    assert abs(observed - expected) <= 0.1 * expected
