"""The input generators are pure functions of their seed."""

import itertools

from perfbench import inputs, oracle


def take(iterator, n):
    return list(itertools.islice(iterator, n))


def test_tm_stream_is_deterministic_per_seed():
    assert take(inputs.tm_stream(7), 8) == take(inputs.tm_stream(7), 8)
    assert take(inputs.tm_stream(7), 8) != take(inputs.tm_stream(8), 8)


def test_tm_stream_yields_distinct_halting_machines():
    machines = take(inputs.tm_stream(3), 30)
    assert len({tm.rules for tm in machines}) == len(machines)
    for tm in machines:
        states = {r[0] for r in tm.rules}
        assert len(states) <= inputs.TM_STATES[1]
        assert len(tm.tapes) == inputs.TM_TAPES
        for tape, expected in zip(tm.tapes, tm.expected):
            assert oracle.tm_output(list(tm.rules), list(tape), inputs.TM_STEP_BOUND) == expected


def test_lazy_schedule_keeps_its_mix_at_every_seed():
    for seed in (1, 2, 3):
        ns = take(inputs.lazy_schedule(seed), 400)
        assert ns == take(inputs.lazy_schedule(seed), 400)
        assert ns.count(4) == 100 and ns.count(3) == 300
    assert take(inputs.lazy_schedule(1), 40) != take(inputs.lazy_schedule(2), 40)


def test_fleet_keys_and_requests_are_deterministic():
    keys = inputs.fleet_keys(5)
    assert keys == inputs.fleet_keys(5)
    assert keys != inputs.fleet_keys(6)
    for client in range(inputs.FLEET_CLIENTS):
        assert take(inputs.fleet_requests(5, keys, client), 500) == take(
            inputs.fleet_requests(5, keys, client), 500
        )
    assert take(inputs.fleet_requests(5, keys, 0), 50) != take(
        inputs.fleet_requests(5, keys, 1), 50
    )
    kinds = [k.kind for k in keys]
    # the machines are fixed: only the matcher's keys follow the seed
    assert [k for k in keys if k.kind != "matcher"] == [
        k for k in inputs.fleet_keys(6) if k.kind != "matcher"
    ]
    assert kinds.count("matcher") == inputs.FLEET_MATCHERS
    assert kinds.count("mixwell") == inputs.FLEET_TMS


def test_fleet_fresh_keys_are_never_published_or_repeated():
    keys = inputs.fleet_keys(2)
    universe = set(keys)
    requests = [
        take(inputs.fleet_requests(2, keys, c), 10000)
        for c in range(inputs.FLEET_CLIENTS)
    ]
    fresh = [[k for k, _ in r if k not in universe] for r in requests]
    # client 0 sends every miss, the fleet's share of all requests
    assert all(f == [] for f in fresh[1:])
    assert len(fresh[0]) == len(set(fresh[0]))
    assert {k.kind for k in fresh[0]} == {"matcher"}
    total = sum(len(r) for r in requests)
    share = inputs.FLEET_FRESH
    assert 0.8 * share * total < len(fresh[0]) < 1.2 * share * total


def test_fleet_matcher_universe_exceeds_the_server_l1():
    from repro.serve import TenantQuota

    assert inputs.FLEET_MATCHERS > TenantQuota().max_cached_residuals


def test_patterns_never_put_a_bare_wildcard_inside_a_list():
    import random

    def bare(p):
        return isinstance(p, list) and (
            any(x == "?" for x in p[1:]) or any(bare(x) for x in p if isinstance(x, list) and x[:1] != ["?"])
        )

    rng = random.Random(0)
    for _ in range(500):
        assert not bare(inputs.random_pattern(rng))
