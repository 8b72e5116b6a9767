"""Seeded input generators for the three workloads.

Every generator is a pure function of its seed: the same seed yields the
same inputs, in the same order.  Expected outputs come from
:mod:`perfbench.oracle`, never from the system under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

from perfbench import oracle

# -- mixwell-cold: random Turing machines ----------------------------------------

TM_STATES = (2, 6)          # inclusive range of non-halting states
TM_SYMBOLS = (0, 1, oracle.BLANK)
TM_RULE_DENSITY = 0.8       # chance that a (state, symbol) pair has a rule
TM_HALT_WEIGHT = 0.15       # chance that a rule's next state is `done`
TM_STEP_BOUND = 40
TM_TAPES = 3
TM_TAPE_LENGTH = (3, 8)


@dataclass(frozen=True)
class TuringMachine:
    """One MIXWELL static input: a machine and the tapes it is run on."""

    rules: tuple[tuple, ...]
    tapes: tuple[tuple, ...]
    expected: tuple[str, ...]

    def rules_text(self) -> str:
        return oracle.render([list(r) for r in self.rules])

    def tape_texts(self) -> list[str]:
        return [oracle.render(list(t)) for t in self.tapes]


def random_tm(rng: random.Random) -> TuringMachine | None:
    """One draw; ``None`` when the machine fails to halt on a tape."""
    states = [f"q{i}" for i in range(rng.randint(*TM_STATES))]
    rules = []
    for state in states:
        for sym in TM_SYMBOLS:
            if rng.random() >= TM_RULE_DENSITY:
                continue
            nxt = (
                oracle.HALT if rng.random() < TM_HALT_WEIGHT
                else rng.choice(states)
            )
            rules.append((
                state, sym, rng.choice(TM_SYMBOLS),
                rng.choice(("left", "right")), nxt,
            ))
    rng.shuffle(rules)
    tapes = tuple(
        tuple(rng.choice((0, 1)) for _ in range(rng.randint(*TM_TAPE_LENGTH)))
        for _ in range(TM_TAPES)
    )
    expected = []
    for tape in tapes:
        result = oracle.tm_run(rules, list(tape), TM_STEP_BOUND)
        if result is None:
            return None
        expected.append(oracle.render(result[0]))
    return TuringMachine(tuple(rules), tapes, tuple(expected))


def tm_stream(seed: int) -> Iterator[TuringMachine]:
    """Distinct machines that halt on all their tapes, forever."""
    rng = random.Random(f"mixwell-cold/{seed}")
    seen: set[tuple] = set()
    while True:
        tm = random_tm(rng)
        if tm is None or tm.rules in seen:
            continue
        seen.add(tm.rules)
        yield tm


# -- lazy-run: the n schedule ------------------------------------------------------

# Each block of four ops runs n=3 three times and n=4 once (~24 ms and
# ~185 ms runs): the seed shuffles the order inside a block but never the
# mix, so the median sits on n=3 runs and the tail on n=4 runs at every
# seed.
LAZY_BLOCK = (3, 3, 3, 4)


def lazy_schedule(seed: int) -> Iterator[int]:
    rng = random.Random(f"lazy-run/{seed}")
    while True:
        block = list(LAZY_BLOCK)
        rng.shuffle(block)
        yield from block


# -- serve-fleet: matcher patterns and subjects ------------------------------------

MATCH_ATOMS = ("config", "host", "port", "user", "a", "b", "c", 80, 443, 0, 1)
MATCH_VARS = ("x", "y", "z", "h", "p")
SUBJECTS_PER_PATTERN = 4


def random_pattern(rng: random.Random) -> list:
    """A pattern of one fixed shape: a literal, two ``(? name)`` bindings
    and a two-element sublist, in a seeded order with seeded atoms and
    names.  One shape keeps every key's residual about the same size, so
    which keys the seed makes popular does not move the latencies.

    A bare ``?`` never appears inside a list: the matcher would read the
    tail starting at it as a binding form.
    """
    def binding() -> list:
        return ["?", rng.choice(MATCH_VARS)]

    sublist = [rng.choice(MATCH_ATOMS), binding()]
    rng.shuffle(sublist)
    items = [rng.choice(MATCH_ATOMS), binding(), binding(), sublist]
    rng.shuffle(items)
    return items


def _random_value(rng: random.Random) -> object:
    if rng.random() < 0.8:
        return rng.choice(MATCH_ATOMS)
    return [rng.choice(MATCH_ATOMS) for _ in range(rng.randint(0, 2))]


def _instantiate(pat: object, rng: random.Random, env: dict) -> object:
    """A subject that ``pat`` matches."""
    if isinstance(pat, list) and pat and pat[0] == "?":
        if pat[1] not in env:
            env[pat[1]] = _random_value(rng)
        return env[pat[1]]
    if isinstance(pat, list):
        return [_instantiate(p, rng, env) for p in pat]
    return pat


def _mutate(subject: object, rng: random.Random) -> object:
    """Perturb one position of a subject (the result may still match)."""
    if not isinstance(subject, list) or not subject or rng.random() < 0.2:
        return _random_value(rng)
    i = rng.randrange(len(subject))
    roll = rng.random()
    if roll < 0.15:
        return subject[:i] + subject[i + 1:]
    if roll < 0.3:
        return subject + [rng.choice(MATCH_ATOMS)]
    return subject[:i] + [_mutate(subject[i], rng)] + subject[i + 1:]


def subjects_for(pattern: list, rng: random.Random) -> list[tuple[str, str]]:
    """``(subject text, expected value text)`` pairs, half of them perturbed."""
    cases = []
    for k in range(SUBJECTS_PER_PATTERN):
        subject = _instantiate(pattern, rng, {})
        if k % 2:
            subject = _mutate(subject, rng)
        cases.append((oracle.render(subject), oracle.match_output(pattern, subject)))
    return cases


# -- serve-fleet: the key universe and the request stream --------------------------

# The repository has no record of real service traffic (its load generator
# cycles over one MIXWELL and one LAZY key, which never evicts L1), so the
# numbers below are assumptions, each chosen for the reason given, not
# measurements of a workload.  Client latencies quoted are L1 hits on a
# 2-vCPU VM.
#
# The matcher is the only program whose key universe outgrows its L1 (64
# residuals per program), so it alone produces L2 hits after eviction and
# most L3 first touches; its L1 hits are also the cheapest request (~3 ms).
FLEET_MATCHERS = 100
# A MIXWELL key costs ~0.2 s to publish in set-up, and its L1 hits ~10-25 ms
# (the Turing machine runs in the server): 4 keys and 10% of requests keep
# the Fig 6/7 program in the mix without letting its runs dominate.  The
# machines are the same at every seed, and equally popular: a random
# machine's run costs anywhere in that range, so with only 4 of them the
# seed's draw would otherwise move every latency.
FLEET_TMS = 4
FLEET_TM_SEED = 0
# LAZY's one key is the primes program; n=1..3 give ~5, ~10 and ~33 ms
# requests, long runs being lazy-run's job.  5% of requests, for the same
# reason as MIXWELL's 10%.
FLEET_LAZY_N = (1, 2, 3)
FLEET_TRAFFIC = {"matcher": 0.85, "mixwell": 0.10, "lazy": 0.05}
# Zipf exponent 1 (the textbook law; no measured value is at hand) for the
# matcher's keys: over 100 keys it sends ~15% of matcher requests past the
# 64 most recent keys.  MIXWELL and LAZY keys all stay in L1, so they are
# equally popular.
FLEET_ZIPF_S = 1.0
# The share of requests that go to a pattern never published to L3: the
# run's misses (about 70 in 25 s, enough for gen_p50_ms and op_tail_ms).
FLEET_FRESH = 0.02
# Closed-loop connections.  Client 0 sends every miss: two concurrent
# misses double each other's latency, and how many such overlaps a run
# happened to have would otherwise decide op_tail_ms.
FLEET_CLIENTS = 2


@dataclass(frozen=True)
class FleetKey:
    """One residual the fleet may request: a program and its statics."""

    kind: str                   # "matcher" | "mixwell" | "lazy"
    static: str                 # datum text of the static argument
    cases: tuple[tuple[str, str], ...]   # (dynamic text, expected text)


def _matcher_key(rng: random.Random) -> FleetKey:
    pattern = random_pattern(rng)
    return FleetKey("matcher", oracle.render(pattern), tuple(subjects_for(pattern, rng)))


def fleet_keys(seed: int) -> list[FleetKey]:
    """The key universe, published to L3 during set-up."""
    rng = random.Random(f"serve-fleet/keys/{seed}")
    matchers: dict[str, FleetKey] = {}
    while len(matchers) < FLEET_MATCHERS:
        key = _matcher_key(rng)
        matchers.setdefault(key.static, key)
    tms = [
        FleetKey("mixwell", tm.rules_text(), tuple(zip(tm.tape_texts(), tm.expected)))
        for tm in itertools.islice(tm_stream(FLEET_TM_SEED), FLEET_TMS)
    ]
    lazy = FleetKey(
        "lazy", "", tuple((str(n), oracle.primes_output(n)) for n in FLEET_LAZY_N)
    )
    return [*matchers.values(), *tms, lazy]


def fleet_requests(
    seed: int, keys: list[FleetKey], client: int = 0
) -> Iterator[tuple[FleetKey, int]]:
    """``(key, case index)`` forever, for one client.  Client 0 sends a
    seeded share of never-published patterns, ``FLEET_FRESH`` of all the
    clients' requests; otherwise requests follow a fixed traffic split
    between programs, with Zipf-like popularity over a seeded ranking of
    the matcher's keys (the same ranking for every client)."""
    rng = random.Random(f"serve-fleet/requests/{seed}/{client}")
    fresh_rng = random.Random(f"serve-fleet/fresh/{seed}")
    fresh_share = FLEET_FRESH * FLEET_CLIENTS if client == 0 else 0.0
    seen = {k.static for k in keys if k.kind == "matcher"}

    def fresh() -> FleetKey:
        while True:
            key = _matcher_key(fresh_rng)
            if key.static not in seen:
                seen.add(key.static)
                return key

    kinds = list(FLEET_TRAFFIC)
    ranking = random.Random(f"serve-fleet/ranking/{seed}")
    ranked: dict[str, list[FleetKey]] = {}
    cumulative: dict[str, list[float]] = {}
    for kind in kinds:
        members = [k for k in keys if k.kind == kind]
        ranking.shuffle(members)
        ranked[kind] = members
        s = FLEET_ZIPF_S if kind == "matcher" else 0.0
        cumulative[kind] = list(itertools.accumulate(
            1.0 / (r + 1) ** s for r in range(len(members))
        ))
    mix = list(itertools.accumulate(FLEET_TRAFFIC[k] for k in kinds))
    while True:
        if rng.random() < fresh_share:
            key = fresh()
        else:
            kind = rng.choices(kinds, cum_weights=mix)[0]
            key = rng.choices(ranked[kind], cum_weights=cumulative[kind])[0]
        yield key, rng.randrange(len(key.cases))
