"""The oracle agrees with the paper's fixed inputs and with the system."""

import itertools
import re

import pytest

from perfbench import inputs, oracle, programs

MATCHER_PATTERN = ["config", ["host", ["?", "h"]], ["port", ["?", "p"]], ["host", ["?", "h"]]]
MATCHER_SUBJECTS = {
    # the four subjects of examples/rtcg_matcher.py
    "(config (host a) (port 80) (host a))": True,
    "(config (host a) (port 80) (host b))": False,
    "(config (host a) (port 80))": False,
    "(config (host a) (port 80) (host a) extra)": False,
}


def parse(text):
    """A tiny reader for the oracle's representation (no repro import)."""
    tokens = re.findall(r"\(|\)|[^\s()]+", text)

    def read(i):
        if tokens[i] == "(":
            out, i = [], i + 1
            while tokens[i] != ")":
                item, i = read(i)
                out.append(item)
            return out, i + 1
        tok = tokens[i]
        return (int(tok) if tok.lstrip("-").isdigit() else tok), i + 1

    return read(0)[0]


def binary_increment_rules():
    from repro.workloads import MIXWELL_TM_PROGRAM

    start = MIXWELL_TM_PROGRAM.index("(quote ((q0") + len("(quote ")
    table = parse(MIXWELL_TM_PROGRAM[start:])
    return [tuple(rule) for rule in table]


def test_binary_increment_tape():
    out = oracle.tm_output(binary_increment_rules(), [1, 0, 1, 1, 0, 1], 100)
    assert out == "(1 0 1 1 1 0)"


def test_lazy_primes_n4_is_11():
    assert oracle.primes_output(4) == "11"
    assert oracle.PRIMES[:6] == [2, 3, 5, 7, 11, 13]


def test_matcher_example_subjects():
    for text, expected in MATCHER_SUBJECTS.items():
        assert oracle.match(MATCHER_PATTERN, parse(text)) is expected
        assert oracle.match_output(MATCHER_PATTERN, parse(text)) == oracle.render(expected)
    assert oracle.render(MATCHER_PATTERN) == "(config (host (? h)) (port (? p)) (host (? h)))"


def test_tm_without_a_rule_halts_writing_blank():
    # q0 on 1 has no rule: the default writes a blank, moves right, halts.
    assert oracle.tm_run([("q0", 0, 1, "right", "q0")], [0, 0, 1], 10) == ([1, 1], 3)
    assert oracle.tm_run([("q0", 0, 0, "right", "q0"), ("q0", "b", "b", "left", "q0")], [0], 5) is None


@pytest.fixture(scope="module")
def datum():
    from perfbench.inproc import datum

    return datum


def test_oracle_matches_the_system_on_seeded_machines(datum):
    from repro.lang.prims import write_value
    from repro.rtcg import make_generating_extension

    prog = programs.program("mixwell")
    ext = make_generating_extension(prog.source, prog.signature, goal=prog.goal)
    for tm in itertools.islice(inputs.tm_stream(11), 3):
        residual = ext.to_object_code([datum(programs.tm_program_text(tm.rules_text()))])
        for tape, expected in zip(tm.tape_texts(), tm.expected):
            assert write_value(residual.run([datum(tape)])) == expected


def test_oracle_matches_the_system_on_seeded_patterns(datum):
    import random

    from repro.lang.prims import write_value
    from repro.rtcg import make_generating_extension

    prog = programs.program("matcher")
    ext = make_generating_extension(prog.source, prog.signature, goal=prog.goal)
    rng = random.Random(4)
    for _ in range(5):
        pattern = inputs.random_pattern(rng)
        residual = ext.to_object_code([datum(oracle.render(pattern))])
        for subject, expected in inputs.subjects_for(pattern, rng):
            assert write_value(residual.run([datum(subject)])) == expected
