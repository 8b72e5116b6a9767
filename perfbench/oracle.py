"""Expected outputs, computed without the system under test.

Every op's value is compared against this module.  Nothing here imports
``repro``: the Turing-machine simulator, the matcher and the primes table
are plain Python, so a bug in the parser, specializer, compiler or VM
cannot make a wrong answer look right.

Data representation shared with :mod:`perfbench.inputs`: a Scheme symbol
is a Python ``str``, a number an ``int``, a proper list a Python
``list``.  :func:`render` writes that representation as Scheme datum
text, the form in which values cross into the system and come back.
"""

from __future__ import annotations

from typing import Any

BLANK = "b"
HALT = "done"

# The MIXWELL TM program's `find` falls back to this rule when no rule
# matches: write a blank, move right, halt.
_DEFAULT_RULE = (BLANK, "right", HALT)


def render(datum: Any) -> str:
    """Scheme datum text for a symbol / integer / bool / nested list."""
    if isinstance(datum, bool):
        return "#t" if datum else "#f"
    if isinstance(datum, (int, str)):
        return str(datum)
    return "(" + " ".join(render(d) for d in datum) + ")"


# -- MIXWELL: Turing machines ------------------------------------------------


def tm_run(rules: list[tuple], tape: list, max_steps: int) -> tuple[list, int] | None:
    """Simulate a machine the way the MIXWELL TM program does.

    ``rules`` are ``(state, symbol, write, move, next)`` tuples, the
    machine starts in ``q0`` on the first cell of ``tape``, and halts on
    entering ``done``.  Returns ``(output, steps)`` — the non-blank cells
    of the final tape in order, which is what the program's
    rewind-and-strip returns — or ``None`` if the machine has not halted
    after ``max_steps`` steps.
    """
    table = {(r[0], r[1]): (r[2], r[3], r[4]) for r in reversed(rules)}
    cells = dict(enumerate(tape))
    pos, state, steps = 0, "q0", 0
    while state != HALT:
        if steps >= max_steps:
            return None
        write, move, state = table.get(
            (state, cells.get(pos, BLANK)), _DEFAULT_RULE
        )
        cells[pos] = write
        pos += 1 if move == "right" else -1
        steps += 1
    return [cells[p] for p in sorted(cells) if cells[p] != BLANK], steps


def tm_output(rules: list[tuple], tape: list, max_steps: int) -> str:
    """The expected residual output for one tape, as datum text."""
    result = tm_run(rules, tape, max_steps)
    if result is None:
        raise ValueError("machine does not halt within the step bound")
    return render(result[0])


# -- the rtcg_matcher example --------------------------------------------------


def match(pattern: Any, subject: Any) -> bool:
    """Reference semantics of ``examples/rtcg_matcher.py``'s ``match``.

    ``?`` matches anything; a list whose head is ``?`` binds its second
    element as a name — it matches anything, and every occurrence of one
    name must match equal subjects; ``[]`` matches the empty list; an
    atom matches an equal atom; a pair matches a pair component-wise,
    car before cdr.  Like the Scheme original, a *tail* that starts with
    ``?`` is a binding too, which is why :mod:`perfbench.inputs` never
    puts a bare ``?`` inside a list.
    """
    env: dict[str, Any] = {}

    def go(pat: Any, subj: Any) -> bool:
        if pat == "?":
            return True
        if pat == []:
            return subj == []
        if not isinstance(pat, list):
            return pat == subj
        if pat[0] == "?":
            name = pat[1]
            if name in env:
                return env[name] == subj
            env[name] = subj
            return True
        if not isinstance(subj, list) or subj == []:
            return False
        return go(pat[0], subj[0]) and go(pat[1:], subj[1:])

    return go(pattern, subject)


def match_output(pattern: Any, subject: Any) -> str:
    return render(match(pattern, subject))


# -- LAZY: the primes program ---------------------------------------------------


def primes(count: int) -> list[int]:
    """The first ``count`` primes, by trial division."""
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found if p * p <= k):
            found.append(k)
        k += 1
    return found


PRIMES = primes(32)


def primes_output(n: int) -> str:
    """``main n`` of the LAZY primes program: the n-th prime, 0-based."""
    return str(PRIMES[n])
