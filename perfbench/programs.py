"""The programs the workloads specialize, and their static inputs as text."""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Program:
    source: str
    signature: str
    goal: str


@lru_cache(maxsize=None)
def matcher_source() -> str:
    """The pattern matcher of ``examples/rtcg_matcher.py``."""
    path = ROOT / "examples" / "rtcg_matcher.py"
    spec = importlib.util.spec_from_file_location("rtcg_matcher_example", path)
    if spec is None or spec.loader is None:
        raise ImportError(f"cannot load {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MATCHER


def program(kind: str) -> Program:
    from repro import workloads as w

    if kind == "mixwell":
        return Program(w.MIXWELL_SOURCE, w.MIXWELL_SIGNATURE, w.MIXWELL_GOAL)
    if kind == "lazy":
        return Program(w.LAZY_SOURCE, w.LAZY_SIGNATURE, w.LAZY_GOAL)
    if kind == "matcher":
        return Program(matcher_source(), "SD", "match")
    raise ValueError(f"unknown program {kind!r}")


def static_text(kind: str, static: str) -> str:
    """The full static argument for a key: a MIXWELL program around a TM's
    rules, the LAZY primes program, or a matcher pattern as is."""
    from repro import workloads as w

    if kind == "mixwell":
        return tm_program_text(static)
    if kind == "lazy":
        return w.LAZY_PRIMES_PROGRAM
    return static


def tm_program_text(rules_text: str) -> str:
    """The MIXWELL Turing-machine program with its rule table replaced."""
    from repro.workloads import MIXWELL_TM_PROGRAM as text

    start = text.index("(quote ((q0")
    depth = 0
    for end in range(start, len(text)):
        depth += {"(": 1, ")": -1}.get(text[end], 0)
        if depth == 0:
            break
    return f"{text[:start]}(quote {rules_text}){text[end + 1:]}"
