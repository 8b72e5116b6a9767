"""The traced run's span bookkeeping."""

import types

import pytest

from perfbench.tracing import LAYER_HOOKS, LAYERS, Tracer


def test_self_time_subtracts_child_spans():
    t = Tracer()
    with t.op(1):
        t.record("rtcg.x", 0.0, 10.0)
    # Re-time the spans by hand: op [0, 12] > rtcg [0, 10] > pe [2, 8].
    t.spans[0] = ("bench.op", 0.0, 12.0, -1, 1)
    t.spans.append(("pe.y", 2.0, 8.0, 1, 1))
    assert t.self_times() == {"bench": 2.0, "rtcg": 4.0, "pe": 6.0}
    assert t.total("bench.op") == 12.0


def test_spans_nest_and_carry_the_op_id():
    t = Tracer()
    with t.op(7):
        with t.span("vm.run"):
            pass
    with t.span("outside"):
        pass
    (op, _, _, op_parent, op_id), (run, _, _, run_parent, run_id), out = t.spans
    assert (op, op_parent, op_id) == ("bench.op", -1, 7)
    assert (run, run_parent, run_id) == ("vm.run", 0, 7)
    assert out[3:] == (-1, -1)


def test_wrap_times_calls_and_restore_puts_the_original_back():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    t = Tracer()
    t.wrap(module, "f", "vm.f")
    assert module.f(1) == 2
    assert [s[0] for s in t.spans] == ["vm.f"]
    t.restore()
    assert module.f is original


def test_wrapped_exceptions_still_close_the_span():
    def boom():
        raise ValueError("x")

    module = types.SimpleNamespace(boom=boom)
    t = Tracer()
    t.wrap(module, "boom", "pe.boom")
    with pytest.raises(ValueError):
        module.boom()
    t.restore()
    assert t.spans[0][2] >= t.spans[0][1]
    assert t._stack() == []


def test_layer_hooks_resolve():
    t = Tracer()
    t.wrap_layers()
    try:
        assert len(t._patched) > 0
    finally:
        t.restore()


def test_every_layer_of_the_system_has_a_hook():
    hooked = {name.split(".", 1)[0] for *_, name in LAYER_HOOKS}
    # serve spans are recorded around client requests; bench is the op
    assert hooked == set(LAYERS) - {"serve", "bench"}


def test_functions_are_wrapped_where_callers_imported_them():
    import repro.rtcg.system as system
    from repro.lang import parser

    original = parser.parse_program
    assert system.parse_program is original
    t = Tracer()
    t.wrap_layers()
    try:
        assert system.parse_program is parser.parse_program is not original
        system.parse_program("(define (f x) x)", goal="f")
    finally:
        t.restore()
    assert system.parse_program is parser.parse_program is original
    assert [s[0] for s in t.spans] == ["lang.parse"]
