"""Code vectors hold plain-int opcodes, end to end.

``Op`` names opcodes and keys the instruction table; every producer of
code vectors (assembler, optimizer, codec, superinstruction fuse/lower)
stores plain ints, and every dispatch loop compares against int
literals.  Two properties rest on that: an ``int == int`` arm test is
several times cheaper than loading an ``Op`` member, and instruction
tuples holding only ints are untracked by the cyclic GC.  The dispatch
counts pin that the change of representation retires exactly the same
instructions.
"""

import gc

import pytest

from repro.image.codec import decode_residual, encode_residual
from repro.rtcg import make_generating_extension
from repro.runtime.values import datum_to_value
from repro.vm import VMProfile, VmClosure, call_named_profiled
from repro.vm.dispatch import FUSED_BASE
from repro.vm.superinst import (
    fuse_machine,
    lower_template,
    select_superinstructions,
)
from repro.vm.template import Template
from repro.workloads import (
    LAZY_SIGNATURE,
    MIXWELL_SIGNATURE,
    lazy_interpreter,
    lazy_primes_program,
    mixwell_interpreter,
    mixwell_tm_program,
)

# Counting-loop dispatches on the §7 hot inputs (MIXWELL on the tape
# 101101, LAZY primes at n=4), base machine and fused machine (8
# superinstructions selected from the base profile).
PINNED_DISPATCHES = {
    "mixwell": (8355, 4037),
    "lazy": (113599, 64187),
}


@pytest.fixture(scope="module", params=["mixwell", "lazy"])
def workload(request):
    if request.param == "mixwell":
        gen = make_generating_extension(mixwell_interpreter(), MIXWELL_SIGNATURE)
        static = mixwell_tm_program()
        dynamics = [datum_to_value([1, 0, 1, 1, 0, 1])]
    else:
        gen = make_generating_extension(lazy_interpreter(), LAZY_SIGNATURE)
        static = lazy_primes_program()
        dynamics = [4]
    return request.param, gen, static, dynamics


def _templates(machine):
    """Every template reachable from a machine's global closures."""
    seen: dict[int, Template] = {}
    stack = [v.template for v in machine.globals.values() if isinstance(v, VmClosure)]
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen[id(t)] = t
        stack.extend(lit for lit in t.literals if isinstance(lit, Template))
    return list(seen.values())


def _instructions(machine):
    return [instr for t in _templates(machine) for instr in t.code]


def _machines(gen, static, dynamics):
    fresh = gen.to_object_code([static], optimize=False, use_cache=False)
    optimized = gen.to_object_code([static])
    decoded = decode_residual(encode_residual(optimized))
    profile = VMProfile()
    optimized.run_profiled(dynamics, profile)
    plan = select_superinstructions(profile, max_fused=8)
    fused = fuse_machine(optimized.machine, plan, validate=True)
    lowered = type(fused)(
        {
            name: VmClosure(lower_template(v.template), v.env)
            if isinstance(v, VmClosure) else v
            for name, v in fused.globals.items()
        }
    )
    return {
        "fresh": fresh.machine,
        "optimized": optimized.machine,
        "decoded": decoded.machine,
        "fused": fused,
        "lowered": lowered,
    }


class TestRepresentation:
    def test_every_opcode_is_a_plain_int(self, workload):
        _name, gen, static, dynamics = workload
        for stage, machine in _machines(gen, static, dynamics).items():
            instrs = _instructions(machine)
            assert instrs, stage
            bad = {type(i[0]).__name__ for i in instrs if type(i[0]) is not int}
            assert not bad, f"{stage}: opcode types {bad}"

    def test_fusion_only_adds_fused_opcodes(self, workload):
        _name, gen, static, dynamics = workload
        machines = _machines(gen, static, dynamics)
        assert any(i[0] >= FUSED_BASE for i in _instructions(machines["fused"]))
        for stage in ("fresh", "optimized", "decoded", "lowered"):
            assert all(i[0] < FUSED_BASE for i in _instructions(machines[stage]))

    def test_instructions_are_untracked_by_the_cyclic_gc(self, workload):
        _name, gen, static, dynamics = workload
        machines = _machines(gen, static, dynamics)
        gc.collect()
        for stage, machine in machines.items():
            tracked = [i for i in _instructions(machine) if gc.is_tracked(i)]
            assert not tracked, f"{stage}: {len(tracked)} tracked, e.g. {tracked[0]}"


class TestDispatchCounts:
    def test_counting_loop_dispatches_are_pinned(self, workload):
        name, gen, static, dynamics = workload
        residual = gen.to_object_code([static])
        profile = VMProfile()
        residual.run_profiled(dynamics, profile)
        plan = select_superinstructions(profile, max_fused=8)
        fused = fuse_machine(residual.machine, plan, validate=True)
        fused_profile = VMProfile()
        call_named_profiled(fused, residual.goal, list(dynamics), fused_profile)
        assert (
            sum(profile.opcode_counts.values()),
            sum(fused_profile.opcode_counts.values()),
        ) == PINNED_DISPATCHES[name]

    def test_profile_keys_are_plain_ints(self, workload):
        _name, gen, static, dynamics = workload
        profile = VMProfile()
        gen.to_object_code([static]).run_profiled(dynamics, profile)
        assert all(type(op) is int for op in profile.opcode_counts)
        for seq in list(profile.pair_counts) + list(profile.triple_counts):
            assert all(type(op) is int for op in seq)


class TestContentDigest:
    # The digest text keeps the form it had when code vectors held ``Op``
    # members, so profile attribution keys are stable across the change.
    PINNED = "801205fe60358cad328362845bc432788de6b4f5097b201e8bf9af58934cfe76"

    def _template(self, code):
        return Template(code=code, literals=(1,), arity=1, nlocals=1, name="t")

    def test_digest_is_pinned(self):
        code = ((2, 0), (5,), (1, 0), (FUSED_BASE, 0, 0), (13,))
        assert self._template(code).content_digest() == self.PINNED

    def test_op_members_digest_like_plain_ints(self):
        from repro.vm.instructions import Op

        code = (
            (Op.LOCAL, 0), (Op.PUSH,), (Op.CONST, 0), (FUSED_BASE, 0, 0),
            (Op.RETURN,),
        )
        assert self._template(code).content_digest() == self.PINNED
