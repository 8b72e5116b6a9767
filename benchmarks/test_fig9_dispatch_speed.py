"""Figure 9 (ours): dynamic dispatch speed of superinstruction residuals.

The paper's evaluation stops at generation and compilation speed; this
table extends it one step into *run* speed.  PR 6's dataflow optimizer
shrank the residual programs statically; the profile-guided
superinstruction pass (:mod:`repro.vm.superinst`) attacks the dynamic
cost that remains: every fused pair/triple retires one/two fewer
dispatches.  Benchmarked per workload, on the §7 hot inputs:

* **dispatches retired** — instruction counts from the counting loop,
  base machine vs fused machine; the headline assertion is a >= 15%
  reduction;
* **wall-clock** — best-of-N of the production loops; the fused machine
  must be no slower than the base machine;
* **trust** — every fused template passes translation validation
  (round-trip lowering + base-ISA re-verification) before any fused
  code runs, and both machines agree on the workload's answer.
"""

import time

import pytest

from repro.lang.prims import write_value
from repro.runtime.values import datum_to_value
from repro.vm import VMProfile, VmClosure, call_named_profiled
from repro.vm.superinst import (
    fuse_machine,
    lower_template,
    select_superinstructions,
    structurally_equal,
    validate_fusion,
)

MIN_DISPATCH_REDUCTION = 0.15
# Generous noise ceiling: the fused loop must not be slower.  With
# int-literal dispatch arms it is only ~0-7% faster on these workloads
# (a fused dispatch saves the loop overhead, not handler work), so the
# gate is close to the noise of a busy host.
MAX_WALLCLOCK_RATIO = 1.10
ROUNDS = 5


def _best_of(fn, rounds=ROUNDS):
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="module", params=["mixwell", "lazy"])
def workload(request, mixwell_gen, lazy_gen, mixwell_static, lazy_static):
    if request.param == "mixwell":
        gen, static = mixwell_gen, mixwell_static
        dynamics = [datum_to_value([1, 0, 1, 1, 0, 1])]
    else:
        gen, static = lazy_gen, lazy_static
        dynamics = [4]
    base = gen.to_object_code([static])
    base_profile = VMProfile()
    base_value = base.run_profiled(dynamics, base_profile)
    plan = select_superinstructions(base_profile, max_fused=8)
    sites: dict[str, int] = {}
    # validate=True: translation validation for every fused template
    # happens here, before any fused code runs.
    fused = fuse_machine(base.machine, plan, validate=True, stats=sites)
    return {
        "name": request.param,
        "base": base,
        "dynamics": dynamics,
        "base_profile": base_profile,
        "base_value": base_value,
        "plan": plan,
        "sites": sites,
        "fused": fused,
    }


class TestFig9DispatchSpeed:
    def test_plan_is_nonempty_and_fused(self, workload):
        assert workload["plan"]
        assert sum(workload["sites"].values()) > 0

    def test_dispatch_reduction_at_least_15_percent(self, workload):
        base_dispatches = sum(
            workload["base_profile"].opcode_counts.values()
        )
        fused_profile = VMProfile()
        value = call_named_profiled(
            workload["fused"], workload["base"].goal,
            list(workload["dynamics"]), fused_profile,
        )
        assert write_value(value) == write_value(workload["base_value"])
        fused_dispatches = sum(fused_profile.opcode_counts.values())
        reduction = (base_dispatches - fused_dispatches) / base_dispatches
        assert reduction >= MIN_DISPATCH_REDUCTION, (
            f"{workload['name']}: only {reduction:.1%} fewer dispatches"
            f" ({base_dispatches} -> {fused_dispatches})"
        )

    def test_wallclock_not_slower_than_baseline(self, workload):
        base, fused = workload["base"], workload["fused"]
        goal, dynamics = base.goal, workload["dynamics"]
        t_base = _best_of(lambda: base.machine.call_named(goal, list(dynamics)))
        t_fused = _best_of(lambda: fused.call_named(goal, list(dynamics)))
        assert t_fused <= t_base * MAX_WALLCLOCK_RATIO, (
            f"{workload['name']}: fused loop slower than base"
            f" ({t_fused * 1e3:.2f}ms vs {t_base * 1e3:.2f}ms)"
        )

    def test_every_fused_template_passes_translation_validation(
        self, workload
    ):
        base, fused = workload["base"], workload["fused"]
        checked = 0
        for name, value in fused.globals.items():
            if not isinstance(value, VmClosure):
                continue
            original = base.machine.globals[name].template
            validate_fusion(
                original, value.template, closed_count=len(value.env)
            )
            assert structurally_equal(
                lower_template(value.template), original
            )
            checked += 1
        assert checked > 0

    def test_differential_agreement_on_production_loops(self, workload):
        base, fused = workload["base"], workload["fused"]
        goal, dynamics = base.goal, workload["dynamics"]
        assert write_value(
            fused.call_named(goal, list(dynamics))
        ) == write_value(base.machine.call_named(goal, list(dynamics)))
