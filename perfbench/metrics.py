"""The metric catalogue: every metric the benchmark reports, its unit,
which direction is better, and — for per-layer metrics — the end-to-end
metric it should move and the workload it should move it on.

``BENCHMARK.json`` at the repository root lists the same metrics; the
benchmark's tests keep the two in step.
"""

from __future__ import annotations

from typing import NamedTuple

from perfbench.tracing import LAYERS

# The workloads BENCHMARK.json lists.  ``serve-fleet`` runs on request
# (``--workload serve-fleet``) but is not one of them: its client, server
# and object-server processes share the host's two vCPUs, and in two sets
# of ten 25 s runs its five gated timings spread past their 25% bounds.
# The serve and image layers are still timed on the listed workloads, by
# the traced run's probes.
WORKLOADS = ("mixwell-cold", "lazy-run")
EXTRA_WORKLOADS = ("serve-fleet",)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str     # the end-to-end metric it should move ("" = none yet)
    on: str        # the workload(s) it should move it on


# Bounds: on the host this was tuned on (2 shared vCPUs) one fixed
# pure-Python loop took from 0.22 to 0.37 s within half an hour, and
# MIXWELL generation went from ~150 to ~350 ms per op within an hour.
# Every timing gets the largest bound allowed; counts and memory are
# steadier and get tighter ones.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25),
    EndToEnd("op_tail_ms", "ms", "lower", 0.25),
    EndToEnd("gen_p50_ms", "ms", "lower", 0.25),
    EndToEnd("run_p50_ms", "ms", "lower", 0.25),
    EndToEnd("residual_instrs", "count", "lower", 0.05),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.1),
)

_ALL = "all"
_GEN = "gen_p50_ms"
_SETUP = "setup_s"

PER_LAYER = (
    # set-up: front end and analyses, summed over the workload's programs
    PerLayer("lang.parse_ms", "ms", "lower", _SETUP, _ALL),
    PerLayer("pe.bta_ms", "ms", "lower", _SETUP, _ALL),
    PerLayer("pe.bta.variants", "count", "lower", _SETUP, _ALL),
    PerLayer("pe.check.congruence_ms", "ms", "lower", _SETUP, _ALL),
    PerLayer("analysis.safety_ms", "ms", "lower", _SETUP, _ALL),
    # per case: generation
    PerLayer("pe.values.freeze_ms", "ms", "lower", "op_p50_ms",
             "lazy-run serve-fleet"),
    PerLayer("rtcg.l1_hit_ms", "ms", "lower", "op_p50_ms", "lazy-run"),
    PerLayer("pe.specialize_src_ms", "ms", "lower", _GEN, "mixwell-cold"),
    PerLayer("pe.specialize_obj_ms", "ms", "lower", _GEN, "mixwell-cold"),
    PerLayer("compiler.emit_share", "share", "lower", _GEN, "mixwell-cold"),
    PerLayer("pe.cogen.generate_obj_ms", "ms", "lower", "", "mixwell-cold"),
    PerLayer("vm.verify_ms", "ms", "lower", _GEN, "mixwell-cold"),
    PerLayer("vm.opt_ms", "ms", "lower", _GEN, "mixwell-cold"),
    PerLayer("vm.opt.instrs_before", "count", "lower", "residual_instrs",
             "mixwell-cold"),
    PerLayer("vm.opt.instrs_after", "count", "lower", "residual_instrs",
             "mixwell-cold"),
    PerLayer("compiler.twopass_load_ms", "ms", "lower", _GEN, "mixwell-cold"),
    PerLayer("fig6.obj_over_src", "ratio", "lower", _GEN, "mixwell-cold"),
    PerLayer("fig7.direct_over_twopass", "ratio", "lower", _GEN, "mixwell-cold"),
    # per case: residual execution
    PerLayer("vm.run_ms", "ms", "lower", "run_p50_ms", "lazy-run"),
    PerLayer("vm.dispatches", "count", "lower", "run_p50_ms", "lazy-run"),
    PerLayer("vm.ns_per_dispatch", "ns", "lower", "run_p50_ms", "lazy-run"),
    PerLayer("vm.superinst.dispatch_ratio", "ratio", "lower", "", "lazy-run"),
    PerLayer("vm.superinst.run_ms", "ms", "lower", "", "lazy-run"),
    # per case: images, L2 and L3
    PerLayer("image.encode_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("image.decode_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("image.bytes", "B", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("image.verify_on_load_ms", "ms", "lower", "op_p50_ms",
             "serve-fleet"),
    PerLayer("image.store.put_ms", "ms", "lower", _GEN, "serve-fleet"),
    PerLayer("image.store.get_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("image.remote.fetch_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("image.remote.push_ms", "ms", "lower", _GEN, "serve-fleet"),
    # the service: client latency by the tier that served the request
    PerLayer("serve.server_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("serve.transport_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("serve.l1_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("serve.l2_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    PerLayer("serve.l3_ms", "ms", "lower", "op_p50_ms", "serve-fleet"),
    # which tier served each op, and how often the specializer ran
    PerLayer("serve.share.l1", "share", "higher", "ops_per_s", "serve-fleet"),
    PerLayer("serve.share.l2", "share", "higher", "ops_per_s", "serve-fleet"),
    PerLayer("serve.share.l3", "share", "higher", "ops_per_s", "serve-fleet"),
    PerLayer("serve.share.miss", "share", "lower", "ops_per_s", "serve-fleet"),
    PerLayer("serve.specializer_runs", "count", "lower", "ops_per_s",
             "serve-fleet"),
    # the traced op loop
    PerLayer("trace.op_p50_ms", "ms", "lower", "op_p50_ms", _ALL),
    PerLayer("trace.overhead_ms", "ms", "lower", "", _ALL),
    PerLayer("trace.gen_share", "share", "lower", _GEN, "mixwell-cold"),
    PerLayer("trace.run_share", "share", "lower", "run_p50_ms", "lazy-run"),
) + tuple(
    PerLayer(f"layer.{layer}.self_share", "share", "lower", "op_p50_ms", _ALL)
    for layer in LAYERS
)


def end_to_end_units() -> dict[str, str]:
    return {m.name: m.unit for m in END_TO_END}


def per_layer_units() -> dict[str, str]:
    return {m.name: m.unit for m in PER_LAYER}
