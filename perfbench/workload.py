"""Drive one workload: set-up, warm-up, the measured phase, and — on a
traced run — the traced phase and the per-layer probes."""

from __future__ import annotations

import os
import time
from typing import Any

from perfbench import fleet, inproc, inputs, measure, programs, tracing
from perfbench.probes import (
    Request, ServiceLatencies, case_probes, service_probe, setup_probes,
)

PROBE_CASES = {"mixwell-cold": 3, "lazy-run": 1}
PROVENANCES = ("l1", "l2", "l3", "miss")


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> measure.Outcome:
    if name == "serve-fleet":
        outcome = run_fleet(seed, seconds, trace, workdir)
    else:
        outcome = run_inprocess(name, seed, seconds, trace, workdir)
    outcome.meta.update(measure.run_metadata(seed))
    outcome.meta["opt_memo"] = _opt_memo_state()
    outcome.meta["traced"] = trace
    return outcome


def _opt_memo_state() -> str:
    from repro.vm import opt

    entries = len(getattr(opt, "_memo", ()))
    return (
        "the process-wide vm.opt content memo starts empty in every timed"
        " set-up (each runs in a fresh process) and is then kept warm for the"
        " measured ops, as in a long-running process; only the vm.opt_ms probe"
        f" empties it first ({entries} entries in this process at the end)"
    )


def _shares(counts: dict[str, int]) -> dict[str, tuple[float, str]]:
    total = sum(counts.values()) or 1
    return {
        f"serve.share.{p}": (counts.get(p, 0) / total, "share")
        for p in PROVENANCES
    }


def _trace_metrics(
    tracer: tracing.Tracer, untraced_ms: list[float], traced_ms: list[float]
) -> dict[str, tuple[float, str]]:
    op_total = tracer.total("bench.op")
    self_times = tracer.self_times()
    out = {
        "trace.op_p50_ms": (measure.p50(traced_ms), "ms"),
        "trace.overhead_ms": (measure.p50(traced_ms) - measure.p50(untraced_ms), "ms"),
        "trace.gen_share": (tracer.total("rtcg.to_object_code") / op_total, "share"),
        "trace.run_share": (tracer.total("vm.run") / op_total, "share"),
    }
    for layer in tracing.LAYERS:
        out[f"layer.{layer}.self_share"] = (
            self_times.get(layer, 0.0) / op_total, "share"
        )
    return out


def _with_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    from perfbench.metrics import per_layer_units

    units = per_layer_units()
    return {name: (value, units[name]) for name, value in values.items()}


def _dump(tracer: tracing.Tracer, name: str, seed: int) -> str:
    path = os.path.join(str(programs.ROOT / ".perfbench"), f"trace-{name}-{seed}.json")
    tracer.dump(path)
    return path


def run_inprocess(
    name: str, seed: int, seconds: float, trace: bool, workdir: str
) -> measure.Outcome:
    from repro.image import ObjectServer

    tally = measure.Tally()
    w = inproc.WORKLOADS[name](seed, tally)
    w.setup()
    warmup = w.warmup_ops()
    w.loop(0.0, None, count=warmup)
    meta: dict[str, Any] = {
        "warmup_ops": warmup,
        "l1_capacity": w.ext.cache.maxsize,
        "setup_repeats": inproc.SETUP_REPEATS,
    }
    if not trace:
        records = inproc.Records()
        w.loop(seconds, records)
        outcome = w.end_to_end(records)
        outcome.meta.update(meta)
        return outcome

    # Traced and untraced ops alternate, so both see the same inputs
    # over the same stretch of time and their difference is the tracing
    # overhead.
    untraced, traced = inproc.Records(), inproc.Records()
    tracer = tracing.Tracer()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        w.loop(0.0, untraced, count=1)
        tracer.wrap_layers()
        try:
            w.loop(0.0, traced, tracer, count=1)
        finally:
            tracer.restore()
    if not untraced.op or not traced.op:
        raise RuntimeError(f"{name}: no op completed")
    w.check_determinism(traced)
    counts = dict(untraced.provenance)
    for p, n in traced.provenance.items():
        counts[p] = counts.get(p, 0) + n
    values = _trace_metrics(
        tracer, [s * 1e3 for s in untraced.op], [s * 1e3 for s in traced.op]
    )
    values.update(_shares(counts))
    values["serve.specializer_runs"] = (
        w.ext.cache_stats()["specializer_runs"], "count"
    )
    cases = w.probe_cases(PROBE_CASES[name])
    with ObjectServer(os.path.join(workdir, "l3")) as l3:
        endpoint = (l3.host, l3.port)
        probed = setup_probes([programs.program(w.program_kind)])
        probed.update(case_probes(cases, tally, workdir, endpoint))
        probed.update(service_probe(cases, tally, workdir, endpoint))
    values.update(_with_units(probed))
    meta.update({
        "provenance": counts,
        "probe_cases": len(cases),
        "trace_file": _dump(tracer, name, seed),
        "spans": len(tracer.spans),
    })
    return measure.Outcome(tally, values, {}, meta)


def run_fleet(
    seed: int, seconds: float, trace: bool, workdir: str
) -> measure.Outcome:
    tally = measure.Tally()
    f = fleet.Fleet(seed, tally, workdir)
    tracer = tracing.Tracer() if trace else None
    try:
        f.setup()
        wall = f.loop(seconds, tracer)
        stats = f.server_stats()
        rss = f.server_rss_mb()
        f.stop_server()
        instrs, distinct = f.residual_instrs()
        determinism = f.check_determinism()
        requests = f.requests()
        counts = {p: 0 for p in PROVENANCES}
        for r in requests:
            counts[r.provenance] = counts.get(r.provenance, 0) + 1
        specializer_runs = sum(
            ext["cache"]["specializer_runs"]
            for tenant in stats["tenants"].values()
            for ext in tenant["extensions"]
        )
        meta: dict[str, Any] = {
            "clients": inputs.FLEET_CLIENTS,
            "warmup_ops": 0,
            "setup_repeats": fleet.SETUP_REPEATS,
            "l1_capacity": stats["quota"]["max_cached_residuals"],
            "provenance": counts,
            "published_residuals": distinct,
            "determinism_sample": determinism,
            "specializer_runs": specializer_runs,
        }
        if tracer is None:
            outcome = _fleet_end_to_end(f, requests, wall, rss, instrs)
            outcome.samples["residual_instrs"] = distinct
            outcome.meta.update(meta)
            return outcome
        assert f.dep is not None and f.dep.l3 is not None
        endpoint = (f.dep.l3.host, f.dep.l3.port)
        values = _trace_metrics(
            tracer,
            [r.rtt_ms for r in requests if not r.traced],
            [r.rtt_ms for r in requests if r.traced],
        )
        values.update(_shares(counts))
        values["serve.specializer_runs"] = (specializer_runs, "count")
        probed = setup_probes([programs.program(k) for k in ("matcher", "mixwell", "lazy")])
        probed.update(case_probes(f.probe_cases(), tally, workdir, endpoint))
        probed.update(ServiceLatencies(tally, requests).metrics())
        values.update(_with_units(probed))
        meta["trace_file"] = _dump(tracer, "serve-fleet", seed)
        meta["spans"] = len(tracer.spans)
        return measure.Outcome(tally, values, {}, meta)
    finally:
        f.close()


def _fleet_end_to_end(
    f: fleet.Fleet, requests: list[Request], wall: float, rss: float,
    instrs: float,
) -> measure.Outcome:
    if not requests:
        raise RuntimeError("serve-fleet: no request completed")
    rtt = [r.rtt_ms for r in requests]
    misses = [r.rtt_ms for r in requests if r.provenance == "miss"]
    # The server's elapsed_ms stops before the residual runs, so the run
    # is only visible from the client: an L1-served request is a lookup
    # plus the residual run, end to end.
    l1 = [r.rtt_ms for r in requests if r.provenance == "l1"]
    op_tail, pct = measure.tail(rtt)
    metrics = {
        "setup_s": (measure.p50(f.setup_seconds), "s"),
        "ops_per_s": (len(requests) / wall, "1/s"),
        "op_p50_ms": (measure.p50(rtt), "ms"),
        "op_tail_ms": (op_tail, "ms"),
        "gen_p50_ms": (measure.p50(misses), "ms"),
        "run_p50_ms": (measure.p50(l1), "ms"),
        "residual_instrs": (instrs, "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    samples = {
        "setup_s": len(f.setup_seconds), "ops_per_s": len(requests),
        "op_p50_ms": len(rtt), "op_tail_ms": len(rtt),
        "gen_p50_ms": len(misses), "run_p50_ms": len(l1),
        "residual_instrs": 0, "peak_rss_mb": 1,
    }
    meta = {"tail_percentile": {"op_tail_ms": round(pct, 3)}}
    return measure.Outcome(f.tally, metrics, samples, meta)
