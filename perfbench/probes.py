"""Per-layer probes for the traced run.

Each probe times one layer's public entry point from outside, on the
workload's own programs and static inputs (its *cases*).  Set-up probes
are summed over the workload's distinct programs; per-case probes are
averaged over its cases.  Every residual run here is checked against the
oracle like an op.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from perfbench import measure
from perfbench.programs import Program

# Superinstruction plans are capped like the CLI's default.
MAX_FUSED = 8
L1_HIT_REPEATS = 5


@dataclass(frozen=True)
class Case:
    """One static input of a workload, with dynamic inputs and answers."""

    kind: str
    program: Program
    static: str                 # datum text of the static argument
    dynamics: list[str]         # datum texts, one residual run each
    expected: list[str]


def provenance(stats: dict) -> str:
    """Which tier served a residual, read the way the server reads it."""
    if stats.get("cache_hit"):
        return "l1"
    if stats.get("l3_hit"):
        return "l3"
    if stats.get("disk_hit"):
        return "l2"
    return "miss"


def residual_instructions(residual: Any) -> int:
    """Instructions in a residual's templates, nested templates included."""
    from repro.vm.machine import VmClosure

    return sum(
        v.template.instruction_count()
        for v in residual.machine.globals.values()
        if isinstance(v, VmClosure)
    )


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    value = fn()
    return value, (time.perf_counter() - t0) * 1e3


def datum(text: str) -> Any:
    """A static or dynamic input, from its datum text."""
    from repro.runtime.values import datum_to_value
    from repro.sexp import read

    return datum_to_value(read(text))


def setup_probes(programs: list[Program]) -> dict[str, float]:
    """Front end and analyses, summed over the workload's programs."""
    from repro.analysis import analyze_bta
    from repro.lang import parse_program
    from repro.pe import analyze, verify_annotated

    out: dict[str, float] = defaultdict(float)
    for prog in programs:
        parsed, ms = _timed(lambda: parse_program(prog.source, goal=prog.goal))
        out["lang.parse_ms"] += ms
        bta, ms = _timed(lambda: analyze(parsed, prog.signature))
        out["pe.bta_ms"] += ms
        out["pe.bta.variants"] += len(bta.variants)
        _, ms = _timed(lambda: verify_annotated(bta.annotated, bta.variants))
        out["pe.check.congruence_ms"] += ms
        _, ms = _timed(lambda: analyze_bta(bta))
        out["analysis.safety_ms"] += ms
    return dict(out)


class CaseProbes:
    """Per-case probes; each adds one sample per metric per case."""

    def __init__(self, tally: measure.Tally, workdir: str):
        self.tally = tally
        self.workdir = workdir
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._exts: dict[Program, Any] = {}

    def ext(self, prog: Program) -> Any:
        if prog not in self._exts:
            from repro.rtcg import make_generating_extension

            self._exts[prog] = make_generating_extension(
                prog.source, prog.signature, goal=prog.goal
            )
        return self._exts[prog]

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def check(self, machine: Any, case: Case, goal: Any) -> list[float]:
        """Run every dynamic input, check it, return run times (ms)."""
        from repro.lang.prims import write_value

        times = []
        for text, expected in zip(case.dynamics, case.expected):
            args = [datum(text)]
            value, ms = _timed(lambda: machine.call_named(goal, args))
            self.tally.check(write_value(value), expected, f"probe {case.kind}")
            times.append(ms)
        return times

    def run(self, case: Case, remote: Any) -> None:
        from repro.compiler import ObjectCodeBackend, compile_program
        from repro.image import (
            ImageStore, decode_residual, encode_residual, store_key,
            verify_residual,
        )
        from repro.lang import parse_program, unparse_program
        from repro.lang.gensym import Gensym
        from repro.pe import SourceBackend, Specializer
        from repro.pe.values import freeze_static
        from repro.rtcg import program_digest
        from repro.sexp.writer import write
        from repro.vm import (
            VMProfile, call_named_profiled, fuse_machine,
            select_superinstructions, verify_templates,
        )
        from repro.vm.opt import clear_memo, optimize_template

        ext = self.ext(case.program)
        static = datum(case.static)
        annotated = ext.bta.annotated

        frozen, ms = _timed(lambda: freeze_static(static))
        self.add("pe.values.freeze_ms", ms)

        ext.to_object_code([static])
        hits = [_timed(lambda: ext.to_object_code([static]))[1]
                for _ in range(L1_HIT_REPEATS)]
        self.add("rtcg.l1_hit_ms", measure.p50(hits))

        def specialize(backend: Any) -> Any:
            return Specializer(
                annotated, backend, name_gensym=Gensym("f")
            ).run([static])

        src, src_ms = _timed(lambda: specialize(SourceBackend()))
        plain = ObjectCodeBackend(verify=False, optimize=False)
        _, obj_ms = _timed(lambda: specialize(plain))
        self.add("pe.specialize_src_ms", src_ms)
        self.add("pe.specialize_obj_ms", obj_ms)

        compiled = ext.compiled()
        _, ms = _timed(lambda: compiled.generate(
            [static], backend=ObjectCodeBackend(verify=False, optimize=False)
        ))
        self.add("pe.cogen.generate_obj_ms", ms)

        templates = list(plain.templates.values())
        _, ms = _timed(lambda: verify_templates(templates))
        self.add("vm.verify_ms", ms)
        # The optimizer's content memo already holds these templates (the
        # workload generated them); empty it so the optimizer runs.
        clear_memo()
        optimized, ms = _timed(
            lambda: [optimize_template(t, assume_verified=True) for t in templates]
        )
        self.add("vm.opt_ms", ms)
        self.add("vm.opt.instrs_before", sum(t.instruction_count() for t in templates))
        self.add("vm.opt.instrs_after", sum(t.instruction_count() for t in optimized))

        def two_pass() -> Any:
            text = "\n".join(write(d) for d in unparse_program(src.program))
            return compile_program(
                parse_program(text, goal=src.goal.name), compiler="anf"
            )

        _, load_ms = _timed(two_pass)
        self.add("compiler.twopass_load_ms", load_ms)
        residual, direct_ms = _timed(
            lambda: ext.to_object_code([static], use_cache=False)
        )
        _, source_ms = _timed(lambda: ext.to_source([static], use_cache=False))
        self.add("fig7.direct_ms", direct_ms)
        self.add("fig7.twopass_ms", source_ms + load_ms)

        machine, goal = residual.machine, residual.goal
        self.add("vm.run_ms", measure.mean(self.check(machine, case, goal)))
        profile = VMProfile()
        for text in case.dynamics:
            call_named_profiled(machine, goal, [datum(text)], profile)
        base = sum(profile.opcode_counts.values()) / len(case.dynamics)
        self.add("vm.dispatches", base)
        plan = select_superinstructions(profile, max_fused=MAX_FUSED)
        fused = fuse_machine(machine, plan, validate=True)
        fused_profile = VMProfile()
        for text in case.dynamics:
            call_named_profiled(fused, goal, [datum(text)], fused_profile)
        self.add(
            "vm.superinst.dispatch_ratio",
            sum(fused_profile.opcode_counts.values()) / len(case.dynamics) / base,
        )
        self.add("vm.superinst.run_ms", measure.mean(self.check(fused, case, goal)))

        data, ms = _timed(lambda: encode_residual(residual))
        self.add("image.encode_ms", ms)
        self.add("image.bytes", len(data))
        decoded, ms = _timed(lambda: decode_residual(data))
        self.add("image.decode_ms", ms)
        _, ms = _timed(lambda: verify_residual(decoded))
        self.add("image.verify_on_load_ms", ms)

        key = store_key(
            program_digest(ext.program, case.program.signature),
            (frozen,), "duplicate", "object",
        )
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        try:
            store = ImageStore(store_dir)
            digest, ms = _timed(lambda: store.put(key, residual))
            self.add("image.store.put_ms", ms)
            loaded, ms = _timed(lambda: store.get(key, verify=True))
            self.add("image.store.get_ms", ms)
            if loaded is None or digest is None:
                self.tally.fail(f"probe {case.kind}: image store round trip missed")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

        digest = hashlib.sha256(data).hexdigest()
        _, ms = _timed(lambda: remote.push(digest, data, key=key.digest))
        self.add("image.remote.push_ms", ms)
        got, ms = _timed(lambda: remote.fetch(key=key.digest))
        self.add("image.remote.fetch_ms", ms)
        if got is None or got[1] != data:
            self.tally.fail(f"probe {case.kind}: remote round trip lost the image")

    def metrics(self) -> dict[str, float]:
        out = {name: measure.mean(values) for name, values in self.samples.items()}
        src, obj = out["pe.specialize_src_ms"], out["pe.specialize_obj_ms"]
        direct, twopass = out.pop("fig7.direct_ms"), out.pop("fig7.twopass_ms")
        out.update({
            "compiler.emit_share": (obj - src) / obj,
            "fig6.obj_over_src": obj / src,
            "fig7.direct_over_twopass": direct / twopass,
        })
        out["vm.ns_per_dispatch"] = out["vm.run_ms"] * 1e6 / out["vm.dispatches"]
        return out


def case_probes(
    cases: list[Case], tally: measure.Tally, workdir: str,
    remote_endpoint: tuple[str, int],
) -> dict[str, float]:
    from repro.image import RemoteStoreClient

    probes = CaseProbes(tally, workdir)
    remote = RemoteStoreClient(*remote_endpoint)
    try:
        for case in cases:
            probes.run(case, remote)
    finally:
        remote.close()
    return probes.metrics()


@dataclass
class Request:
    """One served request, as the client saw it."""

    provenance: str
    rtt_ms: float
    elapsed_ms: float
    traced: bool


@dataclass
class ServiceLatencies:
    """Specialize requests from one client: their checked values, their
    latencies by provenance, and the residual digest served per static
    input."""

    tally: measure.Tally
    requests: list[Request] = field(default_factory=list)
    fingerprints: dict[str, tuple[Case, str]] = field(default_factory=dict)

    def ask(
        self, client: Any, case: Case, index: int, tenant: str,
        tracer: Any = None, op_id: int = -1,
    ) -> dict | None:
        """Send one request and check its value.  With a tracer the
        request is one traced op, and the server's own time is recorded
        as a span centred in the round trip (the rest is transport)."""
        from repro.serve import ServiceError
        from repro.serve.protocol import FrameError

        prog = case.program
        traced = tracer is not None
        try:
            with tracer.op(op_id) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                with tracer.span("serve.request") if traced else contextlib.nullcontext():
                    response = client.specialize(
                        prog.source, prog.signature, [case.static],
                        goal=prog.goal, dynamics=[case.dynamics[index]],
                        tenant=tenant,
                    )
                    t1 = time.perf_counter()
                    if traced:
                        server_s = response["elapsed_ms"] / 1e3
                        gap = max(0.0, (t1 - t0) - server_s) / 2
                        tracer.record("serve.server", t0 + gap, t0 + gap + server_s)
        except (ServiceError, OSError, FrameError) as exc:
            self.tally.fail(f"{case.kind}: {type(exc).__name__}: {exc}")
            return None
        if not self.tally.check(
            str(response.get("value")), case.expected[index], f"serve {case.kind}"
        ):
            return None
        self.requests.append(Request(
            response["provenance"], (t1 - t0) * 1e3, response["elapsed_ms"], traced,
        ))
        self.fingerprints.setdefault(
            case.static, (case, response["fingerprint_digest"])
        )
        return response

    def metrics(self) -> dict[str, float]:
        out = {
            "serve.server_ms": measure.p50([r.elapsed_ms for r in self.requests]),
            "serve.transport_ms": measure.p50(
                [r.rtt_ms - r.elapsed_ms for r in self.requests]
            ),
        }
        for tier in ("l1", "l2", "l3"):
            out[f"serve.{tier}_ms"] = measure.p50(
                [r.rtt_ms for r in self.requests if r.provenance == tier]
            )
        return out


TENANT = "bench"


def service_probe(
    cases: list[Case], tally: measure.Tally, workdir: str,
    remote_endpoint: tuple[str, int],
) -> dict[str, float]:
    """Serve the cases through in-process servers sharing one L3: a cold
    replica (miss, then L1 hits), a replica with an empty L2 (L3 first
    touches) and a restart of that replica (L2 hits)."""
    from repro.serve import SpecializationClient, SpecializationServer

    lat = ServiceLatencies(tally)
    endpoint = "%s:%d" % remote_endpoint
    l2_a = tempfile.mkdtemp(prefix="l2-", dir=workdir)
    l2_b = tempfile.mkdtemp(prefix="l2-", dir=workdir)
    try:
        for store, repeats in ((l2_a, 3), (l2_b, 1), (l2_b, 1)):
            server = SpecializationServer(
                store_dir=store, remote_store=endpoint, trusted=[TENANT]
            ).start()
            try:
                with SpecializationClient(server.host, server.port) as client:
                    for case in cases:
                        for _ in range(repeats):
                            lat.ask(client, case, 0, TENANT)
            finally:
                server.stop()
    finally:
        shutil.rmtree(l2_a, ignore_errors=True)
        shutil.rmtree(l2_b, ignore_errors=True)
    return lat.metrics()
