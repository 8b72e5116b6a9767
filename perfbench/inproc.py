"""The in-process workloads: ``mixwell-cold`` and ``lazy-run``.

Both drive one default :class:`~repro.rtcg.GeneratingExtension` (no
store) from this process.  An op is one ``to_object_code`` followed by
residual runs; the op's time is the generation plus the runs, while
preparing inputs and checking outputs happen outside it.

Set-up is timed in fresh interpreters (see :func:`cold_setup_seconds`),
so each timed set-up imports the system and fills the process-wide
``vm.opt`` content memo from empty, as a new process does.
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from perfbench import inputs, measure, oracle, programs
from perfbench.probes import Case, datum, provenance, residual_instructions
from perfbench.tracing import Tracer

SETUP_REPEATS = 5
SETUP_TIMEOUT = 120.0
WARMUP_OPS = 2
DETERMINISM_SAMPLE = 3

# Run in a fresh interpreter: time one set-up from before the system's
# first import to a ready extension, and print it in seconds.
_COLD_SETUP = """\
import sys, time
from perfbench import inproc, measure
w = inproc.WORKLOADS[sys.argv[1]](0, measure.Tally())
t0 = time.perf_counter()
w.setup_once()
print(time.perf_counter() - t0)
"""


def cold_setup_seconds(name: str) -> float:
    """One set-up of workload ``name`` in a new interpreter."""
    env = dict(os.environ)
    paths = [str(programs.ROOT / "src"), str(programs.ROOT), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_SETUP, name],
        cwd=programs.ROOT, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=SETUP_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: set-up failed: {proc.stderr[-2000:]}")
    return float(proc.stdout.split()[-1])


@dataclass
class Item:
    """One op's prepared input."""

    key: str                   # identity of the static input
    static: Any
    dynamics: list[Any]
    expected: list[str]
    case: Case


@dataclass
class Records:
    op: list[float] = field(default_factory=list)
    gen: list[float] = field(default_factory=list)
    run: list[float] = field(default_factory=list)
    provenance: dict[str, int] = field(default_factory=dict)
    instrs: dict[str, int] = field(default_factory=dict)
    fingerprints: dict[str, tuple[Item, str]] = field(default_factory=dict)


class InProcessWorkload:
    """Set-up, the op loop, and the end-to-end metrics of one workload."""

    name = ""
    program_kind = ""

    def __init__(self, seed: int, tally: measure.Tally):
        self.seed = seed
        self.tally = tally
        self.items = self.item_stream()
        self.ext: Any = None
        self.setup_seconds: list[float] = []
        self._sample_rng = random.Random(f"{self.name}/sample/{seed}")
        self._op_ids = itertools.count()

    # -- per-workload parts ------------------------------------------------------

    def item_stream(self) -> Iterator[Item]:
        raise NotImplementedError

    def setup_once(self) -> Any:
        from repro.rtcg import make_generating_extension

        prog = programs.program(self.program_kind)
        return make_generating_extension(
            prog.source, prog.signature, goal=prog.goal
        )

    # -- the shared machinery ------------------------------------------------------

    def warmup_ops(self) -> int:
        """Ops run before timing starts."""
        return WARMUP_OPS

    def setup(self) -> None:
        """Time :data:`SETUP_REPEATS` cold set-ups, then set up the
        extension the ops use in this process."""
        for _ in range(SETUP_REPEATS):
            self.setup_seconds.append(cold_setup_seconds(self.name))
        self.ext = self.setup_once()

    def op(self, item: Item) -> tuple[Any, float, list[float], list[Any]]:
        t0 = time.perf_counter()
        residual = self.ext.to_object_code([item.static])
        t1 = time.perf_counter()
        runs, values = [], []
        for args in item.dynamics:
            ta = time.perf_counter()
            values.append(residual.run([args]))
            runs.append(time.perf_counter() - ta)
        return residual, t1 - t0, runs, values

    def loop(
        self,
        seconds: float,
        records: Records | None,
        tracer: Tracer | None = None,
        count: int | None = None,
    ) -> None:
        """Run ops until ``seconds`` pass (or ``count`` ops); time them
        into ``records`` unless it is ``None`` (warm-up)."""
        from repro.image.codec import fingerprint_digest
        from repro.lang.prims import write_value

        deadline = time.perf_counter() + seconds
        for i in itertools.count():
            if (count is not None and i >= count) or (
                count is None and time.perf_counter() >= deadline
            ):
                return
            item = next(self.items)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.op(next(self._op_ids)):
                        residual, gen, runs, values = self.op(item)
                else:
                    residual, gen, runs, values = self.op(item)
            except Exception as exc:  # any failure of the system is a failed op
                self.tally.fail(f"{item.key[:40]}: {type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - t0
            ok = all(
                self.tally.check(write_value(v), e, item.key[:40])
                for v, e in zip(values, item.expected)
            )
            if records is None or not ok:
                continue
            records.op.append(elapsed)
            records.gen.append(gen)
            # Every run is a sample: on mixwell-cold a run's time is set by
            # its machine and tape, and the median of all runs moved less
            # with the seed's draw of ~90 machines (7% quartile spread,
            # by resampling measured runs) than the median of per-op
            # means (14%) or their mean (10%).
            records.run.extend(runs)
            prov = provenance(residual.stats)
            records.provenance[prov] = records.provenance.get(prov, 0) + 1
            if item.key not in records.instrs:
                records.instrs[item.key] = residual_instructions(residual)
            if (
                len(records.fingerprints) < DETERMINISM_SAMPLE
                and item.key not in records.fingerprints
                and self._sample_rng.random() < 0.25
            ):
                records.fingerprints[item.key] = (item, fingerprint_digest(residual))

    def check_determinism(self, records: Records) -> None:
        """Regenerate sampled residuals without the cache; the code must
        be byte-identical to what the op got."""
        from repro.image.codec import fingerprint_digest

        for key, (item, digest) in records.fingerprints.items():
            again = self.ext.to_object_code([item.static], use_cache=False)
            if fingerprint_digest(again) != digest:
                self.tally.fail(f"{key[:40]}: regenerated residual differs")

    def end_to_end(self, records: Records) -> measure.Outcome:
        if not records.op:
            raise RuntimeError(f"{self.name}: no op completed")
        self.check_determinism(records)
        op_ms = [s * 1e3 for s in records.op]
        op_tail, op_tail_pct = measure.tail(op_ms)
        metrics = {
            "setup_s": (measure.p50(self.setup_seconds), "s"),
            "ops_per_s": (len(records.op) / sum(records.op), "1/s"),
            "op_p50_ms": (measure.p50(op_ms), "ms"),
            "op_tail_ms": (op_tail, "ms"),
            "gen_p50_ms": (measure.p50([s * 1e3 for s in records.gen]), "ms"),
            "run_p50_ms": (measure.p50([s * 1e3 for s in records.run]), "ms"),
            "residual_instrs": (measure.mean(list(records.instrs.values())), "count"),
            "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        }
        samples = {
            "setup_s": len(self.setup_seconds),
            "ops_per_s": len(records.op),
            "op_p50_ms": len(op_ms),
            "op_tail_ms": len(op_ms),
            "gen_p50_ms": len(records.gen),
            "run_p50_ms": len(records.run),
            "residual_instrs": len(records.instrs),
            "peak_rss_mb": 1,
        }
        meta = {
            "tail_percentile": {"op_tail_ms": round(op_tail_pct, 3)},
            "provenance": dict(records.provenance),
            "determinism_sample": len(records.fingerprints),
            "specializer_runs": self.ext.cache_stats()["specializer_runs"],
        }
        return measure.Outcome(self.tally, metrics, samples, meta)

    def probe_cases(self, n: int) -> list[Case]:
        return [next(self.items).case for _ in range(n)]


class MixwellCold(InProcessWorkload):
    """Distinct random Turing machines, each generated once (L1 misses)."""

    name = "mixwell-cold"
    program_kind = "mixwell"

    def warmup_ops(self) -> int:
        # Every op adds a residual to L1 until it holds its capacity, and
        # generation slows as those residuals fill the heap (~190 to ~300 ms
        # over the first 128 ops on a 2-vCPU VM).  Timing starts at the
        # steady state of a long-running process: L1 full, one eviction
        # per op.
        return max(WARMUP_OPS, self.ext.cache.maxsize)

    def item_stream(self) -> Iterator[Item]:
        prog = programs.program("mixwell")
        for tm in inputs.tm_stream(self.seed):
            text = programs.tm_program_text(tm.rules_text())
            tapes = tm.tape_texts()
            yield Item(
                key=tm.rules_text(),
                static=datum(text),
                dynamics=[datum(t) for t in tapes],
                expected=list(tm.expected),
                case=Case("mixwell", prog, text, tapes, list(tm.expected)),
            )


class LazyRun(InProcessWorkload):
    """The LAZY primes program, generated once in set-up (L1 hits)."""

    name = "lazy-run"
    program_kind = "lazy"

    def setup_once(self) -> Any:
        ext = super().setup_once()
        ext.to_object_code([datum(programs.static_text("lazy", ""))])
        return ext

    def item_stream(self) -> Iterator[Item]:
        prog = programs.program("lazy")
        text = programs.static_text("lazy", "")
        static = datum(text)
        for n in inputs.lazy_schedule(self.seed):
            expected = [oracle.primes_output(n)]
            yield Item(
                key="primes",
                static=static,
                dynamics=[n],
                expected=expected,
                case=Case("lazy", prog, text, [str(n)], expected),
            )


WORKLOADS: dict[str, Callable[[int, measure.Tally], InProcessWorkload]] = {
    MixwellCold.name: MixwellCold,
    LazyRun.name: LazyRun,
}
