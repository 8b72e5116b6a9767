"""The traced run's span recorder.

Spans are timed from outside the program: :meth:`Tracer.wrap` replaces a
public function or method of a layer with a wrapper that opens a span
around the original call, and :meth:`Tracer.restore` puts the originals
back.  A module-level function is replaced in its own module and in every
loaded ``repro`` module that imported it by name, so a call reaches the
wrapper however the caller imported it.  Spans stay in memory (name,
start, end, parent, op id) until :meth:`Tracer.dump` writes them out at
the end of the run.  A span's layer is its name up to the first dot; a
layer's self time is its spans' durations minus the parts their child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Iterator

# (module, class or None, attribute, span name): the public entry points
# of every layer that an op in this process can reach.  The lang, analysis
# and image hooks see no calls on today's in-process ops (their work is in
# set-up, or in the server on serve-fleet), so their layers' shares are 0
# until an op starts to pass through them.
LAYER_HOOKS = (
    ("repro.rtcg.system", "GeneratingExtension", "to_object_code",
     "rtcg.to_object_code"),
    ("repro.pe.residual_cache", "ResidualCache", "get_or_generate", "rtcg.l1"),
    ("repro.rtcg.system", None, "freeze_static", "pe.values.freeze"),
    ("repro.pe.specializer", "Specializer", "run", "pe.specialize"),
    ("repro.compiler.fusion", "ObjectCodeBackend", "define", "compiler.define"),
    ("repro.compiler.fusion", None, "assemble", "vm.assemble"),
    ("repro.compiler.fusion", None, "verify_template", "vm.verify"),
    ("repro.compiler.fusion", None, "optimize_template", "vm.opt"),
    ("repro.vm.machine", "Machine", "call_named", "vm.run"),
    ("repro.lang.parser", None, "parse_program", "lang.parse"),
    ("repro.lang.unparse", None, "unparse_program", "lang.unparse"),
    ("repro.analysis", None, "analyze_bta", "analysis.bta"),
    ("repro.analysis", None, "analyze_program", "analysis.program"),
    ("repro.image.codec", None, "encode_residual", "image.encode"),
    ("repro.image.codec", None, "decode_residual", "image.decode"),
    ("repro.image.store", None, "verify_residual", "image.verify"),
    ("repro.image.store", "ImageStore", "get", "image.l2.get"),
    ("repro.image.store", "ImageStore", "put", "image.l2.put"),
    ("repro.image.remote", "RemoteStoreClient", "fetch", "image.l3.fetch"),
    ("repro.image.remote", "RemoteStoreClient", "push", "image.l3.push"),
)

LAYERS = (
    "lang", "pe", "analysis", "compiler", "vm", "rtcg", "image", "serve", "bench",
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, op id or -1)
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, start: float) -> int:
        stack = self._stack()
        with self._lock:
            self.spans.append((
                name, start, start,
                stack[-1] if stack else -1,
                getattr(self._local, "op", -1),
            ))
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int, end: float) -> None:
        self._stack().pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, end, parent, op)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(index, time.perf_counter())

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one op; spans opened inside carry its id."""
        self._local.op = op_id
        try:
            with self.span("bench.op"):
                yield
        finally:
            self._local.op = -1

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured elsewhere (e.g. a server's ``elapsed_ms``),
        nested under the currently open span."""
        self._close(self._open(name, start), end)

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr``; a module-level function is replaced
        wherever a loaded ``repro`` module binds it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        owners = [owner]
        if not isinstance(owner, type):
            owners += [
                m for key, m in list(sys.modules.items())
                if key.split(".", 1)[0] == "repro" and m is not owner
                and getattr(m, attr, None) is original
            ]
        for o in owners:
            setattr(o, attr, traced)
            self._patched.append((o, attr, original))

    def wrap_layers(self, hooks=LAYER_HOOKS) -> None:
        for module, cls, attr, name in hooks:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            self.wrap(owner, attr, name)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds spent in spans called ``name`` (outermost ones only)."""
        return sum(
            end - start for n, start, end, parent, _ in self.spans
            if n == name and (parent < 0 or self.spans[parent][0] != name)
        )

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, over every recorded span."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name.split(".", 1)[0]] += (end - start) - child
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                },
                f,
            )
