"""The ``serve-fleet`` workload: a warm-cache service replica under load.

Set-up starts an L3 object server (``python -m repro image serve-store``)
and a first ``python -m repro serve`` replica, publishes the key universe
to L3 through it, stops it, and starts the measured replica with an empty
local L2 over the same L3.  The measured phase is a closed loop of
:data:`~perfbench.inputs.FLEET_CLIENTS` connections with no think time.
Every subprocess and temporary store is torn down when the run ends,
failed or not.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import os
import queue
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from perfbench import inputs, measure, programs
from perfbench.probes import (
    TENANT, Case, Request, ServiceLatencies, datum, residual_instructions,
)
from perfbench.tracing import Tracer

SETUP_REPEATS = 3
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0
DETERMINISM_SAMPLE = 4
_ENDPOINT = re.compile(r" on (\S+):(\d+)\s*$")


class Service:
    """A ``python -m repro`` subprocess that announces its endpoint on
    stderr; stderr is drained for the process's whole life."""

    def __init__(self, args: list[str]):
        env = dict(os.environ)
        src = str(programs.ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            cwd=programs.ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.log: collections.deque[str] = collections.deque(maxlen=50)
        lines: queue.Queue[str | None] = queue.Queue()
        self._drain = threading.Thread(
            target=self._read, args=(lines,), daemon=True
        )
        self._drain.start()
        self.host, self.port = self._endpoint(lines)

    def _read(self, lines: queue.Queue) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            lines.put(line)
        lines.put(None)

    def _endpoint(self, lines: queue.Queue) -> tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    "service did not announce an endpoint: "
                    + " | ".join(self.log)
                )
            found = _ENDPOINT.search(line)
            if found:
                return found.group(1), int(found.group(2))

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """SIGTERM (the services drain and shut down cleanly on it),
        then SIGKILL if it does not exit; always reaped."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._drain.join(timeout=STOP_TIMEOUT)


def serve_args(store: str, remote: str) -> list[str]:
    return [
        "serve", "--port", "0", "--store", store, "--remote-store", remote,
        "--trust", TENANT,
    ]


@functools.lru_cache(maxsize=None)
def key_case(key: inputs.FleetKey) -> Case:
    dyn, expected = zip(*key.cases)
    return Case(
        key.kind, programs.program(key.kind),
        programs.static_text(key.kind, key.static),
        list(dyn), list(expected),
    )


@dataclass
class Deployment:
    """One set-up: the L3 object server and the measured replica."""

    stack: contextlib.ExitStack
    l3: Service | None = None
    server: Service | None = None
    published_dir: str = ""     # the publishing replica's L2

    def close(self) -> None:
        self.stack.close()


def deploy(workdir: str, keys: list[inputs.FleetKey], tally: measure.Tally) -> Deployment:
    """Start L3, publish the key universe through a first replica, stop
    it, and start the measured replica on an empty L2."""
    from repro.image import RemoteStoreClient
    from repro.serve import SpecializationClient
    from repro.serve.client import wait_for_server

    root = tempfile.mkdtemp(prefix="fleet-", dir=workdir)
    stack = contextlib.ExitStack()
    stack.callback(shutil.rmtree, root, True)
    dep = Deployment(stack)
    try:
        l3 = dep.l3 = Service([
            "image", "serve-store", "--store", str(Path(root, "l3")),
            "--port", "0",
        ])
        stack.callback(l3.stop)
        dep.published_dir = str(Path(root, "l2-publisher"))
        replica = Service(serve_args(dep.published_dir, l3.endpoint))
        try:
            wait_for_server(replica.host, replica.port, timeout=START_TIMEOUT)
            lat = ServiceLatencies(tally)
            with SpecializationClient(replica.host, replica.port) as client:
                for key in keys:
                    lat.ask(client, key_case(key), 0, TENANT)
        finally:
            replica.stop()
        remote = RemoteStoreClient(l3.host, l3.port)
        try:
            objects, _ = remote.inventory()
        finally:
            remote.close()
        if len(objects) < len(keys):
            raise RuntimeError(
                f"L3 holds {len(objects)} images after publishing {len(keys)}"
            )
        server = dep.server = Service(serve_args(str(Path(root, "l2")), l3.endpoint))
        stack.callback(server.stop)
        wait_for_server(server.host, server.port, timeout=START_TIMEOUT)
    except BaseException:
        stack.close()
        raise
    return dep


class Fleet:
    def __init__(self, seed: int, tally: measure.Tally, workdir: str):
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.keys = inputs.fleet_keys(seed)
        # One request stream per client, kept across loops.
        self.streams = [
            inputs.fleet_requests(seed, self.keys, c)
            for c in range(inputs.FLEET_CLIENTS)
        ]
        self.setup_seconds: list[float] = []
        self.dep: Deployment | None = None
        self.logs: list[ServiceLatencies] = []

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            if self.dep is not None:
                self.dep.close()
                self.dep = None
            t0 = time.perf_counter()
            self.dep = deploy(self.workdir, self.keys, self.tally)
            self.setup_seconds.append(time.perf_counter() - t0)

    def close(self) -> None:
        if self.dep is not None:
            self.dep.close()
            self.dep = None

    def _client(
        self, deadline: float, stream: Iterator[tuple[inputs.FleetKey, int]],
        log: ServiceLatencies, crashes: list[BaseException],
        tracer: Tracer | None, op_ids: Iterator[int],
    ) -> None:
        """One closed-loop connection.  With a tracer, every other request
        is traced, so traced and untraced requests see the same traffic
        and their difference is the tracing overhead."""
        from repro.serve import SpecializationClient

        assert self.dep is not None and self.dep.server is not None
        server = self.dep.server
        try:
            with SpecializationClient(server.host, server.port) as client:
                while time.perf_counter() < deadline:
                    key, index = next(stream)
                    op_id = next(op_ids)
                    traced = tracer is not None and op_id % 2 == 1
                    log.ask(
                        client, key_case(key), index, TENANT,
                        tracer if traced else None, op_id,
                    )
        except BaseException as exc:  # re-raised by loop() in the main thread
            crashes.append(exc)

    def loop(self, seconds: float, tracer: Tracer | None = None) -> float:
        """Run the closed loop; returns its wall-clock seconds."""
        logs = [ServiceLatencies(measure.Tally()) for _ in range(inputs.FLEET_CLIENTS)]
        crashes: list[BaseException] = []
        op_ids = itertools.count()  # shared by the clients; next() is atomic
        deadline = time.perf_counter() + seconds
        t0 = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client,
                args=(deadline, self.streams[c], log, crashes, tracer, op_ids),
                daemon=True,
            )
            for c, log in enumerate(logs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        if crashes:
            raise crashes[0]
        self.logs.extend(logs)
        for log in logs:
            self.tally.attempted += log.tally.attempted
            self.tally.failed += log.tally.failed
            self.tally.examples.extend(log.tally.examples[:2])
        return wall

    def requests(self) -> list[Request]:
        return [r for log in self.logs for r in log.requests]

    def server_stats(self) -> dict[str, Any]:
        from repro.serve import SpecializationClient

        assert self.dep is not None and self.dep.server is not None
        with SpecializationClient(self.dep.server.host, self.dep.server.port) as c:
            return c.stats()

    def server_rss_mb(self) -> float:
        assert self.dep is not None and self.dep.server is not None
        return measure.peak_rss_mb_of(self.dep.server.proc.pid)

    def stop_server(self) -> None:
        assert self.dep is not None and self.dep.server is not None
        self.dep.server.stop()

    def residual_instrs(self) -> tuple[float, int]:
        """Mean instructions per residual of the key universe, read from
        the publishing replica's L2, which holds exactly those residuals:
        a fixed set for a seed, however many requests the run completes."""
        from repro.image import ImageStore

        assert self.dep is not None
        counts = []
        for shard in sorted(Path(self.dep.published_dir).iterdir()):
            if not shard.is_dir():
                continue
            store = ImageStore(shard)
            for entry in store.ls():
                if "object" in entry and "error" not in entry:
                    residual = store.load(entry["object"], verify=False)
                    counts.append(residual_instructions(residual))
        return measure.mean(counts), len(counts)

    def check_determinism(self) -> int:
        """Regenerate a seeded sample of served keys in this process,
        without the cache; the code must match the server's digest."""
        from repro.image.codec import fingerprint_digest
        from repro.rtcg import make_generating_extension

        served: dict[str, tuple[Case, str]] = {}
        for log in self.logs:
            for static, entry in log.fingerprints.items():
                served.setdefault(static, entry)
        entries = sorted(served.values(), key=lambda e: (e[0].kind, e[0].static))
        rng = random.Random(f"serve-fleet/sample/{self.seed}")
        sample = [
            rng.choice([e for e in entries if e[0].kind == kind])
            for kind in sorted({e[0].kind for e in entries})
        ]
        sample += rng.sample(
            entries, min(len(entries), DETERMINISM_SAMPLE - len(sample))
        )
        exts: dict[str, Any] = {}
        for case, digest in sample:
            if case.kind not in exts:
                prog = case.program
                exts[case.kind] = make_generating_extension(
                    prog.source, prog.signature, goal=prog.goal
                )
            again = exts[case.kind].to_object_code([datum(case.static)], use_cache=False)
            if fingerprint_digest(again) != digest:
                self.tally.fail(f"{case.kind}: regenerated residual differs from served")
        return len(sample)

    def probe_cases(self) -> list[Case]:
        """One published key of each program, for the per-layer probes."""
        rng = random.Random(f"serve-fleet/probe/{self.seed}")
        return [
            key_case(rng.choice([k for k in self.keys if k.kind == kind]))
            for kind in ("matcher", "mixwell", "lazy")
        ]

