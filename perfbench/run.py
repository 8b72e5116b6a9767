"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mixwell-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``perfbench/metrics.py``).  A human-readable table and the run
metadata go to stderr; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload, each in a fresh process.

Run from a checkout of the repository: the benchmark imports the system
from ``src/`` and keeps its scratch files under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no system to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import metrics

    if args.workload == "all":
        return run_all(args)
    known = metrics.WORKLOADS + metrics.EXTRA_WORKLOADS
    if args.workload not in known:
        print(
            f"error: unknown workload {args.workload!r}"
            f" (one of: {', '.join(known)}, all)",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocesses and temporary
    # stores are torn down by the finally blocks below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    SCRATCH.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    try:
        from perfbench.workload import run_workload

        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = metrics.per_layer_units() if args.trace else metrics.end_to_end_units()
    missing = sorted(set(wanted) - set(outcome.metrics))
    extra = sorted(set(outcome.metrics) - set(wanted))
    if missing or extra:
        print(f"error: metrics missing {missing}, unexpected {extra}", file=sys.stderr)
        return 1
    report(args.workload, outcome)
    print(json.dumps(outcome.result()))
    return 0


def report(workload: str, outcome) -> None:
    """The human-readable table and metadata, on stderr."""
    tally = outcome.tally
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"# {workload}", file=sys.stderr)
    print(f"{'metric':32} {'value':>14} {'unit':>6} {'samples':>8}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        n = outcome.samples.get(name, "")
        print(f"{name:32} {value:14.4f} {unit:>6} {n!s:>8}", file=sys.stderr)
    print(
        f"{'fail_ratio':32} {ratio:14.4f} {'ratio':>6} {tally.attempted:>8}",
        file=sys.stderr,
    )
    for example in tally.examples:
        print(f"  failure: {example}", file=sys.stderr)
    print("# meta " + json.dumps(outcome.meta, sort_keys=True), file=sys.stderr)


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; a combined result line."""
    from perfbench import metrics

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in metrics.WORKLOADS + metrics.EXTRA_WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
