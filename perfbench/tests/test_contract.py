"""BENCHMARK.json, the metric catalogue and the entry point agree."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import metrics

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    b = benchmark()
    assert set(b) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert b["command"] == ["python3", "perfbench/run.py"]
    assert b["paths"] == ["perfbench"]
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    for w in b["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in b["end_to_end"] + b["per_layer"]] + [
        w["name"] for w in b["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)


def test_benchmark_json_matches_the_catalogue():
    b = benchmark()
    assert tuple(w["name"] for w in b["workloads"]) == metrics.WORKLOADS
    assert [tuple(m.values()) for m in b["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in b["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    setup = [m for m in metrics.END_TO_END if m.name == "setup_s"][0]
    assert setup.unit == "s" and setup.better == "lower"
    assert setup.bound == max(m.bound for m in metrics.END_TO_END) <= 0.25


def test_every_per_layer_metric_names_what_it_moves():
    e2e = {m.name for m in metrics.END_TO_END}
    for m in metrics.PER_LAYER:
        assert m.moves == "" or m.moves in e2e, m
        assert all(w in metrics.WORKLOADS + metrics.EXTRA_WORKLOADS + ("all",) for w in m.on.split()), m


def test_fails_without_the_system(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lazy-run",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
