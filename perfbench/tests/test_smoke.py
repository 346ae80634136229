"""Smoke mode of the benchmark: every workload once on tiny inputs.

    python3 -m pytest perfbench/tests -q

Checks that each run prints the result schema the manifest promises, with
exactly the metric names and units of ``BENCHMARK.json``, and that the
benchmark refuses to run where the package is missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import ab  # noqa: E402


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in MANIFEST["workloads"]])
def test_smoke_run_prints_the_promised_schema(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    promised = MANIFEST["per_layer"] if trace else MANIFEST["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in promised]
    for m in promised:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:  # end-to-end metrics are never 0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_code_and_manifest_agree():
    from run import END_TO_END
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    names = [w["name"] for w in MANIFEST["workloads"]]
    assert names == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in MANIFEST["per_layer"]} == LAYER_METRICS
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


def test_hooks_resolve_and_are_removed():
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    from tracing import HOOKS, Tracer, hooked

    originals = [getattr(importlib.import_module(m), a) for m, a, *_ in HOOKS]
    with hooked(Tracer()) as missing:
        assert missing == []
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a, *_), fn in zip(HOOKS, originals))
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a, *_), fn in zip(HOOKS, originals))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run(tmp_path, "--workload", "series-compare", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_ab_verdicts():
    parent = {s: 1.0 + 0.01 * (s % 3) for s in range(10)}
    faster = {s: 0.8 + 0.01 * (s % 3) for s in range(10)}
    slower = {s: 1.3 + 0.01 * (s % 3) for s in range(10)}
    noisy = {s: 1.0 + 0.5 * (s % 2) for s in range(10)}
    assert ab.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert ab.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert ab.verdict(parent, dict(parent), "lower", 0.1)[0] == "unchanged"
    assert ab.verdict(noisy, dict(parent), "lower", 0.1)[0] == "unresolved"
    assert ab.verdict(parent, faster, "higher", 0.1)[0] == "regressed"
    few = {s: v for s, v in faster.items() if s < 5}
    assert ab.verdict(parent, few, "lower", 0.1)[0] == "unresolved"
