"""Smoke test for the repo benchmark (marked ``perf``; not in tier-1).

Runs ``run.py --smoke`` (op counts / 20, one pass, traced pass included,
correctness gate on, no bounds) and checks that every metric named in
``BENCHMARK.json`` is printed with its unit for every workload, and that a
driver run prints exactly the contract's result line.
"""

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.perf

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
RUN = [sys.executable, os.path.join(SUITE_DIR, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)
ENV = {key: value for key, value in os.environ.items() if key != "REPRO_TRACE"}


def test_smoke_prints_every_metric_with_its_unit(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        RUN + ["--smoke", "--out", str(out)], env=ENV,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout
    report = json.loads(out.read_text())
    assert list(report["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, data in report["workloads"].items():
        for metric in SPEC["end_to_end"]:
            assert data["end_to_end"][metric["name"]]["unit"] == metric["unit"]
            assert data["end_to_end"][metric["name"]]["median"] > 0, (name, metric)
        assert sorted(data["per_layer"]) == sorted(m["name"] for m in SPEC["per_layer"])
    # the text the command prints names each metric beside its unit
    sections = done.stdout.split("\n== ")[1:]
    assert len(sections) == len(SPEC["workloads"])
    layer_columns = (".self_us_per_txn", ".calls_per_txn")  # shown as table columns
    for section in sections:
        lines = section.splitlines()
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            if metric["name"].endswith(layer_columns):
                continue
            assert any(
                line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                for line in lines
            ), (lines[0], metric["name"])
        assert "self us/txn" in section and "calls/txn" in section


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_run_prints_the_contract_line(trace, group):
    done = subprocess.run(
        RUN + ["--workload", "ledger_actor", "--seed", "5", "--seconds", "1",
               "--trace", str(trace)],
        env=ENV, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[group]]
    units = {m["name"]: m["unit"] for m in SPEC[group]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
