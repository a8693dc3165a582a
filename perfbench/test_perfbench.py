"""Self-tests of the benchmark at toy sizes (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import skewbench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def quick_setup(monkeypatch):
    monkeypatch.setattr(skewbench, "SETUP_SECONDS", 0.0)


def toy(name: str) -> skewbench.Workload:
    # A domain of 100 keeps a few triangles in 300 tuples per relation.
    return replace(skewbench.WORKLOADS[name], m=300, domain=100, instances=1)


def declared(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_what_the_code_measures():
    assert [w["name"] for w in SPEC["workloads"]] == list(skewbench.WORKLOADS)
    assert declared("end_to_end") == skewbench.END_TO_END
    assert declared("per_layer") == skewbench.per_layer_units()


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", list(skewbench.WORKLOADS))
def test_workload_runs_and_emits_every_metric(name, trace):
    report = skewbench.run(toy(name), seed=0, seconds=0.01, trace=trace)
    result = report.to_json()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_answer_set_is_a_failed_operation(monkeypatch):
    engine_run = skewbench.run_one_round

    def drop_one_answer(*args, **kwargs):
        result = engine_run(*args, **kwargs)
        return replace(result, answers=frozenset(list(result.answers)[1:]))

    monkeypatch.setattr(skewbench, "run_one_round", drop_one_answer)
    report = skewbench.run(toy("triangle-answers"), seed=0, seconds=0.01,
                           trace=False)
    assert report.failed == report.attempted == 4
    assert report.to_json()["correct"] is False


def test_traced_walk_that_differs_from_the_engine_is_a_failure(monkeypatch):
    monkeypatch.setattr(skewbench, "local_join",
                        lambda *args: frozenset())
    report = skewbench.run(toy("triangle-answers"), seed=0, seconds=0.01,
                           trace=True)
    assert report.failed == 4   # every walk's answers differ from the engine
    assert report.to_json()["correct"] is False


def test_without_the_program_source_it_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew-load",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
