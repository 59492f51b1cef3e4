"""Smoke test of the benchmark at tiny scale.

    python -m pytest perfbench/smoke.py -q

Every workload runs untraced and traced with `--scale tiny`. The result line
must carry exactly the metrics BENCHMARK.json names, with their units; spans
must nest, with self times between zero and the span's own duration. The
file is not named test_*.py, so the repository's own test run skips it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def bench(args: list[str], root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=root, timeout=600)


def test_spec_names_units_and_directions():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names))
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert NAME.fullmatch(metric["name"]), metric
            assert UNIT.fullmatch(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower"), metric
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload: str, trace: int, tmp_path: Path):
    out = bench(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--scale", "tiny", "--workdir", str(tmp_path)])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(spec)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == spec[name]["unit"], name
        assert isinstance(metric["value"], (int, float)), name
        assert metric["value"] > 0 or trace, name
    if not trace:
        return
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["zeroshot.passes_per_doc.detect_gpt"] == 11
    assert metrics["zeroshot.passes_per_doc.single_revise"] == 2
    if workload != "desk":  # no classifier section: those layers must stay idle
        idle = [n for n in metrics if n.startswith(("embeddings.", "classifiers."))]
        assert idle and all(metrics[n] == 0 for n in idle)
    files = list((tmp_path / workload / "traces").glob("*.json"))
    assert files
    for path in files:
        spans = tracing.load(path)["spans"]
        for (name, start, end, parent, _), own in zip(spans, tracing.self_times(spans)):
            assert 0 <= own <= end - start, name
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                assert p_start <= start <= end <= p_end, name


def test_fails_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                root=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
