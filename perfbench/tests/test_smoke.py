"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Each test runs the benchmark with ``--smoke`` (tiny streams), so the whole
file finishes in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import spec  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_spec():
    assert (ROOT / "BENCHMARK.json").read_text(encoding="utf-8") == spec.render()


def test_smoke_prints_every_metric_and_checks_isolation():
    proc = _run("--smoke")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = _last_json(proc.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    metrics = out["metrics"]
    for workload in spec.WORKLOADS:
        for name, unit, *_ in spec.END_TO_END + spec.PER_LAYER:
            entry = metrics[f"{workload}/{name}"]
            assert entry["unit"] == unit
            assert f"{workload}/{name} " in proc.stdout
        for name, *_ in spec.END_TO_END:
            assert metrics[f"{workload}/{name}"]["value"] > 0, (workload, name)
    # tensor-highrank bypasses the affine Weyl group and the KL table entirely
    for name, *_ in spec.PER_LAYER:
        if name.startswith(("klpoly.", "affine.")):
            assert metrics[f"tensor-highrank/{name}"]["value"] == 0, name
    assert metrics["extmult-cold/klpoly.kl.computed"]["value"] > 0
    assert metrics["extmult-warm/klpoly.load.records"]["value"] > 0


def test_single_run_prints_exactly_the_contract_keys():
    for trace, names in (("0", spec.END_TO_END), ("1", spec.PER_LAYER)):
        proc = _run("--workload", "tensor-highrank", "--seed", "5", "--seconds", "1",
                    "--trace", trace, "--smoke")
        assert proc.returncode == 0, proc.stderr[-3000:]
        out = _last_json(proc.stdout)
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        assert set(out["metrics"]) == {name for name, *_ in names}


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "extmult-cold", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
