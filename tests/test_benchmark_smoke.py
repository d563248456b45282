"""The benchmark's library calls, run at smoke scale.

``perfbench/run.py --smoke`` runs every workload on tiny streams in fresh
interpreters, through the same library calls as a full run (for example
``multiplicity_table(...).as_dict()`` and ``KLTable.load``), and checks
every answer.  A library change that breaks one of those calls fails here.
The metric values are asserted by ``perfbench/tests``, not here.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True and out["failed"] == 0, out
