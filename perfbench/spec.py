"""Workloads and metrics of the goodfilt benchmark.

This module is the single source of the names, units and bounds that
``BENCHMARK.json`` lists.  Regenerate that file after editing here:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Why each workload exists: every optimisation should have one workload that
# exercises its mechanism and one that bypasses it.
WORKLOADS = {
    "extmult-cold": (
        "first session: multiplicity_table stream on an empty KL table (A2, B2 "
        "at p=7, all variants) in order of growing KL window, ending with "
        "KLTable.save; KL recursion and affine arithmetic dominate"
    ),
    "extmult-warm": (
        "returning session: set-up loads a KL cache built from a disjoint seed, "
        "then a fresh stream runs; KL recursion is idle, load and orbit "
        "enumeration dominate"
    ),
    "tensor-highrank": (
        "tensor_nabla_multiplicities pairs over A4-G2 under a cap on "
        "dim(a)*dim(b); characters does all the work, affine and klpoly none"
    ),
}

# (name, unit, better, bound).  bound: share of the parent's median by which
# the metric may worsen before a change counts as a regression.  The spread
# (quartile distance over median) of each metric over ten seeds, the largest
# seen on any workload (README.md): 0.04 for queries_per_s and
# cpu_ms_per_query, 0.081 for query_p50_ms, 0.102 for query_tail_ms.  0.25
# is the largest bound allowed; setup_s keeps it.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.15),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_query", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# (name, unit, better).  Reported by the traced run only; stats cover the
# worker from the end of its imports to the end of its timed phase.
PER_LAYER = [
    ("klpoly.kl.calls", "count", "lower"),
    ("klpoly.kl.self_s", "s", "lower"),
    ("klpoly.kl.computed", "count", "lower"),
    ("klpoly.kl.hit_ratio", "ratio", "higher"),
    ("klpoly.load.s", "s", "lower"),
    ("klpoly.load.records", "count", "higher"),
    ("klpoly.save.s", "s", "lower"),
    ("klpoly.save.bytes", "bytes", "lower"),
    ("klpoly.memo_entries", "count", "lower"),
    ("affine.multiply.calls", "count", "lower"),
    ("affine.bruhat_leq.calls", "count", "lower"),
    ("affine.bruhat_leq.self_s", "s", "lower"),
    ("affine.lower_ideal.self_s", "s", "lower"),
    ("affine.locate.calls", "count", "lower"),
    ("affine.locate.self_s", "s", "lower"),
    ("affine.elements_up_to_length.calls", "count", "lower"),
    ("affine.elements_up_to_length.self_s", "s", "lower"),
    ("affine.from_word.self_s", "s", "lower"),
    ("affine.memo_entries", "count", "lower"),
    ("characters.tensor_nabla_multiplicities.calls", "count", "lower"),
    ("characters.tensor_nabla_multiplicities.self_s", "s", "lower"),
    ("characters.dominant_multiplicities.calls", "count", "lower"),
    ("characters.dominant_multiplicities.self_s", "s", "lower"),
    ("roots.dominant_conjugate.calls", "count", "lower"),
    ("characters.cache_entries", "count", "lower"),
    ("extmult.multiplicity_table.self_s", "s", "lower"),
    ("extmult.big_C.self_s", "s", "lower"),
    ("extmult.small_c.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    target.write_text(render(), encoding="utf-8")
    print(f"wrote {target}")
