"""The goodfilt benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the root of a checkout.  For each workload the run generates its
inputs from the seed (untimed), then runs timed repetitions, each in a fresh
interpreter on its own stream, until ``--seconds`` of repetitions have
elapsed.  Every result is checked.  One line per metric (name, value, unit)
goes to standard output, and the last line is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Without ``--trace`` both runs are made; without ``--workload`` every
workload runs.  The exit code is 0 only when every result was correct.

``--smoke`` shrinks every stream so the whole benchmark finishes in seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

DEFAULT_SEED = 0
MIN_REPS = 3
MAX_REPS = 40  # streams generated per run; also caps repetitions
WORKER_TIMEOUT_S = 120
LAST_START_S = 140  # no repetition starts later than this into the run
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
# Times are reported at the machine speed at which one reference chunk
# (worker.reference_chunk) takes this long; see _end_to_end.
REF_NOMINAL_S = 0.002


def _median(xs):
    return statistics.median(xs) if xs else 0.0


class Run:
    """One workload, one seed: prepared inputs plus the repetitions made on them."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        import inputs

        self.workload = workload
        self.n_streams = 2 if smoke else MAX_REPS
        WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-s{seed}-", dir=WORK))
        scale = inputs.SMOKE if smoke else inputs.FULL
        data = inputs.generate(workload, seed, scale, self.n_streams)
        self.stream_sizes = [len(stream) for stream in data["streams"]]
        self.inputs = self.workdir / "inputs.json"
        self.inputs.write_text(json.dumps(data), encoding="utf-8")
        self.caches = {}
        if workload == "extmult-warm":
            self.caches = {
                f"{s}{r}": str(self.workdir / f"cache-{s}{r}.jsonl")
                for s, r in inputs.EXT_GROUPS
            }
            self.worker({"mode": "build-cache", "caches": self.caches})

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def worker(self, job: dict) -> dict | None:
        """Run one fresh interpreter; returns its result, or None if it failed."""
        result = self.workdir / f"result-{time.monotonic_ns()}.json"
        job = dict(job, inputs=str(self.inputs), caches=self.caches,
                   workdir=str(self.workdir), result=str(result))
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        job["spawned"] = time.monotonic()
        argv = [sys.executable, str(HERE / "worker.py"), json.dumps(job)]
        try:
            proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                                  timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{self.workload}: worker timed out after {WORKER_TIMEOUT_S}s",
                  file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"{self.workload}: worker exited {proc.returncode}:\n{proc.stderr}",
                  file=sys.stderr)
            return None
        if job.get("mode") == "build-cache":
            return {}
        return json.loads(result.read_text(encoding="utf-8"))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Timed repetitions of one workload; returns metrics and verdict."""
    started = time.monotonic()
    run = Run(workload, seed, smoke)
    min_reps = 1 if smoke else MIN_REPS
    try:
        plain, traced, errors = [], [], []
        attempted = 0
        failed = {}  # (stream, kind) -> failed or wrong results
        t0 = time.monotonic()
        r = 0
        while r < run.n_streams:
            rep_start = time.monotonic()
            pair = [("plain", {"stream": r, "trace": False})]
            if trace:
                spans = WORK / "spans" / f"{workload}.jsonl"
                spans.parent.mkdir(exist_ok=True)
                pair.append(("traced", {"stream": r, "trace": True, "spans": str(spans)}))
            for kind, job in pair:
                res = run.worker(job)
                attempted += run.stream_sizes[r]
                if res is None:
                    failed[r, kind] = run.stream_sizes[r]
                    errors.append(f"stream {r} ({kind}): worker failed")
                    continue
                failed[r, kind] = min(len(res["failures"]), run.stream_sizes[r])
                errors.extend(f"stream {r} ({kind}): {f}" for f in res["failures"])
                res["stream"] = r
                (traced if kind == "traced" else plain).append(res)
                print(f"# {workload} stream {r} ({kind}): set-up {res['setup_s']:.3f} s, "
                      f"{res['attempted']} queries in {res['wall_s']:.3f} s, "
                      f"{res['kl_computed']} KL entries computed", file=sys.stderr)
            r += 1
            now = time.monotonic()
            if r >= min_reps and now - t0 >= seconds:
                break
            if now - started + (now - rep_start) > LAST_START_S:
                break
        for r, err in _digest_errors(workload, seed, smoke, plain + traced):
            # a wrong digest means wrong results somewhere in the stream
            for key in failed:
                if key[0] == r:
                    failed[key] = run.stream_sizes[r]
            errors.append(err)
        if not plain or (trace and not traced):
            errors.append("no repetition completed")
        return {
            "workload": workload,
            "correct": not errors,
            "attempted": attempted,
            "failed": sum(failed.values()),
            "errors": errors,
            "end_to_end": _end_to_end(plain),
            "per_layer": _per_layer(plain, traced) if trace else None,
            "reps": len(plain),
        }
    finally:
        run.close()


def _digest_errors(workload, seed, smoke, results):
    """(stream, message) for each stream whose result digests disagree."""
    by_stream = {}
    for res in results:
        by_stream.setdefault(res["stream"], set()).add(res["digest"])
    expected = []
    if seed == DEFAULT_SEED:
        recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
        expected = recorded["smoke" if smoke else "full"][workload]
    errors = []
    for r, digests in sorted(by_stream.items()):
        if len(digests) > 1:
            errors.append((r, f"stream {r}: traced and untraced results differ"))
        elif r < len(expected) and digests != {expected[r]}:
            errors.append((r, f"stream {r}: result digest differs from the recorded one"))
    return errors


def _scale(res) -> float:
    """Factor that puts one repetition's times at the nominal machine speed."""
    return REF_NOMINAL_S / statistics.fmean(res["ref_s"])


def _end_to_end(plain) -> dict:
    """End-to-end figures of one run, pooled over all its repetitions.

    The shared machine the bounds were set on runs identical work up to
    1.6x faster or slower for tens of seconds at a time, so every time is
    scaled by the speed of the machine while it was taken: each repetition
    times a fixed reference chunk between its queries, and its times are
    multiplied by REF_NOMINAL_S over the mean chunk time.  Throughput and
    CPU per query then divide totals by totals, and the latency percentiles
    are taken over the queries of all repetitions.  Set-up time and memory
    are medians over the repetitions.
    """
    if not plain:
        return {}
    lat = sorted(1000.0 * x * _scale(res) for res in plain for x in res["latencies_s"])
    # the highest percentile with TAIL_BEYOND samples beyond it (or the max)
    tail_idx = len(lat) - 1 - (TAIL_BEYOND if len(lat) > TAIL_BEYOND else 0)
    attempted = sum(res["attempted"] for res in plain)
    wall = sum(res["wall_s"] for res in plain)
    ref = [x for res in plain for x in res["ref_s"]]
    return {
        "setup_s": _median([res["setup_s"] * _scale(res) for res in plain]),
        "queries_per_s": attempted / sum(res["wall_s"] * _scale(res) for res in plain),
        "query_p50_ms": _median(lat),
        "query_tail_ms": lat[tail_idx],
        "cpu_ms_per_query": 1000.0 * sum(res["cpu_s"] * _scale(res) for res in plain) / attempted,
        "peak_rss_mb": _median([res["peak_rss_mb"] for res in plain]),
        "_samples": len(lat),
        "_tail_percentile": 100.0 * (tail_idx + 1) / len(lat),
        "_failed_ratio": sum(len(res["failures"]) for res in plain) / attempted,
        "_unscaled_queries_per_s": attempted / wall,
        "_ref_chunk_ms": 1000.0 * statistics.fmean(ref),
    }


def _per_layer(plain, traced) -> dict:
    import spec

    if not traced:
        return {}
    out = {}
    for name, unit, _ in spec.PER_LAYER:
        if name == "trace.overhead":
            continue
        # times are scaled to the nominal machine speed, as in _end_to_end
        out[name] = _median([res["layer"].get(name, 0) * (_scale(res) if unit == "s" else 1.0)
                             for res in traced])
    walls = {res["stream"]: res["wall_s"] * _scale(res) for res in plain}
    out["trace.overhead"] = _median(
        [res["wall_s"] * _scale(res) / walls[res["stream"]]
         for res in traced if res["stream"] in walls]
    )
    return out


def _report(res: dict, trace: bool, prefix: str = "") -> dict:
    """Print one line per metric; returns the metrics for the JSON line."""
    import spec

    w = res["workload"]
    e2e = res["end_to_end"]
    if not trace:
        names = [name for name, *_ in spec.END_TO_END]
        values = e2e
        print(f"# {w}: {res['reps']} repetitions; p50 and tail = "
              f"p{e2e.get('_tail_percentile', 0):.1f} over all {e2e.get('_samples', 0)} "
              f"query samples ({TAIL_BEYOND} beyond the tail); times scaled to a "
              f"{1000 * REF_NOMINAL_S:g} ms reference chunk from a measured "
              f"{e2e.get('_ref_chunk_ms', 0):.4f} ms; unscaled queries_per_s "
              f"{e2e.get('_unscaled_queries_per_s', 0):.6g}")
    else:
        names = [name for name, *_ in spec.PER_LAYER]
        values = res["per_layer"] or {}
    metrics = {}
    for name in names:
        value = float(values.get(name, 0.0))
        unit = spec.UNITS[name]
        print(f"{prefix}{name} {value:.6g} {unit}")
        metrics[prefix + name] = {"value": value, "unit": unit}
    if not trace:
        print(f"{prefix}failed_ratio {e2e.get('_failed_ratio', 0.0):.6g} ratio")
    else:
        print(f"# {w}: share of KL lookups answered from the memo = "
              f"{values.get('klpoly.kl.hit_ratio', 0.0):.4f}")
    for err in res["errors"][:20]:
        print(f"# {w}: ERROR {err}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "goodfilt" / "__init__.py").is_file():
        print(f"run.py: no goodfilt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spec

    if args.workload != "all" and args.workload not in spec.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; expected one of "
              f"{sorted(spec.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workloads = list(spec.WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (False, True) if args.trace is None else (bool(args.trace),)
    seconds = args.seconds if args.seconds is not None else (1 if args.smoke else spec.RUN_SECONDS)
    single = len(workloads) * len(traces) == 1

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        for trace in traces:
            res = measure(workload, args.seed, seconds, trace, args.smoke)
            prefix = "" if single else f"{workload}/"
            metrics.update(_report(res, trace, prefix))
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
