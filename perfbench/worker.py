"""One timed repetition in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON

JOB_JSON names the inputs file, the stream index, whether to trace, the
monotonic clock reading taken just before this process was spawned, and
where to write the result.  A fresh interpreter per repetition matters:
``get_group``, ``build_root_system`` and the ``characters`` helpers are
process-global caches, so a second in-process repetition would run warm.

Between queries the worker times a fixed reference chunk of pure-Python work
(see ``ReferenceClock``); ``run.py`` scales the repetition's times by it, so
that a shared machine's drifting speed does not show as a change of the code.
The chunks are left out of the timed figures.

The worker also builds the warm KL cache (``"mode": "build-cache"``), so
that the cache is written by the code under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


REF_EVERY_S = 0.05  # at least this much timed work between reference chunks


def reference_chunk() -> int:
    """A fixed piece of pure-Python work: tuple, dict and integer operations,
    as in the library's inner loops.  Its time tracks the machine's speed."""
    table = {}
    for i in range(5000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 3 * i
    return len(table)


class ReferenceClock:
    """Times reference chunks run between queries, off the query clock."""

    def __init__(self):
        self.wall_s: list[float] = []
        self.cpu_s = 0.0
        self.last = 0.0

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self.last < REF_EVERY_S:
            return
        cpu0 = time.process_time()
        reference_chunk()
        self.last = time.perf_counter()
        self.wall_s.append(self.last - now)
        self.cpu_s += time.process_time() - cpu0


def _fail(msg: str) -> None:
    print(f"worker: {msg}", file=sys.stderr)
    sys.exit(2)


def main() -> None:
    job = json.loads(sys.argv[1])
    with open(job["inputs"], encoding="utf-8") as fh:
        inputs = json.load(fh)
    workload = inputs["workload"]

    from goodfilt import characters as ch
    from goodfilt import extmult as em
    from goodfilt import roots as rt
    from goodfilt.errors import GoodfiltError

    tracer = None
    if job.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if job.get("mode") == "build-cache":
        _build_cache(em, inputs["cache_stream"], job["caches"])
        return

    stream = inputs["streams"][job["stream"]]
    if any(f.cache_info().currsize for f in vars(ch).values() if hasattr(f, "cache_info")):
        _fail("characters caches are not empty before set-up")

    # -- set-up ---------------------------------------------------------------
    spaces, systems, loaded = {}, {}, 0
    if workload == "tensor-highrank":
        for q in stream:
            key = (q["series"], q["rank"])
            if key not in systems:
                systems[key] = rt.build_root_system(*key)
    else:
        for q in stream:
            key = (q["series"], q["rank"])
            if key not in spaces:
                ws = spaces[key] = em.make_workspace(*key)
                if ws.table.memo or any(
                    getattr(ws.group, m, None) for m in ("_length", "_leq", "_ideal", "_locate")
                ):
                    _fail(f"{key}: KL or group memos are not empty before set-up")
                if workload == "extmult-warm":
                    n = ws.table.load(job["caches"][f"{key[0]}{key[1]}"])
                    if len(ws.table.memo) != n:
                        _fail(f"{key}: memo holds {len(ws.table.memo)} entries, loaded {n}")
                    if getattr(ws.group, "_locate", None):
                        _fail(f"{key}: locate memo is not empty after load")
                    loaded += n
    ready = time.monotonic()
    memo_at_ready = sum(len(ws.table.memo) for ws in spaces.values())

    # -- timed phase ----------------------------------------------------------
    latencies, outputs, failures = [], [], []
    clock = time.perf_counter
    ref = ReferenceClock()
    cpu0, wall0 = time.process_time(), clock()
    ref.sample(force=True)
    for i, q in enumerate(stream):
        ref.sample()
        if tracer is not None:
            tracer.request = i
        t0 = clock()
        try:
            if workload == "tensor-highrank":
                rs = systems[(q["series"], q["rank"])]
                res = ch.tensor_nabla_multiplicities(rs, tuple(q["a"]), tuple(q["b"]))
            else:
                ws = spaces[(q["series"], q["rank"])]
                query = em.MultiplicityQuery(
                    q["variant"], tuple(q["lam"]), tuple(q["mu"]), q["n"], q["p"]
                )
                omegas = None if q["omegas"] is None else [tuple(o) for o in q["omegas"]]
                res = em.multiplicity_table(ws, query, omegas).as_dict()
        except (GoodfiltError, ArithmeticError, ValueError, KeyError, TypeError) as exc:
            latencies.append(clock() - t0)
            failures.append(f"query {i} {q}: {type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        latencies.append(clock() - t0)
        outputs.append(res)
    if tracer is not None:
        tracer.request = -1
    save_bytes = 0
    if workload == "extmult-cold":
        for key, ws in spaces.items():
            path = os.path.join(job["workdir"], f"saved-{key[0]}{key[1]}-{os.getpid()}.jsonl")
            ws.table.save(path)
            save_bytes += os.path.getsize(path)
            os.unlink(path)
    wall = clock() - wall0 - sum(ref.wall_s)
    cpu = time.process_time() - cpu0 - ref.cpu_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks (untimed) -------------------------------------------------------
    computed = sum(len(ws.table.memo) for ws in spaces.values()) - memo_at_ready
    layer = None
    if tracer is not None:
        layer = tracer.metrics(
            [ws.table for ws in spaces.values()],
            [ws.group for ws in spaces.values()],
            computed, loaded, save_bytes,
        )
        tracer.uninstall()
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    for i, (q, res) in enumerate(zip(stream, outputs)):
        if res is not None:
            err = _check_result(workload, q, res, ch, systems)
            if err:
                failures.append(f"query {i} {q}: {err}")
    for c in inputs["checks"][job["stream"]]:
        err = _run_check(c, em, spaces)
        if err:
            failures.append(err)

    lines = sorted(
        json.dumps([q, None if r is None else sorted([list(w), m] for w, m in r.items())])
        for q, r in zip(stream, outputs)
    )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    result = {
        "setup_s": ready - job["spawned"],
        "wall_s": wall,
        "ref_s": ref.wall_s,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(stream),
        "failures": failures,  # one per failed query, wrong result or failed check
        "digest": digest,
        "kl_computed": computed,
        "layer": layer,
    }
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _check_result(workload, q, res, ch, systems):
    """Checks every single result can be held to on its own."""
    if workload == "tensor-highrank":
        rs = systems[(q["series"], q["rank"])]
        lhs = sum(m * ch.dim_nabla(rs, w) for w, m in res.items())
        rhs = ch.dim_nabla(rs, tuple(q["a"])) * ch.dim_nabla(rs, tuple(q["b"]))
        if lhs != rhs:
            return f"sum m*dim(omega) = {lhs} != dim(a)*dim(b) = {rhs}"
        return None
    for w, m in res.items():
        if not (isinstance(m, int) and m > 0 and all(c >= 0 for c in w)):
            return f"entry {w}: {m} is not a positive multiplicity at a dominant weight"
    if q["omegas"] is not None and not set(res) <= {tuple(o) for o in q["omegas"]}:
        return f"constituents {sorted(res)} outside the requested {q['omegas']}"
    return None


def _run_check(c, em, spaces):
    ws = spaces[(c["series"], c["rank"])]
    if c["kind"] == "big_C":
        args = (tuple(c["lam"]), tuple(c["mu"]), c["n"], c["p"])
        a, b = em.big_C(ws, *args), em.ext_dim_G_red_red(ws, *args)
        if a != b:
            return f"check {c}: big_C = {a} != ext_dim_G_red_red = {b}"
    else:
        res = em.weight_space_identity_check(ws, tuple(c["mu"]), tuple(c["tau"]), c["p"])
        if not res.ok:
            return f"check {c}: weight-space identity {res.lhs} != {res.rhs}"
    return None


def _build_cache(em, stream, caches):
    spaces = {}
    for q in stream:
        key = f"{q['series']}{q['rank']}"
        ws = spaces.get(key)
        if ws is None:
            ws = spaces[key] = em.make_workspace(q["series"], q["rank"])
        query = em.MultiplicityQuery(q["variant"], tuple(q["lam"]), tuple(q["mu"]), q["n"], q["p"])
        omegas = None if q["omegas"] is None else [tuple(o) for o in q["omegas"]]
        em.multiplicity_table(ws, query, omegas)
    for key, path in caches.items():
        spaces[key].table.save(path)


if __name__ == "__main__":
    main()
