"""Record the result digest of every stream of the default seed.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  Run it only when a change to the benchmark's
inputs changes the streams; a change to the library must reproduce the
recorded digests, not re-record them.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import spec

    out = {}
    for mode, smoke in (("full", False), ("smoke", True)):
        out[mode] = {}
        for workload in spec.WORKLOADS:
            bench = run.Run(workload, run.DEFAULT_SEED, smoke)
            try:
                digests = []
                for r in range(bench.n_streams):
                    res = bench.worker({"stream": r, "trace": False})
                    if res is None or res["failures"]:
                        print(f"{mode} {workload} stream {r}: failed", file=sys.stderr)
                        return 1
                    digests.append(res["digest"])
                    print(f"{mode} {workload} stream {r}: {res['digest'][:16]}", flush=True)
                out[mode][workload] = digests
            finally:
                bench.close()
    (run.HERE / "digests.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
