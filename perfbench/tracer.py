"""Per-layer tracing from outside the library.

The tracer replaces public functions and methods of ``goodfilt`` with
wrappers, at class and module level, so recursive and internal calls made
through those names are seen too.  A spanned call records (name, start,
end, parent span, request); a counted call only increments a counter, for
functions too hot to span.  Self time is a span's duration minus the time
covered by its child spans.  Spans stay in memory until ``write_spans``.

Nothing here changes what the library computes: wrappers pass arguments and
results through unchanged, and the benchmark checks that traced and untraced
runs of a stream produce identical result digests.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from goodfilt import affine, characters, extmult, klpoly, roots

# (owner, attribute, metric prefix).  Missing attributes are skipped, so a
# refactor of the library degrades the trace instead of breaking the run.
SPANNED = [
    (klpoly.KLTable, "kl", "klpoly.kl"),
    (klpoly.KLTable, "load", "klpoly.load"),
    (klpoly.KLTable, "save", "klpoly.save"),
    (affine.AffineWeylGroup, "bruhat_leq", "affine.bruhat_leq"),
    (affine.AffineWeylGroup, "lower_ideal", "affine.lower_ideal"),
    (affine.AffineWeylGroup, "locate", "affine.locate"),
    (affine.AffineWeylGroup, "elements_up_to_length", "affine.elements_up_to_length"),
    (affine.AffineWeylGroup, "from_word", "affine.from_word"),
    (characters, "tensor_nabla_multiplicities", "characters.tensor_nabla_multiplicities"),
    (characters, "dominant_multiplicities", "characters.dominant_multiplicities"),
    (extmult, "multiplicity_table", "extmult.multiplicity_table"),
    (extmult, "big_C", "extmult.big_C"),
    (extmult, "small_c", "extmult.small_c"),
]
COUNTED = [
    (affine.AffineWeylGroup, "multiply", "affine.multiply"),
    (roots, "dominant_conjugate", "roots.dominant_conjugate"),
]
# memo tables of AffineWeylGroup: length, Bruhat order, lower ideals, locate
AFFINE_MEMOS = ("_length", "_leq", "_ideal", "_locate")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.names: list[str] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.kl_hits = 0
        self.request = -1
        self._stack: list = []  # [span index, start, child seconds]
        self._restore: list = []
        self._lru = {
            name: obj for name, obj in vars(characters).items() if hasattr(obj, "cache_info")
        }

    # -- wrapping -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            orig = getattr(owner, attr, None)
            if orig is not None:
                self._replace(owner, attr, self._spanned(orig, name))
        for owner, attr, name in COUNTED:
            orig = getattr(owner, attr, None)
            if orig is not None:
                self._replace(owner, attr, self._counted(orig, name))
        kl = getattr(klpoly.KLTable, "kl", None)
        if kl is not None:
            self._replace(klpoly.KLTable, "kl", self._kl_hits(kl))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                counts[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[2]
                spans[idx] = (name_id, frame[1], end, parent[0] if parent else -1, self.request)

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _kl_hits(self, fn):
        def wrapper(table, x, y):
            memo = getattr(table, "memo", None)
            if memo is not None and (x, y) in memo:
                self.kl_hits += 1
            return fn(table, x, y)

        return wrapper

    # -- results --------------------------------------------------------------

    def cache_entries(self) -> int:
        return sum(f.cache_info().currsize for f in self._lru.values())

    def metrics(self, tables, groups, computed: int, load_records: int, save_bytes: int) -> dict:
        """Per-layer metrics; ``tables``/``groups`` are the workspaces' objects."""
        out = {}
        for _, _, name in SPANNED:
            out[f"{name}.calls"] = self.counts[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for _, _, name in COUNTED:
            out[f"{name}.calls"] = self.counts[name]
        out["klpoly.kl.computed"] = computed
        lookups = self.kl_hits + computed
        out["klpoly.kl.hit_ratio"] = self.kl_hits / lookups if lookups else 0.0
        out["klpoly.load.s"] = self.total_s["klpoly.load"]
        out["klpoly.load.records"] = load_records
        out["klpoly.save.s"] = self.total_s["klpoly.save"]
        out["klpoly.save.bytes"] = save_bytes
        out["klpoly.memo_entries"] = sum(len(getattr(t, "memo", ())) for t in tables)
        out["affine.memo_entries"] = sum(
            len(getattr(g, m, ())) for g in groups for m in AFFINE_MEMOS
        )
        out["characters.cache_entries"] = self.cache_entries()
        return out

    def write_spans(self, path) -> None:
        """One JSON line per span: name, start, end, parent index, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i, span in enumerate(self.spans):
                if span is None:  # still open: the run ended inside it
                    continue
                name_id, start, end, parent, request = span
                fh.write(json.dumps([i, self.names[name_id], start, end, parent, request]) + "\n")
