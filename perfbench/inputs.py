"""Seeded input generation for the benchmark (the untimed prepare step).

Every stream is a plain JSON list of queries; the worker receives nothing
else from the benchmark.  The same (workload, seed, scale) always yields the
same streams: every random choice comes from ``random.Random`` seeded with a
string, which does not depend on the interpreter's hash seed.

Each timed repetition of a run gets its own stream (stream index r), so a
run covers several independent sessions instead of timing one lucky or
unlucky draw again and again.

Streams are stratified: every stream holds the same number of queries per
group, variant and degree (extmult) or per group and cost band (tensor), and
only the concrete weights inside each stratum are drawn at random.  The cost
of a query depends mostly on its stratum, so this keeps streams of different
seeds comparable.  Extmult sessions ask their queries in order of growing KL
window (see ``ext_stream``); tensor streams are shuffled.
"""

from __future__ import annotations

import itertools
import random
from collections import defaultdict
from dataclasses import dataclass

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots as rt
from goodfilt.errors import DecompositionError

EXT_P = 7
EXT_GROUPS = (("A", 2), ("B", 2))
EXT_BOX = 14  # coordinate range scanned for weights of bounded length

TENSOR_GROUPS = (
    ("A", 4), ("A", 6), ("B", 3), ("B", 4), ("C", 4),
    ("D", 5), ("E", 6), ("F", 4), ("G", 2),
)
TENSOR_MAX_COORD_SUM = 3


@dataclass(frozen=True)
class Scale:
    # per group: largest Coxeter length of a partner weight.  Bounding the
    # length instead of the coordinates keeps the deepest KL window, which
    # sets the cold cost of a session, the same in every stream.
    ext_max_len: tuple[int, ...]
    ext_degrees: tuple[int, ...]  # values of n, one query per variant each
    ext_blocks: int  # repetitions of the (variant, n) grid per group
    # the same for warm streams.  Warm sessions are short so that a run holds
    # many: over ten seeds the tail's spread was 0.08-0.10 with 76-query
    # sessions and 0.06 with 40-query ones.
    warm_blocks: int
    ext_omega_queries: int  # per-constituent queries per group
    cache_streams: int  # streams whose union builds the warm cache
    tensor_pairs: int  # cost bands per group; a stream draws one pair per band
    tensor_cap: int  # cap on dim_nabla(a) * dim_nabla(b)


FULL = Scale(
    ext_max_len=(4, 5), ext_degrees=(0, 1, 2), ext_blocks=3, warm_blocks=2, ext_omega_queries=2,
    cache_streams=4, tensor_pairs=20, tensor_cap=300_000,
)
SMOKE = Scale(
    ext_max_len=(3, 4), ext_degrees=(0, 1), ext_blocks=1, warm_blocks=1, ext_omega_queries=1,
    cache_streams=1, tensor_pairs=2, tensor_cap=20_000,
)


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


# -- extmult streams ----------------------------------------------------------


class _ExtPools:
    """Dominant p-regular weights of bounded length, grouped by linkage class.

    ``length[w]`` is the Coxeter length of w's alcove.
    """

    def __init__(self, series: str, rank: int, max_len: int):
        self.series, self.rank = series, rank
        ws = em.make_workspace(series, rank)
        g = ws.group
        self.weights, self.rep, self.length = [], {}, {}
        self.linked = defaultdict(list)
        for w in itertools.product(range(EXT_BOX), repeat=rank):
            if not g.is_p_regular(w, EXT_P):
                continue
            loc = g.locate(w, EXT_P)
            if loc.length <= max_len:
                self.weights.append(w)
                self.rep[w] = loc.antidominant_rep
                self.length[w] = loc.length
                self.linked[loc.antidominant_rep].append(w)
        # mu = w.0 + p*xi with xi dominant, for the weight-space identity check
        self.identity_mus = []
        for w in self.weights:
            try:
                em.finite_weyl_shift_decompose(ws, w, EXT_P)
            except DecompositionError:
                continue
            self.identity_mus.append(w)

    def linked_pair(self, rng):
        """(partner, other) with other in the partner's linkage class."""
        partner = rng.choice(self.weights)
        return partner, rng.choice(self.linked[self.rep[partner]])


def _ext_query(series, rank, variant, lam, mu, n, omegas=None):
    return {
        "series": series, "rank": rank, "variant": variant,
        "lam": list(lam), "mu": list(mu), "n": n, "p": EXT_P,
        "omegas": None if omegas is None else [list(o) for o in omegas],
    }


def ext_stream(pools, scale: Scale, blocks: int, rng) -> list[dict]:
    """One session's queries, in order of growing KL window.

    A query needs the KL polynomials of a window of Coxeter lengths up to
    about its partner's length plus n.  The session asks them in shuffled
    order within each window size and moves to larger windows as it goes, so
    the KL table grows level by level.  In fully shuffled order the first
    query with the largest window paid for most of the table alone, and the
    tail latency of a run depended on which query that was.
    """
    queries = []  # (window, query)
    for pool in pools:
        s, r = pool.series, pool.rank
        for _ in range(blocks):
            for variant in em.VARIANTS:
                for n in scale.ext_degrees:
                    partner, other = pool.linked_pair(rng)
                    # the partner sits in the slot that fixes the KL window
                    if variant == "delta_red":
                        lam, mu = partner, other
                    else:
                        lam, mu = other, partner
                    window = pool.length[partner] + n
                    queries.append((window, _ext_query(s, r, variant, lam, mu, n)))
        for _ in range(scale.ext_omega_queries):
            partner, other = pool.linked_pair(rng)
            variant = rng.choice(em.VARIANTS)
            n = rng.choice(scale.ext_degrees)
            # tau runs over the dominant weights below omega + shift, and the KL
            # window grows with p * tau: small omegas keep the query desk-sized
            omega = tuple(rng.randrange(2) for _ in range(r))
            window = pool.length[partner] + n
            queries.append((window, _ext_query(s, r, variant, other, partner, n, [omega])))
    rng.shuffle(queries)
    queries.sort(key=lambda wq: wq[0])  # stable: shuffled within a window size
    return [q for _, q in queries]


def ext_checks(pools, scale: Scale, rng) -> list[dict]:
    """Independent cross-checks run after the timed phase of a stream."""
    checks = []
    for pool in pools:
        s, r = pool.series, pool.rank
        lam, mu = pool.linked_pair(rng)
        checks.append({
            "kind": "big_C", "series": s, "rank": r, "lam": list(lam),
            "mu": list(mu), "n": rng.choice(scale.ext_degrees), "p": EXT_P,
        })
        checks.append({
            "kind": "identity", "series": s, "rank": r,
            "mu": list(rng.choice(pool.identity_mus)),
            "tau": [rng.randrange(3) for _ in range(r)], "p": EXT_P,
        })
    return checks


# -- tensor streams -----------------------------------------------------------


def _tensor_bands(scale: Scale):
    """Per group: candidate pairs split into cost bands.

    The cost of a pair grows with the smaller factor's dimension d (its
    character is what Brauer-Klimyk iterates over).  Pairs are sorted by d
    and cut into bands of equal total sqrt(d): equal-count bands leave the
    few heavy pairs in one wide band, and which of them a stream draws then
    sets its cost.  Measured in Python calls made, the work of 8 streams
    spread over 1.4x with equal-count bands and over 1.06x with these.
    """
    out = []
    for series, rank in TENSOR_GROUPS:
        rs = rt.build_root_system(series, rank)
        weights = [
            w for w in itertools.product(range(TENSOR_MAX_COORD_SUM + 1), repeat=rank)
            if 0 < sum(w) <= TENSOR_MAX_COORD_SUM
        ]
        dims = {w: ch.dim_nabla(rs, w) for w in weights}
        pairs = sorted(
            ((min(dims[a], dims[b]), dims[a] * dims[b], a, b)
             for a, b in itertools.combinations_with_replacement(weights, 2)
             if dims[a] * dims[b] <= scale.tensor_cap),
        )
        k = scale.tensor_pairs
        total = sum(d ** 0.5 for d, *_ in pairs)
        bands = [[] for _ in range(k)]
        acc = 0.0
        for d, _, a, b in pairs:
            bands[min(k - 1, int(k * acc / total))].append((a, b))
            acc += d ** 0.5
        out.append((series, rank, [band for band in bands if band]))
    return out


def tensor_stream(bands, rng) -> list[dict]:
    queries = []
    for series, rank, group_bands in bands:
        for band in group_bands:
            a, b = rng.choice(band)
            if rng.random() < 0.5:
                a, b = b, a
            queries.append({"series": series, "rank": rank, "a": list(a), "b": list(b)})
    rng.shuffle(queries)
    return queries


# -- entry point --------------------------------------------------------------


def generate(workload: str, seed: int, scale: Scale, n_streams: int) -> dict:
    """Query streams, per-stream checks and (warm only) the cache-build stream."""
    out = {"workload": workload, "seed": seed, "streams": [], "checks": []}
    if workload == "tensor-highrank":
        bands = _tensor_bands(scale)
        for r in range(n_streams):
            out["streams"].append(tensor_stream(bands, _rng(workload, seed, "stream", r)))
            out["checks"].append([])
        return out
    pools = [_ExtPools(s, r, m) for (s, r), m in zip(EXT_GROUPS, scale.ext_max_len)]
    blocks = scale.warm_blocks if workload == "extmult-warm" else scale.ext_blocks
    for r in range(n_streams):
        out["streams"].append(ext_stream(pools, scale, blocks, _rng(workload, seed, "stream", r)))
        out["checks"].append(ext_checks(pools, scale, _rng(workload, seed, "check", r)))
    if workload == "extmult-warm":
        # a disjoint seed space: the cache never saw the timed streams' draws
        cache_rng = _rng(workload, seed, "cache")
        out["cache_stream"] = [
            q for _ in range(scale.cache_streams)
            for q in ext_stream(pools, scale, scale.ext_blocks, cache_rng)
        ]
    return out
