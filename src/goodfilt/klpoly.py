"""Kazhdan-Lusztig polynomials for the affine Coxeter system.

Polynomials live in the variable q = t^2.  A polynomial is the tuple of
its integer coefficients, lowest degree first, with no trailing zeros, so
1 is (1,) and 0 is ().  The table computes P_{x,y} on demand by the
right-descent recursion: for s with ys < y and v := ys,

    P_{x,y} = P_{xs,y}                                    if xs > x,
    P_{x,y} = P_{xs,v} + q P_{x,v}
              - sum over z with x <= z <= v, zs < z of
                mu(z, v) q^{(l(y)-l(z))/2} P_{x,z}        if xs < x,

with P_{x,x} = 1 and P_{x,y} = 0 unless x <= y in Bruhat order.  Each
term goes straight into one array of floor((l(y) - l(x)) / 2) + 1
coefficients, as its stored factors obey the degree bound below.  One
check of the defining invariants (constant term 1, nonnegative
coefficients, 2 deg_q <= l(y) - l(x) - 1) guards every entry before it is
stored, computed or loaded; a violation raises rather than poisoning the
memo.

Every value ``extmult`` reads pairs two flagged ids (dominant alcoves, see
``affine``), and between those the recursion stays flagged: the
antispherical reduction of Deodhar (J. Algebra 111, 1987) and Soergel
(Represent. Theory 1, 1997, section 3).  For flagged x and y, s is taken
with v = ys flagged (``AffineWeylGroup.descent``), and

* if xs > x, then xs is flagged, so P_{x,y} = P_{xs,y} stays inside;
* if xs < x and xs is not flagged, then xs = tx with t a finite
  generator, which v also descends by, so P_{xs,v} = P_{x,v} is read
  instead.

The mu-sum of column v and descent s runs over one list per (v, s), built
once (``_mu_candidates``): the z <= v with zs < z and l(v) - l(z) odd, as
mu(z, v) is 0 at even gaps.  Which z it holds depends on v's flag alone,
for every x.  A flagged v takes them from the kept levels of flagged ids,
each tested for the descent before Bruhat order.  Unflagged z add nothing
there, by the mu-lemma of Kazhdan-Lusztig (Invent. Math. 53, 1979): a
flagged v has every finite t as a left descent, and an unflagged z has a
finite t with tz > z, so mu(z, v) is 0 unless v = tz.  As a shorter
neighbour of an unflagged id is unflagged, v flagged makes y = vs flagged,
so then zs = ty < y has length l(z) + 1 and z drops out.  Any other v
(``goodfilt kl``'s pairs) takes them from its lower ideal.  A z shorter
than x is skipped before its Bruhat test; mu(z, v) and P_{x,z} are read
from the memo in place.  The entries are the ordinary P_{x,y}, whichever
descent computed them, so one memo serves every pair.

``c_coeff`` reads the coefficient of t^s, t = sqrt(q).  As 2 deg_q P_{u,v}
<= l(v) - l(u) - 1 for u != v, any s >= l(v) - l(u) gives 0 with no
recursion; so a degree-0 ``small_c``, which reads s = l(v) - l(u), is 0
unless u = v.

The recursion runs on an explicit stack, so its depth is bounded by memory,
not by Python's recursion limit.  ``kl`` is a loop; the body for one pair is
the generator ``_entry``, which yields each pair it needs where the
recursion would call ``kl`` and is sent back its polynomial.  ``kl``
resolves a pair the way the recursion did on entry (the diagonal, a memo
hit, 0 off Bruhat order), and otherwise pushes a new entry and runs it
before resuming the one below.  So the stack holds exactly the recursion's
frames and is walked in its order: every entry is computed in the same
sequence, from the same memo state, with the same Bruhat tests.  Nested
reads, and the memo hits that ``c_coeff`` and the mu-sum take in place,
never re-enter ``kl``: a wrapper of ``kl`` sees only its outside calls.

Concurrency: the shared state is two dicts, the memo and the mu-candidate
lists (``_candidates``).  Both are published idempotently: a key always
gets the same value (a polynomial, or a list built in full before it is
stored and never changed after), so concurrent lookups and racing writers
are benign under CPython's atomic dict assignment.

The memo is keyed on pairs of the group's integer element ids.
Persistence is JSON lines: a header record followed by one record per
entry keyed by canonical reduced words, so caches are independent of the
prime and of id numbering, and stable across runs.  A canonical word strips
the recursion's descent, so a flagged id's word is w_0's word followed by a
gallery of flagged ids: a save or a load of flagged pairs walks only flagged
ids and the finite Weyl group.  Records are ordered by
y's (length, word), then x's, and written from one string per id and per
polynomial, each encoded once.  A save replaces its target atomically.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from .affine import AffineWeylGroup
from .errors import CacheFormatError, ConfigurationError, InternalInvariantError

__all__ = ["KLTable"]


def _trimmed(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _coeff(poly: tuple[int, ...], i: int) -> int:
    return poly[i] if 0 <= i < len(poly) else 0


def _int_array(value) -> list[int]:
    # type(), not isinstance(): JSON true must not load as 1
    if not isinstance(value, list) or any(type(c) is not int for c in value):
        raise ValueError(f"expected an array of integers, got {json.dumps(value)}")
    return value


def _invariant_violation(poly: tuple[int, ...], gap: int) -> str | None:
    """The first KL invariant that ``poly`` breaks as P_{x,y}, or None.

    ``gap`` is l(y) - l(x) for x <= y; gap 0 means x = y, where P = 1.
    """
    if _coeff(poly, 0) != 1:
        return f"constant term {_coeff(poly, 0)} != 1"
    if min(poly) < 0:  # poly is not empty: its constant term is 1
        return f"negative coefficient in {list(poly)}"
    if 2 * (len(poly) - 1) > max(gap - 1, 0):
        return f"degree {len(poly) - 1} exceeds the bound for gap {gap}"
    return None


class KLTable:
    """Demand-driven Kazhdan-Lusztig table for one affine Weyl group."""

    def __init__(self, group: AffineWeylGroup):
        self.group = group
        self.memo: dict[tuple[int, int], tuple[int, ...]] = {}
        self._candidates: dict[tuple[int, int], list[int]] = {}  # see _mu_candidates

    # -- core recursion ----------------------------------------------------

    def kl(self, x: int, y: int) -> tuple[int, ...]:
        """P_{x,y}: 1 on the diagonal, a memo hit, 0 unless x <= y in Bruhat
        order, and otherwise computed by ``_entry`` and stored.  Each pair an
        entry asks for is resolved the same way, on a stack of entries rather
        than by recursion, so depth is bounded by memory alone."""
        memo, bruhat_leq, stack = self.memo, self.group.bruhat_leq, []
        while True:
            result = (1,) if x == y else memo.get((x, y))  # stored entries have x <= y
            if result is None:
                if bruhat_leq(x, y):
                    stack.append(self._entry(x, y))  # sent None to start
                else:
                    result = ()
            while stack:
                try:
                    x, y = stack[-1].send(result)
                    break
                except StopIteration as done:
                    stack.pop()
                    result = done.value
            else:
                return result

    def _entry(self, x: int, y: int):
        """Compute and store P_{x,y} for x < y with no memo entry: a generator
        that yields each pair whose polynomial it needs, is sent that
        polynomial by ``kl``, and returns P_{x,y}."""
        memo, g = self.memo, self.group
        lengths, flagged, rmul = g._length, g._dominant, g._rmul
        row = rmul[y] or g._fill_row(y)
        s = g._descent[y]
        v = row[s]
        xs = (rmul[x] or g._fill_row(x))[s]
        lx, lv = lengths[x], lengths[v]
        gap = lv + 1 - lx
        if lengths[xs] > lx:
            result = yield xs, y
        else:
            if flagged[x] and flagged[v] and not flagged[xs]:
                xs = x  # xs = tx with t finite and tv < v, so P_{xs,v} = P_{x,v}
            # each term has degree <= gap // 2, as its stored factors obey the
            # degree bound, though the sum may cancel lower
            acc = [0] * (gap // 2 + 1)
            for i, c in enumerate(memo.get((xs, v)) or (yield xs, v)):
                acc[i] += c
            for i, c in enumerate(memo.get((x, v)) or (yield x, v), start=1):
                acc[i] += c
            for z in self._mu_candidates(v, s):
                lz = lengths[z]
                if lz < lx or not g.bruhat_leq(x, z):
                    continue
                m = _coeff(memo.get((z, v)) or (yield z, v), (lv - lz - 1) // 2)  # mu(z, v)
                if m:
                    poly = memo.get((x, z)) or (yield x, z)
                    for i, c in enumerate(poly, start=(lv + 1 - lz) // 2):
                        acc[i] -= m * c
            result = _trimmed(acc)

        problem = _invariant_violation(result, gap)
        if problem:
            raise InternalInvariantError(f"KL polynomial for gap {gap}: {problem}")
        memo[x, y] = result
        return result

    def _mu_candidates(self, v: int, s: int) -> list[int]:
        """The z <= v with s a right descent and l(v) - l(z) odd: the z the
        mu-sum of column v with descent s may read, built once.  A flagged v
        takes them from the kept levels of flagged ids, which are complete
        below l(v), by length then matrix form, descent tested before Bruhat
        order; any other v from its lower ideal."""
        key = (v, s)
        found = self._candidates.get(key)
        if found is None:
            g = self.group
            lengths = g._length
            lv = lengths[v]
            if g._dominant[v]:
                levels = g._levels(lv - 1)
                found = [z for level in levels[(lv - 1) % 2 : lv : 2] for z in level
                         if lengths[g.row(z)[s]] < lengths[z] and g.bruhat_leq(z, v)]
            else:
                found = [z for z in g.lower_ideal(v)
                         if (lv - lengths[z]) % 2 and lengths[g.row(z)[s]] < lengths[z]]
            self._candidates[key] = found
        return found

    def mu(self, x: int, y: int) -> int:
        """Coefficient of q^((l(y)-l(x)-1)/2) in P_{x,y}; 0 for even gaps."""
        lengths = self.group._length
        return self.c_coeff(x, y, lengths[y] - lengths[x] - 1)

    def c_coeff(self, u: int, v: int, s: int) -> int:
        """Coefficient of t^s in P_{u,v} read as a polynomial in t = sqrt(q).

        P_{u,v} is a polynomial in t^2, so odd or negative s give 0, and
        for u != v its t-degree is at most l(v) - l(u) - 1, so s at or
        above the length gap gives 0 with no recursion.
        """
        lengths = self.group._length
        if s < 0 or s % 2 or (u != v and s >= lengths[v] - lengths[u]):
            return 0
        return _coeff(self.memo.get((u, v)) or self.kl(u, v), s // 2)

    # -- persistence ---------------------------------------------------------

    def _header(self) -> dict:
        rs = self.group.rs
        return {"format": "kltable", "version": 1, "series": rs.series, "rank": rs.rank}

    def save(self, path) -> None:
        """Write the table to ``path`` atomically.

        The records go to a temporary file in the same directory, which
        replaces ``path`` only once complete, so an interrupted save leaves
        the previous cache intact.
        """
        memo = self.memo
        ids = {z for pair in memo for z in pair}
        words = self.group.canonical_words(ids)
        # records in (l(y), y, l(x), x) order: one rank per id by (length, word),
        # packed into one int per record, as a large memo sorts ints faster than pairs
        n = len(ids)
        rank = {z: r for r, z in enumerate(sorted(ids, key=lambda z: (len(words[z]), words[z])))}
        # what json.dumps writes for an array of ints is str() of the list;
        # a memo holds few distinct polynomials, so each is encoded once, as is each word
        word_text = {z: str(list(words[z])) for z in ids}
        poly_text = {p: str(list(p)) for p in set(memo.values())}
        lines = sorted(
            (rank[y] * n + rank[x],
             f'{{"p_of_q": {poly_text[p]}, "x": {word_text[x]}, "y": {word_text[y]}}}\n')
            for (x, y), p in memo.items()
        )
        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self._header(), sort_keys=True) + "\n")
                fh.writelines(line for _, line in lines)
            if os.path.exists(path):
                shutil.copymode(path, tmp)  # mkstemp makes it owner-only
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path) -> int:
        """Merge a persisted table; returns the number of entries merged.

        The whole file is rejected (CacheFormatError naming file and line)
        on a header or record nested too deep for the JSON decoder, and on
        the first record that is not three arrays of integers, has a
        letter outside 0..rank (the group's walk names it), breaks the KL
        invariants, or repeats a pair (x, y) of an earlier record; and
        (naming the pair) when a record conflicts with a computed entry.
        One rule covers every pair, the diagonal x = y too: its only valid
        record is P_{x,x} = 1, which is merged like any other.  ``kl``
        answers x = y before the memo and never stores it, so ``save``
        writes a diagonal record only after loading one.  Every record is
        checked before any is merged, so a rejected file leaves the table
        unchanged.  Trailing zero coefficients are dropped.
        """
        g = self.group
        staged = {}
        word_ids = {}  # int tuples only: (1,) == (True,), and _int_array refuses True
        with open(path, encoding="utf-8", errors="replace") as fh:  # a bad byte reads as U+FFFD
            header_line = fh.readline()
            if not header_line:
                raise CacheFormatError(f"{path}: empty cache file")
            try:
                header = json.loads(header_line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise CacheFormatError(f"{path}: bad header: {exc}") from exc
            expected = self._header()
            if header != expected:
                raise CacheFormatError(
                    f"{path}: header {header} does not match {expected}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                where = f"{path}:{lineno}"
                try:
                    rec = json.loads(line)
                    xw, yw, coeffs = (_int_array(rec[k]) for k in ("x", "y", "p_of_q"))
                except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                        RecursionError) as exc:
                    raise CacheFormatError(f"{where}: bad record: {exc}") from exc
                try:
                    x, y = (
                        word_ids[w] if w in word_ids else word_ids.setdefault(w, g.from_word(w))
                        for w in (tuple(xw), tuple(yw))
                    )
                except ConfigurationError as exc:  # a letter outside 0..rank
                    raise CacheFormatError(f"{where}: {exc}") from exc
                poly = _trimmed(coeffs)
                if g.bruhat_leq(x, y):
                    problem = _invariant_violation(poly, g.length(y) - g.length(x))
                else:
                    problem = "x is not below y in Bruhat order"
                if problem:
                    raise CacheFormatError(
                        f"{where}: record violates KL invariants: {problem} "
                        f"(x={xw}, y={yw}, p={coeffs})"
                    )
                if (x, y) in staged:
                    raise CacheFormatError(
                        f"{where}: second record for x={xw}, y={yw}, first at {staged[x, y][1]}"
                    )
                staged[(x, y)] = poly, where
        for key, (poly, _) in staged.items():
            if self.memo.get(key, poly) != poly:
                x, y = (list(g.canonical_word(z)) for z in key)
                raise CacheFormatError(
                    f"{path}: record for x={x}, y={y} conflicts with computed value"
                )
        self.memo.update((key, poly) for key, (poly, _) in staged.items())
        return len(staged)
