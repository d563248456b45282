"""Kazhdan-Lusztig polynomials for the affine Coxeter system.

Polynomials live in the variable q = t^2 with arbitrary-precision integer
coefficients.  The table computes P_{x,y} on demand by the right-descent
recursion: for s with ys < y and v := ys,

    P_{x,y} = P_{xs,y}                                    if xs > x,
    P_{x,y} = P_{xs,v} + q P_{x,v}
              - sum over z with x <= z <= v, zs < z of
                mu(z, v) q^{(l(y)-l(z))/2} P_{x,z}        if xs < x,

with P_{x,x} = 1 and P_{x,y} = 0 unless x <= y in Bruhat order.  Every
computed entry is checked against the defining invariants (constant term
1, nonnegative coefficients, 2 deg_q <= l(y) - l(x) - 1) before being
stored; a violation raises rather than poisoning the memo.

Concurrency: the memo dict is the only shared state.  Entries are
immutable and insertion is idempotent (same key always yields the same
polynomial), so concurrent lookups and racing writers are benign under
CPython's atomic dict assignment.

The memo is keyed on pairs of the group's integer element ids.
Persistence is JSON lines: a header record followed by one record per
entry keyed by canonical reduced words, so caches are independent of the
prime and of id numbering, and stable across runs.  A save replaces its
target atomically.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

from .affine import AffineWeylGroup
from .errors import CacheFormatError, InternalInvariantError

__all__ = ["IntPoly", "KLTable", "ZERO", "ONE"]


class IntPoly:
    """Immutable univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *_):
        raise AttributeError("IntPoly is immutable")

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "IntPoly(0)"
        terms = [f"{c}*q^{i}" for i, c in enumerate(self.coeffs) if c]
        return "IntPoly(" + " + ".join(terms) + ")"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def coeff(self, i: int) -> int:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other):
        out = list(self.coeffs)
        out.extend([0] * (len(other.coeffs) - len(out)))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def scale_shift(self, scalar: int, shift: int):
        """scalar * q^shift * self."""
        if scalar == 0 or not self.coeffs:
            return ZERO
        return IntPoly([0] * shift + [scalar * c for c in self.coeffs])

    def eval_at_one(self) -> int:
        return sum(self.coeffs)


ZERO = IntPoly()
ONE = IntPoly((1,))


class KLTable:
    """Demand-driven Kazhdan-Lusztig table for one affine Weyl group."""

    def __init__(self, group: AffineWeylGroup):
        self.group = group
        self.memo: dict[tuple[int, int], IntPoly] = {}

    # -- core recursion ----------------------------------------------------

    def kl(self, x: int, y: int) -> IntPoly:
        if x == y:
            return ONE
        g = self.group
        if not g.bruhat_leq(x, y):
            return ZERO
        key = (x, y)
        cached = self.memo.get(key)
        if cached is not None:
            return cached

        s = g.right_descents(y)[0]
        v = g.row(y)[s]
        xs = g.row(x)[s]
        if g.length(xs) > g.length(x):
            result = self.kl(xs, y)
        else:
            result = self.kl(xs, v) + self.kl(x, v).scale_shift(1, 1)
            ly = g.length(y)
            for z in g.lower_ideal(v):
                if s in g.right_descents(z) and g.bruhat_leq(x, z):
                    m = self.mu(z, v)
                    if m:
                        result = result - self.kl(x, z).scale_shift(
                            m, (ly - g.length(z)) // 2
                        )

        self._validate(x, y, result)
        self.memo[key] = result
        return result

    def mu(self, x: int, y: int) -> int:
        """Coefficient of q^((l(y)-l(x)-1)/2) in P_{x,y}; 0 for even gaps."""
        gap = self.group.length(y) - self.group.length(x)
        if gap <= 0 or gap % 2 == 0:
            return 0
        return self.kl(x, y).coeff((gap - 1) // 2)

    def c_coeff(self, u: int, v: int, s: int) -> int:
        """Coefficient of t^s in P_{u,v} read as a polynomial in t = sqrt(q).

        P_{u,v} is a polynomial in t^2, so odd or negative s give 0.
        """
        if s < 0 or s % 2:
            return 0
        return self.kl(u, v).coeff(s // 2)

    def _validate(self, x, y, poly: IntPoly) -> None:
        gap = self.group.length(y) - self.group.length(x)
        if poly.coeff(0) != 1:
            raise InternalInvariantError(
                f"KL constant term {poly.coeff(0)} != 1 for gap {gap}"
            )
        if any(c < 0 for c in poly.coeffs):
            raise InternalInvariantError(f"negative KL coefficient in {poly!r}")
        if 2 * poly.degree > gap - 1:
            raise InternalInvariantError(
                f"KL degree bound violated: deg {poly.degree}, gap {gap}"
            )

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
        g = self.group
        records = sorted(
            (
                (g.canonical_word(x), g.canonical_word(y), list(p.coeffs))
                for (x, y), p in self.memo.items()
            ),
            key=lambda r: (len(r[1]), r[1], len(r[0]), r[0]),
        )
        path = os.fspath(path)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self._header(), sort_keys=True) + "\n")
                for xw, yw, coeffs in records:
                    fh.write(
                        json.dumps(
                            {"x": list(xw), "y": list(yw), "p_of_q": coeffs},
                            sort_keys=True,
                        )
                        + "\n"
                    )
            if os.path.exists(path):
                shutil.copymode(path, tmp)  # mkstemp makes it owner-only
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path) -> int:
        """Merge a persisted table; returns the number of records loaded.

        The whole file is rejected (CacheFormatError) on the first record
        violating the degree-bound, constant-term, or positivity invariants.
        """
        g = self.group
        staged = {}
        with open(path, "r", encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line:
                raise CacheFormatError(f"{path}: empty cache file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise CacheFormatError(f"{path}: bad header: {exc}") from exc
            expected = self._header()
            if header != expected:
                raise CacheFormatError(
                    f"{path}: header {header} does not match {expected}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                    xw = tuple(int(i) for i in rec["x"])
                    yw = tuple(int(i) for i in rec["y"])
                    poly = IntPoly(int(c) for c in rec["p_of_q"])
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    raise CacheFormatError(f"{path}:{lineno}: bad record: {exc}") from exc
                if any(not 0 <= i <= g.rs.rank for i in xw + yw):
                    raise CacheFormatError(f"{path}:{lineno}: generator index out of range")
                x, y = g.from_word(xw), g.from_word(yw)
                gap = g.length(y) - g.length(x)
                if x == y:
                    ok = poly == ONE
                else:
                    ok = (
                        g.bruhat_leq(x, y)
                        and poly.coeff(0) == 1
                        and all(c >= 0 for c in poly.coeffs)
                        and 2 * poly.degree <= gap - 1
                    )
                if not ok:
                    raise CacheFormatError(
                        f"{path}:{lineno}: record violates KL invariants "
                        f"(x={list(xw)}, y={list(yw)}, p={list(poly.coeffs)})"
                    )
                if x != y:
                    staged[(x, y)] = poly
        for key, poly in staged.items():
            existing = self.memo.get(key)
            if existing is not None and existing != poly:
                x, y = (list(g.canonical_word(z)) for z in key)
                raise CacheFormatError(
                    f"{path}: record for x={x}, y={y} conflicts with computed value"
                )
            self.memo[key] = poly
        return len(staged)
