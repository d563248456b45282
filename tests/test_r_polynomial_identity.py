"""An independent KL oracle: the R-polynomial identity of Kazhdan-Lusztig
(Invent. Math. 53, 1979),

    q^(l(w)-l(x)) P_{x,w}(1/q) = sum over y of R_{x,y}(q) P_{y,w}(q),

on seeded pairs (x, w), with P from the table and R from the group's rows
and lengths alone.  For s with ws < w,

    R_{x,w} = R_{xs,ws}                          if xs < x,
    R_{x,w} = (q - 1) R_{x,ws} + q R_{xs,ws}     otherwise,

with R_{x,e} = delta_{x,e}.  So R reads neither Bruhat order nor the KL
table: R_{x,y} vanishes off x <= y by the recursion itself, and the sum
runs over every y with l(x) <= l(y) <= l(w).  The pairs are mostly not
flagged, so this holds the recursion that only ``goodfilt kl`` reaches
(``lower_ideal`` and the unflagged branch of ``_mu_candidates``).
"""

import random

import pytest

from goodfilt.affine import AffineWeylGroup
from goodfilt.klpoly import KLTable
from goodfilt.roots import build_root_system

from test_finite_a3_oracle import padd, pmul, trim

# (series, rank, length bound, number of sampled w): under a second each
CASES = [("A", 1, 40, 16), ("A", 2, 11, 16), ("B", 2, 11, 16), ("G", 2, 12, 16)]


def r_polynomials(g):
    """R_{x,w} by the descent recursion, from ``g.row`` and ``g.length`` only."""
    memo = {}

    def r(x, w):
        lx, lw = g.length(x), g.length(w)
        if lx > lw:
            return []
        if lw == 0:
            return [1] if x == w else []
        key = (x, w)
        if key not in memo:
            s = next(i for i, v in enumerate(g.row(w)) if g.length(v) < lw)
            ws, xs = g.row(w)[s], g.row(x)[s]
            if g.length(xs) < lx:
                memo[key] = r(xs, ws)
            else:
                memo[key] = padd(pmul([-1, 1], r(x, ws)), pmul([0, 1], r(xs, ws)))
        return memo[key]

    return r


@pytest.mark.parametrize("series, rank, bound, samples", CASES)
def test_kl_polynomials_satisfy_the_r_polynomial_identity(series, rank, bound, samples):
    g = AffineWeylGroup(build_root_system(series, rank))
    table, r = KLTable(g), r_polynomials(g)
    elements = g.elements_up_to_length(bound)
    rng = random.Random(f"{series}{rank}")
    checked = nontrivial = unflagged = 0
    for w in rng.sample(elements, samples) + [elements[-1]]:
        lw = g.length(w)
        below = [y for y in elements if g.length(y) <= lw]
        for x in below:
            lx = g.length(x)
            p = list(table.kl(x, w))
            lhs = [0] * (lw - lx + 1)
            for i, c in enumerate(p):  # q^(l(w)-l(x)) P_{x,w}(1/q)
                lhs[lw - lx - i] += c
            rhs = []
            for y in below:
                if g.length(y) >= lx:
                    rhs = padd(rhs, pmul(r(x, y), list(table.kl(y, w))))
            assert trim(lhs) == rhs, (series, g.canonical_word(x), g.canonical_word(w))
            checked += 1
            nontrivial += len(p) > 1
            unflagged += bool(p) and not g.is_dominant(w)
    assert checked > 900 and unflagged
    assert nontrivial or rank == 1  # every P of affine A1 is 1
