"""The lambda = 0 red_nabla tables against Lusztig's q-analogue of weight
multiplicity, a graded oracle that uses no Kazhdan-Lusztig data.

For p > h and mu = w . 0 + p*xi with w finite and xi dominant, the
multiplicity of nabla(tau) in H^n(G_1, nabla(mu))^[-1], which is the
red_nabla table of (lambda, mu) = (0, mu) at degree n, is the coefficient of
q^((n - l(w))/2) in

    m^xi_tau(q) = sum over y in W of eps(y) P_q(y(tau + rho) - (xi + rho)),

and 0 when n - l(w) is negative or odd.  P_q is the q-analogue of Kostant's
partition function: P_q(gamma) sums q^k over the ways to write gamma as a
sum of k positive roots (Lusztig, Asterisque 101-102, 1983; Kato, Invent.
Math. 66, 1982; Andersen-Jantzen, Math. Ann. 269, 1984).  At q = 1 it is the
weight-space identity that ``weight_space_identity_check`` sums over n.

The oracle reads only root data: W with its signs from the orbit of rho,
P_q by a dynamic program over the simple coordinates of the positive roots,
and l(w) as the number of positive beta with <w(rho), beta^vee> < 0, where
w(rho) = mu + rho - p*xi.
"""

import itertools
from collections import Counter
from functools import lru_cache
from operator import mul

import pytest

from goodfilt import extmult as em
from goodfilt import roots as r
from goodfilt.extmult import MultiplicityQuery


def weyl_group(rs):
    """(y, eps(y)) for every y in W, y as the word of simple reflections
    applied right to left.  Each point v of the orbit of rho is y(rho) for
    one y; reflecting v at a negative coordinate until it reaches rho lists
    the letters of y from the left, and eps(y) = (-1)^(their number)."""
    group = []
    for v in r.weyl_orbit(rs, rs.rho):
        word = []
        while min(v) < 0:
            i = next(i for i, c in enumerate(v) if c < 0)
            v = reflect(rs, i, v)
            word.append(i)
        assert v == rs.rho
        group.append((word, (-1) ** len(word)))
    return group


def reflect(rs, i, v):
    """s_i(v) = v - <v, alpha_i^vee> alpha_i in fundamental coordinates."""
    return tuple(a - v[i] * c for a, c in zip(v, rs.simple_columns[i]))


def q_partition(rs):
    """gamma -> P_q(gamma) as {degree: coefficient}, gamma a weight."""
    roots = [b.simple_coords for b in rs.positive_roots]

    @lru_cache(maxsize=None)
    def count(gamma, k):
        # ways to write gamma with the roots k, k+1, ..., by number of roots
        if k == len(roots):
            return {} if any(gamma) else {0: 1}
        out = Counter(count(gamma, k + 1))
        uses = 1
        gamma = tuple(g - b for g, b in zip(gamma, roots[k]))
        while min(gamma) >= 0:
            for d, c in count(gamma, k + 1).items():
                out[d + uses] += c
            uses += 1
            gamma = tuple(g - b for g, b in zip(gamma, roots[k]))
        return dict(out)

    def partition(weight):
        coords = r.root_lattice_coords(rs, weight)
        return {} if coords is None or min(coords) < 0 else count(coords, 0)

    return partition


def q_analogue(rs, xi):
    """tau -> m^xi_tau(q) as {degree: coefficient}."""
    group, partition = weyl_group(rs), q_partition(rs)
    xi_rho = tuple(map(sum, zip(xi, rs.rho)))

    def m(tau):
        out = Counter()
        for word, sign in group:
            v = tuple(map(sum, zip(tau, rs.rho)))
            for i in reversed(word):
                v = reflect(rs, i, v)
            for d, c in partition(tuple(a - b for a, b in zip(v, xi_rho))).items():
                out[d] += sign * c
        return out

    return m


@pytest.mark.parametrize(
    "series, rank, p, mu, max_n",
    [("A", 1, 5, (8,), 5), ("A", 2, 7, (5, 5), 6), ("B", 2, 7, (8, 3), 8),
     ("G", 2, 13, (17, 9), 7)],
)
def test_lambda_zero_tables_match_lusztigs_q_analogue(series, rank, p, mu, max_n):
    ws = em.make_workspace(series, rank)
    rs = ws.rs
    assert p > rs.coxeter_number
    xi = em.finite_weyl_shift_decompose(ws, mu, p)
    w_rho = tuple(a + b - p * c for a, b, c in zip(mu, rs.rho, xi))
    l_w = sum(sum(map(mul, beta.coroot, w_rho)) < 0 for beta in rs.positive_roots)
    m = lru_cache(maxsize=None)(q_analogue(rs, xi))
    box = set(itertools.product(range(4), repeat=rank))
    nonzero = 0
    for n in range(max_n + 1):
        q = MultiplicityQuery("red_nabla", (0,) * rank, mu, n, p)
        table = em.multiplicity_table(ws, q).as_dict()
        k, odd = divmod(n - l_w, 2)
        for tau in box | set(table):
            want = 0 if odd or k < 0 else m(tau)[k]
            assert table.get(tau, 0) == want, (n, tau, dict(m(tau)))
            nonzero += want != 0
    assert nonzero
