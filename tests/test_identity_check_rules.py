"""Property test of the two-path identity check's rules on both sides of h.

``weight_space_identity_check(ws, mu, tau, p)`` refuses a p-singular mu
with ``SingularWeightError`` (so every mu at p < h, the Coxeter number),
refuses a mu with no unique decomposition mu = w . 0 + p*xi with
``DecompositionError``, and otherwise answers ok.  The decompositions are
counted here by brute force over a box of xi wider than the library's.
"""

import functools
import itertools

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from goodfilt import extmult as em
from goodfilt import roots as r
from goodfilt.errors import DecompositionError, SingularWeightError

# primes on both sides of h: A2 h = 3, B2 h = 4, G2 h = 6, A3 h = 4, B3 h = 6
PRIMES = {
    ("A", 2): (2, 3, 5, 7),
    ("B", 2): (2, 3, 5, 7),
    ("G", 2): (2, 3, 5, 7, 11),
    ("A", 3): (2, 3, 5),
    ("B", 3): (3, 7),
}
CASES = [(series, rank, p) for (series, rank), ps in PRIMES.items() for p in ps]


@functools.lru_cache(maxsize=None)
def workspace(series, rank):
    return em.make_workspace(series, rank)


@functools.lru_cache(maxsize=None)
def rho_orbit(series, rank):
    rs = workspace(series, rank).rs
    return r.weyl_orbit(rs, rs.rho)


@st.composite
def identity_cases(draw):
    series, rank, p = draw(st.sampled_from(CASES))
    rs = workspace(series, rank).rs
    if draw(st.booleans()):  # mu = w . 0 + p*xi, which may still be p-singular
        v = draw(st.sampled_from(sorted(rho_orbit(series, rank))))
        xi = draw(st.tuples(*[st.integers(0, 2)] * rank))
        mu = tuple(a - b + p * c for a, b, c in zip(v, rs.rho, xi))
        assume(min(mu) >= 0)
    else:
        mu = draw(st.tuples(*[st.integers(0, 2 * p + rs.coxeter_number)] * rank))
    tau = draw(st.tuples(*[st.integers(0, 2 if rank == 2 else 1)] * rank))
    return series, rank, p, mu, tau


def decompositions(series, rank, mu, p):
    """Every dominant xi with mu + rho - p*xi in W(rho).  A coordinate of
    w(rho) is at least 1 - h, so p*xi_i <= mu_i + h; the box doubles that."""
    rs = workspace(series, rank).rs
    orbit, h = rho_orbit(series, rank), rs.coxeter_number
    box = [range((m + 2 * h) // p + 1) for m in mu]
    return [
        xi for xi in itertools.product(*box)
        if tuple(m + c - p * x for m, c, x in zip(mu, rs.rho, xi)) in orbit
    ]


@settings(max_examples=400, deadline=None)
@given(identity_cases())
def test_identity_check_refuses_or_answers_ok(case):
    series, rank, p, mu, tau = case
    ws = workspace(series, rank)
    regular = ws.group.is_p_regular(mu, p)
    if p < ws.rs.coxeter_number:
        assert not regular  # no weight is p-regular below h
    if not regular:
        event("p-singular")
        with pytest.raises(SingularWeightError) as exc:
            em.weight_space_identity_check(ws, mu, tau, p)
        assert exc.value.weight == mu
        return
    found = decompositions(series, rank, mu, p)
    if len(found) != 1:
        event("no unique decomposition")
        with pytest.raises(DecompositionError):
            em.weight_space_identity_check(ws, mu, tau, p)
        return
    res = em.weight_space_identity_check(ws, mu, tau, p)
    event("ok, lhs > 0" if res.lhs else "ok, lhs = 0")
    assert res.ok and res.xi == found[0], res
