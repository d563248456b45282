"""Every public function that reduces or locates modulo p refuses a p that is
not prime, with the one message of ``roots.check_prime``."""

import re

import pytest

from goodfilt import affine, roots
from goodfilt import extmult as em
from goodfilt.affine import AffineWeylGroup, restricted_decompose
from goodfilt.errors import ConfigurationError
from goodfilt.klpoly import KLTable
from goodfilt.roots import build_root_system

NOT_PRIME = [0, 1, 4, 9, True, 5.0, -7]


def refusal(p):
    return pytest.raises(ConfigurationError, match=rf"^p={re.escape(repr(p))} is not prime$")


def affine_calls(g, p):
    rs = g.rs
    return {
        "dot": lambda: g.dot(g.identity, (2,), p),
        "locate": lambda: g.locate((1,), p),
        "linked": lambda: g.linked((1,), (7,), p),
        "is_p_regular": lambda: g.is_p_regular((1,), p),
        "assert_p_regular": lambda: g.assert_p_regular((1,), p),
        "dominant_length": lambda: g.dominant_length((1,), p),
        "restricted_decompose": lambda: restricted_decompose(rs, (3,), p),
        "dominant_orbit": lambda: g.dominant_orbit((-2,), p, 4),  # -2 is in C_4^- and C_9^-
    }


def extmult_calls(ws, p):
    return {
        "small_c": lambda: em.small_c(ws, (0,), (8,), 1, p),
        "big_C": lambda: em.big_C(ws, (1,), (5,), 1, p),
        "ext_dim_G_red_red": lambda: em.ext_dim_G_red_red(ws, (1,), (5,), 1, p),
        "multiplicity_table": lambda: em.multiplicity_table(
            ws, em.MultiplicityQuery("red_nabla", (0,), (8,), 1, p)
        ),
        "finite_weyl_shift_decompose": lambda: em.finite_weyl_shift_decompose(ws, (8,), p),
        "weight_space_identity_check": lambda: em.weight_space_identity_check(ws, (8,), (2,), p),
        "run_identity_box": lambda: em.run_identity_box(ws, p, 12),
    }


@pytest.mark.parametrize("p", NOT_PRIME, ids=repr)
def test_affine_functions_refuse_a_p_that_is_not_prime(p):
    g = AffineWeylGroup(build_root_system("A", 1))
    for call in affine_calls(g, p).values():
        with refusal(p):
            call()
    assert g.stats()["locate_memo"] == 0


@pytest.mark.parametrize("p", NOT_PRIME, ids=repr)
def test_extmult_functions_refuse_a_p_that_is_not_prime(p):
    ws = em.make_workspace("A", 1)  # its group is shared, so compare sizes
    memo = ws.stats()["locate_memo"]
    for call in extmult_calls(ws, p).values():
        with refusal(p):
            call()
    assert ws.stats()["locate_memo"] == memo


def test_a_served_prime_does_not_open_the_memo_to_its_float():
    # (lam, 5.0) hashes like (lam, 5), so the check comes before the lookup
    g = AffineWeylGroup(build_root_system("A", 1))
    assert g.locate((1,), 5).length == 1
    assert g.linked((1,), (7,), 5)
    for call in (lambda: g.locate((1,), 5.0), lambda: g.linked((1,), (7,), 5.0)):
        with refusal(5.0):
            call()
    ws = em.make_workspace("A", 1)
    em.small_c(ws, (0,), (8,), 1, 5)  # serves the locate memo at 5
    with refusal(5.0):
        em.small_c(ws, (0,), (8,), 1, 5.0)


def test_a_repeat_query_trial_divides_its_prime_once(monkeypatch):
    # only checked primes enter the locate memo, so a hit at an int p needs no check
    real, calls = roots.check_prime, []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(affine, "check_prime", counted)
    monkeypatch.setattr(roots, "check_prime", counted)
    g = AffineWeylGroup(build_root_system("A", 2))
    ws = em.Workspace(g.rs, g, KLTable(g))
    q = em.MultiplicityQuery("red_nabla", (0, 0), (8, 3), 2, 7)
    em.multiplicity_table(ws, q)
    calls.clear()
    em.multiplicity_table(ws, q)
    assert calls == [7]


def test_the_prime_functions_still_answer_at_a_prime():
    g = AffineWeylGroup(build_root_system("A", 1))
    for call in affine_calls(g, 5).values():
        call()
    ws = em.make_workspace("A", 1)
    for call in extmult_calls(ws, 5).values():
        call()


def test_a_fresh_query_trial_divides_its_prime_once(monkeypatch):
    # in MultiplicityQuery.validated; the table then locates its partner
    # through the unchecked core of locate
    real, calls = roots.check_prime, []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(affine, "check_prime", counted)
    monkeypatch.setattr(roots, "check_prime", counted)
    g = AffineWeylGroup(build_root_system("A", 2))
    ws = em.Workspace(g.rs, g, KLTable(g))
    em.multiplicity_table(ws, em.MultiplicityQuery("red_nabla", (0, 0), (8, 3), 2, 7))
    assert calls == [7]


def test_an_identity_check_trial_divides_its_prime_once(monkeypatch):
    # in weight_space_identity_check; its regularity test, decomposition,
    # lengths and the table of each degree (here n = 0 and 2) call unchecked cores
    real, calls = roots.check_prime, []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(affine, "check_prime", counted)
    monkeypatch.setattr(roots, "check_prime", counted)
    g = AffineWeylGroup(build_root_system("A", 1))
    ws = em.Workspace(g.rs, g, KLTable(g))
    assert em.weight_space_identity_check(ws, (0,), (1,), 5).ok
    assert calls == [5]
    calls.clear()
    assert em.run_identity_box(ws, 5, 12)["cases"] == 5
    assert calls == [5]
