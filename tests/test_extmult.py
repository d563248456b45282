import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots as r
from goodfilt.affine import AffineWeylGroup, restricted_decompose
from goodfilt.errors import (
    ConfigurationError,
    DecompositionError,
    DimensionMismatchError,
    PreconditionError,
    SingularWeightError,
)
from goodfilt.extmult import MultiplicityQuery
from goodfilt.klpoly import KLTable

from reference_tables import (  # tests/ is on the path
    friedlander_parshall_top,
    reference_multiplicity_table,
)


@pytest.fixture(scope="module")
def a1():
    return em.make_workspace("A", 1)


@pytest.fixture(scope="module")
def a2():
    return em.make_workspace("A", 2)


def table_dict(ws, variant, lam, mu, n, p, omegas=None):
    t = em.multiplicity_table(ws, MultiplicityQuery(variant, tuple(lam), tuple(mu), n, p), omegas)
    return t.as_dict()


def as_tables_read(ws, q):
    """q, or for delta_red the red_nabla query of the dual pair (mu*, lam*),
    which is how ``multiplicity_table`` answers it."""
    if q.variant != "delta_red":
        return q
    return MultiplicityQuery("red_nabla", r.star(ws.rs, q.mu), r.star(ws.rs, q.lam), q.n, q.p)


# ---- small_c / big_C fixtures -----------------------------------------------


def test_ext_dim_pair_unlinked_is_zero(a1):
    # [2] and [0] lie in different linkage classes at p = 5
    for n in range(4):
        assert em.small_c(a1, (0,), (2,), n, 5) == 0


def test_ext_dim_pair_diagonal(a1):
    assert em.small_c(a1, (2,), (2,), 0, 5) == 1
    assert em.small_c(a1, (2,), (2,), 1, 5) == 0


def test_ext_dim_pair_a1_fixture(a1):
    # lambda_red = [8] (length 2), nu = [0] (length 1): dimension 1 at n = 1
    for n in range(5):
        assert em.small_c(a1, (0,), (8,), n, 5) == (1 if n == 1 else 0)


def test_ext_dim_pair_singular_rejected(a1):
    with pytest.raises(SingularWeightError):
        em.small_c(a1, (0,), (4,), 0, 5)


def test_small_c_fixtures(a1):
    for n in range(5):
        assert em.small_c(a1, (0,), (8,), n, 5) == (1 if n == 1 else 0)
    assert em.small_c(a1, (2,), (2,), 0, 5) == 1
    assert em.small_c(a1, (2,), (0,), 0, 5) == 0  # different orbits


def test_big_c_fixtures(a1):
    for n in range(6):
        assert em.big_C(a1, (12,), (2,), n, 5) == (1 if n == 2 else 0)
    for lam in [(0,), (1,), (2,), (3,)]:
        assert em.big_C(a1, lam, lam, 0, 5) == 1
    assert em.big_C(a1, (2,), (0,), 0, 5) == 0


def test_big_c_orthogonality_one_orbit(a1):
    # [2] and [6] share the antidominant representative [-4] at p = 5
    assert a1.group.linked((2,), (6,), 5)
    assert em.big_C(a1, (2,), (6,), 0, 5) == 0
    assert em.big_C(a1, (6,), (6,), 0, 5) == 1


def test_parity_vanishing(a1):
    g = a1.group
    for lam, mu in [((2,), (12,)), ((2,), (22,)), ((6,), (12,))]:
        gap = g.locate(lam, 5).length - g.locate(mu, 5).length
        for n in range(7):
            if (n - gap) % 2:
                assert em.big_C(a1, lam, mu, n, 5) == 0


def test_big_c_off_parity_does_no_kl_work():
    ws = em.make_workspace("B", 2)
    lam, mu, p = (9, 19), (4, 25), 7
    g = ws.group
    assert (g.locate(lam, p).length + g.locate(mu, p).length - 1) % 2
    assert em.big_C(ws, lam, mu, 1, p) == 0
    assert not ws.table.memo
    assert em.ext_dim_G_red_red(ws, lam, mu, 1, p) == 0


def test_factorization_consistency_fixture(a1):
    assert em.ext_dim_G_red_red(a1, (12,), (2,), 2, 5) == 1
    for n in range(6):
        assert em.ext_dim_G_red_red(a1, (12,), (2,), n, 5) == em.big_C(
            a1, (12,), (2,), n, 5
        )


def test_factorization_consistency_random(a1, a2):
    rng = random.Random(20240811)
    for ws, p in [(a1, 5), (a1, 7), (a2, 7)]:
        pool = {}
        for _, wt in ws.group.dominant_orbit(
            ws.group.locate(tuple([0] * ws.rs.rank), p).antidominant_rep, p, 6
        ):
            pool.setdefault(wt, None)
        pool = sorted(pool)
        for _ in range(60):
            lam, mu = rng.choice(pool), rng.choice(pool)
            n = rng.randrange(0, 6)
            assert em.ext_dim_G_red_red(ws, lam, mu, n, p) == em.big_C(ws, lam, mu, n, p)


# ---- multiplicity tables -----------------------------------------------------


def test_red_red_fixture_tables(a1):
    assert table_dict(a1, "red_red", (2,), (2,), 0, 5) == {(0,): 1}
    assert table_dict(a1, "red_red", (2,), (2,), 1, 5) == {}
    assert table_dict(a1, "red_red", (2,), (2,), 2, 5) == {(2,): 1}


def test_red_nabla_fixture_tables(a1):
    assert table_dict(a1, "red_nabla", (0,), (8,), 0, 5) == {}
    assert table_dict(a1, "red_nabla", (0,), (8,), 1, 5) == {(2,): 1}
    assert table_dict(a1, "red_nabla", (0,), (8,), 2, 5) == {}
    # odd degrees beyond 1 stay nonempty: the Frobenius kernel has cohomology
    # in all odd degrees here, consistent with the weight-space identity below
    assert table_dict(a1, "red_nabla", (0,), (8,), 3, 5) == {(4,): 1}
    assert table_dict(a1, "red_nabla", (0,), (8,), 4, 5) == {}
    assert table_dict(a1, "red_nabla", (0,), (8,), 5, 5) == {(6,): 1}


def test_unlinked_weights_give_empty_table(a1):
    assert table_dict(a1, "red_red", (2,), (0,), 0, 5) == {}
    assert table_dict(a1, "red_nabla", (2,), (0,), 1, 5) == {}
    assert table_dict(a1, "delta_red", (2,), (0,), 1, 5) == {}


def test_omega_filter_matches_full_table(a1):
    full = table_dict(a1, "red_nabla", (0,), (8,), 3, 5)
    assert table_dict(a1, "red_nabla", (0,), (8,), 3, 5, omegas=[(4,)]) == {
        (4,): full[(4,)]
    }
    assert table_dict(a1, "red_nabla", (0,), (8,), 3, 5, omegas=[(0,)]) == {}


# (workspace, variant, lam, mu, n, p, omegas, exception, message)
MALFORMED_QUERIES = [
    ("a2", "red_red", (1.0, 0), (1, 0), 0, 7, None, ConfigurationError,
     "weight (1.0, 0) has a coordinate that is not an int"),
    ("a2", "red_red", (1, 0), ("1", 0), 0, 7, None, ConfigurationError,
     "weight ('1', 0) has a coordinate that is not an int"),
    ("a2", "red_red", (True, 0), (1, 0), 0, 7, None, ConfigurationError,
     "weight (True, 0) has a coordinate that is not an int"),
    ("a2", "red_red", (1, 0), (1,), 0, 7, None, DimensionMismatchError,
     "weight (1,) has 1 coordinates, expected 2 for RootSystem(A2)"),
    ("a2", "red_red", (1, -1), (1, 0), 0, 7, None, PreconditionError,
     "multiplicity table requires a dominant weight, got (1, -1)"),
    ("a2", "red_red", (5, 0), (1, 0), 0, 7, None, SingularWeightError,
     "weight (5, 0) is p-singular for p=7: pairing 7 with coroot (1, 1) is divisible by 7"),
    ("a2", "red_red", (1, 0), (0, 6), 0, 7, None, SingularWeightError,
     "weight (0, 6) is p-singular for p=7: pairing 7 with coroot (0, 1) is divisible by 7"),
    ("a1", "red_red", (2,), (2,), 0, 6, None, ConfigurationError, "p=6 is not prime"),
    ("a1", "red_red", (2,), (2,), 0, True, None, ConfigurationError, "p=True is not prime"),
    # 1.0 used to crash in a slice, True to answer n = 1
    ("a1", "red_nabla", (0,), (8,), -1, 5, None, ConfigurationError,
     "n must be a nonnegative int, got n=-1"),
    ("a1", "red_nabla", (0,), (8,), 1.0, 5, None, ConfigurationError,
     "n must be a nonnegative int, got n=1.0"),
    ("a1", "red_nabla", (0,), (8,), True, 5, None, ConfigurationError,
     "n must be a nonnegative int, got n=True"),
    ("a1", "bogus", (2,), (2,), 0, 5, None, ConfigurationError,
     "unknown variant 'bogus'; expected one of ('red_red', 'delta_red', 'red_nabla')"),
    ("a2", "red_nabla", (0, 0), (1, 0), 0, 7, [(1.0, 0)], ConfigurationError,
     "weight (1.0, 0) has a coordinate that is not an int"),
]


def test_query_validation(a1, a2):
    spaces = {"a1": a1, "a2": a2}
    for ws, variant, lam, mu, n, p, omegas, exc, message in MALFORMED_QUERIES:
        with pytest.raises(exc) as info:
            em.multiplicity_table(spaces[ws], MultiplicityQuery(variant, lam, mu, n, p), omegas)
        assert str(info.value) == message


def test_advisories_at_the_jantzen_bound():
    # <w+rho, alpha_0^vee> = p(p-h+2) is a multiple of p, so a weight on the
    # bound is p-singular and no table can be asked for it: the edge belongs
    # to roots.in_jantzen_region.  The CLI's advisory lines are pinned in
    # tests/test_cli_golden.py.
    for series, p, small in (("A", 7, 3), ("B", 7, 5), ("G", 13, 7)):
        ws = em.make_workspace(series, 2)
        coroot, bound = ws.rs.highest_short_root.coroot, r.jantzen_bound(ws.rs, p)
        inside, outside = (
            next(
                (a, b) for b in range(pairing) for a in range(pairing)
                if coroot[0] * (a + 1) + coroot[1] * (b + 1) == pairing
                and (pairing == bound or ws.group.is_p_regular((a, b), p))
            )
            for pairing in (bound, bound + 1)
        )
        assert r.in_jantzen_region(ws.rs, inside, p)
        assert not r.in_jantzen_region(ws.rs, outside, p)
        zero = (0, 0)
        with pytest.raises(SingularWeightError):
            em.multiplicity_table(ws, MultiplicityQuery("red_red", zero, inside, 0, p), [])
        # a weight outside the region is answered all the same
        query = MultiplicityQuery("red_red", zero, outside, 0, p)
        assert em.multiplicity_table(ws, query, []) == {}
        # a prime below 2h-2 is flagged by roots.validate_p, and its table answered
        h = ws.rs.coxeter_number
        assert r.validate_p(ws.rs, small).warnings == (f"p={small} < 2h-2 = {2 * h - 2} for {series}2",)
        assert r.validate_p(ws.rs, p).ok
        assert em.multiplicity_table(ws, MultiplicityQuery("red_red", zero, zero, 0, small))


def test_advisories(a2):
    # a table holds only its entries, at a prime below 2h-2 as at any other;
    # the hypotheses are asked of roots, and the CLI reports them
    assert issubclass(em.MultiplicityTable, dict)
    t = em.multiplicity_table(a2, MultiplicityQuery("red_red", (1, 1), (1, 1), 0, 3))
    assert t == {(0, 0): 1}
    assert any("2h-2" in w for w in r.validate_p(a2.rs, 3).warnings)
    t2 = em.multiplicity_table(a2, MultiplicityQuery("red_red", (1, 1), (1, 1), 0, 7))
    assert t2 == {(0, 0): 1}
    assert r.validate_p(a2.rs, 7).ok and r.in_jantzen_region(a2.rs, (1, 1), 7)


def test_entrywise_degree_vanishing(a1):
    # for a fixed constituent the degrees supporting it are finite
    for omega in [(0,), (2,), (4,)]:
        shifted = tuple(5 * x for x in omega)
        if not a1.group.is_p_regular(shifted, 5):
            continue
        n_max = a1.group.locate(shifted, 5).length - a1.group.locate((8,), 5).length
        for n in range(max(n_max, 0) + 1, max(n_max, 0) + 4):
            assert table_dict(a1, "red_nabla", (0,), (8,), n, 5, omegas=[omega]) == {}


# ---- Remark-style two-path identity -----------------------------------------


def test_finite_weyl_shift_decompose(a1):
    assert em.finite_weyl_shift_decompose(a1, (8,), 5) == (2,)
    assert em.finite_weyl_shift_decompose(a1, (10,), 5) == (2,)  # 10 = 0 + 5*2
    with pytest.raises(DecompositionError):
        em.finite_weyl_shift_decompose(a1, (7,), 5)


def reference_shift_decompositions(rs, mu, p):
    """Every dominant xi with mu + rho - p*xi in the finite orbit of rho."""
    out = []
    for v in r.weyl_orbit(rs, rs.rho):
        diff = [m + r - c for m, r, c in zip(mu, rs.rho, v)]
        if all(d % p == 0 and d >= 0 for d in diff):
            out.append(tuple(d // p for d in diff))
    return sorted(out)


@pytest.mark.parametrize(
    "series, rank, primes",
    [("A", 2, (2, 3, 5, 7)), ("B", 2, (2, 3, 5, 7)), ("G", 2, (2, 3, 5, 7, 11, 13)),
     ("A", 3, (2, 3, 5)), ("C", 3, (2, 3, 5, 7))],
)
def test_finite_weyl_shift_decompose_matches_the_orbit_scan(series, rank, primes):
    # p < h included, where w(rho) has coordinates below -p + 1: G2 at p = 3
    # has (0, 1) = w . 0 + 3*(2, 0) with w(rho) = (-5, 2)
    ws = em.make_workspace(series, rank)
    for p in primes:
        for mu in itertools.product(range(3 * p), repeat=rank):
            want = reference_shift_decompositions(ws.rs, mu, p)
            if len(want) == 1:
                assert em.finite_weyl_shift_decompose(ws, mu, p) == want[0], (mu, p)
            else:
                message = "no decomposition" if not want else "multiple decompositions"
                with pytest.raises(DecompositionError, match=message):
                    em.finite_weyl_shift_decompose(ws, mu, p)


@pytest.mark.parametrize("p", [0, 4, 9, True])
def test_kl_factors_and_identities_refuse_a_p_that_is_not_prime(a1, p):
    calls = [
        lambda: em.small_c(a1, (0,), (8,), 1, p),
        lambda: em.big_C(a1, (1,), (5,), 1, p),
        lambda: em.ext_dim_G_red_red(a1, (1,), (5,), 1, p),
        lambda: em.finite_weyl_shift_decompose(a1, (8,), p),
        lambda: em.weight_space_identity_check(a1, (8,), (2,), p),
        lambda: em.run_identity_box(a1, p, 12),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match=rf"^p={p!r} is not prime$"):
            call()


def test_weight_space_identity_fixtures(a1):
    res = em.weight_space_identity_check(a1, (8,), (2,), 5)
    assert (res.lhs, res.rhs, res.xi) == (1, 1, (2,))
    res0 = em.weight_space_identity_check(a1, (8,), (0,), 5)
    assert (res0.lhs, res0.rhs) == (0, 0)
    res4 = em.weight_space_identity_check(a1, (8,), (4,), 5)
    assert res4.ok and res4.lhs == 1


def test_weight_space_identity_small_box(a1):
    for mu_val in range(0, 25):
        mu = (mu_val,)
        if not a1.group.is_p_regular(mu, 5):
            continue
        try:
            em.finite_weyl_shift_decompose(a1, mu, 5)
        except DecompositionError:
            continue
        for tau_val in range(0, 8):
            res = em.weight_space_identity_check(a1, mu, (tau_val,), 5)
            assert res.ok, (mu, tau_val, res)


def test_weight_space_identity_a2(a2):
    # mu = s_1 . 0 + 7*(1, 0) = (5, 1)
    res = em.weight_space_identity_check(a2, (5, 1), (1, 0), 7)
    assert res.xi == (1, 0)
    assert res.ok and res.lhs == 1


def test_weight_space_identity_b2():
    ws = em.make_workspace("B", 2)
    p = 7  # h = 4, so p >= 2h-2
    hits = 0
    for mu in itertools.product(range(10), repeat=2):
        if not ws.group.is_p_regular(mu, p):
            continue
        try:
            em.finite_weyl_shift_decompose(ws, mu, p)
        except DecompositionError:
            continue
        for tau in itertools.product(range(3), repeat=2):
            res = em.weight_space_identity_check(ws, mu, tau, p)
            assert res.ok, (mu, tau, res)
            if res.lhs:
                hits += 1
    assert hits > 0


def test_weight_space_identity_g2():
    # triple edge, two root lengths, h = 6: the hardest rank-2 geometry
    ws = em.make_workspace("G", 2)
    p = 11
    hits = 0
    for mu in itertools.product(range(12), repeat=2):
        if not ws.group.is_p_regular(mu, p):
            continue
        try:
            em.finite_weyl_shift_decompose(ws, mu, p)
        except DecompositionError:
            continue
        for tau in itertools.product(range(2), repeat=2):
            res = em.weight_space_identity_check(ws, mu, tau, p)
            assert res.ok, (mu, tau, res)
            if res.lhs:
                hits += 1
    assert hits > 0



def test_identity_check_refuses_a_p_singular_mu_below_h():
    # no weight is p-regular below h (G2: h = 6), so every table refuses; the
    # check refuses mu by the tables' own rule, naming it, not answering lhs = 0
    ws = em.make_workspace("G", 2)
    with pytest.raises(SingularWeightError, match=r"^weight \(0, 1\) is p-singular for p=3"):
        em.weight_space_identity_check(ws, (0, 1), (0, 2), 3)


@pytest.mark.parametrize("mu", [(-2, 1), (5, -1)])
def test_identity_check_refuses_a_non_dominant_mu_as_a_table_does(a2, mu):
    # (-2, 1) = s_1 . 0 is 7-regular and decomposes; (5, -1) is 7-singular
    query = MultiplicityQuery("red_nabla", (0, 0), mu, 0, 7)
    got = rf" requires a dominant weight, got \({mu[0]}, {mu[1]}\)$"
    with pytest.raises(PreconditionError, match="^multiplicity table" + got):
        em.multiplicity_table(a2, query)
    with pytest.raises(PreconditionError, match="^identity check" + got):
        em.weight_space_identity_check(a2, mu, (0, 0), 7)


def test_identity_check_decomposes_mu_before_checking_its_taus(a2):
    # mu = (1, 0) is 7-regular but not w . 0 + 7*xi: refused before any tau is read
    assert a2.group.is_p_regular((1, 0), 7)
    with pytest.raises(DecompositionError, match=r"^mu=\[1, 0\] has no decomposition"):
        em.weight_space_identity_check(a2, (1, 0), "bad", 7)


def test_a_table_is_a_dict_read_in_place(a2):
    t = em.multiplicity_table(a2, MultiplicityQuery("delta_red", (1, 1), (1, 1), 0, 7))
    assert isinstance(t, dict) and t == {(0, 0): 1}
    assert t.get([0, 0]) == 1 and t.get((5, 5)) == 0 and t.get([5, 5], None) is None
    plain = t.as_dict()
    assert type(plain) is dict and plain is not t and plain == t


@pytest.mark.parametrize("series, p, mu_pairing, tau_pairing", [("A", 7, 20, 12), ("G", 13, 26, 20)])
def test_identity_checks_of_a_mu_equal_its_one_tau_checks(series, p, mu_pairing, tau_pairing):
    # the batch's multi-omega lambda = 0 tables against one-omega tables,
    # each side in a fresh workspace
    batch, single = em.make_workspace(series, 2), em.make_workspace(series, 2)
    taus = em._box_weights(batch.rs, tau_pairing)
    cases = 0
    for mu in em._box_weights(batch.rs, mu_pairing):
        if not batch.group.is_p_regular(mu, p):
            continue
        try:
            results = em._identity_checks(batch, mu, taus, p)
        except DecompositionError:
            continue
        cases += 1
        # IdentityCheckResult compares lhs, rhs, xi, mu and tau
        assert results == [em.weight_space_identity_check(single, mu, tau, p) for tau in taus], mu
    assert cases > 0
    assert batch.table.memo == single.table.memo


def test_identity_box_builds_one_table_per_mu_and_degree(monkeypatch):
    # the box calls the table's unchecked core, its prime checked once
    real, queries = em._multiplicity_table, []

    def counted(ws, query, omegas):
        queries.append((query.mu, query.n))
        return real(ws, query, omegas)

    monkeypatch.setattr(em, "_multiplicity_table", counted)
    result = em.run_identity_box(em.make_workspace("A", 2), 7, 40)
    assert len(queries) == len(set(queries))
    assert len({mu for mu, _ in queries}) == result["cases"] == 91


def test_identity_box_builds_tables_only_for_degrees_of_its_taus_parity(monkeypatch):
    # tau's factor in degree n is the coefficient of t^(top - n) in a polynomial
    # in t^2, top = l(p*tau) - l(mu), so tau is asked only at n <= top, n = top mod 2
    real, tables = em._multiplicity_table, []

    def counted(ws, query, omegas):
        tables.append((query, omegas))
        return real(ws, query, omegas)

    monkeypatch.setattr(em, "_multiplicity_table", counted)
    ws = em.make_workspace("A", 2)
    g = ws.group
    em.run_identity_box(ws, 7, 40)
    for q, omegas in tables:
        for tau in omegas:
            top = g.dominant_length(tuple(7 * t for t in tau), 7) - g.dominant_length(q.mu, 7)
            assert 0 <= q.n <= top and (top - q.n) % 2 == 0, (q, tau)
    assert len(tables) <= 647  # 1,163 when every degree up to top was asked
    assert sum(len(omegas) for _, omegas in tables) <= 19310  # 35,452


@pytest.mark.parametrize(
    "series, rank, p, max_pairing, counts",
    [("A", 1, 5, 50, (20, 190)), ("A", 2, 7, 40, (91, 4948)),
     ("B", 2, 7, 40, (66, 2858)), ("G", 2, 13, 40, (9, 196))],
)
def test_identity_box_window(series, rank, p, max_pairing, counts):
    result = em.run_identity_box(em.make_workspace(series, rank), p, max_pairing)
    assert (result["cases"], result["tau_checks"]) == counts
    assert result["failures"] == []

@pytest.mark.parametrize("max_pairing", [-5, 0, 2])
def test_identity_box_without_a_decomposable_regular_mu_is_refused(max_pairing):
    # <0 + rho, alpha_0^vee> = 2 on A2, so no dominant mu lies below 2
    with pytest.raises(ConfigurationError, match=rf"^max_pairing={max_pairing} leaves no "):
        em.run_identity_box(em.make_workspace("A", 2), 7, max_pairing)


def test_small_c_star_equivariance(a2):
    p = 7
    pool = sorted(
        {wt for _, wt in a2.group.dominant_orbit(
            a2.group.locate((1, 0), p).antidominant_rep, p, 5
        )}
    )
    star = lambda w: r.star(a2.rs, w)
    checked = 0
    for lam, mu in itertools.product(pool, repeat=2):
        for n in range(4):
            assert em.small_c(a2, lam, mu, n, p) == em.small_c(
                a2, star(lam), star(mu), n, p
            )
            checked += 1
    assert checked


def test_full_mode_agrees_with_omega_mode(a2):
    # the full table must match the dominance-bounded per-omega path on
    # every reported entry, and report nothing beyond it
    p = 7
    pool = sorted(
        {wt for _, wt in a2.group.dominant_orbit(
            a2.group.locate((1, 0), p).antidominant_rep, p, 4
        )}
    )
    for lam in pool[:3]:
        for mu in pool[:3]:
            for variant in ("red_red", "delta_red", "red_nabla"):
                for n in range(3):
                    q = MultiplicityQuery(variant, lam, mu, n, p)
                    full = em.multiplicity_table(a2, q).as_dict()
                    for omega, mult in full.items():
                        per = em.multiplicity_table(a2, q, omegas=[omega])
                        assert per.get(omega) == mult, (variant, lam, mu, n, omega)
    # and the full table must not drop entries the omega path finds: asked
    # for its own entries and a box around them, omega mode answers the
    # full table.  B2 needs orbit bound 8 (at 4 its pool holds one weight).
    b2, g2 = em.make_workspace("B", 2), em.make_workspace("G", 2)

    def orbit(ws, p, weight, bound):
        g = ws.group
        return sorted({wt for _, wt in g.dominant_orbit(g.locate(weight, p).antidominant_rep, p, bound)})

    b2_pool, g2_pool = orbit(b2, 7, (1, 0), 8), orbit(g2, 13, (1, 0), 14)
    cases = [
        (a2, 7, pool[0], pool[1], 6),
        (b2, 7, b2_pool[0], b2_pool[0], 6),
        (b2, 7, b2_pool[0], b2_pool[2], 6),
        (g2, 13, g2_pool[0], g2_pool[1], 4),
        (g2, 13, g2_pool[1], g2_pool[0], 4),
    ]
    nonempty = {"A": 0, "B": 0, "G": 0}
    for ws, p, lam, mu, box in cases:
        for variant in em.VARIANTS:
            for n in range(7):
                q = MultiplicityQuery(variant, lam, mu, n, p)
                full = em.multiplicity_table(ws, q).as_dict()
                nonempty[ws.rs.series] += bool(full)
                omegas = set(itertools.product(range(box), repeat=2)) | set(full)
                per = em.multiplicity_table(ws, q, omegas=omegas).as_dict()
                assert per == full, (ws.rs.series, variant, lam, mu, n)
    assert all(nonempty.values()), nonempty


@pytest.mark.parametrize(
    "series, p, variant, lam, mu, n, size, asked",
    [
        ("G", 13, "red_red", (23, 3), (14, 1), 1, 6, None),
        ("B", 7, "delta_red", (0, 0), (5, 2), 3, 4, None),
        # ask four low entries, each undercounted by the old window
        ("B", 7, "red_red", (19, 16), (8, 12), 4, 30, [(0, 0), (0, 2), (1, 0), (1, 2)]),
    ],
)
def test_full_tables_past_the_old_length_window(series, p, variant, lam, mu, n, size, asked):
    # a window of n + 8 lengths past the partner printed {} for the first,
    # lost (1,2) of the second, and lost 3 of the 30 entries of the third
    # and undercounted most of the rest
    ws = em.make_workspace(series, 2)
    q = MultiplicityQuery(variant, lam, mu, n, p)
    full = em.multiplicity_table(ws, q).as_dict()
    assert len(full) == size
    omegas = set(full) if asked is None else set(asked)
    omegas |= set(itertools.product(range(2), repeat=2))  # and some that may be absent
    answers = em.multiplicity_table(ws, q, omegas=omegas).as_dict()
    assert answers == {w: m for w, m in full.items() if w in omegas}


@pytest.mark.parametrize("omega, answer", [((4, 6), 1), ((1, 8), 11)])
def test_omega_mode_is_capped_by_the_weight_bound(omega, answer):
    # p*(omega + shift) lies far above X here; walking to that top alone
    # built 66,778 KL entries for (4,6), where the full table needs 1,392
    q = MultiplicityQuery("red_red", (19, 16), (8, 12), 4, 7)
    full_ws, ws = em.make_workspace("B", 2), em.make_workspace("B", 2)
    assert em.multiplicity_table(full_ws, q).get(omega) == answer
    assert em.multiplicity_table(ws, q, omegas=[omega]).as_dict() == {omega: answer}
    assert len(ws.table.memo) <= len(full_ws.table.memo)


def partner_and_base(ws, q):
    """The partner and base weights of a red_red or red_nabla query, by the
    rule of the ``extmult`` module docstring: (mu0, lam0) for red_red and
    (mu, lam0) for red_nabla."""
    (lam0, _), (mu0, _) = (restricted_decompose(ws.rs, w, q.p) for w in (q.lam, q.mu))
    return (mu0 if q.variant == "red_red" else q.mu), lam0


def kl_factor(ws, q, z, y):
    """The KL factor of the walked element z against the partner's element y."""
    if q.variant == "red_red":
        return em._big_C_of_elements(ws, z, y, q.n)
    return em._c_of_elements(ws, y, z, q.n)


def both_classes(g, rep, p, max_len, base):
    """``_orbit_congruent`` over both parity classes of lengths, where a
    table walks the one its parity law allows."""
    return {tau: z for parity in (0, 1)
            for tau, z in g._orbit_congruent(rep, p, max_len, base, parity).items()}


@pytest.mark.parametrize(
    "series, rank, p, queries, max_n, orbit_bound",
    [("A", 2, 7, 40, 6, 8), ("B", 2, 7, 30, 6, 10), ("G", 2, 13, 12, 6, 14), ("A", 3, 5, 8, 4, 7)],
)
def test_every_nonzero_factor_lies_below_the_weight_bound(series, rank, p, queries, max_n, orbit_bound):
    # walk six lengths past the reach of the bound: every raw tau with a
    # nonzero KL factor has p*tau <= X, so the walk the tables take misses none
    ws = em.make_workspace(series, rank)
    g, rs = ws.group, ws.rs
    rng = random.Random(0)
    reps = [
        rep for rep in itertools.product(range(-p, 0), repeat=rank)
        if g.in_antidominant_alcove(rep, p)
    ]
    nonzero = 0
    for _ in range(queries):
        pool = sorted({wt for _, wt in g.dominant_orbit(rng.choice(reps), p, orbit_bound)})
        lam, mu = rng.choice(pool), rng.choice(pool)
        q = MultiplicityQuery(rng.choice(em.VARIANTS), lam, mu, rng.randrange(max_n + 1), p)
        q = as_tables_read(ws, q)
        partner, base = partner_and_base(ws, q)
        top = friedlander_parshall_top(ws, q)
        den = rs.inverse_cartan_den * p
        reach = g.dominant_length(base, p) + 2 * sum(r._scaled_root_coords(rs, top)) // den
        loc = g.locate(partner, p)
        for t, z in both_classes(g, loc.antidominant_rep, p, reach + 6, base).items():
            if kl_factor(ws, q, z, loc.element):
                nonzero += 1
                assert r.dominance_leq(rs, tuple(p * c for c in t), top), (q, t, top)
    assert nonzero


@pytest.mark.parametrize(
    "series, rank, p, queries, orbit_bound",
    [("A", 2, 7, 30, 8), ("B", 2, 7, 24, 10), ("G", 2, 13, 12, 14), ("A", 3, 5, 8, 7)],
)
def test_the_walk_skips_only_elements_whose_factor_is_zero(series, rank, p, queries, orbit_bound):
    # walk up to X with no skip: every element that the parity and degree-0
    # laws exclude has KL factor 0
    ws = em.make_workspace(series, rank)
    g, rs = ws.group, ws.rs
    rng = random.Random(1)
    reps = [
        rep for rep in itertools.product(range(-p, 0), repeat=rank)
        if g.in_antidominant_alcove(rep, p)
    ]
    excluded = 0
    for _ in range(queries):
        pool = sorted({wt for _, wt in g.dominant_orbit(rng.choice(reps), p, orbit_bound)})
        lam, mu = rng.choice(pool), rng.choice(pool)
        for variant in em.VARIANTS:
            for n in range(5):
                q = as_tables_read(ws, MultiplicityQuery(variant, lam, mu, n, p))
                partner, base = partner_and_base(ws, q)
                top = friedlander_parshall_top(ws, q)
                den = rs.inverse_cartan_den * p
                reach = g.dominant_length(base, p) + 2 * sum(r._scaled_root_coords(rs, top)) // den
                loc = g.locate(partner, p)
                y, ly = loc.element, loc.length
                for z in both_classes(g, loc.antidominant_rep, p, reach, base).values():
                    lz = g.length(z)
                    if (lz - ly - n) % 2 == 0 and (n or z == y):
                        continue
                    excluded += 1
                    if q.variant == "red_red":
                        assert em._big_C_of_elements(ws, z, y, n) == 0, (q, z)
                    else:
                        assert em._c_of_elements(ws, y, z, n) == 0, (q, z)
    assert excluded


def test_tables_ask_factors_only_where_the_laws_allow(a2, monkeypatch):
    # a table asks the KL factor of z against the partner's element y only
    # when l(z) = l(y) + n (mod 2), and in degree 0 none at all
    g, p = a2.group, 7
    asked = []  # (walked element z, partner's element y, n)
    c_core, big_C_core = em._c_of_elements, em._big_C_of_elements

    def c_of_elements(ws, y, z, n):
        asked.append((z, y, n))
        return c_core(ws, y, z, n)

    def big_C_of_elements(ws, z, y, n):
        asked.append((z, y, n))
        return big_C_core(ws, z, y, n)

    monkeypatch.setattr(em, "_c_of_elements", c_of_elements)
    monkeypatch.setattr(em, "_big_C_of_elements", big_C_of_elements)
    pool = sorted({wt for _, wt in g.dominant_orbit(g.locate((1, 1), p).antidominant_rep, p, 10)})
    for lam, mu in [(pool[0], pool[2]), (pool[1], pool[-1]), (pool[3], pool[3])]:
        for variant in em.VARIANTS:
            for n in range(4):
                em.multiplicity_table(a2, MultiplicityQuery(variant, lam, mu, n, p))
    assert asked
    for z, y, n in asked:
        assert (g.length(z) - g.length(y) - n) % 2 == 0
        assert n


def reference_tau_candidates_windowed(images, base, p, max_len, parity):
    """The scan the walk over the kept levels replaced, over ``images``: the
    (length, dot image) of every element whose image is dominant."""
    out = {}
    for length, wt in images:
        diff = tuple(w - b for w, b in zip(wt, base))
        if length <= max_len and length % 2 == parity and all(d >= 0 and d % p == 0 for d in diff):
            out[tuple(d // p for d in diff)] = length
    return out


@pytest.mark.parametrize(
    "series, rank, p",
    [("A", 1, 5), ("A", 1, 7), ("A", 2, 5), ("A", 2, 7), ("B", 2, 5), ("B", 2, 7),
     ("G", 2, 7), ("G", 2, 11)],
)
def test_windowed_taus_match_the_dot_filter_scan(series, rank, p):
    ws = em.make_workspace(series, rank)
    g = ws.group
    reps = [
        rep
        for rep in itertools.product(range(-p, -1), repeat=rank)
        if g.in_antidominant_alcove(rep, p)
    ]
    assert reps
    found = 0
    for rep in reps:
        images = [
            (g.length(z), wt)
            for z in g.elements_up_to_length(10)
            for wt in [g.dot(z, rep, p)]
            if min(wt) >= 0
        ]
        for base in itertools.product(range(p), repeat=rank):  # every restricted base
            for max_len, parity in itertools.product(range(11), (0, 1)):
                raw = g._orbit_congruent(rep, p, max_len, base, parity)
                got = {tau: g.length(z) for tau, z in raw.items()}
                assert got == reference_tau_candidates_windowed(images, base, p, max_len, parity), (
                    rep, base, max_len, parity,
                )
                found += len(got)
    assert found


@pytest.mark.parametrize(
    "series, rank, p",
    [("A", 1, 5), ("A", 1, 7), ("A", 2, 3), ("A", 2, 5), ("A", 2, 7), ("B", 2, 5),
     ("B", 2, 7), ("G", 2, 7), ("G", 2, 11)],
)
def test_tables_on_elements_match_the_weight_route(series, rank, p):
    # tables read the elements they enumerate; the reference locates every
    # shifted weight again through the public KL factors.  At A2 p = 3 = h,
    # p divides the index of connection, so several finite parts (three in
    # these tables) are congruent to one restricted base
    ws = em.make_workspace(series, rank)
    g = ws.group
    pools = [
        sorted({wt for _, wt in g.dominant_orbit(g.locate(w, p).antidominant_rep, p, 12)})
        for w in [(1,) * rank, (0,) * rank]
    ]
    pairs = [(pools[0][0], pools[0][2]), (pools[0][1], pools[0][-1]), (pools[1][1], pools[0][3])]
    box = list(itertools.product(range(3 if rank == 2 else 6), repeat=rank))
    nonempty = 0
    for lam, mu in pairs:
        for variant in em.VARIANTS:
            for n in range(3):
                q = MultiplicityQuery(variant, lam, mu, n, p)
                assert em.multiplicity_table(ws, q) == dict(reference_multiplicity_table(ws, q))
                entries = dict(reference_multiplicity_table(ws, q, omegas=box))
                assert em.multiplicity_table(ws, q, omegas=box) == entries
                nonempty += bool(entries)
        for n in range(3):  # red_nabla(lam, mu) is delta_red(mu*, lam*), omega not starred
            dual = MultiplicityQuery("delta_red", r.star(ws.rs, mu), r.star(ws.rs, lam), n, p)
            direct = table_dict(ws, "red_nabla", lam, mu, n, p)
            assert direct == dict(reference_multiplicity_table(ws, dual)), (lam, mu, n)
    assert nonempty


def test_stats_after_an_extmult_session():
    # every KL value extmult reads pairs two flagged ids, and the recursion
    # behind it stays among them; stats() reports the tables' sizes
    p = 7
    ws = em.make_workspace("B", 2)
    g = ws.group
    pool = sorted(
        {wt for _, wt in g.dominant_orbit(g.locate((1, 0), p).antidominant_rep, p, 8)}
    )
    for variant in em.VARIANTS:
        for n in range(3):
            em.multiplicity_table(ws, MultiplicityQuery(variant, pool[0], pool[2], n, p))
    em.multiplicity_table(ws, MultiplicityQuery("red_nabla", pool[0], pool[1], 1, p), [(1, 1)])
    assert em.big_C(ws, pool[2], pool[1], 2, p) == em.ext_dim_G_red_red(ws, pool[2], pool[1], 2, p)
    assert ws.table.memo
    assert all(g.is_dominant(x) and g.is_dominant(y) for x, y in ws.table.memo)

    stats = ws.stats()
    assert all(type(v) is int for v in stats.values())
    assert stats == {
        "kl_entries": len(ws.table.memo),
        "ids": len(g._form),
        "flagged_ids": sum(g.is_dominant(z) for z in range(len(g._form))),
        "bruhat_memo": len(g._leq),
        "ideal_memo": len(g._ideal),
        "locate_memo": len(g._locate),
    }


def test_red_red_and_delta_red_agree_at_lambda_zero(a1, a2):
    # For restricted mu0 the reduced dual Weyl module is irreducible, so the
    # red_red and delta_red tables at lambda = 0 describe the same cohomology
    # module and must coincide.  This couples the big_C convolution with the
    # single-coefficient starred formula through two different reductions.
    for ws, p in [(a1, 5), (a2, 7)]:
        zero = tuple([0] * ws.rs.rank)
        nonempty = 0
        for mu0 in itertools.product(range(p), repeat=ws.rs.rank):
            if not ws.group.is_p_regular(mu0, p):
                continue
            for n in range(5):
                t_rr = em.multiplicity_table(
                    ws, MultiplicityQuery("red_red", zero, mu0, n, p)
                ).as_dict()
                t_dr = em.multiplicity_table(
                    ws, MultiplicityQuery("delta_red", zero, mu0, n, p)
                ).as_dict()
                assert t_rr == t_dr, (mu0, n, t_rr, t_dr)
                if t_rr:
                    nonempty += 1
        assert nonempty > 0


def test_red_red_is_symmetric_under_duality(a2):
    # Ext_{G_1}(L(lam), L(mu)) = H(G_1, L(lam)* (x) L(mu)) = Ext_{G_1}(L(mu*), L(lam*))
    # as G-modules, so the two tables agree.  With mu restricted only the left
    # one has a Frobenius-twisted part lam1, and its tensor factor must star it.
    p = 3
    box = list(itertools.product(range(5), repeat=2))

    def table(lam, mu, n):
        return em.multiplicity_table(
            a2, MultiplicityQuery("red_red", lam, mu, n, p), omegas=box
        ).as_dict()

    # Hom_{G_1}(L(lam1)^[1], k) is L(lam1)* = L(lam1*), twisted
    assert table((3, 0), (0, 0), 0) == {(0, 1): 1}
    nonempty = 0
    for lam0, mu0 in itertools.product(itertools.product(range(p), repeat=2), repeat=2):
        if not (a2.group.is_p_regular(lam0, p) and a2.group.is_p_regular(mu0, p)):
            continue
        for lam1, n in itertools.product([(1, 0), (0, 1), (2, 0)], range(3)):
            lam = tuple(a + p * b for a, b in zip(lam0, lam1))
            left = table(lam, mu0, n)
            assert left == table(r.star(a2.rs, mu0), r.star(a2.rs, lam), n), (lam, mu0, n)
            nonempty += bool(left)
    assert nonempty >= 10


# ---- duality against the weight route ----------------------------------------


def reference_dual(ws, lam, mu, n, p):
    """The weight route's delta_red(mu*, lam*, n), which red_nabla(lam, mu, n)
    equals with omega not starred: Ext^n_{G_1}(L(lam), nabla(mu)) and
    Ext^n_{G_1}(Delta(mu*), L(lam*)) are isomorphic G-modules."""
    dual = MultiplicityQuery("delta_red", r.star(ws.rs, mu), r.star(ws.rs, lam), n, p)
    return dict(reference_multiplicity_table(ws, dual))


def test_duality_self_dual_type(a1):
    # star is the identity on A1
    assert table_dict(a1, "red_nabla", (0,), (8,), 1, 5) == reference_dual(a1, (0,), (8,), 1, 5)
    assert table_dict(a1, "red_nabla", (0,), (8,), 1, 5)


def test_duality_reports_star_reading(a2):
    # red_nabla(lam, mu) equals the weight route's delta_red(mu*, lam*) with
    # omega not starred; on some sample starring omega would break the match
    p = 7
    rep0 = a2.group.locate((1, 0), p).antidominant_rep
    samples = sorted({wt for _, wt in a2.group.dominant_orbit(rep0, p, 5)})
    assert any(r.star(a2.rs, w) != w for w in samples)
    saw_entries = saw_star_sensitive = False
    for lam, mu in itertools.product(samples[:4], repeat=2):
        for n in range(0, 4):
            direct = table_dict(a2, "red_nabla", lam, mu, n, p)
            dual = reference_dual(a2, lam, mu, n, p)
            assert direct == dual, (lam, mu, n)
            saw_entries |= bool(direct)
            saw_star_sensitive |= {r.star(a2.rs, w): m for w, m in dual.items()} != direct
    assert saw_entries
    assert saw_star_sensitive


# ---- oracles on types where star is not the identity -----------------------

# per type at a prime p >= h: the highest degree asked, how far past l(0)
# the pool of restricted weights reaches, and whether a table's partner
# weight may have a Frobenius part at degree n > 0 (on D5 and E6 that makes
# a walk of seconds to minutes; a degree-0 table walks nothing); the partner
# is mu for red_nabla, and lam* for delta_red, read through its dual pair
STAR_TYPES = {
    ("A", 3, 5): (2, 3, True),
    ("A", 4, 5): (1, 2, True),
    ("D", 5, 11): (1, 3, False),
    ("E", 6, 13): (1, 3, False),
}


@functools.cache
def star_type(series, rank, p):
    """The workspace, the restricted weights of the dot orbit of 0 up to the
    pool's length, and the fundamental weights of dimension <= 30."""
    ws = em.make_workspace(series, rank)
    g, zero = ws.group, (0,) * rank
    reach = g.dominant_length(zero, p) + STAR_TYPES[series, rank, p][1]
    orbit = g.dominant_orbit(g.locate(zero, p).antidominant_rep, p, reach)
    pool = sorted(wt for _, wt in orbit if max(wt) < p)
    fundamental = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    return ws, pool, [w for w in fundamental if ch.dim_nabla(ws.rs, w) <= 30]


@st.composite
def star_queries(draw, max_degree=None):
    """(ws, lam, mu, n, p) with lam = lam0 + p*lam1, lam1 != lam1*."""
    key = draw(st.sampled_from(sorted(STAR_TYPES)))
    (ws, pool, small), (top, _, frobenius_partner) = star_type(*key), STAR_TYPES[key]
    p, rank = key[2], ws.rs.rank
    lam0 = draw(st.sampled_from(pool))
    mu0 = lam0 if draw(st.booleans()) else draw(st.sampled_from(pool))
    lam1 = draw(st.sampled_from([w for w in small if r.star(ws.rs, w) != w]))
    n = draw(st.integers(0, top if max_degree is None else max_degree))
    mu1 = draw(st.sampled_from([(0,) * rank] + small * (frobenius_partner or not n)))
    lam, mu = (tuple(a + p * b for a, b in zip(w0, w1)) for w0, w1 in ((lam0, lam1), (mu0, mu1)))
    return ws, lam, mu, n, p


@settings(max_examples=30, deadline=None)
@given(star_queries(max_degree=0))
def test_degree_zero_tensors_the_dual_of_the_first_frobenius_factor(case):
    # the G_1-socle of nabla(mu) is L(mu0) (x) nabla(mu1)^[1] (Jantzen, RAGS
    # II.3), and L(lam1)^[1] in the first slot enters dualized, so every variant reads
    # [Ext^0 : nabla(omega)] = delta(lam0, mu0) [nabla(lam1*) (x) nabla(mu1) : nabla(omega)]
    ws, lam, mu, n, p = case
    (lam0, lam1), (mu0, mu1) = (restricted_decompose(ws.rs, w, p) for w in (lam, mu))
    expected = {}
    if lam0 == mu0:
        expected = ch.tensor_nabla_multiplicities(ws.rs, r.star(ws.rs, lam1), mu1)
    for variant in em.VARIANTS:
        assert table_dict(ws, variant, lam, mu, 0, p) == expected, variant


def test_a_degree_zero_table_computes_no_kl_entry():
    # at n = 0 a factor reads t^(l(z) - l(y)) in P_{y,z}, which is 0 for z != y
    # by the degree bound, so a degree-0 table is one tensor product: it
    # creates no group id and computes no KL entry.  Walking the orbit up to
    # the partner's length took seconds and 165,391 ids for E6 mu = 7 rho
    for series, rank, p, variant, lam, mu, expected in [
        ("D", 5, 11, "delta_red", (2, 3, 0, 1, 12), (2, 3, 0, 1, 1), {(0, 0, 0, 1, 0): 1}),
        ("E", 6, 13, "delta_red", (13, 1, 0, 1, 0, 0), (0, 1, 0, 1, 0, 0), {(0, 0, 0, 0, 0, 1): 1}),
        ("E", 6, 13, "red_nabla", (0,) * 6, (7,) * 6, {}),
        # red_red with lam0 = mu0 and mu1 != 0 tensors nabla(lam1*) (x) nabla(mu1) with nabla(0)
        ("D", 5, 11, "red_red", (2, 3, 0, 1, 12), (2, 3, 0, 12, 1),
         {(0, 0, 0, 2, 0): 1, (0, 0, 1, 0, 0): 1, (1, 0, 0, 0, 0): 1}),
        ("E", 6, 13, "red_red", (13, 1, 0, 1, 0, 0), (13, 1, 0, 1, 0, 0),
         {(1, 0, 0, 0, 0, 1): 1, (0, 1, 0, 0, 0, 0): 1, (0,) * 6: 1}),
    ]:
        rs = r.build_root_system(series, rank)
        g = AffineWeylGroup(rs)
        ws = em.Workspace(rs, g, KLTable(g))
        assert table_dict(ws, variant, lam, mu, 0, p) == expected
        if variant == "red_red":
            lam1, mu1 = (restricted_decompose(rs, w, p)[1] for w in (lam, mu))
            assert expected == ch.tensor_nabla_multiplicities(rs, r.star(rs, lam1), mu1)
        assert ws.stats()["kl_entries"] == ws.stats()["ids"] == 0, series


@pytest.mark.parametrize("variant", em.VARIANTS)
def test_degree_zero_tables_match_the_weight_route_where_star_moves_lam1(variant):
    # the degree-0 law against tables that walk, locate and read KL factors,
    # on A3 p = 5 with lam1* != lam1, full and in omega mode
    ws, pool, small = star_type("A", 3, 5)
    p, zero = 5, (0, 0, 0)
    box = list(itertools.product(range(3), repeat=3))
    lam1s = [w for w in small if r.star(ws.rs, w) != w]
    nonempty = 0
    for lam0, mu0 in [(pool[0], pool[0]), (pool[1], pool[1]), (pool[0], pool[2])]:
        for lam1, mu1 in itertools.product(lam1s, [zero] + small):
            lam = tuple(a + p * b for a, b in zip(lam0, lam1))
            mu = tuple(a + p * b for a, b in zip(mu0, mu1))
            q = MultiplicityQuery(variant, lam, mu, 0, p)
            full = table_dict(ws, variant, lam, mu, 0, p)
            assert full == dict(reference_multiplicity_table(ws, q)), (lam, mu)
            assert table_dict(ws, variant, lam, mu, 0, p, box) == dict(
                reference_multiplicity_table(ws, q, omegas=box)
            ), (lam, mu)
            nonempty += bool(full)
    assert nonempty


@settings(max_examples=30, deadline=None)
@given(star_queries())
def test_red_nabla_is_dual_to_delta_red(case):
    # the library's red_nabla table against the weight route's delta_red of
    # the dual pair, which keeps its own twist
    ws, lam, mu, n, p = case
    assert table_dict(ws, "red_nabla", lam, mu, n, p) == reference_dual(ws, lam, mu, n, p)
