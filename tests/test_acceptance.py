"""Acceptance suite: one check per shipping criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance here is exact equality of integers; there is
nothing to calibrate.
"""

import itertools
import random
import time
from collections import defaultdict

import pytest

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots as r
from goodfilt.errors import DecompositionError
from goodfilt.extmult import MultiplicityQuery
from goodfilt.extmult import run_identity_box
from goodfilt.klpoly import KLTable

from reference_tables import reference_multiplicity_table
from test_characters import strip_decompose
from test_finite_a3_oracle import PERMS, bruhat, brute_force_kl, oracle_word


@pytest.fixture(scope="module")
def ws_a1():
    return em.make_workspace("A", 1)


@pytest.fixture(scope="module")
def ws_a2():
    return em.make_workspace("A", 2)


@pytest.fixture(scope="module")
def ws_b2():
    return em.make_workspace("B", 2)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_kl_invariants_rank2(ws_a2, ws_b2):
    t0 = time.time()
    checked = 0
    for ws in (ws_a2, ws_b2):
        g = ws.group
        elements = g.elements_up_to_length(8)
        for y in elements:
            ly = g.length(y)
            for x in g.lower_ideal(y):
                if x == y:
                    continue
                p = ws.table.kl(x, y)
                gap = ly - g.length(x)
                assert p[0] == 1, (x, y)
                assert all(c >= 0 for c in p), (x, y)
                assert 2 * (len(p) - 1) <= gap - 1, (x, y)
                checked += 1
    report(
        1,
        True,
        f"KL invariants on {checked} Bruhat pairs with l(y) <= 8 "
        f"in affine A2 and B2 ({time.time() - t0:.1f}s)",
    )


def test_criterion_2_dihedral_exactness(ws_a1):
    g = ws_a1.group
    elements = g.elements_up_to_length(12)
    assert len(elements) == 25
    comparable = 0
    for x in elements:
        for y in elements:
            expected = (1,) if g.bruhat_leq(x, y) else None
            got = ws_a1.table.kl(x, y)
            if expected is None:
                assert got == (), (x, y)
            else:
                assert got == (1,), (x, y)
                comparable += 1
    report(
        2,
        True,
        f"affine A1: P = 1 exactly on {comparable} comparable pairs "
        f"({len(elements) ** 2} ordered pairs checked, l <= 12)",
    )


def test_criterion_3_finite_a3_oracle():
    oracle = brute_force_kl()
    from goodfilt.affine import get_group

    group = get_group("A", 3)
    table = KLTable(group)
    elements = {w: group.from_word(oracle_word(w)) for w in PERMS}
    mismatches = 0
    for x in PERMS:
        for y in PERMS:
            expected = tuple(oracle.get((x, y), ())) if bruhat(x, y) else ()
            got = table.kl(elements[x], elements[y])
            if got != expected:
                mismatches += 1
    report(
        3,
        mismatches == 0,
        "all 576 finite-A3 KL polynomials match the independent "
        "R-polynomial-inversion brute force",
    )


def test_criterion_4_character_suite():
    t0 = time.time()
    a1 = r.build_root_system("A", 1)
    for m in range(41):
        assert sum(ch.weight_multiplicities(a1, (m,)).values()) == ch.dim_nabla(a1, (m,))
    for m in range(41):
        for n in range(41):
            assert ch.tensor_nabla_multiplicities(a1, (m,), (n,)) == strip_decompose(
                a1, (m,), (n,)
            )
    assert ch.tensor_nabla_multiplicities(a1, (2,), (3,)) == {(5,): 1, (3,): 1, (1,): 1}

    pairs = 0
    for series in ("A", "B"):
        rs = r.build_root_system(series, 2)
        box = list(itertools.product(range(7), repeat=2))
        for lam in box:
            assert sum(ch.weight_multiplicities(rs, lam).values()) == ch.dim_nabla(rs, lam)
        for a in box:
            for b in box:
                if a > b:
                    continue  # symmetry asserted inside the library and below
                d = ch.tensor_nabla_multiplicities(rs, a, b)
                assert d == strip_decompose(rs, a, b), (series, a, b)
                assert d == ch.tensor_nabla_multiplicities(rs, b, a)
                pairs += 1
    report(
        4,
        True,
        f"Freudenthal totals = Weyl dimension and Klimyk = stripping on the "
        f"A1<=40 and A2/B2 coordinate<=6 boxes ({pairs} rank-2 pairs, "
        f"{time.time() - t0:.0f}s); Clebsch-Gordan [2]x[3] exact",
    )


def test_criterion_5_orthogonality_and_parity(ws_a1, ws_a2):
    checked = 0
    for ws, p in [(ws_a1, 5), (ws_a1, 7), (ws_a2, 7)]:
        restricted = [
            w
            for w in itertools.product(range(p), repeat=ws.rs.rank)
            if ws.group.is_p_regular(w, p)
        ]
        orbits = defaultdict(list)
        for w in restricted:
            orbits[ws.group.locate(w, p).antidominant_rep].append(w)
        for members in orbits.values():
            for lam in members:
                for mu in members:
                    val = em.big_C(ws, lam, mu, 0, p)
                    assert val == (1 if lam == mu else 0), (lam, mu, p)
                    checked += 1
        # parity vanishing on a sweep of degrees
        for members in orbits.values():
            for lam in members:
                for mu in members:
                    gap = (
                        ws.group.locate(lam, p).length
                        - ws.group.locate(mu, p).length
                    )
                    for n in range(0, 5):
                        if (n - gap) % 2:
                            assert em.big_C(ws, lam, mu, n, p) == 0, (lam, mu, n)
    report(
        5,
        True,
        f"big_C orthogonality at degree 0 over {checked} restricted regular "
        "pairs (A1 p=5,7; A2 p=7) and parity vanishing on all off-parity degrees",
    )


def test_criterion_6_desk_fixtures(ws_a1):
    g = ws_a1.group
    locs = {
        (2,): (1, (-4,)),
        (8,): (2, (-2,)),
        (10,): (3, (-2,)),
        (12,): (3, (-4,)),
    }
    for lam, (length, rep) in locs.items():
        loc = g.locate(lam, 5)
        assert (loc.length, loc.antidominant_rep) == (length, rep), lam

    for n in range(6):
        assert em.big_C(ws_a1, (12,), (2,), n, 5) == (1 if n == 2 else 0)

    def table(variant, lam, mu, n):
        return em.multiplicity_table(
            ws_a1, MultiplicityQuery(variant, lam, mu, n, 5)
        ).as_dict()

    assert table("red_red", (2,), (2,), 0) == {(0,): 1}
    assert table("red_red", (2,), (2,), 2) == {(2,): 1}
    assert table("red_nabla", (0,), (8,), 1) == {(2,): 1}
    # even degrees are empty; odd degrees 3, 5, ... carry exactly the
    # constituents forced by the criterion-7 weight-space identity
    # (dim Delta(4) at weight 2 is 1), so blanket emptiness at n != 1
    # cannot hold and the identity-consistent values are asserted instead
    for n in (0, 2, 4):
        assert table("red_nabla", (0,), (8,), n) == {}
    assert table("red_nabla", (0,), (8,), 3) == {(4,): 1}
    assert em.weight_space_identity_check(ws_a1, (8,), (4,), 5).rhs == 1
    report(
        6,
        True,
        "A1 p=5 desk fixtures: locate lengths/representatives, big_C(12,2,.) "
        "= delta(n,2), red_red tables at n=0,2, red_nabla table {2:1} at n=1 "
        "(odd n>=3 entries match the weight-space identity)",
    )


def test_criterion_7_weight_space_identity(ws_a1, ws_a2):
    t0 = time.time()
    res_a1 = run_identity_box(ws_a1, 5, 50)
    assert res_a1["failures"] == [], res_a1
    assert res_a1["cases"] >= 15

    cases = checks = 0
    failures = []
    for mu in itertools.product(range(9), repeat=2):
        if not ws_a2.group.is_p_regular(mu, 7):
            continue
        try:
            em.finite_weyl_shift_decompose(ws_a2, mu, 7)
        except DecompositionError:
            continue
        cases += 1
        for tau in itertools.product(range(5), repeat=2):
            res = em.weight_space_identity_check(ws_a2, mu, tau, 7)
            checks += 1
            if not res.ok:
                failures.append((mu, tau, res.lhs, res.rhs))
    report(
        7,
        not failures and cases > 0,
        f"two-path cohomology identity: A1 p=5 box <mu+rho> < 50 "
        f"({res_a1['cases']} cases, {res_a1['tau_checks']} tau checks) and "
        f"A2 p=7 box coords <= 8 ({cases} cases, {checks} tau checks), "
        f"all equal ({time.time() - t0:.0f}s)",
    )


def test_criterion_8_two_organizations(ws_a1, ws_a2):
    rng = random.Random(8211)
    total = 0
    for ws, p in [(ws_a1, 5), (ws_a1, 7), (ws_a2, 7)]:
        reps = set()
        for w in itertools.product(range(p), repeat=ws.rs.rank):
            if ws.group.is_p_regular(w, p):
                reps.add(ws.group.locate(w, p).antidominant_rep)
        pools = [
            sorted({wt for _, wt in ws.group.dominant_orbit(rep, p, 6)})
            for rep in sorted(reps)
        ]
        pools = [pool for pool in pools if len(pool) >= 2]
        done = 0
        while done < 200:
            pool = rng.choice(pools)
            lam, mu = rng.choice(pool), rng.choice(pool)
            n = rng.randrange(0, 7)
            assert em.ext_dim_G_red_red(ws, lam, mu, n, p) == em.big_C(
                ws, lam, mu, n, p
            ), (lam, mu, n, p)
            done += 1
        total += done
    report(
        8,
        True,
        f"ext_dim_G_red_red == big_C on {total} randomized in-orbit "
        "(lambda, mu, n) samples across A1 p=5,7 and A2 p=7, exact equality",
    )


def test_criterion_9_duality_self_test(ws_a2):
    p = 7
    rep0 = ws_a2.group.locate((1, 0), p).antidominant_rep
    samples = sorted({wt for _, wt in ws_a2.group.dominant_orbit(rep0, p, 5)})[:4]
    assert any(r.star(ws_a2.rs, w) != w for w in samples)
    nonempty = mismatches = star_sensitive = 0
    for lam, mu in itertools.product(samples, repeat=2):
        for n in range(4):
            # Ext^n_{G_1}(L(lam), nabla(mu)) = Ext^n_{G_1}(Delta(mu*), L(lam*)) as G-modules
            direct = em.multiplicity_table(ws_a2, MultiplicityQuery("red_nabla", lam, mu, n, p))
            dual_pair = r.star(ws_a2.rs, mu), r.star(ws_a2.rs, lam)
            dual_query = MultiplicityQuery("delta_red", *dual_pair, n, p)
            dual = dict(reference_multiplicity_table(ws_a2, dual_query))
            nonempty += bool(direct)
            mismatches += direct != dual
            star_sensitive += {r.star(ws_a2.rs, w): m for w, m in dual.items()} != direct
    detail = (
        f"red_nabla(lam, mu) vs the weight route's delta_red(mu*, lam*) on "
        f"{len(samples) ** 2 * 4} A2 p=7 samples ({nonempty} with entries, "
        f"{star_sensitive} that a starred omega would break): {mismatches} mismatches"
    )
    report(9, nonempty > 0 and star_sensitive > 0 and mismatches == 0, detail)
