import copy
import math
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfilt import roots
from goodfilt.affine import get_group
from goodfilt.characters import tensor_nabla_multiplicities
from goodfilt.errors import (
    ConfigurationError,
    DimensionMismatchError,
    PreconditionError,
)
from goodfilt.roots import build_root_system
from reference_linalg import fraction_inverse  # tests/ is on the path

# (series, rank) -> (positive root count, coxeter number)
CLASSICAL_TABLE = {
    ("A", 1): (1, 2),
    ("A", 2): (3, 3),
    ("A", 3): (6, 4),
    ("A", 7): (28, 8),
    ("B", 2): (4, 4),
    ("B", 3): (9, 6),
    ("B", 8): (64, 16),
    ("C", 2): (4, 4),
    ("C", 3): (9, 6),
    ("D", 4): (12, 6),
    ("D", 5): (20, 8),
    ("E", 6): (36, 12),
    ("E", 7): (63, 18),
    ("E", 8): (120, 30),
    ("F", 4): (24, 12),
    ("G", 2): (6, 6),
}

ALL_TYPES = sorted(CLASSICAL_TABLE)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_classical_counts_and_coxeter_number(series, rank):
    rs = build_root_system(series, rank)
    count, h = CLASSICAL_TABLE[(series, rank)]
    assert len(rs.positive_roots) == count
    assert rs.coxeter_number == h


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_rho_is_half_sum_of_positive_roots(series, rank):
    rs = build_root_system(series, rank)
    total = [0] * rank
    for r in rs.positive_roots:
        total = [t + c for t, c in zip(total, r.fund_coords)]
    assert tuple(total) == tuple(2 * x for x in rs.rho)


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_rho_pairings(series, rank):
    rs = build_root_system(series, rank)
    simple = [r for r in rs.positive_roots if sum(r.simple_coords) == 1]
    assert len(simple) == rank
    for alpha in simple:
        assert roots.pair(rs, rs.rho, alpha) == 1
    assert roots.pair(rs, rs.rho, rs.highest_short_root) == rs.coxeter_number - 1


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_positive_roots_have_nonnegative_simple_coords(series, rank):
    rs = build_root_system(series, rank)
    for r in rs.positive_roots:
        assert all(c >= 0 for c in r.simple_coords)
        assert sum(r.simple_coords) >= 1


@pytest.mark.parametrize("rank", [True, 1.0, 2.0], ids=repr)
def test_a_rank_that_is_not_an_int_is_refused_cold_and_warm(rank):
    # True == 1 and 2.0 == 2 hash alike, so a warm cache used to answer them
    with pytest.raises(ConfigurationError):
        build_root_system.__wrapped__("A", rank)  # the uncached body
    for build in (build_root_system, get_group):
        build("A", int(rank))
        with pytest.raises(ConfigurationError):
            build("A", rank)


ALL_PAIRS = [
    (s, n) for s, (lo, hi) in sorted(roots._RANK_RANGE.items()) for n in range(lo, hi + 1)
]


@pytest.mark.parametrize("series,rank", ALL_PAIRS)
def test_two_rho_check_pairs_as_twice_the_root_height(series, rank):
    # <alpha_i, rho^vee> = 1, so <omega_j, 2 rho^vee> is twice the sum of the
    # simple-root coordinates of omega_j
    rs = build_root_system(series, rank)
    for j, omega in enumerate(roots._identity_matrix(rank)):
        scaled = 2 * sum(roots._scaled_root_coords(rs, omega))
        assert rs.two_rho_check[j] * rs.inverse_cartan_den == scaled


@pytest.mark.parametrize("series,rank", ALL_PAIRS)
def test_integer_inverse_cartan_equals_the_fraction_inverse(series, rank):
    # the fraction-free elimination against Gauss-Jordan over Fraction: the
    # denominator is the least common one, and the entries are exact
    rs = build_root_system(series, rank)
    inverse = fraction_inverse(rs.cartan)
    assert rs.inverse_cartan_den == math.lcm(*(x.denominator for row in inverse for x in row))
    assert rs.inverse_cartan == tuple(
        tuple(x * rs.inverse_cartan_den for x in row) for row in inverse
    )


def test_one_root_system_and_one_group_per_series():
    for series in ("A", "a"):
        assert build_root_system(series, 2) is build_root_system("A", 2)
        assert get_group(series, 2) is get_group("A", 2)
    assert get_group("a", 2).rs is build_root_system("A", 2)
    # equality is identity, so a copy or an unpickled system is that instance
    a2 = build_root_system("A", 2)
    for copied in (pickle.loads(pickle.dumps(a2)), copy.copy(a2), copy.deepcopy(a2)):
        assert copied is a2
    assert a2 != build_root_system("A", 3) and a2 != tuple(a2)


def test_invalid_types_rejected():
    for series, rank in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2), ("A", 9)]:
        with pytest.raises(ConfigurationError):
            build_root_system(series, rank)


def test_a1_forced_data():
    rs = build_root_system("A", 1)
    assert len(rs.positive_roots) == 1
    assert rs.coxeter_number == 2
    assert rs.rho == (1,)


def test_pair_examples():
    a2 = build_root_system("A", 2)
    # alpha_0 = alpha_1 + alpha_2 in A2, coroot coords (1, 1)
    assert a2.highest_short_root.simple_coords == (1, 1)
    assert roots.pair(a2, (1, 1), a2.highest_short_root) == 2  # rho
    assert roots.pair(a2, (1, 0), a2.highest_short_root) == 1


def test_pair_additivity_random():
    rng = random.Random(7)
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("D", 4)]:
        rs = build_root_system(series, rank)
        for _ in range(200):
            lam = tuple(rng.randint(-9, 9) for _ in range(rank))
            mu = tuple(rng.randint(-9, 9) for _ in range(rank))
            beta = rng.choice(rs.positive_roots)
            s = tuple(a + b for a, b in zip(lam, mu))
            assert roots.pair(rs, s, beta) == roots.pair(rs, lam, beta) + roots.pair(rs, mu, beta)


def test_pair_rank_mismatch():
    a2 = build_root_system("A", 2)
    with pytest.raises(DimensionMismatchError):
        roots.pair(a2, (1, 2, 3), a2.highest_short_root)


@pytest.mark.parametrize("weight", [(1.9, 0.2), (1.0, 0), ("1", "0"), (True, 0), (0, False)])
def test_check_weight_takes_int_coordinates_only(weight):
    # int() would truncate floats, parse strings and read True as 1
    g = get_group("A", 2)
    calls = [
        lambda: roots.check_weight(g.rs, weight),
        lambda: g.locate(weight, 7),
        lambda: tensor_nabla_multiplicities(g.rs, weight, (1, 0)),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError, match=re.escape(f"weight {weight!r}")):
            call()


def test_star_examples():
    a1 = build_root_system("A", 1)
    assert roots.star(a1, (5,)) == (5,)
    a2 = build_root_system("A", 2)
    assert roots.star(a2, (1, 2)) == (2, 1)
    b2 = build_root_system("B", 2)
    assert roots.star(b2, (3, 4)) == (3, 4)  # w0 = -1 in type B


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_star_is_dominance_preserving_involution(series, rank):
    rs = build_root_system(series, rank)
    rng = random.Random(hash((series, rank)) & 0xFFFF)
    neg_w0 = tuple(
        tuple(-x for x in row) for row in rs.longest_element_action
    )
    # -w0 must permute the fundamental weights
    assert sorted(sorted(row) for row in neg_w0) == [
        [0] * (rank - 1) + [1] for _ in range(rank)
    ]
    for _ in range(1000):
        lam = tuple(rng.randint(0, 12) for _ in range(rank))
        st = roots.star(rs, lam)
        assert roots.is_dominant(rs, st)
        assert roots.star(rs, st) == lam


def rho_walk_longest_element(rs):
    """w0 on fundamental coordinates as a product of simple reflections,
    found by walking rho down to -rho (the construction the chamber walk replaced)."""
    n = rs.rank
    refl = [
        tuple(tuple(int(k == j) - rs.cartan[k][i] * int(j == i) for j in range(n)) for k in range(n))
        for i in range(n)
    ]
    v, m = [1] * n, roots._identity_matrix(n)
    while any(c > 0 for c in v):
        i = next(i for i, c in enumerate(v) if c > 0)
        m = roots._mat_mul(refl[i], m)
        v = list(roots._mat_vec(refl[i], v))
    return m


@pytest.mark.parametrize(
    "series,rank",
    [(s, n) for s, (lo, hi) in sorted(roots._RANK_RANGE.items()) for n in range(lo, hi + 1)],
)
def test_longest_element_matches_the_rho_walk(series, rank):
    rs = build_root_system(series, rank)
    assert rs.longest_element_action == rho_walk_longest_element(rs)


def root_string_closure(cartan):
    """Positive roots in simple coordinates by root-string closure (the
    construction the reflection closure replaced): beta + alpha_i is a root
    exactly when r - <beta, alpha_i^vee> > 0, r the largest k with
    beta - k*alpha_i a root."""
    n = len(cartan)
    simples = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    known, level = set(simples), simples
    while level:
        nxt = []
        for b in level:
            pairing = roots._mat_vec(cartan, b)
            for i in range(n):
                r = 0
                while b[:i] + (b[i] - r - 1,) + b[i + 1:] in known:
                    r += 1
                up = b[:i] + (b[i] + 1,) + b[i + 1:]
                if r - pairing[i] > 0 and up not in known:
                    known.add(up)
                    nxt.append(up)
        level = nxt
    return sorted(known, key=lambda b: (sum(b), b))


@pytest.mark.parametrize(
    "series,rank",
    [(s, n) for s, (lo, hi) in sorted(roots._RANK_RANGE.items()) for n in range(lo, hi + 1)],
)
def test_reflection_closure_matches_the_root_string_closure(series, rank):
    rs = build_root_system(series, rank)
    got = [b.simple_coords for b in rs.positive_roots]
    assert got == root_string_closure(rs.cartan)


def test_check_dominant_names_the_operation():
    a2 = build_root_system("A", 2)
    assert roots.check_dominant(a2, [0, 3], "test") == (0, 3)
    with pytest.raises(PreconditionError, match=r"^slicing requires a dominant weight, got \(1, -1\)$"):
        roots.check_dominant(a2, (1, -1), "slicing")
    with pytest.raises(ConfigurationError):
        roots.check_dominant(a2, (1.0, 0), "slicing")


def test_check_prime_agrees_with_trial_division():
    for p in range(-5, 501):
        if p >= 2 and all(p % d for d in range(2, p)):
            assert roots.check_prime(p) == p
        else:
            with pytest.raises(ConfigurationError, match=rf"^p={p} is not prime$"):
                roots.check_prime(p)


def test_check_prime_agrees_with_a_sieve_below_200000():
    n = 200_000
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, n, d)))
    for p in range(n):
        try:
            accepted = roots.check_prime(p) == p
        except ConfigurationError:
            accepted = False
        assert accepted == sieve[p], p


def test_check_prime_is_exact_to_psi_13_and_refuses_from_there():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to 2, 3, 5 and 7
    with pytest.raises(ConfigurationError, match=r"^p=3215031751 is not prime$"):
        roots.check_prime(3215031751)
    start = time.process_time()
    assert roots.check_prime(10**18 + 3) == 10**18 + 3
    assert time.process_time() - start < 0.5
    psi_13 = 1287836182261 * 2575672364521  # strong pseudoprime to every prime base <= 41
    for p in (psi_13, psi_13 + 2, 2**89 - 1):  # the last is a Mersenne prime
        refusal = rf"^p={p} is too large: primality is exact below {psi_13}$"
        with pytest.raises(ConfigurationError, match=refusal):
            roots.check_prime(p)


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.booleans(), st.floats(allow_nan=True)))
def test_check_prime_refuses_every_bool_and_float(p):
    with pytest.raises(ConfigurationError, match=rf"^p={re.escape(repr(p))} is not prime$"):
        roots.check_prime(p)


def test_dominant_and_restricted_predicates():
    a1 = build_root_system("A", 1)
    assert roots.is_restricted(a1, (4,), 5)
    assert not roots.is_restricted(a1, (5,), 5)
    a2 = build_root_system("A", 2)
    assert roots.is_dominant(a2, (0, 3))
    assert not roots.is_dominant(a2, (-1, 3))


def test_jantzen_region():
    a1 = build_root_system("A", 1)
    assert roots.jantzen_bound(a1, 5) == 25
    assert roots.in_jantzen_region(a1, (0,), 5)
    assert roots.in_jantzen_region(a1, (24,), 5)
    assert not roots.in_jantzen_region(a1, (25,), 5)
    with pytest.raises(PreconditionError):
        roots.in_jantzen_region(a1, (-3,), 5)


def test_validate_p():
    a1 = build_root_system("A", 1)
    rep = roots.validate_p(a1, 3)
    assert rep.ok and rep.p_odd and rep.p_ge_2h_minus_2
    a2 = build_root_system("A", 2)
    rep = roots.validate_p(a2, 3)
    assert not rep.ok and not rep.p_ge_2h_minus_2
    g2 = build_root_system("G", 2)
    rep = roots.validate_p(g2, 11)
    assert rep.ok


def test_g2_short_long_split():
    g2 = build_root_system("G", 2)
    shorts = [r.simple_coords for r in g2.positive_roots if r.length_half == 1]
    longs = [r.simple_coords for r in g2.positive_roots if r.length_half == 3]
    assert sorted(shorts) == [(1, 0), (1, 1), (2, 1)]
    assert sorted(longs) == [(0, 1), (3, 1), (3, 2)]
    assert g2.highest_short_root.simple_coords == (2, 1)
    assert g2.highest_short_root.coroot == (2, 3)


def test_b2_highest_short_root():
    b2 = build_root_system("B", 2)
    assert b2.highest_short_root.simple_coords == (1, 1)
    assert b2.highest_short_root.coroot == (2, 1)


def test_dominance_order():
    a2 = build_root_system("A", 2)
    assert roots.dominance_leq(a2, (0, 0), (1, 1))  # difference alpha_1 + alpha_2
    assert not roots.dominance_leq(a2, (0, 0), (1, 0))  # not in root lattice
    assert roots.dominance_leq(a2, (1, 1), (1, 1))
    assert not roots.dominance_leq(a2, (3, 0), (0, 0))


def test_dominant_conjugate_and_orbit():
    a2 = build_root_system("A", 2)
    orb = roots.weyl_orbit(a2, (1, 0))
    assert len(orb) == 3
    for v in orb:
        assert roots.dominant_conjugate(a2, v) == (1, 0)
    b2 = build_root_system("B", 2)
    assert len(roots.weyl_orbit(b2, (1, 1))) == 8


def reference_to_dominant_chamber(rs, v):
    """The chamber walk that rebuilds the whole weight tuple at every reflection."""
    cols = rs.simple_columns
    sign = 1
    while True:
        for i, vi in enumerate(v):
            if vi < 0:
                break
        else:
            return v, (sign if all(v) else 0)
        v = tuple(a - vi * c for a, c in zip(v, cols[i]))
        sign = -sign


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_precomputed_moves_agree_with_coordinates(series, rank):
    rs = build_root_system(series, rank)
    for i, col in enumerate(rs.simple_columns):
        assert rs.simple_moves[i] == tuple((j, c) for j, c in enumerate(col) if c)
        assert dict(rs.simple_moves[i])[i] == 2
    for beta in rs.positive_roots:
        assert beta.fund_positive == tuple(
            (j, c) for j, c in enumerate(beta.fund_coords) if c > 0
        )
        assert beta.fund_positive  # a positive root pairs positively with some coroot


@pytest.mark.parametrize("series,rank", ALL_TYPES)
def test_chamber_walk_matches_reference_on_walls(series, rank):
    rs = build_root_system(series, rank)
    rng = random.Random(rank)
    for _ in range(50):
        v = tuple(rng.randint(-3, 3) for _ in range(rank))
        v = v[:-1] + (0,)  # on the wall of the last simple root
        assert roots.to_dominant_chamber(rs, v) == reference_to_dominant_chamber(rs, v)
        assert roots.to_dominant_chamber(rs, v)[1] == 0


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ALL_TYPES), st.data())
def test_chamber_walk_matches_reference_property(typ, data):
    rs = build_root_system(*typ)
    v = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=rs.rank, max_size=rs.rank)))
    got = roots.to_dominant_chamber(rs, v)
    assert got == reference_to_dominant_chamber(rs, v)
    assert roots.to_dominant_chamber(rs, v, min(v)) == got  # the caller's minimum
    dom, sign = got
    assert min(dom) >= 0 and dom == roots.dominant_conjugate(rs, v)
    assert (sign == 0) == (0 in dom)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([t for t in ALL_TYPES if t[1] >= 2]), st.data())
def test_chamber_walk_from_tied_minima_matches_reference(typ, data):
    # the walk reflects at the first of several equal lowest coordinates,
    # where the reference takes the first negative one
    rs = build_root_system(*typ)
    low = data.draw(st.integers(-6, -1))
    v = list(data.draw(st.lists(st.integers(low, 6), min_size=rs.rank, max_size=rs.rank)))
    for i in data.draw(st.sets(st.integers(0, rs.rank - 1), min_size=2, max_size=rs.rank)):
        v[i] = low
    v = tuple(v)
    got = roots.to_dominant_chamber(rs, v, low)
    assert got == reference_to_dominant_chamber(rs, v) == roots.to_dominant_chamber(rs, v)
