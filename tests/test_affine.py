import itertools
import random
from operator import mul

import pytest

from goodfilt.affine import AffineWeylGroup, get_group, restricted_decompose
from goodfilt.errors import (
    ConfigurationError,
    InternalInvariantError,
    PreconditionError,
    SingularWeightError,
)
from goodfilt.roots import build_root_system


def separation_count(group, lam, p):
    """Independent length oracle: multiples of p strictly between the
    coroot pairings of lambda + rho and of its antidominant representative."""
    rs = group.rs
    loc = group.locate(lam, p)
    m = tuple(a + b for a, b in zip(lam, rs.rho))
    m_minus = tuple(a + b for a, b in zip(loc.antidominant_rep, rs.rho))
    total = 0
    for beta in rs.positive_roots:
        hi = sum(c * v for c, v in zip(beta.coroot, m))
        lo = sum(c * v for c, v in zip(beta.coroot, m_minus))
        a, b = sorted((lo, hi))
        k = a // p + 1
        while k * p < b:
            if k * p > a:
                total += 1
            k += 1
    return total


@pytest.fixture(scope="module")
def a1():
    return get_group("A", 1)


@pytest.fixture(scope="module")
def a2():
    return get_group("A", 2)


@pytest.fixture(scope="module")
def b2():
    return get_group("B", 2)


def test_dot_identity(a1):
    assert a1.dot(a1.identity, (2,), 5) == (2,)


def test_dot_simple_reflection(a1):
    s1 = a1.generators[1]
    assert a1.dot(s1, (2,), 5) == (-4,)


def test_dot_affine_generator(a1):
    # Generator 0 reflects across <m, alpha_0^vee> = -p (a wall of the
    # antidominant alcove): m = 3 -> -13, so the weight 2 goes to -14.
    s0 = a1.generators[0]
    assert a1.dot(s0, (2,), 5) == (-14,)


def test_locate_fixtures_a1(a1):
    cases = {
        (-4,): (0, (-4,)),
        (2,): (1, (-4,)),
        (8,): (2, (-2,)),
        (10,): (3, (-2,)),
        (12,): (3, (-4,)),
        (0,): (1, (-2,)),
    }
    for lam, (length, rep) in cases.items():
        loc = a1.locate(lam, 5)
        assert loc.length == length, lam
        assert loc.antidominant_rep == rep, lam


def test_locate_rejects_singular(a1):
    with pytest.raises(SingularWeightError) as exc:
        a1.locate((4,), 5)
    assert exc.value.pairing == 5
    assert str(exc.value) == (
        "weight (4,) is p-singular for p=5: pairing 5 with coroot (1,) is divisible by 5"
    )


def test_is_p_regular(a1, a2):
    assert not a1.is_p_regular((4,), 5)
    assert a1.is_p_regular((2,), 5)
    assert a2.is_p_regular((1, 1), 5)


def test_restricted_decompose():
    rs1 = build_root_system("A", 1)
    assert restricted_decompose(rs1, (7,), 5) == ((2,), (1,))
    assert restricted_decompose(rs1, (4,), 5) == ((4,), (0,))
    rs2 = build_root_system("A", 2)
    assert restricted_decompose(rs2, (6, 7), 5) == ((1, 2), (1, 1))
    with pytest.raises(PreconditionError):
        restricted_decompose(rs1, (-1,), 5)


def test_multiply_invert(a2):
    word = (0, 1, 2, 0, 1)
    x = a2.from_word(word)
    inverse = a2.from_word(reversed(word))
    assert a2.multiply(x, inverse) == a2.identity
    assert a2.multiply(inverse, x) == a2.identity


@pytest.mark.parametrize("word", [[1.9, 0.2], ["2", True], [1, 2.0], [False], "21"])
def test_words_take_int_letters_only(a2, word):
    # int() used to round 1.9 to 1 and read "2" and True as letters
    pattern = r"word \(.*\) has a letter that is not an int$"
    with pytest.raises(ConfigurationError, match=pattern):
        a2.from_word(word)
    with pytest.raises(ConfigurationError, match=pattern):
        a2.from_word((2, 0, word[-1]))
    with pytest.raises(ConfigurationError, match=r"^word \(0, 3\) has letter 3 out of range 0..2$"):
        a2.from_word([0, 3])
    assert a2.from_word([]) == a2.identity


def test_generators_are_involutions(a2):
    def left(x, i):  # s_i x
        return a2.from_word((i,) + a2.canonical_word(x))

    for i in range(3):
        x = a2.from_word((2, 0))
        once = a2.row(x)[i]
        assert a2.row(once)[i] == x
        once_left = left(x, i)
        assert left(once_left, i) == x


def test_dihedral_word_growth(a1):
    x = a1.row(a1.identity)[0]
    x = a1.row(x)[1]
    assert a1.length(x) == 2


def test_length_changes_by_one(a2):
    for word in [(), (1,), (0, 1), (0, 1, 2, 0), (2, 1, 0, 1, 2)]:
        x = a2.from_word(word)
        lx = a2.length(x)
        for i in range(3):
            assert abs(a2.length(a2.row(x)[i]) - lx) == 1


def test_canonical_word_evaluates_and_has_length(a2):
    for word in [(), (0,), (0, 1, 0, 2), (1, 2, 0, 1, 0, 2)]:
        x = a2.from_word(word)
        canon = a2.canonical_word(x)
        assert len(canon) == a2.length(x)
        assert a2.from_word(canon) == x


def test_locate_roundtrip_boxes(a1, a2, b2):
    for lam in [(m,) for m in range(-30, 31)]:
        if a1.is_p_regular(lam, 5):
            loc = a1.locate(lam, 5)
            assert a1.dot(loc.element, loc.antidominant_rep, 5) == lam
    for lam in itertools.product(range(-5, 8), repeat=2):
        if a2.is_p_regular(lam, 5):
            loc = a2.locate(lam, 5)
            assert a2.dot(loc.element, loc.antidominant_rep, 5) == lam
        if b2.is_p_regular(lam, 7):
            loc = b2.locate(lam, 7)
            assert b2.dot(loc.element, loc.antidominant_rep, 7) == lam


def test_length_equals_hyperplane_separation(a1, a2, b2):
    for lam in [(m,) for m in range(-40, 41)]:
        if a1.is_p_regular(lam, 5):
            assert a1.locate(lam, 5).length == separation_count(a1, lam, 5)
    for lam in itertools.product(range(-5, 8), repeat=2):
        if a2.is_p_regular(lam, 5):
            assert a2.locate(lam, 5).length == separation_count(a2, lam, 5)
        if b2.is_p_regular(lam, 7):
            assert b2.locate(lam, 7).length == separation_count(b2, lam, 7)


def test_antidominant_rep_is_in_open_alcove(a2):
    for lam in itertools.product(range(-4, 7), repeat=2):
        if a2.is_p_regular(lam, 5):
            rep = a2.locate(lam, 5).antidominant_rep
            assert a2.in_antidominant_alcove(rep, 5)
            m = tuple(a + b for a, b in zip(rep, a2.rs.rho))
            for beta in a2.rs.positive_roots:
                val = sum(c * v for c, v in zip(beta.coroot, m))
                assert -5 < val < 0


def brute_pairings(rs, weight):
    """<weight + rho, beta^vee> over the positive roots."""
    m = tuple(a + b for a, b in zip(weight, rs.rho))
    return [sum(map(mul, beta.coroot, m)) for beta in rs.positive_roots]


def brute_inside(rs, weight, p):
    return all(-p < v < 0 for v in brute_pairings(rs, weight))


def wall_points(rs, p):
    """One weight on each wall of C_p^- that meets every other condition of
    the alcove: <m, alpha_i^vee> = 0, or <m, alpha_0^vee> = -p, m = weight + rho."""
    n, c = rs.rank, rs.highest_short_root.coroot
    points = [tuple(0 if j == i else -1 for j in range(n)) for i in range(n)]
    # from m = (-1, ..., -1), whose alpha_0 pairing is -sum(c), move it d = p - sum(c)
    # further down by taking x off m_i and y off m_j, x c_i + y c_j = d
    d = p - sum(c)
    i, j, x = next(
        (i, j, x)
        for i, j in itertools.product(range(n), repeat=2)
        for x in range(d // c[i] + 1)
        if (d - x * c[i]) % c[j] == 0
    )
    m = [-1] * n
    m[i] -= x
    m[j] -= (d - x * c[i]) // c[j]
    points.append(tuple(m))
    return [tuple(a - b for a, b in zip(pt, rs.rho)) for pt in points]


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 8), ("B", 3), ("B", 8), ("C", 3), ("C", 8), ("D", 4), ("D", 8),
     ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_locate_and_alcove_against_brute_force_every_type(series, rank):
    """At the two smallest primes p >= h, on seeded random p-regular weights:
    every positive coroot pairing of locate's representative (+ rho) lies in
    (-p, 0), its element maps it back, and its length counts the separating
    hyperplanes; in_antidominant_alcove agrees with the pairing test on
    weights near the representative and on a point of every wall."""
    g = get_group(series, rank)
    rs, rng = g.rs, random.Random(f"{series}{rank}")
    h = rs.coxeter_number
    for p in [q for q in range(h, 3 * h + 3) if is_prime(q)][:2]:
        walls = wall_points(rs, p)
        for w in walls:
            pairings = brute_pairings(rs, w)
            assert all(-p <= v <= 0 for v in pairings) and (0 in pairings or -p in pairings)
            assert not g.in_antidominant_alcove(w, p), (w, p)
        located = 0
        while located < 10:
            lam = tuple(rng.randint(-p // 2, p // 2) for _ in range(rank))
            m = tuple(a + b for a, b in zip(lam, rs.rho))
            if any(sum(map(mul, beta.coroot, m)) % p == 0 for beta in rs.positive_roots):
                continue
            assert g.in_antidominant_alcove(lam, p) == brute_inside(rs, lam, p), (lam, p)
            loc = g.locate(lam, p)
            assert brute_inside(rs, loc.antidominant_rep, p), (lam, p)
            assert g.in_antidominant_alcove(loc.antidominant_rep, p)
            assert g.dot(loc.element, loc.antidominant_rep, p) == lam
            assert loc.length == separation_count(g, lam, p), (lam, p)
            for _ in range(4):  # inside, outside and on walls
                centre = rng.choice(walls + [loc.antidominant_rep])
                near = tuple(a + rng.randint(-1, 1) for a in centre)
                assert g.in_antidominant_alcove(near, p) == brute_inside(rs, near, p), (near, p)
            located += 1


def seeded_singular_weights(rs, p, count, seed):
    """``count`` seeded random p-singular weights with coordinates in [-3p, 3p]."""
    rng, found = random.Random(seed), []
    while len(found) < count:
        lam = tuple(rng.randint(-3 * p, 3 * p) for _ in range(rs.rank))
        m = tuple(a + b for a, b in zip(lam, rs.rho))
        if any(sum(map(mul, beta.coroot, m)) % p == 0 for beta in rs.positive_roots):
            found.append(lam)
    return found


@pytest.mark.parametrize(
    "series,rank",
    [("A", 1), ("A", 8), ("B", 3), ("B", 8), ("C", 3), ("C", 8), ("D", 4), ("D", 8),
     ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_locate_refuses_a_p_singular_weight_before_its_walk(series, rank):
    """At the two smallest primes p >= h, on seeded random p-singular weights:
    locate raises the error of assert_p_regular, naming the same coroot and
    pairing, and creates no id in a fresh group."""
    rs = build_root_system(series, rank)
    g, h = AffineWeylGroup(rs), rs.coxeter_number
    for p in [q for q in range(h, 3 * h + 3) if is_prime(q)][:2]:
        for lam in seeded_singular_weights(rs, p, 5, f"singular {series}{rank} {p}"):
            with pytest.raises(SingularWeightError) as expected:
                g.assert_p_regular(lam, p)
            ids = g.stats()["ids"]
            with pytest.raises(SingularWeightError) as refused:
                g.locate(lam, p)
            assert (refused.value.coroot, refused.value.pairing) == (
                expected.value.coroot,
                expected.value.pairing,
            ), (lam, p)
            assert g.stats()["ids"] == ids, (lam, p)


@pytest.mark.parametrize("series,rank,p", [("A", 2, 7), ("B", 2, 7), ("G", 2, 13), ("D", 4, 7)])
def test_locate_refuses_a_walk_that_ends_on_a_wall(monkeypatch, series, rank, p):
    """With the up-front regularity check made a no-op, the walk of a
    p-singular weight ends on a wall of C_p^-, which locate's endpoint check
    refuses: the inversion and length checks pass on such a walk."""
    g = AffineWeylGroup(build_root_system(series, rank))
    monkeypatch.setattr(g, "_assert_p_regular", lambda lam, p: None)
    for lam in seeded_singular_weights(g.rs, p, 20, f"wall {series}{rank}"):
        with pytest.raises(InternalInvariantError, match="ended on a wall"):
            g.locate(lam, p)


def test_bruhat_basics(a1, a2):
    y = a2.from_word((0, 1, 2, 0))
    assert a2.bruhat_leq(a2.identity, y)
    assert a2.bruhat_leq(y, y)
    # dihedral subword property: unique elements per length, comparable iff shorter
    for lx in range(4):
        for ly in range(4):
            for wx in ({tuple((i % 2 for i in range(s, s + lx))) for s in (0, 1)}):
                for wy in ({tuple((i % 2 for i in range(s, s + ly))) for s in (0, 1)}):
                    x, yy = a1.from_word(wx), a1.from_word(wy)
                    expect = lx < ly or x == yy
                    assert a1.bruhat_leq(x, yy) == expect


@pytest.mark.parametrize("series", ["A", "B"])
def test_bruhat_is_length_refined_partial_order(series):
    g = get_group(series, 2)
    elements = g.elements_up_to_length(6)
    pairs = [
        (x, y)
        for x in elements
        for y in elements
        if g.bruhat_leq(x, y)
    ]
    for x, y in pairs:
        assert g.length(x) <= g.length(y)
        if g.bruhat_leq(y, x):
            assert x == y
    leq = set((id(x), id(y)) for x, y in pairs)
    by_id = {id(x): x for x in elements}
    for (ax, ay) in pairs:
        for (bx, by) in pairs:
            if ay == bx:
                assert (id(ax), id(by)) in leq or g.bruhat_leq(ax, by)


def test_lower_ideal_matches_bruhat(a2):
    y = a2.from_word((0, 1, 2, 1, 0))
    ideal = a2.lower_ideal(y)
    for z in a2.elements_up_to_length(5):
        assert (z in ideal) == a2.bruhat_leq(z, y)


def test_linkage_iff_same_antidominant_rep(a1):
    p = 5
    box = [(m,) for m in range(-20, 21) if a1.is_p_regular((m,), p)]
    # orbit of each weight within the box by closing under generator dots
    for lam in box:
        # walk the dot orbit inside a roomier interval, then compare on the box
        orbit = {lam}
        frontier = [lam]
        while frontier:
            new = []
            for w in frontier:
                for g in a1.generators:
                    img = a1.dot(g, w, p)
                    if img not in orbit and -50 <= img[0] <= 50:
                        orbit.add(img)
                        new.append(img)
            frontier = new
        for mu in box:
            same_rep = a1.linked(lam, mu, p)
            assert same_rep == (mu in orbit), (lam, mu)


def test_element_count_growth_dihedral(a1):
    assert len(a1.elements_up_to_length(12)) == 25  # 1 + 2 per length


def test_locate_commutes_with_duality(a2):
    # lengths and representatives transport along star = -w0
    from goodfilt.roots import star

    rs = a2.rs
    p = 7
    for lam in itertools.product(range(-3, 9), repeat=2):
        if not a2.is_p_regular(lam, p):
            continue
        loc = a2.locate(lam, p)
        st = star(rs, lam)
        loc_st = a2.locate(st, p)
        assert loc_st.length == loc.length
        assert loc_st.antidominant_rep == star(rs, loc.antidominant_rep)


def test_locate_word_is_canonical(a1):
    loc = a1.locate((10,), 5)
    assert a1.canonical_word(loc.element) == (1, 0, 1)
    loc8 = a1.locate((8,), 5)
    assert a1.canonical_word(loc8.element) == (1, 0)
