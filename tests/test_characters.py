import itertools
import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goodfilt import characters as ch
from goodfilt import roots as r
from goodfilt.errors import ConfigurationError, InternalInvariantError, PreconditionError
from goodfilt.roots import _RANK_RANGE, build_root_system

BOX_LIMIT = 3000  # largest root-lattice box of a drawn weight
BOX_CAP = 60000  # largest box of a chosen weight


def box_bound(rs, lam):
    """Simple-root coordinates of lam - w0(lam), the far corner of the box."""
    w0_lam = tuple(-x for x in r.star(rs, lam))  # w0 = -star
    return r.root_lattice_coords(rs, tuple(a - b for a, b in zip(lam, w0_lam)))


def box_size(rs, lam):
    size = 1
    for b in box_bound(rs, lam):
        size *= b + 1
    return size


def box_dominant_below(rs, lam):
    """Reference for dominant_below: every point lam - sum c_i alpha_i of the box
    0 <= c <= coords(lam - w0 lam), kept when dominant, in the walk's order."""
    cols = [tuple(rs.cartan[k][i] for k in range(rs.rank)) for i in range(rs.rank)]
    bound = box_bound(rs, lam)
    found = []

    def fill(i, mu, c):
        if i == rs.rank:
            if min(mu) >= 0:
                found.append((mu, c))
            return
        for ci in range(bound[i] + 1):
            fill(i + 1, mu, c + (ci,))
            mu = tuple(a - b for a, b in zip(mu, cols[i]))

    fill(0, tuple(lam), ())
    return tuple(sorted(found, key=lambda t: (sum(t[1]), t[0])))


def orbit_size(rs, mu):
    """|W mu| for dominant mu, from |W_J| = prod over the positive roots of the
    parabolic subsystem J = {i : mu_i = 0} of (ht + 1) / ht (Macdonald)."""
    size = Fraction(1)
    for beta in rs.positive_roots:
        if any(c and m for c, m in zip(beta.simple_coords, mu)):
            size *= Fraction(beta.height + 1, beta.height)
    assert size.denominator == 1
    return int(size)


def reference_dominant_multiplicities(rs, lam):
    """Reference for dominant_multiplicities: Freudenthal with one string per
    positive root, each step reflected to the dominant chamber."""

    def form(v, b):  # (v, b), v in fundamental and b in simple-root coordinates
        return sum(x * c * d for x, c, d in zip(v, b, rs.symmetrizer))

    mult = {lam: 1}
    lam_2rho = tuple(a + 2 * x for a, x in zip(lam, rs.rho))
    for mu, diff_coords in ch.dominant_below(rs, lam)[1:]:
        acc = 0
        for beta in rs.positive_roots:
            up, f = mu, form(mu, beta.simple_coords)
            while True:
                up = tuple(v + c for v, c in zip(up, beta.fund_coords))
                f += 2 * beta.length_half
                m = mult.get(r.to_dominant_chamber(rs, up)[0], 0)
                if not m:
                    break
                acc += m * f
        num, den = 2 * acc, form(tuple(a + b for a, b in zip(lam_2rho, mu)), diff_coords)
        assert den > 0 and num % den == 0, (rs, lam, mu)
        mult[mu] = num // den
    return mult


def reference_weyl_orbit(rs, weight):
    """Reference for weyl_orbit: breadth-first closure under every s_i."""
    start = tuple(weight)
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            for vi, col in zip(v, rs.simple_columns):
                img = tuple(a - vi * c for a, c in zip(v, col))
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(seen)


def smallest_weights(rs):
    """lam = 0 and the nonzero weights of coordinate sum <= 2 with the
    smallest root-lattice boxes, at most four of them and none above BOX_CAP."""
    weights = [lam for lam in itertools.product(range(3), repeat=rs.rank) if 0 < sum(lam) <= 2]
    sized = sorted((box_size(rs, lam), lam) for lam in weights)
    return [(0,) * rs.rank] + [lam for size, lam in sized[:4] if size <= BOX_CAP]


def all_types():
    return [
        build_root_system(series, rank)
        for series, (lo, hi) in _RANK_RANGE.items()
        for rank in range(lo, hi + 1)
    ]


def product_character(rs, a, b):
    """Literal character product (test oracle path)."""
    ca = ch.weight_multiplicities(rs, a)
    cb = ch.weight_multiplicities(rs, b)
    if len(ca) > len(cb):
        ca, cb = cb, ca
    out = {}
    for u, cu in ca.items():
        for v, cv in cb.items():
            w = tuple(x + y for x, y in zip(u, v))
            out[w] = out.get(w, 0) + cu * cv
    return out


def strip_decompose(rs, a, b):
    """Greedy highest-weight stripping of the literal product (test oracle)."""
    remaining = {
        w: m for w, m in product_character(rs, a, b).items() if all(x >= 0 for x in w)
    }

    def height(w):  # inverse_cartan_den > 0 times the height
        return sum(r._scaled_root_coords(rs, w))

    result = {}
    while remaining:
        top = max(remaining, key=lambda w: (height(w), w))
        mult = remaining[top]
        assert mult > 0
        result[top] = mult
        for w, m in ch.dominant_multiplicities(rs, top).items():
            left = remaining.get(w, 0) - mult * m
            assert left >= 0, (top, w)
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
    return result


def reference_brauer_klimyk(rs, a, b):
    """Brauer-Klimyk with every rho-shifted weight walked to the dominant
    chamber, walls included (the loop before the wall shortcut)."""
    small, big = (a, b) if ch.dim_nabla(rs, a) <= ch.dim_nabla(rs, b) else (b, a)
    acc = {}
    big_shifted = tuple(x + r for x, r in zip(big, rs.rho))
    for nu, mult in ch.weight_multiplicities(rs, small).items():
        shifted = tuple(x + n for x, n in zip(big_shifted, nu))
        dom, sign = r.to_dominant_chamber(rs, shifted)
        if sign:
            omega = tuple(x - y for x, y in zip(dom, rs.rho))
            acc[omega] = acc.get(omega, 0) + sign * mult
    return {omega: m for omega, m in acc.items() if m}


@pytest.fixture(scope="module")
def a1():
    return build_root_system("A", 1)


@pytest.fixture(scope="module")
def a2():
    return build_root_system("A", 2)


@pytest.fixture(scope="module")
def b2():
    return build_root_system("B", 2)


def test_a1_string(a1):
    assert ch.weight_multiplicities(a1, (3,)) == {(3,): 1, (1,): 1, (-1,): 1, (-3,): 1}


def test_a2_adjoint(a2):
    full = ch.weight_multiplicities(a2, (1, 1))
    assert full[(0, 0)] == 2
    assert sum(full.values()) == 8
    assert ch.dim_nabla(a2, (1, 1)) == 8


def test_highest_weight_multiplicity_is_one(a2, b2):
    for rs, lam in [(a2, (3, 2)), (b2, (2, 2))]:
        assert ch.weight_multiplicities(rs, lam)[lam] == 1


def test_dim_examples(a1):
    assert ch.dim_nabla(a1, (7,)) == 8
    a3 = build_root_system("A", 3)
    assert ch.dim_nabla(a3, (1, 0, 0)) == 4
    g2 = build_root_system("G", 2)
    assert ch.dim_nabla(g2, (1, 0)) == 7
    assert ch.dim_nabla(g2, (0, 1)) == 14


def test_dim_requires_dominant(a1):
    with pytest.raises(PreconditionError):
        ch.dim_nabla(a1, (-2,))


def test_dim_checks_its_weight_ahead_of_the_cache(a2):
    # a warm (1, 0) entry answers neither (True, 0) nor (1.0, 0), and a list is a weight
    assert ch.dim_nabla(a2, (1, 0)) == 3
    for weight in [(True, 0), (1.0, 0)]:
        with pytest.raises(ConfigurationError):
            ch.dim_nabla(a2, weight)
    assert ch.dim_nabla(a2, [1, 0]) == 3


@pytest.mark.parametrize("series, rank", [("A", 2), ("B", 2), ("G", 2), ("A", 3)])
def test_constituents_lie_below_omega_plus_the_starred_factors(series, rank):
    # [nabla(tau) (x) E : nabla(omega)] = [nabla(omega) (x) E* : nabla(tau)], so every
    # constituent omega has tau <= omega + the sum of the e*: extmult's omega tops
    rs = build_root_system(series, rank)
    rng = random.Random(0)
    checked = 0
    for _ in range(12):
        tau, e1, e2 = (tuple(rng.randrange(3) for _ in range(rank)) for _ in range(3))
        for es, product in [
            ((e1,), ch.tensor_nabla_multiplicities(rs, tau, e1)),
            ((e1, e2), ch.multi_tensor_nabla_multiplicities(rs, e1, e2, tau)),
        ]:
            shift = tuple(map(sum, zip(*(r.star(rs, e) for e in es))))
            for omega in product:
                assert r.dominance_leq(rs, tau, tuple(map(add, omega, shift))), (tau, es, omega)
                checked += 1
    assert checked


def test_dim_weight_space(a1, a2):
    assert ch.dim_weight_space(a1, (2,), (0,)) == 1
    assert ch.dim_weight_space(a2, (1, 1), (0, 0)) == 2
    assert ch.dim_weight_space(a2, (1, 1), (1, 1)) == 1
    assert ch.dim_weight_space(a2, (1, 0), (2, 0)) == 0
    # lookups reflect through the Weyl group
    assert ch.dim_weight_space(a1, (4,), (-2,)) == 1


def test_freudenthal_total_matches_weyl_dimension(a1, a2, b2):
    for m in range(0, 26):
        assert sum(ch.weight_multiplicities(a1, (m,)).values()) == m + 1
    for rs in (a2, b2):
        for lam in itertools.product(range(0, 5), repeat=2):
            total = sum(ch.weight_multiplicities(rs, lam).values())
            assert total == ch.dim_nabla(rs, lam), lam
            for mu in ch.dominant_multiplicities(rs, lam):
                assert orbit_size(rs, mu) == len(r.weyl_orbit(rs, mu))
    g2 = build_root_system("G", 2)
    for lam in itertools.product(range(0, 4), repeat=2):
        total = sum(ch.weight_multiplicities(g2, lam).values())
        assert total == ch.dim_nabla(g2, lam), lam
    # every fundamental weight at high rank, where the full character is too
    # large to list: dominant multiplicities times orbit sizes
    for series, rank in [("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 6),
                         ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        weights = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        if series == "E" and rank == 8:
            weights.append((0,) * 7 + (2,))  # box of 2.08e9 points
        for lam in weights:
            total = sum(
                m * orbit_size(rs, mu) for mu, m in ch.dominant_multiplicities(rs, lam).items()
            )
            assert total == ch.dim_nabla(rs, lam), (rs, lam)


def test_dominant_below_matches_box_on_every_type():
    # E8 has no nonzero weight within reach (omega_8 alone has 1.4e7 box points)
    for rs in all_types():
        chosen = smallest_weights(rs)
        assert len(chosen) > 1 or (rs.series, rs.rank) == ("E", 8)
        for lam in chosen:
            assert ch.dominant_below(rs, lam) == box_dominant_below(rs, lam), (rs, lam)


def test_freudenthal_matches_reference_on_every_type():
    for rs in all_types():
        weights = smallest_weights(rs)
        if rs.series in "EF":
            weights += [tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)]
        for lam in weights:
            assert ch.dominant_multiplicities(rs, lam) == reference_dominant_multiplicities(
                rs, lam
            ), (rs, lam)


def test_root_groups_partition_the_positive_roots():
    for rs in all_types():
        lengths = {beta.length_half for beta in rs.positive_roots}
        for wall in itertools.chain.from_iterable(
            itertools.combinations(range(rs.rank), k) for k in range(rs.rank + 1)
        ):
            groups = ch._root_groups(rs, wall)
            assert sum(size for _, size in groups) == len(rs.positive_roots), (rs, wall)
            for beta, _ in groups:  # each representative is J-dominant
                assert all(beta.fund_coords[j] >= 0 for j in wall), (rs, wall, beta)
            if not wall:
                assert all(size == 1 for _, size in groups)
            if len(wall) == rs.rank:  # W is transitive on the roots of one length
                assert len(groups) == len(lengths)


SMALL_TYPES = [("A", n) for n in range(1, 5)] + [("B", n) for n in range(2, 5)] + [
    ("C", n) for n in range(2, 5)
] + [("D", 4), ("F", 4), ("G", 2)]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_dominant_below_matches_box_property(typ, data):
    rs = build_root_system(*typ)
    lam = tuple(data.draw(st.lists(st.integers(0, 4), min_size=rs.rank, max_size=rs.rank)))
    assume(box_size(rs, lam) <= BOX_LIMIT)
    assert ch.dominant_below(rs, lam) == box_dominant_below(rs, lam)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_freudenthal_matches_reference_property(typ, data):
    rs = build_root_system(*typ)
    lam = tuple(data.draw(st.lists(st.integers(0, 4), min_size=rs.rank, max_size=rs.rank)))
    assume(box_size(rs, lam) <= BOX_LIMIT)
    assert ch.dominant_multiplicities(rs, lam) == reference_dominant_multiplicities(rs, lam)


ORBIT_CAP = 3000  # largest orbit a test expands by breadth-first search


def assert_column_form_holds(rs, mu, reference):
    """The orbit memo of dominant mu: one column per coordinate, whose rows
    are each weight of the reference orbit exactly once."""
    columns = ch._orbit(rs, mu)
    assert len(columns) == rs.rank, (rs, mu)
    rows = list(zip(*columns))
    assert len(rows) == len(reference) and set(rows) == reference, (rs, mu)


def test_weyl_orbit_matches_reference_on_every_type():
    for rs in all_types():
        weights = [(0,) * rs.rank] + [
            tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)
        ]
        for lam in weights:
            size = orbit_size(rs, lam)
            if size > ORBIT_CAP:
                continue
            s1_lam = tuple(a - lam[0] * c for a, c in zip(lam, rs.simple_columns[0]))
            w0_lam = tuple(-x for x in r.star(rs, lam))  # w0 = -star
            for v in (lam, s1_lam, w0_lam):
                orbit = r.weyl_orbit(rs, v)
                assert orbit == reference_weyl_orbit(rs, v), (rs, v)
                assert len(orbit) == size, (rs, v)
            assert_column_form_holds(rs, lam, reference_weyl_orbit(rs, lam))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_weyl_orbit_matches_reference_property(typ, data):
    rs = build_root_system(*typ)
    v = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=rs.rank, max_size=rs.rank)))
    size = orbit_size(rs, r.dominant_conjugate(rs, v))
    assume(size <= ORBIT_CAP)
    orbit = r.weyl_orbit(rs, v)
    assert orbit == reference_weyl_orbit(rs, v)
    assert len(orbit) == size
    assert_column_form_holds(rs, r.dominant_conjugate(rs, v), reference_weyl_orbit(rs, v))


KLIMYK_TYPES = [("A", 4), ("A", 6), ("B", 3), ("B", 4), ("C", 4), ("D", 5), ("E", 6), ("F", 4),
                ("G", 2)]


@pytest.mark.parametrize("typ", KLIMYK_TYPES)
def test_klimyk_matches_reference_on_fundamental_pairs(typ):
    rs = build_root_system(*typ)
    weights = [(0,) * rs.rank] + [
        tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)
    ]
    for a, b in itertools.combinations_with_replacement(weights, 2):
        assert ch.tensor_nabla_multiplicities(rs, a, b) == reference_brauer_klimyk(rs, a, b), (
            rs, a, b,
        )


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_TYPES), st.data())
def test_klimyk_matches_reference_property(typ, data):
    rs = build_root_system(*typ)
    draw = lambda: tuple(
        data.draw(st.lists(st.integers(0, 2), min_size=rs.rank, max_size=rs.rank))
    )
    a, b = draw(), draw()
    assume(min(ch.dim_nabla(rs, a), ch.dim_nabla(rs, b)) <= 2000)
    assert ch.tensor_nabla_multiplicities(rs, a, b) == reference_brauer_klimyk(rs, a, b)


WALK_PAIRS = [
    (("E", 6), (0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0)),
    (("A", 6), (1, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 1)),
    (("F", 4), (1, 0, 0, 0), (0, 0, 1, 0)),
    (("G", 2), (1, 1), (2, 0)),
    (("A", 2), (5, 5), (1, 1)),  # every term regular dominant: nothing is walked
]


@pytest.mark.parametrize("typ, a, b", WALK_PAIRS)
def test_tensor_walks_only_the_terms_off_the_walls_and_the_chamber(typ, a, b, monkeypatch):
    rs = build_root_system(*typ)
    for f in vars(ch).values():
        if hasattr(f, "cache_info"):
            f.cache_clear()
    small, big = (a, b) if ch.dim_nabla(rs, a) <= ch.dim_nabla(rs, b) else (b, a)
    # a plain loop classifies the terms v = big + rho + nu; it also fills the
    # character and orbit memos, so the walks counted below are the tensor's
    counts, walking = {"wall": 0, "dominant": 0}, []
    for nu in ch.weight_multiplicities(rs, small):
        v = tuple(x + y + 1 for x, y in zip(big, nu))  # rho = (1, ..., 1)
        if 0 in v:
            counts["wall"] += 1
        elif min(v) > 0:
            counts["dominant"] += 1
        else:
            walking.append(v)
    real, walked = r.to_dominant_chamber, []

    def counted(rs, v, *low):
        walked.append(v)
        return real(rs, v, *low)

    monkeypatch.setattr(r, "to_dominant_chamber", counted)
    got = ch.tensor_nabla_multiplicities(rs, a, b)
    monkeypatch.undo()
    assert got == reference_brauer_klimyk(rs, a, b)
    assert sorted(walked) == sorted(walking), (rs, a, b)
    if (typ, a, b) == WALK_PAIRS[-1]:
        assert not walking and counts["wall"] == 0
    else:
        assert walking and counts["wall"] and counts["dominant"]


def test_returned_dicts_do_not_alias_the_caches(a2):
    d = ch.dominant_multiplicities(a2, (1, 1))
    d[(9, 9)] = 7
    del d[(0, 0)]
    assert ch.dominant_multiplicities(a2, (1, 1)) == {(1, 1): 1, (0, 0): 2}
    assert ch.dim_weight_space(a2, (1, 1), (9, 9)) == 0
    assert ch.dim_weight_space(a2, (1, 1), (0, 0)) == 2
    full = ch.weight_multiplicities(a2, (1, 1))
    full[(0, 0)] = 5
    assert ch.weight_multiplicities(a2, (1, 1))[(0, 0)] == 2
    tensor = ch.tensor_nabla_multiplicities(a2, (1, 0), (0, 1))
    tensor[(0, 0)] = 3
    assert ch.tensor_nabla_multiplicities(a2, (1, 0), (0, 1)) == {(1, 1): 1, (0, 0): 1}


def test_stats_after_a_tensor_query():
    caches = [f for f in vars(ch).values() if hasattr(f, "cache_info")]
    for f in caches:
        f.cache_clear()
    assert set(ch.stats().values()) == {0}
    g2 = build_root_system("G", 2)
    assert ch.tensor_nabla_multiplicities(g2, (0, 1), (1, 0)) == {
        (1, 1): 1, (2, 0): 1, (1, 0): 1,
    }
    # the character of the 7-dimensional factor, whose dominant weights (1, 0)
    # and (0, 0) each need an orbit; only (0, 0) is below the top, and its
    # stabilizer W groups the positive roots by length
    assert ch.stats() == {
        "characters": 1,
        "orbits": 2,
        "root_groupings": 1,
        "dimensions": 2,
        "tensor_pairs": 1,
    }
    # every memo table of the module is reported
    assert sum(ch.stats().values()) == sum(f.cache_info().currsize for f in caches)


@pytest.fixture
def cold_memos():
    """Empty character memos before and after the test, so that an entry made
    while a guard test corrupts a memo or a field answers no other test."""
    caches = [f for f in vars(ch).values() if hasattr(f, "cache_info")]
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_a_negative_tensor_multiplicity_is_refused(a1, cold_memos, monkeypatch):
    # the character of (1,) with -1 at its highest weight: both terms of
    # (1,) x (2,) are regular dominant and sum to -1 at (3,) and at (1,)
    monkeypatch.setitem(ch._dominant_multiplicities(a1, (1,)), (1,), -1)
    with pytest.raises(InternalInvariantError, match=r"negative tensor multiplicity at \(3,\)"):
        ch.tensor_nabla_multiplicities(a1, (1,), (2,))


def test_a_constituent_above_the_top_is_refused(a1, cold_memos, monkeypatch):
    # a weight (3,) slipped into the character of (1,) gives (2,) + (3,) = (5,),
    # above the top (3,) of (1,) x (2,); its other term (-3,) meets the wall
    monkeypatch.setitem(ch._dominant_multiplicities(a1, (1,)), (3,), 1)
    with pytest.raises(InternalInvariantError, match=r"constituent \(5,\) not below \(3,\)"):
        ch.tensor_nabla_multiplicities(a1, (1,), (2,))


def test_a_non_integral_weyl_dimension_is_refused(a2, cold_memos, monkeypatch):
    # every RootSystem reads the class attribute while it is patched; for (1, 0)
    # the pairings <lam + rho, beta^vee> are 2, 1 and 3, whose product 6 is not
    # a multiple of 4
    monkeypatch.setattr(r.RootSystem, "weyl_denominator", 4)
    with pytest.raises(InternalInvariantError, match=r"Weyl dimension not integral for \(1, 0\)"):
        ch.dim_nabla(a2, (1, 0))


def test_character_is_weyl_invariant(a2, b2):
    for rs, lam in [(a2, (2, 1)), (b2, (1, 2))]:
        full = ch.weight_multiplicities(rs, lam)
        for w, m in full.items():
            for img in r.weyl_orbit(rs, w):
                assert full[img] == m


def test_clebsch_gordan(a1):
    assert ch.tensor_nabla_multiplicities(a1, (2,), (3,)) == {
        (5,): 1,
        (3,): 1,
        (1,): 1,
    }


def test_tensor_with_trivial(a2):
    assert ch.tensor_nabla_multiplicities(a2, (2, 1), (0, 0)) == {(2, 1): 1}


def test_a2_three_times_dual(a2):
    assert ch.tensor_nabla_multiplicities(a2, (1, 0), (0, 1)) == {
        (1, 1): 1,
        (0, 0): 1,
    }


def test_tensor_symmetry_and_dimension(a2, b2):
    for rs in (a2, b2):
        for a in itertools.product(range(3), repeat=2):
            for b in itertools.product(range(3), repeat=2):
                d = ch.tensor_nabla_multiplicities(rs, a, b)
                assert d == ch.tensor_nabla_multiplicities(rs, b, a)
                total = sum(m * ch.dim_nabla(rs, w) for w, m in d.items())
                assert total == ch.dim_nabla(rs, a) * ch.dim_nabla(rs, b)
                top = tuple(x + y for x, y in zip(a, b))
                for w in d:
                    assert r.dominance_leq(rs, w, top)


def test_klimyk_equals_stripping_small_box(a1, a2, b2):
    for m in range(0, 9):
        for n in range(0, 9):
            assert ch.tensor_nabla_multiplicities(a1, (m,), (n,)) == strip_decompose(
                a1, (m,), (n,)
            )
    boxes = [(a2, range(3)), (b2, range(3)), (build_root_system("G", 2), range(3)),
             (build_root_system("B", 3), range(2))]
    for rs, coords in boxes:
        for a in itertools.product(coords, repeat=rs.rank):
            for b in itertools.product(coords, repeat=rs.rank):
                assert ch.tensor_nabla_multiplicities(rs, a, b) == strip_decompose(
                    rs, a, b
                ), (rs, a, b)


def test_g2_seven_squared():
    g2 = build_root_system("G", 2)
    assert ch.tensor_nabla_multiplicities(g2, (1, 0), (1, 0)) == {
        (0, 0): 1,
        (1, 0): 1,
        (0, 1): 1,
        (2, 0): 1,
    }


def test_triple_tensor(a1, a2):
    assert ch.multi_tensor_nabla_multiplicities(a1, (1,), (1,), (1,)) == {
        (3,): 1,
        (1,): 2,
    }
    assert ch.multi_tensor_nabla_multiplicities(a2, (2, 0), (0, 0), (0, 0)) == {
        (2, 0): 1
    }
    # independence of the folding order and of argument permutations
    for trip in [((1, 0), (0, 1), (1, 1)), ((2, 0), (1, 0), (0, 1))]:
        base = ch.multi_tensor_nabla_multiplicities(a2, *trip)
        for perm in itertools.permutations(trip):
            assert ch.multi_tensor_nabla_multiplicities(a2, *perm) == base
        # fold in the other association by hand
        a, b, c = trip
        other = {}
        for nu, k in ch.tensor_nabla_multiplicities(a2, b, c).items():
            for om, m in ch.tensor_nabla_multiplicities(a2, a, nu).items():
                other[om] = other.get(om, 0) + k * m
        assert {w: m for w, m in other.items() if m} == base


def test_multi_tensor_folds_no_unit_factor(a2):
    # nabla(0) is the unit: zero weights are dropped before folding, one kept
    # when every weight is zero, and each is still checked for dominance
    zero = (0, 0)
    assert ch.multi_tensor_nabla_multiplicities(a2, zero, zero) == {zero: 1}
    base = ch.multi_tensor_nabla_multiplicities(a2, (1, 0), (0, 1))
    for weights in [(zero, (1, 0), (0, 1)), ((1, 0), zero, (0, 1)), ((1, 0), (0, 1), zero)]:
        assert ch.multi_tensor_nabla_multiplicities(a2, *weights) == base
    with pytest.raises(PreconditionError):
        ch.multi_tensor_nabla_multiplicities(a2, (1, 0), zero, (-1, 0))
