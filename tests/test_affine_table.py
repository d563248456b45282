"""The Cayley table of the affine Weyl group against an independent model.

The model multiplies the matrix forms (w, nu) of the generators directly,
built here from the root data alone, and computes lengths by the
root-counting formula with an exact inverse.  The dominance flag is checked
against the dot action applied to every element.
"""

import itertools
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfilt.affine import AffineWeylGroup, get_group
from goodfilt.errors import ConfigurationError, PreconditionError, SingularWeightError
from goodfilt.roots import build_root_system
from reference_linalg import fraction_inverse  # tests/ is on the path

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]


def generator_forms(rs):
    """(w, nu) of s_0, ..., s_r: m -> m - (<m, alpha^vee> + k p) alpha."""
    n = rs.rank
    a0 = rs.highest_short_root
    s0 = [[int(k == j) - a0.fund_coords[k] * a0.coroot[j] for j in range(n)] for k in range(n)]
    forms = [(s0, [-c for c in a0.fund_coords])]
    for i in range(n):
        alpha = [rs.cartan[k][i] for k in range(n)]
        mat = [[int(k == j) - alpha[k] * int(j == i) for j in range(n)] for k in range(n)]
        forms.append((mat, [0] * n))
    return forms


def compose(a, b):
    (am, at), (bm, bt) = a, b
    n = len(am)
    mat = [[sum(am[i][k] * bm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    tr = [sum(am[i][k] * bt[k] for k in range(n)) + at[i] for i in range(n)]
    return mat, tr


def model_form(rs, word):
    n = rs.rank
    form = ([[int(i == j) for j in range(n)] for i in range(n)], [0] * n)
    gens = generator_forms(rs)
    for i in word:
        form = compose(form, gens[i])
    return tuple(map(tuple, form[0])), tuple(form[1])


def model_inverse(form):
    """(w, nu)^{-1} = (w^{-1}, -w^{-1} nu), exactly."""
    w, nu = form
    winv = fraction_inverse(w)
    return winv, tuple(-sum(a * t for a, t in zip(row, nu)) for row in winv)


def root_count_length(rs, form):
    """sum over positive beta of |<nu, beta^vee> + [w^{-1}(beta) < 0]|."""
    w, nu = form
    winv = fraction_inverse(w)
    positive = {beta.fund_coords for beta in rs.positive_roots}
    total = 0
    for beta in rs.positive_roots:
        k = sum(c * t for c, t in zip(beta.coroot, nu))
        image = tuple(sum(row[j] * beta.fund_coords[j] for j in range(rs.rank)) for row in winv)
        if image not in positive:
            k += 1
        total += abs(k)
    return total


@st.composite
def typed_words(draw):
    series, rank = draw(st.sampled_from(TYPES))
    return series, rank, draw(st.lists(st.integers(0, rank), max_size=12))


@settings(max_examples=300, deadline=None)
@given(typed_words())
def test_table_agrees_with_matrix_model(case):
    series, rank, word = case
    g = get_group(series, rank)
    rs = g.rs
    x = g.from_word(word)
    form = model_form(rs, word)
    assert g._form[x] == form
    assert g._index[form] == x
    assert g.length(x) == root_count_length(rs, form)
    inverse = g.from_word(reversed(word))
    assert g._form[inverse] == model_inverse(form)
    assert g.multiply(x, inverse) == g.multiply(inverse, x) == g.identity
    for i in range(rank + 1):  # left multiplication s_i x
        assert g._form[g.from_word([i] + word)] == model_form(rs, [i] + word)
    y = g.identity
    for i in word:
        for j, z in enumerate(g.row(y)):
            assert g.row(z)[j] == y
        y = g.row(y)[i]


class MatrixProductGroup(AffineWeylGroup):
    """The group with the earlier row fill, kept as a reference: each
    neighbour's form is the matrix product of x's form with the generator's."""

    def __init__(self, rs):
        super().__init__(rs)
        a0 = rs.highest_short_root
        walls = [(a0.fund_coords, 1)] + [
            (tuple(-rs.cartan[k][i] for k in range(rs.rank)), 0) for i in range(rs.rank)
        ]
        self.ref_gens = [(*form, *wall) for form, wall in zip(generator_forms(rs), walls)]
        self.ref_coroot = {
            tuple(e * c for c in b.fund_coords): tuple(e * c for c in b.coroot)
            for b in rs.positive_roots
            for e in (1, -1)
        }

    def _fill_row(self, x):
        with self._lock:
            row = self._rmul[x]
            if row is not None:
                return row
            mat, tr = self._form[x]
            lx = self._length[x]
            h = self.rs.coxeter_number
            row = []
            for gmat, gtr, gamma, k in self.ref_gens:
                wg = tuple(sum(a * b for a, b in zip(r, gamma)) for r in mat)
                c = self.ref_coroot[wg]
                up = k * h - sum(c) - h * sum(a * b for a, b in zip(c, tr)) > 0
                m, t = compose((mat, tr), (gmat, gtr))
                form = (tuple(map(tuple, m)), tuple(t))
                y = self._index.get(form)
                if y is None:
                    y = self._new(form, lx + 1 if up else lx - 1)
                row.append(y)
            row = self._rmul[x] = tuple(row)
            return row


@pytest.mark.parametrize(
    "series,rank,bound",
    [("A", 1, 100), ("A", 2, 24), ("B", 2, 24), ("G", 2, 28), ("A", 3, 12),
     ("B", 3, 11), ("C", 3, 11), ("D", 4, 9), ("F", 4, 9)],
)
def test_row_fill_agrees_with_matrix_products(series, rank, bound):
    # both groups create their ids in the same order, so the arrays agree
    # id by id exactly when every neighbour's form does
    rs = build_root_system(series, rank)
    g, ref = AffineWeylGroup(rs), MatrixProductGroup(rs)
    for group in (g, ref):
        group.elements_up_to_length(bound)
        group.dominant_up_to_length(bound + 4)
    assert len(g._form) == len(ref._form) > bound
    assert g._form == ref._form
    assert g._rmul == ref._rmul
    assert g._length == ref._length
    assert g._dominant == ref._dominant


@pytest.mark.parametrize("series,rank", [("A", 2), ("B", 2), ("G", 2)])
def test_the_stored_descent_is_the_stripping_rule(series, rank):
    # a flagged y strips its lowest descent s with ys flagged; any other y,
    # and w_0, which has no such s, strips its lowest descent
    g = AffineWeylGroup(build_root_system(series, rank))
    for y in g.elements_up_to_length(12)[1:]:
        descents = g.right_descents(y)
        down = [s for s in descents if g.is_dominant(g.row(y)[s])]
        expected = down[0] if g.is_dominant(y) and down else descents[0]
        assert g._descent[y] == g.descent(y) == expected


@pytest.mark.parametrize("series,rank", TYPES)
def test_every_edge_is_an_involution(series, rank):
    g = get_group(series, rank)
    g.elements_up_to_length(6)
    for x, row in enumerate(list(g._rmul)):  # checking fills more rows
        if row is None:
            continue
        for i, y in enumerate(row):
            assert g.row(y)[i] == x
            assert abs(g.length(y) - g.length(x)) == 1
            assert (i in g.right_descents(x)) == (g.length(y) < g.length(x))


@pytest.mark.parametrize("series,rank", TYPES)
def test_elements_up_to_length_keeps_its_levels(series, rank):
    rs = build_root_system(series, rank)
    g = AffineWeylGroup(rs)
    for k in (0, 1, 3, 5, 4, 2, 0, 5):
        fresh = AffineWeylGroup(rs)
        got = [g.canonical_word(z) for z in g.elements_up_to_length(k)]
        assert got == [fresh.canonical_word(z) for z in fresh.elements_up_to_length(k)]
    # every element of length <= k is the product of some word of length <= k,
    # so a negative bound holds none, not even the identity
    for k in (5, -1):
        model = {
            model_form(rs, w)
            for n in range(k + 1)
            for w in itertools.product(range(rank + 1), repeat=n)
        }
        assert {g._form[z] for z in g.elements_up_to_length(k)} == model


def test_concurrent_fills_agree_with_sequential():
    rs = build_root_system("B", 2)
    words = [w for n in range(7) for w in itertools.product(range(3), repeat=n)]
    shared = AffineWeylGroup(rs)
    rep, base = (-2, -2), (4, 0)  # -rho in C_7^-; (4, 0) is a residue of its orbit

    def orbits(g):
        return [(g.canonical_word(z), wt) for z, wt in g.dominant_orbit(rep, 7, 9)] + [
            (g.canonical_word(z), tau)
            for parity in (0, 1)
            for tau, z in g._orbit_congruent(rep, 7, 9, base, parity).items()
        ]

    def work(_):
        return [shared.canonical_word(shared.from_word(w)) for w in words], [
            shared.canonical_word(z) for z in shared.elements_up_to_length(6)
        ], orbits(shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    alone = AffineWeylGroup(rs)
    expected = (
        [alone.canonical_word(alone.from_word(w)) for w in words],
        [alone.canonical_word(z) for z in alone.elements_up_to_length(6)],
        orbits(alone),
    )
    assert len(expected[2]) > len(alone.dominant_up_to_length(9))  # base is reached
    assert all(r == expected for r in results)
    # a lost update would give one matrix form two ids, or drop a kept level
    # or keep it twice: every flagged id up to the kept depth is in exactly one
    assert len(shared._index) == len(shared._form) == len(shared._dominant)
    levels = shared._dominant_levels
    kept = [z for level in levels for z in level]
    assert all(shared.length(z) == k for k, level in enumerate(levels) for z in level)
    assert sorted(kept) == [
        z for z in range(len(shared._form))
        if shared.is_dominant(z) and shared.length(z) < len(levels)
    ]


# -- the dominance flag -------------------------------------------------------

PRIMES = {("A", 1): (5, 7), ("A", 2): (5, 7), ("B", 2): (5, 7), ("G", 2): (7, 11)}


def reference_dominant_orbit(g, rep, p, max_length):
    """The filter the flag replaced: apply the dot action to every element."""
    images = [(z, g.dot(z, rep, p)) for z in g.elements_up_to_length(max_length)]
    return [(z, wt) for z, wt in images if all(c >= 0 for c in wt)]


def alcove_reps(g, p):
    """Every weight of the open antidominant alcove C_p^-."""
    reps = [
        rep
        for rep in itertools.product(range(-p, -1), repeat=g.rs.rank)
        if g.in_antidominant_alcove(rep, p)
    ]
    for rep in reps:  # locate walks the walls on its own
        loc = g.locate(rep, p)
        assert (loc.antidominant_rep, loc.length) == (rep, 0)
    return reps


@pytest.mark.parametrize("series,rank", TYPES)
def test_dominant_orbit_matches_dot_filter(series, rank):
    g = get_group(series, rank)
    for p in PRIMES[series, rank]:
        reps = alcove_reps(g, p)
        assert reps
        for rep in reps:
            got = g.dominant_orbit(rep, p, 8)
            assert got == reference_dominant_orbit(g, rep, p, 8), (rep, p)
            assert got


@st.composite
def words_with_reps(draw):
    series, rank, word = draw(typed_words())
    g = get_group(series, rank)
    p = draw(st.sampled_from(PRIMES[series, rank]))
    return g, word, p, draw(st.sampled_from(alcove_reps(g, p)))


@settings(max_examples=300, deadline=None)
@given(words_with_reps())
def test_flag_is_dominance_of_the_dot_image(case):
    g, word, p, rep = case
    z = g.from_word(word)
    assert g.is_dominant(z) == all(c >= 0 for c in g.dot(z, rep, p))


@pytest.mark.parametrize(
    "series, rank, rep, p",
    [
        ("A", 1, (0,), 5),
        ("A", 1, (-1,), 5),  # on the wall <m, alpha^vee> = 0
        ("A", 1, (-6,), 5),  # on the affine wall
        ("A", 1, (-7,), 5),
        ("A", 1, (-3,), 2),  # on the affine wall at p = 2
        ("A", 2, (-2, 0), 7),
        ("A", 2, (-8, -2), 7),
        ("B", 2, (-2, -2), 3),  # C_3^- holds no weight when p < h
    ],
)
def test_dominant_orbit_requires_rep_in_the_alcove(series, rank, rep, p):
    g = get_group(series, rank)
    with pytest.raises(PreconditionError, match=rf"rep={re.escape(str(rep))} .* p={p}$"):
        g.dominant_orbit(rep, p, 4)


# -- the kept levels as the orbit index ----------------------------------------


@pytest.mark.parametrize("series,rank", TYPES)
def test_deeper_walks_leave_the_orbit_answers_unchanged(series, rank):
    # both walks slice the kept levels; a group that has kept levels past a
    # bound answers it exactly as a fresh group, which keeps only that far
    rs = build_root_system(series, rank)
    g = AffineWeylGroup(rs)
    p = PRIMES[series, rank][0]
    reps = alcove_reps(get_group(series, rank), p)[:2]
    bases = list(itertools.product(range(p), repeat=rank))

    def answers(group, rep, k):
        word = group.canonical_word
        return [(word(z), wt) for z, wt in group.dominant_orbit(rep, p, k)], [
            [(tau, word(z)) for tau, z in group._orbit_congruent(rep, p, k, base, parity).items()]
            for base in bases
            for parity in (0, 1)
        ]

    for k in (8, 2, 5):  # the first walk keeps the levels every later one reads
        for rep in reps:
            got = answers(g, rep, k)
            assert got == answers(AffineWeylGroup(rs), rep, k), (rep, k)
            assert got[0] == [(g.canonical_word(z), wt)
                              for z, wt in reference_dominant_orbit(g, rep, p, k)]
    assert len(g._dominant_levels) == 9


@pytest.mark.parametrize(
    "series, rank, primes",
    [("A", 1, (5, 7)), ("A", 2, (5, 7)), ("B", 2, (5, 7)), ("G", 2, (7, 11)),
     ("A", 3, (5, 7)), ("C", 3, (7, 11))],
)
def test_length_law_gives_the_length_of_every_flagged_id(series, rank, primes):
    g = AffineWeylGroup(build_root_system(series, rank))
    flagged = g.dominant_up_to_length(10)
    for p in primes:
        for rep in alcove_reps(g, p):
            for z in flagged:
                assert g.dominant_length(g.dot(z, rep, p), p) == g.length(z), (p, rep, z)


def test_length_law_refuses_what_it_does_not_cover():
    g = get_group("B", 2)
    assert g.dominant_length((0, 0), 7) == g.locate((0, 0), 7).length
    with pytest.raises(PreconditionError, match=r"dominant weight, got \(1, -1\)"):
        g.dominant_length((1, -1), 7)
    with pytest.raises(SingularWeightError):
        g.dominant_length((5, 0), 7)


@pytest.mark.parametrize("series,rank", TYPES)
def test_congruent_orbit_yields_the_elements_locate_finds(series, rank):
    # tables read the yielded z as the location of its weight; a fresh
    # group walks each weight into C_p^- and checks it
    rs = build_root_system(series, rank)
    g, fresh = AffineWeylGroup(rs), AffineWeylGroup(rs)
    checked = 0
    for p in PRIMES[series, rank]:
        for rep in alcove_reps(get_group(series, rank), p):
            for base, parity in itertools.product(
                itertools.product(range(p), repeat=rank), (0, 1)
            ):
                for tau, z in g._orbit_congruent(rep, p, 8, base, parity).items():
                    wt = tuple(b + p * t for b, t in zip(base, tau))
                    assert g.dot(z, rep, p) == wt and min(tau) >= 0
                    assert g.length(z) % 2 == parity
                    want = fresh.locate(wt, p)
                    assert g.canonical_word(z) == fresh.canonical_word(want.element)
                    assert (rep, g.length(z)) == (want.antidominant_rep, want.length)
                    checked += 1
    assert checked and not g._locate  # the enumeration writes no locate memo


def test_precondition_holds_after_a_served_query():
    # (rep, 5.0) hashes like (rep, 5): nothing served for (rep, 5) may answer it
    g = get_group("A", 1)
    rep = (-3,)
    (z, (top,)), *_ = g.dominant_orbit(rep, 5, 4)
    assert g._orbit_congruent(rep, 5, 4, (top % 5,), g.length(z) % 2)  # the tables' walk
    with pytest.raises(ConfigurationError, match=r"^p=5.0 is not prime$"):
        g.dominant_orbit(rep, 5.0, 4)
