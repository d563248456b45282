"""KL data confined to dominant alcoves against the unrestricted recursion.

``KLTable.kl`` and ``bruhat_leq`` stay among the flagged ids (dominant
alcoves) when both ends are flagged.  That rests on a flagged id being the
longest element of its coset W_fin x, checked here directly, and the values
are held to ``reference_kl``: the right-descent recursion over all of W,
with the lowest descent and the full lower ideal, as the table ran before.
Canonical words strip the same descent, so a flagged id's word is w_0's
word followed by a gallery of flagged ids, and saving or loading a table of
flagged pairs fills rows only of flagged ids and the finite Weyl group.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_klpoly import lowest_descent_word

from goodfilt import extmult as em
from goodfilt.affine import AffineWeylGroup, get_group
from goodfilt.klpoly import KLTable
from goodfilt.roots import build_root_system

TYPES = [("A", 1), ("A", 2), ("B", 2), ("G", 2)]
# exhaustive bounds: at least 12, longer where few alcoves of a length are dominant
EXHAUSTIVE = {("A", 1): 12, ("A", 2): 12, ("B", 2): 14, ("G", 2): 16}
RANDOM = {("A", 1): 30, ("A", 2): 18, ("B", 2): 20, ("G", 2): 24, ("A", 3): 13}


def reference_kl(g, memo, x, y):
    """P_{x,y} by the unrestricted recursion; Bruhat order from ``lower_ideal``."""
    if x == y:
        return (1,)
    if x not in g.lower_ideal(y):
        return ()
    key = (x, y)
    if key in memo:
        return memo[key]
    s = g.right_descents(y)[0]
    v, xs = g.row(y)[s], g.row(x)[s]
    ly = g.length(y)
    if g.length(xs) > g.length(x):
        result = reference_kl(g, memo, xs, y)
    else:
        acc = [0] * (ly - g.length(x) + 2)
        terms = [(0, 1, reference_kl(g, memo, xs, v)), (1, 1, reference_kl(g, memo, x, v))]
        for z in g.lower_ideal(v):
            gap = g.length(v) - g.length(z)
            if gap % 2 and s in g.right_descents(z) and x in g.lower_ideal(z):
                top = reference_kl(g, memo, z, v)
                mu = top[(gap - 1) // 2] if (gap - 1) // 2 < len(top) else 0
                if mu:
                    terms.append(((ly - g.length(z)) // 2, -mu, reference_kl(g, memo, x, z)))
        for shift, scale, poly in terms:
            for i, c in enumerate(poly, start=shift):
                acc[i] += scale * c
        while acc and acc[-1] == 0:
            acc.pop()
        result = tuple(acc)
    memo[key] = result
    return result


@pytest.mark.parametrize("series,rank", TYPES + [("A", 3)])
def test_flagged_iff_every_finite_generator_is_a_left_descent(series, rank):
    g = get_group(series, rank)
    elements = g.elements_up_to_length(9)
    for z in elements:
        word = g.canonical_word(z)
        left = [g.length(g.from_word((i,) + word)) for i in range(1, rank + 1)]
        assert g.is_dominant(z) == all(lz < g.length(z) for lz in left), g.canonical_word(z)
    assert g.dominant_up_to_length(9) == [z for z in elements if g.is_dominant(z)]


@pytest.mark.parametrize("series,rank", TYPES)
def test_flagged_kl_and_bruhat_match_the_unrestricted_recursion(series, rank):
    rs = build_root_system(series, rank)
    g = AffineWeylGroup(rs)
    table = KLTable(g)
    flagged = g.dominant_up_to_length(EXHAUSTIVE[series, rank])
    got = {(x, y): (g.bruhat_leq(x, y), table.kl(x, y)) for y in flagged for x in flagged}
    # neither the walk nor the recursion filled the row of an unflagged id
    # outside the finite Weyl group (on the way up to w_0)
    zero = (0,) * rank
    assert all(
        g.is_dominant(z) or g._form[z][1] == zero
        for z, row in enumerate(g._rmul)
        if row is not None
    )
    assert all(g.is_dominant(x) and g.is_dominant(y) for x, y in table.memo)

    ref_group, memo = AffineWeylGroup(rs), {}
    words = {z: g.canonical_word(z) for z in flagged}
    ids = {z: ref_group.from_word(words[z]) for z in flagged}
    for (x, y), (leq, poly) in got.items():
        rx, ry = ids[x], ids[y]
        assert leq == (rx in ref_group.lower_ideal(ry)), (words[x], words[y])
        assert poly == reference_kl(ref_group, memo, rx, ry), (words[x], words[y])
    assert len(table.memo) < len(memo)


# every pair with x unflagged and y flagged up to this length; its count of x <= y
UNFLAGGED_BELOW_FLAGGED = [("A", 2, 9, 550), ("B", 2, 10, 490), ("G", 2, 11, 297)]


@pytest.mark.parametrize("series,rank,bound,below", UNFLAGGED_BELOW_FLAGGED)
def test_unflagged_below_flagged_pairs_match_the_unrestricted_recursion(
    series, rank, bound, below
):
    # a flagged column v reads its mu-sum from flagged z for every x
    g = AffineWeylGroup(build_root_system(series, rank))
    table, memo = KLTable(g), {}
    elements = g.elements_up_to_length(bound)
    pairs = [(x, y) for y in elements if g.is_dominant(y) for x in elements if not g.is_dominant(x)]
    assert sum(x in g.lower_ideal(y) for x, y in pairs) == below
    for x, y in pairs:
        assert table.kl(x, y) == reference_kl(g, memo, x, y), (
            g.canonical_word(x), g.canonical_word(y)
        )


@st.composite
def flagged_pairs(draw):
    series, rank = draw(st.sampled_from(sorted(RANDOM)))
    g = get_group(series, rank)
    flagged = g.dominant_up_to_length(RANDOM[series, rank])
    y = draw(st.sampled_from(flagged))
    below = [z for z in flagged if z in g.lower_ideal(y)]
    return g, draw(st.sampled_from(below)), y


REFERENCE_MEMOS: dict = {}


@settings(max_examples=150, deadline=None)
@given(flagged_pairs())
def test_random_flagged_pairs_match_the_unrestricted_recursion(case):
    g, x, y = case
    memo = REFERENCE_MEMOS.setdefault(id(g), {})
    assert KLTable(g).kl(x, y) == reference_kl(g, memo, x, y)
    assert g.bruhat_leq(x, y) == (x in g.lower_ideal(y))


# types whose elements have several right descents, and a length bound
# reaching a few dozen flagged ids past w_0
WORD_BOUNDS = [("A", 2, 12), ("B", 2, 14), ("G", 2, 16), ("A", 3, 13), ("C", 3, 16)]


@pytest.mark.parametrize("series,rank,bound", WORD_BOUNDS)
def test_a_flagged_word_is_w0_then_a_gallery_of_flagged_ids(series, rank, bound):
    g = AffineWeylGroup(build_root_system(series, rank))
    elements = g.elements_up_to_length(bound)
    flagged = [z for z in elements if g.is_dominant(z)]
    w0 = g.canonical_word(flagged[0])  # the shortest flagged id
    assert len(w0) == len(g.rs.positive_roots)
    assert len(flagged) > 15
    for z in elements:
        word = g.canonical_word(z)
        if g.is_dominant(z):
            assert word[: len(w0)] == w0, word
            assert all(g.is_dominant(g.from_word(word[:k])) for k in range(len(w0), len(word)))
        else:
            assert word == lowest_descent_word(g, z)


def filled_rows(g):
    return {z for z, row in enumerate(g._rmul) if row is not None}


def in_w_fin(g, z):
    return g._form[z][1] == (0,) * g.rs.rank  # translation 0


def test_a_save_and_a_load_of_a_dominant_table_stay_on_flagged_ids_and_w_fin(tmp_path):
    # the table's own walks (locate among them) may fill rows anywhere; saving
    # its words fills only finite rows, and loading them only flagged or finite ones
    rs = build_root_system("G", 2)
    g = AffineWeylGroup(rs)
    ws = em.Workspace(rs=rs, group=g, table=KLTable(g))
    em.multiplicity_table(ws, em.MultiplicityQuery("red_nabla", (0, 0), (17, 9), 5, 13))
    assert len(ws.table.memo) > 1000
    filled, flagged_ids = filled_rows(g), sum(g._dominant)
    path = tmp_path / "g2.klcache"
    ws.table.save(path)
    assert all(in_w_fin(g, z) for z in filled_rows(g) - filled)
    assert sum(g._dominant) == flagged_ids

    fresh = AffineWeylGroup(rs)
    assert KLTable(fresh).load(path) == len(ws.table.memo)
    assert all(fresh.is_dominant(z) or in_w_fin(fresh, z) for z in filled_rows(fresh))
