"""The Cayley table of the affine Weyl group against an independent model.

The model multiplies the matrix forms (w, nu) of the generators directly,
built here from the root data alone, and computes lengths by the
root-counting formula with an exact inverse.
"""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goodfilt.affine import AffineWeylGroup, get_group
from goodfilt.roots import _mat_inv, build_root_system

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


def root_count_length(rs, form):
    """sum over positive beta of |<nu, beta^vee> + [w^{-1}(beta) < 0]|."""
    w, nu = form
    winv = _mat_inv(w)
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
    assert g.matrix_form(x) == form
    assert g._index[form] == x
    assert g.length(x) == root_count_length(rs, form)
    assert g.multiply(x, g.invert(x)) == g.identity
    assert g.multiply(g.invert(x), x) == g.identity
    y = g.identity
    for i in word:
        for j, z in enumerate(g.row(y)):
            assert g.row(z)[j] == y
        y = g.row(y)[i]


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
    # every element of length <= k is the product of some word of length <= k
    k = 5
    model = {
        model_form(rs, w)
        for n in range(k + 1)
        for w in itertools.product(range(rank + 1), repeat=n)
    }
    assert {g.matrix_form(z) for z in g.elements_up_to_length(k)} == model


def test_concurrent_fills_agree_with_sequential():
    rs = build_root_system("B", 2)
    words = [w for n in range(7) for w in itertools.product(range(3), repeat=n)]
    shared = AffineWeylGroup(rs)

    def work(_):
        return [shared.canonical_word(shared.from_word(w)) for w in words], [
            shared.canonical_word(z) for z in shared.elements_up_to_length(6)
        ]

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
    )
    assert all(r == expected for r in results)
    # a lost update would give one matrix form two ids
    assert len(shared._index) == len(shared._form)
