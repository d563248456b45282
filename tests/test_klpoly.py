import errno
import inspect
import io
import json
import os
import sys

import pytest

from goodfilt import extmult as em
from goodfilt import klpoly
from goodfilt.affine import AffineWeylGroup, get_group
from goodfilt.errors import CacheFormatError, InternalInvariantError
from goodfilt.klpoly import KLTable
from goodfilt.roots import build_root_system


@pytest.fixture()
def a1_table():
    return KLTable(get_group("A", 1))


@pytest.fixture()
def a2_table():
    return KLTable(get_group("A", 2))


def test_kl_diagonal_and_incomparable(a1_table):
    g = a1_table.group
    x = g.from_word((1, 0))
    assert a1_table.kl(x, x) == (1,)
    y = g.from_word((0, 1))
    # same length, distinct: incomparable
    assert a1_table.kl(x, y) == ()
    assert a1_table.kl(y, x) == ()


def test_dihedral_all_one(a1_table):
    g = a1_table.group
    elements = g.elements_up_to_length(10)
    for x in elements:
        for y in elements:
            expected = (1,) if g.bruhat_leq(x, y) else ()
            assert a1_table.kl(x, y) == expected


def test_mu_fixtures(a1_table):
    g = a1_table.group
    e = g.identity
    s1 = g.from_word((1,))
    s10 = g.from_word((1, 0))
    s101 = g.from_word((1, 0, 1))
    assert a1_table.mu(s1, s10) == 1  # length gap 1
    assert a1_table.mu(e, s101) == 0  # gap 3, P = 1 has no q term
    assert a1_table.mu(s10, s1) == 0  # not below


def test_c_coeff(a1_table):
    g = a1_table.group
    x = g.from_word((1, 0))
    y = g.from_word((1, 0, 1, 0))
    assert a1_table.c_coeff(x, x, 0) == 1
    assert a1_table.c_coeff(x, y, 1) == 0  # odd exponent
    assert a1_table.c_coeff(x, y, -2) == 0
    assert a1_table.c_coeff(x, y, 0) == 1
    assert a1_table.c_coeff(x, y, 2) == 0  # dihedral P = 1 has no q term


def test_invariants_on_a2_sample(a2_table):
    g = a2_table.group
    elements = g.elements_up_to_length(6)
    for y in elements:
        ly = g.length(y)
        for x in g.lower_ideal(y):
            p = a2_table.kl(x, y)
            assert p[0] == 1
            assert all(c >= 0 for c in p)
            if x != y:
                assert 2 * (len(p) - 1) <= ly - g.length(x) - 1


def test_cold_recomputation_identical(a2_table):
    g = a2_table.group
    y = g.from_word((0, 1, 2, 0, 1, 0))
    values = {x: a2_table.kl(x, y) for x in g.lower_ideal(y)}
    fresh = KLTable(g)
    for x, p in values.items():
        assert fresh.kl(x, y) == p


def far_delta_red_table():
    # A2 p = 7, lambda = mu = 7k + 1 at k = 16, on a group with no levels yet
    g = AffineWeylGroup(build_root_system("A", 2))
    ws = em.Workspace(g.rs, g, KLTable(g))
    query = em.MultiplicityQuery("delta_red", (113, 113), (113, 113), 2, 7)
    return em.multiplicity_table(ws, query), ws.stats()


def test_a_far_table_is_the_same_under_a_low_recursion_limit():
    # its KL entries reach far below their top pairs; they run on a stack of
    # their own, so 60 frames above the caller's leave the table unchanged
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        low = far_delta_red_table()
    finally:
        sys.setrecursionlimit(limit)
    assert low == far_delta_red_table()
    assert low[1]["kl_entries"] > 800


def test_an_invariant_violation_deep_in_the_stack_stores_nothing_above_it(a2_table, monkeypatch):
    g = a2_table.group
    top = (g.identity, g.from_word((0, 1, 2, 0, 1, 0, 2, 1)))
    live, failed = [], []
    entry, check = KLTable._entry, klpoly._invariant_violation

    def tracked(self, x, y):
        live.append((x, y))
        result = yield from entry(self, x, y)
        live.pop()
        return result

    def failing(poly, gap):
        if not failed and len(live) >= 5:  # the first entry done 4 or more levels below the top
            failed.append(live[-1])
            return "planted"
        return check(poly, gap)

    monkeypatch.setattr(KLTable, "_entry", tracked)
    monkeypatch.setattr(klpoly, "_invariant_violation", failing)
    with pytest.raises(InternalInvariantError, match="planted"):
        a2_table.kl(*top)
    assert failed[0] != top and not {failed[0], top} & set(a2_table.memo)
    monkeypatch.undo()
    fresh = KLTable(g)
    assert a2_table.kl(*top) == fresh.kl(*top) == (1, 2)
    assert a2_table.memo == fresh.memo


def test_cache_roundtrip(tmp_path, a2_table):
    g = a2_table.group
    y = g.from_word((0, 1, 2, 1, 0))
    for x in g.lower_ideal(y):
        a2_table.kl(x, y)
    path = tmp_path / "a2.klcache"
    a2_table.save(path)

    loaded = KLTable(g)
    n = loaded.load(path)
    assert n == len(a2_table.memo)
    assert loaded.memo == a2_table.memo
    # loading on top of computed values is idempotent
    assert loaded.load(path) == n

    # byte-stable save
    loaded.save(tmp_path / "again.klcache")
    assert (tmp_path / "again.klcache").read_bytes() == path.read_bytes()


def test_interrupted_save_keeps_previous_cache(tmp_path, a2_table, monkeypatch):
    g = a2_table.group
    y = g.from_word((0, 1, 2, 1, 0))
    for x in g.lower_ideal(y):
        a2_table.kl(x, y)
    path = tmp_path / "a2.klcache"
    a2_table.save(path)
    before = path.read_bytes()
    a2_table.kl(g.identity, g.from_word((0, 1, 2, 1, 0, 2)))

    taken = []  # the bytes the temporary file holds when the disk fills

    class FullDisk(io.FileIO):
        room = 100

        def write(self, b):
            fits = bytes(b)[: self.room - self.tell()]
            taken.append(fits)
            super().write(fits)
            if len(fits) < len(b):
                raise OSError(errno.ENOSPC, "disk full")
            return len(b)

    def fdopen(fd, mode, encoding):
        assert mode == "w"
        return io.TextIOWrapper(io.BufferedWriter(FullDisk(fd, mode)), encoding=encoding)

    monkeypatch.setattr(os, "fdopen", fdopen)
    with pytest.raises(OSError, match="disk full"):
        a2_table.save(path)
    monkeypatch.undo()
    assert len(b"".join(taken)) == FullDisk.room
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["a2.klcache"]
    assert KLTable(g).load(path) == before.count(b"\n") - 1

    path.chmod(0o644)
    a2_table.save(path)
    assert path.stat().st_mode & 0o777 == 0o644
    assert path.read_bytes().startswith(b"".join(taken))
    assert KLTable(g).load(path) == len(a2_table.memo)


def stripped_word(g, x, pick=AffineWeylGroup.descent):
    """Reference for canonical_word: strip ``descent``, one id at a time."""
    word = []
    while g.length(x):
        i = pick(g, x)
        word.append(i)
        x = g.row(x)[i]
    return tuple(reversed(word))


def lowest_descent_word(g, x):
    """The earlier word rule: strip the lowest right descent at every step."""
    return stripped_word(g, x, lambda g, x: g.right_descents(x)[0])


def reference_cache_bytes(table, word=stripped_word):
    """The cache as written one record at a time, each word walked on its own."""
    g = table.group
    header = {"format": "kltable", "version": 1, "series": g.rs.series, "rank": g.rs.rank}
    records = sorted(
        ((word(g, x), word(g, y), list(p)) for (x, y), p in table.memo.items()),
        key=lambda r: (len(r[1]), r[1], len(r[0]), r[0]),
    )
    lines = [json.dumps(header, sort_keys=True)] + [
        json.dumps({"x": list(xw), "y": list(yw), "p_of_q": p}, sort_keys=True)
        for xw, yw, p in records
    ]
    return "".join(line + "\n" for line in lines).encode()


def test_save_matches_the_one_word_at_a_time_encoder(tmp_path):
    rs = build_root_system("B", 2)
    g = AffineWeylGroup(rs)
    ws = em.Workspace(rs=rs, group=g, table=KLTable(g))
    query = em.MultiplicityQuery("red_red", (19, 16), (8, 12), 4, 7)
    assert em.multiplicity_table(ws, query, [(4, 6)]).as_dict() == {(4, 6): 1}
    ids = {z for pair in ws.table.memo for z in pair}
    words = g.canonical_words(ids)
    assert {z: words[z] for z in ids} == {z: g.canonical_word(z) for z in ids}
    assert max(len(words[z]) for z in ids) == 26
    fresh = AffineWeylGroup(rs)
    for z in ids:
        assert stripped_word(fresh, fresh.from_word(words[z])) == words[z]
    path = tmp_path / "b2.klcache"
    ws.table.save(path)
    assert path.read_bytes() == reference_cache_bytes(ws.table)
    loaded = KLTable(fresh)
    assert loaded.load(path) == len(ws.table.memo) == 1392
    assert reference_cache_bytes(loaded) == path.read_bytes()


def g2_ideal_table(tmp_path):
    g = get_group("G", 2)
    table = KLTable(g)
    y = g.from_word((0, 2, 1) * 4)
    for x in g.lower_ideal(y):
        table.kl(x, y)
    assert (1, 3, 5, 4) in table.memo.values()
    return table


def a1_long_word_table(tmp_path):
    # what `goodfilt kl --cache` keeps after one pair: the whole recursion
    g = get_group("A", 1)
    table = KLTable(g)
    table.kl(g.identity, g.from_word((0, 1) * 30))
    assert len(table.memo) > 2000
    return table


def a2_table_with_a_diagonal_record(tmp_path):
    # save writes a diagonal record only after loading one
    g = get_group("A", 2)
    source = KLTable(g)
    y = g.from_word((0, 1, 2, 1, 0))
    for x in g.lower_ideal(y):
        source.kl(x, y)
    path = tmp_path / "source.klcache"
    source.save(path)
    path.write_text(path.read_text() + '{"p_of_q": [1], "x": [1, 0], "y": [1, 0]}\n')
    table = KLTable(g)
    assert table.load(path) == len(source.memo) + 1
    x = g.from_word((1, 0))
    assert table.memo[x, x] == (1,)
    return table


@pytest.mark.parametrize("build", [g2_ideal_table, a1_long_word_table, a2_table_with_a_diagonal_record])
def test_save_writes_the_reference_encoder_bytes(tmp_path, build):
    table = build(tmp_path)
    path = tmp_path / "saved.klcache"
    table.save(path)
    assert path.read_bytes() == reference_cache_bytes(table)


def b2_dominant_table(tmp_path):
    rs = build_root_system("B", 2)
    g = AffineWeylGroup(rs)
    ws = em.Workspace(rs=rs, group=g, table=KLTable(g))
    em.multiplicity_table(ws, em.MultiplicityQuery("red_red", (19, 16), (8, 12), 4, 7), [(4, 6)])
    assert len(ws.table.memo) == 1392
    return ws.table


@pytest.mark.parametrize("build", [g2_ideal_table, b2_dominant_table])
def test_a_cache_keyed_by_lowest_descent_words_loads_into_the_same_memo(tmp_path, build):
    # caches written when canonical words stripped the lowest right descent
    # name the same elements by other words, and keep loading
    table = build(tmp_path)
    old, new = tmp_path / "old.klcache", tmp_path / "new.klcache"
    old.write_bytes(reference_cache_bytes(table, lowest_descent_word))
    table.save(new)
    assert old.read_bytes() != new.read_bytes()
    g = AffineWeylGroup(table.group.rs)
    from_old, from_new = KLTable(g), KLTable(g)
    assert from_old.load(old) == from_new.load(new) == len(table.memo)
    assert from_old.memo == from_new.memo


def test_cache_rejects_bad_header(tmp_path, a2_table):
    path = tmp_path / "bad.klcache"
    path.write_text('{"format": "kltable", "version": 1, "series": "B", "rank": 2}\n')
    with pytest.raises(CacheFormatError):
        a2_table.load(path)
    path.write_text("not json\n")
    with pytest.raises(CacheFormatError):
        a2_table.load(path)
    path.write_text("")
    with pytest.raises(CacheFormatError):
        a2_table.load(path)


def test_cache_rejects_degree_violation(tmp_path, a2_table):
    path = tmp_path / "bad2.klcache"
    header = '{"format": "kltable", "version": 1, "series": "A", "rank": 2}\n'
    # claims a q-degree far beyond the bound for a length-2 interval
    record = '{"x": [1], "y": [1, 0, 1], "p_of_q": [1, 7]}\n'
    path.write_text(header + record)
    with pytest.raises(CacheFormatError):
        a2_table.load(path)
    assert not a2_table.memo


A2_HEADER = '{"format": "kltable", "version": 1, "series": "A", "rank": 2}\n'


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"x": [1], "y": [1, 0, 1], "p_of_q": [0]}', "constant term 0"),
        ('{"x": [1], "y": [1, 0, 1], "p_of_q": []}', "constant term 0"),
        ('{"x": [], "y": [1, 0, 1], "p_of_q": [1, -1]}', "negative coefficient"),
        ('{"x": [2], "y": [1, 0, 1], "p_of_q": [1]}', "not below y"),
        ('{"x": [3], "y": [1, 0, 1], "p_of_q": [1]}', "out of range"),
        ('{"x": [-1], "y": [1, 0, 1], "p_of_q": [1]}', "out of range"),
        ('{"x": [1], "y": [1, 0, 1], "p_of_q": "1"}', "array of integers"),
        ('{"x": "1", "y": [1, 0, 1], "p_of_q": [1]}', "array of integers"),
        ('{"x": [1], "y": [1, 0, 1], "p_of_q": [1.9]}', "array of integers"),
        ('{"x": [1.7], "y": [1, 0, 1], "p_of_q": [1]}', "array of integers"),
        ('{"x": [1], "y": [1, 0, 1], "p_of_q": [true]}', "array of integers"),
        ('{"x": [1], "y": [true, 0, 1], "p_of_q": [1]}', "array of integers"),
    ],
)
def test_cache_rejects_bad_record(tmp_path, a2_table, record, message):
    path = tmp_path / "bad.klcache"
    good = '{"x": [], "y": [1], "p_of_q": [1]}\n'
    path.write_text(A2_HEADER + good + record + "\n")
    with pytest.raises(CacheFormatError, match=r"bad\.klcache:3: .*" + message):
        a2_table.load(path)
    assert not a2_table.memo


def test_cache_rejects_a_byte_that_is_not_utf8(tmp_path, a2_table):
    path = tmp_path / "bytes.klcache"
    good = '{"x": [], "y": [1], "p_of_q": [1]}\n'
    path.write_bytes((A2_HEADER + good).encode() + b'{"x": [1], "y": [1, 0, 1], "p_of_q": [1\xff]}\n')
    with pytest.raises(CacheFormatError, match=r"bytes\.klcache:3: bad record"):
        a2_table.load(path)
    assert not a2_table.memo


def test_cache_rejects_true_in_a_word_it_has_seen(tmp_path, a2_table):
    # (1, 0, 1) == (True, 0, 1), so a word read earlier must not vouch for this one
    path = tmp_path / "bool.klcache"
    path.write_text(
        A2_HEADER
        + '{"x": [1], "y": [1, 0, 1], "p_of_q": [1]}\n'
        + '{"x": [], "y": [true, 0, 1], "p_of_q": [1]}\n'
    )
    with pytest.raises(CacheFormatError, match=r"bool\.klcache:3: bad record: .*integers"):
        a2_table.load(path)
    assert not a2_table.memo


def test_cache_rejects_repeated_pair(tmp_path, a2_table):
    # a later record for the same pair must not silently replace the first
    path = tmp_path / "dup.klcache"
    path.write_text(
        A2_HEADER
        + '{"x": [], "y": [1, 0, 2, 1], "p_of_q": [1, 1]}\n'
        + '{"x": [], "y": [1], "p_of_q": [1]}\n'
        + '{"x": [], "y": [1, 0, 2, 1], "p_of_q": [1]}\n'
    )
    with pytest.raises(
        CacheFormatError, match=r"dup\.klcache:4: second record .* first at .*dup\.klcache:2$"
    ):
        a2_table.load(path)
    assert not a2_table.memo
    g = a2_table.group
    assert KLTable(g).kl(g.identity, g.from_word((1, 0, 2, 1))) == (1, 1)


def test_cache_rejects_a_repeated_diagonal_pair(tmp_path, a2_table):
    # the duplicate rule covers every pair, x = y included
    path = tmp_path / "diag.klcache"
    diagonal = '{"p_of_q": [1], "x": [0], "y": [0]}\n'
    path.write_text(A2_HEADER + diagonal + diagonal)
    with pytest.raises(
        CacheFormatError, match=r"diag\.klcache:3: second record for x=\[0\], y=\[0\], first at "
    ):
        a2_table.load(path)
    assert not a2_table.memo
    # one diagonal record is an entry like any other, and kl still answers 1
    path.write_text(A2_HEADER + diagonal)
    assert a2_table.load(path) == len(a2_table.memo) == 1
    g = a2_table.group
    assert a2_table.kl(g.from_word((0,)), g.from_word((0,))) == (1,)


def test_a_conflicting_record_leaves_the_memo_unchanged(tmp_path, a1_table):
    # every record passes its own checks, and the last one conflicts with a
    # computed entry: the whole file is refused, the records before it too
    g = a1_table.group
    a1_table.kl(g.identity, g.from_word((0, 1, 0)))
    before = dict(a1_table.memo)
    other = KLTable(g)
    other.kl(g.identity, g.from_word((0, 1) * 4))
    other.save(tmp_path / "other.klcache")
    lines = (tmp_path / "other.klcache").read_text().splitlines()
    words = g.canonical_words({z for pair in before for z in pair})
    known = {(words[x], words[y]) for x, y in before}
    new = [
        line for line in lines[1:]
        if (tuple(json.loads(line)["x"]), tuple(json.loads(line)["y"])) not in known
    ]
    assert len(new) >= 20
    path = tmp_path / "conflict.klcache"
    conflict = '{"x": [], "y": [0, 1, 0], "p_of_q": [1, 1]}'
    path.write_text("\n".join([lines[0], *new, conflict]) + "\n")
    with pytest.raises(CacheFormatError, match=r"x=\[\], y=\[0, 1, 0\] conflicts"):
        a1_table.load(path)
    assert a1_table.memo == before


def test_cache_loads_trailing_zero_trimmed(tmp_path, a2_table):
    g = a2_table.group
    path = tmp_path / "trailing.klcache"
    path.write_text(A2_HEADER + '{"x": [1], "y": [1, 0, 1], "p_of_q": [1, 0]}\n')
    assert a2_table.load(path) == 1
    key = (g.from_word((1,)), g.from_word((1, 0, 1)))
    assert a2_table.memo == {key: (1,)}
    assert KLTable(g).kl(*key) == (1,)


@pytest.mark.parametrize("series,rank,bound", [("A", 2, 10), ("B", 2, 12), ("G", 2, 14)])
def test_every_mu_candidate_list_is_a_filter_of_the_flagged_ids(series, rank, bound):
    # a flagged v's list filters the flagged ids, any other v's its lower
    # ideal; Bruhat order is read from lower_ideal, not bruhat_leq
    g = AffineWeylGroup(build_root_system(series, rank))
    table = KLTable(g)
    flagged = g.dominant_up_to_length(bound)
    for y in flagged:
        for x in flagged:
            table.kl(x, y)
    everything = g.elements_up_to_length(6)
    for y in everything:
        for x in everything:
            table.kl(x, y)
    assert sum(g.is_dominant(v) for v, _ in table._candidates) > 10
    assert sum(not g.is_dominant(v) for v, _ in table._candidates) > 10
    for (v, s), found in table._candidates.items():
        lv, ideal = g.length(v), g.lower_ideal(v)
        pool = g.dominant_up_to_length(lv - 1) if g.is_dominant(v) else sorted(ideal)
        expected = [
            z for z in pool
            if (lv - g.length(z)) % 2 and s in g.right_descents(z) and z in ideal
        ]
        assert (found if g.is_dominant(v) else sorted(found)) == expected
