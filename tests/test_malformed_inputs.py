"""Malformed inputs are refused with ``ConfigurationError`` naming the value.

A degree ``n`` is a nonnegative ``int`` wherever it is taken (``True`` and
``2.0`` refused, as README's "What it computes" says), and a weight or a
length bound of the wrong type is refused before any arithmetic, never with
a bare ``TypeError``.  A ``--cache`` file whose arrays nest too deep for
the JSON decoder is refused as any other bad cache file, with exit 2.
"""

import io

import pytest

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots
from goodfilt.cli import main
from goodfilt.errors import ConfigurationError

BAD_DEGREES = [True, 1.0, 2.0, "1", -1]


@pytest.fixture(scope="module")
def a1():
    return em.make_workspace("A", 1)


def degree_calls(ws, n):
    # small_c, big_C and ext_dim_G_red_red answer 1 here at n = 1, so True taken as 1 would show
    return {
        "small_c": lambda: em.small_c(ws, (2,), (6,), n, 5),
        "big_C": lambda: em.big_C(ws, (2,), (6,), n, 5),
        "ext_dim_G_red_red": lambda: em.ext_dim_G_red_red(ws, (2,), (6,), n, 5),
        "multiplicity_table": lambda: em.multiplicity_table(
            ws, em.MultiplicityQuery("red_nabla", (0,), (8,), n, 5)
        ),
    }


@pytest.mark.parametrize("n", BAD_DEGREES, ids=repr)
def test_the_ext_dictionary_and_tables_refuse_a_degree_that_is_not_a_nonnegative_int(a1, n):
    for name, call in degree_calls(a1, n).items():
        with pytest.raises(ConfigurationError) as info:
            call()
        assert str(info.value) == f"n must be a nonnegative int, got n={n!r}", name


def malformed_calls():
    ws = em.make_workspace("A", 1)
    rs, g = ws.rs, ws.group
    query = em.MultiplicityQuery("red_nabla", (0,), (8,), 1, 5)
    return [
        ("check_weight(5)", lambda: roots.check_weight(rs, 5), "weight 5"),
        ("check_weight(None)", lambda: roots.check_weight(rs, None), "weight None"),
        ("locate", lambda: g.locate(8, 5), "weight 8"),
        ("tensor_nabla_multiplicities", lambda: ch.tensor_nabla_multiplicities(rs, 1, (2,)), "weight 1"),
        ("multiplicity_table omegas", lambda: em.multiplicity_table(ws, query, omegas=(2,)), "weight 2"),
        ("weight_space_identity_check", lambda: em.weight_space_identity_check(ws, (8,), 2, 5), "weight 2"),
        ("dominant_orbit", lambda: g.dominant_orbit((-3,), 5, 2.5), "max_length=2.5"),
        ("dominant_up_to_length", lambda: g.dominant_up_to_length(2.5), "bound=2.5"),
        ("elements_up_to_length", lambda: g.elements_up_to_length(2.5), "bound=2.5"),
        ("run_identity_box", lambda: em.run_identity_box(ws, 5, 12.5), "max_pairing=12.5"),
    ]


MALFORMED = malformed_calls()


@pytest.mark.parametrize("call, value", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_inputs_raise_configuration_error_naming_the_value(call, value):
    with pytest.raises(ConfigurationError) as info:
        call()
    assert value in str(info.value)


HEADER = '{"format": "kltable", "version": 1, "series": "A", "rank": 1}\n'
DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text, message", [
    (DEEP + "\n", ": bad header"),
    (HEADER + '{"x": ' + DEEP + ', "y": [1], "p_of_q": [1]}\n', ":2: bad record"),
], ids=["header", "record"])
def test_a_cache_nested_too_deep_exits_2_and_stays_unchanged(tmp_path, text, message):
    cache = tmp_path / "deep.cache"
    cache.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    code = main(["kl", "--series", "A", "--rank", "1", "--x", "e", "--y", "1",
                 "--cache", str(cache)], out=out, err=err)
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith(f"error: {cache}{message}: maximum recursion depth")
    assert cache.read_text() == text
