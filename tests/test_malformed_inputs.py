"""Malformed inputs are refused with ``ConfigurationError`` naming the value.

A degree ``n`` is a nonnegative ``int`` wherever it is taken (``True`` and
``2.0`` refused, as README's "What it computes" says), and a weight or a
length bound of the wrong type is refused before any arithmetic, never with
a bare ``TypeError``.
"""

import pytest

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots
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
