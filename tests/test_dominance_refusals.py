"""Every public function that needs a dominant weight refuses another one
with the one message of ``roots.check_dominant``, naming the weight.

L, Delta and nabla exist only at dominant weights, so the Ext dictionary
refuses a non-dominant weight as the tables do: it used to answer
``small_c(ws, (-3,), (-3,), 0, 5) == 1``.
"""

import re

import pytest

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots
from goodfilt.affine import restricted_decompose
from goodfilt.errors import PreconditionError

BAD = (-3,)  # 5-regular and in C_5^-, so only its dominance is wrong


def calls(ws):
    rs, g = ws.rs, ws.group

    def table(lam, mu):
        return em.multiplicity_table(ws, em.MultiplicityQuery("red_nabla", lam, mu, 1, 5))

    return {
        "dominant_below": lambda w: ch.dominant_below(rs, w),
        "dominant_multiplicities": lambda w: ch.dominant_multiplicities(rs, w),
        "weight_multiplicities": lambda w: ch.weight_multiplicities(rs, w),
        "dim_nabla": lambda w: ch.dim_nabla(rs, w),
        "dim_weight_space": lambda w: ch.dim_weight_space(rs, w, (0,)),
        "tensor_nabla_multiplicities": lambda w: ch.tensor_nabla_multiplicities(rs, (1,), w),
        "multi_tensor_nabla_multiplicities": lambda w: ch.multi_tensor_nabla_multiplicities(
            rs, (1,), (2,), w
        ),
        "dominant_length": lambda w: g.dominant_length(w, 5),
        "restricted_decompose": lambda w: restricted_decompose(rs, w, 5),
        "in_jantzen_region": lambda w: roots.in_jantzen_region(rs, w, 5),
        "multiplicity_table[lam]": lambda w: table(w, (8,)),
        "multiplicity_table[mu]": lambda w: table((0,), w),
        "weight_space_identity_check[mu]": lambda w: em.weight_space_identity_check(
            ws, w, (2,), 5
        ),
        "weight_space_identity_check[tau]": lambda w: em.weight_space_identity_check(
            ws, (8,), w, 5
        ),
        "small_c": lambda w: em.small_c(ws, w, w, 0, 5),
        "big_C": lambda w: em.big_C(ws, w, w, 0, 5),
        "ext_dim_G_red_red": lambda w: em.ext_dim_G_red_red(ws, w, w, 0, 5),
    }


NAMES = list(calls(em.make_workspace("A", 1)))


@pytest.mark.parametrize("name", NAMES)
def test_a_weight_that_is_not_dominant_is_refused_by_the_one_rule(name):
    call = calls(em.make_workspace("A", 1))[name]
    message = rf" requires a dominant weight, got {re.escape(str(BAD))}$"
    with pytest.raises(PreconditionError, match=message):
        call(BAD)
    call((8,))  # the same call answers at a dominant weight
