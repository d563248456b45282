"""Second KL oracle: R-polynomial inversion on affine rank-2 intervals.

The finite-A3 oracle validates the engine against a fully independent
permutation model.  Here the group arithmetic is shared (it is pinned by
the geometric length and Bruhat tests), but the polynomial path is
independent of the production recursion: R-polynomials by their own
descent recursion, then P recovered by inverting

    q^(l(y)-l(x)) P_{x,y}(1/q) - P_{x,y}(q) = sum_{x < z <= y} R_{x,z} P_{z,y}

with plain list arithmetic.  Affine B2 and G2 intervals in this range
contain polynomials up to 1 + 3q + 2q^2, so this is not vacuous.
"""

import pytest

from goodfilt.affine import get_group
from goodfilt.klpoly import KLTable

from test_finite_a3_oracle import padd, pmul, trim


def invert_r_system(group, y):
    """KL polynomials P_{x,y} for all x <= y, via R-polynomial inversion."""
    ideal = sorted(group.lower_ideal(y), key=group.length, reverse=True)
    r_memo = {}

    def r_poly(a, b):
        if a == b:
            return [1]
        if not group.bruhat_leq(a, b):
            return []
        key = (a, b)
        if key in r_memo:
            return r_memo[key]
        s = min(group.right_descents(b))
        gen = group.generators[s]
        bs = group.multiply(b, gen)
        a_s = group.multiply(a, gen)
        if group.length(a_s) < group.length(a):
            result = r_poly(a_s, bs)
        else:
            result = padd(pmul([-1, 1], r_poly(a, bs)), pmul([0, 1], r_poly(a_s, bs)))
        r_memo[key] = result
        return result

    table = {y: [1]}
    for x in ideal:
        if x == y:
            continue
        d = group.length(y) - group.length(x)
        k_sum = []
        for z in ideal:
            if z != x and group.bruhat_leq(x, z):
                k_sum = padd(k_sum, pmul(r_poly(x, z), table[z]))
        coeffs = [0] * ((d + 1) // 2)
        for i in range(len(coeffs)):
            j = d - i
            coeffs[i] = k_sum[j] if j < len(k_sum) else 0
        p = trim(coeffs)
        lhs = [0] * (d + 1)
        for i, c in enumerate(p):
            lhs[d - i] += c
        for i, c in enumerate(p):
            lhs[i] -= c
        assert trim(lhs) == trim(list(k_sum)), (x, y)
        table[x] = p
    return table


@pytest.mark.parametrize("series", ["A", "B", "G"])
def test_affine_rank2_kl_against_r_inversion(series):
    group = get_group(series, 2)
    table = KLTable(group)
    checked = 0
    nontrivial = 0
    for y in group.elements_up_to_length(6):
        oracle = invert_r_system(group, y)
        for x, expected in oracle.items():
            got = table.kl(x, y)
            assert got == tuple(trim(list(expected))), (series, x, y)
            checked += 1
            if len(expected) > 1:
                nontrivial += 1
    assert checked > 500
    if series in ("B", "G"):
        assert nontrivial > 0
