"""Independent brute-force KL values for S4, checked against the engine.

The oracle works on one-line permutations with its own Bruhat test
(sorted-prefix criterion), its own R-polynomial recursion, and direct
inversion of the defining identity

    q^(l(y)-l(x)) * P_{x,y}(1/q) - P_{x,y}(q) = sum_{x < z <= y} R_{x,z} P_{z,y}

using only list arithmetic.  It shares no code with goodfilt.klpoly.
The engine side computes the same 24 x 24 table inside the affine A3
system, where the finite Weyl group sits as the {1,2,3} parabolic.
"""

import itertools

from goodfilt.affine import get_group
from goodfilt.klpoly import KLTable

N = 4

# ---- list-based polynomial helpers ----------------------------------------


def trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return trim(out)


# ---- S4 machinery ----------------------------------------------------------


def inversions(w):
    return sum(1 for i in range(N) for j in range(i + 1, N) if w[i] > w[j])


def times_s(w, i):
    out = list(w)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def bruhat(x, y):
    for k in range(1, N + 1):
        xs = sorted(x[:k])
        ys = sorted(y[:k])
        if any(a > b for a, b in zip(xs, ys)):
            return False
    return True


PERMS = sorted(itertools.permutations(range(N)), key=lambda w: (inversions(w), w))
LEN = {w: inversions(w) for w in PERMS}


def r_poly(x, y, memo={}):
    if x == y:
        return [1]
    if not bruhat(x, y):
        return []
    key = (x, y)
    if key in memo:
        return memo[key]
    s = next(i for i in range(N - 1) if y[i] > y[i + 1])
    ys = times_s(y, s)
    xs = times_s(x, s)
    if LEN[xs] < LEN[x]:
        result = r_poly(xs, ys)
    else:
        result = padd(pmul([-1, 1], r_poly(x, ys)), pmul([0, 1], r_poly(xs, ys)))
    memo[key] = result
    return result


def brute_force_kl():
    """All P_{x,y} for S4 by downward induction on x for each y."""
    table = {}
    for y in PERMS:
        table[(y, y)] = [1]
        below = sorted(
            (x for x in PERMS if x != y and bruhat(x, y)),
            key=lambda x: -LEN[x],
        )
        for x in below:
            d = LEN[y] - LEN[x]
            k_sum = []
            for z in PERMS:
                if z != x and bruhat(x, z) and bruhat(z, y):
                    k_sum = padd(k_sum, pmul(r_poly(x, z), table[(z, y)]))
            coeffs = [0] * ((d + 1) // 2)
            for i in range(len(coeffs)):
                j = d - i
                coeffs[i] = k_sum[j] if j < len(k_sum) else 0
            p = trim(coeffs)
            # verify the defining identity exactly
            lhs = [0] * (d + 1)
            for i, c in enumerate(p):
                lhs[d - i] += c
            for i, c in enumerate(p):
                lhs[i] -= c
            assert trim(lhs) == trim(list(k_sum)), (x, y)
            table[(x, y)] = p
    return table


def oracle_word(w):
    word = []
    cur = w
    while LEN[cur] > 0:
        i = next(i for i in range(N - 1) if cur[i] > cur[i + 1])
        word.append(i + 1)  # engine generator index for alpha_{i+1}
        cur = times_s(cur, i)
    return tuple(reversed(word))


def test_s4_against_engine():
    oracle = brute_force_kl()
    group = get_group("A", 3)
    table = KLTable(group)
    elements = {w: group.from_word(oracle_word(w)) for w in PERMS}

    for w, elt in elements.items():
        assert group.length(elt) == LEN[w]

    checked = 0
    nontrivial = 0
    for x in PERMS:
        for y in PERMS:
            expected = oracle.get((x, y), []) if bruhat(x, y) else []
            got = table.kl(elements[x], elements[y])
            assert got == tuple(trim(list(expected))), (x, y)
            checked += 1
            if len(expected) > 1:
                nontrivial += 1
    assert checked == 576
    assert nontrivial > 0


def test_known_singular_values():
    oracle = brute_force_kl()
    e = tuple(range(N))
    assert oracle[(e, (2, 3, 0, 1))] == [1, 1]  # 3412
    assert oracle[(e, (3, 1, 2, 0))] == [1, 1]  # 4231
    assert oracle[(e, (3, 2, 1, 0))] == [1]  # longest element is smooth in A3


def test_oracle_bruhat_matches_engine():
    group = get_group("A", 3)
    elements = {w: group.from_word(oracle_word(w)) for w in PERMS}
    for x in PERMS:
        for y in PERMS:
            assert bruhat(x, y) == group.bruhat_leq(elements[x], elements[y]), (x, y)
