"""Exact root-system data for the simple types A-G.

Conventions, fixed once and used by every other module:

* Weights are integer tuples in the *fundamental-weight* basis, so the
  pairing of a weight with a simple coroot is just a coordinate.
* Simple roots follow Bourbaki numbering (1-based in the literature;
  index ``i`` here corresponds to Bourbaki ``alpha_{i+1}``).  In type B
  the last simple root is short, in type C it is long, in F4 roots 3,4
  are short, and in G2 root 1 is short.
* The Cartan matrix is stored as ``cartan[i][j] = <alpha_j, alpha_i^vee>``,
  i.e. column ``j`` is the fundamental-coordinate vector of ``alpha_j``.
* Root lengths are normalised so that short roots have squared length 2;
  ``symmetrizer[i] = (alpha_i, alpha_i)/2`` lies in {1, 2, 3}.
* ``highest_short_root`` is the short root of maximal height.  Its coroot
  is the highest coroot, which is what the Jantzen-region bound pairs
  against.

Everything is computed with exact integer arithmetic: the inverse Cartan
matrix is stored as integers over one common denominator, found by
fraction-free elimination.  ``build_root_system`` makes one RootSystem per
type, immutable and freely shareable between threads, and equal only to
itself; every function here is pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import add, mul, sub
from typing import NamedTuple

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    InternalInvariantError,
    PreconditionError,
)

Weight = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

# classical data used to cross-check the generated tables
_POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}

_RANK_RANGE = {
    "A": (1, 8),
    "B": (2, 8),
    "C": (2, 8),
    "D": (4, 8),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


def _vec_add(a, b):
    return tuple(map(add, a, b))


def _vec_sub(a, b):
    return tuple(map(sub, a, b))


def _mat_vec(m, v):
    return tuple(sum(map(mul, row, v)) for row in m)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _inverse_times_det(m):
    """(det m, det m times the inverse of m) by fraction-free Gauss-Jordan
    elimination (Bareiss), every division exact.

    No row is swapped: the k-th pivot is the k-th leading principal minor,
    positive for a Cartan matrix of finite type.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot = a[k]
        for r in range(n):
            if r != k:
                f = a[r][k]
                a[r] = [(pivot[k] * x - f * y) // prev for x, y in zip(a[r], pivot)]
        prev = pivot[k]
    return prev, tuple(tuple(row[n:]) for row in a)


class Root(NamedTuple):
    """A positive root in three coordinate systems.

    ``simple_coords``: coefficients over the simple roots (all >= 0);
    ``fund_coords``: fundamental-weight coordinates (pairings with the
    simple coroots); ``coroot``: coefficients of the coroot over the
    simple coroots, so ``<w, beta^vee> = sum(coroot[j] * w[j])`` for a
    weight ``w`` in fundamental coordinates; ``fund_positive``: the pairs
    (j, fund_coords[j]) with fund_coords[j] > 0, so a dominant ``mu`` has
    ``mu - beta`` dominant exactly when ``mu[j] >= b`` for each (j, b);
    ``form_coords``: simple coordinates times the symmetrizer, so
    ``(w, beta) = sum(form_coords[j] * w[j])`` for ``w`` in fundamental
    coordinates, as (omega_i, alpha_j) = d_j when i = j and 0 otherwise.
    """

    simple_coords: tuple[int, ...]
    fund_coords: tuple[int, ...]
    coroot: tuple[int, ...]
    length_half: int  # (beta, beta) / 2 with short roots at 1
    fund_positive: tuple[tuple[int, int], ...]
    form_coords: tuple[int, ...]
    height: int  # sum(simple_coords)


class RootSystem(NamedTuple):
    series: str
    rank: int
    cartan: Matrix
    symmetrizer: tuple[int, ...]
    positive_roots: tuple[Root, ...]
    rho: Weight
    two_rho_check: tuple[int, ...]  # 2 rho^vee over the simple coroots: <w, 2 rho^vee> = w . it
    weyl_denominator: int  # the product of <rho, beta^vee> over beta > 0
    # per simple coroot j, coroot[j] of every positive root in order, so the
    # pairings <w, beta^vee> of all beta are the sum over j of w[j] * column j
    coroot_columns: Matrix
    coxeter_number: int
    highest_short_root: Root
    longest_element_action: Matrix  # w0 acting on fundamental coordinates
    simple_columns: tuple[Weight, ...]  # alpha_i in fundamental coordinates
    # per i, the (j, c) with c = simple_columns[i][j] != 0: s_i moves only these
    simple_moves: tuple[tuple[tuple[int, int], ...], ...]
    inverse_cartan: Matrix  # inverse Cartan matrix times inverse_cartan_den
    inverse_cartan_den: int

    # build_root_system makes one instance per type, and a copy or an
    # unpickled system is that instance again (``__reduce__``), so equality
    # is identity and the memo tables keyed by a system hash it in C.
    __hash__ = object.__hash__

    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __reduce__(self):
        return build_root_system, (self.series, self.rank)

    def __repr__(self):
        return f"RootSystem({self.series}{self.rank})"


def _cartan_matrix(series: str, rank: int) -> tuple[list[list[int]], list[int]]:
    """The Cartan matrix and the half squared lengths d of the simple roots.

    Each series gives its Dynkin edges (0-based nodes) and d; every edge
    i - j then gets <alpha_j, alpha_i^vee> = -max(d_i, d_j) / d_i, so a bond
    is single between roots of one length and has the length ratio on the
    short root's row.
    """
    n = rank
    nodes = list(range(n))
    edges = list(zip(nodes, nodes[1:]))
    d = [1] * n
    if series == "B":
        d = [2] * (n - 1) + [1]
    elif series == "C":
        d[-1] = 2
    elif series == "D":
        edges[-1] = (n - 3, n - 1)
    elif series == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    elif series == "F":
        d = [2, 2, 1, 1]
    elif series == "G":
        d = [1, 3]
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        c[i][j] = -(max(d[i], d[j]) // d[i])
        c[j][i] = -(max(d[i], d[j]) // d[j])
    return c, d


def _generate_positive_roots(cartan, symmetrizer):
    """Positive roots by reflection closure over the simple roots.

    A positive root beta of height > 1 has some i with <beta, alpha_i^vee> > 0
    (as 0 < (beta, beta) = sum of c_i (beta, alpha_i) with c_i >= 0), and
    gamma = s_i(beta) is a lower positive root with <gamma, alpha_i^vee> < 0.
    So applying s_i to each known root wherever that pairing is negative,
    a step that raises the height, reaches every positive root from the simple ones.
    """
    n = len(cartan)
    known = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    frontier = list(known)
    while frontier:
        nxt = []
        for b in frontier:
            for i, c in enumerate(_mat_vec(cartan, b)):  # c = <b, alpha_i^vee>
                if c < 0:
                    up = b[:i] + (b[i] - c,) + b[i + 1:]
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
        frontier = nxt
    ordered = sorted(known, key=lambda b: (sum(b), b))
    roots = []
    for b in ordered:
        fund = _mat_vec(cartan, b)  # fund[i] = <b, alpha_i^vee>, so (b, alpha_i) = d_i fund[i]
        norm = sum(map(mul, b, map(mul, symmetrizer, fund)))
        if norm % 2:
            raise InternalInvariantError(f"odd squared length for root {b}")
        half = norm // 2
        coroot = []
        for j in range(n):
            num = b[j] * symmetrizer[j]
            if num % half:
                raise InternalInvariantError(f"non-integral coroot for {b}")
            coroot.append(num // half)
        roots.append(
            Root(
                simple_coords=b,
                fund_coords=tuple(fund),
                coroot=tuple(coroot),
                length_half=half,
                fund_positive=tuple((j, c) for j, c in enumerate(fund) if c > 0),
                form_coords=tuple(map(mul, b, symmetrizer)),
                height=sum(b),
            )
        )
    return tuple(roots)


@lru_cache(maxsize=None, typed=True)  # typed: True and 2.0 never hit the entries of 1 and 2
def build_root_system(series: str, rank: int) -> RootSystem:
    """Construct the full Cartan datum for a simple type.

    Raises ConfigurationError for invalid (series, rank) pairs.  Rank is
    capped at 8 (E8); this is a desk-scale tool and the fixed tables are
    exhaustively tested.  A series in lower case is answered by the entry of
    its upper case, so each type has one root system.
    """
    if series != (upper := str(series).upper()):
        return build_root_system(upper, rank)
    if series not in _RANK_RANGE:
        raise ConfigurationError(f"unknown series {series!r} (expected A-G)")
    lo, hi = _RANK_RANGE[series]
    if type(rank) is not int or not lo <= rank <= hi:
        raise ConfigurationError(
            f"invalid type {series}{rank}: rank must be in [{lo}, {hi}] for series {series}"
        )
    cartan_rows, d = _cartan_matrix(series, rank)
    cartan = tuple(tuple(row) for row in cartan_rows)
    roots = _generate_positive_roots(cartan, tuple(d))

    expected = _POSITIVE_ROOT_COUNT[series](rank)
    if len(roots) != expected:
        raise InternalInvariantError(
            f"{series}{rank}: generated {len(roots)} positive roots, expected {expected}"
        )

    doubled = len(roots) * 2
    if doubled % rank:
        raise InternalInvariantError(f"{series}{rank}: |R| not divisible by rank")
    coxeter = doubled // rank

    shorts = [r for r in roots if r.length_half == 1]
    top_short = max(shorts, key=lambda r: r.height)
    if sum(1 for r in shorts if r.height == top_short.height) != 1:
        raise InternalInvariantError(f"{series}{rank}: highest short root not unique")

    rho = tuple([1] * rank)
    if sum(top_short.coroot) != coxeter - 1:
        raise InternalInvariantError(
            f"{series}{rank}: <rho, alpha_0^vee> = {sum(top_short.coroot)} != h-1 = {coxeter - 1}"
        )

    columns = tuple(zip(*cartan))
    coroot_columns = tuple(zip(*(b.coroot for b in roots)))
    det, adjugate = _inverse_times_det(cartan)
    common = math.gcd(det, *(x for row in adjugate for x in row))
    rs = RootSystem(
        series=series,
        rank=rank,
        cartan=cartan,
        symmetrizer=tuple(d),
        positive_roots=roots,
        rho=rho,
        two_rho_check=tuple(map(sum, coroot_columns)),
        weyl_denominator=math.prod(sum(b.coroot) for b in roots),
        coroot_columns=coroot_columns,
        coxeter_number=coxeter,
        highest_short_root=top_short,
        longest_element_action=(),  # set below, from the chamber walk
        simple_columns=columns,
        simple_moves=tuple(tuple((j, c) for j, c in enumerate(col) if c) for col in columns),
        inverse_cartan=tuple(tuple(x // common for x in row) for row in adjugate),
        inverse_cartan_den=det // common,
    )
    # w0 sends the dominant chamber to the antidominant one, so -w0(omega_j),
    # minus the j-th column of w0, is the dominant conjugate of -omega_j
    stars = [to_dominant_chamber(rs, tuple(-x for x in e))[0] for e in _identity_matrix(rank)]
    w0 = tuple(tuple(-x for x in row) for row in zip(*stars))
    if _mat_mul(w0, w0) != _identity_matrix(rank):
        raise InternalInvariantError(f"{series}{rank}: w0 action is not an involution")
    return rs._replace(longest_element_action=w0)


def _restricted_split(w: Weight, p: int) -> tuple[Weight, Weight]:
    """The split lambda_0 + p*lambda_1 of a checked dominant weight, lambda_0 restricted."""
    return tuple(x % p for x in w), tuple(x // p for x in w)


def check_weight(rs: RootSystem, weight) -> Weight:
    try:
        w = tuple(weight)
    except TypeError:
        raise ConfigurationError(f"weight {weight!r} is not a sequence of ints") from None
    # type(), not isinstance(): True is no coordinate, and nothing is rounded
    if not {int}.issuperset(map(type, w)):
        raise ConfigurationError(f"weight {w!r} has a coordinate that is not an int")
    if len(w) != rs.rank:
        raise DimensionMismatchError(
            f"weight {w} has {len(w)} coordinates, expected {rs.rank} for {rs!r}"
        )
    return w


def pair(rs: RootSystem, weight, root: Root) -> int:
    """Exact pairing <weight, root^vee>; linear in the weight."""
    w = check_weight(rs, weight)
    return sum(c * x for c, x in zip(root.coroot, w))


def star(rs: RootSystem, weight) -> Weight:
    """The duality involution -w0 on weight coordinates."""
    return _star(rs, check_weight(rs, weight))


def _star(rs: RootSystem, w: Weight) -> Weight:
    """``star`` of a checked weight."""
    return tuple(-x for x in _mat_vec(rs.longest_element_action, w))


def check_dominant(rs: RootSystem, weight, what: str) -> Weight:
    """The checked weight when it is dominant; ``what`` names the refusing operation."""
    w = check_weight(rs, weight)
    if min(w) < 0:
        raise PreconditionError(f"{what} requires a dominant weight, got {w}")
    return w


# Miller-Rabin to the first 13 prime bases is exact below psi_13, the least
# strong pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def check_prime(p) -> int:
    """p when it is a prime int; True, 5.0 and 1 are refused, and so is
    every p >= psi_13, where the primality test is no longer exact."""
    if type(p) is int and p >= _PSI_13:
        raise ConfigurationError(f"p={p} is too large: primality is exact below {_PSI_13}")
    if type(p) is not int or p < 2 or not _is_prime(p):
        raise ConfigurationError(f"p={p!r} is not prime")
    return p


def _is_prime(n: int) -> bool:
    """Whether n >= 2 is prime, exactly when n < psi_13: each base up to
    sqrt(n) must not divide n, and n must be a strong probable prime to it."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for a in _PRIME_BASES:
        if a * a > n:  # no prime factor up to sqrt(n)
            return True
        if n % a == 0:
            return False
        powers = [pow(a, (n - 1) >> s << i, n) for i in range(s)]  # a^(d 2^i)
        if powers[0] != 1 and n - 1 not in powers:
            return False
    return True


def _check_int(value, name: str, nonnegative: bool = False) -> int:
    """value when it is an int, and >= 0 if ``nonnegative``; True and 2.0 are refused."""
    if type(value) is not int or (nonnegative and value < 0):
        kind = "a nonnegative int" if nonnegative else "an int"
        raise ConfigurationError(f"{name} must be {kind}, got {name}={value!r}")
    return value


def is_dominant(rs: RootSystem, weight) -> bool:
    return all(x >= 0 for x in check_weight(rs, weight))


def is_restricted(rs: RootSystem, weight, p: int) -> bool:
    return all(0 <= x <= p - 1 for x in check_weight(rs, weight))


def jantzen_bound(rs: RootSystem, p: int) -> int:
    return p * (p - rs.coxeter_number + 2)


def in_jantzen_region(rs: RootSystem, weight, p: int) -> bool:
    """Whether <weight + rho, alpha_0^vee> <= p(p - h + 2)."""
    w = check_dominant(rs, weight, "jantzen test")
    return sum(map(mul, rs.highest_short_root.coroot, _vec_add(w, rs.rho))) <= jantzen_bound(rs, p)


class PrimeReport(NamedTuple):
    """Advisory flags for a prime; never blocks computation."""

    p: int
    p_odd: bool
    p_ge_2h_minus_2: bool
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.warnings


def validate_p(rs: RootSystem, p: int) -> PrimeReport:
    h = rs.coxeter_number
    warnings = []
    odd = p % 2 == 1
    big = p >= 2 * h - 2
    if not odd:
        warnings.append(f"p={p} is even")
    if not big:
        warnings.append(f"p={p} < 2h-2 = {2 * h - 2} for {rs.series}{rs.rank}")
    return PrimeReport(p=p, p_odd=odd, p_ge_2h_minus_2=big, warnings=tuple(warnings))


def _scaled_root_coords(rs: RootSystem, w: Weight) -> tuple[int, ...]:
    """inverse_cartan_den times the simple-root coordinates of w."""
    return tuple(sum(map(mul, row, w)) for row in rs.inverse_cartan)


def root_lattice_coords(rs: RootSystem, weight) -> tuple[int, ...] | None:
    """Integer simple-root coordinates, or None when weight is not in ZR."""
    den = rs.inverse_cartan_den
    coords = _scaled_root_coords(rs, check_weight(rs, weight))
    if any(c % den for c in coords):
        return None
    return tuple(c // den for c in coords)


def dominance_leq(rs: RootSystem, a, b) -> bool:
    """a <= b in the dominance order: b - a a nonnegative integer root sum."""
    return _dominance_leq(rs, check_weight(rs, a), check_weight(rs, b))


def _dominance_leq(rs: RootSystem, a: Weight, b: Weight) -> bool:
    """``dominance_leq`` of checked weights; stops at the first simple-root
    coordinate of b - a that is negative or not an integer."""
    diff, den = tuple(map(sub, b, a)), rs.inverse_cartan_den
    for row in rs.inverse_cartan:
        c = sum(map(mul, row, diff))
        if c < 0 or c % den:
            return False
    return True


def to_dominant_chamber(rs: RootSystem, v: Weight, low: int | None = None) -> tuple[Weight, int]:
    """Reflect v into the dominant chamber, at its lowest coordinate first.

    Returns the dominant conjugate and the sign det(w) of the walk, with
    sign 0 when v lies on a wall (its conjugate has a zero coordinate).
    ``low`` is min(v) when the caller has read it already; a dominant v is
    returned at once.  Each step reflects by s_i at the first index i of
    the lowest coordinate value, found by C-level ``min`` and ``list.index``.
    Any negative coordinate would do: s_i with v_i < 0 adds the positive
    multiple -v_i of alpha_i, so every step climbs in the dominance order
    inside the finite orbit of v, and the walk ends, at the one dominant
    conjugate, whichever negative coordinate each step takes.  The sign is
    path-independent too: a regular v has one w with w(v) dominant, and
    every word for w has the parity of l(w).  Each reflection s_i changes
    only the coordinates in ``simple_moves[i]``.  ``v`` is not validated;
    public callers go through ``dominant_conjugate``.
    """
    if low is None:
        low = min(v)
    if low >= 0:
        return tuple(v), (1 if low else 0)
    moves = rs.simple_moves
    u = list(v)
    sign = 1
    while low < 0:
        for j, c in moves[u.index(low)]:
            u[j] -= low * c
        sign = -sign
        low = min(u)
    return tuple(u), (sign if low else 0)


def dominant_conjugate(rs: RootSystem, weight) -> Weight:
    """The unique dominant weight in the finite Weyl orbit."""
    return to_dominant_chamber(rs, check_weight(rs, weight))[0]


def weyl_orbit(rs: RootSystem, weight) -> frozenset:
    """The full finite Weyl orbit of a weight, walked by levels from its dominant conjugate.

    Level k holds the w(mu), mu dominant, whose minimal coset representative
    w in W / W_mu has length k.  Applying s_i to a weight v of level k with
    v_i > 0 gives a weight of level k + 1, and every weight of level k + 1
    arises so.  A weight's level is a function of the weight, so no level
    meets another: a weight of level k + 1 was met at no earlier level, and
    the walk keeps no running union of the orbit.  ``_orbit_rows`` makes
    each weight once, so the levels are simply concatenated.
    """
    return frozenset(_orbit_rows(rs, to_dominant_chamber(rs, check_weight(rs, weight))[0]))


def _orbit_rows(rs: RootSystem, mu: Weight) -> list[Weight]:
    """The Weyl orbit of a dominant weight by levels from mu (see
    ``weyl_orbit``), each weight made once, so no level needs deduplication.

    A weight u of level k + 1 is made only from its parent s_f u, f the
    first index with u_f < 0: from v of level k with v_i > 0, s_i v is kept
    exactly when (s_i v)_j >= 0 for every j < i.  s_i moves only v_i and
    the coordinates of the neighbours of i in the Dynkin diagram, and
    raises those, the Cartan matrix being <= 0 off its diagonal.  So s_i v
    is kept while v has no negative coordinate below i; past the first
    negative v_g, only an s_k with k > g a neighbour of g can lift it, and
    s_k v is kept when no coordinate below k is left negative.  Every u is
    reached: below f its parent has the coordinates of u (>= 0) except at
    the neighbours of f, and when one of those is negative, f is a
    neighbour of the first negative one.
    """
    moves = rs.simple_moves
    rows, level = [mu], [mu]
    while level:
        nxt = []
        for v in level:
            i = 0  # counted by hand: enumerate's pairs cost 11% of the walk
            for vi in v:
                if vi > 0:
                    u = [*v]
                    for j, c in moves[i]:
                        u[j] -= vi * c
                    nxt.append(tuple(u))
                elif vi < 0:
                    for k, _ in moves[i]:
                        vk = v[k]
                        if k > i and vk > 0:
                            u = [*v]
                            for j, c in moves[k]:
                                u[j] -= vk * c
                            if min(u[:k]) >= 0:
                                nxt.append(tuple(u))
                    break
                i += 1
        rows += nxt
        level = nxt
    return rows
