"""Exact Weyl character arithmetic.

Weight multiplicities come from the Freudenthal recursion over the dominant
weights that a root-subtraction walk reaches from the highest weight
(``dominant_below``), in the orbit-sum form of Moody and Patera ("Fast
recursion formula for weight multiplicities", Bull. AMS 7, 1982): at a
dominant mu one root string is walked per orbit of the stabilizer of mu on
the positive roots, weighted by the orbit's size, so no Weyl orbit is
expanded.  The walk subtracts a positive root beta from a dominant mu only
when mu_j >= beta_j wherever beta_j > 0, which is exactly when mu - beta
is dominant, since mu_j - beta_j >= mu_j >= 0 at every other j.

Dimensions come from the Weyl product formula (an independent consistency
companion), its denominator prod <rho, beta^vee> stored once on the
``RootSystem`` (``weyl_denominator``).  Tensor-product decompositions into
dual Weyl constituents come from the Brauer-Klimyk rule: iterate over the
weights nu of the smaller factor, reflect v = big + rho + nu to the
dominant chamber with its sign, and drop wall hits.  The character is read
as a sum of orbits, each Weyl orbit memoized column-major (``_orbit``: one
tuple per coordinate) and shared by every character that holds it, so a
whole orbit is shifted by big + rho with one ``map`` per coordinate.  A v
with a zero coordinate is dropped in that C-level pass
(``filter(all, ...)``): s_i fixes v, so chi(v - rho) = -chi(v - rho) = 0.
A v with every coordinate positive, read from one ``map(min, ...)`` pass,
is dominant already, with sign +1.  Only the rest are walked, each once,
by ``roots.to_dominant_chamber``; being on a wall is W-invariant, so a
walk that meets a wall ends on one and gives sign 0.  Over 40 seed-0
streams of perfbench's tensor-highrank workload the terms are 60.5% on a
wall, 16.9% regular dominant and 22.6% walked, at 1.07 reflections per
walk.  Sums are accumulated by v = omega + rho, and rho is subtracted once
per constituent.  The orbits are found by levels from the dominant weight
(``roots.weyl_orbit``).

All arithmetic is exact.  Freudenthal's inner products (v, beta) are dot
products with ``Root.form_coords`` (simple-root coordinates times the
symmetrizer), built once with the root system, and every quotient is
checked to be an exact integer.  A string step that is dominant already is
looked up with no walk.  Characters are sparse dicts keyed by
fundamental-coordinate weight tuples; public functions return copies,
never a memo table's own dict.

The per-system memo tables follow the same idempotent-publication
contract as the KL table: immutable values, last-write-wins of identical
entries, safe to share.  ``stats`` reports their sizes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import add, mul, sub

from . import roots as _r
from .errors import InternalInvariantError, PreconditionError
from .roots import RootSystem, Weight

__all__ = [
    "weight_multiplicities",
    "dominant_below",
    "dominant_multiplicities",
    "dim_nabla",
    "dim_weight_space",
    "tensor_nabla_multiplicities",
    "multi_tensor_nabla_multiplicities",
    "stats",
]


def dominant_below(rs: RootSystem, lam: Weight) -> tuple[tuple[Weight, tuple[int, ...]], ...]:
    """Pairs (mu, simple-root coordinates of lam - mu) over the dominant mu <= lam.

    Ordered by ascending height of lam - mu, then by mu, so lam comes first.
    A breadth-first walk from lam subtracts positive roots and keeps the
    dominant results.  It reaches every dominant mu <= lam because every
    covering relation of the dominance order on dominant weights is a
    positive root (Stembridge, "The partial order of dominant weights",
    Adv. Math. 136 (1998)); the tests check this against the root-lattice box.
    mu - beta is dominant exactly when mu_j >= beta_j wherever beta_j > 0
    (``Root.fund_positive``), so a root that leaves the chamber costs no tuple.
    """
    lam = _r.check_dominant(rs, lam, "dominant weights below")
    seen = {lam: (0,) * rs.rank}
    frontier = [lam]
    steps = [(b.fund_positive, b.fund_coords, b.simple_coords) for b in rs.positive_roots]
    while frontier:
        nxt = []
        for mu in frontier:
            c = seen[mu]
            for positive, fund, simple in steps:
                for j, f in positive:
                    if mu[j] < f:
                        break
                else:
                    nu = tuple(map(sub, mu, fund))
                    if nu not in seen:
                        seen[nu] = tuple(map(add, c, simple))
                        nxt.append(nu)
        frontier = nxt
    return tuple(sorted(seen.items(), key=lambda t: (sum(t[1]), t[0])))


@lru_cache(maxsize=None)
def _root_groups(rs: RootSystem, wall: tuple[int, ...]) -> tuple[tuple[_r.Root, int], ...]:
    """The positive roots grouped by orbit of W_J, J = wall: (root, size) per group.

    A group is keyed by the J-dominant conjugate of its roots, which is its
    highest root, and that root represents it.  Roots are keyed highest
    first: when beta_j < 0 for some j in J, s_j beta = beta - beta_j alpha_j
    is a higher root, keyed already.  For a root beta of the subsystem
    spanned by J, -beta lies in the W_J-orbit of beta, so a group may hold
    roots that W_J maps to negative ones.
    """
    cols = rs.simple_columns
    key: dict[Weight, Weight] = {}
    groups: dict[Weight, list] = {}
    for beta in reversed(rs.positive_roots):
        v = k = beta.fund_coords
        for j in wall:
            if v[j] < 0:
                k = key[tuple(map(sub, v, map(mul, cols[j], repeat(v[j]))))]
                break
        key[v] = k
        groups.setdefault(k, [beta, 0])[1] += 1
    return tuple((beta, size) for beta, size in groups.values())


@lru_cache(maxsize=None)
def _dominant_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    mult = {lam: 1}
    lam_2rho = tuple(a + 2 * r for a, r in zip(lam, rs.rho))
    sym = rs.symmetrizer
    for mu, diff_coords in dominant_below(rs, lam)[1:]:
        acc = 0
        for beta, size in _root_groups(rs, tuple(i for i, x in enumerate(mu) if not x)):
            step, fund = 2 * beta.length_half, beta.fund_coords  # step = (beta, beta)
            up = mu
            form = sum(map(mul, mu, beta.form_coords))  # (mu, beta)
            while True:
                up = tuple(map(add, up, fund))
                form += step
                m = mult.get(up if min(up) >= 0 else _r.to_dominant_chamber(rs, up)[0], 0)
                if not m:
                    break
                acc += size * m * form
        # (lam + mu + 2 rho, lam - mu)
        denom = sum(map(mul, map(add, lam_2rho, mu), map(mul, diff_coords, sym)))
        num = 2 * acc
        if denom <= 0 or num % denom:
            raise InternalInvariantError(
                f"Freudenthal division failed at {mu}: {num}/{denom}"
            )
        m = num // denom
        if m <= 0:
            raise InternalInvariantError(f"non-positive multiplicity at {mu}")
        mult[mu] = m
    return mult


def dominant_multiplicities(rs: RootSystem, lam) -> dict[Weight, int]:
    """Freudenthal recursion in the orbit-sum form of Moody and Patera
    (Bull. AMS 7, 1982): multiplicities at the dominant weights <= lam.

    The summand of a positive root beta at mu, the sum of m(mu + k beta)
    (mu + k beta, beta) over k >= 1, is invariant under the stabilizer W_J
    of mu, J = {i : mu_i = 0}; for a root of the subsystem of J it also
    equals that of -beta, since (mu, beta) = 0 and strings are symmetric.
    So one string is walked per W_J-orbit of positive roots and weighted
    by the orbit's size (``_root_groups``).  Each string is followed until
    its first weight outside the character: weight strings are unbroken,
    and every dominant weight above mu is already known because the
    support is visited by height.  No Weyl orbit is expanded.
    """
    lam = _r.check_dominant(rs, lam, "weight multiplicities")
    return dict(_dominant_multiplicities(rs, lam))


@lru_cache(maxsize=None)
def _orbit(rs: RootSystem, mu: Weight) -> tuple[tuple[int, ...], ...]:
    """The Weyl orbit of a dominant weight, column-major: one tuple per
    coordinate, the orbit's weights being ``zip(*columns)``.  Shared by
    every character holding mu."""
    return tuple(zip(*_r.weyl_orbit(rs, mu)))


def weight_multiplicities(rs: RootSystem, lam) -> dict[Weight, int]:
    """The full character of the dual Weyl module with highest weight lam."""
    return {
        nu: m for mu, m in dominant_multiplicities(rs, lam).items() for nu in zip(*_orbit(rs, mu))
    }


def dim_nabla(rs: RootSystem, lam) -> int:
    """Weyl dimension formula, evaluated as an exact integer."""
    return _dim_nabla(rs, _r.check_dominant(rs, lam, "dimension"))


@lru_cache(maxsize=None)
def _dim_nabla(rs: RootSystem, lam: Weight) -> int:
    shifted = tuple(map(add, lam, rs.rho))
    num = math.prod(sum(map(mul, beta.coroot, shifted)) for beta in rs.positive_roots)
    if num % rs.weyl_denominator:
        raise InternalInvariantError(f"Weyl dimension not integral for {lam}")
    return num // rs.weyl_denominator


def dim_weight_space(rs: RootSystem, tau, xi) -> int:
    """Multiplicity of the weight xi in the (dual) Weyl module of highest weight tau."""
    tau = _r.check_dominant(rs, tau, "weight space dimension")
    xi = _r.check_weight(rs, xi)
    dom = _r.dominant_conjugate(rs, xi)
    return dominant_multiplicities(rs, tau).get(dom, 0)


@lru_cache(maxsize=None)
def _tensor_cached(rs: RootSystem, a: Weight, b: Weight):
    small, big = (a, b) if _dim_nabla(rs, a) <= _dim_nabla(rs, b) else (b, a)
    acc: dict[Weight, int] = {}  # keyed by v = omega + rho
    big_shifted = tuple(map(add, big, rs.rho))
    # called by its module name, which is what tracers of this module wrap
    for mu, mult in dominant_multiplicities(rs, small).items():
        # v = big + rho + nu over the orbit of mu, built column by column;
        # a v with a zero coordinate is fixed by s_i and cancels itself
        shifted = [map(add, col, repeat(x)) for col, x in zip(_orbit(rs, mu), big_shifted)]
        terms = [*filter(all, zip(*shifted))]
        for v, low in zip(terms, map(min, terms)):
            sign = 1  # a v with every coordinate positive is dominant already
            if low < 0:
                v, sign = _r.to_dominant_chamber(rs, v)
            if sign:
                acc[v] = acc.get(v, 0) + sign * mult
    out = {}
    rho, top = rs.rho, tuple(map(add, a, b))
    for v, m in acc.items():
        omega = tuple(map(sub, v, rho))
        if m < 0:
            raise InternalInvariantError(f"negative tensor multiplicity at {omega}")
        if m:
            if not _r._dominance_leq(rs, omega, top):
                raise InternalInvariantError(f"tensor constituent {omega} not below {top}")
            out[omega] = m
    return out


def tensor_nabla_multiplicities(rs: RootSystem, a, b) -> dict[Weight, int]:
    """Decomposition multiplicities of a product of two dual Weyl characters."""
    a = _r.check_dominant(rs, a, "tensor decomposition")
    b = _r.check_dominant(rs, b, "tensor decomposition")
    return dict(_tensor_cached(rs, a, b))


def multi_tensor_nabla_multiplicities(rs: RootSystem, *weights) -> dict[Weight, int]:
    """Constituents of a product of one or more dual Weyl characters, folded pairwise."""
    if not weights:
        raise PreconditionError("tensor decomposition needs at least one weight")
    weights = [_r.check_dominant(rs, w, "tensor decomposition") for w in weights]
    out = {weights[0]: 1}
    for c in weights[1:]:
        folded: dict[Weight, int] = {}
        for nu, k in out.items():
            for omega, m in tensor_nabla_multiplicities(rs, nu, c).items():
                folded[omega] = folded.get(omega, 0) + k * m
        out = folded
    return out


_CACHES = {
    "characters": _dominant_multiplicities,
    "orbits": _orbit,
    "root_groupings": _root_groups,
    "dimensions": _dim_nabla,
    "tensor_pairs": _tensor_cached,
}


def stats() -> dict[str, int]:
    """Entries held by each memo table of this module, read from ``cache_info``."""
    return {name: f.cache_info().currsize for name, f in _CACHES.items()}
