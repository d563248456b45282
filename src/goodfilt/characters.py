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
companion), and tensor-product decompositions into dual Weyl constituents
from the Brauer-Klimyk rule: iterate over the weights nu of one factor,
reflect v = lam + rho + nu to the dominant chamber with its sign, and drop
wall hits.  A v with a zero coordinate is dropped at once: s_i fixes v, so
chi(v - rho) = -chi(v - rho) = 0.  A v with every coordinate positive is
dominant already, with sign +1, and only the rest are walked.  Being on a
wall is W-invariant, so a walk that meets a wall ends on one and also gives
sign 0.  The rule reads the character as a sum of orbits: for each dominant
weight and its multiplicity it walks that weight's Weyl orbit, found by
levels from the dominant weight (``roots.weyl_orbit``) and shared by every
character that holds it.

All arithmetic is exact; the inner products needed by Freudenthal are
evaluated through simple-root coordinates with the symmetrized form, so
every quotient is checked to be an exact integer.  Characters are sparse
dicts keyed by fundamental-coordinate weight tuples; public functions
return copies, never a memo table's own dict.

The per-system memo tables follow the same idempotent-publication
contract as the KL table: immutable values, last-write-wins of identical
entries, safe to share.  ``stats`` reports their sizes.
"""

from __future__ import annotations

import math
from functools import lru_cache
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


def _form(rs, fund_vec, root_coords):
    """(v, b) for v in fundamental coordinates and b in simple-root coordinates."""
    return sum(
        v * c * d for v, c, d in zip(fund_vec, root_coords, rs.symmetrizer)
    )


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
        v = beta.fund_coords
        j = next((j for j in wall if v[j] < 0), None)
        k = key[v] = v if j is None else key[tuple(a - v[j] * c for a, c in zip(v, cols[j]))]
        groups.setdefault(k, [beta, 0])[1] += 1
    return tuple((beta, size) for beta, size in groups.values())


@lru_cache(maxsize=None)
def _dominant_multiplicities(rs: RootSystem, lam: Weight) -> dict[Weight, int]:
    mult = {lam: 1}
    lam_2rho = tuple(a + 2 * r for a, r in zip(lam, rs.rho))
    for mu, diff_coords in dominant_below(rs, lam)[1:]:
        acc = 0
        for beta, size in _root_groups(rs, tuple(i for i, x in enumerate(mu) if not x)):
            step, fund = 2 * beta.length_half, beta.fund_coords  # step = (beta, beta)
            up = mu
            form = _form(rs, mu, beta.simple_coords)
            while True:
                up = tuple(map(add, up, fund))
                form += step
                m = mult.get(_r.to_dominant_chamber(rs, up)[0], 0)
                if not m:
                    break
                acc += size * m * form
        denom = _form(rs, tuple(a + b for a, b in zip(lam_2rho, mu)), diff_coords)
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
def _orbit(rs: RootSystem, mu: Weight) -> frozenset:
    """The Weyl orbit of a dominant weight, shared by every character holding it."""
    return _r.weyl_orbit(rs, mu)


def weight_multiplicities(rs: RootSystem, lam) -> dict[Weight, int]:
    """The full character of the dual Weyl module with highest weight lam."""
    return {
        nu: m for mu, m in dominant_multiplicities(rs, lam).items() for nu in _orbit(rs, mu)
    }


def dim_nabla(rs: RootSystem, lam) -> int:
    """Weyl dimension formula, evaluated as an exact integer."""
    return _dim_nabla(rs, _r.check_dominant(rs, lam, "dimension"))


@lru_cache(maxsize=None)
def _dim_nabla(rs: RootSystem, lam: Weight) -> int:
    shifted = tuple(map(add, lam, rs.rho))
    num = math.prod(sum(map(mul, beta.coroot, shifted)) for beta in rs.positive_roots)
    den = math.prod(sum(beta.coroot) for beta in rs.positive_roots)
    if num % den:
        raise InternalInvariantError(f"Weyl dimension not integral for {lam}")
    return num // den


def dim_weight_space(rs: RootSystem, tau, xi) -> int:
    """Multiplicity of the weight xi in the (dual) Weyl module of highest weight tau."""
    tau = _r.check_dominant(rs, tau, "weight space dimension")
    xi = _r.check_weight(rs, xi)
    dom = _r.dominant_conjugate(rs, xi)
    return dominant_multiplicities(rs, tau).get(dom, 0)


@lru_cache(maxsize=None)
def _tensor_cached(rs: RootSystem, a: Weight, b: Weight):
    small, big = (a, b) if _dim_nabla(rs, a) <= _dim_nabla(rs, b) else (b, a)
    acc: dict[Weight, int] = {}
    rho = rs.rho
    big_shifted = tuple(map(add, big, rho))
    # called by its module name, which is what tracers of this module wrap
    for mu, mult in dominant_multiplicities(rs, small).items():
        for nu in _orbit(rs, mu):
            v = tuple(map(add, big_shifted, nu))
            if 0 in v:  # s_i fixes v, so the term cancels itself
                continue
            sign = 1
            if min(v) < 0:
                v, sign = _r.to_dominant_chamber(rs, v)
                if not sign:
                    continue
            omega = tuple(map(sub, v, rho))
            acc[omega] = acc.get(omega, 0) + sign * mult
    out = {}
    top = tuple(map(add, a, b))
    for omega, m in acc.items():
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
