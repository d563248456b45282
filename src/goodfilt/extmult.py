"""Good-filtration multiplicities of Frobenius-kernel Ext groups.

All quantities here reduce to coefficients of affine Kazhdan-Lusztig
polynomials through one coefficient, the paper's c(a, b, n).  Write a
p-regular dominant weight as lambda = x . lambda^- with lambda^- the
antidominant representative and l(lambda) := l(x).  For two linked
weights a = z . rep, the (dual) Weyl-module side, and b = x . rep, the
"reduced" (quantum-irreducible) side,

    c(a, b, n) = dim Ext^n_G(Delta(a), nabla_red(b))
               = dim Ext^n_G(Delta_red(b), nabla(a))
               = coefficient of t^(l(x) - l(z) - n) in P_{z,x}(t),   t = sqrt(q),

and c(a, b, n) = 0 when a and b lie in different linkage classes.
``small_c(a, b, n)`` computes exactly that coefficient.  The exponent
places n = l(x) - l(z) at the constant term and walks down the polynomial
as n decreases; since P is a polynomial in t^2 the dimensions obey the
parity rule  n == l(x) - l(z) (mod 2).  Orientation note: the degree is
read in P_{z,x} (Weyl-module element first), which is the unique reading
under which the P_{z,x} = 0 for z > x support convention produces nonzero
higher Ext groups; the built-in consistency identity over cohomology of
the first Frobenius kernel (``weight_space_identity_check``) pins this
convention end to end.

On top of c:

* ``big_C(a, b, n)``: the convolution
  sum over z dominant-in-orbit, m in [0, n] of
      c(z, x_a, l(x_a)-l(z)-m) * c(z, x_b, l(x_b)-l(z)-n+m),
  which is the n-th graded dimension of the reduced-reduced pairing;
  ``ext_dim_G_red_red`` is the same sum as a degree-split double sum of
  ``small_c`` values over the dominant weights of the linkage class, a
  second organisation that checks it,
* ``multiplicity_table``: the filtration-multiplicity formulas of the
  variants red_red and red_nabla, combining the KL factors with Steinberg
  tensor-product multiplicities of dual Weyl characters.  Dualizing both
  arguments gives Ext^n_{G_1}(Delta(lambda), L(mu)) =
  Ext^n_{G_1}(L(mu*), nabla(lambda*)) as G-modules, since Delta(lambda)* =
  nabla(lambda*) and L(mu)* = L(mu*) (Jantzen, RAGS II.2.13), so the
  variant delta_red is answered as the red_nabla table of (mu*, lambda*),
  omega not starred, and all that follows concerns red_red and red_nabla,
* ``weight_space_identity_check``: the two-path identity for H^*(G_1,
  nabla(mu)), mu = w . 0 + p*xi with w finite: the multiplicity of nabla(tau)
  over all degrees equals dim Delta(tau)_xi.  It refuses a non-dominant
  mu or tau and a p-singular mu, hence every mu at p < h, where no weight
  is p-regular; ``run_identity_box`` checks it with one
  red_nabla table per (mu, degree some tau of mu occupies).

Every input is refused by the one rule of its kind, with a message naming
it: a prime by ``roots.check_prime``, a degree by ``roots._check_int``, a
weight by ``roots.check_weight``, and, as L, Delta and nabla exist only at
dominant weights, a weight that is not dominant by ``roots.check_dominant``
(``PreconditionError``), in the tables, the identity checks and the Ext
dictionary (``small_c``, ``big_C``, ``ext_dim_G_red_red``) alike.

A query is checked once, in ``MultiplicityQuery.validated``; tables then
work on the checked tuples and on group elements.  Both table modes take
their taus, each with its element, from one walk of the partner's dot
orbit, so a table locates only its partner weight.  The KL factors take
elements; the public ones locate their two weights and call the same cores.

Which taus a table sums over.  Each variant reads its KL factor at the
element z with z . lambda^- = base + p*tau (tau as ``_orbit_congruent``
files it) and tensors nabla(tau) with the nabla(e) of its weights e (see
``_variant_parts``).  Every table keeps tau only when p*tau <= X in
dominance, with theta the highest root and

    X = base* + partner + 2 rho + p * floor(n/2) * theta,

because every tau with a nonzero factor has p*tau <= X (proof below).  Target
constituents omega narrow that to the taus with also tau <= omega + shift
for one omega, shift the sum of the e*: with E the product of the nabla(e),
[nabla(tau) (x) E : nabla(omega)] = [nabla(omega) (x) E* : nabla(tau)], and
every constituent of nabla(omega) (x) E* lies below omega + shift.  A full
table has no such tops.  The length law l(base + p*tau) = l(base) +
<tau, 2 rho^vee>, with <w, 2 rho^vee> one dot product with
``RootSystem.two_rho_check``, bounds the walk: it goes to length
l(base) + min(floor(<X, 2 rho^vee> / p), max over the omega tops of
<top, 2 rho^vee>), which reaches every kept tau, as <alpha, rho^vee> > 0
for every positive root alpha.  The bound:

1. The factor is a good-filtration multiplicity.  Take p >= 2h - 2, the
   Lusztig character formula (LCF) and weights in the Jantzen region.
   Then the factor of tau is [Ext^n_{G_1}(M_1, M_2)^[-1] : nabla(tau)]
   for (M_1, M_2) = (L(lambda_0), L(mu_0)) and (L(lambda_0), nabla(mu))
   (red_red and red_nabla), by the paper's good-filtration theorem and the
   Lyndon-Hochschild-Serre spectral sequence (LHS).  M_1* (x) M_2 has
   highest weight base* + partner.
2. Weight bound.  So p*tau is a weight of H^n(G_1, M) with
   M = M_1* (x) M_2.  The Friedlander-Parshall spectral sequence (Amer. J.
   Math. 108, 1986), E_2 = S^i(g*)^[1] (x) H^j(g, M) with 2i + j = n,
   bounds those weights: H^j(g, M) is a subquotient of Lambda^j(g*) (x) M,
   and Lambda^j adds at most 2 rho to a weight of M; S^i adds at most
   p*i*theta.  So p*tau <= X.
3. Every p.  The factor depends only on the two elements.  With
   m = lambda^- + rho, z . lambda^- = w_z(m) + p*nu_z - rho and
   base + rho = w_z(m) + p*nu, nu and tau = nu_z - nu stay fixed while
   m/p moves in the open alcove.  The 2 rho of X cancels the -rho shifts of
   base* and partner, so X - p*tau is linear and homogeneous in (m, p).  The
   bound holds at every large prime, where the LCF holds
   (Andersen-Jantzen-Soergel) and the Jantzen region, quadratic in p,
   holds the weights; the m/p of those primes are dense in the alcove, so
   by continuity it holds at every p.  Only a 2 rho cancels the shifts, so a tighter
   Lambda^j term does not carry over this way.

Which elements a table pays for.  P_{u,v} is a polynomial in q = t^2 with
2 deg_q P_{u,v} <= l(v) - l(u) - 1 for u != v (Kazhdan-Lusztig, Invent.
Math. 53, 1979), so two laws decide, before any KL work, which walked z can
have a nonzero factor against the partner's element y:

* Parity: only z with l(z) = l(y) + n (mod 2).  For red_nabla the factor
  is the coefficient of t^(l(z) - l(y) - n) in P_{y,z}, which is 0 at odd
  exponents.  For red_red every nonzero term of ``big_C`` is a product of
  coefficients of t^(l(z) - l(z') - m) and t^(l(y) - l(z') - n + m), both
  even, so l(z) + l(y) - n is even.
  So the walk reads one parity class: ``_orbit_congruent`` slices every
  other kept level of flagged ids, those of the parity of l(y) + n.
* Degree 0: only z = y.  At n = 0 the exponent l(z) - l(y) is at or above
  the degree bound of P_{y,z} unless z = y; for red_red at m = 0 the two
  factors need z' = z and z' = y.  The factor at y is 1, and y is walked
  only when base + p*tau is the partner: tau = 0 and lambda_0 = mu_0 for
  red_red, tau = mu_1 and lambda_0 = mu_0 for red_nabla.  That tau is
  kept, as X - p*tau = lambda_0* + lambda_0 + 2 rho >= 0.  So a degree-0
  table is, with no locate, walk or KL read,

      [Ext^0 : nabla(omega)] = delta(lambda_0, mu_0)
                               [nabla(lambda_1*) (x) nabla(mu_1) : nabla(omega)],

  restricted to the omegas.  An omega top cannot change it: a tau below
  no top has no constituent among the omegas.

A table (``MultiplicityTable``) is a dict from omega to multiplicity, zero
entries omitted, and refuses no query for its hypotheses: the formulas are
exact combinatorics regardless, and they compute the intended Ext
dimensions under the hypotheses of point 1 above (p >= 2h - 2, the
character formula, the Jantzen region).  The CLI reports those
hypotheses as advisories; a Python caller asks ``roots.validate_p`` and
``roots.in_jantzen_region`` directly.
"""

from __future__ import annotations

import itertools
from operator import add, mul
from typing import TYPE_CHECKING, NamedTuple

from . import characters as ch
from . import roots as _r
from .errors import ConfigurationError, DecompositionError, SingularWeightError
from .roots import RootSystem, Weight

if TYPE_CHECKING:  # loaded by make_workspace, so a tensor-only process never imports them
    from .affine import AffineWeylGroup
    from .klpoly import KLTable

__all__ = [
    "Workspace",
    "make_workspace",
    "small_c",
    "big_C",
    "ext_dim_G_red_red",
    "MultiplicityQuery",
    "MultiplicityTable",
    "multiplicity_table",
    "IdentityCheckResult",
    "weight_space_identity_check",
    "run_identity_box",
]

VARIANTS = ("red_red", "delta_red", "red_nabla")


class Workspace(NamedTuple):
    """Shared computation state for one (series, rank)."""

    rs: RootSystem
    group: AffineWeylGroup
    table: KLTable

    def stats(self) -> dict[str, int]:
        """Sizes of the KL memo and of the group's tables (see ``AffineWeylGroup.stats``)."""
        return {"kl_entries": len(self.table.memo), **self.group.stats()}


def make_workspace(series: str, rank: int) -> Workspace:
    from .affine import get_group
    from .klpoly import KLTable

    group = get_group(series, rank)
    return Workspace(rs=group.rs, group=group, table=KLTable(group))


def _linked_elements(ws: Workspace, a, b, n: int, p: int):
    """The one check of an Ext dictionary query: p, then n, then the
    dominance of a and b.  Returns the elements that locate a and b and
    their antidominant representative, or None when the two lie in
    different linkage classes."""
    _r.check_prime(p)
    _r._check_int(n, "n", nonnegative=True)
    a, b = (_r.check_dominant(ws.rs, w, "Ext dimension") for w in (a, b))
    loc_a, loc_b = ws.group._locate_checked(a, p), ws.group._locate_checked(b, p)
    if loc_a.antidominant_rep == loc_b.antidominant_rep:
        return loc_a.element, loc_b.element, loc_a.antidominant_rep


def _c_of_elements(ws: Workspace, z: int, x: int, n: int) -> int:
    """The coefficient of t^(l(x) - l(z) - n) in P_{z,x}: z the plain
    (Weyl-module) element, x the reduced one.  ``c_coeff`` reads 0 at an
    odd exponent, so the parity rule needs no check here."""
    return ws.table.c_coeff(z, x, ws.group.length(x) - ws.group.length(z) - n)


def small_c(ws: Workspace, delta_weight, red_weight, n: int, p: int) -> int:
    """c(delta_weight, red_weight, n): dim Ext^n between the (dual) Weyl
    module at delta_weight and the reduced module at red_weight, as a KL
    coefficient (see the module docstring).

    Zero when the weights lie in different linkage classes.
    """
    linked = _linked_elements(ws, delta_weight, red_weight, n, p)
    return _c_of_elements(ws, *linked[:2], n) if linked else 0


def _big_C_of_elements(ws: Workspace, x: int, y: int, n: int) -> int:
    """``big_C`` between the elements x and y of one linkage class: a sum
    over the z below both in Bruhat order whose image of C_p^- is dominant
    (the flagged ids).

    The first factor reads t^(l(x) - l(z) - m), which is 0 at odd
    exponents, so m runs over the parity of l(x) - l(z) only.  Then the
    second exponent has the parity of l(x) + l(y) - n, so the sum is 0 off
    that parity, answered before any KL work.
    """
    g, c_coeff = ws.group, ws.table.c_coeff
    lx, ly = g.length(x), g.length(y)
    if (lx + ly - n) % 2:
        return 0
    bound = min(lx, ly)
    total = 0
    for level in g._levels(bound)[: bound + 1]:
        for z in level:
            if not (g.bruhat_leq(z, x) and g.bruhat_leq(z, y)):
                continue
            lz = g.length(z)
            for m in range((lx - lz) % 2, n + 1, 2):
                a = c_coeff(z, x, lx - lz - m)
                if a:
                    b = c_coeff(z, y, ly - lz - n + m)
                    if b:
                        total += a * b
    return total


def big_C(ws: Workspace, lam, mu, n: int, p: int) -> int:
    """The n-th graded dimension of the reduced-reduced Ext pairing."""
    linked = _linked_elements(ws, lam, mu, n, p)
    return _big_C_of_elements(ws, *linked[:2], n) if linked else 0


def ext_dim_G_red_red(ws: Workspace, lam, mu, n: int, p: int) -> int:
    """Same sum as big_C, organized as a degree-split double sum of
    ``small_c`` factors over the dominant weights nu of the shared linkage
    class, each located once."""
    linked = _linked_elements(ws, lam, mu, n, p)
    if not linked:
        return 0
    g, (x, y, rep) = ws.group, linked
    # distinct z give distinct weights: C_p^- points have trivial stabilizers
    nus = [wt for _, wt in g.dominant_orbit(rep, p, max(g.length(x), g.length(y)))]
    zs = [g._locate_checked(nu, p).element for nu in nus]
    total = 0
    for m in range(n + 1):
        for z in zs:
            a = _c_of_elements(ws, z, x, m)
            if a:
                b = _c_of_elements(ws, z, y, n - m)
                if b:
                    total += a * b
    return total


class MultiplicityQuery(NamedTuple):
    variant: str
    lam: Weight
    mu: Weight
    n: int
    p: int

    def validated(self, ws: Workspace) -> "MultiplicityQuery":
        if self.variant not in VARIANTS:
            raise ConfigurationError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        _r.check_prime(self.p)
        _r._check_int(self.n, "n", nonnegative=True)
        lam = _r.check_dominant(ws.rs, self.lam, "multiplicity table")
        mu = _r.check_dominant(ws.rs, self.mu, "multiplicity table")
        ws.group._assert_p_regular(lam, self.p)
        ws.group._assert_p_regular(mu, self.p)
        return MultiplicityQuery(self.variant, lam, mu, self.n, self.p)


class MultiplicityTable(dict):
    """Constituent multiplicities of one Ext group: omega -> multiplicity,
    zero entries omitted."""

    as_dict = dict.copy  # a plain dict, not the table itself

    def get(self, omega, default=0) -> int:
        return dict.get(self, tuple(omega), default)


def _variant_parts(ws, query):
    """Per-variant plumbing of a validated red_red or red_nabla query:
    partner weight, shifted base, KL factor and the weights whose dual Weyl
    modules are tensored with nabla(tau).

    The KL factor of tau is read between the element x that locates the
    shifted weight base + p * tau and the partner's element y.  A Frobenius
    factor of the first slot enters dualized, as
    Hom_{G_1}(L(lambda_0) (x) L(lambda_1)^[1], M) = L(lambda_1)^{*[1]} (x)
    Hom_{G_1}(L(lambda_0), M), so both variants tensor with lambda_1*.
    """
    lam0, lam1 = _r._restricted_split(query.lam, query.p)
    mu0, mu1 = _r._restricted_split(query.mu, query.p)
    lam1_star, n = _r._star(ws.rs, lam1), query.n
    if query.variant == "red_red":
        kl = lambda x, y: _big_C_of_elements(ws, x, y, n)
        return mu0, lam0, kl, (lam1_star, mu1)
    kl = lambda x, y: _c_of_elements(ws, y, x, n)
    return query.mu, lam0, kl, (lam1_star,)


def multiplicity_table(ws: Workspace, query: MultiplicityQuery, omegas=None) -> MultiplicityTable:
    """Constituent multiplicities of one Frobenius-kernel Ext group.

    A delta_red query is answered as the red_nabla table of its dual pair,
    and a degree-0 query by the degree-0 law (see the module docstring).
    Otherwise the table walks the parity class of the partner's dot orbit
    that the parity law allows, once, locates only the partner and keeps
    the taus below the weight bound X and, with ``omegas`` given, below one
    of their tops (same docstring).  The entries are
    those omegas, or without them every constituent; zero entries are
    omitted.
    """
    query = query.validated(ws)
    if omegas is not None:
        omegas = {_r.check_weight(ws.rs, omega) for omega in omegas}
    return _multiplicity_table(ws, query, omegas)


def _multiplicity_table(ws: Workspace, query: MultiplicityQuery, omegas) -> MultiplicityTable:
    """``multiplicity_table`` of a validated query and a set of checked omegas, or None."""
    rs, g, p, n = ws.rs, ws.group, query.p, query.n
    if query.variant == "delta_red":
        dual = _r._star(rs, query.mu), _r._star(rs, query.lam)
        query = MultiplicityQuery("red_nabla", *dual, n, p)
    if not n:
        (lam0, lam1), (mu0, mu1) = (_r._restricted_split(w, p) for w in (query.lam, query.mu))
        entries = ch.tensor_nabla_multiplicities(rs, _r._star(rs, lam1), mu1) if lam0 == mu0 else {}
        return MultiplicityTable(
            (w, m) for w, m in entries.items() if omegas is None or w in omegas
        )
    partner, base, kl_factor, weights = _variant_parts(ws, query)
    reach = lambda w: sum(map(mul, w, rs.two_rho_check))  # <w, 2 rho^vee>
    # X of the module docstring, theta the highest root
    theta = rs.positive_roots[-1].fund_coords
    x = tuple(b + a + 2 * r + p * (n // 2) * t
              for b, a, r, t in zip(_r._star(rs, base), partner, rs.rho, theta))
    walk = reach(x) // p
    if omegas is not None:
        shift = _r._star(rs, tuple(map(sum, zip(*weights))))  # the sum of the e*
        # a negative omega is never a constituent
        tops = [tuple(map(add, omega, shift)) for omega in omegas if min(omega) >= 0]
        walk = min(walk, max(map(reach, tops), default=-1))
    max_len = g._dominant_length(base, p) + walk  # base is p-regular

    y, rep, ly = g._locate_checked(partner, p)  # the query is validated
    acc: dict[Weight, int] = {}
    for tau, z in g._orbit_congruent(rep, p, max_len, base, (ly + n) % 2).items():
        if _r._dominance_leq(rs, tuple(p * c for c in tau), x) and (
            omegas is None or any(_r._dominance_leq(rs, tau, top) for top in tops)
        ):
            k = kl_factor(z, y)
            if k:
                for omega, m in ch.multi_tensor_nabla_multiplicities(rs, *weights, tau).items():
                    if omegas is None or omega in omegas:
                        acc[omega] = acc.get(omega, 0) + k * m

    return MultiplicityTable((w, m) for w, m in acc.items() if m)


class IdentityCheckResult(NamedTuple):
    lhs: int
    rhs: int
    xi: Weight
    mu: Weight
    tau: Weight

    @property
    def ok(self) -> bool:
        return self.lhs == self.rhs


def finite_weyl_shift_decompose(ws: Workspace, mu, p: int) -> Weight:
    """Write mu = w . 0 + p*xi with w finite and xi dominant; returns xi.

    Raises DecompositionError when no (or no unique) such xi exists.  The
    box below holds one xi per coordinate once p > 2h - 2, as each interval
    has length (2h - 2)/p < 1, and at most 2^rank for h <= p <= 2h - 2,
    where a scan of the orbit W . rho would visit |W| points (51,840 on E6).
    """
    _r.check_prime(p)
    return _finite_weyl_shift_decompose(ws.rs, _r.check_weight(ws.rs, mu), p)


def _finite_weyl_shift_decompose(rs: RootSystem, mu: Weight, p: int) -> Weight:
    """``finite_weyl_shift_decompose`` of a checked weight at a checked prime."""
    # xi dominant with mu + rho - p*xi = w(rho), whose coordinates lie in
    # [1 - h, h - 1] (<rho, beta^vee> <= h - 1), so p*xi_i is in [mu_i + 2 - h, mu_i + h]
    h = rs.coxeter_number
    shifted = _r._vec_add(mu, rs.rho)
    boxes = [range(max(0, -((h - 2 - m) // p)), (m + h) // p + 1) for m in mu]
    found = [
        xi
        for xi in itertools.product(*boxes)
        if _r.dominant_conjugate(rs, [s - p * x for s, x in zip(shifted, xi)]) == rs.rho
    ]
    if not found:
        raise DecompositionError(
            f"mu={list(mu)} has no decomposition w.0 + {p}*xi with xi dominant"
        )
    if len(found) > 1:
        raise DecompositionError(
            f"mu={list(mu)} has multiple decompositions: xi in {sorted(found)}"
        )
    return found[0]


def weight_space_identity_check(ws: Workspace, mu, tau, p: int) -> IdentityCheckResult:
    """Two-path check on H^*(G_1, nabla(mu)): lhs sums the tau entries of the
    lambda = 0 red_nabla tables over all degrees, rhs is the xi-weight-space
    dimension of the Weyl module Delta(tau), where mu = w . 0 + p*xi.

    Refuses a mu or tau that is not dominant (PreconditionError) and a
    p-singular mu (SingularWeightError), as a table does; and raises
    DecompositionError when mu has no unique decomposition."""
    return _identity_checks(ws, mu, [tau], _r.check_prime(p))[0]


def _identity_checks(ws: Workspace, mu, taus, p: int) -> list[IdentityCheckResult]:
    """``weight_space_identity_check`` of mu against each tau in ``taus``, at
    a prime p that the caller checked: every step below calls an unchecked
    core, so p is checked once per check or box.

    mu is checked next, by the tables' own rules, in the order: its
    weight and dominance (``roots.check_dominant``), its p-regularity (a
    ``SingularWeightError`` naming mu), its decomposition; only then the
    taus, each by ``check_dominant``.  No weight is p-regular below the
    Coxeter number h, so a p-regular mu forces p >= h, and then 0 and
    every p*tau are p-regular:
    <p*tau + rho, beta^vee> = p<tau, beta^vee> + ht(beta^vee), with coroot
    heights in 1..h-1.  The left sides come from one red_nabla table per
    degree n whose omegas are the taus that occupy it: n <= top and n = top
    (mod 2), as tau's KL factor is the coefficient of t^(top - n) in a
    polynomial in t^2 = q, with top = l(p*tau) - l(mu) = l(0) - l(mu) +
    <tau, 2 rho^vee> by the length law."""
    rs, g = ws.rs, ws.group
    mu = _r.check_dominant(rs, mu, "identity check")
    g._assert_p_regular(mu, p)
    xi = _finite_weyl_shift_decompose(rs, mu, p)
    taus = [_r.check_dominant(rs, tau, "identity check") for tau in taus]
    rhs = [ch.dim_weight_space(rs, tau, xi) for tau in taus]
    zero = tuple([0] * rs.rank)
    lhs = dict.fromkeys(taus, 0)
    gap = g._dominant_length(zero, p) - g._dominant_length(mu, p)
    tops = {tau: gap + sum(map(mul, tau, rs.two_rho_check)) for tau in lhs}
    for n in sorted({n for top in tops.values() for n in range(top % 2, top + 1, 2)}):
        omegas = [tau for tau, top in tops.items() if top >= n and (top - n) % 2 == 0]
        # valid: mu was checked above, and zero is p-regular as p >= h
        query = MultiplicityQuery("red_nabla", zero, mu, n, p)
        table = _multiplicity_table(ws, query, set(omegas))
        for tau in omegas:
            lhs[tau] += table.get(tau)
    return [IdentityCheckResult(lhs[tau], r, xi, mu, tau) for tau, r in zip(taus, rhs)]


def _box_weights(rs, max_pairing):
    """Dominant weights with <w + rho, alpha_0^vee> < max_pairing, in lexicographic order."""
    cor = rs.highest_short_root.coroot
    room = max_pairing - sum(cor)  # <rho, alpha_0^vee> = h - 1
    boxes = [range((room - 1) // c + 1) for c in cor]
    return [w for w in itertools.product(*boxes) if sum(map(mul, cor, w)) < room]


def run_identity_box(ws: Workspace, p: int, max_pairing: int) -> dict:
    """Run the two-path identity over every decomposable p-regular mu in a box.

    For each mu the constituents tau are the dominant weights within two
    alcove layers above mu: <p*tau + rho, alpha_0^vee> <= <mu + rho, alpha_0^vee> + 2ph.
    Returns the counts of mus ("cases") and of checks ("tau_checks"), and the
    failing ``IdentityCheckResult``s ("failures").  A box that holds no
    decomposable p-regular mu raises ``ConfigurationError`` naming
    ``max_pairing``, so that a mistyped bound is not read as a passing check.
    """
    _r.check_prime(p)
    _r._check_int(max_pairing, "max_pairing")
    rs, h = ws.rs, ws.rs.coxeter_number
    cases = tau_checks = 0
    failures = []
    for mu in _box_weights(rs, max_pairing):
        depth = sum(map(mul, rs.highest_short_root.coroot, _r._vec_add(mu, rs.rho)))
        # <p*tau + rho, alpha_0^vee> = p<tau, alpha_0^vee> + h - 1
        taus = _box_weights(rs, (depth + 2 * p * h - h + 1) // p + h)
        try:  # mu is the only weight a check finds p-singular
            results = _identity_checks(ws, mu, taus, p)
        except (SingularWeightError, DecompositionError):
            continue
        cases += 1
        tau_checks += len(results)
        failures += [r for r in results if not r.ok]
    if not cases:
        raise ConfigurationError(
            f"max_pairing={max_pairing} leaves no decomposable p-regular mu in the box "
            f"<mu+rho, alpha_0^vee> < max_pairing at p={p}"
        )
    return {"cases": cases, "tau_checks": tau_checks, "failures": failures}
