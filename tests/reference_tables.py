"""The weight route of ``extmult.multiplicity_table``, the oracle its
tables are checked against: every KL factor through the public ``small_c``
and ``big_C`` at a shifted weight that they locate, every tau by public
dominance, and ``delta_red`` by its own twist rather than through the dual
pair."""

from goodfilt import characters as ch
from goodfilt import extmult as em
from goodfilt import roots as r
from goodfilt.affine import restricted_decompose


def friedlander_parshall_top(ws, query):
    """X = base* + partner + 2 rho + p*floor(n/2)*theta of the ``extmult`` module
    docstring, in raw-tau form, computed from the public root data."""
    rs, p = ws.rs, query.p
    (lam0, _), (mu0, _) = (restricted_decompose(rs, w, p) for w in (query.lam, query.mu))
    partner, base = {
        "red_red": (mu0, lam0), "delta_red": (query.lam, mu0), "red_nabla": (query.mu, lam0)
    }[query.variant]
    theta = max(rs.positive_roots, key=lambda b: b.height).fund_coords
    return tuple(
        b + a + 2 * h + p * (query.n // 2) * t
        for b, a, h, t in zip(r.star(rs, base), partner, rs.rho, theta)
    )


def reference_multiplicity_table(ws, query, omegas=None):
    """The weight route of ``multiplicity_table``: each KL factor goes
    through public ``small_c`` / ``big_C`` at the shifted weight
    base + p*twist(tau), which they locate.

    Full tables scan ``dominant_orbit`` two lengths past the reach of the
    weight bound X and keep the weights whose raw tau has p*tau <= X by
    public ``dominance_leq``; omega mode locates every shifted weight below
    omega + shift.
    """
    q = query.validated(ws)
    rs, g, n, p = ws.rs, ws.group, q.n, q.p
    (lam0, lam1), (mu0, mu1) = (restricted_decompose(rs, w, p) for w in (q.lam, q.mu))
    star = lambda w: r.star(rs, w)
    same = lambda w: w
    if q.variant == "red_red":
        partner, base, twist = mu0, lam0, same
        shift = tuple(a + b for a, b in zip(lam1, star(mu1)))
        kl = lambda wt: em.big_C(ws, wt, mu0, n, p)
        tensor = lambda tau: ch.multi_tensor_nabla_multiplicities(rs, star(lam1), mu1, tau)
    elif q.variant == "delta_red":
        partner, base, twist, shift = q.lam, mu0, star, star(mu1)
        kl = lambda wt: em.small_c(ws, q.lam, wt, n, p)
        tensor = lambda tau: ch.tensor_nabla_multiplicities(rs, tau, mu1)
    else:  # L(lam1)^[1] of the first slot enters dualized, as in red_red
        partner, base, twist, shift = q.mu, lam0, same, lam1
        kl = lambda wt: em.small_c(ws, q.mu, wt, n, p)
        tensor = lambda tau: ch.tensor_nabla_multiplicities(rs, star(lam1), tau)
    loc = g.locate(partner, p)
    shifted = {}  # tau -> base + p*twist(tau)
    if omegas is None:
        top = friedlander_parshall_top(ws, q)
        den = rs.inverse_cartan_den * p
        max_len = g.dominant_length(base, p) + 2 * sum(r._scaled_root_coords(rs, top)) // den + 2
        for _, wt in g.dominant_orbit(loc.antidominant_rep, p, max_len):
            diff = [w - b for w, b in zip(wt, base)]
            if all(d >= 0 and d % p == 0 for d in diff) and r.dominance_leq(rs, diff, top):
                shifted[twist(tuple(d // p for d in diff))] = wt
    else:
        for omega in omegas:
            if min(omega) >= 0:
                top = tuple(o + s for o, s in zip(omega, shift))
                for tau, _ in ch.dominant_below(rs, top):
                    wt = tuple(b + p * t for b, t in zip(base, twist(tau)))
                    if g.is_p_regular(wt, p) and g.linked(wt, partner, p):
                        shifted[tau] = wt
    acc = {}
    for tau, wt in shifted.items():
        k = kl(wt)
        if k:
            for omega, m in tensor(tau).items():
                acc[omega] = acc.get(omega, 0) + k * m
    if omegas is not None:
        acc = {w: m for w, m in acc.items() if w in omegas}
    return tuple(sorted((w, m) for w, m in acc.items() if m))
