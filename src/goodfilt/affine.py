"""The affine Weyl group W_p = W x pZR with dot action and alcove geometry.

A group element is a small ``int`` indexing arrays owned by its group: its
Coxeter length and its row ``(x s_0, ..., x s_r)`` of the
right-multiplication table, whose shorter entries are its right descents.
A row is filled on first use, creating the ids of neighbours not met
before, so a group holds only what a computation reaches.  Products,
reduced words, Bruhat order and lower ideals are walks in this table.
Every walk down the group strips one descent per element (``descent``):
Bruhat order and ``KLTable.kl`` take it, and canonical words and lower
ideals share one walk by it (``_strip_to``), each extending a value it
already holds.

Each id also keeps its matrix form, used only where weights are touched
(``dot``, ``locate``) and to recognise an element reached along two paths:
a p-independent pair (finite matrix w on fundamental coordinates,
translation nu in the root lattice ZR, fundamental coordinates).  At a
prime p the element acts on m = lambda + rho by ``m -> w(m) + p*nu``, i.e.
``x . lambda = w(lambda + rho) + p*nu - rho``.  p enters only through the
dot action and the weight <-> element dictionary, so lengths, reduced
words and Kazhdan-Lusztig data are reusable across primes.

Coxeter generators are the reflections in the walls of the antidominant
alcove C_p^- (the alcove whose shifted points m satisfy
``-p < <m, beta^vee> < 0`` for every positive coroot):

* generator i (1 <= i <= rank): the finite simple reflection s_i,
* generator 0: the affine reflection across ``<m, alpha_0^vee> = -p``,
  where alpha_0 is the highest short root (its coroot is the highest
  coroot).

Each wall is kept once, in ``_gens``, as f = <., gamma^vee> + k p with
f > 0 inside C_p^-; it is the one wall list that row fills, ``locate`` and
``in_antidominant_alcove`` (every f(m) > 0) read.  ``locate`` carries the
wall values f_i(m), not m: it reflects across the lowest-indexed wall with
f_i(m) < 0 until none is left, and the reflection moves each f_j by
-f_i(m) <gamma_i, gamma_j^vee>, an entry of the affine Cartan matrix.

With this choice the Coxeter length of x equals the number of affine
hyperplanes ``<m, beta^vee> = kp`` separating the alcove x(C_p^-) from
C_p^-, which is what makes lengths of dominant weights grow with their
distance from the antidominant chamber.  A new neighbour x s_i gets its
length once, when its id is created: l(x) + 1 exactly when C_p^- lies on
the same side of the wall x(H_i) as x(C_p^-), which one root pairing
decides.  For H_i = {<m, gamma_i^vee> + k_i p = 0} it reads w(gamma_i),
and that one product also gives the neighbour's form, with no matrix product:
x s_i = (w - w(gamma_i) (x) gamma_i^vee, nu - k_i w(gamma_i)).  All of it
but the translation depends only on the finite part w, so each finite part's
steps are computed once (``_steps_of``) and a row fill reads them.  The tests
check lengths against the root-counting formula

    l(w, nu) = sum over positive roots beta of |<nu, beta^vee> + [w^{-1}(beta) < 0]|

and the geometric separation count.

Each id is also flagged at creation when the alcove x(C_p^-) is dominant;
alcoves scale with p, so the flag does not depend on p.  For lambda^- in
C_p^-, x . lambda^- is dominant exactly when x is flagged, which is why
``dominant_orbit`` requires its representative in C_p^-.  The finite Weyl
group permutes the chambers, so a flagged x is the longest element of its
coset W_fin x: every finite generator is a left descent.  Hence x = w_0 u
with w_0 the longest finite element and u a minimal coset representative
(Deodhar's lemma: us is again minimal, or us = tu with t finite).  So a
longer neighbour xs of a flagged x is flagged, a shorter one is flagged or
equals t'x with t' finite, and every flagged id above w_0 has a shorter
flagged neighbour.  ``dominant_up_to_length`` is therefore the walk up
from w_0 by lengthening steps, which never fills the row of an unflagged
id, and every walk down strips from a flagged y a descent s with ys
flagged (``descent``), so between flagged ids ``bruhat_leq`` and
``KLTable.kl`` stay flagged.  Stripped down to w_0 and then inside the
finite Weyl group, a flagged id's canonical word is w_0's word followed by
a gallery of flagged ids; so a cache's words, saved or loaded, name only
flagged ids and finite elements.  That descent is fixed when y's row is
filled, and read as a list entry.

The kept levels of flagged ids are the group's one index of the dominant
part of an orbit: ``dominant_orbit`` and ``_orbit_congruent`` slice them as
``big_C`` and the mu-sum of ``klpoly`` do.  Since z = (w, nu) sends m to
w(m) + p*nu, the image z . lambda^- mod p depends only on the finite part w,
so ``_orbit_congruent`` decides once per finite part met whether its image
is congruent to a restricted base mod p, and maps each congruent z to the
dominant tau with z . lambda^- = base + p*tau.  It reads the levels of
one parity, the class on which a table's KL factor can be nonzero
(``extmult``).  A point of C_p^- has a trivial stabilizer, so z is the element ``locate``
finds for that weight.  Lengths of dominant weights follow the length law
(Jantzen, RAGS, II.6; ``dominant_length``): for a dominant p-regular
lambda = x . lambda^-, l(x) = sum over positive beta of
(floor(<lambda + rho, beta^vee> / p) + 1), since <m, beta^vee> runs from
(-p, 0) on C_p^- to <lambda + rho, beta^vee> > 0 across exactly the walls
kp with 0 <= k <= that floor.  So l(base + p*tau) = l(base) + <tau, 2 rho^vee>.

Concurrency: ids, rows and kept levels are created under one lock, and a
row or level is published by one assignment once the ids it holds exist.
Table hits and the idempotent memos (Bruhat order, lower ideals, locate)
take no lock, so a group is safe to share across threads.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from . import roots as _r
from .errors import (
    ConfigurationError,
    InternalInvariantError,
    PreconditionError,
    SingularWeightError,
)
from .roots import Matrix, RootSystem, Weight, check_dominant, check_prime, check_weight

__all__ = [
    "AlcoveLocation",
    "AffineWeylGroup",
    "get_group",
    "restricted_decompose",
]


class AlcoveLocation(NamedTuple):
    """Result of locating a p-regular weight: lambda = element . antidominant_rep."""

    element: int
    antidominant_rep: Weight
    length: int


def restricted_decompose(rs: RootSystem, weight, p: int) -> tuple[Weight, Weight]:
    """Split a dominant weight as lambda_0 + p*lambda_1 with lambda_0 restricted."""
    w = check_dominant(rs, weight, "restricted decomposition")
    return _r._restricted_split(w, check_prime(p))


class AffineWeylGroup:
    """Arithmetic, lengths, descents and Bruhat order for one (series, rank).

    Elements are the ints this group hands out (``identity``,
    ``generators``, ``from_word``, ...); an id means nothing to another group.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        a0 = rs.highest_short_root
        self._coroot: dict[Weight, tuple[int, ...]] = {
            tuple(e * c for c in b.fund_coords): tuple(e * c for c in b.coroot)
            for b in rs.positive_roots
            for e in (1, -1)
        }
        # per generator (index 0 = affine): (gamma, gamma^vee, k) for the wall
        # <m, gamma^vee> + k p = 0 of C_p^- it reflects in, positive inside
        walls = [(a0.fund_coords, 1)] + [(tuple(-c for c in v), 0) for v in rs.simple_columns]
        self._gens = tuple((gamma, self._coroot[gamma], k) for gamma, k in walls)
        # the affine Cartan matrix: row i holds <gamma_i, gamma_j^vee> over j, by
        # which a reflection in wall i moves every wall value (see locate)
        self._wall_cartan = [_r._mat_vec([c for _, c, _ in self._gens], g) for g, _ in walls]
        # finite part w -> per generator (w(gamma), its coroot, the coroot's
        # coordinate sum, the neighbour's finite part, k), see _steps_of
        self._steps: dict[Matrix, tuple] = {}
        self._lock = threading.Lock()
        self._form: list[tuple[Matrix, Weight]] = []  # id -> (finite_part, translation)
        self._index: dict[tuple[Matrix, Weight], int] = {}  # matrix form -> id
        self._rmul: list[tuple[int, ...] | None] = []  # id -> row, None until filled
        self._length: list[int] = []
        self._dominant: list[bool] = []  # x(C_p^-) in the dominant chamber
        self._descent: list[int | None] = []  # the stripping descent, set with the row
        self._dominant_levels: list[list[int]] = []  # flagged ids of length k
        self._leq: dict[tuple[int, int], bool] = {}
        self._ideal: dict[int, frozenset] = {}
        self._locate: dict[tuple[Weight, int], AlcoveLocation] = {}

    # -- the table ------------------------------------------------------------

    @property
    def identity(self) -> int:
        if not self._length:
            with self._lock:
                if not self._length:
                    n = self.rs.rank
                    self._new((_r._identity_matrix(n), (0,) * n), 0)
        return 0

    @property
    def generators(self) -> tuple[int, ...]:
        return self.row(self.identity)  # index 0 = affine generator

    def _new(self, form, length: int) -> int:
        """Append an id; the caller holds the lock."""
        x = len(self._form)
        self._form.append(form)
        self._rmul.append(None)
        self._descent.append(None)
        self._length.append(length)
        # -rho lies in C_p^- at p = h, so the alcove is dominant iff x(-rho) is
        h = self.rs.coxeter_number
        self._dominant.append(all(h * t > sum(row) for row, t in zip(*form)))
        self._index[form] = x
        return x

    def row(self, x: int) -> tuple[int, ...]:
        """The right neighbours (x s_0, ..., x s_r), filled on first use."""
        return self._rmul[x] or self._fill_row(x)  # a row is a non-empty tuple

    def _steps_of(self, mat: Matrix) -> tuple:
        """The generator steps of the finite part ``mat``, computed once.

        Step i holds w(gamma_i), its coroot c, the sum of c's coordinates,
        the finite part w - w(gamma_i) (x) gamma_i^vee of x s_i, and k_i:
        all that a row fill needs besides x's translation.
        """
        steps = []
        for gamma, r, k in self._gens:
            wg = _r._mat_vec(mat, gamma)
            c = self._coroot[wg]
            rows = zip(mat, wg)
            moved = tuple(tuple(a - g * b for a, b in zip(v, r)) if g else v for v, g in rows)
            steps.append((wg, c, sum(c), moved, k))
        steps = self._steps[mat] = tuple(steps)
        return steps

    def _fill_row(self, x: int) -> tuple[int, ...]:
        with self._lock:
            row = self._rmul[x]
            if row is not None:
                return row
            mat, tr = self._form[x]
            lx = self._length[x]
            h = self.rs.coxeter_number
            row, descents = [], []
            steps = self._steps.get(mat) or self._steps_of(mat)
            for i, (wg, c, c_sum, moved, k) in enumerate(steps):
                # l(x s_i) > l(x) iff C^- and x(C^-) lie on one side of x(H_i),
                # i.e. f(x^{-1}(c)) > 0 for f = <., gamma^vee> + k p and c in C^-.
                # Take c = -rho at p = h; <x^{-1} m, gamma^vee> = <m - p nu, (w gamma)^vee>.
                up = k * h - c_sum - h * sum(map(mul, c, tr)) > 0
                ly = lx + 1 if up else lx - 1
                # x s_i: m -> w(m) - <m, gamma^vee> w(gamma) + p (nu - k w(gamma))
                form = (moved, _r._vec_sub(tr, wg) if k else tr)
                y = self._index.get(form)
                if y is None:
                    y = self._new(form, ly)
                elif self._length[y] != ly:
                    raise InternalInvariantError(
                        f"neighbour {i} of an element of length {lx} has length {self._length[y]}"
                    )
                row.append(y)
                if not up:
                    descents.append(i)
            # the lowest s with xs flagged, else the lowest descent: a shorter
            # neighbour of an unflagged x is unflagged, and w_0 has none flagged
            flagged = self._dominant
            self._descent[x] = next(
                (s for s in descents if flagged[row[s]]), descents[0] if descents else None
            )
            row = self._rmul[x] = tuple(row)
            return row

    def _walk(self, x: int, word) -> int:
        word = tuple(word)
        for i in word:
            if type(i) is not int:  # nothing is rounded, and True is no letter
                raise ConfigurationError(f"word {word!r} has a letter that is not an int")
            if not 0 <= i <= self.rs.rank:
                raise ConfigurationError(
                    f"word {word!r} has letter {i} out of range 0..{self.rs.rank}"
                )
            x = self.row(x)[i]
        return x

    # -- group arithmetic ------------------------------------------------

    def multiply(self, a: int, b: int) -> int:
        return self._walk(a, self.canonical_word(b))

    def from_word(self, word) -> int:
        return self._walk(self.identity, word)

    # -- length, descents, canonical words --------------------------------

    def length(self, x: int) -> int:
        return self._length[x]

    def is_dominant(self, x: int) -> bool:
        """Whether x . lambda is dominant for lambda in C_p^- (any p)."""
        return self._dominant[x]

    def right_descents(self, x: int) -> tuple[int, ...]:
        """The s with l(xs) < l(x), read from x's row.  A walk down takes
        one of them, ``descent``."""
        lengths, lx = self._length, self._length[x]
        return tuple(s for s, y in enumerate(self.row(x)) if lengths[y] < lx)

    def descent(self, y: int) -> int:
        """The right descent that every walk down from y strips (y not the
        identity): Bruhat order, the KL recursion, canonical words and
        lower ideals.

        For a flagged y the lowest s with ys flagged, which exists unless
        y = w_0; otherwise the lowest right descent.  Fixed when y's row is
        filled.
        """
        self.row(y)
        return self._descent[y]

    def canonical_word(self, x: int) -> tuple[int, ...]:
        """Reduced word obtained by stripping ``descent`` down to the identity.

        Deterministic, so words are stable cache keys across runs and primes.
        A flagged x strips flagged ids down to w_0, then finite ones, so its
        word is w_0's word followed by a gallery of flagged ids: every longer
        prefix names a flagged id.  An unflagged x strips its lowest right
        descent at every step, as a shorter neighbour of it is unflagged.
        """
        return self.canonical_words((x,))[x]

    def canonical_words(self, ids) -> dict[int, tuple[int, ...]]:
        """``canonical_word`` of every id in ``ids``, in one walk.

        An id's word is the word of its stripped neighbour plus the stripped
        letter, so a neighbour shared by many ids is walked once.  The dict
        also holds the words of the neighbours met on the way.
        """
        words: dict[int, tuple[int, ...]] = {}
        for x in ids:
            x, chain = self._strip_to(x, words)
            word = words.setdefault(x, ())
            for z, i in chain:
                word = words[z] = word + (i,)
        return words

    def _strip_to(self, x: int, known) -> tuple[int, list[tuple[int, int]]]:
        """Strip ``descent`` from x until an id in ``known`` or the identity
        is reached: that id, and the (id, letter) steps taken, shortest id
        first, so each step extends the value of the one before.  From a
        flagged x the walk meets only flagged ids and the finite Weyl group,
        so it fills no other row."""
        chain = []
        while x not in known and self._length[x]:
            i = self.descent(x)
            chain.append((x, i))
            x = self._rmul[x][i]
        return x, chain[::-1]

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, x: int, y: int) -> bool:
        if x == y:
            return True
        lengths = self._length
        if lengths[x] >= lengths[y]:
            return False
        key = (x, y)
        cached = self._leq.get(key)
        if cached is None:
            flagged, rmul, strip = self._dominant, self._rmul, self._descent
            # for s with ys < y: x <= y iff xs <= ys when xs < x, else x <= ys.
            # If x and ys are flagged but xs < x is not, then xs = tx for a
            # finite t that also descends ys, and xs <= ys iff x <= ys.
            while 0 < lengths[x] < lengths[y]:
                row = rmul[y] or self._fill_row(y)
                s = strip[y]
                xs = (rmul[x] or self._fill_row(x))[s]
                y = row[s]
                if lengths[xs] < lengths[x] and (flagged[xs] or not (flagged[x] and flagged[y])):
                    x = xs
            cached = self._leq[key] = x == y or not lengths[x]
        return cached

    def lower_ideal(self, y: int) -> frozenset:
        """The set {z : z <= y} in Bruhat order (finite for every y): the
        ideal of ys, s = ``descent(y)``, and its image under s.  Any right
        descent gives the same set; this one shares ``canonical_word``'s walk."""
        y, chain = self._strip_to(y, self._ideal)
        ideal = self._ideal.setdefault(y, frozenset((y,)))
        for z, s in chain:
            ideal = self._ideal[z] = ideal | {self.row(w)[s] for w in ideal}
        return ideal

    # -- weights: dot action, regularity, location ------------------------

    def dot(self, x: int, weight, p: int) -> Weight:
        """x . weight at the prime p; any other p raises ConfigurationError."""
        return self._dot(x, check_weight(self.rs, weight), check_prime(p))

    def _dot(self, x: int, lam: Weight, p: int) -> Weight:
        """``dot`` of a checked weight at a checked prime."""
        mat, tr = self._form[x]
        shifted = _r._vec_add(lam, self.rs.rho)
        moved = _r._vec_add(_r._mat_vec(mat, shifted), tuple(p * c for c in tr))
        return _r._vec_sub(moved, self.rs.rho)

    def is_p_regular(self, weight, p: int) -> bool:
        """Whether no <weight + rho, beta^vee> is divisible by p; a p that is
        not prime raises ConfigurationError rather than answering False."""
        try:
            self.assert_p_regular(weight, p)
        except SingularWeightError:
            return False
        return True

    def assert_p_regular(self, weight, p: int) -> None:
        self._assert_p_regular(check_weight(self.rs, weight), check_prime(p))

    def _assert_p_regular(self, lam: Weight, p: int) -> None:
        """``assert_p_regular`` of a checked weight at a checked prime."""
        shifted = _r._vec_add(lam, self.rs.rho)
        for beta in self.rs.positive_roots:
            val = sum(map(mul, beta.coroot, shifted))
            if val % p == 0:
                raise SingularWeightError(lam, beta.coroot, val, p)

    def in_antidominant_alcove(self, weight, p: int) -> bool:
        """Whether weight lies in the open alcove C_p^-: every wall value is
        positive at m = weight + rho, i.e. <m, alpha_i^vee> < 0 for each
        simple coroot and <m, alpha_0^vee> > -p.  p is only compared
        against, so any p is taken."""
        return min(self._wall_values(check_weight(self.rs, weight), p)) > 0

    def _wall_values(self, lam: Weight, p: int) -> list[int]:
        """The values f_i(m) = <m, gamma_i^vee> + k_i p of the walls of
        ``_gens`` at m = lam + rho, positive inside C_p^-; as rho is all
        ones, <rho, gamma_i^vee> is the coordinate sum of gamma_i^vee."""
        return [sum(map(mul, lam, c)) + sum(c) + k * p for _, c, k in self._gens]

    def locate(self, weight, p: int) -> AlcoveLocation:
        """Write a p-regular weight as x . (antidominant representative).

        Walks the shifted weight into C_p^- by reflecting across violated
        walls of C_p^- (lowest wall index first; index 0 is the affine
        wall), and x from the identity along its row by each wall's generator.
        The walk carries the r + 1 wall values, not the weight: a reflection
        in wall i moves them by a multiple of row i of the affine Cartan
        matrix, and the representative is read back from the finite walls.
        Each crossing strips one separating hyperplane, so the steps count l(x).
        """
        return self._locate_checked(check_weight(self.rs, weight), check_prime(p))

    def _locate_checked(self, lam: Weight, p: int) -> AlcoveLocation:
        """``locate`` of a checked weight at a checked prime."""
        key = (lam, p)
        cached = self._locate.get(key)
        if cached is not None:
            return cached
        self._assert_p_regular(lam, p)
        f = self._wall_values(lam, p)
        element, steps, cartan = self.identity, 0, self._wall_cartan
        while True:
            # the lowest wall i negative at m; its reflection m -> m - f_i gamma_i
            # moves each f_j by -f_i <gamma_i, gamma_j^vee>
            for i, fi in enumerate(f):
                if fi < 0:
                    break
            else:
                break
            f = [fj - fi * a for fj, a in zip(f, cartan[i])]
            element, steps = self.row(element)[i], steps + 1
        if 0 in f:
            raise InternalInvariantError(f"alcove walk of {lam} at p={p} ended on a wall")
        # f_j = -<m, alpha_j^vee> = -m_j on the finite walls, and rho is all ones
        rep = tuple(-v - 1 for v in f[1:])
        if self._dot(element, rep, p) != lam:
            raise InternalInvariantError(f"alcove walk failed to invert for {lam}")
        length = self.length(element)
        if length != steps:
            raise InternalInvariantError(
                f"walk length {steps} disagrees with Coxeter length {length}"
                f" for {lam} at p={p}"
            )
        loc = AlcoveLocation(element=element, antidominant_rep=rep, length=length)
        self._locate[key] = loc
        return loc

    def dominant_length(self, weight, p: int) -> int:
        """l(x) for a dominant p-regular weight x . lambda^-, with no walk.

        Proof: for beta > 0, <m, beta^vee> lies in (-p, 0) on C_p^- and is
        c = <weight + rho, beta^vee> > 0 at the weight, p not dividing c, so
        the floor(c/p) + 1 walls <m, beta^vee> = kp with 0 <= k <= floor(c/p)
        separate the two alcoves, and l(x) counts separating walls.  Moving
        the weight by p*tau moves each floor by <tau, beta^vee>, so
        l(base + p*tau) = l(base) + <tau, 2 rho^vee>; as <alpha_i, rho^vee> = 1,
        tau <= top in dominance gives l(base + p*tau) <= l(base + p*top).
        """
        lam = check_dominant(self.rs, weight, "dominant_length")
        self._assert_p_regular(lam, check_prime(p))
        return self._dominant_length(lam, p)

    def _dominant_length(self, lam: Weight, p: int) -> int:
        """``dominant_length`` of a checked dominant p-regular weight."""
        m = _r._vec_add(lam, self.rs.rho)
        return sum(sum(map(mul, b.coroot, m)) // p + 1 for b in self.rs.positive_roots)

    def linked(self, a, b, p: int) -> bool:
        """Whether two p-regular weights lie in one dot orbit of the group."""
        return self.locate(a, p).antidominant_rep == self.locate(b, p).antidominant_rep

    # -- enumeration helpers ----------------------------------------------

    def elements_up_to_length(self, bound: int) -> list[int]:
        """All group elements of length <= bound, by length then matrix form.

        Level k + 1 is the set of neighbours one longer of level k, sorted by
        matrix form, so the order does not depend on which ids a computation
        created first.
        """
        level, out = [self.identity], []
        for k in range(1, _r._check_int(bound, "bound") + 1):
            out += level
            level = self._next_level(level, k)
        return out + level if bound >= 0 else []

    def _next_level(self, level: list[int], k: int) -> list[int]:
        """The neighbours of length k of the ids in ``level``, by matrix form."""
        lengths = self._length
        return sorted(
            {y for x in level for y in self.row(x) if lengths[y] == k},
            key=self._form.__getitem__,
        )

    def _longest_finite(self) -> int:
        """w_0, whose alcove is the dominant one at the origin."""
        x = self.identity
        while up := [y for y in self.row(x)[1:] if self._length[y] > self._length[x]]:
            x = up[0]
        return x

    def dominant_up_to_length(self, bound: int) -> list[int]:
        """The flagged ids of length <= bound, by length then matrix form."""
        bound = _r._check_int(bound, "bound")
        return [z for level in self._levels(bound)[: max(bound, 0) + 1] for z in level]

    def _levels(self, bound: int) -> list[list[int]]:
        """The kept levels of flagged ids, level k those of length k, built
        at least to length bound; the list itself, for reading in place.

        The walk up from w_0: a longer neighbour of a flagged id is flagged,
        and every flagged id above w_0 has a shorter flagged one, so it
        reaches every flagged id and fills no row of an unflagged one.  Each
        level is built as in ``elements_up_to_length`` and kept, so it is
        built once.
        """
        levels = self._dominant_levels
        if len(levels) > bound:
            return levels
        if not levels:
            first = self._longest_finite()  # may fill rows, so outside the lock
            with self._lock:
                if not levels:
                    levels += [[] for _ in range(self._length[first])] + [[first]]
        while len(levels) <= bound:
            k = len(levels)
            level = self._next_level(levels[k - 1], k)
            with self._lock:
                if len(levels) == k:
                    levels.append(level)
        return levels

    def dominant_orbit(self, rep: Weight, p: int, max_length: int):
        """Pairs (z, z . rep) with z . rep dominant and l(z) <= max_length,
        by length then matrix form.

        rep must lie in the open alcove C_p^- (as ``locate`` returns it).
        """
        rep = check_weight(self.rs, rep)
        if not self.in_antidominant_alcove(rep, check_prime(p)):
            raise PreconditionError(f"dominant_orbit needs rep={rep} in C_p^- at p={p!r}")
        _r._check_int(max_length, "max_length")
        return [(z, self._dot(z, rep, p)) for z in self.dominant_up_to_length(max_length)]

    def _orbit_congruent(self, rep: Weight, p: int, max_length: int, base: Weight, parity: int):
        """{tau: z} over the flagged z with l(z) <= max_length and
        l(z) = parity (mod 2) and z . rep = base + p*tau, by length then
        matrix form.

        Arguments are unchecked: rep in C_p^-, base restricted.  z . rep mod p
        depends only on the finite part w of z = (w, nu), so one product per
        finite part decides whether its ids are congruent to base, and then
        tau = (z . rep - p*nu - base)/p + nu.  Each z is the element
        ``locate`` finds for base + p*tau.
        """
        m, rho, forms = _r._vec_add(rep, self.rs.rho), self.rs.rho, self._form
        # offsets: finite part w -> (w(m) - rho - base)/p, or None where p does not divide it
        offsets, out = {}, {}
        for level in self._levels(max_length)[parity : max(max_length + 1, 0) : 2]:
            for z in level:
                w, nu = forms[z]
                offset = offsets.get(w, False)  # False: w not met yet in this call
                if offset is False:
                    v = [sum(map(mul, row, m)) - r - b for row, r, b in zip(w, rho, base)]
                    offset = None if any(c % p for c in v) else tuple(c // p for c in v)
                    offsets[w] = offset
                if offset is not None:
                    out[_r._vec_add(offset, nu)] = z
        return out

    def stats(self) -> dict[str, int]:
        """Sizes of the group's tables: ids, flagged ids, and the Bruhat,
        lower-ideal and locate memos."""
        return {
            "ids": len(self._length),
            "flagged_ids": sum(self._dominant),
            "bruhat_memo": len(self._leq),
            "ideal_memo": len(self._ideal),
            "locate_memo": len(self._locate),
        }


@lru_cache(maxsize=None, typed=True)  # typed: True and 2.0 never hit the entries of 1 and 2
def get_group(series: str, rank: int) -> AffineWeylGroup:
    """The one group of a type; a lower-case series is answered by the upper-case entry."""
    rs = _r.build_root_system(series, rank)
    return AffineWeylGroup(rs) if rs.series == series else get_group(rs.series, rank)
