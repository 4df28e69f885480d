"""Exact convex rational polyhedral cones via double description.

A cone is stored with both minimal generator and facet-normal lists, each in a
canonical form (primitive vectors, rays reduced modulo the lineality lattice,
lexicographically sorted), so structural equality is cone equality and
dualizing is literally swapping the two lists.

Splitting off the lineality costs two Smith forms.  The first gives the
kernel of the lineality rows, whose Hermite basis q is the quotient map by
the saturated lineality lattice (Hermite bases are unique).  The second, of
q, gives both that lattice, as the kernel of q, and the section that lifts
the reduced rays.  A cone's lineality lattice needs no Smith form at all: it
is spanned by the +- pairs of its canonical generators.

Double description (`dd_solve`; K. Fukuda and A. Prodon, "Double
description method revisited", LNCS 1120 (1996)) adds inequalities one at
a time to a pair (lin, rays): a basis of the lineality space of the cone
cut out so far, and one vector on each of its extreme rays modulo that
space.  Each ray keeps its incidences as one int, bit j set when the j-th
inequality vanishes there, and each step pairs every ray with the new
inequality a once.  When a cuts the lineality space, one direction b0 of
it is peeled off and every other vector is moved into a's hyperplane; the
moved rays keep their bits and gain a's, and b0 is tight at every earlier
inequality, since those vanish on the lineality space.  Otherwise the
rays on a's positive side stay, those on its hyperplane gain a's bit, and
each adjacent pair p, m with a.p > 0 > a.m gives the ray (a.p) m - (a.m) p,
tight exactly where both p and m are (both pairings with an earlier
inequality are nonnegative) and at a.  Two rays are adjacent iff no third
ray is tight wherever both are, the combinatorial test.  It asks only
that the rays lie one on each extreme ray modulo the lineality space and
that the masks are their incidences, so a step may start from any such
state (`_dd_add`): `dd_solve` starts from the whole space, and a cone's
canonical lists are one too, for the cone its facets cut out.  One vector
of each +- pair of its generators spans the lineality space, the other
generators lie one on each extreme ray modulo it, and the masks are their
incidences with the facets (`Cone._double_description`).

Faces are read off generator-facet incidences: a face shares the cone's
lineality lattice, so its canonical generators are the cone's generators on
which the facets through it vanish.  A cone keeps its face generator
tuples, which a fan reads to list its cones; it keeps no face dimensions,
since a fan reads those off its face lattice (`Fan._lattice`).

Whether cones A and B meet in a common face takes one step from A's
canonical lists with B's facets, and the meet M it describes is left raw.
The facets of A vanishing on all of M are the bits of A's facets common
to the masks of M's rays (the lineality space vanishes on every
inequality), and they cut out the carrier face of M in A, the smallest
face of A holding M; its generators are those of A on which they vanish.
M lies in that face F, so M is a face of A iff F lies in M, that is in B.
The bits of B's facets decide the same for B.  So the meet takes no
canonical form, no Smith form and no interner entry.

When one side is a ray R = cone(u), with u its one canonical generator,
the meet takes no step at all.  R is pointed and u primitive, and the
other cone C meets R in R when C contains u, else in the origin.  In the
first case M = R is a face of R, and it is a face of C exactly when the
carrier face F of u in C, the smallest face of C holding R, is R.  Then
F is pointed with the one extreme ray R, so its canonical generators
are (u,); conversely, generators (u,) make F = R.  In the second case the
origin is a face of R, and a face of C exactly when C is pointed.

A cone keeps the verdict (`meets_in_face`), and the other cone keeps it
too.  Each keys it by the other's ambient and canonical generators: a
value that names the cone without holding it, so the memo adds no
reference between cones.  The ambient belongs in the key, since the zero
cone has the generators () in every ambient.

Canonical cones are interned by value.  `Cone.from_generators` and
`Cone.from_inequalities` look their input up under the key (route, ambient,
set of primitive nonzero input vectors), route "g" or "i", and run double
description only on a miss.  The canonical form is a pure function of that
key (double description reads each input only through its primitive vector,
and the result is sorted), so a hit returns exactly what a fresh run would,
lazily filled slots included.  The routes stay apart: one vector set read as
generators and read as inequalities gives two mutually dual cones.  Values
are held weakly: a cone lives as long as some fan, table, memo or face list
holds it, so memory stays bounded without a size setting and work that
builds fresh objects starts cold.

A miss on no input, on one input or on d linearly independent inputs in
Z^d costs no double description, and on 2 <= k < d linearly independent
inputs it costs one.  When the k distinct primitive inputs are linearly
independent (no two are parallel or opposite, and none is a combination
of the others), the cone they generate is pointed (x and -x in it would
give a nonnegative combination of the inputs, not all coefficients zero,
summing to zero) and simplicial, its extreme rays are exactly the inputs
(none is a nonnegative combination of the others), and its canonical
list is the sorted primitive inputs, the key's own vector set.  On route
"g" that is the generator list, on route "i" the facet list (the dual of
{x : v.x >= 0} is the cone the v generate).  So only the other list is
left to find.

For k = d it has a closed form.  Let V be the matrix with rows the inputs
v_1..v_d, det V != 0.  The columns c_j of sign(det V) adj(V) satisfy
v_i.c_j = |det V| if i = j and 0 otherwise, since V adj(V) = det(V) I.
The cone C the v_i generate is full-dimensional and simplicial, so each of
its d facets contains all but one ray v_j, and its inner normal is the
line orthogonal to the other d - 1 (linearly independent) rays, pointing
to v_j's side: the ray of c_j.  So C's facets are the primitive c_j,
sorted, and by the dual reading the same list is the generator list of
the cone cut out by the v_i.  One fraction-free Gauss-Jordan elimination
of [V | I] (E. H. Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22 (1968), the
elimination of `IntMatrix.det` continued above the pivots) divides
exactly at each step, since every entry is a minor of [V | I], and ends
at [D I | D V^-1] with D = +-det V.  Its right block times sign(D) is
|det V| V^-1 = sign(det V) adj(V).  A zero pivot column tells dependent
inputs, which fall through to the general route.  The empty input needs
no elimination: its other list is the canonical list of the whole space,
the +- standard basis.  Neither case runs a double description or a
Smith form.

For k = 1 < d, with v the one primitive input, the other list is the
canonical list of the half-space H = {x : v.x >= 0}: the dual of the ray
on route "g", the cone itself on route "i".  H's lineality space is the
hyperplane orthogonal to v, and the integer functionals vanishing on it
are the integer multiples of v, since v is primitive.  So the Hermite
basis of that annihilator, the q that `_canonical_generators` takes from
any double description of H, is the one row e v, with e = +-1 making its
pivot positive.  One Smith form of q gives its kernel, the saturated
lineality lattice, whose Hermite basis gives the +- pairs, and a section
s with q.s = 1.  q maps H onto the half-line of the sign e, whose
primitive generator (e) lifts to e s.  So the other list is +- the
kernel basis and e s, sorted, with no double description and no
`kernel_lattice`.

Any other input takes the general route.  Its first run returns a basis
`lin` of {x : v.x = 0 for every input v}, the kernel of the input matrix,
so the inputs span a space of rank `ambient - len(lin)`, and the inputs
are independent when that rank equals k.  The second run would compute
the known list, so it is skipped.  Dependent inputs take both runs,
unless the cone generated by the first run's list is interned: its
facets are the second list.  On route "g" that cone is the dual, whose
facets are the canonical generators; on route "i" it is the cone itself.
"""
from __future__ import annotations

import weakref
from itertools import product

from .intlat import (
    IntMatrix,
    Sublattice,
    dot,
    kernel_lattice,
    matrix_rank,
    primitive,
    quotient_lattice_map,
    right_inverse_of_surjection,
    split_surjection,
    vneg,
    vscale,
    vsub,
)


class BoundExceededError(Exception):
    """Hilbert basis box certificate failed; carries the bound that suffices."""

    def __init__(self, needed):
        super().__init__("enumeration box too small; bound %d suffices" % needed)
        self.needed = needed


class SizeGuardError(ValueError):
    """Exponential enumeration refused before it starts: it would exceed its guard."""


HILBERT_BOX_LIMIT = 2 ** 20  # lattice points a Hilbert-basis box may hold


def dd_solve(ineqs, ambient):
    """Minimal generators of {x : a.x >= 0 for all a in ineqs}.

    Incremental double description with the combinatorial adjacency test,
    from the whole space: one `_dd_add` run.  Returns (lineality basis
    rows, extreme rays); rays are primitive and the two lists together
    generate the solution cone.
    """
    lin = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    lin, rays, _, _ = _dd_add(lin, [], [], 0, ineqs)
    return lin, rays


def _dd_add(lin, rays, tight, count, ineqs):
    """Add the inequalities ineqs to a double description (lin, rays) of the
    cone cut out by count earlier ones, where tight[k] masks the earlier
    inequalities vanishing at rays[k] (bit j for the j-th).  Returns the
    four for the cone cut out by all of them; zero inputs are skipped and
    take no bit.  The inputs must be a lineality basis and one vector on
    each extreme ray modulo the lineality space, which makes the adjacency
    test valid (see the module docstring)."""
    for raw in ineqs:
        a = primitive(raw)
        if not any(a):
            continue
        bit = 1 << count
        count += 1
        lin_pairing = [dot(a, b) for b in lin]
        if any(lin_pairing):
            # the constraint cuts the lineality space: peel one direction
            # off; every old ray becomes tight at a, and b0 is tight at
            # every earlier inequality and not at a
            i0 = next(i for i, v in enumerate(lin_pairing) if v != 0)
            b0 = lin[i0] if lin_pairing[i0] > 0 else vneg(lin[i0])
            ab0 = abs(lin_pairing[i0])
            lin = [
                b if ab == 0 else primitive(vsub(vscale(ab0, b), vscale(ab, b0)))
                for i, (b, ab) in enumerate(zip(lin, lin_pairing)) if i != i0
            ]
            kept = {}
            for r, t in zip(rays, tight):
                ar = dot(a, r)
                if ar:
                    r = primitive(vsub(vscale(ab0, r), vscale(ar, b0)))
                kept.setdefault(r, t | bit)
            kept[b0] = bit - 1
        else:
            paired = [(r, t, dot(a, r)) for r, t in zip(rays, tight)]
            plus = [ray for ray in paired if ray[2] > 0]
            minus = [ray for ray in paired if ray[2] < 0]
            if not minus:
                tight = [t if ar else t | bit for _, t, ar in paired]
                continue
            kept = {r: t for r, t, _ in plus}
            kept.update((r, t | bit) for r, t, ar in paired if not ar)
            for p, tp, ap in plus:
                for m, tm, am in minus:
                    t = tp & tm
                    # p and m hold t; they are adjacent iff no third ray does
                    holders = 0
                    for x in tight:
                        if t & x == t:
                            holders += 1
                            if holders > 2:
                                break
                    else:
                        w = primitive(vsub(vscale(ap, m), vscale(am, p)))
                        if any(w):
                            kept.setdefault(w, t | bit)
        rays, tight = list(kept), list(kept.values())
    return lin, rays, tight, count


def _canonical_generators(lin_rows, rays, ambient):
    """Canonical generator tuple: saturated lineality basis as +- pairs plus
    extreme rays reduced modulo the lineality lattice."""
    if not lin_rows:
        return tuple(sorted({primitive(r) for r in rays if any(r)}))
    # q, the Hermite basis of the annihilator of the lineality rows, is the
    # quotient map by their saturated lattice (see the module docstring)
    return _lifted(kernel_lattice(IntMatrix(lin_rows, cols=ambient)).basis, rays)


def _lifted(q, rays):
    """+- the Hermite basis of the kernel of the quotient map q, and
    s . primitive(q . r) for each ray r that q does not kill, sorted: s is a
    section of q, and both are read off one Smith form of q."""
    lat, s = split_surjection(q)
    gens = set()
    for b in lat.basis.entries:
        gens.add(b)
        gens.add(vneg(b))
    for r in rays:
        w = primitive(q.matvec(r))
        if any(w):
            gens.add(s.matvec(w))
    return tuple(sorted(gens))


def _ray_other(v, ambient):
    """The other canonical list of the cone whose own list is the one
    primitive vector v: `_lifted` at q = e v and the ray v, where e = +-1
    makes the pivot of q positive, so +- the Hermite basis of v's
    orthogonal lattice and the lift e s of q.v's sign (see the module
    docstring)."""
    sign = 1 if next(x for x in v if x) > 0 else -1
    return _lifted(IntMatrix._of((vscale(sign, v),), ambient), [v])


def _simplicial_other(own, ambient):
    """The other canonical list of the cone whose own list is own, in
    closed form, when own is empty, one vector or ambient linearly
    independent vectors; None otherwise.  The empty input's other list is
    the +- standard basis, and one vector's is `_ray_other`'s.  For a
    basis V (rows v_1..v_d) it is the primitive columns of sign(det V)
    adj(V), read off one fraction-free Gauss-Jordan elimination of [V | I]
    (see the module docstring)."""
    if not own:
        units = [tuple(int(i == j) for j in range(ambient)) for i in range(ambient)]
        return tuple(sorted(units + [vneg(u) for u in units]))
    if len(own) != ambient:
        return _ray_other(own[0], ambient) if len(own) == 1 else None
    n = ambient
    m = [list(v) + [int(i == j) for j in range(n)] for i, v in enumerate(own)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None  # dependent: det V = 0
        m[k], m[p] = m[p], m[k]
        pivot = m[k][k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev for x, y in zip(m[i], m[k])]
        prev = pivot
    sign = 1 if prev > 0 else -1
    return tuple(sorted(primitive([sign * m[i][n + j] for i in range(n)]) for j in range(n)))


_INTERNED = weakref.WeakValueDictionary()  # (route, ambient, vectors) -> Cone


def _interned(route, vectors, ambient):
    """The canonical cone generated by (route "g") or cut out by (route "i")
    the vectors, from the interner, in closed form, or from at most two
    double descriptions."""
    vectors = [tuple(int(x) for x in v) for v in vectors if any(v)]
    key = (route, ambient, frozenset(primitive(v) for v in vectors))
    cone = _INTERNED.get(key)
    if cone is None:
        # no input, one vector or a basis of Z^ambient: both lists in closed
        # form; otherwise the first run reads the vectors as inequalities and
        # yields the other list, and the second run reads that list back,
        # unless the inputs are linearly independent or the cone that list
        # generates is interned (see the module docstring)
        own = tuple(sorted(key[2]))
        other = _simplicial_other(own, ambient)
        if other is None:
            lin, rays = dd_solve(vectors, ambient)
            other = _canonical_generators(lin, rays, ambient)
            if len(own) != ambient - len(lin):
                known = _INTERNED.get(("g", ambient, frozenset(other)))
                own = known.facets if known is not None else _canonical_generators(
                    *dd_solve(other, ambient), ambient
                )
        cone = Cone(ambient, own, other) if route == "g" else Cone(ambient, other, own)
        _INTERNED[key] = cone
    return cone


class Cone:
    """Rational polyhedral cone with synchronized generator/facet lists."""

    __slots__ = (
        "ambient", "generators", "facets", "_faces", "_face_gens", "_lin", "_dd", "_meets",
        "__weakref__",
    )

    def __init__(self, ambient, generators, facets):
        # internal: inputs must already be canonical (use the classmethods)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "facets", facets)
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_face_gens", None)
        object.__setattr__(self, "_lin", None)
        object.__setattr__(self, "_dd", None)
        object.__setattr__(self, "_meets", {})  # (ambient, generators) -> verdict

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    @classmethod
    def from_generators(cls, vectors, ambient):
        return _interned("g", vectors, ambient)

    @classmethod
    def from_inequalities(cls, ineqs, ambient):
        return _interned("i", ineqs, ambient)

    @classmethod
    def zero(cls, ambient):
        return cls.from_generators([], ambient)

    @classmethod
    def full(cls, ambient):
        return cls.from_inequalities([], ambient)

    def __eq__(self, other):
        return (
            isinstance(other, Cone)
            and self.ambient == other.ambient
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient, self.generators))

    def __repr__(self):
        return "Cone(ambient=%d, generators=%r)" % (self.ambient, list(self.generators))

    def dual(self):
        """Swap the two canonical lists; an exact involution.  The result is
        the interned cone generated by the facets, so every dual of one value
        is one object with one set of lazy memos."""
        key = ("g", self.ambient, frozenset(self.facets))
        cone = _INTERNED.get(key)
        if cone is None:
            cone = _INTERNED[key] = Cone(self.ambient, self.facets, self.generators)
        return cone

    def lineality_lattice(self):
        """The saturated lattice of the lineality space, read off the
        generators: g and -g both occur exactly when g is a lineality basis
        vector of the canonical list."""
        if self._lin is None:
            gens = set(self.generators)
            lat = Sublattice.from_rows(
                self.ambient, [g for g in self.generators if vneg(g) in gens]
            )
            object.__setattr__(self, "_lin", lat)
        return self._lin

    @property
    def lineality_rank(self):
        return self.lineality_lattice().rank

    def dim(self):
        return matrix_rank(self.generators, self.ambient)

    def is_pointed(self):
        return self.lineality_rank == 0

    def is_simplicial(self):
        return len(self.generators) == self.dim()

    def contains(self, v):
        """Point membership; accepts integer or Fraction coordinates."""
        return all(dot(f, v) >= 0 for f in self.facets)

    def contains_cone(self, other):
        return all(self.contains(g) for g in other.generators)

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Cone.from_inequalities(self.facets + other.facets, self.ambient)

    def meets_in_face(self, other):
        """True iff the intersection M with other is a face of both cones.
        When one side is a ray cone(u), M is that ray or the origin, so the
        verdict is whether the other cone has the face cone(u), or is
        pointed.  Otherwise one `_dd_add` run adds other's facets to this
        cone's own lists, and M is a face of either cone exactly when its
        carrier face there lies in the other cone (see the module
        docstring).  The verdict is symmetric and is kept on both cones,
        each keyed by the other's ambient and generators, which name it
        but do not hold it."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        got = self._meets.get((other.ambient, other.generators))
        if got is None:
            if len(self.generators) == 1 or len(other.generators) == 1:
                ray, cone = (self, other) if len(self.generators) == 1 else (other, self)
                u = ray.generators[0]
                if cone.contains(u):
                    got = cone.carrier_generators([u]) == (u,)
                else:
                    got = cone.is_pointed()
            else:
                k = len(self.facets)
                _, _, tight, _ = _dd_add(*self._double_description(), k, other.facets)
                common = -1  # the inequalities vanishing on all of M
                for t in tight:
                    common &= t
                got = self._carrier_within(common, other) and other._carrier_within(
                    common >> k, self
                )
            self._meets[(other.ambient, other.generators)] = got
            other._meets[(self.ambient, self.generators)] = got
        return got

    def _double_description(self):
        """(lin, rays, tight), a double description of the cone cut out by
        its facets for `_dd_add`: one vector of each +- lineality pair of
        the canonical generators, the other generators, and per ray the
        mask of the facets vanishing there (bit j for facets[j]).  Computed
        once per cone; `_dd_add` changes none of the three."""
        if self._dd is None:
            gens = set(self.generators)
            lin = tuple(g for g in self.generators if vneg(g) in gens and g > vneg(g))
            rays = tuple(g for g in self.generators if vneg(g) not in gens)
            tight = tuple(
                sum(1 << j for j, phi in enumerate(self.facets) if not dot(phi, r))
                for r in rays
            )
            object.__setattr__(self, "_dd", (lin, rays, tight))
        return self._dd

    def _carrier_within(self, tight, other):
        """True iff other contains the face of this cone on which the facets
        of the mask tight vanish (bit j for facets[j])."""
        cut = [phi for j, phi in enumerate(self.facets) if tight >> j & 1]
        return all(
            other.contains(g) for g in self.generators if not any(dot(phi, g) for phi in cut)
        )

    def image(self, pi):
        """Image cone under an integer matrix Z^ambient -> Z^rows."""
        if pi.cols != self.ambient:
            raise ValueError("projection shape mismatch")
        return Cone.from_generators([pi.matvec(g) for g in self.generators], pi.rows)

    def relative_interior_point(self):
        """Sum of the canonical generators; the origin for the zero cone."""
        p = (0,) * self.ambient
        for g in self.generators:
            p = tuple(a + b for a, b in zip(p, g))
        return p

    def face_generators(self):
        """Generator tuples of all faces (self and the lineality face included):
        the generators cut by facet zero sets until no new set appears.
        Computed once per cone."""
        if self._face_gens is None:
            found = {self.generators: None}
            frontier = [self.generators]
            while frontier:
                nxt = []
                for gens in frontier:
                    for phi in self.facets:
                        cut = tuple(g for g in gens if dot(phi, g) == 0)
                        if cut not in found:
                            found[cut] = None
                            nxt.append(cut)
                frontier = nxt
            object.__setattr__(self, "_face_gens", tuple(found))
        return self._face_gens

    def faces(self):
        """All faces as cones, sorted by (dim, generators), so the cone itself
        comes last.  Only the proper faces are stored: an interned cone that
        held itself would outlive its last holder until a cyclic collection."""
        if self._faces is None:
            out = [Cone.from_generators(g, self.ambient)
                   for g in self.face_generators() if g != self.generators]
            out.sort(key=lambda c: (c.dim(), c.generators))
            object.__setattr__(self, "_faces", tuple(out))
        return self._faces + (self,)

    def carrier_generators(self, points):
        """Generators of the smallest face holding the given points of the
        cone: those on which every facet vanishing at all the points vanishes."""
        tight = [phi for phi in self.facets if all(dot(phi, p) == 0 for p in points)]
        return tuple(g for g in self.generators if all(dot(phi, g) == 0 for phi in tight))

    def is_face_of(self, other):
        """True iff other contains self and self is its own carrier face there."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return other.contains_cone(self) and (
            other.carrier_generators(self.generators) == self.generators
        )

    def contains_in_relative_interior(self, v):
        """True iff v lies strictly inside every facet not vanishing on the cone."""
        for phi in self.facets:
            val = dot(phi, v)
            if val < 0:
                return False
            if val == 0 and any(dot(phi, g) != 0 for g in self.generators):
                return False
        return True


def hilbert_basis(cone, bound=None):
    """Minimal generating set of the monoid cone ∩ Z^d, for pointed cones.

    Enumerates lattice points in the box [-need, need]^d, where need, a sum
    of the absolute coordinates of the extreme rays, certifies the box (every
    irreducible element is a subconvex combination of at most d extreme rays).
    An explicit bound below need raises BoundExceededError carrying need; a
    larger one changes nothing.  A certified box of more than
    HILBERT_BOX_LIMIT points raises SizeGuardError before any point is built.
    """
    if cone.lineality_rank:
        raise ValueError("Hilbert basis requires a pointed cone")
    d = cone.ambient
    if d == 0 or not cone.generators:
        return ()
    need = max(
        sum(abs(g[j]) for g in cone.generators) for j in range(d)
    )
    if bound is not None and need > bound:
        raise BoundExceededError(need)
    box = (2 * need + 1) ** d
    if box > HILBERT_BOX_LIMIT:
        raise SizeGuardError(f"Hilbert-basis box of {box} points exceeds {HILBERT_BOX_LIMIT}")
    weight = cone.dual().relative_interior_point()
    points = [
        p for p in product(range(-need, need + 1), repeat=d) if any(p) and cone.contains(p)
    ]
    points.sort(key=lambda p: (dot(weight, p), p))
    basis = []
    for p in points:
        if not any(cone.contains(vsub(p, h)) for h in basis):
            basis.append(p)
    return tuple(sorted(basis))


def monoid_generators(cone, bound=None):
    """Generators of cone ∩ Z^d for arbitrary cones: the saturated lineality
    basis as +- pairs plus a section-lifted Hilbert basis of the pointed part."""
    return _monoid_generators(cone, bound)[0]


def _monoid_generators(cone, bound=None):
    """(monoid_generators(cone, bound), the pointed image of a cone with
    lineality it took, None for a pointed cone).  A caller that keeps the
    image keeps it interned, so the next call builds no cone."""
    lat = cone.lineality_lattice()
    if lat.rank == 0:
        return hilbert_basis(cone, bound), None
    q = quotient_lattice_map(lat)
    s = right_inverse_of_surjection(q)
    img = cone.image(q)
    lifted = [s.matvec(h) for h in hilbert_basis(img, bound)]
    gens = []
    for b in lat.basis.entries:
        gens.append(tuple(b))
        gens.append(vneg(b))
    gens.extend(lifted)
    return tuple(sorted(gens)), img
