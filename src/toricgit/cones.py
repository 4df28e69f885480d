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

Faces are read off generator-facet incidences: a face shares the cone's
lineality lattice, so its canonical generators are the cone's generators on
which the facets through it vanish.  A cone keeps its face generator
tuples, which a fan reads to list its cones; it keeps no face dimensions,
since a fan reads those off its face lattice (`Fan._lattice`).

A cone also keeps whether it meets another cone in a common face
(`meets_in_face`), and the other cone keeps the same verdict.  Each keys it
by the other's ambient and canonical generators: a value that names the
cone without holding it, so the memo adds no reference between cones.  The
ambient belongs in the key, since the zero cone has the generators () in
every ambient.

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

A miss on linearly independent inputs costs one double description.  The
first run returns a basis `lin` of {x : v.x = 0 for every input v}, the
kernel of the input matrix, so the inputs span a space of rank
`ambient - len(lin)`.  When that rank equals the number k of distinct
primitive inputs, the k inputs are linearly independent: no two are
parallel or opposite, and none is a combination of the others.  Then the
cone they generate is pointed (x and -x in it would give a nonnegative
combination of the inputs, not all coefficients zero, summing to zero)
and simplicial, its extreme rays are exactly the inputs (none is a
nonnegative combination of the others), and its canonical list is the
sorted primitive inputs, the key's own vector set.  The second run would compute that very list:
on route "g" it is the generator list, on route "i" the facet list (the
dual of {x : v.x >= 0} is the cone the v generate).  Dependent inputs
take both runs, unless the cone generated by the first run's list is
interned: its facets are the second list.  On route "g" that cone is the
dual, whose facets are the canonical generators; on route "i" it is the
cone itself.
"""
from __future__ import annotations

import weakref

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

    Incremental double description with the combinatorial adjacency test.
    Returns (lineality basis rows, extreme rays); rays are primitive and the
    two lists together generate the solution cone.
    """
    lin = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    rays = []
    processed = []
    for raw in ineqs:
        a = primitive(raw)
        if not any(a):
            continue
        lin_pairing = [dot(a, b) for b in lin]
        if any(lin_pairing):
            # the constraint cuts the lineality space: peel one direction off
            i0 = next(i for i, v in enumerate(lin_pairing) if v != 0)
            b0 = lin[i0] if lin_pairing[i0] > 0 else vneg(lin[i0])
            ab0 = abs(lin_pairing[i0])
            new_lin = []
            for i, (b, ab) in enumerate(zip(lin, lin_pairing)):
                if i == i0:
                    continue
                new_lin.append(b if ab == 0 else primitive(vsub(vscale(ab0, b), vscale(ab, b0))))
            new_rays = []
            for r in rays:
                ar = dot(a, r)
                new_rays.append(r if ar == 0 else primitive(vsub(vscale(ab0, r), vscale(ar, b0))))
            new_rays.append(b0)
            lin = new_lin
            rays = list(dict.fromkeys(new_rays))
        else:
            plus = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            minus = [r for r in rays if dot(a, r) < 0]
            if minus:
                tight = {
                    r: frozenset(j for j, aj in enumerate(processed) if dot(aj, r) == 0)
                    for r in rays
                }
                combos = []
                for p in plus:
                    for m in minus:
                        t = tight[p] & tight[m]
                        if any(r is not p and r is not m and t <= tight[r] for r in rays):
                            continue  # not adjacent
                        w = primitive(vsub(vscale(dot(a, p), m), vscale(dot(a, m), p)))
                        if any(w):
                            combos.append(w)
                rays = list(dict.fromkeys(plus + zero + combos))
        processed.append(a)
    return lin, rays


def _canonical_generators(lin_rows, rays, ambient):
    """Canonical generator tuple: saturated lineality basis as +- pairs plus
    extreme rays reduced modulo the lineality lattice."""
    if not lin_rows:
        return tuple(sorted({primitive(r) for r in rays if any(r)}))
    # q, the Hermite basis of the annihilator of the lineality rows, is the
    # quotient map by their saturated lattice (see the module docstring)
    q = kernel_lattice(IntMatrix(lin_rows, cols=ambient)).basis
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


_INTERNED = weakref.WeakValueDictionary()  # (route, ambient, vectors) -> Cone


def _interned(route, vectors, ambient):
    """The canonical cone generated by (route "g") or cut out by (route "i")
    the vectors, from the interner or from at most two double descriptions."""
    vectors = [tuple(int(x) for x in v) for v in vectors if any(v)]
    key = (route, ambient, frozenset(primitive(v) for v in vectors))
    cone = _INTERNED.get(key)
    if cone is None:
        # the first run reads the vectors as inequalities and yields the
        # other list; the second run reads that list back, unless the
        # inputs are linearly independent or the cone that list generates
        # is interned (see the module docstring)
        lin, rays = dd_solve(vectors, ambient)
        other = _canonical_generators(lin, rays, ambient)
        if len(key[2]) == ambient - len(lin):
            own = tuple(sorted(key[2]))
        elif (known := _INTERNED.get(("g", ambient, frozenset(other)))) is not None:
            own = known.facets
        else:
            own = _canonical_generators(*dd_solve(other, ambient), ambient)
        cone = Cone(ambient, own, other) if route == "g" else Cone(ambient, other, own)
        _INTERNED[key] = cone
    return cone


class Cone:
    """Rational polyhedral cone with synchronized generator/facet lists."""

    __slots__ = (
        "ambient", "generators", "facets", "_faces", "_face_gens", "_lin", "_meets",
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

    def meet_generators(self, other):
        """Canonical generators of the intersection with other, from one
        double description of the stacked facets: `intersect(other)
        .generators` without the second run that builds the facet list."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return _canonical_generators(
            *dd_solve(self.facets + other.facets, self.ambient), self.ambient
        )

    def meets_in_face(self, other):
        """True iff the intersection with other is a face of both cones.
        The meet lies in both, so it is a face of one exactly when it is
        its own carrier face there (see is_face_of).  The verdict is
        symmetric and is kept on both cones, each keyed by the other's
        ambient and generators, which name it but do not hold it."""
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        got = self._meets.get((other.ambient, other.generators))
        if got is None:
            meet = self.meet_generators(other)
            got = all(c.carrier_generators(meet) == meet for c in (self, other))
            self._meets[(other.ambient, other.generators)] = got
            other._meets[(self.ambient, self.generators)] = got
        return got

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
    points = []
    stack = [()]
    for _ in range(d):
        stack = [p + (x,) for p in stack for x in range(-need, need + 1)]
    for p in stack:
        if any(p) and cone.contains(p):
            points.append(p)
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
