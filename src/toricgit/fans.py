"""Fans as toric varieties.

A fan is stored as primitive ray vectors plus maximal cones given by
ray-index sets.  Cones of the fan are addressed by the frozenset of ray
indices they contain, the zero cone by the empty frozenset.  Invariant
open subsets correspond to face-closed cone selections, closed invariant
sets to up-closed ones; both directions of the orbit-cone dictionary
(orbit of tau lies in the closure of the orbit of sigma iff sigma is a
face of tau) are surfaced through key inclusion.

Each fan numbers its cones in key_order (`Fan.numbering`), a value-only
numbering that equal fans share: a set of cones is the mask with bit i
for cone i.  `Fan.face_masks()` and `Fan.up_masks()`, built with the keys
in one pass (`Fan._lattice`), hold each cone's faces and the cones above
it.  A simplicial cone's face lattice is the Boolean lattice of its rays
(every subset of linearly independent rays spans a face), so the maximal
cones of a simplicial fan give their faces without a cone being built;
only a non-simplicial maximal cone is built to read its faces off its
generator-facet incidences.  A SubfanSelection is its `mask`: equality,
hashing, `len` and `in` read it, and its frozenset of `keys` is built on
the first read, so the many selections that enumeration lists and nobody
prints never build one.
Face closure, enumeration and the quotient engine read masks; the oracles
enumerate bare ideal masks (`_open_masks`) and build a selection only for
a mask they keep.
"""

from dataclasses import dataclass
from itertools import combinations

from .cones import Cone, SizeGuardError
from .intlat import dot, matrix_rank, primitive

ConeKey = frozenset


def key_order(key):
    """Sort key for cone keys: smaller cones first, then by ray indices."""
    return (len(key), sorted(key))


def bits(mask):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(masks):
    got = 0
    for m in masks:
        got |= m
    return got


@dataclass(frozen=True)
class FanValidation:
    valid: bool
    problems: tuple
    witness: tuple | None


class Fan:
    """Finite fan in Z^rank; empty max-cone list encodes the bare torus."""

    __slots__ = (
        "rank", "rays", "max_cones", "_cones", "_keys", "_numbering", "_faces", "_ups",
    )

    def __init__(self, rank, rays, max_cones):
        rank = int(rank)
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if any(len(r) != rank for r in rays):
            raise ValueError("ray length differs from lattice rank")
        if any(not any(r) for r in rays):
            raise ValueError("zero vector listed as a ray")
        if any(primitive(r) != r for r in rays):
            raise ValueError("rays must be primitive")
        if len(set(rays)) != len(rays):
            raise ValueError("duplicate rays")
        cones = {frozenset(int(i) for i in c) for c in max_cones}
        cones.discard(frozenset())
        for c in cones:
            if any(i < 0 or i >= len(rays) for i in c):
                raise ValueError("ray index out of range")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", tuple(sorted(cones, key=sorted)))
        object.__setattr__(self, "_cones", {})
        object.__setattr__(self, "_keys", None)
        object.__setattr__(self, "_numbering", None)
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_ups", None)

    def __setattr__(self, name, value):
        raise AttributeError("Fan is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.rank == other.rank
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return hash((self.rank, self.rays, self.max_cones))

    def __repr__(self):
        return f"Fan(rank={self.rank}, rays={len(self.rays)}, max_cones={len(self.max_cones)})"

    def cone(self, key):
        key = frozenset(key)
        got = self._cones.get(key)
        if got is None:
            got = Cone.from_generators([self.rays[i] for i in sorted(key)], self.rank)
            self._cones[key] = got
        return got

    def _interior_rays(self, key):
        """Rays of cone `key` that span no face of it: none in a fan.  A ray
        spans a face exactly when the cone is pointed and the ray is one of
        its canonical generators; a cone that is not pointed has no ray
        faces."""
        c = self.cone(key)
        return [i for i in key if not (c.is_pointed() and self.rays[i] in c.generators)]

    def _lattice(self):
        """Build the cone keys, their numbering, the face and up masks and
        the cone_keys() order in one pass over key_order.

        The keys are the maximal cones' faces.  A maximal cone whose rays
        are linearly independent (one rank decides it) is simplicial: its
        face lattice is the Boolean lattice of its rays, so its faces are
        the subsets of its key and no cone is built.  Any other maximal
        cone's faces are read off generator-facet incidences; an interior
        ray raises ValueError, as its cone's key would be no face key.  On a
        fan (see validate_fan) cone j is a face of cone i exactly when key j
        lies in key i.  Face lattices of pointed cones are graded by
        dimension (G. M. Ziegler, Lectures on Polytopes, 2.2), so a cone's
        dimension, 0 for the zero cone, is one more than its proper faces'
        largest, and no face's rank is computed."""
        found = {frozenset(): None}
        for top in self.max_cones:
            if matrix_rank([self.rays[i] for i in top], self.rank) == len(top):
                for size in range(1, len(top) + 1):
                    for face in combinations(top, size):
                        found[frozenset(face)] = None
                continue
            interior = self._interior_rays(top)
            if interior:
                raise ValueError(f"ray {interior[0]} is interior to cone {sorted(top)}")
            for gens in self.cone(top).face_generators():
                found[frozenset(i for i in top if self.rays[i] in gens)] = None
        keys = tuple(sorted(found, key=key_order))
        bit = {k: i for i, k in enumerate(keys)}
        faces, ups, dims = [], [1 << i for i in range(len(keys))], []
        for i, key in enumerate(keys):
            below, dim = 1 << i, 0
            for j in range(i):
                if keys[j] <= key:
                    below |= 1 << j
                    ups[j] |= 1 << i
                    if dims[j] >= dim:
                        dim = dims[j] + 1
            faces.append(below)
            dims.append(dim)
        listing = tuple(sorted(keys, key=lambda k: (dims[bit[k]], sorted(k))))
        object.__setattr__(self, "_numbering", (keys, bit))
        object.__setattr__(self, "_faces", faces)
        object.__setattr__(self, "_ups", ups)
        object.__setattr__(self, "_keys", listing)

    def cone_keys(self):
        """All cones of the fan as ray-index keys, sorted by (dim, indices)."""
        if self._keys is None:
            self._lattice()
        return self._keys

    def numbering(self):
        """(keys, bit): the cones in key_order and each key's bit in a mask."""
        if self._numbering is None:
            self._lattice()
        return self._numbering

    def face_masks(self):
        """The face masks of all cones by index: the fan's own list, which
        readers must not change."""
        if self._faces is None:
            self._lattice()
        return self._faces

    def up_masks(self):
        """The up-set masks of all cones by index, the transpose of the face
        masks: bit j of the i-th is set when cone i is a face of cone j.
        The fan's own list, which readers must not change."""
        if self._ups is None:
            self._lattice()
        return self._ups

    def selection(self, keys):
        return SubfanSelection(self, keys)

    def full_selection(self):
        return SubfanSelection._of_mask(self, (1 << len(self.numbering()[0])) - 1)

    def empty_selection(self):
        return SubfanSelection._of_mask(self, 0)


def validate_fan(fan):
    """Check fan invariants; reports violations instead of raising."""
    problems = []
    witness = None
    cones = [fan.cone(k) for k in fan.max_cones]
    for key, c in zip(fan.max_cones, cones):
        if not c.is_pointed():
            problems.append(f"cone {sorted(key)} is not strongly convex")
        for i in fan._interior_rays(key):
            problems.append(f"ray {i} is interior to cone {sorted(key)}")
    used = set().union(*fan.max_cones) if fan.max_cones else set()
    for i in range(len(fan.rays)):
        if i not in used:
            problems.append(f"ray {i} occurs in no maximal cone")
    for (ka, a), (kb, b) in combinations(zip(fan.max_cones, cones), 2):
        if a.contains_cone(b) or b.contains_cone(a):
            problems.append(f"maximal cone contains another: {sorted(ka)}, {sorted(kb)}")
            witness = witness or (ka, kb)
            continue
        if not a.meets_in_face(b):
            problems.append(
                f"cones {sorted(ka)} and {sorted(kb)} intersect in a non-face"
            )
            witness = witness or (ka, kb)
    return FanValidation(not problems, tuple(problems), witness)


class SubfanSelection:
    """Face-closed set of fan cones (a torus-invariant open subset), held as
    its mask over `Fan.numbering()`.  Equality, hashing, `len` and `in` read
    the mask.  The frozenset of cone keys, `keys`, is the one the
    constructor validated, or else is built from the mask on its first
    read and kept."""

    __slots__ = ("fan", "mask", "_keys")

    def __init__(self, fan, keys):
        keys = frozenset(frozenset(k) for k in keys)
        _, bit = fan.numbering()
        try:
            mask = sum(1 << bit[k] for k in keys)
        except KeyError as e:
            raise ValueError(f"{sorted(e.args[0])} is not a cone of the fan") from None
        for k in keys:
            if fan.face_masks()[bit[k]] & ~mask:
                f = next(f for f in fan.cone_keys() if f <= k and f not in keys)
                raise ValueError(
                    f"selection not face-closed: {sorted(k)} without {sorted(f)}"
                )
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_keys", keys)

    @classmethod
    def _of_mask(cls, fan, mask):
        """The selection of a mask known to be face-closed, unchecked."""
        sel = object.__new__(cls)
        object.__setattr__(sel, "fan", fan)
        object.__setattr__(sel, "mask", mask)
        object.__setattr__(sel, "_keys", None)
        return sel

    def __setattr__(self, name, value):
        raise AttributeError("SubfanSelection is immutable")

    @property
    def keys(self):
        """The selected cones as a frozenset of keys."""
        if self._keys is None:
            numbered, _ = self.fan.numbering()
            object.__setattr__(self, "_keys", frozenset(numbered[i] for i in bits(self.mask)))
        return self._keys

    def __eq__(self, other):
        # the numbering is a bijection that equal fans share, so equal
        # masks on equal fans are equal key sets
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and (self.fan is other.fan or self.fan == other.fan)

    def __hash__(self):
        return hash((self.fan, self.mask))

    def __contains__(self, key):
        i = self.fan.numbering()[1].get(frozenset(key))
        return i is not None and self.mask >> i & 1 == 1

    def __len__(self):
        return self.mask.bit_count()

    def _same_fan(self, other):
        """Bit i names the same cone in both masks only on one fan."""
        if self.fan is not other.fan and self.fan != other.fan:
            raise ValueError("selections live on different fans")

    def __le__(self, other):
        self._same_fan(other)
        return not self.mask & ~other.mask

    def __lt__(self, other):
        return self <= other and self.mask != other.mask

    def __repr__(self):
        return f"SubfanSelection({sorted(sorted(k) for k in self.keys)})"

    def union(self, other):
        self._same_fan(other)
        return SubfanSelection._of_mask(self.fan, self.mask | other.mask)

    def intersection(self, other):
        self._same_fan(other)
        return SubfanSelection._of_mask(self.fan, self.mask & other.mask)


def is_complete(fan):
    """Support equals the whole space: pure, ridge-paired, ridge-connected."""
    if fan.rank == 0:
        return True
    if not fan.max_cones:
        return False
    tops = list(fan.max_cones)
    if any(fan.cone(t).dim() != fan.rank for t in tops):
        return False
    # the ridges of a full-dimensional cone are its facets, each cut out by
    # one facet normal
    ridge_owners = {}
    for t in tops:
        for phi in fan.cone(t).facets:
            k = frozenset(i for i in t if dot(phi, fan.rays[i]) == 0)
            ridge_owners.setdefault(k, []).append(t)
    if not ridge_owners or any(len(v) != 2 for v in ridge_owners.values()):
        return False
    seen = {tops[0]}
    frontier = [tops[0]]
    while frontier:
        t = frontier.pop()
        for owners in ridge_owners.values():
            if t in owners:
                for o in owners:
                    if o not in seen:
                        seen.add(o)
                        frontier.append(o)
    return len(seen) == len(tops)


def is_simplicial(fan):
    return all(fan.cone(t).is_simplicial() for t in fan.max_cones)


def enumerate_open_subsets(fan, limit=2 ** 20):
    """All face-closed selections, i.e. order ideals of the cone poset."""
    return [SubfanSelection._of_mask(fan, ideal) for ideal in _open_masks(fan, limit)]


def _open_masks(fan, limit, within=-1):
    """Masks of the order ideals inside the face-closed mask `within` (all
    of them by default), in the order of enumerate_open_subsets; more than
    limit of them raise SizeGuardError.  The cones outside `within` are
    skipped, which drops exactly the ideals not inside it, since every
    face of a cone of `within` is in `within`."""
    _, bit = fan.numbering()
    ideals = [0]
    for k in fan.cone_keys():
        i = bit[k]
        if not within >> i & 1:
            continue
        below = fan.face_masks()[i] ^ 1 << i
        ideals += [ideal | 1 << i for ideal in ideals if ideal & below == below]
        if len(ideals) > limit:
            raise SizeGuardError(f"more than {limit} open subsets")
    return ideals


def limit_of_generic_point(fan, v):
    """Key of the cone holding v in its relative interior, None if outside:
    the carrier face of v in the first maximal cone holding v."""
    v = tuple(v)
    if not any(v):
        return frozenset()
    for top in fan.max_cones:
        if fan.cone(top).contains(v):
            gens = fan.cone(top).carrier_generators([v])
            return frozenset(i for i in top if fan.rays[i] in gens)
    return None


class FanAutomorphism:
    """Unimodular lattice map permuting the rays and the cone set."""

    __slots__ = ("fan", "matrix", "ray_perm", "_cone_perm")

    def __init__(self, fan, matrix):
        if matrix.rows != fan.rank or matrix.cols != fan.rank:
            raise ValueError("matrix shape differs from lattice rank")
        if not matrix.is_unimodular():
            raise ValueError("matrix is not unimodular")
        images = [tuple(matrix.matvec(r)) for r in fan.rays]
        index = {r: i for i, r in enumerate(fan.rays)}
        if any(img not in index for img in images):
            raise ValueError("matrix does not permute the rays")
        perm = tuple(index[img] for img in images)
        mapped = {frozenset(perm[i] for i in t) for t in fan.max_cones}
        if mapped != set(fan.max_cones):
            raise ValueError("matrix does not preserve the cone set")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "ray_perm", perm)
        object.__setattr__(self, "_cone_perm", None)

    def __setattr__(self, name, value):
        raise AttributeError("FanAutomorphism is immutable")

    def __repr__(self):
        return f"FanAutomorphism({self.matrix.entries})"

    def apply_key(self, key):
        return frozenset(self.ray_perm[i] for i in key)

    def apply_mask(self, mask):
        """Image of a mask over the fan's numbering: bit i goes to the
        index of apply_key(keys[i]), read from the cone permutation that
        the first call builds."""
        if self._cone_perm is None:
            keys, bit = self.fan.numbering()
            object.__setattr__(self, "_cone_perm", tuple(bit[self.apply_key(k)] for k in keys))
        perm = self._cone_perm
        return sum(1 << perm[i] for i in bits(mask))

    def compose(self, other):
        """self after other."""
        return FanAutomorphism(self.fan, self.matrix @ other.matrix)
