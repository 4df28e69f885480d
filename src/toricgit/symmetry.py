"""W-sets under fan symmetries and the associated conclusion checkers.

The acting group is generated by a subtorus of the big torus together
with a finite group of fan automorphisms normalizing it, the closure of
its generator matrices (`SymmetryGroup`).  The W-set of an open
selection is the intersection of its symmetry translates.  The checkers
report, honestly and with caveats where the finite part makes
the group disconnected: existence of a good quotient of the W-set,
torus-saturation inside the input, the induced finite action on the
quotient fan, a sweep over all torus-maximal subsets of a complete
simplicial fan, and the fan-level identity relating W-sets before and
after removing a closed invariant piece.

Sets of source cones are masks over `Fan.numbering`, as in the engine:
a W-set is the AND of the translates (`FanAutomorphism.apply_mask`), and
the first differing cone is the lowest bit, which is key_order.  The
checkers never act on a target fan: every quotient they ask about has an
invariant source, and there the finite action on the quotient is read
off the source cones through the orbit map.

(a) Saturation.  `GroupActionData` checks that each symmetry γ preserves
the cocharacter lattice L, so γ permutes the images of the cones of an
invariant selection and their lineality spaces.  The common lineality
space of the selection is the unique largest of those, so γ fixes it,
and γ descends to the target lattice: proj_full∘γ = γ̄∘proj_full for a
unimodular γ̄ permuting the chart images, an automorphism of the
quotient fan.  So the orbit image of a translate is the translate of
the orbit image, o(γ·t) = γ̄·o(t).  The composite fibre of
a cone t (the cones whose orbit image lies in the symmetry orbit of
o(t)) is then the union of the subtorus fibres of the translates γ·t,
and for an invariant mask M those translates lie in M.  The composite
saturation of an invariant M is therefore the subtorus saturation
`_saturation(q.fibres, M)`.  Every mask the checkers saturate is
invariant: the corollary's invariant good subsets, and eq1's removed
piece, a meet of translates.

(b) Orbit classes.  A T-maximal U is not empty, since the empty
selection has the host {()}, so U and each of its translates hold the
zero cone, and so does W(U).  Every cone of the quotient fan of W is a
face of a chart image, which is the orbit image of a face of that chart
(`quotients._quotient`).  By (a) the orbit of o(t) under the induced
action is {o(γ·t)}, so the orbit classes are the sets
{q.orbit_map[γ·t] : γ} over the cones t of W.

(c) Hosts.  Follow `host_of` from an invariant good v to a T-maximal
U ⊇ v; each host properly contains the last, so the chain ends.  Then
v = γ·v ⊆ γ·U for every γ, so v ⊆ W(U): every invariant good subset
sits inside some W-set.
"""

from dataclasses import dataclass

from .fans import (
    FanAutomorphism,
    SubfanSelection,
    bits,
    is_complete,
    is_simplicial,
)
from .intlat import IntMatrix
from .quotients import (
    Obstruction,
    QuotientFan,
    _saturation,
    enumerate_good_subsets,
    good_quotient,
    host_of,
    is_saturated,
    max_saturated_inside,
    t_maximal_subsets,
)


def _sorted_keys(keys):
    return tuple(sorted((tuple(sorted(k)) for k in keys)))


class SymmetryGroup:
    """Finite group of fan automorphisms: the closure of generator matrices.

    Breadth-first from the identity, composing each new element with the
    generators only.  That reaches every product of generators, and in a
    finite group each inverse is one: g has finite order k, so g^-1 is
    g^(k-1).  So the set reached holds the identity, its elements are
    distinct, and it is closed under composition, since a product of two
    products of generators is one: it is a group by construction.  Each
    generator and each product is built, and so checked, as a fan
    automorphism, one product per element and generator.  A closure with
    more than `limit` elements is refused.
    """

    __slots__ = ("fan", "elements")

    def __init__(self, fan, matrices, limit=4096):
        gens = [
            FanAutomorphism(fan, IntMatrix(tuple(tuple(r) for r in m), cols=fan.rank))
            for m in matrices
        ]
        identity = FanAutomorphism(fan, IntMatrix.identity(fan.rank))
        elements = {identity.matrix: identity}
        frontier = [identity]
        while frontier:
            fresh = []
            for a in frontier:
                for g in gens:
                    c = a.compose(g)
                    if c.matrix not in elements:
                        elements[c.matrix] = c
                        fresh.append(c)
                        if len(elements) > limit:
                            raise ValueError("symmetry group exceeds the size limit")
            frontier = fresh
        object.__setattr__(self, "fan", fan)
        object.__setattr__(
            self, "elements", tuple(sorted(elements.values(), key=lambda e: e.matrix.entries))
        )

    def __setattr__(self, name, value):
        raise AttributeError("SymmetryGroup is immutable")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def is_trivial(self):
        return len(self.elements) == 1

    @classmethod
    def trivial(cls, fan):
        return cls(fan, [])


@dataclass(frozen=True)
class GroupActionData:
    """Subtorus action plus a compatible finite symmetry group."""

    act: object
    sym: SymmetryGroup

    def __post_init__(self):
        if self.act.fan != self.sym.fan:
            raise ValueError("subtorus action and symmetries live on different fans")
        for gamma in self.sym:
            for b in self.act.cochar.basis.entries:
                if not self.act.cochar.contains(gamma.matrix.matvec(b)):
                    raise ValueError(
                        "symmetry does not preserve the subtorus cocharacters"
                    )


def _translates_meet(mask, sym):
    """The cones lying in every symmetry translate of the mask."""
    meet = mask
    for gamma in sym:
        meet &= gamma.apply_mask(mask)
    return meet


def w_set(selection, data):
    """Intersection of all symmetry translates of the selection (each is
    face-closed, so the intersection is)."""
    if selection.fan != data.sym.fan:
        raise ValueError("selection lives on a different fan")
    meet = _translates_meet(selection.mask, data.sym)
    return SubfanSelection._of_mask(selection.fan, meet)


def is_invariant(data, mask):
    """Does every symmetry of the group map the mask onto itself?"""
    return all(gamma.apply_mask(mask) == mask for gamma in data.sym)


def _orbit_classes(q, sym):
    """The orbits of the induced action on the cones of q's quotient fan,
    read off q's nonempty invariant source by (b) of the module docstring."""
    return tuple(sorted({
        _sorted_keys({q.orbit_map[g.apply_key(t)] for g in sym})
        for t in q.source.keys
    }))


_DISCONNECTED_CAVEAT = (
    "the finite symmetry part makes the acting group disconnected, so the "
    "theorem's connectedness hypothesis is not met; verdicts are checks, "
    "not guaranteed conclusions"
)


@dataclass(frozen=True)
class TheoremReport:
    refused: bool
    diagnosis: str = ""
    w_keys: tuple | None = None
    quotient_exists: bool = False
    quotient_detail: str = ""
    saturated_in_input: bool | None = None
    orbit_classes: tuple | None = None
    caveat: str = ""

    @property
    def open_in_source(self):
        """Is W open in the selection?  Always when W is built: unless refused."""
        return not self.refused

    def conclusions_hold(self):
        return (
            not self.refused and self.quotient_exists and bool(self.saturated_in_input)
        )


def verify_theorem_conclusions(selection, data):
    """Check the quotient and saturation conclusions on W = w_set(selection).

    The input must be torus-maximal for the subtorus action, that is good
    and without a host (`host_of`); anything else is refused with a
    diagnosis.  The report also carries the induced finite action on the
    quotient fan as an orbit partition, read off W's cones by (b) of the
    module docstring, and a caveat when the symmetry part is nontrivial.
    """
    fan = selection.fan
    act = data.act
    if fan != act.fan:
        raise ValueError("selection lives on a different fan")
    q = good_quotient(selection, act)
    larger = None if isinstance(q, Obstruction) else host_of(selection, act)
    if isinstance(q, Obstruction) or larger is not None:
        if larger is None:
            diagnosis = f"selection admits no good quotient: {q.detail}"
        else:
            diagnosis = (
                "selection is properly saturated inside the larger good subset "
                f"{sorted(sorted(k) for k in larger.keys)}"
            )
        return TheoremReport(
            refused=True,
            diagnosis=diagnosis,
            caveat="" if data.sym.is_trivial() else _DISCONNECTED_CAVEAT,
        )
    w = w_set(selection, data)
    q = good_quotient(w, act)
    exists = isinstance(q, QuotientFan)
    detail = "good quotient exists" if exists else f"obstructed: {q.detail}"
    saturated = is_saturated(w, selection, act)
    return TheoremReport(
        refused=False,
        w_keys=_sorted_keys(w.keys),
        quotient_exists=exists,
        quotient_detail=detail,
        saturated_in_input=saturated,
        orbit_classes=_orbit_classes(q, data.sym) if exists else None,
        caveat="" if data.sym.is_trivial() else _DISCONNECTED_CAVEAT,
    )


@dataclass(frozen=True)
class CorollaryReport:
    maximal_reports: tuple  # (sorted U keys, TheoremReport) pairs
    invariant_reports: tuple  # (sorted V keys, sorted U keys, saturated)
    all_pass: bool


def verify_corollary(fan, data, limit=2 ** 20):
    """Sweep of both corollary statements over a complete simplicial fan.

    (i) every torus-maximal subset gets the theorem verdicts on its
    W-set; (ii) every symmetry-invariant good subset must be saturated
    in the first W-set that holds it, one exists by (c) of the module
    docstring, and for an invariant subset that saturation is the
    subtorus one by (a).
    """
    act = data.act
    if fan != act.fan or fan != data.sym.fan:
        raise ValueError("group data lives on a different fan")
    if not is_complete(fan):
        raise ValueError("fan is not complete")
    if not is_simplicial(fan):
        raise ValueError("fan is not simplicial")
    maximal = t_maximal_subsets(fan, act, limit=limit)
    maximal_reports = tuple(
        (_sorted_keys(u.keys), verify_theorem_conclusions(u, data))
        for u in maximal
    )
    w_sets = [w_set(u, data) for u in maximal]
    invariant_reports = []
    for v in enumerate_good_subsets(fan, act, limit):
        if not is_invariant(data, v.mask):
            continue
        k = next(k for k, w in enumerate(w_sets) if v <= w)
        q = good_quotient(w_sets[k], act)
        saturated = isinstance(q, QuotientFan) and (
            _saturation(q.fibres, v.mask) == v.mask
        )
        invariant_reports.append(
            (_sorted_keys(v.keys), _sorted_keys(maximal[k].keys), saturated)
        )
    all_pass = all(r.conclusions_hold() for _, r in maximal_reports) and all(
        saturated for _, _, saturated in invariant_reports
    )
    return CorollaryReport(
        maximal_reports=maximal_reports,
        invariant_reports=tuple(invariant_reports),
        all_pass=all_pass,
    )


@dataclass(frozen=True)
class Eq1Report:
    hypothesis_ok: bool
    diagnosis: str = ""
    u_keys: tuple | None = None
    left: tuple | None = None
    right: tuple | None = None
    equal: bool | None = None
    witness: tuple | None = None

    def holds(self):
        return bool(self.hypothesis_ok and self.equal)


def eq1_crosscheck(xprime, x, data):
    """Fan-level identity: the W-set of the largest saturated subset
    inside x equals the W-set of xprime minus the composite-fiber
    saturation of the W-set of the removed closed piece.

    Once the hypotheses hold the identity cannot fail, under any finite
    group.  Write sat for the saturation in xprime.  By (a) of the module
    docstring sat is equivariant, γ·sat(A) = sat(γ·A), and it is the
    composite saturation on invariant masks.  xprime and x are invariant,
    so the removed piece xprime ∖ x is, and so are sat(xprime ∖ x) and
    u = xprime ∖ sat(xprime ∖ x).  An invariant mask is its own W-set,
    so the left side is u, and the right side is
    xprime ∖ sat(xprime ∖ x) = u as well.
    """
    act = data.act
    if xprime.fan != act.fan or x.fan != act.fan:
        raise ValueError("selection lives on a different fan")
    if not x <= xprime:
        return Eq1Report(False, "inner selection is not contained in the outer one")
    q = good_quotient(xprime, act)
    if isinstance(q, Obstruction):
        return Eq1Report(False, f"outer selection admits no good quotient: {q.detail}")
    if not is_invariant(data, xprime.mask) or not is_invariant(data, x.mask):
        return Eq1Report(False, "selections are not symmetry-invariant")
    u = max_saturated_inside(xprime, x, act)
    left = w_set(u, data).mask
    w_removed = _translates_meet(xprime.mask & ~x.mask, data.sym)
    right = w_set(xprime, data).mask & ~_saturation(q.fibres, w_removed)
    difference = left ^ right
    keys, _ = xprime.fan.numbering()
    first = next(bits(difference), None)
    return Eq1Report(
        hypothesis_ok=True,
        u_keys=_sorted_keys(u.keys),
        left=_sorted_keys(keys[i] for i in bits(left)),
        right=_sorted_keys(keys[i] for i in bits(right)),
        equal=not difference,
        witness=None if first is None else tuple(sorted(keys[first])),
    )
