"""Definition-level recomputation of quotient verdicts.

The fast engine decides good-quotient existence in closed form: the
inclusion-maximal eligible charts are forced, so one pass settles the
question.  Everything in this module instead recomputes answers straight
from the definitions, sharing as little reasoning with the engine as
possible: cone images go through the literal double-dual route, chart
families are found by exhaustive search over the eligible charts, orbit
identifications come from carrier faces of interior points, and affine
chart rings are compared as monoids via Hilbert bases.  Randomized sweeps
then cross-check the engine against these recomputations; nothing here
may shortcut through the code paths it is meant to audit.  The oracles do
share the interner of canonical cones (see `cones`), the fan's cone
numbering (`Fan.numbering`, cone i is bit i of a mask) and the memo rule
(`quotients._kept`): all are representation, not verdicts.

Each geometric fact is computed once per action and projection, by the
definition-level route: the image of a cone (`_image`); the mask of the
fan cones whose images lie in the image of cone k (`_contents`, each pair
decided by `contains_cone`); whether two images meet in a common face;
the face of chart k's image whose relative interior holds the image of
cone t's interior point (`_carrier`); and, per chart, the ring check of
its invariant monoid against its image.  Everything per selection
is then set algebra on masks over the numbering: a chart's fiber is the
selection mask AND its contents mask, coverage is one OR, the orbit
labels of a good selection are classes of cones, one mask per label, and
saturation asks whether a mask is a union of those classes.

The oracles keep their facts by the library's one memo rule (see the
`quotients` docstring): a helper that remembers its results is wrapped in
`quotients._kept`, keyed by every argument the value depends on (the
projection itself, never a stand-in for it), in tables of its own that
the engine never reads.  A memo value keeps the cones its helper built,
so they live as long as the action: the interner holds cones weakly, and
a cone no memo held would die at once and cost a fresh double description
each time it came up again.  So the inequality cone behind an image
(`_image_dual`) and the cone of functionals vanishing on the cocharacters
(`_perp_cone`) have helpers of their own; `_meet_is_face` keeps the meet
of two images beside its verdict; and the ring check keeps, beside its
verdict, the cones of its monoid comparison, the chart's invariant cone
(`_invariant_monoid`) and the pointed images that
`cones._monoid_generators` takes of cones with lineality.
"""

from itertools import combinations

from .cones import Cone, _monoid_generators
from .fans import SubfanSelection, _open_masks, _union, bits, key_order
from .intlat import (
    Sublattice,
    dot,
    kernel_lattice,
    quotient_lattice_map,
    vneg,
    vsub,
)
from .quotients import _kept


@_kept
def _image_dual(act, i, proj):
    """The cone cut out by the images of fan cone i's generators under proj:
    the dual of their image."""
    keys, _ = act.fan.numbering()
    rows = [proj.matvec(g) for g in act.fan.cone(keys[i]).generators]
    return Cone.from_inequalities(rows, proj.rows)


@_kept
def _image(act, i, proj):
    """Image of fan cone i under the projection proj, via the double dual."""
    return _image_dual(act, i, proj).dual()


@_kept
def _contents(act, k, proj):
    """Mask of the fan cones whose images under proj lie in the image of
    cone k."""
    outer = _image(act, k, proj)
    keys, _ = act.fan.numbering()
    return sum(
        1 << t for t in range(len(keys)) if outer.contains_cone(_image(act, t, proj))
    )


@_kept
def _meet_is_face(act, a, b, proj):
    """Do the images of two cones under proj meet in a common face?  The
    verdict and the meet."""
    image_a, image_b = _image(act, a, proj), _image(act, b, proj)
    meet = image_a.intersect(image_b)
    return meet.is_face_of(image_a) and meet.is_face_of(image_b), meet


@_kept
def _split_projection(act, lin):
    """The action's projection followed by the quotient map by lin."""
    return quotient_lattice_map(lin) @ act.proj


@_kept
def _pair_compatible(act, a, b):
    """Do the two images share a lineality space and meet in a common face
    once it is split off?"""
    lin = _image(act, a, act.proj).lineality_lattice()
    if lin.basis != _image(act, b, act.proj).lineality_lattice().basis:
        return False
    return _meet_is_face(act, a, b, _split_projection(act, lin))[0]


@_kept
def _carrier(act, t, k, proj):
    """The face of cone k's image under proj whose relative interior holds
    the image of cone t's relative-interior point; None outside the image."""
    keys, _ = act.fan.numbering()
    pt = proj.matvec(act.fan.cone(keys[t]).relative_interior_point())
    return next(
        (f for f in _image(act, k, proj).faces() if f.contains_in_relative_interior(pt)),
        None,
    )


def _carriers(act, charts, mask, proj):
    """Carrier face of each cone of mask, by index, among the faces of the
    charts' images under proj; None where it is not unique.

    The relative interiors of a cone's faces partition the cone, so the
    image point of t lies in the relative interior of at most one face of
    each chart image, `_carrier`'s.  Faces are interned cones, equal
    exactly when they are the same face, so the faces of all chart images
    holding the point in their relative interiors are exactly the distinct
    per-chart carriers, and the carrier is unique exactly when one remains.
    """
    out = {}
    for t in bits(mask):
        found = {_carrier(act, t, k, proj) for k in charts} - {None}
        out[t] = found.pop() if len(found) == 1 else None
    return out


def chart_family(selection, act):
    """A family of chart cones witnessing a good quotient, or None.

    A valid family consists of selected cones whose image-preimages inside
    the selection are exactly their own faces, whose images pairwise share
    one lineality space and meet in common faces after splitting it, and
    whose image-preimages jointly exhaust the selection.  Every chart of
    every valid family satisfies the first condition individually, so the
    search may restrict to those candidates.  When they are not pairwise
    compatible, a branch-and-bound search over them (`_smallest_family`)
    returns the smallest valid family, the least one of that size.
    """
    if act.fan != selection.fan:
        raise ValueError("action and selection live on different fans")
    family = _chart_family(act, selection.mask)
    if family is None:
        return None
    keys, _ = act.fan.numbering()
    return tuple(keys[k] for k in family)


@_kept
def _chart_family(act, mask):
    """The chart family of a selection mask, as ascending cone indices."""
    fibers = {}
    for k in bits(mask):
        fiber = mask & _contents(act, k, act.proj)
        if fiber == act.fan.face_masks()[k]:
            fibers[k] = fiber
    cands = tuple(fibers)
    if _union(fibers.values()) != mask:
        return None
    if all(_pair_compatible(act, a, b) for a, b in combinations(cands, 2)):
        return cands
    return _smallest_family(act, mask, fibers)


def _smallest_family(act, mask, fibers):
    """The smallest pairwise compatible set of candidate charts whose fibers
    cover mask, the lexicographically least sorted tuple among those of
    that size (the first one `combinations` reaches size by size); None if
    there is none.

    Branch and bound on the lowest uncovered cone c: a node holds a
    compatible set S of candidates and a mask `allowed` of the candidates
    it may still add, each compatible with all of S.  Its children, in
    ascending order, add one allowed candidate k whose fiber contains c,
    and child j may not use the candidates that children 1..j-1 added (as
    Knuth's Algorithm X branches on one column, D. E. Knuth, "Dancing
    Links", arXiv cs/0011047; fibers may overlap, so the exclusion is
    explicit).  Take a valid family F that contains S and whose other
    members are all allowed.  Some member of F covers c, and it is not in
    S, since S does not cover c.  The first child that adds a member k of
    F keeps F: the earlier children added candidates outside F, and every
    member of F is compatible with k, so F's other members stay allowed.
    Every later child excludes k, so F is not below it.  From the root,
    where every candidate is allowed, this reaches a cover S inside F
    exactly once, and if F has the smallest size, S = F, since S is a
    valid family too.  A node is cut when S already has as many members
    as the best family found, so it could only lead to a larger family,
    or when the fibers of its allowed candidates do not cover what S
    leaves, so no family lies below it.  So every valid family of the
    smallest size is reached, once, and the least of them is kept.  Each
    node's children go on the stack in reverse, so nodes are visited in
    depth-first order."""
    partners = {
        k: _union(
            1 << j for j in fibers if j != k and _pair_compatible(act, min(j, k), max(j, k))
        )
        for k in fibers
    }
    best = None
    stack = [(0, _union(1 << k for k in fibers), 0)]
    while stack:
        chosen, allowed, covered = stack.pop()
        if covered == mask:
            family = tuple(bits(chosen))
            if best is None or (len(family), family) < (len(best), best):
                best = family
            continue
        if best is not None and chosen.bit_count() >= len(best):
            continue
        if (covered | _union(fibers[k] for k in bits(allowed))) != mask:
            continue
        rest = mask & ~covered
        lowest = rest & -rest
        children = []
        for k in bits(allowed):
            if fibers[k] & lowest:
                children.append(
                    (chosen | 1 << k, allowed & partners[k], covered | fibers[k])
                )
                allowed &= ~(1 << k)
        stack += reversed(children)
    return best


def oracle_good_quotient(selection, act):
    """Does the selection admit a good quotient, by exhaustive family search."""
    return chart_family(selection, act) is not None


def oracle_orbit_labels(selection, act):
    """Orbit identification cones, one per selected key, from carrier faces.

    Two cones receive the same label exactly when their orbit families are
    identified in the quotient.  Labels are cones in the unsplit target, so
    they are comparable across different inner selections of one quotient.
    """
    keys, _ = act.fan.numbering()
    return {
        keys[t]: label
        for label, members in _label_classes(selection, act).items()
        for t in bits(members)
    }


def _label_classes(selection, act):
    """The orbit-label classes of a good selection: label -> mask of the
    selected cones carrying it."""
    if chart_family(selection, act) is None:
        raise ValueError("selection admits no good quotient")
    return _orbit_labels(act, selection.mask)


@_kept
def _orbit_labels(act, mask):
    """Label -> mask of its cones, for a mask with a chart family."""
    labels = _carriers(act, _chart_family(act, mask), mask, act.proj)
    classes = {}
    for t, label in labels.items():
        if label is None:
            raise RuntimeError("carrier face of an orbit cone is not unique")
        classes[label] = classes.get(label, 0) | 1 << t
    return classes


def _is_union_of(classes, mask):
    """Does every class meeting mask lie inside it?"""
    return all(not c & mask or not c & ~mask for c in classes.values())


def oracle_saturated(inner, outer, act):
    """Is inner a union of full orbit-label classes of outer?"""
    if not inner <= outer:
        raise ValueError("inner selection must lie inside the outer one")
    return _is_union_of(_label_classes(outer, act), inner.mask)


def brute_t_maximal(fan, act, limit=2 ** 20):
    """Subsets with good quotient, maximal against saturated inclusion,
    found by filtering every face-closed subset; sorted by the ascending
    index lists of their cones, which is key order.

    A good u is dropped when some other good v contains it (`not u & ~v`)
    and u is a union of v's orbit-label classes.  The goods containing u
    come from a superset index: bit j of holders[c] is set when the j-th
    good holds cone c, so the AND of holders over u's cones has bit j
    exactly when u & ~goods[j] is empty.  So each u meets only its
    supersets, not every good, and the filter keeps the same goods.
    """
    if act.fan != fan:
        raise ValueError("action and selection live on different fans")
    ideals = _open_masks(fan, limit)
    goods = [u for u in ideals if _chart_family(act, u) is not None]
    holders = [0] * len(fan.numbering()[0])
    for j, v in enumerate(goods):
        for c in bits(v):
            holders[c] |= 1 << j
    everyone = (1 << len(goods)) - 1
    out = []
    for k, u in enumerate(goods):
        larger = everyone & ~(1 << k)
        for c in bits(u):
            larger &= holders[c]
        if not any(_is_union_of(_orbit_labels(act, goods[j]), u) for j in bits(larger)):
            out.append(SubfanSelection._of_mask(fan, u))
    out.sort(key=lambda u: list(bits(u.mask)))
    return out


def brute_max_saturated_inside(outer, inner, act, limit=2 ** 20):
    """Union of all saturated face-closed subsets of outer lying in inner.

    Only the order ideals inside inner are enumerated: inner is face-closed,
    so they are exactly the face-closed subsets lying in it, and their
    union is again face-closed.
    """
    if not inner <= outer:
        raise ValueError("inner selection must lie inside the outer one")
    ideals = _open_masks(outer.fan, limit, inner.mask)
    classes = _label_classes(outer, act)
    return SubfanSelection._of_mask(
        outer.fan, _union(u for u in ideals if _is_union_of(classes, u))
    )


def _lineality_generated(gens, lin, ambient):
    # the gens lying in the lineality subspace must span its full lattice
    inside = [g for g in gens if lin.contains(g)]
    return Sublattice.from_rows(ambient, inside).basis == lin.basis


def _generates(targets, gens, cone, weight):
    """Is every target a nonnegative integer combination of the gens?

    Valid for pointed cones: the weight, interior to the dual, strictly
    decreases along every subtraction, so the search terminates.  Its
    path inside the cone is a stack of (vector, generators not yet tried);
    reaching zero or a generated vector shows the whole path generated.
    """
    glist = sorted(gens)
    if any(dot(weight, g) <= 0 for g in glist):
        return False
    known = {}
    for target in targets:
        stack = [(target, iter(glist))]
        while target not in known:
            v, untried = stack[-1]
            if not any(v) or known.get(v):
                known.update((u, True) for u, _ in stack)
                continue
            wv = dot(weight, v)
            for g in untried:
                if dot(weight, g) > wv:
                    continue
                u = vsub(v, g)
                if cone.contains(u) and known.get(u) is not False:
                    stack.append((u, iter(glist)))
                    break
            else:
                known[v] = False
                stack.pop()
        if not known[target]:
            return False
    return True


def mutually_generate(gens_a, gens_b, ambient):
    """Do the two sets generate the same monoid of lattice points?

    Both sets must span the lineality lattice of their common cone by
    members lying inside it; monoid equality then reduces to mutual
    membership of the images in the pointed quotient.
    """
    return _monoid_comparison(gens_a, gens_b, ambient)[0]


def _monoid_comparison(gens_a, gens_b, ambient):
    """mutually_generate's verdict and the cones it builds: those of both
    sets and, once they agree, the pointed quotient cone and its dual."""
    ca = Cone.from_generators(list(gens_a), ambient)
    cb = Cone.from_generators(list(gens_b), ambient)
    built = (ca, cb)
    if ca != cb:
        return False, built
    lin = ca.lineality_lattice()
    if not _lineality_generated(gens_a, lin, ambient):
        return False, built
    if not _lineality_generated(gens_b, lin, ambient):
        return False, built
    proj = quotient_lattice_map(lin)
    zero = (0,) * proj.rows
    pa = {tuple(proj.matvec(g)) for g in gens_a} - {zero}
    pb = {tuple(proj.matvec(g)) for g in gens_b} - {zero}
    pointed = Cone.from_generators(sorted(pa | pb), proj.rows)
    weight = pointed.dual().relative_interior_point()
    verdict = _generates(pa, pb, pointed, weight) and _generates(pb, pa, pointed, weight)
    return verdict, built + (pointed, pointed.dual())


@_kept
def _perp_cone(act):
    """The lattice functionals vanishing on the cocharacters, as a cone."""
    gens = []
    for b in kernel_lattice(act.cochar.basis).basis.entries:
        gens.append(tuple(b))
        gens.append(vneg(b))
    return Cone.from_generators(gens, act.fan.rank)


def _invariant_monoid(act, k, bound):
    """Generators of the monoid of cocharacter-invariant lattice functionals
    that are nonnegative on chart k, and the cones built: the cone of those
    functionals and the pointed image `_monoid_generators` took of it."""
    keys, _ = act.fan.numbering()
    cone = act.fan.cone(keys[k]).dual().intersect(_perp_cone(act))
    gens, pointed = _monoid_generators(cone, bound)
    return gens, (cone, pointed)


@_kept
def _chart_ring_check(act, k, proj, bound):
    """Do chart k's invariant functions generate the same monoid as the
    functions of its image under proj?  The verdict and the cones built."""
    upstairs, invariant = _invariant_monoid(act, k, bound)
    downstairs, pointed = _monoid_generators(_image_dual(act, k, proj), bound)
    pt = proj.transpose()
    pulled = [tuple(pt.matvec(w)) for w in downstairs]
    verdict, built = _monoid_comparison(upstairs, pulled, act.fan.rank)
    return verdict, built + (pointed,) + invariant


def oracle_verify_quotient(q, act, bound=None):
    """Recheck a quotient certificate of the action act from the
    definitions; returns the discrepancies found, empty when everything
    matches.

    Verifies, per chart: the image cone by the double-dual route, and the
    chart's invariant functions against the target chart's functions as
    monoids.  Globally: the stored projection is the recomputed split
    projection, chart fibers are exactly face sets, the fibers cover the
    selection, images pairwise meet in common faces, the orbit map agrees
    with carrier faces of interior points, and the geometric flag matches
    the face-bijection test.  A tight Hilbert-basis bound propagates as
    BoundExceededError rather than a discrepancy.
    """
    problems = []
    sel = q.source
    fan = sel.fan
    if act.fan != fan:
        raise ValueError("action and selection live on different fans")
    keys, bit = fan.numbering()
    pf = q.proj_full
    if _split_projection(act, q.pre_lineality) != pf:
        problems.append("stored projection disagrees with the recomputed one")

    charts = sorted(q.chart_map.items(), key=lambda kv: key_order(kv[1]))
    covered = 0
    for img_key, ck in charts:
        k = bit[ck]
        if _image(act, k, pf) != q.fan.cone(img_key):
            problems.append(
                f"image of chart {sorted(ck)} disagrees with the target cone"
            )
        matches, _ = _chart_ring_check(act, k, pf, bound)
        if not matches:
            problems.append(
                f"invariant functions of chart {sorted(ck)} do not match the "
                "target chart functions"
            )
        fiber = sel.mask & _contents(act, k, pf)
        covered |= fiber
        if fiber != fan.face_masks()[k]:
            problems.append(
                f"cones mapping into the image of chart {sorted(ck)} are not "
                "exactly its faces"
            )
    uncovered = sel.mask & ~covered
    if uncovered:
        missing = keys[(uncovered & -uncovered).bit_length() - 1]
        problems.append(f"cone {sorted(missing)} is covered by no chart")
    for (ka, a), (kb, b) in combinations(charts, 2):
        if not _meet_is_face(act, bit[a], bit[b], pf)[0]:
            problems.append(
                f"images of charts {sorted(a)} and {sorted(b)} do not meet "
                "in a common face"
            )
    carrier = _carriers(act, [bit[ck] for _, ck in charts], sel.mask, pf)
    for t, found in carrier.items():
        if found is None:
            problems.append(f"cone {sorted(keys[t])} has no unique carrier face")
        elif q.fan.cone(q.orbit_map[keys[t]]) != found:
            problems.append(
                f"orbit image of cone {sorted(keys[t])} disagrees with its "
                "carrier face"
            )
    geometric = True
    for img_key, ck in charts:
        k = bit[ck]
        sfaces = list(bits(fan.face_masks()[k]))
        mapped = {carrier.get(f) for f in sfaces} - {None}
        if len(mapped) != len(sfaces) or mapped != set(_image(act, k, pf).faces()):
            geometric = False
    if geometric != q.geometric:
        problems.append(
            f"geometric flag is {q.geometric} but the face-bijection test "
            f"says {geometric}"
        )
    return tuple(problems)
