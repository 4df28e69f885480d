"""Definition-level recomputation of quotient verdicts.

The fast engine decides good-quotient existence in closed form: the
inclusion-maximal eligible charts are forced, so one pass settles the
question.  Everything in this module instead recomputes answers straight
from the definitions, sharing as little reasoning with the engine as
possible: cone images go through the literal double-dual route, chart
families are found by exhaustive search over all eligible subsets, orbit
identifications come from carrier faces of interior points, and affine
chart rings are compared as monoids via Hilbert bases.  Randomized sweeps
then cross-check the engine against these recomputations; nothing here
may shortcut through the code paths it is meant to audit.  The oracles do
share the interner of canonical cones (see `cones`): it maps an input
vector set to its canonical cone, which is representation, not a verdict.

Memo rule: a helper that remembers its results is wrapped in `_memo`, which
keeps one table per helper in the action's `_cache`, keyed by every
argument the value depends on (the projection itself, never a stand-in for
it).  Nothing else touches `_cache`, so a verdict cannot depend on what the
action was asked before.
"""

from functools import wraps
from itertools import combinations

from .cones import Cone, monoid_generators
from .fans import SubfanSelection, _open_masks, enumerate_open_subsets, key_order
from .intlat import (
    Sublattice,
    dot,
    kernel_lattice,
    quotient_lattice_map,
    vneg,
    vsub,
)

_MISSING = object()


def _memo(fn):
    """Remember fn(act, *args) in act._cache, in one table per helper keyed
    by the tuple of the other arguments."""

    @wraps(fn)
    def remembered(act, *args):
        table = act._cache.get(fn)
        if table is None:
            table = act._cache[fn] = {}
        got = table.get(args, _MISSING)
        if got is _MISSING:
            got = table[args] = fn(act, *args)
        return got

    return remembered


@_memo
def _image(act, key, proj):
    """Image of a fan cone under the projection proj, via the double dual."""
    rows = [proj.matvec(g) for g in act.fan.cone(key).generators]
    return Cone.from_inequalities(rows, proj.rows).dual()


@_memo
def _contains(act, a, b, proj):
    """Does the image of cone a under proj contain the image of cone b?"""
    return _image(act, a, proj).contains_cone(_image(act, b, proj))


def _fiber(act, k, keys, proj):
    """The cones among keys whose images lie in the image of cone k."""
    return frozenset(t for t in keys if _contains(act, k, t, proj))


@_memo
def _meet_is_face(act, a, b, proj):
    """Do the images of two cones under proj meet in a common face?"""
    ia, ib = _image(act, a, proj), _image(act, b, proj)
    meet = ia.intersect(ib)
    return meet.is_face_of(ia) and meet.is_face_of(ib)


@_memo
def _pair_compatible(act, a, b):
    """Do the two images share a lineality space and meet in a common face
    once it is split off?"""
    lin = _image(act, a, act.proj).lineality_lattice()
    if lin.basis != _image(act, b, act.proj).lineality_lattice().basis:
        return False
    return _meet_is_face(act, a, b, quotient_lattice_map(lin) @ act.proj)


def _carriers(act, charts, keys, proj):
    """Carrier face of each cone's relative-interior point among the faces of
    the charts' images under proj; None where it is not unique."""
    faces = {f for k in charts for f in _image(act, k, proj).faces()}
    out = {}
    for t in keys:
        pt = proj.matvec(act.fan.cone(t).relative_interior_point())
        found = [f for f in faces if f.contains_in_relative_interior(pt)]
        out[t] = found[0] if len(found) == 1 else None
    return out


def chart_family(selection, act):
    """A family of chart cones witnessing a good quotient, or None.

    A valid family consists of selected cones whose image-preimages inside
    the selection are exactly their own faces, whose images pairwise share
    one lineality space and meet in common faces after splitting it, and
    whose image-preimages jointly exhaust the selection.  Every chart of
    every valid family satisfies the first condition individually, so the
    search may restrict to those candidates; the fallback enumerates all
    candidate subsets.
    """
    if act.fan != selection.fan:
        raise ValueError("action and selection live on different fans")
    return _chart_family(act, selection.keys)


@_memo
def _chart_family(act, keys):
    fibers = {}
    for k in sorted(keys, key=key_order):
        fiber = _fiber(act, k, keys, act.proj)
        if fiber == frozenset(act.fan.faces_of(k)):
            fibers[k] = fiber
    cands = tuple(fibers)
    if frozenset().union(*fibers.values()) != keys:
        return None
    if all(_pair_compatible(act, a, b) for a, b in combinations(cands, 2)):
        return cands
    for size in range(1, len(cands) + 1):
        for sub in combinations(cands, size):
            if frozenset().union(*(fibers[k] for k in sub)) == keys and all(
                _pair_compatible(act, a, b) for a, b in combinations(sub, 2)
            ):
                return sub
    return None


def oracle_good_quotient(selection, act):
    """Does the selection admit a good quotient, by exhaustive family search."""
    return chart_family(selection, act) is not None


def oracle_orbit_labels(selection, act):
    """Orbit identification cones, one per selected key, from carrier faces.

    Two cones receive the same label exactly when their orbit families are
    identified in the quotient.  Labels are cones in the unsplit target, so
    they are comparable across different inner selections of one quotient.
    """
    family = chart_family(selection, act)
    if family is None:
        raise ValueError("selection admits no good quotient")
    return dict(_orbit_labels(act, selection.keys, family))


@_memo
def _orbit_labels(act, keys, family):
    labels = _carriers(act, family, keys, act.proj)
    if None in labels.values():
        raise RuntimeError("carrier face of an orbit cone is not unique")
    return labels


def oracle_saturated(inner, outer, act):
    """Is inner a union of full orbit-label classes of outer?"""
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    labels = oracle_orbit_labels(outer, act)
    inside = {labels[t] for t in inner.keys}
    return all(t in inner.keys for t in outer.keys if labels[t] in inside)


def brute_t_maximal(fan, act, limit=2 ** 20):
    """Subsets with good quotient, maximal against saturated inclusion,
    found by filtering every face-closed subset."""
    goods = [
        u for u in enumerate_open_subsets(fan, limit) if oracle_good_quotient(u, act)
    ]
    out = [
        u
        for u in goods
        if not any(
            u.keys < v.keys and oracle_saturated(u, v, act) for v in goods
        )
    ]
    out.sort(key=lambda u: sorted(u.keys, key=key_order))
    return out


def brute_max_saturated_inside(outer, inner, act, limit=2 ** 20):
    """Union of all saturated face-closed subsets of outer lying in inner.

    Only the order ideals inside inner are enumerated: inner is face-closed,
    so they are exactly the face-closed subsets lying in it.
    """
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    best = frozenset()
    for ideal in _open_masks(outer.fan, limit, inner.mask):
        sub = SubfanSelection._of_mask(outer.fan, ideal)
        if oracle_saturated(sub, outer, act):
            best = best | sub.keys
    return SubfanSelection(outer.fan, best)


def _lineality_generated(gens, lin, ambient):
    # the gens lying in the lineality subspace must span its full lattice
    inside = [g for g in gens if lin.contains(g)]
    return Sublattice.from_rows(ambient, inside).basis == lin.basis


def _generates(targets, gens, cone, weight):
    """Is every target a nonnegative integer combination of the gens?

    Valid for pointed cones: the weight, interior to the dual, strictly
    decreases along every subtraction, so the search terminates.
    """
    glist = sorted(gens)
    if any(dot(weight, g) <= 0 for g in glist):
        return False
    memo = {}

    def member(v):
        if not any(v):
            return True
        got = memo.get(v)
        if got is None:
            got = False
            wv = dot(weight, v)
            for g in glist:
                if dot(weight, g) > wv:
                    continue
                u = vsub(v, g)
                if cone.contains(u) and member(u):
                    got = True
                    break
            memo[v] = got
        return got

    return all(member(t) for t in targets)


def mutually_generate(gens_a, gens_b, ambient):
    """Do the two sets generate the same monoid of lattice points?

    Both sets must span the lineality lattice of their common cone by
    members lying inside it; monoid equality then reduces to mutual
    membership of the images in the pointed quotient.
    """
    ca = Cone.from_generators(list(gens_a), ambient)
    cb = Cone.from_generators(list(gens_b), ambient)
    if ca != cb:
        return False
    lin = ca.lineality_lattice()
    if not _lineality_generated(gens_a, lin, ambient):
        return False
    if not _lineality_generated(gens_b, lin, ambient):
        return False
    proj = quotient_lattice_map(lin)
    zero = (0,) * proj.rows
    pa = {tuple(proj.matvec(g)) for g in gens_a} - {zero}
    pb = {tuple(proj.matvec(g)) for g in gens_b} - {zero}
    pointed = Cone.from_generators(sorted(pa | pb), proj.rows)
    weight = pointed.dual().relative_interior_point()
    return _generates(pa, pb, pointed, weight) and _generates(
        pb, pa, pointed, weight
    )


def invariant_monoid_generators(cone, cochar, bound=None):
    """Generators of the monoid of cocharacter-invariant lattice functionals
    that are nonnegative on the cone."""
    d = cone.ambient
    perp = kernel_lattice(cochar.basis)
    gens = []
    for b in perp.basis.entries:
        gens.append(tuple(b))
        gens.append(vneg(b))
    perp_cone = Cone.from_generators(gens, d)
    return monoid_generators(cone.dual().intersect(perp_cone), bound)


@_memo
def _chart_ring_matches(act, ck, proj, bound):
    """Do the chart's invariant functions generate the same monoid as the
    functions of its image under proj?"""
    upstairs = invariant_monoid_generators(act.fan.cone(ck), act.cochar, bound)
    downstairs = monoid_generators(_image(act, ck, proj).dual(), bound)
    pt = proj.transpose()
    pulled = [tuple(pt.matvec(w)) for w in downstairs]
    return mutually_generate(upstairs, pulled, act.fan.rank)


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
    pf = q.proj_full
    if quotient_lattice_map(q.pre_lineality) @ act.proj != pf:
        problems.append("stored projection disagrees with the recomputed one")

    charts = sorted(q.chart_map.items(), key=lambda kv: key_order(kv[1]))
    fibers = {}
    for img_key, ck in charts:
        if _image(act, ck, pf) != q.fan.cone(img_key):
            problems.append(
                f"image of chart {sorted(ck)} disagrees with the target cone"
            )
        if not _chart_ring_matches(act, ck, pf, bound):
            problems.append(
                f"invariant functions of chart {sorted(ck)} do not match the "
                "target chart functions"
            )
        fibers[ck] = _fiber(act, ck, sel.keys, pf)
        if fibers[ck] != frozenset(fan.faces_of(ck)):
            problems.append(
                f"cones mapping into the image of chart {sorted(ck)} are not "
                "exactly its faces"
            )
    covered = frozenset().union(*fibers.values())
    if covered != sel.keys:
        missing = sorted(sel.keys - covered, key=key_order)[0]
        problems.append(f"cone {sorted(missing)} is covered by no chart")
    for (ka, a), (kb, b) in combinations(charts, 2):
        if not _meet_is_face(act, a, b, pf):
            problems.append(
                f"images of charts {sorted(a)} and {sorted(b)} do not meet "
                "in a common face"
            )
    carrier = _carriers(act, [ck for _, ck in charts], sel.keys, pf)
    for t in sorted(sel.keys, key=key_order):
        if carrier[t] is None:
            problems.append(f"cone {sorted(t)} has no unique carrier face")
        elif q.fan.cone(q.orbit_map[t]) != carrier[t]:
            problems.append(
                f"orbit image of cone {sorted(t)} disagrees with its carrier face"
            )
    geometric = True
    for img_key, ck in charts:
        sfaces = fan.faces_of(ck)
        mapped = {carrier.get(f) for f in sfaces} - {None}
        if len(mapped) != len(sfaces) or mapped != set(_image(act, ck, pf).faces()):
            geometric = False
    if geometric != q.geometric:
        problems.append(
            f"geometric flag is {q.geometric} but the face-bijection test "
            f"says {geometric}"
        )
    return tuple(problems)
