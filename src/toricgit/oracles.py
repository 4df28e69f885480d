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
"""

from itertools import combinations

from .cones import Cone, monoid_generators
from .fans import SubfanSelection, enumerate_open_subsets, key_order
from .intlat import (
    Sublattice,
    dot,
    kernel_lattice,
    quotient_lattice_map,
    vneg,
    vsub,
)


def _image(act, key):
    """Image of a fan cone under the projection, via the double dual."""
    got = act._cache.get(("o_img", key))
    if got is None:
        rows = [act.proj.matvec(g) for g in act.fan.cone(key).generators]
        got = Cone.from_inequalities(rows, act.proj.rows).dual()
        act._cache[("o_img", key)] = got
    return got


def _img_contains(act, a, b):
    got = act._cache.get(("o_cont", a, b))
    if got is None:
        got = _image(act, a).contains_cone(_image(act, b))
        act._cache[("o_cont", a, b)] = got
    return got


def _pair_compatible(act, a, b):
    """Do the two images share a lineality space and meet in a common face
    once it is split off?"""
    got = act._cache.get(("o_pair", a, b))
    if got is not None:
        return got
    ia, ib = _image(act, a), _image(act, b)
    la, lb = ia.lineality_lattice(), ib.lineality_lattice()
    if la.basis != lb.basis:
        ok = False
    else:
        q2 = quotient_lattice_map(la)
        sa = Cone.from_generators([q2.matvec(g) for g in ia.generators], q2.rows)
        sb = Cone.from_generators([q2.matvec(g) for g in ib.generators], q2.rows)
        meet = sa.intersect(sb)
        ok = meet.is_face_of(sa) and meet.is_face_of(sb)
    act._cache[("o_pair", a, b)] = ok
    act._cache[("o_pair", b, a)] = ok
    return ok


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
    cached = act._cache.get(("o_fam", selection.keys))
    if cached is not None:
        return cached[0]
    fan = selection.fan
    keys = sorted(selection.keys, key=key_order)
    fibers = {}
    cands = []
    for k in keys:
        fiber = frozenset(t for t in keys if _img_contains(act, k, t))
        if fiber == frozenset(fan.faces_of(k)):
            cands.append(k)
            fibers[k] = fiber
    family = None
    union = frozenset().union(*(fibers[k] for k in cands)) if cands else frozenset()
    if union == selection.keys:
        if all(_pair_compatible(act, a, b) for a, b in combinations(cands, 2)):
            family = tuple(cands)
        else:
            for size in range(1, len(cands) + 1):
                for sub in combinations(cands, size):
                    if frozenset().union(*(fibers[k] for k in sub)) != selection.keys:
                        continue
                    if all(_pair_compatible(act, a, b) for a, b in combinations(sub, 2)):
                        family = sub
                        break
                if family is not None:
                    break
    act._cache[("o_fam", selection.keys)] = (family,)
    return family


def oracle_good_quotient(selection, act):
    """Does the selection admit a good quotient, by exhaustive family search."""
    return chart_family(selection, act) is not None


def oracle_orbit_labels(selection, act):
    """Orbit identification cones, one per selected key, from carrier faces.

    Two cones receive the same label exactly when their orbit families are
    identified in the quotient.  Labels are cones in the unsplit target, so
    they are comparable across different inner selections of one quotient.
    """
    cached = act._cache.get(("o_lab", selection.keys))
    if cached is not None:
        return dict(cached)
    family = chart_family(selection, act)
    if family is None:
        raise ValueError("selection admits no good quotient")
    faces = set()
    for k in family:
        faces.update(_image(act, k).faces())
    labels = {}
    for t in selection.keys:
        pt = act.proj.matvec(selection.fan.cone(t).relative_interior_point())
        carriers = {f for f in faces if f.contains_in_relative_interior(pt)}
        if len(carriers) != 1:
            raise RuntimeError("carrier face of an orbit cone is not unique")
        labels[t] = carriers.pop()
    act._cache[("o_lab", selection.keys)] = tuple(labels.items())
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
    """Union of all saturated face-closed subsets of outer lying in inner."""
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    best = frozenset()
    for sub in enumerate_open_subsets(outer.fan, limit):
        if sub.keys <= inner.keys and oracle_saturated(sub, outer, act):
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


def _split_image(act, t, lbar, pf):
    # image under the lineality-split projection, cached per split
    key = ("o_pimg", t, lbar.basis)
    got = act._cache.get(key)
    if got is None:
        rows = [pf.matvec(g) for g in act.fan.cone(t).generators]
        got = Cone.from_inequalities(rows, pf.rows).dual()
        act._cache[key] = got
    return got


def _split_images_meet_in_a_face(act, a, b, lbar, pf):
    """Do the split images of two charts meet in a common face?  Cached per
    chart pair and lineality split."""
    key = ("o_meet", a, b, lbar.basis)
    got = act._cache.get(key)
    if got is None:
        ia, ib = _split_image(act, a, lbar, pf), _split_image(act, b, lbar, pf)
        meet = ia.intersect(ib)
        got = meet.is_face_of(ia) and meet.is_face_of(ib)
        act._cache[key] = got
    return got


def _chart_ring_matches(act, ck, lbar, pf, bound):
    """Do the chart's invariant functions generate the same monoid as the
    target chart's functions?  Cached per chart and lineality split."""
    key = ("o_ring", ck, lbar.basis, bound)
    got = act._cache.get(key)
    if got is None:
        upstairs = invariant_monoid_generators(act.fan.cone(ck), act.cochar, bound)
        downstairs = monoid_generators(_split_image(act, ck, lbar, pf).dual(), bound)
        pft = pf.transpose()
        pulled = [tuple(pft.matvec(w)) for w in downstairs]
        got = mutually_generate(upstairs, pulled, act.fan.rank)
        act._cache[key] = got
    return got


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
    lbar = q.pre_lineality
    if quotient_lattice_map(lbar) @ act.proj != pf:
        problems.append("stored projection disagrees with the recomputed one")
    img = {t: _split_image(act, t, lbar, pf) for t in sel.keys}

    charts = sorted(q.chart_map.items(), key=lambda kv: key_order(kv[1]))
    fibers = {}
    for img_key, ck in charts:
        if img[ck] != q.fan.cone(img_key):
            problems.append(
                f"image of chart {sorted(ck)} disagrees with the target cone"
            )
        if not _chart_ring_matches(act, ck, lbar, pf, bound):
            problems.append(
                f"invariant functions of chart {sorted(ck)} do not match the "
                "target chart functions"
            )
        fiber = frozenset(t for t in sel.keys if img[ck].contains_cone(img[t]))
        fibers[ck] = fiber
        if fiber != frozenset(fan.faces_of(ck)):
            problems.append(
                f"cones mapping into the image of chart {sorted(ck)} are not "
                "exactly its faces"
            )
    covered = frozenset().union(*fibers.values()) if fibers else frozenset()
    if covered != sel.keys:
        missing = sorted(sel.keys - covered, key=key_order)[0]
        problems.append(f"cone {sorted(missing)} is covered by no chart")
    for (ka, a), (kb, b) in combinations(charts, 2):
        if not _split_images_meet_in_a_face(act, a, b, lbar, pf):
            problems.append(
                f"images of charts {sorted(a)} and {sorted(b)} do not meet "
                "in a common face"
            )
    faces = set()
    for img_key, ck in charts:
        faces.update(img[ck].faces())
    carrier = {}
    for t in sorted(sel.keys, key=key_order):
        pt = pf.matvec(fan.cone(t).relative_interior_point())
        found = {f for f in faces if f.contains_in_relative_interior(pt)}
        if len(found) != 1:
            problems.append(f"cone {sorted(t)} has no unique carrier face")
            continue
        carrier[t] = found.pop()
        if q.fan.cone(q.orbit_map[t]) != carrier[t]:
            problems.append(
                f"orbit image of cone {sorted(t)} disagrees with its carrier face"
            )
    geometric = True
    for img_key, ck in charts:
        sfaces = fan.faces_of(ck)
        mapped = {carrier[f] for f in sfaces if f in carrier}
        if len(mapped) != len(sfaces) or mapped != set(img[ck].faces()):
            geometric = False
    if geometric != q.geometric:
        problems.append(
            f"geometric flag is {q.geometric} but the face-bijection test "
            f"says {geometric}"
        )
    return tuple(problems)
