"""Good quotients of invariant open subsets by subtorus actions.

A subtorus of the big torus is encoded by its saturated cocharacter
sublattice L inside N, with projection map onto N/L.  An open selection U
admits a good quotient exactly when some chart family S of its cones
satisfies: the cone images form a fan after splitting one common
lineality space, the cones of U mapping into a chart image are precisely
the chart's faces, and every cone of U maps into some chart image.  The
search is closed-form: within the eligible chart set the image determines
the chart, so the inclusion-maximal-image charts are forced, and a
failure there certifies that no family exists.
"""

from dataclasses import dataclass
from itertools import combinations

from .fans import (
    Fan,
    SubfanSelection,
    enumerate_open_subsets,
    key_order,
    limit_of_generic_point,
)
from .intlat import (
    Sublattice,
    kernel_lattice,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
)


class SubtorusAction:
    """Subtorus with saturated cocharacter lattice L and projection N -> N/L."""

    __slots__ = ("fan", "cochar", "proj", "input_saturated", "_cache")

    def __init__(self, fan, cochar, proj, input_saturated=True):
        if not cochar.saturated:
            raise ValueError("cocharacter lattice must be saturated")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "cochar", cochar)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "input_saturated", bool(input_saturated))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("SubtorusAction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, SubtorusAction)
            and self.fan == other.fan
            and self.cochar.basis == other.cochar.basis
            and self.proj == other.proj
        )

    def __hash__(self):
        return hash((self.fan, self.cochar.basis, self.proj))

    def __repr__(self):
        return f"SubtorusAction(rank {self.cochar.rank} in Z^{self.fan.rank})"

    def is_trivial(self):
        return self.cochar.rank == 0

    def is_full(self):
        return self.cochar.rank == self.fan.rank

    def image_cone(self, key):
        got = self._cache.get(("img", key))
        if got is None:
            got = self.fan.cone(key).image(self.proj)
            self._cache[("img", key)] = got
        return got

    def split_image_cone(self, key, q2):
        got = self._cache.get(("split", key, q2))
        if got is None:
            got = self.fan.cone(key).image(q2 @ self.proj)
            self._cache[("split", key, q2)] = got
        return got


def normalize_action(fan, generators):
    """Subtorus action from cocharacter generators; the span is saturated."""
    raw = Sublattice.from_rows(fan.rank, generators)
    lat = saturate(raw)
    proj = quotient_lattice_map(lat)
    return SubtorusAction(fan, lat, proj, input_saturated=raw.basis == lat.basis)


@dataclass(frozen=True)
class Obstruction:
    """Certificate that a selection admits no good quotient."""

    kind: str
    detail: str
    witness: tuple | None = None


class QuotientFan:
    """A good quotient: target fan, chart cones, and the orbit map."""

    __slots__ = (
        "source",
        "action",
        "pre_lineality",
        "proj_full",
        "fan",
        "charts",
        "chart_map",
        "orbit_map",
        "geometric",
    )

    def __init__(
        self,
        source,
        action,
        pre_lineality,
        proj_full,
        fan,
        charts,
        chart_map,
        orbit_map,
        geometric,
    ):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "pre_lineality", pre_lineality)
        object.__setattr__(self, "proj_full", proj_full)
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "charts", charts)
        object.__setattr__(self, "chart_map", chart_map)
        object.__setattr__(self, "orbit_map", orbit_map)
        object.__setattr__(self, "geometric", geometric)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientFan is immutable")

    @property
    def target_rank(self):
        return self.proj_full.rows

    def __repr__(self):
        return (
            f"QuotientFan(target_rank={self.target_rank}, "
            f"charts={[sorted(c) for c in self.charts]})"
        )


def good_quotient(selection, act):
    """QuotientFan for the selection, or an Obstruction naming a witness."""
    if act.fan != selection.fan:
        raise ValueError("action and selection live on different fans")
    cached = act._cache.get(("gq", selection.keys))
    if cached is not None:
        return cached
    result = _good_quotient(selection, act)
    act._cache[("gq", selection.keys)] = result
    return result


def _good_quotient(selection, act):
    fan = selection.fan
    keys = sorted(selection.keys, key=key_order)
    if not keys:
        empty = Fan(act.proj.rows, [], [])
        return QuotientFan(
            selection,
            act,
            Sublattice.from_rows(act.proj.rows, []),
            act.proj,
            empty,
            charts=(),
            chart_map={},
            orbit_map={},
            geometric=True,
        )
    img = {k: act.image_cone(k) for k in keys}
    lin = {k: img[k].lineality_lattice() for k in keys}
    lbar_key = next(
        (k for k in keys if all(lin[k].contains_lattice(lin[j]) for j in keys)), None
    )
    if lbar_key is None:
        a, b = next(
            (a, b)
            for a, b in combinations(keys, 2)
            if not lin[a].contains_lattice(lin[b])
            and not lin[b].contains_lattice(lin[a])
        )
        return Obstruction(
            "mixed-lineality",
            f"images of {sorted(a)} and {sorted(b)} have incomparable lineality spaces",
            (a, b),
        )
    lbar = lin[lbar_key]

    charts = []
    for k in keys:
        if lin[k].basis != lbar.basis:
            continue
        fiber = {t for t in keys if img[k].contains_cone(img[t])}
        if fiber == set(fan.faces_of(k)):
            charts.append(k)
    chart_family = [
        k
        for k in charts
        if not any(j != k and img[j].contains_cone(img[k]) for j in charts)
    ]

    for t in keys:
        if any(img[s].contains_cone(img[t]) for s in chart_family):
            continue
        m = next(
            m
            for m in keys
            if img[m].contains_cone(img[t])
            and not any(
                img[j].contains_cone(img[m]) and not img[m].contains_cone(img[j])
                for j in keys
            )
        )
        if lin[m].basis != lbar.basis:
            return Obstruction(
                "mixed-lineality",
                f"the maximal image of {sorted(m)} drops the common lineality space",
                (m, lbar_key),
            )
        bad = next(
            tp
            for tp in keys
            if img[m].contains_cone(img[tp]) and tp not in set(fan.faces_of(m))
        )
        return Obstruction(
            "chart-fiber",
            f"cone {sorted(bad)} maps into the image of {sorted(m)} "
            "but is not a face of it",
            (m, bad),
        )

    for a, b in combinations(chart_family, 2):
        meet = img[a].intersect(img[b])
        if not (meet.is_face_of(img[a]) and meet.is_face_of(img[b])):
            return Obstruction(
                "non-fan-images",
                f"images of charts {sorted(a)} and {sorted(b)} do not meet in a face",
                (a, b),
            )

    q2 = quotient_lattice_map(lbar)
    proj_full = q2 @ act.proj
    timg = {k: act.split_image_cone(k, q2) for k in keys}
    rays = sorted({g for s in chart_family for g in timg[s].generators})
    ray_index = {g: i for i, g in enumerate(rays)}
    qfan = Fan(
        q2.rows,
        rays,
        [frozenset(ray_index[g] for g in timg[s].generators) for s in chart_family],
    )
    orbit_map = {}
    for t in keys:
        okey = limit_of_generic_point(qfan, timg[t].relative_interior_point())
        if okey is None:
            raise RuntimeError(f"cone {sorted(t)} has no orbit image in the quotient fan")
        orbit_map[t] = okey
    chart_map = {
        frozenset(ray_index[g] for g in timg[s].generators): s for s in chart_family
    }
    geometric = True
    for s in chart_family:
        sfaces = fan.faces_of(s)
        mapped = [orbit_map[f] for f in sfaces]
        top = frozenset(ray_index[g] for g in timg[s].generators)
        if len(set(mapped)) != len(sfaces) or set(mapped) != set(qfan.faces_of(top)):
            geometric = False
    return QuotientFan(
        selection,
        act,
        lbar,
        proj_full,
        qfan,
        charts=tuple(chart_family),
        chart_map=chart_map,
        orbit_map=orbit_map,
        geometric=geometric,
    )


def is_saturated(inner, outer, act):
    """Is inner the full preimage of its image inside outer's quotient?

    A cone of outer belongs to the preimage as soon as its orbit-image
    cone coincides with that of a cone of inner.
    """
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    q = good_quotient(outer, act)
    if isinstance(q, Obstruction):
        raise ValueError("outer selection admits no good quotient")
    inside = {q.orbit_map[t] for t in inner.keys}
    return all(t in inner.keys for t in outer.keys if q.orbit_map[t] in inside)


def enumerate_good_subsets(fan, act, limit=2 ** 20):
    """All face-closed selections admitting a good quotient."""
    cached = act._cache.get(("goods", limit))
    if cached is None:
        cached = [
            sel
            for sel in enumerate_open_subsets(fan, limit)
            if isinstance(good_quotient(sel, act), QuotientFan)
        ]
        act._cache[("goods", limit)] = cached
    return list(cached)


def t_maximal_subsets(fan, act, k=1, limit=2 ** 20):
    """Selections with good quotient not properly saturated in a larger one.

    The k=2 variant adds the requirement that any two points of the
    quotient share an affine neighbourhood; quotient spaces here are
    toric, where that holds automatically, so both variants coincide.
    """
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    cached = act._cache.get(("tmax", limit))
    if cached is None:
        goods = enumerate_good_subsets(fan, act, limit)
        cached = [
            u
            for u in goods
            if not any(u.keys < v.keys and is_saturated(u, v, act) for v in goods)
        ]
        act._cache[("tmax", limit)] = cached
    return list(cached)


def max_saturated_inside(outer, inner, act):
    """Largest saturated selection of outer contained in inner.

    Removes every cone sharing its orbit-image cone with the complement
    of inner.
    """
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    q = good_quotient(outer, act)
    if isinstance(q, Obstruction):
        raise ValueError("outer selection admits no good quotient")
    bad = {q.orbit_map[b] for b in outer.keys - inner.keys}
    kept = {t for t in outer.keys if q.orbit_map[t] not in bad}
    return SubfanSelection(outer.fan, kept)


@dataclass(frozen=True)
class StagedComparison:
    first: object
    second: object
    direct: object
    equal: bool | None
    consistent: bool
    detail: str


def staged_quotient(selection, act_small, act_large):
    """Quotient in two stages against the direct quotient by the larger
    subtorus; reports fan-level equality or consistent nonexistence."""
    if not act_large.cochar.contains_lattice(act_small.cochar):
        raise ValueError("first cocharacter lattice must lie inside the second")
    first = good_quotient(selection, act_small)
    direct = good_quotient(selection, act_large)
    if isinstance(first, Obstruction):
        return StagedComparison(
            first,
            None,
            direct,
            equal=None,
            consistent=isinstance(direct, Obstruction),
            detail="no first-stage quotient",
        )
    residual = normalize_action(
        first.fan,
        [first.proj_full.matvec(b) for b in act_large.cochar.basis.entries],
    )
    second = good_quotient(first.fan.full_selection(), residual)
    if isinstance(second, Obstruction) or isinstance(direct, Obstruction):
        both_fail = isinstance(second, Obstruction) and isinstance(direct, Obstruction)
        return StagedComparison(
            first,
            second,
            direct,
            equal=None,
            consistent=both_fail,
            detail="consistent nonexistence" if both_fail else "one side exists",
        )
    composite = second.proj_full @ first.proj_full
    if kernel_lattice(composite).basis != kernel_lattice(direct.proj_full).basis:
        return StagedComparison(
            first, second, direct, equal=False, consistent=False,
            detail="composite and direct projections have different kernels",
        )
    phi = direct.proj_full @ right_inverse_of_surjection(composite)
    if not phi.is_unimodular():
        return StagedComparison(
            first, second, direct, equal=False, consistent=False,
            detail="no unimodular identification of the targets",
        )
    mapped_rays = [tuple(phi.matvec(r)) for r in second.fan.rays]
    if set(mapped_rays) != set(direct.fan.rays):
        return StagedComparison(
            first, second, direct, equal=False, consistent=False,
            detail="target fans have different rays",
        )
    to_direct = {
        i: direct.fan.rays.index(r) for i, r in enumerate(mapped_rays)
    }
    mapped_cones = {
        frozenset(to_direct[i] for i in c) for c in second.fan.max_cones
    }
    if mapped_cones != set(direct.fan.max_cones):
        return StagedComparison(
            first, second, direct, equal=False, consistent=False,
            detail="target fans have different maximal cones",
        )
    for t in sorted(selection.keys, key=key_order):
        staged_key = second.orbit_map[first.orbit_map[t]]
        if frozenset(to_direct[i] for i in staged_key) != direct.orbit_map[t]:
            return StagedComparison(
                first, second, direct, equal=False, consistent=False,
                detail=f"orbit maps disagree at cone {sorted(t)}",
            )
    return StagedComparison(
        first, second, direct, equal=True, consistent=True, detail="targets agree"
    )


def remark_suite(q):
    """Set-calculus checks on a good quotient via its orbit map:
    (i) images of closed invariant sets are closed, (ii) disjoint closed
    invariant sets have disjoint images, (iii) saturated opens map to
    opens restricting to good quotients, (iv) the trace of a saturated
    open on a closed invariant set is saturated there.  Closed sets are
    exercised through single-cone orbit closures and saturated opens
    through principal image ideals, which generate all instances by
    unions and intersections."""
    violations = []
    fan = q.source.fan
    keys = sorted(q.source.keys, key=key_order)
    o = q.orbit_map
    qkeys = q.fan.cone_keys()
    up = {t: frozenset(k for k in keys if t <= k) for t in keys}
    qup = {c: frozenset(k for k in qkeys if c <= k) for c in qkeys}
    for t in keys:
        image = {o[a] for a in up[t]}
        hull = set().union(*(qup[c] for c in image))
        if hull != image:
            violations.append(
                f"(i) image of the orbit closure of {sorted(t)} is not closed"
            )
    for t, s in combinations(keys, 2):
        if up[t].isdisjoint(up[s]):
            if not {o[a] for a in up[t]}.isdisjoint({o[a] for a in up[s]}):
                violations.append(
                    f"(ii) disjoint orbit closures of {sorted(t)} and {sorted(s)} "
                    "have overlapping images"
                )
    # orbit images, not cone_keys: the empty selection has no orbits even
    # though the degenerate target fan still carries its zero cone
    ikeys = frozenset(o.values())
    principal_opens = sorted(
        {frozenset(), ikeys}
        | {frozenset(k for k in ikeys if k <= c) for c in ikeys},
        key=lambda g: (len(g), sorted(sorted(k) for k in g)),
    )
    preimages = []
    for g in principal_opens:
        pre = frozenset(t for t in keys if o[t] in g)
        preimages.append(pre)
        if {o[t] for t in pre} != g:
            violations.append("(iii) a saturated open does not map onto its image")
            continue
        try:
            sub = good_quotient(SubfanSelection(fan, pre), q.action)
        except ValueError:
            violations.append(
                "(iii) preimage of an open image set is not an open selection"
            )
            continue
        if isinstance(sub, Obstruction):
            violations.append(
                "(iii) restriction to a saturated open is not a good quotient: "
                f"{sub.detail}"
            )
    for t in keys:
        for pre in preimages:
            trace = up[t] & pre
            trace_images = {o[a] for a in trace}
            for a in up[t]:
                if o[a] in trace_images and a not in trace:
                    violations.append(
                        f"(iv) trace of a saturated open on the orbit closure of "
                        f"{sorted(t)} is not saturated there"
                    )
                    break
    return tuple(violations)
