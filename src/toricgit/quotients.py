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

None of the facts this criterion reads depends on the selection, so each
action keeps one ImageTable over its fan's cones, numbered as in the fans
module (cone i is bit i of a selection mask, `Fan.face_mask(i)` its faces),
with bit rows `below[i]` (the cones whose images img[i] contains),
`above[i]` (those whose images contain img[i]) and `lin_le[i]` (those
whose lineality lattices lin[i] contains).  A selection is its mask M,
and the criterion is mask algebra on it:

- the common lineality cone lbar is the first i in M with
  lin_le[i] & M == M; without one, the first incomparable pair is the
  obstruction;
- i is a chart iff it is in lbar's lineality class (the table keeps a
  mask of each class, so only those cones are scanned) and
  below[i] & M == face_mask(i);
- the chart family is the charts i with above[i] & C == 1 << i, where C
  is the chart mask;
- the uncovered cones are M & ~(OR of below[s] over the family); the
  witnesses of the lowest one (its maximal image m, and a cone of M in
  m's image that is not a face of m) are the lowest bits of the matching
  masks.

Every scan runs in ascending index order, which is key_order, so the
witnesses are those of a pairwise scan over the sorted selection.  A good
selection's quotient is read off the family's split images: the target
rays are their generators, and the orbit image of t is the carrier face
of t's split image in the lowest family chart covering t.  No cone of the
target fan is built.  That carrier face depends only on the lineality
class, t and the chart, so the table memoizes it under those three, as it
does the chart meets and the split images.

The criterion is one routine, `_decide(table, mask)`, that works on cone
indices only: it returns lbar and the chart family of a good mask, or an
obstruction code and the indices of its two witnesses.  `_render` turns
that into the QuotientFan or the Obstruction text, and `good_quotient`
is render after decide, memoized for the selections it is asked about,
so only those get a quotient fan.  `enumerate_good_subsets` decides only
the order ideals that can be good (below) on their bare masks and keeps
a good one as its fibre masks (below) and a selection; a rejected ideal
leaves no memo entry.

An open set with a good quotient is covered by saturated affine charts
(J. Święcicka, "Quotients of toric varieties by actions of subtori",
Colloq. Math. 81 (1999)); in the fan, a good selection is the face
closure of its chart family.  Take a good mask U with family F.  Every
cone of U lies below a chart of F, and the cones of U below a chart are
its faces, so U is the face closure of F.  No member of F lies below
another, so F is exactly the set of maximal cones of U.  So any two
members a and b of F
1. lie in one lineality class (cls[a] == cls[b]);
2. are not faces of one another;
3. have images not containing one another (bit b of below[a] and bit a
   of below[b] are clear);
4. have below[a] & faces[b] & ~faces[a] == 0, and the same with a and b
   swapped, since the cones of U below a are a's faces.
`_family_closures` collects the face closures of the sets of cones
satisfying 1-4 pairwise, so every good mask is among them, and
`enumerate_good_subsets` skips every other ideal as bad; `_decide`
remains the only verdict.  Each such set is an antichain under faces
(2), so it is the set of maximal cones of its closure, and the clique
search, which extends a set only by higher indices and ANDs the
pairwise rows, visits each closure once and never makes more closures
than there are ideals.

The engine's own form of the orbit map is the fibre masks, one routine
`_fibres(table, mask, lbar, family)` for both the table's fibre record
and `QuotientFan.fibres`: it groups the cones of a good mask by their
orbit images, the memoized carrier faces above, so fibres[t] holds the
selected cones with t's orbit image.  Saturation is mask algebra on
them and reads the fibre record only, so it renders no quotient.  The
saturation of a mask A inside the selection is the OR of the fibres of
A's cones, so A is saturated exactly when that OR is A, and the largest
saturated selection inside B removes the saturation of the cones
outside B.

The host of a good selection u is the first good selection, in
enumeration order, that properly contains u and in which u is saturated;
the T-maximal selections are the goods without one.  The candidates come
from a superset index over the goods: bit j of holders[c] is set when the
j-th good selection holds cone c, so the AND of holders over u's cones
holds exactly the goods that contain u.  Each action memoizes the host of
every good selection in its table.
"""

from dataclasses import dataclass
from itertools import combinations

from .fans import (
    Fan,
    SubfanSelection,
    _open_masks,
    bits,
    key_order,
)
from .intlat import (
    Sublattice,
    kernel_lattice,
    quotient_lattice_map,
    right_inverse_of_surjection,
    split_surjection,
)


class SubtorusAction:
    """Subtorus with saturated cocharacter lattice L and projection N -> N/L.

    `_table` holds the engine's ImageTable, built on first use; `_cache`
    is the oracles' own memo, which the engine never reads.  Since each
    action carries its own tables, actions compare by identity.
    """

    __slots__ = ("fan", "cochar", "proj", "input_saturated", "_table", "_cache")

    def __init__(self, fan, cochar, proj, input_saturated=True):
        if not cochar.saturated:
            raise ValueError("cocharacter lattice must be saturated")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "cochar", cochar)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "input_saturated", bool(input_saturated))
        object.__setattr__(self, "_table", None)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("SubtorusAction is immutable")

    def __repr__(self):
        return f"SubtorusAction(rank {self.cochar.rank} in Z^{self.fan.rank})"

    def is_trivial(self):
        return self.cochar.rank == 0

    def is_full(self):
        return self.cochar.rank == self.fan.rank

    def image_table(self):
        """The engine's ImageTable for this action, built on first use."""
        if self._table is None:
            object.__setattr__(self, "_table", ImageTable(self.fan, self.proj))
        return self._table


class ImageTable:
    """Everything the chart criterion reads about one action's fan cones.

    Cone i is the fan's cone i (Fan.numbering).  Per cone: the image
    `img[i]` and its lineality lattice `lin[i]` with class id `cls[i]`
    (equal ids for equal lattices); per ordered pair, bit j of the rows
    `below[i]`, `above[i]` and `lin_le[i]` (each row holds its own bit).
    `fill(mask)` projects the cones of mask not yet `seen` and relates
    each to every seen cone, so each image containment is decided at most
    once per action and a cone no selection reaches is never projected;
    `members[c]` masks the seen cones of lineality class c.  The table
    also memoizes whether two chart images meet in a face, the split
    images and orbit-image carrier faces per lineality class, the fibre
    masks of every good selection decided (the enumeration keeps its goods
    only so), the verdicts `good_quotient` was asked for, one Fan per
    distinct quotient target among those, so equal targets share its cone
    lists and cones (see target()), the good selections, and the host of
    each good selection.
    """

    __slots__ = (
        "fan", "proj", "faces", "img", "lin", "cls", "below", "above", "lin_le",
        "seen", "classes", "members", "meets", "split", "carriers", "fibres",
        "targets", "results", "goods", "hosts",
    )

    def __init__(self, fan, proj):
        keys, _ = fan.numbering()
        n = len(keys)
        self.fan = fan
        self.proj = proj
        self.faces = fan.face_masks()
        self.img = [None] * n
        self.lin = [None] * n
        self.cls = [None] * n
        self.below = [1 << i for i in range(n)]
        self.above = [1 << i for i in range(n)]
        self.lin_le = [1 << i for i in range(n)]
        self.seen = 0
        self.classes = {}  # lineality basis -> class id
        self.members = []  # class id -> mask of the seen cones in the class
        self.meets = {}  # (a, b) -> do img[a] and img[b] meet in a face of both
        self.split = {}  # class id -> (q2 @ proj, {i: split image})
        self.carriers = {}  # (class id, t, s) -> carrier face, see carrier()
        self.fibres = {}  # good selection mask -> its fibre masks, see _fibres()
        self.targets = {}  # (rank, rays, nonzero chart keys) -> Fan, see target()
        self.results = {}  # selection mask -> verdict, for masks good_quotient was asked
        self.goods = {}  # limit -> enumerate_good_subsets
        self.hosts = {}  # good selection mask -> its host selection, or None

    def fill(self, mask):
        """Project the unseen cones of mask; relate each to every seen cone."""
        new = mask & ~self.seen
        if not new:
            return
        keys, _ = self.fan.numbering()
        for i in bits(new):
            self.img[i] = self.fan.cone(keys[i]).image(self.proj)
            self.lin[i] = self.img[i].lineality_lattice()
            c = self.cls[i] = self.classes.setdefault(self.lin[i].basis, len(self.classes))
            if c == len(self.members):
                self.members.append(0)
            self.members[c] |= 1 << i
            for j in bits(self.seen):
                for a, b in ((i, j), (j, i)):
                    if self.img[a].contains_cone(self.img[b]):
                        self.below[a] |= 1 << b
                        self.above[b] |= 1 << a
                    if self.lin[a].contains_lattice(self.lin[b]):
                        self.lin_le[a] |= 1 << b
            self.seen |= 1 << i

    def meet_is_face(self, a, b):
        got = self.meets.get((a, b))
        if got is None:
            got = self.meets[(a, b)] = self.img[a].meets_in_face(self.img[b])
        return got

    def split_projection(self, lbar):
        """(q2 @ proj, split images by index), where q2 divides out the
        lineality lattice of cone lbar; shared by its lineality class."""
        got = self.split.get(self.cls[lbar])
        if got is None:
            q2 = quotient_lattice_map(self.lin[lbar])
            got = self.split[self.cls[lbar]] = (q2 @ self.proj, {})
        return got

    def split_image(self, i, lbar):
        proj_full, images = self.split_projection(lbar)
        got = images.get(i)
        if got is None:
            keys, _ = self.fan.numbering()
            got = images[i] = self.fan.cone(keys[i]).image(proj_full)
        return got

    def target(self, rank, rays, cones):
        """The target Fan(rank, rays, cones), one per distinct fan: rays a
        sorted tuple, cones a frozenset of keys, where the zero cone's key,
        which a Fan drops, adds nothing."""
        key = (rank, rays, cones - {frozenset()})
        got = self.targets.get(key)
        if got is None:
            got = self.targets[key] = Fan(rank, rays, cones)
        return got

    def carrier(self, t, s, lbar):
        """Generators of the carrier face, in the split image of chart s, of
        the split image of cone t, split by lbar's lineality class: t's
        orbit image when s is t's family chart."""
        key = (self.cls[lbar], t, s)
        got = self.carriers.get(key)
        if got is None:
            point = self.split_image(t, lbar).relative_interior_point()
            got = self.carriers[key] = self.split_image(s, lbar).carrier_generators(
                [point]
            )
        return got


def normalize_action(fan, generators):
    """Subtorus action from cocharacter generators; the span is saturated."""
    raw = Sublattice.from_rows(fan.rank, generators)
    # the canonical kernel basis of the generators' span is the quotient map
    # by its saturation, and that map's kernel is the saturation
    proj = kernel_lattice(raw.basis).basis
    lat = split_surjection(proj)[0]
    return SubtorusAction(fan, lat, proj, input_saturated=raw.basis == lat.basis)


@dataclass(frozen=True)
class Obstruction:
    """Certificate that a selection admits no good quotient."""

    kind: str
    detail: str
    witness: tuple | None = None


@dataclass(frozen=True, eq=False, slots=True)
class QuotientFan:
    """A good quotient: target fan, chart cones, and the orbit map, both
    by cone key and as fibre masks over the source fan's numbering."""

    source: SubfanSelection
    pre_lineality: Sublattice
    proj_full: object  # IntMatrix from N onto the target lattice
    fan: Fan
    chart_map: dict  # target chart cone -> source chart cone, in key order
    orbit_map: dict
    fibres: dict  # cone index -> mask of the selected cones with its orbit image
    geometric: bool

    @property
    def target_rank(self):
        return self.proj_full.rows

    def __repr__(self):
        return (
            f"QuotientFan(target_rank={self.target_rank}, "
            f"charts={[sorted(c) for c in self.chart_map.values()]})"
        )


def _table(fan, act):
    if act.fan != fan:
        raise ValueError("action and selection live on different fans")
    return act.image_table()


def good_quotient(selection, act):
    """QuotientFan for the selection, or an Obstruction naming a witness."""
    table = _table(selection.fan, act)
    got = table.results.get(selection.mask)
    if got is None:
        decision = _decide(table, selection.mask)
        got = table.results[selection.mask] = _render(table, selection, decision)
        if decision[0] is None:
            table.fibres.setdefault(selection.mask, got.fibres)
    return got


# obstruction code -> (kind, detail over the sorted keys of witnesses a, b)
_OBSTRUCTIONS = (
    ("mixed-lineality", "images of {0} and {1} have incomparable lineality spaces"),
    ("mixed-lineality", "the maximal image of {0} drops the common lineality space"),
    ("chart-fiber", "cone {1} maps into the image of {0} but is not a face of it"),
    ("non-fan-images", "images of charts {0} and {1} do not meet in a face"),
)
_INCOMPARABLE, _DROPPED, _CHART_FIBER, _NON_FAN = range(len(_OBSTRUCTIONS))


def _decide(table, sel):
    """The chart criterion on the selection mask sel, in cone indices only:
    (None, lbar, family) for a good selection, with lbar its common
    lineality cone and family its chart family ascending, or (code, a, b)
    for the obstruction _OBSTRUCTIONS[code] with witness cones a and b."""
    if not sel:
        return None, None, ()
    table.fill(sel)
    below, above, lin_le, faces = table.below, table.above, table.lin_le, table.faces
    for lbar in bits(sel):
        if lin_le[lbar] & sel == sel:
            break
    else:
        for a, b in combinations(bits(sel), 2):
            if not (lin_le[a] >> b) & 1 and not (lin_le[b] >> a) & 1:
                return _INCOMPARABLE, a, b
        keys, _ = table.fan.numbering()
        first = keys[(sel & -sel).bit_length() - 1]
        raise RuntimeError(
            f"lineality spaces of the images from cone {sorted(first)} "
            "on are pairwise comparable but have no largest element"
        )

    charts = 0
    for i in bits(sel & table.members[table.cls[lbar]]):
        if below[i] & sel == faces[i]:
            charts |= 1 << i
    family = tuple(i for i in bits(charts) if above[i] & charts == 1 << i)
    reach = 0
    for s in family:
        reach |= below[s]
    uncovered = sel & ~reach
    if uncovered:
        t = (uncovered & -uncovered).bit_length() - 1
        for m in bits(above[t] & sel):
            if not above[m] & sel & ~below[m]:
                break
        else:
            keys, _ = table.fan.numbering()
            raise RuntimeError(
                f"the image of cone {sorted(keys[t])} lies in no maximal image"
            )
        if table.cls[m] != table.cls[lbar]:
            return _DROPPED, m, lbar
        strays = below[m] & sel & ~faces[m]
        if not strays:
            keys, _ = table.fan.numbering()
            raise RuntimeError(
                f"cone {sorted(keys[m])} has a maximal image but is no chart "
                "and no cone maps into it beyond its faces"
            )
        return _CHART_FIBER, m, (strays & -strays).bit_length() - 1

    for a, b in combinations(family, 2):
        if not table.meet_is_face(a, b):
            return _NON_FAN, a, b
    return None, lbar, family


def _render(table, selection, decision):
    """The Obstruction or the QuotientFan that _decide's decision names."""
    code, a, b = decision
    if code is not None:
        keys, _ = table.fan.numbering()
        kind, detail = _OBSTRUCTIONS[code]
        return Obstruction(
            kind, detail.format(sorted(keys[a]), sorted(keys[b])), (keys[a], keys[b])
        )
    return _quotient(table, selection, a, b)


def _quotient(table, selection, lbar, family):
    proj = table.proj
    if not selection.mask:
        return QuotientFan(
            selection,
            Sublattice.from_rows(proj.rows, []),
            proj,
            table.target(proj.rows, (), frozenset()),
            chart_map={},
            orbit_map={},
            fibres={},
            geometric=True,
        )
    keys, _ = table.fan.numbering()
    faces = table.faces
    proj_full, _ = table.split_projection(lbar)
    chart_gens = [table.split_image(s, lbar).generators for s in family]
    rays = tuple(sorted({g for gens in chart_gens for g in gens}))
    ray_index = {g: i for i, g in enumerate(rays)}
    carriers, fibres = _fibres(table, selection.mask, lbar, family)
    chart_map = {
        frozenset(ray_index[g] for g in gens): keys[s]
        for s, gens in zip(family, chart_gens)
    }
    # the orbit images of a chart's faces are always exactly the faces of its
    # image: a face F of the image, cut out by a supporting functional l, is
    # the image of the chart's face cut out by l after the projection, and
    # that face's interior maps onto F's interior, so its carrier face is F.
    # Only distinctness can fail: no two faces of a chart may share a fibre.
    geometric = all(
        fibres[f] & faces[s] == 1 << f for s in family for f in bits(faces[s])
    )
    return QuotientFan(
        selection,
        table.lin[lbar],
        proj_full,
        table.target(proj_full.rows, rays, frozenset(chart_map)),
        chart_map=chart_map,
        orbit_map={
            keys[t]: frozenset(ray_index[g] for g in c) for t, c in carriers.items()
        },
        fibres=fibres,
        geometric=geometric,
    )


def _fibres(table, mask, lbar, family):
    """(carriers, fibres) of a good mask that _decide gave lbar and family:
    carriers[t] generates t's orbit image, read in the lowest family chart
    covering t (the images meet in common faces, so any would do), and
    fibres[t] masks the cones of mask with that orbit image."""
    above = table.above
    covered = sum(1 << s for s in family)
    carriers, fibre = {}, {}
    for t in bits(mask):
        cover = above[t] & covered
        c = carriers[t] = table.carrier(t, (cover & -cover).bit_length() - 1, lbar)
        fibre[c] = fibre.get(c, 0) | 1 << t
    return carriers, {t: fibre[c] for t, c in carriers.items()}


def _recorded_fibres(table, mask):
    """The fibre record of mask, which decides mask when not yet recorded;
    None, and no record, when mask has no good quotient."""
    got = table.fibres.get(mask)
    if got is None:
        code, lbar, family = _decide(table, mask)
        if code is None:
            got = table.fibres[mask] = _fibres(table, mask, lbar, family)[1]
    return got


def _outer_fibres(inner, outer, act):
    """The fibre record of outer, for an inner selection inside it."""
    if not inner <= outer:
        raise ValueError("inner selection must lie inside the outer one")
    fibres = _recorded_fibres(_table(outer.fan, act), outer.mask)
    if fibres is None:
        raise ValueError("outer selection admits no good quotient")
    return fibres


def _saturation(fibres, mask):
    """The cones sharing an orbit image with a cone of mask, by fibres."""
    sat = 0
    for t in bits(mask):
        sat |= fibres[t]
    return sat


def is_saturated(inner, outer, act):
    """Is inner the full preimage of its image inside outer's quotient?

    A cone of outer belongs to the preimage as soon as its orbit-image
    cone coincides with that of a cone of inner.
    """
    return _saturation(_outer_fibres(inner, outer, act), inner.mask) == inner.mask


def _family_closures(table):
    """The face closures of the sets of cones that pass the pairwise chart
    family tests of the module docstring, a set that holds every good
    mask.  Reads every cone's row, so the table must be filled."""
    n = len(table.img)
    faces, below, cls = table.faces, table.below, table.cls
    compat = [0] * n
    for a, b in combinations(range(n), 2):
        if (
            cls[a] == cls[b]
            and not ((faces[a] | below[a]) >> b | (faces[b] | below[b]) >> a) & 1
            and not below[a] & faces[b] & ~faces[a]
            and not below[b] & faces[a] & ~faces[b]
        ):
            compat[a] |= 1 << b
            compat[b] |= 1 << a
    # a clique grows only by higher indices, so each is visited once
    closures = set()
    stack = [(0, (1 << n) - 1)]
    while stack:
        closure, extend = stack.pop()
        closures.add(closure)
        for a in bits(extend):
            stack.append((closure | faces[a], extend & compat[a] & -(2 << a)))
    return closures


def enumerate_good_subsets(fan, act, limit=2 ** 20):
    """All face-closed selections admitting a good quotient.

    The order ideals come in enumeration order; one that is not the face
    closure of a candidate chart family (`_family_closures`) cannot be
    good and is skipped, and every other one not yet decided is decided on
    its bare mask.  Only a good one becomes a selection, with its fibre
    masks kept in the action's table and no quotient fan built, so a
    rejected ideal leaves no selection, message or memo entry behind.
    """
    table = _table(fan, act)
    if limit not in table.goods:
        candidates = None
        goods = []
        for mask in _open_masks(fan, limit):
            if mask not in table.fibres:
                if mask in table.results:  # asked for, and bad
                    continue
                if candidates is None:
                    table.fill((1 << len(table.img)) - 1)
                    candidates = _family_closures(table)
                if mask not in candidates or _recorded_fibres(table, mask) is None:
                    continue
            goods.append(SubfanSelection._of_mask(fan, mask))
        table.goods[limit] = goods
    return list(table.goods[limit])


def t_maximal_subsets(fan, act, limit=2 ** 20):
    """Selections with good quotient not properly saturated in a larger one:
    the good selections without a host.

    The 2-maximal variant also asks any two quotient points to share an
    affine neighbourhood.  Quotients here are toric, and toric varieties
    have that property (J. Włodarczyk, "Embeddings in toric varieties and
    prevarieties", J. Algebraic Geom. 2 (1993)), so the variants coincide.
    """
    goods = enumerate_good_subsets(fan, act, limit)
    table = act.image_table()
    hosts = table.hosts
    if any(u.mask not in hosts for u in goods):
        holders = [0] * len(table.img)
        for j, v in enumerate(goods):
            for c in bits(v.mask):
                holders[c] |= 1 << j
        everyone = (1 << len(goods)) - 1
        for k, u in enumerate(goods):
            larger = everyone & ~(1 << k)
            for c in bits(u.mask):
                larger &= holders[c]
            hosts[u.mask] = next(
                (
                    goods[j]
                    for j in bits(larger)
                    if _saturation(table.fibres[goods[j].mask], u.mask) == u.mask
                ),
                None,
            )
    return [u for u in goods if hosts[u.mask] is None]


def host_of(selection, act, limit=2 ** 20):
    """The host of a good selection, None when it is T-maximal; a
    ValueError for a selection without a good quotient."""
    t_maximal_subsets(selection.fan, act, limit)
    hosts = act.image_table().hosts
    if selection.mask not in hosts:
        raise ValueError("selection admits no good quotient")
    return hosts[selection.mask]


def max_saturated_inside(outer, inner, act):
    """Largest saturated selection of outer contained in inner.

    Removes every cone sharing its orbit-image cone with the complement
    of inner.
    """
    removed = _saturation(_outer_fibres(inner, outer, act), outer.mask & ~inner.mask)
    return SubfanSelection._of_mask(outer.fan, outer.mask & ~removed)


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


def remark_suite(q, act):
    """Set-calculus checks on a good quotient q by the action act via its
    orbit map: (i) images of closed invariant sets are closed, (ii) disjoint closed
    invariant sets have disjoint images, (iii) saturated opens map to
    opens restricting to good quotients.  Closed sets are exercised
    through single-cone orbit closures and saturated opens through
    principal image ideals, which generate all instances by unions and
    intersections.

    Every set is a mask: source cones over the source fan's numbering,
    orbit images over the target's.  An orbit closure is the up-set of a
    cone in the face masks, and (ii) is saturation by q's fibres; a
    saturated open is the preimage of an image ideal.

    The remark's last statement, that the trace P & C of a saturated open
    P on a closed invariant set C is saturated in C, is not checked, as it
    cannot fail when q.fibres groups the cones by q.orbit_map: `_fibres`
    builds both from one carrier table, so it holds on every quotient
    this module renders.  Proof: each P is the preimage of a set of orbit
    images, so a union of fibres.  The saturation of P & C therefore lies
    in P, so its part in C lies in P & C; and it contains P & C, since
    each cone lies in its own fibre."""
    violations = []
    fan, sel = q.source.fan, q.source.mask
    keys, _ = fan.numbering()
    faces = fan.face_masks()
    qkeys, qbit = q.fan.numbering()
    qfaces = q.fan.face_masks()
    cones = tuple(bits(sel))
    img = {t: 1 << qbit[q.orbit_map[keys[t]]] for t in cones}
    up = {t: sum(1 << k for k in cones if faces[k] >> t & 1) for t in cones}

    def image(mask):
        return sum({img[a] for a in bits(mask)})

    for t in cones:
        closure = image(up[t])
        # closed: no target cone outside the closure has a face inside it
        if any(f & closure for d, f in enumerate(qfaces) if not closure >> d & 1):
            violations.append(
                f"(i) image of the orbit closure of {sorted(keys[t])} is not closed"
            )
    saturated_up = {t: _saturation(q.fibres, up[t]) for t in cones}
    for t, s in combinations(cones, 2):
        if not up[t] & up[s] and saturated_up[t] & up[s]:
            violations.append(
                f"(ii) disjoint orbit closures of {sorted(keys[t])} and "
                f"{sorted(keys[s])} have overlapping images"
            )
    # orbit images, not all target cones: the empty selection has no orbits
    # even though the degenerate target fan still carries its zero cone
    images = image(sel)
    principal_opens = sorted(
        {0, images} | {qfaces[c] & images for c in bits(images)},
        key=lambda g: (g.bit_count(), sorted(sorted(qkeys[c]) for c in bits(g))),
    )
    for g in principal_opens:
        pre = sum(1 << t for t, c in img.items() if g & c)
        if any(faces[t] & ~pre for t in bits(pre)):
            violations.append(
                "(iii) preimage of an open image set is not an open selection"
            )
            continue
        sub = good_quotient(SubfanSelection._of_mask(fan, pre), act)
        if isinstance(sub, Obstruction):
            violations.append(
                "(iii) restriction to a saturated open is not a good quotient: "
                f"{sub.detail}"
            )
    return tuple(violations)
