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
action keeps one set of rows over its fan's cones (`_rows`), numbered as
in the fans module (cone i is bit i of a selection mask,
`Fan.face_masks()[i]` its faces), with bit rows `below[i]` (the cones
whose images img[i] contains), `above[i]` (those whose images contain
img[i]) and `lin_le[i]` (those whose lineality lattices lin[i] contains).
The first verdict that reads the rows builds all of them in one pass over
every cone: an enumeration reads every row anyway, and rows built whole
have no partial state to keep consistent.

The rows read the fan's rays, not its cones.  Every ray is projected
once per action, img[i] is the cone generated by the images of cone i's
rays, and the pass masks the rays whose images lie in img[i].  Since
img[j] is generated by the images of j's rays, img[i] contains img[j]
exactly when all of j's rays are in that mask, so each bit of below and
above is a subset test of two ray masks.  Equal lattices share a class,
and containment of lineality lattices is decided once per pair of
classes.  The ray image is the image of the fan cone: a linear map sends
the cone generated by some vectors onto the cone generated by their
images, and the rays of a key generate the same cone as the canonical
generators of `Fan.cone(key)`.  So the two images are equal cones on any
fan, even one where a ray lies inside a cone and so is not among that
cone's canonical generators.  On a fan whose cones `cone_keys` lists,
every cone's rays are its canonical generators, so both images have the
same interner key and are one object.  No cone of the fan is built
beyond the maximal ones that `cone_keys` reads.

A selection is its mask M, and the criterion is mask algebra on it:

- the common lineality cone lbar is the first i in M with
  lin_le[i] & M == M; without one, the first incomparable pair is the
  obstruction;
- i is a chart iff it is in lbar's lineality class (the rows keep a
  mask of each class, so only those cones are scanned) and
  below[i] & M == faces[i], the face mask of cone i;
- the chart family is the charts i with above[i] & C == 1 << i, where C
  is the chart mask;
- the uncovered cones are M & ~(OR of below[s] over the family); the
  witnesses of the lowest one (its maximal image m, and a cone of M in
  m's image that is not a face of m) are the lowest bits of the matching
  masks.

Every scan runs in ascending index order, which is key_order, so the
witnesses are those of a pairwise scan over the sorted selection.  A good
selection's quotient is read off the family's split images, the images
of its charts under q2 @ proj, where q2 (`quotient_lattice_map`) divides
out the saturated lineality lattice L of lbar's class: the target rays
are their generators, and the orbit image of t is the carrier face of
t's split image in the lowest family chart s covering t.  No split image
is built; each is read off the action's own image img[s].  L is the
lineality lattice of img[s], and q2 is the Hermite basis of L's
annihilator, the very q that `_canonical_generators` takes on img[s]
(Hermite bases are unique; see the cones module docstring).  So img[s]'s
canonical generators are +- a basis of L, which q2 kills, and the reduced
rays g, each lifted by a section of q2 from w = q2.g, the primitive
vector on one extreme ray of the pointed split image q2(img[s]).
Dividing out the lineality space loses nothing: the faces of img[s] and
of q2(img[s]) correspond by taking images, and a point lies in the
relative interior of a face exactly when its image lies in that of the
face's image (Cox-Little-Schenck, Toric Varieties, section 1.2).  Let p
be t's point, the projection of the sum of t's rays (`_point`), which
lies in the relative interior of img[t], so q2.p lies in that of t's
split image.  The carrier face of p in img[s] maps onto the carrier face
of q2.p in the split image, which is the carrier face of t's split
image, and its generators mapped by q2, zeros dropped and sorted, are
that face's canonical generators (`_carrier`).  The chart itself gives
its whole split image, `_carrier(act, s, s)`.  A family chart's class is
lbar's, so the carrier face depends only on t and the chart and is kept
under those two, and q2 and q2 @ proj are kept per class (`_split`).  So
no cone is built beyond the images, and no cone of the target fan.
Whether two chart images meet in a face is kept on the interned image
cones themselves (`Cone.meets_in_face`), so every action, and every
selection, that meets the same two images shares it.

Memo rule, one for the engine and the oracles: besides its inputs, the
action holds one store (`memos`).  Every fact the engine or the oracles
derive per action is a function wrapped in `_kept`, which keeps
fn(act, *args) in act.memos[fn][args], keyed by exactly the arguments
its value depends on, so no value depends on what the action was asked
before.  A kept value may be None, as the fibres and the oracles' chart
family of a bad mask are.  The keys are the functions themselves, so the
oracles' tables stay apart from the engine's, even where two functions
share a name, and neither side reads the other's.  The engine's kept
facts are the rows (`_rows`); per lineality class, q2 and q2 @ proj
(`_split`); per cone, its point (`_point`); per cone and chart, the
carrier face (`_carrier`); per chart, its top fibre (`_top_fibre`); per
selection mask, its decision (`_decide`), fibres (`_fibres`) and verdict
(`_verdict`); the clique rows (`_compatible`) and the enumeration keys
(`_shifted`); and per value, the target fans (`_target`) and the staged
lattice facts (`_residual`, `_composite`).  The goods' listing
(`_goods`) keeps nothing: its caller owns the list.

The criterion is one routine, `_decide(act, mask)`, that works on cone
indices only: it returns lbar and the chart family of a good mask, or an
obstruction code and the indices of its two witnesses.  `_verdict` turns
that into the QuotientFan or the Obstruction text, and `good_quotient`
is the verdict of the selection's mask, so only the masks it is asked
about get a quotient fan.  A mask is decided once per action, whoever
asks: `good_quotient`, `host_of` and the saturation routines all read
the kept decision.  The listings decide nothing, since the goods are the
face closures of the chart family cliques (below).

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
   swapped, since the cones of U below a are a's faces;
5. have images meeting in a common face (img[a].meets_in_face(img[b])),
   or `_decide` would reject U.
Call a set of cones passing 1-5 pairwise a clique.  Conversely, the face
closure U of a clique F is good with chart family F, so the closures of
the cliques, which `_goods` lists, are exactly the good masks:
- lbar exists, in F's lineality class.  A cone t of U is a face of a
  member s, so img[t] lies in img[s], and a linear space inside a cone
  lies in its lineality space: lin[s] contains lin[t].  The members
  share one lattice (1), so it contains every lattice of U, and the
  first cone of U whose lattice contains all of them has exactly it.
- Every member s is a chart: the cones of U are faces of members, and
  those below s that are faces of another member are faces of s (4), so
  below[s] & U == faces[s].
- The family is F.  A chart c of U outside F is a proper face of a
  member b, so b, a chart, has an image containing img[c], and c is not
  in the family.  A chart c whose image contains a member s's is a face
  of a member b, so img[b] contains img[s] and b == s (3); then c == s,
  since a proper face c of s with s below it has below[c] & U !=
  faces[c].  So no other chart's image contains a member's.
- Nothing is uncovered, since every cone of U is a face of a member.
- No pair of members fails to meet in a face (5).
So `_decide(act, U)` returns (None, lbar, F).  A clique is an antichain
under faces (2), so it is the set of maximal cones of its closure, and
distinct cliques have distinct closures.  The goods' clique search
(`_goods`) extends a set only by higher indices and ANDs the pairwise
rows, so it visits each clique once, and every clique it holds, visited
or waiting on its stack, is a distinct good.  So the search is
its own size guard: it raises SizeGuardError once the cliques it holds
number more than limit, which is exactly when the goods number more than
limit.  It checks after pushing each node's children, so it has visited
at most limit nodes and holds at most limit + n cliques for a fan with n
cones when it refuses.  The rows and `_compatible` come first, one pass
over the pairs of cones.  Each node carries its closure's enumeration
key, the union of its members' keys (`_shifted`), and distinct goods
have distinct keys, so one sort of the (key, closure) pairs puts the
goods in enumeration order.

The engine's own form of the orbit map is the fibre masks, one kept fact
`_fibres(act, mask)` for `QuotientFan.fibres` and the saturation
routines: it groups the cones of a good mask by their orbit images, the
kept carrier faces above, so fibres[t] holds the selected cones with t's
orbit image.  A rendered quotient's fibres are that kept dict itself,
and the saturation routines read it whether or not the mask has been
rendered; the enumeration groups none.  Saturation is mask algebra on
the fibres, so it renders no quotient.  The saturation of a mask A
inside the selection is the OR of the fibres of A's cones, so A is
saturated exactly when that OR is A, and the largest saturated selection
inside B removes the saturation of the cones outside B.

The host of a good selection u is the first good selection, in
enumeration order, that properly contains u and in which u is saturated;
the T-maximal selections are the goods without one.  The peels of a good
w are its masks u = w & ~fibres[w][s] at the members s of its family.
A good quotient maps saturated open subsets onto open subsets, so the
saturated open subsets are the preimages of open subfans of the target,
each good with the restricted quotient (A. A'Campo-Neuen and J. Hausen,
Tohoku Math. J. 51 (1999); J. Święcicka, Colloq. Math. 81 (1999)).  Good
quotients are unique, so the restricted quotient has the same fibres as
the engine's.  Write o_v for the orbit map of a good v: every cone of
v's target fan is an orbit image, and o_v preserves faces.
(a) Every peel is good and has w as a host.  s is a chart of w, and no
    other chart image contains its image τ = o_w(s), so τ is a maximal
    target cone.  Removing a maximal cone from a fan leaves an open
    subfan, and u = o_w⁻¹(target ∖ {τ}) is its preimage: u is
    face-closed, saturated in w, good, and misses s.
(b) Every host v of u contains a peel host.  Since u is saturated in v
    and u ≠ v, o_v(u) is an open subfan missing some target cone of v.
    Take such a cone τ minimal under faces.  Then o_v(u) ∪ {τ} is an
    open subfan, so its preimage w = u ∪ o_v⁻¹(τ) is good, lies in v,
    and has the restriction of v's quotient, in which τ is maximal.  A
    maximal cone s of w above a cone of o_v⁻¹(τ) has o_v(s) ⊇ τ, so
    o_v(s) = τ, and w peeled at s is u.
(c) The first host is a peel host.  `_open_masks` adds the cones in
    `cone_keys()` order, each new ideal holding the new cone and every
    earlier one lacking it.  So it lists the ideals sorted by their masks
    re-indexed by `cone_keys()` positions, the enumeration key
    (`_shifted`) that `enumerate_good_subsets` sorts the goods by, and a
    proper subset comes before its superset.  This need not be the
    numeric order of masks, since `numbering()` sorts cones by ray count
    and `cone_keys()` by dimension.  Let v be u's first host.  By (b) it
    contains a peel host, which is a host by (a), so not earlier than v,
    and as a subset of v not later: it is v.
The peel reads no fibre record, by the top-fibre lemma: for a good w
and a member s of its family, fibres[w][s] is top(s), the faces t of s
whose point lies in the relative interior of img[s] (`_top_fibre`),
which depends on s alone.  The orbit image of a cone t of w is the
carrier face of its split image in any family chart c whose image holds
t's, since the family images meet in common faces (see `_fibres`).  The
only family image holding img[s] is s's own (3), so o_w(s) =
carrier(s, s), the whole split image of s.  If o_w(t) = o_w(s), the
chart c read for t has a face equal to s's split image, so img[c]
contains img[s] and c == s; then t is below the chart s, so a face of
it, whose carrier face carrier(t, s) is the whole split image of s: its
split point lies in that image's relative interior.  Conversely, a face
t of s has o_w(t) = carrier(t, s), the whole split image exactly when
t's split point lies in its relative interior, that is when t's point
lies in the relative interior of img[s], by the correspondence of
relative interiors under q2 above.

The peel test finds u's host from u alone.  Call s a witness for a good
u with family F when faces[s] & ~u == top(s) and s passes 1-5 with every
member of F that is not a face of s.  Then u has a host exactly when it
has a witness, and its host is the first u | top(s) over its witnesses.
- (⇐) {s} ∪ (F ∖ faces(s)) is a clique.  Its closure w = u | top(s) is
  good with s in its family, and peeling w at s gives back u, so (a).
- (⇒) By (b) and (c) the first host is a peel host w, peeled at a member
  s of its family F_w; faces[s] lies in w, so faces[s] & ~u == top(s).
  The family of u = w & ~top(s) lies in (F_w ∖ {s}) ∪ faces(s): a
  maximal cone of u that is no face of s is below a member b ≠ s of F_w,
  which is no face of s (2), so not in top(s): it is b.  So s is a
  witness, and by (⇐) no witness gives an earlier host.
As f is a face of s exactly when s is in up[f], the witnesses lie in
~u & AND over f in F of (compat[f] | up[f]) (`_compatible`,
`_witnesses`), and u | top(s) = u | faces[s] has the key key(u) |
`_shifted`[s].

The family of a T-maximal set is a maximal clique: no cone outside it
passes 1-5 with every member.  Let u be T-maximal with family F, and
suppose a cone c passes 1-5 with every member of F.
- c is not in u: every cone of u is a face of a member, and c is no face
  of a member (2).  So F ∪ {c} is a clique, and its closure
  w = u | faces[c] is good with that family and properly contains u.
- Let V be the saturation of u in w.  The orbit images of a chart's
  faces are the faces of its image (see `_quotient`), so o_w(u) is the
  face closure of the maximal target cones o_w(f), f in F, an open
  subfan, and V, its preimage, is good with the restricted quotient, as
  in (a).
- Every f in F is maximal in V.  A cone of V properly above f is not in
  u, as it would be a face of a member other than f, which 2 forbids, so
  it is a face of c, and then so is f, which 2 forbids.  So F lies in
  V's family, its maximal cones.
- A member m of V's family has the whole split image of m as its orbit
  image (the top-fibre lemma), a maximal cone of V's target o_w(u), so
  the whole split image of some f in F.  Both images hold the lineality
  lattice that q2 divides out, so img[m] == img[f], and 3, between the
  members m and f of V's family, gives m == f.
- So V has the family F, and V = u.  Then u is saturated in the good
  w, which properly contains it: w is a host, and u is not T-maximal.
Conversely the closure of a maximal clique is good, and it is T-maximal
exactly when it has no witness.  So the T-maximal sets are the closures
of the maximal cliques without a witness, and `t_maximal_subsets` lists
no other good.  It lists the maximal cliques by Bron-Kerbosch with
Tomita pivoting (C. Bron and J. Kerbosch, Comm. ACM 16 (1973);
E. Tomita, A. Tanaka and H. Takahashi, Theoret. Comput. Sci. 363
(2006)).  A node holds a clique R, the candidates P, each compatible
with every member of R and left for its subtree to add, and the excluded
X, compatible with every member but added in an earlier branch.  R is a
maximal clique exactly when P and X are empty.  A node picks the pivot u
in P | X with the most candidates compatible with it, and branches on
each candidate v not compatible with u, moving v from P to X after its
branch.  A maximal clique K above R with K ∖ R in P holds such a v, as
otherwise K ∪ {u} would be a larger clique (u is not compatible with
itself, so not in K), so no maximal clique is lost.  A later sibling's
subtree never adds an earlier sibling's v, which every clique of the
earlier subtree holds, so every node holds a distinct clique, whose
closure is a distinct good: the search visits at most as many nodes as
there are goods.  Its guard counts nodes, so it refuses nothing whose
goods number at most limit.  At a leaf R's bits ascending are the chart
family of its closure, as `_decide` gives it, the survivors of the
witness test are sorted by their enumeration keys, and their order is
the goods' order.

A staged quotient by nested subtori (A. A'Campo-Neuen and J. Hausen,
Tohoku Math. J. 51 (1999)) reads two lattice facts, and the smaller
action's memos keep each of them once per distinct value: the residual
action on the first-stage target (its cocharacter lattice, projection and
saturation flag), and the kernel and section of the composite projection.
Their keys are IntMatrix values, never actions: a key holding the larger
action would make a cycle from that action through its memos and back,
which only the cyclic collector frees, and would keep the dead action's
cones interned.  The residual action itself is built afresh for each
comparison around the kept lattice facts.  The comparison computes no
second kernel: both kernels are saturated, so the direct projection's
equals the composite's exactly when it kills the composite kernel's
basis and has the same rank, cols minus the direct projection's rank.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import wraps
from itertools import combinations

from .cones import Cone, SizeGuardError
from .fans import (
    Fan,
    SubfanSelection,
    _union,
    bits,
    key_order,
)
from .intlat import (
    Sublattice,
    kernel_lattice,
    matrix_rank,
    quotient_lattice_map,
    split_surjection,
)


class SubtorusAction:
    """Subtorus with saturated cocharacter lattice L and projection N -> N/L.

    The per-action state lives here: `memos`, the one store of the `_kept`
    facts of the engine and the oracles, the verdicts `good_quotient` was
    asked for among them.  Since each action carries its own memos,
    actions compare by identity.
    """

    __slots__ = ("fan", "cochar", "proj", "memos")

    def __init__(self, fan, cochar, proj):
        if not cochar.saturated:
            raise ValueError("cocharacter lattice must be saturated")
        object.__setattr__(self, "fan", fan)
        object.__setattr__(self, "cochar", cochar)
        object.__setattr__(self, "proj", proj)
        object.__setattr__(self, "memos", {})  # _kept function -> {its arguments: its value}

    def __setattr__(self, name, value):
        raise AttributeError("SubtorusAction is immutable")

    def __repr__(self):
        return f"SubtorusAction(rank {self.cochar.rank} in Z^{self.fan.rank})"

    def is_trivial(self):
        return self.cochar.rank == 0

    def is_full(self):
        return self.cochar.rank == self.fan.rank


_MISSING = object()


def _kept(fn):
    """Keep fn(act, *args) in act.memos[fn][args]: the library's one memo
    rule (module docstring), one table per function, keyed by the arguments
    its value depends on.  A kept value may be None."""

    @wraps(fn)
    def kept(act, *args):
        memo = act.memos.get(fn)
        if memo is None:
            memo = act.memos[fn] = {}
        got = memo.get(args, _MISSING)
        if got is _MISSING:
            got = memo[args] = fn(act, *args)
        return got

    return kept


Rows = namedtuple("Rows", "img lin cls members below above lin_le")


@_kept
def _rows(act):
    """Everything the chart criterion reads about the action's fan cones,
    built in one pass by the ray masks of the module docstring.  Cone i is
    the fan's cone i (Fan.numbering).  Per cone: the image `img[i]`,
    generated by its rays' images, and img[i]'s lineality lattice `lin[i]`
    with class id `cls[i]` (equal ids for equal lattices, numbered in index
    order).  Per class c: the mask `members[c]` of its cones.  Per ordered
    pair: bit j of the rows `below[i]`, `above[i]` and `lin_le[i]` (each
    row holds its own bit)."""
    fan, proj = act.fan, act.proj
    keys, _ = fan.numbering()
    n = len(keys)
    ray_img = [proj.matvec(r) for r in fan.rays]
    rays = [sum(1 << r for r in k) for k in keys]
    img = [Cone.from_generators([ray_img[r] for r in sorted(k)], proj.rows) for k in keys]
    # inside[i] masks the rays whose images lie in img[i]
    inside = [
        rays[i] | sum(
            1 << r for r, v in enumerate(ray_img)
            if not rays[i] >> r & 1 and img[i].contains(v)
        )
        for i in range(n)
    ]
    below = [sum(1 << j for j in range(n) if not rays[j] & ~inside[i]) for i in range(n)]
    above = [0] * n
    for i in range(n):
        for j in bits(below[i]):
            above[j] |= 1 << i
    lin = [c.lineality_lattice() for c in img]
    classes = {}  # lineality basis -> class id
    cls = [classes.setdefault(lat.basis, len(classes)) for lat in lin]
    class_lin = [None] * len(classes)
    members = [0] * len(classes)
    for i, c in enumerate(cls):
        class_lin[c] = lin[i]
        members[c] |= 1 << i
    # row c: the cones of every class whose lattice class c's contains
    class_le = [
        sum(m for m, other in zip(members, class_lin) if lat.contains_lattice(other))
        for lat in class_lin
    ]
    return Rows(img, lin, cls, members, below, above, [class_le[c] for c in cls])


@_kept
def _split(act, c):
    """(q2, q2 @ proj) of lineality class c: q2 divides out the class's
    lineality lattice, read off its highest member."""
    rows = _rows(act)
    q2 = quotient_lattice_map(rows.lin[rows.members[c].bit_length() - 1])
    return q2, q2 @ act.proj


@_kept
def _point(act, t):
    """The projection of the sum of cone t's rays: a point in the relative
    interior of img[t], since every strictly positive combination of a
    cone's generators lies there."""
    keys, _ = act.fan.numbering()
    total = [0] * act.fan.rank
    for r in keys[t]:
        total = [x + y for x, y in zip(total, act.fan.rays[r])]
    return act.proj.matvec(total)


@_kept
def _carrier(act, t, s):
    """Generators of the carrier face of t's point in img[s], mapped by the
    q2 of s's lineality class, zeros dropped and sorted: the carrier face,
    in the split image of chart s, of the split image of cone t (module
    docstring), so t's orbit image when s is t's family chart."""
    rows = _rows(act)
    q2 = _split(act, rows.cls[s])[0]
    face = rows.img[s].carrier_generators([_point(act, t)])
    return tuple(sorted(w for w in map(q2.matvec, face) if any(w)))


@_kept
def _target(act, rank, rays, cones):
    """The target Fan(rank, rays, cones), one per distinct fan: rays a
    sorted tuple, cones a frozenset of nonzero cone keys."""
    return Fan(rank, rays, cones)


@_kept
def _residual(act, proj_full, basis):
    """(cochar, proj) of the residual action on a first stage quotient
    with projection proj_full, by the larger subtorus whose cocharacter
    basis is basis: `normalize_action` on the images."""
    return _normalized(proj_full.rows, [proj_full.matvec(b) for b in basis.entries])


@_kept
def _composite(act, proj):
    """(kernel, section) of a composite stage projection, a surjection."""
    return split_surjection(proj)


def normalize_action(fan, generators):
    """Subtorus action from cocharacter generators; the span is saturated."""
    return SubtorusAction(fan, *_normalized(fan.rank, generators))


def _normalized(rank, generators):
    """(cochar, proj) of the action of the generators' span on a fan of
    the given rank."""
    raw = Sublattice.from_rows(rank, generators)
    # the canonical kernel basis of the generators' span is the quotient map
    # by its saturation, and that map's kernel is the saturation
    proj = kernel_lattice(raw.basis).basis
    return kernel_lattice(proj), proj


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


def _check_fan(fan, act):
    if act.fan != fan:
        raise ValueError("action and selection live on different fans")


def good_quotient(selection, act):
    """QuotientFan for the selection, or an Obstruction naming a witness."""
    _check_fan(selection.fan, act)
    return _verdict(act, selection.mask)


# obstruction code -> (kind, detail over the sorted keys of witnesses a, b)
_OBSTRUCTIONS = (
    ("mixed-lineality", "images of {0} and {1} have incomparable lineality spaces"),
    ("mixed-lineality", "the maximal image of {0} drops the common lineality space"),
    ("chart-fiber", "cone {1} maps into the image of {0} but is not a face of it"),
    ("non-fan-images", "images of charts {0} and {1} do not meet in a face"),
)
_INCOMPARABLE, _DROPPED, _CHART_FIBER, _NON_FAN = range(len(_OBSTRUCTIONS))


@_kept
def _decide(act, sel):
    """The chart criterion on the selection mask sel, in cone indices only:
    (None, lbar, family) for a good selection, with lbar its common
    lineality cone and family its chart family ascending, or (code, a, b)
    for the obstruction _OBSTRUCTIONS[code] with witness cones a and b."""
    rows = _rows(act)
    if not sel:
        return None, None, ()
    below, above, lin_le, cls = rows.below, rows.above, rows.lin_le, rows.cls
    faces = act.fan.face_masks()
    for lbar in bits(sel):
        if lin_le[lbar] & sel == sel:
            break
    else:
        for a, b in combinations(bits(sel), 2):
            if not (lin_le[a] >> b) & 1 and not (lin_le[b] >> a) & 1:
                return _INCOMPARABLE, a, b
        keys, _ = act.fan.numbering()
        first = keys[(sel & -sel).bit_length() - 1]
        raise RuntimeError(
            f"lineality spaces of the images from cone {sorted(first)} "
            "on are pairwise comparable but have no largest element"
        )

    charts = 0
    for i in bits(sel & rows.members[cls[lbar]]):
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
            keys, _ = act.fan.numbering()
            raise RuntimeError(
                f"the image of cone {sorted(keys[t])} lies in no maximal image"
            )
        if cls[m] != cls[lbar]:
            return _DROPPED, m, lbar
        strays = below[m] & sel & ~faces[m]
        if not strays:
            keys, _ = act.fan.numbering()
            raise RuntimeError(
                f"cone {sorted(keys[m])} has a maximal image but is no chart "
                "and no cone maps into it beyond its faces"
            )
        return _CHART_FIBER, m, (strays & -strays).bit_length() - 1

    for a, b in combinations(family, 2):
        if not rows.img[a].meets_in_face(rows.img[b]):
            return _NON_FAN, a, b
    return None, lbar, family


@_kept
def _verdict(act, mask):
    """The Obstruction or the QuotientFan of the selection mask, on the
    selection `SubfanSelection._of_mask(act.fan, mask)`."""
    code, a, b = _decide(act, mask)
    if code is None:
        return _quotient(act, mask, a, b)
    keys, _ = act.fan.numbering()
    kind, detail = _OBSTRUCTIONS[code]
    return Obstruction(
        kind, detail.format(sorted(keys[a]), sorted(keys[b])), (keys[a], keys[b])
    )


def _quotient(act, mask, lbar, family):
    proj = act.proj
    selection = SubfanSelection._of_mask(act.fan, mask)
    carriers, fibres = _fibres(act, mask)
    if not mask:
        return QuotientFan(
            selection,
            Sublattice.from_rows(proj.rows, []),
            proj,
            _target(act, proj.rows, (), frozenset()),
            chart_map={},
            orbit_map={},
            fibres=fibres,
            geometric=True,
        )
    keys, _ = act.fan.numbering()
    faces = act.fan.face_masks()
    rows = _rows(act)
    proj_full = _split(act, rows.cls[lbar])[1]
    chart_gens = [_carrier(act, s, s) for s in family]
    rays = tuple(sorted({g for gens in chart_gens for g in gens}))
    ray_index = {g: i for i, g in enumerate(rays)}
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
        rows.lin[lbar],
        proj_full,
        _target(act, proj_full.rows, rays, frozenset(k for k in chart_map if k)),
        chart_map=chart_map,
        orbit_map={
            keys[t]: frozenset(ray_index[g] for g in c) for t, c in carriers.items()
        },
        fibres=fibres,
        geometric=geometric,
    )


@_kept
def _fibres(act, mask):
    """(carriers, fibres) of the mask, None when it has no good quotient:
    carriers[t] generates t's orbit image, read in the lowest chart of the
    family `_decide` gives covering t (the images meet in common faces, so
    any would do), and fibres[t] masks the cones of mask with that orbit
    image."""
    code, _, family = _decide(act, mask)
    if code is not None:
        return None
    above = _rows(act).above
    covered = sum(1 << s for s in family)
    carriers, fibre = {}, {}
    for t in bits(mask):
        cover = above[t] & covered
        c = carriers[t] = _carrier(act, t, (cover & -cover).bit_length() - 1)
        fibre[c] = fibre.get(c, 0) | 1 << t
    return carriers, {t: fibre[c] for t, c in carriers.items()}


def _outer_fibres(inner, outer, act):
    """The fibre masks of outer, for an inner selection inside it."""
    if not inner <= outer:
        raise ValueError("inner selection must lie inside the outer one")
    _check_fan(outer.fan, act)
    got = _fibres(act, outer.mask)
    if got is None:
        raise ValueError("outer selection admits no good quotient")
    return got[1]


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


@_kept
def _compatible(act):
    """compat[a]: the mask of the cones b that pass the clique tests 1-5 of
    the module docstring with a.  The relation is symmetric."""
    rows = _rows(act)
    faces, below, cls, img = act.fan.face_masks(), rows.below, rows.cls, rows.img
    compat = [0] * len(faces)
    for a, b in combinations(range(len(faces)), 2):
        if (
            cls[a] == cls[b]
            and not ((faces[a] | below[a]) >> b | (faces[b] | below[b]) >> a) & 1
            and not below[a] & faces[b] & ~faces[a]
            and not below[b] & faces[a] & ~faces[b]
            and img[a].meets_in_face(img[b])
        ):
            compat[a] |= 1 << b
            compat[b] |= 1 << a
    return compat


@_kept
def _shifted(act):
    """The enumeration key of each cone's face mask, re-indexed by
    `cone_keys()` positions ((c) of the module docstring); a union's key is
    the union of the keys."""
    _, bit = act.fan.numbering()
    position = {bit[k]: 1 << p for p, k in enumerate(act.fan.cone_keys())}
    return [_union(position[t] for t in bits(f)) for f in act.fan.face_masks()]


def _goods(act, limit):
    """Every good mask in enumeration order: the face closures of the
    cliques of the clique graph of the module docstring, sorted by their
    enumeration keys.  More than limit goods raise SizeGuardError."""
    faces, compat, shifted = act.fan.face_masks(), _compatible(act), _shifted(act)
    # a clique grows only by higher indices, so each is visited once
    found = []  # (enumeration key, closure) of each clique visited
    stack = [(0, 0, (1 << len(faces)) - 1)]
    while stack:
        closure, key, extend = stack.pop()
        found.append((key, closure))
        for a in bits(extend):
            stack.append(
                (closure | faces[a], key | shifted[a], extend & compat[a] & -(2 << a))
            )
        # every clique held, visited or stacked, is a distinct good
        if len(found) + len(stack) > limit:
            raise SizeGuardError(f"more than {limit} good subsets")
    found.sort()  # distinct goods have distinct keys
    return [u for _, u in found]


@_kept
def _top_fibre(act, s):
    """The faces t of chart s whose point lies in the relative interior of
    img[s]: s's fibre in every good selection whose chart family holds s
    (the top-fibre lemma of the module docstring)."""
    image = _rows(act).img[s]
    return sum(
        1 << t for t in bits(act.fan.face_masks()[s])
        if image.contains_in_relative_interior(_point(act, t))
    )


def _witnesses(act, u, family, faces, ups, compat):
    """The witnesses of the good mask u with chart family `family`, in
    index order: one top-fibre test per cone the module docstring allows,
    so none when it allows none.  faces, ups and compat are the fan's face
    and up masks and `_compatible(act)`, which the caller reads once."""
    candidates = ((1 << len(faces)) - 1) & ~u
    for f in family:
        candidates &= compat[f] | ups[f]
    return (s for s in bits(candidates) if faces[s] & ~u == _top_fibre(act, s))


def enumerate_good_subsets(fan, act, limit=2 ** 20):
    """All face-closed selections admitting a good quotient, in enumeration
    order.

    The goods are the clique closures `_goods` lists, and nothing of the
    listing is kept.  No selection is decided and no quotient is rendered:
    `good_quotient` and the saturation routines decide on demand.  More
    than limit goods raise SizeGuardError once the clique search has found
    them.
    """
    _check_fan(fan, act)
    return [SubfanSelection._of_mask(fan, mask) for mask in _goods(act, limit)]


def t_maximal_subsets(fan, act, limit=2 ** 20):
    """Selections with good quotient not properly saturated in a larger one:
    the closures of the maximal cliques without a witness, so without a
    host, in enumeration order.

    The maximal cliques of the `_compatible` rows are listed by
    Bron-Kerbosch with Tomita pivoting, one stack of (clique, closure,
    candidates, excluded) masks; a node with neither candidates nor
    excluded cones holds a maximal clique, whose bits ascending are its
    closure's chart family.  No good beyond those closures is listed (see
    the module docstring).  Every node holds a distinct clique, so a
    distinct good: popping a node after limit visited ones raises
    SizeGuardError, which never happens when the goods number at most
    limit.

    The 2-maximal variant also asks any two quotient points to share an
    affine neighbourhood.  Quotients here are toric, and toric varieties
    have that property (J. Włodarczyk, "Embeddings in toric varieties and
    prevarieties", J. Algebraic Geom. 2 (1993)), so the variants coincide.
    """
    _check_fan(fan, act)
    faces, ups = act.fan.face_masks(), act.fan.up_masks()
    compat, shifted = _compatible(act), _shifted(act)
    found = []  # (enumeration key, closure) of each maximal clique kept
    visited = 0
    stack = [(0, 0, (1 << len(faces)) - 1, 0)]
    while stack:
        clique, closure, cands, excluded = stack.pop()
        if visited >= limit:
            raise SizeGuardError(f"more than {limit} clique search nodes")
        visited += 1
        if not cands:
            if not excluded:
                family = tuple(bits(clique))
                if next(_witnesses(act, closure, family, faces, ups, compat), None) is None:
                    found.append((_union(shifted[s] for s in family), closure))
            continue
        most = -1
        for u in bits(cands | excluded):
            n = (cands & compat[u]).bit_count()
            if n > most:
                most, pivot = n, u
        for v in bits(cands & ~compat[pivot]):
            c = compat[v]
            stack.append((clique | 1 << v, closure | faces[v], cands & c, excluded & c))
            cands &= ~(1 << v)
            excluded |= 1 << v
    found.sort()  # distinct goods have distinct keys
    return [SubfanSelection._of_mask(fan, u) for _, u in found]


def host_of(selection, act):
    """The host of a good selection, None when it is T-maximal; a
    ValueError for a selection without a good quotient.  It reads the
    selection's kept decision and tests its witnesses, and lists no goods."""
    _check_fan(selection.fan, act)
    u = selection.mask
    code, _, family = _decide(act, u)
    if code is not None:
        raise ValueError("selection admits no good quotient")
    faces, shifted = act.fan.face_masks(), _shifted(act)
    key = _union(shifted[f] for f in family)
    witnesses = _witnesses(act, u, family, faces, act.fan.up_masks(), _compatible(act))
    s = min(witnesses, key=lambda s: key | shifted[s], default=None)
    return None if s is None else SubfanSelection._of_mask(selection.fan, u | faces[s])


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
            first, None, direct, equal=None,
            consistent=isinstance(direct, Obstruction), detail="no first-stage quotient",
        )
    residual = SubtorusAction(
        first.fan, *_residual(act_small, first.proj_full, act_large.cochar.basis)
    )
    second = good_quotient(first.fan.full_selection(), residual)
    if isinstance(second, Obstruction) or isinstance(direct, Obstruction):
        both_fail = isinstance(second, Obstruction) and isinstance(direct, Obstruction)
        return StagedComparison(
            first, second, direct, equal=None, consistent=both_fail,
            detail="consistent nonexistence" if both_fail else "one side exists",
        )

    def differ(detail):
        return StagedComparison(
            first, second, direct, equal=False, consistent=False, detail=detail
        )

    kernel, section = _composite(act_small, second.proj_full @ first.proj_full)
    proj = direct.proj_full  # both kernels are saturated (module docstring)
    if any(any(proj.matvec(b)) for b in kernel.basis.entries) or (
        proj.cols - matrix_rank(proj.entries, proj.cols) != kernel.rank
    ):
        return differ("composite and direct projections have different kernels")
    phi = direct.proj_full @ section
    if not phi.is_unimodular():
        return differ("no unimodular identification of the targets")
    mapped_rays = [tuple(phi.matvec(r)) for r in second.fan.rays]
    if set(mapped_rays) != set(direct.fan.rays):
        return differ("target fans have different rays")
    to_direct = {i: direct.fan.rays.index(r) for i, r in enumerate(mapped_rays)}
    mapped_cones = {frozenset(to_direct[i] for i in c) for c in second.fan.max_cones}
    if mapped_cones != set(direct.fan.max_cones):
        return differ("target fans have different maximal cones")
    for t in sorted(selection.keys, key=key_order):
        staged_key = second.orbit_map[first.orbit_map[t]]
        if frozenset(to_direct[i] for i in staged_key) != direct.orbit_map[t]:
            return differ(f"orbit maps disagree at cone {sorted(t)}")
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
    cone (`Fan.up_masks`); a set of target cones is closed when it holds
    the up-set of each of its cones; (ii) is saturation by q's fibres; and
    a saturated open is the preimage of an image ideal, whose verdict is
    the kept `_verdict` of its mask.  The violations come in the order of
    the principal opens (by size, then keys), which are sorted only when
    one of them violates.

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
    _check_fan(fan, act)
    keys, _ = fan.numbering()
    faces = fan.face_masks()
    qkeys, qbit = q.fan.numbering()
    qup = q.fan.up_masks()
    up = [u & sel for u in fan.up_masks()]
    cones = tuple(bits(sel))
    img = {t: 1 << qbit[q.orbit_map[keys[t]]] for t in cones}

    def image(mask):
        got = 0
        for a in bits(mask):
            got |= img[a]
        return got

    for t in cones:
        closure = image(up[t])
        if any(qup[c] & ~closure for c in bits(closure)):
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
    qfaces = q.fan.face_masks()
    failed = {}
    for g in {0, images} | {qfaces[c] & images for c in bits(images)}:
        pre = sum(1 << t for t, c in img.items() if g & c)
        if any(faces[t] & ~pre for t in bits(pre)):
            failed[g] = "(iii) preimage of an open image set is not an open selection"
            continue
        sub = _verdict(act, pre)
        if isinstance(sub, Obstruction):
            failed[g] = (
                "(iii) restriction to a saturated open is not a good quotient: "
                f"{sub.detail}"
            )
    violations.extend(failed[g] for g in sorted(
        failed, key=lambda g: (g.bit_count(), sorted(sorted(qkeys[c]) for c in bits(g)))
    ))
    return tuple(violations)
