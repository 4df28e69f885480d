"""Facts kept on interned cones, against the routines that recompute them.

A fan's face lattice (`Fan.cone_keys`, its numbering, face and up masks)
reads the face generator tuples that the maximal cones keep, and
`Cone.meets_in_face` keeps its verdict on both cones.  The references
below are the unmemoized routines, with one matrix rank per key, masks
by the subset definition and the meet by `intersect` and `is_face_of`, so
a memo that a cone carries over from an earlier fan or action cannot
change an answer.
"""

from itertools import combinations_with_replacement

import pytest
from test_quotients import TABLE_CASES

from toricgit import cones, fans, quotients
from toricgit.cones import Cone
from toricgit.corpus import actions_for, corpus_fans
from toricgit.fans import Fan, key_order
from toricgit.intlat import dot, matrix_rank
from toricgit.quotients import enumerate_good_subsets, good_quotient, normalize_action

SIX_RAYS = next(f for f in corpus_fans() if len(f.rays) == 6)


def recomputed_cone_keys(fan):
    """`Fan.cone_keys` with faces cut afresh from the facets and one rank
    per key from the key's rays."""
    found = {frozenset()}
    for top in fan.max_cones:
        interior = fan._interior_rays(top)
        if interior:
            raise ValueError(f"ray {interior[0]} is interior to cone {sorted(top)}")
        cone = fan.cone(top)
        faces = {cone.generators}
        frontier = [cone.generators]
        while frontier:
            nxt = []
            for gens in frontier:
                for phi in cone.facets:
                    cut = tuple(g for g in gens if dot(phi, g) == 0)
                    if cut not in faces:
                        faces.add(cut)
                        nxt.append(cut)
            frontier = nxt
        for gens in faces:
            found.add(frozenset(i for i in top if fan.rays[i] in gens))
    rank = {k: matrix_rank([fan.rays[i] for i in k], fan.rank) for k in found}
    return tuple(sorted(found, key=lambda k: (rank[k], sorted(k))))


def subset_masks(fan):
    """Face and up masks over the key_order numbering by their definition:
    cone j is a face of cone i exactly when key j lies in key i."""
    keys = sorted(fan.cone_keys(), key=key_order)
    faces = [sum(1 << j for j, f in enumerate(keys) if f <= k) for k in keys]
    ups = [sum(1 << j for j, u in enumerate(keys) if k <= u) for k in keys]
    return faces, ups


def sheared(fan):
    """The fan moved by the unimodular shear x0 += 101 x1: its maximal cones
    are new values, which no other fan holds interned."""
    rays = [(r[0] + 101 * r[1],) + r[1:] for r in fan.rays]
    return Fan(fan.rank, rays, fan.max_cones)


def recomputed_meets_in_face(a, b):
    meet = a.intersect(b)
    return meet.is_face_of(a) and meet.is_face_of(b)


def fresh(fan):
    return Fan(fan.rank, fan.rays, fan.max_cones)


FANS = {f"corpus{i}": fan for i, fan in enumerate(corpus_fans())}
FANS.update({case: fan for case, (fan, _) in TABLE_CASES.items()})


def trivial_targets():
    """The target fans of the good selections on the six-ray fan under the
    trivial subtorus, where every selection is good."""
    act = normalize_action(SIX_RAYS, [])
    return [
        good_quotient(sel, act).fan for sel in enumerate_good_subsets(SIX_RAYS, act)
    ]


class TestConeKeys:
    @pytest.mark.parametrize("case", sorted(FANS))
    def test_fresh_and_warm_fans(self, case):
        fan = FANS[case]
        want = recomputed_cone_keys(fresh(fan))
        assert fresh(fan).cone_keys() == want
        # a second equal fan reads the faces its maximal cones now keep
        assert fresh(fan).cone_keys() == want
        assert fan.cone_keys() == want

    @pytest.mark.parametrize("case", sorted(FANS))
    def test_face_and_up_masks_are_key_inclusion(self, case):
        fan = FANS[case]
        faces, ups = subset_masks(fan)
        for built in (fresh(fan), fan):
            assert built.numbering()[0] == tuple(sorted(built.cone_keys(), key=key_order))
            assert built.face_masks() == faces
            assert built.up_masks() == ups

    def test_target_fans_of_the_trivial_subtorus_on_six_rays(self):
        targets = trivial_targets()
        assert len({(t.rays, t.max_cones) for t in targets}) > 1
        for target in targets:
            want = recomputed_cone_keys(target)
            assert target.cone_keys() == want, target
            assert fresh(target).cone_keys() == want, target

    @pytest.mark.parametrize("case", ["full_cube_123", "p4_1234", "pyramid_123"])
    def test_listing_a_fresh_fan_ranks_only_its_maximal_cones(self, monkeypatch, case):
        # the dimensions come from the face lattice, so no face is ranked;
        # one rank per maximal cone tells the simplicial ones, whose faces
        # are subsets of their keys, and only the others are built here by
        # double description
        fan = sheared(FANS[case])
        non_simplicial = len(non_simplicial_tops(fan))
        calls = {"matrix_rank": 0, "dd_solve": 0, "top_rank": 0}

        def counted(module, name, tally):
            real = getattr(module, name)

            def run(*args):
                calls[tally] += 1
                return real(*args)

            return run

        monkeypatch.setattr(cones, "matrix_rank", counted(cones, "matrix_rank", "matrix_rank"))
        monkeypatch.setattr(cones, "dd_solve", counted(cones, "dd_solve", "dd_solve"))
        monkeypatch.setattr(fans, "matrix_rank", counted(fans, "matrix_rank", "top_rank"))
        keys = fan.cone_keys()
        assert calls["matrix_rank"] == 0 and calls["top_rank"] == len(fan.max_cones)
        assert non_simplicial <= calls["dd_solve"] <= 2 * non_simplicial
        monkeypatch.undo()
        assert keys == recomputed_cone_keys(fan)


def lattice_routes(fan):
    """`fan.cone_keys()` and the keys of the maximal cones that listing
    built; the fan must be fresh, so that no earlier call built them."""
    built = set()
    cone = Fan.cone

    def spied(self, key):
        if self is fan:
            built.add(frozenset(key))
        return cone(self, key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fan, "cone", spied)
        keys = fan.cone_keys()
    return keys, built


def non_simplicial_tops(fan):
    return {top for top in fan.max_cones
            if matrix_rank([fan.rays[i] for i in top], fan.rank) < len(top)}


class TestSimplicialLattice:
    # a maximal cone with linearly independent rays gives the subsets of
    # its key as faces and builds no cone; only the others are built
    @pytest.mark.parametrize("case, move", [
        (case, move) for case in sorted(FANS) for move in (fresh, sheared)
        if move is fresh or FANS[case].rank > 1  # a shear needs two coordinates
    ])
    def test_keys_and_routes(self, case, move):
        fan = move(FANS[case])
        keys, built = lattice_routes(fan)
        assert built == non_simplicial_tops(fan)
        assert keys == recomputed_cone_keys(move(FANS[case]))

    def test_the_pyramid_takes_both_routes(self):
        fan = sheared(FANS["pyramid_123"])
        _, built = lattice_routes(fan)
        assert len(built) == 1 and len(fan.max_cones) == 5

    @pytest.mark.parametrize("move", [fresh, sheared])
    def test_an_interior_ray_of_a_non_simplicial_cone_still_raises(self, move):
        # cone [0, 1, 2] is simplicial and listed first; ray 5 is
        # -e0 - e1 + e2, inside the non-simplicial cone [2, 3, 4, 5]
        fan = move(Fan(
            3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (-1, -1, 1)],
            [{0, 1, 2}, {2, 3, 4, 5}],
        ))
        with pytest.raises(ValueError, match=r"^ray 5 is interior to cone \[2, 3, 4, 5\]$"):
            fan.cone_keys()


def engine_images(fan, gens=None):
    """The image cones of every action of a corpus fan, or of the case's
    action, from the engine's rows."""
    acts = actions_for(fan) if gens is None else [normalize_action(fan, gens)]
    return [quotients._rows(act).img for act in acts]


class TestMeetsInFace:
    @pytest.mark.parametrize("case", sorted(FANS))
    def test_maximal_cones_and_engine_images(self, case):
        fan = FANS[case]
        gens = TABLE_CASES[case][1] if case in TABLE_CASES else None
        groups = [[fan.cone(top) for top in fan.max_cones]] + engine_images(fan, gens)
        for group in groups:
            for a, b in combinations_with_replacement(group, 2):
                want = recomputed_meets_in_face(a, b)
                assert a.meets_in_face(b) == b.meets_in_face(a) == want, (a, b)
                assert a.meets_in_face(b) == want

    def test_the_verdict_is_kept_on_both_cones(self, monkeypatch):
        a = Cone.from_generators([(1, 0), (1, 7)], 2)
        b = Cone.from_generators([(1, 3), (1, -5)], 2)
        calls = 0
        add = cones._dd_add

        def counted(*args):
            nonlocal calls
            calls += 1
            return add(*args)

        monkeypatch.setattr(cones, "_dd_add", counted)
        first = a.meets_in_face(b)
        assert [b.meets_in_face(a), a.meets_in_face(b)] == [first, first]
        assert calls == 1  # by the first meets_in_face; the others read the verdict
        monkeypatch.undo()
        assert first == recomputed_meets_in_face(a, b) is False

    @pytest.mark.parametrize("d, e", [(2, 3), (3, 2), (1, 4)])
    def test_an_ambient_mismatch_raises_even_after_a_kept_verdict(self, d, e):
        # the zero cone has the generators () in every ambient
        zero_d, zero_e = Cone.zero(d), Cone.zero(e)
        assert zero_d.meets_in_face(zero_d) and zero_e.meets_in_face(zero_e)
        with pytest.raises(ValueError, match="ambient mismatch"):
            zero_d.meets_in_face(zero_e)
        with pytest.raises(ValueError, match="ambient mismatch"):
            Cone.full(d).meets_in_face(zero_e)
