"""Fan model tests: validation, completeness, subsets, orbits, symmetries."""

import random
from itertools import combinations, product

import pytest
from test_memos import FANS

from toricgit.fans import (
    Fan,
    FanAutomorphism,
    SizeGuardError,
    SubfanSelection,
    _open_masks,
    bits,
    enumerate_open_subsets,
    is_complete,
    is_simplicial,
    limit_of_generic_point,
    validate_fan,
)
from toricgit.intlat import IntMatrix, right_inverse_of_surjection
from toricgit.quotients import enumerate_good_subsets, normalize_action
from toricgit.symmetry import SymmetryGroup

P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
A1 = Fan(1, [(1,)], [{0}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P1XP1 = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
P112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
SQUARE = Fan(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [{0, 1, 2, 3}])
TORUS2 = Fan(2, [], [])
POINT = Fan(0, [], [])

COMPLETE = [P1, P2, P1XP1, P112, POINT]
INCOMPLETE = [A1, C2, SQUARE, TORUS2]


class TestConstructionAndValidation:
    def test_p2_valid(self):
        report = validate_fan(P2)
        assert report.valid and not report.problems

    def test_overlapping_cones_invalid_with_witness(self):
        overlap = Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}])
        report = validate_fan(overlap)
        assert not report.valid
        assert report.witness == (frozenset({0, 1}), frozenset({2, 3}))

    def test_empty_fan_valid(self):
        assert validate_fan(TORUS2).valid
        assert TORUS2.cone_keys() == (frozenset(),)

    def test_interior_ray_reported(self):
        fan = Fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])
        report = validate_fan(fan)
        assert not report.valid
        assert any("interior" in p for p in report.problems)

    def test_non_convex_cone_reported(self):
        fan = Fan(1, [(1,), (-1,)], [{0, 1}])
        report = validate_fan(fan)
        assert not report.valid
        assert any("strongly convex" in p for p in report.problems)

    @pytest.mark.parametrize("fan, problems", [
        (Fan(2, [(1, 0), (0, 1), (1, 1), (-1, 1)], [{0, 1}, {2, 3}]),
         ("cones [0, 1] and [2, 3] intersect in a non-face",)),
        (Fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}]),
         ("ray 2 is interior to cone [0, 1, 2]",)),
        (Fan(1, [(1,), (-1,)], [{0, 1}]),
         ("cone [0, 1] is not strongly convex",
          "ray 0 is interior to cone [0, 1]", "ray 1 is interior to cone [0, 1]")),
        (Fan(2, [(1, 0), (0, 1)], [{0}]), ("ray 1 occurs in no maximal cone",)),
        (Fan(2, [(1, 0), (0, 1), (1, 1), (-1, -1)], [{0, 1}, {0, 2}, {1, 3}]),
         ("maximal cone contains another: [0, 1], [0, 2]",)),
        # a half-plane: not pointed, so none of its rays spans a face
        (Fan(2, [(1, 0), (-1, 0), (0, 1)], [{0, 1, 2}]),
         ("cone [0, 1, 2] is not strongly convex",
          "ray 0 is interior to cone [0, 1, 2]", "ray 1 is interior to cone [0, 1, 2]",
          "ray 2 is interior to cone [0, 1, 2]")),
    ])
    def test_problem_messages(self, fan, problems):
        assert validate_fan(fan).problems == problems

    def test_cone_keys_refuses_a_maximal_cone_with_an_interior_ray(self):
        fan = Fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}])
        with pytest.raises(ValueError, match=r"^ray 2 is interior to cone \[0, 1, 2\]$"):
            fan.cone_keys()

    def test_unused_ray_reported(self):
        fan = Fan(2, [(1, 0), (0, 1)], [{0}])
        assert not validate_fan(fan).valid

    def test_constructor_rejections(self):
        with pytest.raises(ValueError):
            Fan(2, [(2, 0)], [{0}])
        with pytest.raises(ValueError):
            Fan(2, [(1, 0), (1, 0)], [{0, 1}])
        with pytest.raises(ValueError):
            Fan(2, [(1, 0)], [{0, 3}])
        with pytest.raises(ValueError):
            Fan(2, [(1, 0, 0)], [{0}])

    def test_selection_must_be_face_closed(self):
        with pytest.raises(ValueError):
            SubfanSelection(P1, [frozenset({0})])
        sel = SubfanSelection(P1, [frozenset(), frozenset({0})])
        assert frozenset({0}) in sel and frozenset({1}) not in sel


class TestCompleteness:
    def test_frozen_examples(self):
        assert is_complete(P1)
        assert not is_complete(C2)
        assert is_complete(P2)
        assert is_complete(POINT)
        assert not is_complete(TORUS2)

    def test_a_maximal_cone_that_is_no_cone_key(self):
        # ray 2 is interior, so cone_keys() refuses this non-fan, and the
        # ridges read off the facets of the quadrant are unpaired
        assert not is_complete(Fan(2, [(1, 0), (0, 1), (1, 1)], [{0, 1, 2}]))

    def test_sampling_oracle(self):
        rng = random.Random(20260817)
        for fan in COMPLETE + INCOMPLETE:
            if fan.rank == 0:
                continue
            hits = 0
            for _ in range(500):
                v = tuple(rng.randint(-9, 9) for _ in range(fan.rank))
                if any(fan.cone(k).contains(v) for k in fan.max_cones) or not any(v):
                    hits += 1
            if is_complete(fan):
                assert hits == 500
            else:
                assert hits < 500

    def test_limit_exists_everywhere_iff_complete(self):
        rng = random.Random(99)
        for fan in COMPLETE + INCOMPLETE:
            if fan.rank == 0:
                continue
            vs = [tuple(rng.randint(-5, 5) for _ in range(fan.rank)) for _ in range(200)]
            all_exist = all(limit_of_generic_point(fan, v) is not None for v in vs)
            assert all_exist == is_complete(fan)


class TestSimplicialSmooth:
    def test_examples(self):
        assert is_simplicial(P2)
        assert not is_simplicial(SQUARE)
        assert is_simplicial(P1XP1) and is_simplicial(P112)


class TestOpenSubsets:
    def test_counts(self):
        assert len(enumerate_open_subsets(P1)) == 5
        assert len(enumerate_open_subsets(A1)) == 3
        assert len(enumerate_open_subsets(TORUS2)) == 2

    def test_p1_members(self):
        got = {sel.keys for sel in enumerate_open_subsets(P1)}
        z = frozenset()
        assert got == {
            frozenset(),
            frozenset({z}),
            frozenset({z, frozenset({0})}),
            frozenset({z, frozenset({1})}),
            frozenset({z, frozenset({0}), frozenset({1})}),
        }

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_open_subsets(P2, limit=4)

    @pytest.mark.parametrize(
        "fan", [P1, P2, P1XP1, FANS["nine_ray_12"]], ids=["P1", "P2", "P1xP1", "nine-ray"]
    )
    def test_the_guard_fires_exactly_above_the_count(self, fan):
        count = len(_open_masks(fan, 2 ** 20))
        for limit in range(1, count + 2):
            if count > limit:
                with pytest.raises(SizeGuardError, match=f"^more than {limit} open subsets$"):
                    _open_masks(fan, limit)
            else:
                assert len(_open_masks(fan, limit)) == count

    @pytest.mark.parametrize("case", sorted(FANS))
    def test_the_corpus_listing_is_refused_just_below_its_length(self, case):
        fan = FANS[case]
        ideals = _open_masks(fan, 2 ** 20)
        assert _open_masks(fan, len(ideals)) == ideals
        assert [sel.mask for sel in enumerate_open_subsets(fan, limit=len(ideals))] == ideals
        with pytest.raises(
            SizeGuardError, match=f"^more than {len(ideals) - 1} open subsets$"
        ):
            _open_masks(fan, len(ideals) - 1)

    def test_matches_brute_force_on_small_fans(self):
        for fan in [P1, A1, C2, P2, P1XP1]:
            keys = fan.cone_keys()
            if len(keys) > 13:
                continue
            (numbered, bit), faces = fan.numbering(), fan.face_masks()
            count = 0
            for r in range(len(keys) + 1):
                for sub in combinations(keys, r):
                    chosen = set(sub)
                    if all(all(numbered[j] in chosen for j in bits(faces[bit[k]]))
                           for k in chosen):
                        count += 1
            assert len(enumerate_open_subsets(fan)) == count


P3 = Fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
         [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}])
# cones over the facets x = 1 and y = 1 of the cube [-1, 1]^3: four rays each
CUBE_RAYS = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)
             if x == 1 or y == 1]
CUBE_TWO_FACETS = Fan(
    3, CUBE_RAYS, [[i for i, r in enumerate(CUBE_RAYS) if r[axis] == 1] for axis in (0, 1)]
)
# a 3-cone over a pentagon and a simplicial 4-cone meeting at the origin:
# the 4-cone (four rays) precedes the pentagon (five rays) in key_order but
# follows it in the rank order of cone_keys()
PENTAGON_AND_SIMPLEX = Fan(
    4,
    [(1, 0, 1, 0), (1, 1, 1, 0), (0, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0),
     (1, 0, -1, 0), (0, 1, -1, 0), (0, 0, -1, 1), (0, 0, -1, -1)],
    [range(5), range(5, 9)],
)
MASK_FANS = [P3, CUBE_TWO_FACETS, PENTAGON_AND_SIMPLEX]


# Selections as key sets, the way they were checked and enumerated before
# they carried masks; the mask routines must reproduce them exactly.
def set_based_faces(fan, key):
    return tuple(k for k in fan.cone_keys() if k <= key)


def set_based_open_subsets(fan):
    ideals = [frozenset()]
    for k in fan.cone_keys():
        below = frozenset(f for f in fan.cone_keys() if f < k)
        ideals = ideals + [ideal | {k} for ideal in ideals if below <= ideal]
    return ideals


def set_based_rejection(fan, keys):
    """The ValueError text of the set-based check, None if it accepts."""
    keys = frozenset(frozenset(k) for k in keys)
    all_keys = set(fan.cone_keys())
    for k in keys:
        if k not in all_keys:
            return f"{sorted(k)} is not a cone of the fan"
    for k in keys:
        for f in set_based_faces(fan, k):
            if f not in keys:
                return f"selection not face-closed: {sorted(k)} without {sorted(f)}"
    return None


def seeded_key_sets(fan, rng, count):
    """Random cone sets, their face closures, and sets with a non-cone key."""
    keys = fan.cone_keys()
    rays = range(len(fan.rays))
    for _ in range(count):
        chosen = rng.sample(keys, rng.randint(0, len(keys)))
        yield chosen
        yield sorted({f for k in chosen for f in set_based_faces(fan, k)}, key=sorted)
        stray = frozenset(rng.sample(rays, rng.randint(2, len(rays))))
        yield chosen + [stray]


def mask_of(fan, keys):
    _, bit = fan.numbering()
    return sum(1 << bit[k] for k in keys)


class TestSelectionsOfAnotherFan:
    # bit i names different cones on different fans: the P2 mask of
    # {(), (2)} is 0b1001, which on C2 would be {(), (0,1)}
    OTHER = SubfanSelection(P2, [frozenset(), frozenset({2})])

    @pytest.mark.parametrize("compare", [
        lambda a, b: a <= b,
        lambda a, b: a < b,
        lambda a, b: a.union(b),
        lambda a, b: a.intersection(b),
    ], ids=["le", "lt", "union", "intersection"])
    def test_mask_algebra_rejects_another_fan(self, compare):
        with pytest.raises(ValueError, match="different fans"):
            compare(self.OTHER, C2.full_selection())
        with pytest.raises(ValueError, match="different fans"):
            compare(C2.full_selection(), self.OTHER)

    def test_an_equal_fan_is_the_same_fan(self):
        twin = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 2}, {1, 2}, {0, 1}])
        inner = SubfanSelection(twin, [frozenset(), frozenset({2})])
        assert inner <= P2.full_selection() and inner < P2.full_selection()
        assert inner.union(P2.full_selection()) == P2.full_selection()
        assert inner.intersection(self.OTHER).keys == self.OTHER.keys


class TestConeNumbering:
    def test_the_orders_differ_on_the_rank_four_fan(self):
        assert validate_fan(PENTAGON_AND_SIMPLEX).valid
        keys, _ = PENTAGON_AND_SIMPLEX.numbering()
        assert list(keys) != list(PENTAGON_AND_SIMPLEX.cone_keys())

    @pytest.mark.parametrize("fan", MASK_FANS)
    def test_numbering_is_key_order_and_depends_only_on_the_value(self, fan):
        keys, bit = fan.numbering()
        assert list(keys) == sorted(fan.cone_keys(), key=lambda k: (len(k), sorted(k)))
        assert all(bit[k] == i for i, k in enumerate(keys))
        same = Fan(fan.rank, fan.rays, reversed(fan.max_cones))
        assert same.numbering() == (keys, bit)

    @pytest.mark.parametrize("fan", MASK_FANS)
    def test_face_masks_are_key_inclusion(self, fan):
        keys, _ = fan.numbering()
        for i, key in enumerate(keys):
            assert fan.face_masks()[i] == mask_of(fan, set_based_faces(fan, key))
            assert {keys[j] for j in bits(fan.face_masks()[i])} == set(set_based_faces(fan, key))

    @pytest.mark.parametrize("fan", MASK_FANS)
    def test_enumeration_matches_the_set_based_order(self, fan):
        got = enumerate_open_subsets(fan)
        assert [sel.keys for sel in got] == set_based_open_subsets(fan)
        assert all(sel.mask == mask_of(fan, sel.keys) for sel in got)

    @pytest.mark.parametrize("fan", MASK_FANS)
    def test_ideals_inside_a_selection_are_the_filtered_enumeration(self, fan):
        # skipping the cones outside a face-closed mask keeps exactly the
        # ideals inside it, in the order of the full enumeration
        opens = enumerate_open_subsets(fan)
        for inner in opens[:: max(1, len(opens) // 12)] + [opens[-1]]:
            want = [u.mask for u in opens if not u.mask & ~inner.mask]
            assert _open_masks(fan, 2 ** 20, inner.mask) == want
        assert _open_masks(fan, 2 ** 20) == [u.mask for u in opens]

    @pytest.mark.parametrize("fan", MASK_FANS)
    def test_selection_check_matches_the_set_based_check(self, fan):
        rng = random.Random(len(fan.cone_keys()))
        accepted = rejected = 0
        for keys in seeded_key_sets(fan, rng, 60):
            want = set_based_rejection(fan, keys)
            if want is None:
                sel = SubfanSelection(fan, keys)
                assert sel.mask == mask_of(fan, sel.keys)
                accepted += 1
            else:
                with pytest.raises(ValueError) as caught:
                    SubfanSelection(fan, keys)
                assert str(caught.value) == want
                rejected += 1
        assert accepted and rejected

    def test_the_missing_face_named_follows_the_listing_order(self):
        # the 5-cone over a pentagon and two more rays has a five-ray 3-face
        # and four-ray 4-faces, which key_order and cone_keys() list in
        # opposite orders; only the 5-cone misses faces here
        fan = Fan(5, [(1, 0, 1, 0, 0), (1, 1, 1, 0, 0), (0, 1, 1, 0, 0), (-1, 0, 1, 0, 0),
                      (0, -1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)], [range(7)])
        pentagon, top = frozenset(range(5)), frozenset(range(7))
        keys = [k for k in fan.cone_keys()
                if not pentagon <= k < top and k != frozenset({0, 1, 5, 6})]
        want = set_based_rejection(fan, keys)
        assert want == "selection not face-closed: [0, 1, 2, 3, 4, 5, 6] without [0, 1, 2, 3, 4]"
        with pytest.raises(ValueError) as caught:
            SubfanSelection(fan, keys)
        assert str(caught.value) == want

    def test_union_and_intersection_carry_masks(self):
        opens = enumerate_open_subsets(CUBE_TWO_FACETS)
        for u, v in zip(opens[::7], opens[3::11]):
            assert u.union(v) == SubfanSelection(CUBE_TWO_FACETS, u.keys | v.keys)
            assert u.union(v).mask == u.mask | v.mask
            assert u.intersection(v).keys == u.keys & v.keys
            assert u.intersection(v).mask == u.mask & v.mask


# every open subset of these is checked; the rank-four fan has too many
SELECTION_FANS = COMPLETE + INCOMPLETE + [P3, CUBE_TWO_FACETS]
SELECTION_IDS = ["P1", "P2", "P1xP1", "P112", "point", "A1", "C2", "square", "torus",
                 "P3", "cube-two-facets"]


def keys_of(fan, mask):
    """The cone keys of a mask, read off the numbering."""
    numbered, _ = fan.numbering()
    return [numbered[i] for i in bits(mask)]


def both_ways(fan):
    """Each open subset as an unchecked mask selection and as the selection
    validated from its keys, paired; no mask selection's keys are read."""
    return [(u, SubfanSelection(fan, keys_of(fan, u.mask)))
            for u in enumerate_open_subsets(fan)]


class TestSelectionsAreTheirMasks:
    @pytest.mark.parametrize("fan", SELECTION_FANS, ids=SELECTION_IDS)
    def test_a_mask_selection_is_the_validated_selection(self, fan):
        pairs = both_ways(fan)
        for u, v in pairs:
            assert u == v and v == u and hash(u) == hash(v)
            assert not u != v
        assert len({u for u, _ in pairs} | {v for _, v in pairs}) == len(pairs)

    @pytest.mark.parametrize("fan", SELECTION_FANS, ids=SELECTION_IDS)
    def test_len_in_and_repr_agree(self, fan):
        strays = [frozenset(range(len(fan.rays) + 1)), frozenset({-1}), (len(fan.rays),)]
        for u, v in both_ways(fan):
            assert len(u) == len(v) == len(keys_of(fan, u.mask))
            for key in list(fan.cone_keys()) + strays:
                assert (key in u) is (key in v) is (frozenset(key) in v.keys)
                assert (tuple(key) in u) is (key in v)
            assert repr(u) == repr(v)

    @pytest.mark.parametrize("fan", SELECTION_FANS, ids=SELECTION_IDS)
    def test_order_union_and_intersection_agree(self, fan):
        pairs = both_ways(fan)
        rng = random.Random(len(pairs))
        drawn = [(rng.choice(pairs), rng.choice(pairs)) for _ in range(300)]
        for (u, v), (x, y) in drawn + [(p, p) for p in pairs]:
            assert (u <= x) is (v <= y) is (v.keys <= y.keys)
            assert (u < x) is (v < y) is (v.keys < y.keys)
            assert u.union(x) == v.union(y) == SubfanSelection(fan, v.keys | y.keys)
            assert u.intersection(x) == v.intersection(y) == SubfanSelection(
                fan, v.keys & y.keys
            )
            assert repr(u.union(x)) == repr(v.union(y))
            assert repr(u.intersection(x)) == repr(v.intersection(y))

    @pytest.mark.parametrize("fan", SELECTION_FANS, ids=SELECTION_IDS)
    def test_keys_are_built_once_and_kept(self, fan):
        for u, v in both_ways(fan):
            first = u.keys
            assert u.keys is first and first == v.keys
            assert v.keys is v.keys

    def test_listed_goods_hold_no_key_set_until_read(self):
        goods = enumerate_good_subsets(P3, normalize_action(P3, [(1, 2, 3)]))
        assert goods and all(u._keys is None for u in goods)
        for u in goods:
            keys = u.keys
            assert u._keys is keys and keys == frozenset(keys_of(P3, u.mask))

    @pytest.mark.parametrize("fan", SELECTION_FANS, ids=SELECTION_IDS)
    def test_full_and_empty_selections_are_the_validated_ones(self, fan):
        full, empty = fan.full_selection(), fan.empty_selection()
        assert full == SubfanSelection(fan, fan.cone_keys())
        assert hash(full) == hash(SubfanSelection(fan, fan.cone_keys()))
        assert full.keys == frozenset(fan.cone_keys())
        assert empty == SubfanSelection(fan, ()) and hash(empty) == hash(SubfanSelection(fan, ()))
        assert empty.keys == frozenset() and empty.mask == 0

    def test_an_equal_fan_gives_equal_selections_with_equal_hashes(self):
        twin = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 2}, {1, 2}, {0, 1}])
        assert twin is not P2 and twin == P2
        for u, v in both_ways(P2):
            w = SubfanSelection._of_mask(twin, u.mask)
            assert w == u == v and hash(w) == hash(u) == hash(v)

    def test_selections_of_different_fans_differ(self):
        # {(), (0)} on P2 and on C2: the same mask and keys, not the same set
        p2, c2 = SubfanSelection._of_mask(P2, 0b11), SubfanSelection._of_mask(C2, 0b11)
        assert p2.keys == c2.keys and p2 != c2
        assert p2 != p2.mask and p2 != p2.keys

    def test_a_selection_is_immutable(self):
        sel = P1.full_selection()
        for name in ("fan", "mask", "keys", "_keys"):
            with pytest.raises(AttributeError):
                setattr(sel, name, None)
        assert sel == SubfanSelection(P1, P1.cone_keys())


class TestOrbits:
    def test_poset_matches_face_relation(self):
        for fan in [P1, P2, C2, SQUARE]:
            for a in fan.cone_keys():
                for b in fan.cone_keys():
                    assert (a <= b) == fan.cone(a).is_face_of(fan.cone(b))

    def test_limit_frozen_examples(self):
        assert limit_of_generic_point(P1, (1,)) == frozenset({0})
        assert limit_of_generic_point(P1, (0,)) == frozenset()
        assert limit_of_generic_point(A1, (-1,)) is None
        assert limit_of_generic_point(P2, (0, 0)) == frozenset()
        assert limit_of_generic_point(P2, (2, 1)) == frozenset({0, 1})
        assert limit_of_generic_point(P2, (1, 1)) == frozenset({0, 1})
        assert limit_of_generic_point(P2, (1, 0)) == frozenset({0})


SWAP = ((0, 1), (1, 0))
# generators of each fan's full automorphism group, as explicit matrices
AUTOMORPHISM_GENERATORS = [
    (P1, [((-1,),)]),
    (P2, [((0, -1), (1, -1)), SWAP]),
    (C2, [SWAP]),
    (P1XP1, [((-1, 0), (0, 1)), SWAP]),
    (P112, [((-1, 0), (-2, 1))]),  # swaps the rays (1, 0) and (-1, -2)
]


class TestAutomorphisms:
    def test_group_orders(self):
        orders = [len(SymmetryGroup(fan, gens))
                  for fan, gens in AUTOMORPHISM_GENERATORS]
        assert orders == [2, 6, 2, 8, 2]

    def test_p1_elements(self):
        mats = {a.matrix.entries for a in SymmetryGroup(P1, [((-1,),)])}
        assert mats == {((1,),), ((-1,),)}

    def test_closed_under_composition_and_inverse(self):
        for fan, gens in AUTOMORPHISM_GENERATORS:
            autos = SymmetryGroup(fan, gens).elements
            pool = {a.matrix for a in autos}
            identity = IntMatrix.identity(fan.rank)
            for a, b in product(autos, repeat=2):
                assert a.compose(b).matrix in pool
            for a in autos:
                inverse = right_inverse_of_surjection(a.matrix)
                assert inverse in pool
                assert a.matrix @ inverse == identity

    def test_key_action(self):
        swap = FanAutomorphism(P1, IntMatrix(((-1,),)))
        assert swap.apply_key(frozenset({0})) == frozenset({1})
        assert swap.apply_key(frozenset()) == frozenset()

    def test_rejects_non_preserving_matrix(self):
        with pytest.raises(ValueError):
            FanAutomorphism(P2, IntMatrix(((1, 1), (0, 1))))
        with pytest.raises(ValueError):
            FanAutomorphism(P2, IntMatrix(((2, 0), (0, 1))))

    def test_point_fan(self):
        autos = SymmetryGroup(POINT, []).elements
        assert len(autos) == 1 and autos[0].matrix == IntMatrix.identity(0)
