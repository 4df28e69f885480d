"""Fan model tests: validation, completeness, subsets, orbits, symmetries."""

import random
from itertools import combinations, product

import pytest

from toricgit.fans import (
    Fan,
    FanAutomorphism,
    SizeGuardError,
    SubfanSelection,
    enumerate_open_subsets,
    fan_automorphisms,
    is_complete,
    is_simplicial,
    is_smooth,
    limit_of_generic_point,
    validate_fan,
)
from toricgit.intlat import IntMatrix

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

    def test_smoothness(self):
        assert is_smooth(P2)
        assert is_smooth(P1XP1)
        assert not is_smooth(P112)
        assert not is_smooth(SQUARE)


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

    def test_matches_brute_force_on_small_fans(self):
        for fan in [P1, A1, C2, P2, P1XP1]:
            keys = fan.cone_keys()
            if len(keys) > 13:
                continue
            count = 0
            for r in range(len(keys) + 1):
                for sub in combinations(keys, r):
                    chosen = set(sub)
                    if all(all(f in chosen for f in fan.faces_of(k)) for k in chosen):
                        count += 1
            assert len(enumerate_open_subsets(fan)) == count


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


class TestAutomorphisms:
    def test_group_orders(self):
        assert len(fan_automorphisms(P1)) == 2
        assert len(fan_automorphisms(P2)) == 6
        assert len(fan_automorphisms(C2)) == 2
        assert len(fan_automorphisms(P1XP1)) == 8

    def test_p1_elements(self):
        mats = {a.matrix.entries for a in fan_automorphisms(P1)}
        assert mats == {((1,),), ((-1,),)}

    def test_closed_under_composition_and_inverse(self):
        for fan in [P1, P2, C2, P1XP1, P112]:
            autos = fan_automorphisms(fan)
            pool = set(autos)
            for a, b in product(autos, repeat=2):
                assert a.compose(b) in pool
            for a in autos:
                assert a.inverse() in pool
                assert a.compose(a.inverse()).is_identity()

    def test_key_action(self):
        swap = next(
            a for a in fan_automorphisms(P1) if not a.is_identity()
        )
        assert swap.apply_key(frozenset({0})) == frozenset({1})
        assert swap.apply_key(frozenset()) == frozenset()

    def test_rejects_non_preserving_matrix(self):
        with pytest.raises(ValueError):
            FanAutomorphism(P2, IntMatrix(((1, 1), (0, 1))))
        with pytest.raises(ValueError):
            FanAutomorphism(P2, IntMatrix(((2, 0), (0, 1))))

    def test_non_spanning_rays_rejected(self):
        fan = Fan(2, [(1, 0)], [{0}])
        with pytest.raises(ValueError):
            fan_automorphisms(fan)

    def test_point_fan(self):
        autos = fan_automorphisms(POINT)
        assert len(autos) == 1 and autos[0].is_identity()
