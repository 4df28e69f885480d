"""Quasitorus presentation: grading, relevant opens, sections, round trip."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy

from toricgit.cox import (
    MonomialSection,
    PolynomialSection,
    _nonzero_at,
    _orbit_point,
    canonical_section,
    cox_presentation,
    image_zero_set,
    isotropy_at,
    lift_open,
    quasitorus_action,
    round_trip,
    verify_globally_defined,
    zero_set_identity_holds,
)
from toricgit.fans import Fan, SubfanSelection
from toricgit.intlat import IntMatrix
from toricgit.quotients import good_quotient

P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
P112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
P1XP1 = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
HALFQ = Fan(2, [(1, 0), (1, 2)], [{0, 1}])  # rays span an index-2 sublattice


def fs(*items):
    return frozenset(items)


class TestGrading:
    def test_projective_plane_weights(self):
        pres = cox_presentation(P2)
        assert pres.class_rank == 1
        assert pres.torsion_factors == ()
        assert pres.free_rows == IntMatrix(((1, 1, 1),))
        assert pres.weights() == ((1,), (1,), (1,))

    def test_weighted_plane_weights(self):
        pres = cox_presentation(P112)
        assert pres.class_rank == 1
        assert pres.torsion_factors == ()
        assert pres.free_rows == IntMatrix(((1, 2, 1),))
        # relation-row oracle: the grading must kill both ray relations
        for relation in ((1, 0, -1), (0, 1, -2)):
            assert pres.degree(relation) == ((0,), ())

    def test_smooth_affine_plane_trivial_group(self):
        pres = cox_presentation(C2)
        assert pres.class_rank == 0
        assert pres.torsion_factors == ()
        assert pres.free_rows.rows == 0
        assert pres.degree((3, 5)) == ((), ())

    def test_torsion_class_group(self):
        pres = cox_presentation(HALFQ)
        assert pres.class_rank == 0
        assert pres.torsion_factors == (2,)
        # e0 and e1 are the same nonzero class; doubling kills it
        assert pres.degree((1, 0)) == pres.degree((0, 1))
        assert pres.degree((1, 0))[1] != (0,)
        assert pres.degree((2, 0)) == ((), (0,))

    def test_grading_kills_exactly_the_relations(self):
        rng = random.Random(20260817)
        for fan in (P2, P112, P1XP1, C2, P1):
            pres = cox_presentation(fan)
            n, d = len(fan.rays), fan.rank
            for _ in range(40):
                m = tuple(rng.randint(-4, 4) for _ in range(d))
                paired = pres.ray_matrix.matvec(m)
                assert pres.degree(paired) == (
                    (0,) * pres.class_rank,
                    (0,) * len(pres.torsion_rows),
                )
            for _ in range(40):
                a = tuple(rng.randint(-4, 4) for _ in range(n))
                if pres.degree(a) != (
                    (0,) * pres.class_rank,
                    (0,) * len(pres.torsion_rows),
                ):
                    continue
                # degree zero must mean a is an integral pairing of some m
                sol, free = sympy.Matrix(pres.ray_matrix.entries).gauss_jordan_solve(
                    sympy.Matrix(a)
                )
                assert free.rows == 0
                assert all(x.is_integer for x in sol)

    def test_class_rank_formula(self):
        for fan in (P2, P112, P1XP1, C2, P1, HALFQ):
            pres = cox_presentation(fan)
            assert pres.class_rank == len(fan.rays) - fan.rank
            assert pres.class_rank == pres.free_rows.rows

    def test_nonspanning_rays_rejected(self):
        with pytest.raises(ValueError):
            cox_presentation(Fan(2, [(1, 0)], [{0}]))


class TestRelevantSelection:
    def test_projective_plane_omits_only_the_origin(self):
        pres = cox_presentation(P2)
        everything = {fs(*s) for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]}
        assert pres.relevant.keys == everything

    def test_affine_plane_keeps_everything(self):
        pres = cox_presentation(C2)
        assert pres.relevant.keys == set(pres.orthant_fan.cone_keys())

    def test_product_excludes_both_axis_pairs(self):
        pres = cox_presentation(P1XP1)
        assert len(pres.relevant.keys) == 9
        assert fs(0, 1) not in pres.relevant.keys
        assert fs(2, 3) not in pres.relevant.keys
        assert fs(0, 2) in pres.relevant.keys


class TestIsotropy:
    def test_weighted_plane_has_a_two_torsion_point(self):
        pres = cox_presentation(P112)
        assert isotropy_at(pres, fs(0, 2)) == (0, (2,))
        assert isotropy_at(pres, fs(0, 1)) == (0, ())
        assert isotropy_at(pres, fs(1, 2)) == (0, ())

    def test_smooth_fans_have_trivial_isotropy_everywhere(self):
        for fan in (P2, P1XP1, C2, P1):
            pres = cox_presentation(fan)
            for key in pres.relevant.keys:
                assert isotropy_at(pres, key) == (0, ())

    def test_nonsmooth_affine_chart_isotropy(self):
        pres = cox_presentation(HALFQ)
        assert isotropy_at(pres, fs(0, 1)) == (0, (2,))

    def test_isotropy_finite_everywhere_for_simplicial(self):
        for fan in (P2, P112, P1XP1, HALFQ):
            pres = cox_presentation(fan)
            for key in pres.relevant.keys:
                free, _ = isotropy_at(pres, key)
                assert free == 0

    def test_irrelevant_face_rejected(self):
        pres = cox_presentation(P2)
        with pytest.raises(ValueError):
            isotropy_at(pres, fs(0, 1, 2))


class TestSections:
    def test_degree_and_zero_sets_of_a_coordinate(self):
        pres = cox_presentation(P2)
        s = canonical_section(pres, (1, 0, 0))
        assert s.degree == ((1,), ())
        assert image_zero_set(pres, s) == {fs(0), fs(0, 1), fs(0, 2)}

    def test_image_is_union_of_supported_ray_closures(self):
        pres = cox_presentation(P1XP1)
        s = canonical_section(pres, (1, 0, 2, 0))
        union = set()
        for i in s.support():
            union |= {k for k in P1XP1.cone_keys() if fs(i) <= k}
        assert image_zero_set(pres, s) == union

    def test_zero_set_identity_random_sweep(self):
        rng = random.Random(424242)
        for fan in (P2, P112, P1XP1, C2, P1):
            pres = cox_presentation(fan)
            n = len(fan.rays)
            for _ in range(100):
                a = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n))
                s = canonical_section(pres, a)
                assert zero_set_identity_holds(pres, s)

    def test_section_validation(self):
        pres = cox_presentation(P2)
        with pytest.raises(ValueError):
            canonical_section(pres, (1, -1, 0))
        with pytest.raises(ValueError):
            canonical_section(pres, (1, 0))

    def test_evaluation(self):
        s = MonomialSection((1, 2, 0), ((3,), ()))
        assert s.evaluate((2, Fraction(1, 2), 7)) == Fraction(1, 2)
        p = PolynomialSection(((1, (1, 0)), (-1, (0, 1))))
        assert p.evaluate((Fraction(2, 3), Fraction(1, 3))) == Fraction(1, 3)

    def test_nonzero_at_orbit_points_matches_evaluation(self):
        # seeded sections against seeded orbit points; half of the
        # polynomials get the constant term that makes them vanish there
        rng = random.Random(20261018)
        n = 3
        checked = Counter()
        for _ in range(300):
            key = frozenset(i for i in range(n) if rng.random() < 0.3)
            point = _orbit_point(key, n, rng)
            assert all((num == 0) == (i in key) for i, (num, _) in enumerate(point))
            exact = tuple(Fraction(num, den) for num, den in point)
            exponents = tuple(rng.randint(0, 2) for _ in range(n))
            sections = [MonomialSection(exponents, ((0,), ()))]
            terms = tuple(
                (Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                 tuple(rng.randint(0, 2) for _ in range(n)))
                for _ in range(rng.randint(1, 3))
            )
            sections.append(PolynomialSection(terms))
            value = sections[-1].evaluate(exact)
            sections.append(PolynomialSection(terms + ((-value, (0,) * n),)))
            for section in sections:
                want = section.evaluate(exact) != 0
                assert _nonzero_at(section, key, point) == want, (section, key, point)
                checked[want] += 1
        assert checked[True] > 100 and checked[False] > 100

    def test_orbit_points_keep_the_seeded_draws(self):
        key, n = fs(1), 4
        a, b = random.Random(5), random.Random(5)
        drawn = [
            Fraction(0) if i in key
            else Fraction(b.choice([x for x in range(-5, 6) if x]), b.randint(1, 4))
            for i in range(n)
        ]
        assert [Fraction(num, den) for num, den in _orbit_point(key, n, a)] == drawn


class TestLiftAndRoundTrip:
    def test_lift_of_full_selection_is_relevant(self):
        for fan in (P2, P112, P1XP1, C2):
            pres = cox_presentation(fan)
            assert lift_open(pres, fan.full_selection()).keys == pres.relevant.keys

    def test_lift_of_one_chart(self):
        pres = cox_presentation(P2)
        sel = SubfanSelection(P2, [fs(), fs(0), fs(1), fs(0, 1)])
        assert lift_open(pres, sel).keys == {fs(), fs(0), fs(1), fs(0, 1)}

    def test_lift_of_empty_is_empty(self):
        pres = cox_presentation(P2)
        assert lift_open(pres, P2.empty_selection()).keys == frozenset()

    def test_round_trip_full_fans(self):
        for fan in (P1, C2, P2, P112, P1XP1):
            pres = cox_presentation(fan)
            report = round_trip(pres, fan.full_selection())
            assert report.ok, report.detail
            assert report.geometric  # all of these fans are simplicial

    def test_round_trip_subselection(self):
        pres = cox_presentation(P2)
        sel = SubfanSelection(P2, [fs(), fs(0), fs(1), fs(2), fs(0, 1), fs(0, 2)])
        report = round_trip(pres, sel)
        assert report.ok, report.detail

    def test_round_trip_torus_and_empty(self):
        pres = cox_presentation(P2)
        assert round_trip(pres, SubfanSelection(P2, [fs()])).ok
        assert round_trip(pres, P2.empty_selection()).ok

    def test_round_trip_fails_for_index_two_rays(self):
        pres = cox_presentation(HALFQ)
        report = round_trip(pres, HALFQ.full_selection())
        assert not report.ok
        assert "sublattice" in report.detail

    def test_quotient_upstairs_is_the_expected_projective_line(self):
        pres = cox_presentation(P1)
        lifted = lift_open(pres, P1.full_selection())
        q = good_quotient(lifted, quasitorus_action(pres))
        assert q.fan.rank == 1
        assert len(q.fan.max_cones) == 2


class TestWitnessFamilies:
    def test_coordinates_on_projective_space_do_not_cover(self):
        pres = cox_presentation(P2)
        lifted = lift_open(pres, P2.full_selection())
        family = [
            canonical_section(pres, e)
            for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        ]
        report = verify_globally_defined(pres, lifted, family)
        assert all(m.affine for m in report.members)
        assert all(m.homogeneous for m in report.members)
        assert all(m.contained for m in report.members)
        assert not report.coverage
        assert report.coverage_witness is not None
        assert not report.witness_family
        assert not report.sampled

    def test_unit_section_on_affine_open(self):
        pres = cox_presentation(C2)
        lifted = lift_open(pres, C2.full_selection())
        report = verify_globally_defined(
            pres, lifted, [canonical_section(pres, (0, 0))]
        )
        assert report.witness_family

    def test_unit_section_on_nonaffine_open(self):
        pres = cox_presentation(P2)
        lifted = lift_open(pres, P2.full_selection())
        report = verify_globally_defined(
            pres, lifted, [canonical_section(pres, (0, 0, 0))]
        )
        assert report.members[0].affine is False
        assert not report.witness_family

    def test_punctured_plane_coordinates_fail_for_diagonal_action(self):
        pres = cox_presentation(C2)
        punctured = SubfanSelection(C2, [fs(), fs(0), fs(1)])
        lifted = lift_open(pres, punctured)
        family = [canonical_section(pres, (1, 0)), canonical_section(pres, (0, 1))]
        report = verify_globally_defined(
            pres, lifted, family, subtorus_generators=[(1, 1)]
        )
        assert all(m.homogeneous for m in report.members)
        assert all(m.affine for m in report.members)
        assert not report.coverage
        assert report.coverage_witness == (fs(0), fs(1))
        assert not report.witness_family

    def test_adding_the_difference_gives_a_witness_family(self):
        pres = cox_presentation(C2)
        punctured = SubfanSelection(C2, [fs(), fs(0), fs(1)])
        lifted = lift_open(pres, punctured)
        family = [
            canonical_section(pres, (1, 0)),
            canonical_section(pres, (0, 1)),
            PolynomialSection(((1, (1, 0)), (-1, (0, 1))), declared_weight=(1,)),
        ]
        report = verify_globally_defined(
            pres, lifted, family, subtorus_generators=[(1, 1)], seed=7
        )
        assert report.sampled
        assert report.members[2].homogeneous
        assert report.members[2].affine is None
        assert report.members[2].contained
        assert report.coverage
        assert report.witness_family

    def test_inhomogeneous_member_is_flagged(self):
        pres = cox_presentation(C2)
        punctured = SubfanSelection(C2, [fs(), fs(0), fs(1)])
        lifted = lift_open(pres, punctured)
        bad = PolynomialSection(((1, (1, 0)), (-1, (0, 2))))
        report = verify_globally_defined(
            pres, lifted, [bad], subtorus_generators=[(1, 1)]
        )
        assert not report.members[0].homogeneous
        assert not report.witness_family

    def test_declared_weight_mismatch_is_flagged(self):
        pres = cox_presentation(C2)
        lifted = lift_open(pres, C2.full_selection())
        section = PolynomialSection(((1, (1, 0)), (-1, (0, 1))), declared_weight=(3,))
        report = verify_globally_defined(
            pres, lifted, [section], subtorus_generators=[(1, 1)]
        )
        assert not report.members[0].homogeneous

    def test_noncontained_polynomial_is_flagged(self):
        pres = cox_presentation(C2)
        punctured = SubfanSelection(C2, [fs(), fs(0), fs(1)])
        lifted = lift_open(pres, punctured)
        # constant 1 never vanishes, in particular not at the origin
        one = PolynomialSection(((1, (0, 0)),))
        report = verify_globally_defined(pres, lifted, [one])
        assert not report.members[0].contained
        assert not report.witness_family

    def test_reports_are_deterministic_per_seed(self):
        pres = cox_presentation(C2)
        punctured = SubfanSelection(C2, [fs(), fs(0), fs(1)])
        lifted = lift_open(pres, punctured)
        family = [
            canonical_section(pres, (1, 0)),
            PolynomialSection(((1, (1, 0)), (-1, (0, 1)))),
        ]
        a = verify_globally_defined(pres, lifted, family, [(1, 1)], seed=11)
        b = verify_globally_defined(pres, lifted, family, [(1, 1)], seed=11)
        assert a == b

    def test_wrong_fan_selection_rejected(self):
        pres = cox_presentation(P2)
        with pytest.raises(ValueError):
            verify_globally_defined(pres, P2.full_selection(), [])
