"""Quasitorus presentation: grading, relevant opens, sections, round trip."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest
import sympy
from test_memos import FANS, lattice_routes, recomputed_cone_keys

from toricgit import cox, intlat
from toricgit.corpus import corpus_fans
from toricgit.cox import (
    COVERAGE_SAMPLES,
    MonomialSection,
    PolynomialSection,
    RoundTrip,
    SectionVerdict,
    WitnessReport,
    _orbit_point,
    _vanishing_test,
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
from toricgit.fans import Fan, SubfanSelection, _open_masks, key_order
from toricgit.intlat import (
    IntMatrix,
    Sublattice,
    cokernel_diagnostics,
    dot,
    kernel_lattice,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
    smith_normal_form,
)
from toricgit.problemfile import MonomialSpec, load_problem
from toricgit.quotients import good_quotient

P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
P112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
P1XP1 = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [{0, 2}, {0, 3}, {1, 2}, {1, 3}])
HALFQ = Fan(2, [(1, 0), (1, 2)], [{0, 1}])  # rays span an index-2 sublattice
# complete, with class group Z + Z/3: the rays span an index-3 sublattice
TORSION = Fan(2, [(2, 1), (-1, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
P3 = Fan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}],
)

# smooth complete surface fan, 20 rays in angular order, consecutive pairs
# as maximal cones: its orthant would have 2^20 cones, its coordinate fan 41
TWENTY_RAYS = (
    [(1, 0)] + [(1, k) for k in range(1, 10)] + [(0, 1), (-1, 0)]
    + [(-1, -k) for k in range(1, 8)] + [(0, -1)]
)
TWENTY = Fan(2, TWENTY_RAYS, [{i, (i + 1) % 20} for i in range(20)])


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
        # fewer rays than the rank, and enough rays spanning only a line
        for fan in (Fan(2, [(1, 0)], [{0}]), Fan(2, [(1, 0), (-1, 0)], [{0}, {1}])):
            with pytest.raises(ValueError, match="rays do not span the ambient space"):
                cox_presentation(fan)

    def test_torsion_grading_of_a_complete_fan(self):
        pres = cox_presentation(TORSION)
        assert (pres.class_rank, pres.torsion_factors) == (1, (3,))
        assert pres.weights() == ((1,), (1,), (1,))
        assert [pres.degree(e)[1] for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))] == [
            (1,), (2,), (0,)
        ]


def reference_lattice_fields(fan):
    """The presentation's lattice fields as they were computed before one
    Smith form served them all, kept as the reference: the free grading is
    the quotient map of the saturated image of M, the class rank and
    torsion come from the cokernel, and H's cocharacters are the kernel of
    the ray map."""
    n, d = len(fan.rays), fan.rank
    ray_matrix = IntMatrix(fan.rays, cols=d)
    image = Sublattice.from_rows(n, [ray_matrix.column(j) for j in range(d)])
    snf = smith_normal_form(ray_matrix)
    class_rank, torsion_factors = cokernel_diagnostics(ray_matrix)
    free_rows = quotient_lattice_map(saturate(image))
    return {
        "free_rows": free_rows,
        "torsion_rows": tuple(
            (snf.diag[i], snf.left.row(i))
            for i in range(len(snf.diag)) if snf.diag[i] > 1
        ),
        "class_rank": class_rank,
        "torsion_factors": torsion_factors,
        "h_cochar": kernel_lattice(ray_matrix.transpose()),
        "weights": tuple(tuple(free_rows.column(i)) for i in range(n)),
    }


def presentation_fans():
    return (P1, C2, P2, P112, P1XP1, HALFQ, TORSION, P3) + tuple(corpus_fans())


class TestOneSmithForm:
    def test_fields_match_the_reference_route(self):
        for fan in presentation_fans():
            pres = cox_presentation(fan)
            got = {
                "free_rows": pres.free_rows,
                "torsion_rows": pres.torsion_rows,
                "class_rank": pres.class_rank,
                "torsion_factors": pres.torsion_factors,
                "h_cochar": pres.h_cochar,
                "weights": pres.weights(),
            }
            assert got == reference_lattice_fields(fan), fan.rays

    def test_one_smith_form_and_no_other_lattice_route(self, monkeypatch):
        fans = presentation_fans()
        calls = []
        smith = intlat.smith_normal_form

        def counted(matrix):
            calls.append(matrix)
            return smith(matrix)

        def forbidden(*args):
            raise AssertionError("cox_presentation left its one Smith form")

        for module in (intlat, cox):
            monkeypatch.setattr(module, "smith_normal_form", counted)
            for name in ("saturate", "quotient_lattice_map", "cokernel_diagnostics",
                         "kernel_lattice"):
                monkeypatch.setattr(module, name, forbidden)
        for fan in fans:
            calls.clear()
            cox_presentation(fan)
            assert len(calls) == 1, fan.rays


class TestRelevantSelection:
    # the coordinate fan's cones are the relevant coordinate faces
    def test_coordinate_fan_has_the_fans_maximal_cones_on_unit_rays(self):
        for fan in presentation_fans():
            n = len(fan.rays)
            units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
            assert cox_presentation(fan).coordinate_fan == Fan(n, units, fan.max_cones)

    def test_coordinate_fan_lattices_build_no_cone(self):
        # unit rays are linearly independent, so every coordinate cone is
        # simplicial and its faces are the subsets of its key
        for fan in presentation_fans() + (TWENTY,):
            coordinates = cox_presentation(fan).coordinate_fan
            keys, built = lattice_routes(coordinates)
            assert not built, fan.rays
            again = Fan(coordinates.rank, coordinates.rays, coordinates.max_cones)
            assert keys == recomputed_cone_keys(again), fan.rays

    def test_projective_plane_omits_only_the_origin(self):
        pres = cox_presentation(P2)
        everything = {fs(*s) for s in [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]}
        assert set(pres.coordinate_fan.cone_keys()) == everything

    def test_affine_plane_keeps_everything(self):
        pres = cox_presentation(C2)
        everything = {fs(), fs(0), fs(1), fs(0, 1)}
        assert set(pres.coordinate_fan.cone_keys()) == everything

    def test_product_excludes_both_axis_pairs(self):
        keys = cox_presentation(P1XP1).coordinate_fan.cone_keys()
        assert len(keys) == 9
        assert fs(0, 1) not in keys
        assert fs(2, 3) not in keys
        assert fs(0, 2) in keys


def subset_faces(keys):
    """Every coordinate face of the coordinate cones keys, by subsets."""
    return {frozenset(s) for k in keys for r in range(len(k) + 1) for s in combinations(k, r)}


LATTICE_FANS = {**FANS, "bare torus": Fan(0, [], [])}


class TestCoordinateFacesFromFaceMasks:
    # the coordinate fan's cones are the subsets of each coordinate cone,
    # and every lift is an OR of its face masks
    @pytest.mark.parametrize("case", sorted(LATTICE_FANS))
    def test_relevant_and_lifts_are_the_subset_faces(self, case):
        fan = LATTICE_FANS[case]
        pres = cox_presentation(fan)
        coordinates = pres.coordinate_fan
        assert set(coordinates.cone_keys()) == subset_faces(fan.max_cones) | {frozenset()}
        opens = _open_masks(fan, 2 ** 20)
        rng = random.Random(len(opens))
        for mask in [0, opens[-1]] + rng.sample(opens, min(25, len(opens))):
            sel = SubfanSelection._of_mask(fan, mask)
            assert lift_open(pres, sel) == SubfanSelection(coordinates, subset_faces(sel.keys))


class TestIsotropy:
    def test_weighted_plane_has_a_two_torsion_point(self):
        pres = cox_presentation(P112)
        assert isotropy_at(pres, fs(0, 2)) == (0, (2,))
        assert isotropy_at(pres, fs(0, 1)) == (0, ())
        assert isotropy_at(pres, fs(1, 2)) == (0, ())

    def test_smooth_fans_have_trivial_isotropy_everywhere(self):
        for fan in (P2, P1XP1, C2, P1):
            pres = cox_presentation(fan)
            for key in pres.coordinate_fan.cone_keys():
                assert isotropy_at(pres, key) == (0, ())

    def test_nonsmooth_affine_chart_isotropy(self):
        pres = cox_presentation(HALFQ)
        assert isotropy_at(pres, fs(0, 1)) == (0, (2,))

    def test_isotropy_finite_everywhere_for_simplicial(self):
        for fan in (P2, P112, P1XP1, HALFQ):
            pres = cox_presentation(fan)
            for key in pres.coordinate_fan.cone_keys():
                free, _ = isotropy_at(pres, key)
                assert free == 0

    def test_irrelevant_face_rejected(self):
        pres = cox_presentation(P2)
        text = "^coordinate face is not in the relevant selection$"
        with pytest.raises(ValueError, match=text):
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
        # polynomials get the constant term that makes them vanish at the
        # first point.  Each section's prepared test is then reused on
        # further points of other orbits.
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
            sections.append(PolynomialSection(tuple((int(c.numerator), e) for c, e in terms)))
            prepared = [_vanishing_test(section) for section in sections]
            points = [(key, point)]
            for _ in range(2):
                other = frozenset(i for i in range(n) if rng.random() < 0.3)
                points.append((other, _orbit_point(other, n, rng)))
            for key, point in points:
                exact = tuple(Fraction(num, den) for num, den in point)
                for section, nonzero in zip(sections, prepared):
                    want = section.evaluate(exact) != 0
                    assert nonzero(key, point) == want, (section, key, point)
                    assert _vanishing_test(section)(key, point) == want, (section, key, point)
                    checked[isinstance(section, MonomialSection), want] += 1
        assert min(checked.values()) > 100 and len(checked) == 4

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
            want = subset_faces(fan.max_cones) | {fs()}
            assert lift_open(pres, fan.full_selection()).keys == want

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

    def test_twenty_ray_fan_lifts_on_its_forty_one_coordinate_faces(self):
        pres = cox_presentation(TWENTY)
        assert len(pres.coordinate_fan.cone_keys()) == 41
        lifted = lift_open(pres, TWENTY.full_selection())
        assert lifted.keys == subset_faces(TWENTY.max_cones) | {fs()}
        assert len(lifted.keys) == 41
        assert round_trip(pres, TWENTY.full_selection()) == RoundTrip(
            True, True, "selection recovered"
        )
        for key in TWENTY.max_cones:
            assert isotropy_at(pres, key) == (0, ())

    def test_quotient_upstairs_is_the_expected_projective_line(self):
        pres = cox_presentation(P1)
        lifted = lift_open(pres, P1.full_selection())
        q = good_quotient(lifted, quasitorus_action(pres))
        assert q.fan.rank == 1
        assert len(q.fan.max_cones) == 2


def negated(matrix):
    return IntMatrix([[-x for x in row] for row in matrix.entries])


class TestRoundTripFailures:
    """Each failure return of round_trip, forced by one forged input."""

    def test_lift_without_good_quotient(self):
        # the antidiagonal acting on the punctured plane glues its two axes
        pres = cox_presentation(P1)
        forged = replace(pres, h_cochar=Sublattice.from_rows(2, [(1, -1)]))
        assert round_trip(forged, P1.full_selection()) == RoundTrip(
            False, False,
            "lift has no good quotient: cone [1] maps into the image of [0] "
            "but is not a face of it",
        )

    def test_projection_kernel_differs(self, monkeypatch):
        real = cox.good_quotient
        monkeypatch.setattr(
            cox, "good_quotient",
            lambda sel, act: replace(real(sel, act), proj_full=IntMatrix([[1, 0]])),
        )
        pres = cox_presentation(P1)
        assert round_trip(pres, P1.full_selection()) == RoundTrip(
            False, True, "projection kernel differs from the quasitorus part"
        )

    def test_recovered_ray_not_a_fan_ray(self):
        pres = cox_presentation(P2)
        forged = replace(pres, ray_map=negated(pres.ray_map))
        assert round_trip(forged, P2.full_selection()) == RoundTrip(
            False, True, "recovered ray is not a fan ray"
        )

    def test_chart_not_its_own_coordinate_face(self):
        # negation swaps the two rays of the line, so each chart lands on the other
        pres = cox_presentation(P1)
        forged = replace(pres, ray_map=negated(pres.ray_map))
        assert round_trip(forged, P1.full_selection()) == RoundTrip(
            False, True, "chart of [1] is not its own coordinate face"
        )

    def test_maximal_cones_not_recovered(self, monkeypatch):
        real = cox.lift_open
        chart = SubfanSelection(P2, [fs(), fs(0), fs(1), fs(0, 1)])
        monkeypatch.setattr(cox, "lift_open", lambda pres, sel: real(pres, chart))
        pres = cox_presentation(P2)
        assert round_trip(pres, P2.full_selection()) == RoundTrip(
            False, True, "maximal cones are not recovered"
        )


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

    def test_a_member_listed_twice_keeps_its_verdicts(self):
        # each copy gets its own prepared test and its own draws
        pres = cox_presentation(C2)
        lifted = lift_open(pres, SubfanSelection(C2, [fs(), fs(0), fs(1)]))
        x, y = canonical_section(pres, (1, 0)), canonical_section(pres, (0, 1))
        diff = PolynomialSection(((1, (1, 0)), (-1, (0, 1))), declared_weight=(1,))
        once = verify_globally_defined(pres, lifted, [x, y], [(1, 1)])
        twice = verify_globally_defined(pres, lifted, [x, y, x], [(1, 1)])
        assert twice.members == once.members + once.members[:1]
        assert (twice.coverage, twice.coverage_witness) == (once.coverage, once.coverage_witness)
        for family in ([x, y, x], [x, diff, y, diff], [diff, diff]):
            for seed in range(1, 11):
                got = verify_globally_defined(pres, lifted, family, [(1, 1)], seed)
                want = two_path_verify_globally_defined(pres, lifted, family, [(1, 1)], seed)
                assert got == want, (family, seed)
                assert got.members[-1] == got.members[family.index(family[-1])]

    # x0 + 7 x1 vanishes at x = (-7, 1) and 3 x0 - 11 x1 at y = (11, 3), both
    # points of the dense orbit of C^2 minus the origin over P^1
    P1_PAIR = (
        PolynomialSection(((1, (1, 0)), (7, (0, 1)))),
        PolynomialSection(((3, (1, 0)), (-11, (0, 1)))),
    )

    def test_no_member_is_nonzero_at_both_points_of_the_pair(self):
        x, y = ((-7, 1), (1, 1)), ((11, 1), (3, 1))
        tests = [_vanishing_test(s) for s in self.P1_PAIR]
        assert [t(fs(), x) for t in tests] == [False, True]
        assert [t(fs(), y) for t in tests] == [True, False]

    @pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="sampled coverage; ROADMAP item 8"
    )
    def test_uncovered_pair_fails_coverage(self):
        pres = cox_presentation(P1)
        lifted = lift_open(pres, P1.full_selection())
        report = verify_globally_defined(pres, lifted, self.P1_PAIR)
        assert not report.coverage

    def test_wrong_fan_selection_rejected(self):
        pres = cox_presentation(P2)
        with pytest.raises(ValueError):
            verify_globally_defined(pres, P2.full_selection(), [])


def two_path_verify_globally_defined(
    pres, lifted, family, subtorus_generators=(), seed=20260817
):
    """The previous form of verify_globally_defined, kept as the reference:
    monomial families are decided combinatorially, and any polynomial
    member switches coverage and containment to seeded rational sampling."""
    if lifted.fan != pres.coordinate_fan:
        raise ValueError("the open set must be a selection on the coordinate fan")
    n = len(pres.fan.rays)
    lat = saturate(Sublattice.from_rows(pres.fan.rank, subtorus_generators))
    section_of_quotient = right_inverse_of_surjection(pres.ray_map)
    lifts = [section_of_quotient.matvec(b) for b in lat.basis.entries]

    def weight(exponents):
        return tuple(dot(exponents, v) for v in lifts)

    rng = random.Random(seed)
    members = []
    all_monomial = True
    for section in family:
        if isinstance(section, MonomialSection):
            supp = section.support()
            nonzero = frozenset(k for k in lifted.keys if not k & supp)
            hull = frozenset(chain.from_iterable(nonzero)) if nonzero else frozenset()
            affine = bool(nonzero) and hull in nonzero
            contained = all(
                k in lifted.keys for k in pres.coordinate_fan.cone_keys() if not k & supp
            )
            members.append(
                SectionVerdict(
                    section,
                    homogeneous=True,
                    affine=affine,
                    contained=contained,
                    detail="combinatorial",
                )
            )
        elif isinstance(section, PolynomialSection):
            all_monomial = False
            weights = {weight(e) for _, e in section.terms}
            homogeneous = len(weights) <= 1 and (
                section.declared_weight is None
                or set(weights) <= {tuple(section.declared_weight)}
            )
            contained = True
            outside = set(pres.coordinate_fan.cone_keys()) - lifted.keys
            for key in sorted(outside, key=sorted):
                points = [_orbit_point(key, n, rng) for _ in range(3)]
                points.append(tuple((0 if i in key else 1, 1) for i in range(n)))
                if any(_vanishing_test(section)(key, p) for p in points):
                    contained = False
                    break
            members.append(
                SectionVerdict(
                    section,
                    homogeneous=homogeneous,
                    affine=None,
                    contained=contained,
                    detail="not combinatorially decidable; sampled",
                )
            )
        else:
            raise ValueError("family members must be sections")

    coverage_witness = None
    if all_monomial:
        keys = sorted(lifted.keys, key=sorted)
        coverage = True
        for a in keys:
            for b in keys:
                if not any(
                    not (a & m.section.support()) and not (b & m.section.support())
                    for m in members
                ):
                    coverage = False
                    coverage_witness = (a, b)
                    break
            if not coverage:
                break
    else:
        coverage = True
        keys = sorted(lifted.keys, key=sorted)
        if keys:
            for _ in range(COVERAGE_SAMPLES):
                ka, kb = rng.choice(keys), rng.choice(keys)
                pa, pb = _orbit_point(ka, n, rng), _orbit_point(kb, n, rng)
                if not any(
                    _vanishing_test(m.section)(ka, pa) and _vanishing_test(m.section)(kb, pb)
                    for m in members
                ):
                    coverage = False
                    coverage_witness = (ka, kb)
                    break
    witness = (
        coverage
        and all(m.homogeneous for m in members)
        and all(m.affine is not False for m in members)
        and all(m.contained for m in members)
    )
    return WitnessReport(
        members=tuple(members),
        coverage=coverage,
        coverage_witness=coverage_witness,
        sampled=not all_monomial,
        witness_family=witness,
    )


INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def shipped_families(pres, name):
    """The section families of a shipped problem file, built as the cox
    command builds them."""
    return {
        label: [
            canonical_section(pres, spec.exponents)
            if isinstance(spec, MonomialSpec)
            else PolynomialSection(spec.terms, declared_weight=spec.weight)
            for spec in specs
        ]
        for label, specs in load_problem(str(INPUTS / name)).families.items()
    }


def coordinate_families(pres):
    """The shipped families' shape on any fan: the coordinates, and the
    coordinates with the sum of every pair of them."""
    n = len(pres.fan.rays)
    unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    coordinates = [canonical_section(pres, e) for e in unit]
    sums = [PolynomialSection(((1, a), (1, b))) for a, b in combinations(unit, 2)]
    return {"coordinates": coordinates, "witnesses": coordinates + sums}


def extra_families(pres):
    """The chart monomials (each the product of the coordinates outside a
    maximal cone) with their sum, monomials beside a polynomial with a
    declared weight, an inhomogeneous one, and a constant one, and a family
    listing a monomial and a polynomial twice each."""
    n = len(pres.fan.rays)
    e = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    square = tuple(2 * a for a in e[1])
    charts = [
        canonical_section(pres, [int(i not in top) for i in range(n)])
        for top in sorted(pres.fan.max_cones, key=key_order)
    ]
    return {
        "charts": charts + [PolynomialSection(tuple((1, c.exponents) for c in charts))],
        "declared": [
            canonical_section(pres, e[0]),
            PolynomialSection(((1, e[0]), (-1, e[1])), declared_weight=(1,)),
        ],
        "inhomogeneous": [
            canonical_section(pres, e[1]),
            PolynomialSection(((1, e[0]), (Fraction(1, 2), square))),
        ],
        "constant": [
            canonical_section(pres, e[-1]),
            PolynomialSection(((3, (0,) * n),)),
        ],
        "repeated": [
            canonical_section(pres, e[0]),
            PolynomialSection(((1, e[0]), (1, e[1]))),
            canonical_section(pres, e[0]),
            PolynomialSection(((1, e[0]), (1, e[1]))),
        ],
    }


WITNESS_CASES = {
    "p2": (P2, "p2.json"),
    "p112": (P112, "p112.json"),
    "p1xp1": (P1XP1, None),
    "c2": (C2, None),
}


def lifts_of(pres):
    """Lifts of the full, punctured (first chart removed), one-chart, torus
    and empty selections."""
    fan = pres.fan
    top = min(fan.max_cones, key=key_order)
    selections = {
        "full": fan.full_selection(),
        "punctured": SubfanSelection(fan, [k for k in fan.cone_keys() if k != top]),
        "one chart": SubfanSelection(fan, [k for k in fan.cone_keys() if k <= top]),
        "torus": SubfanSelection(fan, [frozenset()]),
        "empty": fan.empty_selection(),
    }
    return {name: lift_open(pres, sel) for name, sel in selections.items()}


class TestOnePathAgainstTwoPaths:
    @pytest.mark.parametrize("case", sorted(WITNESS_CASES))
    def test_whole_reports_agree(self, case):
        fan, shipped = WITNESS_CASES[case]
        pres = cox_presentation(fan)
        families = shipped_families(pres, shipped) if shipped else coordinate_families(pres)
        families.update(extra_families(pres))
        seen = Counter()
        for lifted in lifts_of(pres).values():
            for family in families.values():
                for subtorus in ((), [(1, 1)]):
                    for seed in range(1, 21):
                        want = two_path_verify_globally_defined(
                            pres, lifted, family, subtorus, seed
                        )
                        got = verify_globally_defined(
                            pres, lifted, family, subtorus, seed
                        )
                        assert got == want, (case, lifted, family, subtorus, seed)
                        seen[got.sampled, got.coverage, got.witness_family] += 1
        # both pair sources, each with both coverage verdicts, and families
        # that are and are not witness families
        assert {(s, c) for s, c, _ in seen} == {
            (True, True), (True, False), (False, True), (False, False)
        }
        assert {w for _, _, w in seen} == {True, False}

    def test_members_are_checked_before_any_verdict(self):
        pres = cox_presentation(P2)
        lifted = lift_open(pres, P2.full_selection())
        family = [canonical_section(pres, (1, 0, 0)), (1, 0, 0)]
        with pytest.raises(ValueError, match="family members must be sections"):
            verify_globally_defined(pres, lifted, iter(family))
