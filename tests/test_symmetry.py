"""Symmetry groups, W-sets, and the theorem/corollary/identity checkers."""

import random

import pytest

from toricgit.fans import Fan, FanAutomorphism, SubfanSelection, enumerate_open_subsets
from toricgit.intlat import IntMatrix
from toricgit.quotients import (
    QuotientFan,
    enumerate_good_subsets,
    good_quotient,
    is_saturated,
    normalize_action,
    t_maximal_subsets,
)
from toricgit.symmetry import (
    GroupActionData,
    SymmetryGroup,
    composite_fiber_classes,
    eq1_crosscheck,
    generate_symmetry_group,
    induced_symmetry,
    verify_corollary,
    verify_theorem_conclusions,
    w_set,
)

P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
A1 = Fan(1, [(1,)], [{0}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
P1XP1 = Fan(2, [(1, 0), (-1, 0), (0, 1), (0, -1)], [{0, 2}, {0, 3}, {1, 2}, {1, 3}])

NEG1 = ((-1,),)
ROT3 = ((0, -1), (1, -1))  # cycles the three rays of P2
FLIP_FIRST = ((-1, 0), (0, 1))  # negates the first P1 factor


def fs(*items):
    return frozenset(items)


def p1_sym():
    return generate_symmetry_group(P1, [NEG1])


def p1_full_torus_data(sym=None):
    act = normalize_action(P1, [(1,)])
    return GroupActionData(act, sym if sym is not None else p1_sym())


def p1xp1_data():
    act = normalize_action(P1XP1, [(1, 0)])
    return GroupActionData(act, generate_symmetry_group(P1XP1, [FLIP_FIRST]))


class TestSymmetryGroup:
    def test_trivial_group(self):
        g = SymmetryGroup.trivial(P1)
        assert g.is_trivial() and len(g) == 1

    def test_generation_closes_the_set(self):
        g = p1_sym()
        assert len(g) == 2
        assert {e.matrix.entries for e in g} == {((1,),), ((-1,),)}
        rot = generate_symmetry_group(P2, [ROT3])
        assert len(rot) == 3

    def test_identity_required(self):
        neg = FanAutomorphism(P1, IntMatrix(NEG1))
        with pytest.raises(ValueError):
            SymmetryGroup(P1, [neg])

    def test_closure_required(self):
        ident = FanAutomorphism(P2, IntMatrix.identity(2))
        rot = FanAutomorphism(P2, IntMatrix(ROT3))
        with pytest.raises(ValueError):
            SymmetryGroup(P2, [ident, rot])  # rot squared is missing

    def test_duplicates_rejected(self):
        ident = FanAutomorphism(P1, IntMatrix.identity(1))
        with pytest.raises(ValueError):
            SymmetryGroup(P1, [ident, ident])

    def test_generation_size_guard(self):
        with pytest.raises(ValueError):
            generate_symmetry_group(P2, [ROT3], limit=2)

    def test_nonpreserving_matrix_rejected(self):
        with pytest.raises(ValueError):
            generate_symmetry_group(P2, [((1, 1), (0, 1))])


class TestGroupActionData:
    def test_compatible_data_accepted(self):
        data = p1xp1_data()
        assert len(data.sym) == 2

    def test_factor_swap_breaks_compatibility(self):
        act = normalize_action(P1XP1, [(1, 0)])
        swap = generate_symmetry_group(P1XP1, [((0, 1), (1, 0))])
        with pytest.raises(ValueError):
            GroupActionData(act, swap)

    def test_fan_mismatch_rejected(self):
        act = normalize_action(P1, [(1,)])
        with pytest.raises(ValueError):
            GroupActionData(act, SymmetryGroup.trivial(A1))


def translate(gamma, selection):
    """Image of an open selection under a fan symmetry; SubfanSelection
    checks that it is open."""
    return SubfanSelection(selection.fan, [gamma.apply_key(k) for k in selection.keys])


class TestTranslate:
    def test_ray_swap_on_the_line(self):
        neg = FanAutomorphism(P1, IntMatrix(NEG1))
        sel = SubfanSelection(P1, [fs(), fs(0)])
        assert translate(neg, sel).keys == {fs(), fs(1)}

    def test_identity_fixes_everything(self):
        ident = FanAutomorphism(P1, IntMatrix.identity(1))
        sel = SubfanSelection(P1, [fs(), fs(0)])
        assert translate(ident, sel).keys == sel.keys

    def test_three_cycle_moves_a_chart(self):
        rot = FanAutomorphism(P2, IntMatrix(ROT3))
        chart = SubfanSelection(P2, [fs(), fs(0), fs(1), fs(0, 1)])
        assert translate(rot, chart).keys == {fs(), fs(1), fs(2), fs(1, 2)}

    def test_involutive_with_inverse(self):
        rot = FanAutomorphism(P2, IntMatrix(ROT3))
        for sel in enumerate_open_subsets(P2):
            assert translate(rot.inverse(), translate(rot, sel)).keys == sel.keys


class TestWSet:
    def test_chart_intersects_to_the_torus(self):
        data = p1_full_torus_data()
        chart = SubfanSelection(P1, [fs(), fs(0)])
        assert w_set(chart, data).keys == {fs()}

    def test_trivial_symmetry_fixes_input(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        for sel in enumerate_open_subsets(P1):
            assert w_set(sel, data).keys == sel.keys

    def test_invariant_input_is_a_fixed_point(self):
        data = p1_full_torus_data()
        full = P1.full_selection()
        assert w_set(full, data).keys == full.keys

    def test_idempotent_monotone_invariant(self):
        data = p1xp1_data()
        opens = enumerate_open_subsets(P1XP1)
        rng = random.Random(20260817)
        for _ in range(60):
            u = rng.choice(opens)
            w = w_set(u, data)
            assert w_set(w, data).keys == w.keys
            assert all(
                {g.apply_key(k) for k in w.keys} == set(w.keys) for g in data.sym
            )
            v = rng.choice(opens)
            if u.keys <= v.keys:
                assert w.keys <= w_set(v, data).keys
            union = u.union(v)
            assert w.keys <= w_set(union, data).keys


class TestTheoremChecker:
    def test_projective_line_failure_is_honest(self):
        data = p1_full_torus_data()
        chart = SubfanSelection(P1, [fs(), fs(0)])
        report = verify_theorem_conclusions(chart, data)
        assert not report.refused
        assert report.w_keys == ((),)  # W is the bare torus
        assert report.open_in_source
        assert report.quotient_exists  # a single point
        assert report.saturated_in_input is False
        assert report.caveat  # disconnected group data
        assert not report.conclusions_hold()

    def test_trivial_symmetry_passes_everywhere(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        for u in t_maximal_subsets(P1, data.act):
            report = verify_theorem_conclusions(u, data)
            assert not report.refused
            assert report.w_keys == tuple(sorted(tuple(sorted(k)) for k in u.keys))
            assert report.quotient_exists
            assert report.saturated_in_input
            assert report.caveat == ""
            assert report.conclusions_hold()

    def test_non_maximal_input_is_refused(self):
        data = p1_full_torus_data()
        report = verify_theorem_conclusions(P1.empty_selection(), data)
        assert report.refused
        assert "saturated inside" in report.diagnosis
        bad = verify_theorem_conclusions(P1.full_selection(), data)
        assert bad.refused
        assert "no good quotient" in bad.diagnosis

    def test_orbit_classes_of_the_point_quotient(self):
        data = p1_full_torus_data()
        chart = SubfanSelection(P1, [fs(), fs(0)])
        report = verify_theorem_conclusions(chart, data)
        # one orbit, containing only the zero cone of the point quotient
        assert report.orbit_classes == (((),),)

    def test_product_sweep_matches_direct_computation(self):
        data = p1xp1_data()
        act = data.act
        goods = enumerate_good_subsets(P1XP1, act)
        maximal = t_maximal_subsets(P1XP1, act)
        assert maximal  # the enumerator found candidates
        for u in maximal:
            # brute-force maximality recheck
            assert not any(
                u.keys < v.keys and is_saturated(u, v, act) for v in goods
            )
            report = verify_theorem_conclusions(u, data)
            assert not report.refused
            w = w_set(u, data)
            assert report.quotient_exists == isinstance(
                good_quotient(w, act), QuotientFan
            )
            assert report.saturated_in_input == is_saturated(w, u, act)


class TestCorollaryChecker:
    def test_projective_line_with_trivial_symmetry(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        report = verify_corollary(P1, data)
        assert len(report.maximal_reports) == 3
        for keys, item in report.maximal_reports:
            assert item.w_keys == keys
            assert item.conclusions_hold()
        assert report.all_pass

    def test_rotation_on_projective_plane_with_trivial_torus(self):
        data = GroupActionData(
            normalize_action(P2, []), generate_symmetry_group(P2, [ROT3])
        )
        report = verify_corollary(P2, data)
        assert len(report.maximal_reports) == 1  # only the full selection
        assert report.maximal_reports[0][1].conclusions_hold()
        # invariant opens: empty, torus, torus+rays, everything
        assert len(report.invariant_reports) == 4
        assert all(found is not None for _, found, _ in report.invariant_reports)
        assert all(sat for _, _, sat in report.invariant_reports)
        assert report.all_pass

    def test_empty_selection_is_vacuously_saturated(self):
        data = GroupActionData(
            normalize_action(P2, []), generate_symmetry_group(P2, [ROT3])
        )
        report = verify_corollary(P2, data)
        empty_rows = [row for row in report.invariant_reports if row[0] == ()]
        assert empty_rows and empty_rows[0][2] is True

    def test_disconnected_failure_is_surfaced(self):
        report = verify_corollary(P1, p1_full_torus_data())
        assert not report.all_pass
        failing = [item for _, item in report.maximal_reports if not item.conclusions_hold()]
        assert failing  # the two affine charts fail saturation

    def test_incomplete_fan_rejected(self):
        data = GroupActionData(normalize_action(C2, []), SymmetryGroup.trivial(C2))
        with pytest.raises(ValueError):
            verify_corollary(C2, data)


class TestInducedAction:
    def test_negation_descends_to_the_torus_quotient(self):
        act = normalize_action(P1, [])
        q = good_quotient(SubfanSelection(P1, [fs()]), act)
        neg = FanAutomorphism(P1, IntMatrix(NEG1))
        induced = induced_symmetry(q, neg)
        assert induced.matrix == IntMatrix(NEG1)

    def test_first_factor_flip_is_trivial_downstairs(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        assert isinstance(q, QuotientFan)
        flip = next(g for g in data.sym if not g.is_identity())
        assert induced_symmetry(q, flip).is_identity()

    def test_composite_classes_group_symmetry_orbits(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        classes = composite_fiber_classes(q, data)
        assert classes[fs(2)] != classes[fs(3)]
        assert classes[fs()] != classes[fs(2)]

    def test_disjoint_saturated_upsets_have_disjoint_classes(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        classes = composite_fiber_classes(q, data)
        keys = list(sel.keys)
        for t in keys:
            for s in keys:
                up_t = {k for k in keys if t <= k}
                up_s = {k for k in keys if s <= k}
                sat_t = {k for k in keys if classes[k] in {classes[j] for j in up_t}}
                sat_s = {k for k in keys if classes[k] in {classes[j] for j in up_s}}
                if not sat_t & sat_s:
                    assert {classes[k] for k in sat_t}.isdisjoint(
                        {classes[k] for k in sat_s}
                    )


class TestEq1Crosscheck:
    def test_affine_chart_of_the_line_empties_both_sides(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        xprime = SubfanSelection(P1, [fs(), fs(0)])
        x = SubfanSelection(P1, [fs()])
        report = eq1_crosscheck(xprime, x, data)
        assert report.hypothesis_ok
        assert report.u_keys == ()
        assert report.left == ()
        assert report.right == ()
        assert report.holds()

    def test_trivial_symmetry_reduces_to_the_saturated_core(self):
        act = normalize_action(C2, [(1, 1)])
        data = GroupActionData(act, SymmetryGroup.trivial(C2))
        xprime = C2.full_selection()
        for x in enumerate_open_subsets(C2):
            report = eq1_crosscheck(xprime, x, data)
            assert report.hypothesis_ok
            assert report.holds(), report.witness
            assert report.left == report.u_keys

    def test_containment_hypothesis_enforced(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        xprime = SubfanSelection(P1, [fs(), fs(0)])
        x = SubfanSelection(P1, [fs(), fs(1)])
        report = eq1_crosscheck(xprime, x, data)
        assert not report.hypothesis_ok
        assert "not contained" in report.diagnosis

    def test_obstructed_outer_selection_reported(self):
        data = p1_full_torus_data(sym=SymmetryGroup.trivial(P1))
        report = eq1_crosscheck(
            P1.full_selection(), SubfanSelection(P1, [fs()]), data
        )
        assert not report.hypothesis_ok
        assert "no good quotient" in report.diagnosis

    def test_noninvariant_selection_reported(self):
        data = p1_full_torus_data()
        xprime = SubfanSelection(P1, [fs(), fs(0)])
        report = eq1_crosscheck(xprime, SubfanSelection(P1, [fs()]), data)
        assert not report.hypothesis_ok
        assert "symmetry-invariant" in report.diagnosis

    def test_product_corpus_sweep_has_no_counterexample(self):
        data = p1xp1_data()
        opens = enumerate_open_subsets(P1XP1)
        invariant_goods = [
            g
            for g in enumerate_good_subsets(P1XP1, data.act)
            if all(
                {t.apply_key(k) for k in g.keys} == set(g.keys) for t in data.sym
            )
        ]
        assert invariant_goods
        checked = 0
        for xprime in invariant_goods:
            for x in opens:
                if not x.keys <= xprime.keys:
                    continue
                if not all(
                    {t.apply_key(k) for k in x.keys} == set(x.keys)
                    for t in data.sym
                ):
                    continue
                report = eq1_crosscheck(xprime, x, data)
                assert report.hypothesis_ok
                assert report.holds(), (sorted(map(sorted, xprime.keys)), report.witness)
                checked += 1
        assert checked >= 10
