"""Symmetry groups, W-sets, and the theorem/corollary/identity checkers."""

import dataclasses
import random
from pathlib import Path

import pytest

from test_quotients import ENUMERATION_CASES
from toricgit.corpus import _negation_symmetric, actions_for, corpus_fans
from toricgit.fans import (
    Fan,
    FanAutomorphism,
    SubfanSelection,
    bits,
    enumerate_open_subsets,
    is_complete,
    key_order,
)
from toricgit.intlat import IntMatrix, right_inverse_of_surjection
from toricgit.problemfile import load_problem
from toricgit.quotients import (
    Obstruction,
    QuotientFan,
    _saturation,
    enumerate_good_subsets,
    good_quotient,
    is_saturated,
    max_saturated_inside,
    normalize_action,
    t_maximal_subsets,
)
from toricgit import symmetry
from toricgit.symmetry import (
    CorollaryReport,
    Eq1Report,
    GroupActionData,
    SymmetryGroup,
    TheoremReport,
    eq1_crosscheck,
    is_invariant,
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
SWAP2 = ((0, 1), (1, 0))  # with ROT3, all of S3 on the rays of P2
FLIP_FIRST = ((-1, 0), (0, 1))  # negates the first P1 factor


def fs(*items):
    return frozenset(items)


def inverse(gamma):
    return FanAutomorphism(gamma.fan, right_inverse_of_surjection(gamma.matrix))


def is_identity(gamma):
    return gamma.matrix == IntMatrix.identity(gamma.fan.rank)


def p1_sym():
    return SymmetryGroup(P1, [NEG1])


def p1_full_torus_data(sym=None):
    act = normalize_action(P1, [(1,)])
    return GroupActionData(act, sym if sym is not None else p1_sym())


def p1xp1_data():
    act = normalize_action(P1XP1, [(1, 0)])
    return GroupActionData(act, SymmetryGroup(P1XP1, [FLIP_FIRST]))


class TestSymmetryGroup:
    def test_trivial_group(self):
        g = SymmetryGroup.trivial(P1)
        assert g.is_trivial() and len(g) == 1

    def test_generation_closes_the_set(self):
        g = p1_sym()
        assert len(g) == 2
        assert {e.matrix.entries for e in g} == {((1,),), ((-1,),)}
        rot = SymmetryGroup(P2, [ROT3])
        assert len(rot) == 3

    def test_one_rotation_closes_to_three_elements_with_the_identity(self):
        rot = SymmetryGroup(P2, [ROT3])
        assert len(rot) == 3 and any(is_identity(e) for e in rot)
        assert {e.matrix for e in rot} == {
            IntMatrix.identity(2), IntMatrix(ROT3), IntMatrix(ROT3) @ IntMatrix(ROT3)
        }

    def test_a_repeated_generator_gives_the_same_group(self):
        once = SymmetryGroup(P2, [ROT3, SWAP2])
        twice = SymmetryGroup(P2, [ROT3, SWAP2, ROT3, SWAP2])
        assert len(once) == 6
        assert [e.matrix for e in once] == [e.matrix for e in twice]

    def test_generation_size_guard(self):
        with pytest.raises(ValueError):
            SymmetryGroup(P2, [ROT3], limit=2)

    def test_infinite_closure_stops_at_the_size_limit(self):
        # a shear fixing the only ray has infinite order: its powers permute
        # the rays like the identity, and their matrices are all distinct
        ray = Fan(2, [(1, 0)], [{0}])
        shear = FanAutomorphism(ray, IntMatrix(((1, 1), (0, 1))))
        assert shear.ray_perm == (0,)
        with pytest.raises(ValueError, match="symmetry group exceeds the size limit"):
            SymmetryGroup(ray, [((1, 1), (0, 1))], limit=8)

    def test_nonpreserving_matrix_rejected(self):
        with pytest.raises(ValueError):
            SymmetryGroup(P2, [((1, 1), (0, 1))])


def closure_with_inverses(fan, matrices):
    """SymmetryGroup's element matrices as they were closed before
    the closure from the identity, kept as the reference: every element is
    composed with each new one on both sides, and new ones are inverted."""
    identity = FanAutomorphism(fan, IntMatrix.identity(fan.rank))
    elements = {identity.matrix: identity}
    frontier = []
    for m in matrices:
        auto = FanAutomorphism(fan, IntMatrix(m))
        if auto.matrix not in elements:
            elements[auto.matrix] = auto
            frontier.append(auto)
    while frontier:
        fresh = []
        for a in list(elements.values()):
            for b in frontier:
                for c in (a.compose(b), b.compose(a), inverse(b)):
                    if c.matrix not in elements:
                        elements[c.matrix] = c
                        fresh.append(c)
        frontier = fresh
    return sorted(m.entries for m in elements)


def generator_cases():
    """(fan, generator matrices): the shipped problem files with symmetries,
    S3 on P2, and the negation of every negation-symmetric corpus fan."""
    cases = []
    for path in sorted((Path(__file__).parent.parent / "inputs").glob("*.json")):
        problem = load_problem(path)
        if problem.symmetries:
            cases.append((problem.fan, problem.symmetries))
    cases.append((P2, [ROT3, SWAP2]))
    for fan in corpus_fans():
        if _negation_symmetric(fan):
            d = fan.rank
            negation = [[-1 if i == j else 0 for j in range(d)] for i in range(d)]
            cases.append((fan, [negation]))
    return cases


class TestClosureFromTheIdentity:
    def test_elements_match_the_reference_closure(self):
        cases = generator_cases()
        assert len(cases) >= 5
        for fan, matrices in cases:
            group = SymmetryGroup(fan, matrices)
            assert [e.matrix.entries for e in group] == closure_with_inverses(
                fan, matrices
            ), fan.rays

    def test_no_inverse_is_built(self, monkeypatch):
        # every inverse or section is read off a Smith form
        def forbidden(A):
            raise AssertionError("a Smith form was computed")

        monkeypatch.setattr("toricgit.intlat.smith_normal_form", forbidden)
        for fan, matrices in generator_cases():
            SymmetryGroup(fan, matrices)

    def test_every_closure_is_a_group(self):
        for fan, matrices in generator_cases():
            group = SymmetryGroup(fan, matrices)
            pool = {e.matrix for e in group}
            assert len(pool) == len(group), fan.rays
            assert IntMatrix.identity(fan.rank) in pool, fan.rays
            for a in group:
                for b in group:
                    assert a.matrix @ b.matrix in pool, fan.rays

    def test_the_search_builds_one_automorphism_per_element_and_generator(
        self, monkeypatch
    ):
        # the hyperoctahedral group on (P1)^4 from a 4-cycle of the factors,
        # a swap of two and one sign change; checking closure on every pair
        # of its elements built 148,612 automorphisms
        rays = [
            tuple(s if j == i else 0 for j in range(4)) for i in range(4) for s in (1, -1)
        ]
        cones = [
            [a, b, c, d] for a in (0, 1) for b in (2, 3) for c in (4, 5) for d in (6, 7)
        ]
        fan = Fan(4, rays, cones)
        generators = [
            ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
            ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
            ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ]
        built = 0
        init = FanAutomorphism.__init__

        def counted(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(FanAutomorphism, "__init__", counted)
        group = SymmetryGroup(fan, generators)
        assert len(group) == 384
        assert built <= len(group) * len(generators) + len(generators) + 1


class TestGroupActionData:
    def test_compatible_data_accepted(self):
        data = p1xp1_data()
        assert len(data.sym) == 2

    def test_factor_swap_breaks_compatibility(self):
        act = normalize_action(P1XP1, [(1, 0)])
        swap = SymmetryGroup(P1XP1, [((0, 1), (1, 0))])
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
            assert translate(inverse(rot), translate(rot, sel)).keys == sel.keys


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
            normalize_action(P2, []), SymmetryGroup(P2, [ROT3])
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
            normalize_action(P2, []), SymmetryGroup(P2, [ROT3])
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
    # the induced action on the quotient fan, by the reference route below
    def test_negation_descends_to_the_torus_quotient(self):
        act = normalize_action(P1, [])
        q = good_quotient(SubfanSelection(P1, [fs()]), act)
        neg = FanAutomorphism(P1, IntMatrix(NEG1))
        induced = reference_induced_symmetry(q, neg)
        assert induced.matrix == IntMatrix(NEG1)

    def test_first_factor_flip_is_trivial_downstairs(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        assert isinstance(q, QuotientFan)
        flip = next(g for g in data.sym if not is_identity(g))
        assert is_identity(reference_induced_symmetry(q, flip))

    def test_composite_classes_group_symmetry_orbits(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        classes = reference_composite_fiber_classes(q, data)
        assert classes[fs(2)] != classes[fs(3)]
        assert classes[fs()] != classes[fs(2)]

    def test_disjoint_saturated_upsets_have_disjoint_classes(self):
        data = p1xp1_data()
        sel = SubfanSelection(P1XP1, [fs(), fs(2), fs(3)])
        q = good_quotient(sel, data.act)
        classes = reference_composite_fiber_classes(q, data)
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

    def test_inner_selection_of_another_fan_rejected(self):
        act = normalize_action(C2, [(1, 1)])
        data = GroupActionData(act, SymmetryGroup.trivial(C2))
        inner = SubfanSelection(P2, [fs(), fs(2)])
        with pytest.raises(ValueError, match="selection lives on a different fan"):
            eq1_crosscheck(C2.full_selection(), inner, data)

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


# The W-set routines before masks, kept as the reference: translates,
# invariance, the removed-piece identity and the corollary's host search
# all compare key sets.
def keyset_translates_meet(keys, sym):
    meet = set(keys)
    for gamma in sym:
        meet &= {gamma.apply_key(k) for k in keys}
    return meet


def keyset_w_set(selection, data):
    return SubfanSelection(selection.fan, keyset_translates_meet(selection.keys, data.sym))


def keyset_is_invariant(data, keys):
    return all({gamma.apply_key(k) for k in keys} == set(keys) for gamma in data.sym)


def keyset_composite_saturation(q, data, subset):
    classes = reference_composite_fiber_classes(q, data)
    hit = {classes[t] for t in subset}
    return {t for t in q.source.keys if classes[t] in hit}


def sorted_keys(keys):
    return tuple(sorted(tuple(sorted(k)) for k in keys))


def keyset_eq1_crosscheck(xprime, x, data, saturation=keyset_composite_saturation):
    act = data.act
    if not x.keys <= xprime.keys:
        return Eq1Report(
            False, "inner selection is not contained in the outer one",
            None, None, None, None, None,
        )
    q = good_quotient(xprime, act)
    if isinstance(q, Obstruction):
        return Eq1Report(
            False, f"outer selection admits no good quotient: {q.detail}",
            None, None, None, None, None,
        )
    if not keyset_is_invariant(data, xprime.keys) or not keyset_is_invariant(data, x.keys):
        return Eq1Report(
            False, "selections are not symmetry-invariant",
            None, None, None, None, None,
        )
    u = max_saturated_inside(xprime, x, act)
    left = set(keyset_w_set(u, data).keys)
    w_outer = set(keyset_w_set(xprime, data).keys)
    w_removed = keyset_translates_meet(xprime.keys - x.keys, data.sym)
    right = w_outer - saturation(q, data, w_removed)
    difference = left ^ right
    witness = None
    if difference:
        witness = tuple(sorted(min(difference, key=key_order)))
    return Eq1Report(
        hypothesis_ok=True,
        diagnosis="",
        u_keys=sorted_keys(u.keys),
        left=sorted_keys(left),
        right=sorted_keys(right),
        equal=not difference,
        witness=witness,
    )


def keyset_invariant_reports(fan, data):
    act = data.act
    maximal = t_maximal_subsets(fan, act)
    reports = []
    for v in enumerate_good_subsets(fan, act):
        if not keyset_is_invariant(data, v.keys):
            continue
        hosts = [u for u in maximal if v.keys <= keyset_w_set(u, data).keys]
        if not hosts:
            reports.append((sorted_keys(v.keys), None, False))
            continue
        host = hosts[0]
        q = good_quotient(keyset_w_set(host, data), act)
        saturated = isinstance(q, QuotientFan) and (
            keyset_composite_saturation(q, data, v.keys) == set(v.keys)
        )
        reports.append((sorted_keys(v.keys), sorted_keys(host.keys), saturated))
    return tuple(reports)


P3 = Fan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}],
)
SWAP3 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
CYCLE3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))

KEYSET_CASES = {
    "p2_s3_trivial_torus": (P2, [], [ROT3, SWAP2]),
    "p2_s3_full_torus": (P2, [(1, 0), (0, 1)], [ROT3, SWAP2]),
    "p1xp1_flip": (P1XP1, [(1, 0)], [FLIP_FIRST]),
    # the maximal torus of SL3 acting through the first three coordinates
    "p3_sum_zero_s3": (P3, [(1, -1, 0), (0, 1, -1)], [SWAP3, CYCLE3]),
}


def keyset_case(case):
    fan, gens, matrices = KEYSET_CASES[case]
    data = GroupActionData(
        normalize_action(fan, gens), SymmetryGroup(fan, matrices)
    )
    return fan, data, enumerate_open_subsets(fan)


class TestMaskRoutinesAgainstKeySets:
    def test_the_groups(self):
        assert [len(keyset_case(c)[1].sym) for c in sorted(KEYSET_CASES)] == [2, 6, 6, 6]

    @pytest.mark.parametrize("case", sorted(KEYSET_CASES))
    def test_translates_w_sets_and_invariance(self, case):
        fan, data, opens = keyset_case(case)
        _, bit = fan.numbering()
        for sel in opens:
            for gamma in data.sym:
                moved = {gamma.apply_key(k) for k in sel.keys}
                assert gamma.apply_mask(sel.mask) == sum(1 << bit[k] for k in moved)
            w = w_set(sel, data)
            want = keyset_w_set(sel, data)
            assert (w.keys, w.mask) == (want.keys, want.mask), sel
            assert is_invariant(data, sel.mask) == keyset_is_invariant(data, sel.keys)

    @pytest.mark.parametrize("case", sorted(KEYSET_CASES))
    def test_eq1_crosscheck(self, case):
        fan, data, opens = keyset_case(case)
        rng = random.Random(20260817)
        goods = enumerate_good_subsets(fan, data.act)
        outers = goods + rng.sample(opens, min(10, len(opens)))
        verdicts = set()
        for xprime in outers:
            inners = [x for x in opens if x <= xprime]
            inners += rng.sample(opens, min(3, len(opens)))
            for x in rng.sample(inners, min(30, len(inners))):
                got = eq1_crosscheck(xprime, x, data)
                assert got == keyset_eq1_crosscheck(xprime, x, data), (xprime, x)
                verdicts.add(got.diagnosis.split(" ", 1)[0] if got.diagnosis else got.equal)
        assert True in verdicts and "selections" in verdicts

    def test_eq1_witness_on_forged_fiber_classes(self, monkeypatch):
        # the identity holds on every case, so the sides are made to differ
        # by giving each cone of the outer quotient a fibre of its own
        def forged(selection, act):
            q = good_quotient(selection, act)
            if isinstance(q, QuotientFan):
                q = dataclasses.replace(q, fibres={t: 1 << t for t in q.fibres})
            return q

        monkeypatch.setattr(symmetry, "good_quotient", forged)
        witnesses = 0
        for case in sorted(KEYSET_CASES):
            fan, data, opens = keyset_case(case)
            for xprime in enumerate_good_subsets(fan, data.act):
                for x in opens:
                    if x <= xprime:
                        got = eq1_crosscheck(xprime, x, data)
                        want = keyset_eq1_crosscheck(
                            xprime, x, data, saturation=lambda q, data, subset: subset
                        )
                        assert got == want, (xprime, x)
                        witnesses += got.witness is not None
        assert witnesses

    @pytest.mark.parametrize("case", sorted(KEYSET_CASES))
    def test_verify_corollary(self, case):
        fan, data, _ = keyset_case(case)
        report = verify_corollary(fan, data)
        assert report.invariant_reports == keyset_invariant_reports(fan, data)
        for keys, theorem in report.maximal_reports:
            u = SubfanSelection(fan, keys)
            assert theorem.w_keys == sorted_keys(keyset_w_set(u, data).keys)

    def test_the_sum_zero_plane_fails_as_measured(self):
        # six of the thirteen maximal sets fail (i) on saturation (ROADMAP)
        fan, data, _ = keyset_case("p3_sum_zero_s3")
        report = verify_corollary(fan, data)
        failing = [r for _, r in report.maximal_reports if not r.conclusions_hold()]
        assert (len(report.maximal_reports), len(failing)) == (13, 6)
        assert all(r.saturated_in_input is False for r in failing)


# The composite quotient as the checkers modelled it on the target fan,
# kept as the reference: each symmetry induces an automorphism of the
# quotient fan, one Smith-form section each; a cone's composite fiber
# class is the induced orbit of its orbit image; the theorem's orbit
# classes partition the target cones; and the corollary reports an
# invariant good subset outside every W-set as having no host
# (keyset_invariant_reports above).
def reference_induced_symmetry(q, gamma):
    section = right_inverse_of_surjection(q.proj_full)
    return FanAutomorphism(q.fan, (q.proj_full @ gamma.matrix) @ section)


def reference_composite_fiber_classes(q, data):
    induced = [reference_induced_symmetry(q, gamma) for gamma in data.sym]
    return {
        t: frozenset(g.apply_key(q.orbit_map[t]) for g in induced)
        for t in q.source.keys
    }


def reference_composite_saturation(q, data, mask):
    classes = reference_composite_fiber_classes(q, data)
    keys, _ = q.source.fan.numbering()
    hit = {classes[keys[t]] for t in bits(mask)}
    return sum(1 << t for t in bits(q.source.mask) if classes[keys[t]] in hit)


def reference_orbit_partition(keys, automorphisms):
    seen = set()
    orbits = []
    for k in sorted(keys, key=key_order):
        if k in seen:
            continue
        orbit = {g.apply_key(k) for g in automorphisms}
        seen |= orbit
        orbits.append(sorted_keys(orbit))
    return tuple(sorted(orbits))


def reference_theorem_report(u, data):
    """verify_theorem_conclusions on a T-maximal u, with the orbit classes
    taken on the quotient fan."""
    act = data.act
    w = w_set(u, data)
    q = good_quotient(w, act)
    exists = isinstance(q, QuotientFan)
    orbit_classes = None
    if exists:
        induced = [reference_induced_symmetry(q, gamma) for gamma in data.sym]
        orbit_classes = reference_orbit_partition(q.fan.cone_keys(), induced)
    return TheoremReport(
        refused=False,
        diagnosis="",
        w_keys=sorted_keys(w.keys),
        quotient_exists=exists,
        quotient_detail="good quotient exists" if exists else f"obstructed: {q.detail}",
        saturated_in_input=is_saturated(w, u, act),
        orbit_classes=orbit_classes,
        caveat="" if data.sym.is_trivial() else symmetry._DISCONNECTED_CAVEAT,
    )


def reference_corollary_report(fan, data):
    maximal_reports = tuple(
        (sorted_keys(u.keys), reference_theorem_report(u, data))
        for u in t_maximal_subsets(fan, data.act)
    )
    invariant_reports = keyset_invariant_reports(fan, data)
    all_pass = all(r.conclusions_hold() for _, r in maximal_reports) and all(
        found is not None and saturated for _, found, saturated in invariant_reports
    )
    return CorollaryReport(maximal_reports, invariant_reports, all_pass)


def negation(rank):
    return [[-1 if i == j else 0 for j in range(rank)] for i in range(rank)]


def negation_cases():
    """The negation group on each negation-symmetric corpus fan, with each
    of the fan's actions."""
    cases = {}
    for i, fan in enumerate(corpus_fans()):
        if _negation_symmetric(fan):
            for j, act in enumerate(actions_for(fan)):
                cases[f"corpus{i}_action{j}"] = (fan, act.cochar.basis.entries)
    return cases


NEGATION_CASES = negation_cases()


def reference_case(case):
    """(fan, data, opens) of a keyset case or a negation case."""
    if case in KEYSET_CASES:
        return keyset_case(case)
    fan, gens = NEGATION_CASES[case]
    data = GroupActionData(
        normalize_action(fan, gens), SymmetryGroup(fan, [negation(fan.rank)])
    )
    return fan, data, enumerate_open_subsets(fan)


REFERENCE_CASES = sorted(KEYSET_CASES) + sorted(NEGATION_CASES)


def invariant_eq1_pairs(data, opens):
    """(xprime, x): every invariant good xprime with every invariant open x
    inside it, the pairs that meet eq1's hypotheses."""
    invariant = [x for x in opens if is_invariant(data, x.mask)]
    for xprime in enumerate_good_subsets(data.act.fan, data.act):
        if is_invariant(data, xprime.mask):
            for x in invariant:
                if x <= xprime:
                    yield xprime, x


def _translates_join(mask, sym):
    join = 0
    for gamma in sym:
        join |= gamma.apply_mask(mask)
    return join


def invariant_masks(q, data, rng, cap=256):
    """Unions of symmetry orbits of the cones of q's invariant source: all
    of them for at most eight orbits, else a seeded sample of cap."""
    orbits = sorted({
        _translates_join(1 << t, data.sym) for t in bits(q.source.mask)
    })
    if len(orbits) <= 8:
        picks = range(1 << len(orbits))
    else:
        picks = [rng.getrandbits(len(orbits)) for _ in range(cap)]
    for pick in picks:
        yield sum(orbit for i, orbit in enumerate(orbits) if pick >> i & 1)


class TestSourceRouteAgainstReference:
    def test_the_cases(self):
        assert len(NEGATION_CASES) == 42
        for case in NEGATION_CASES:
            fan, data, _ = reference_case(case)
            assert len(data.sym) == 2 and is_complete(fan)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_theorem_reports(self, case):
        fan, data, _ = reference_case(case)
        for u in t_maximal_subsets(fan, data.act):
            assert verify_theorem_conclusions(u, data) == reference_theorem_report(u, data)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_corollary_reports(self, case):
        fan, data, _ = reference_case(case)
        report = verify_corollary(fan, data)
        assert report == reference_corollary_report(fan, data)
        # (c): every invariant good subset has a host
        assert all(found is not None for _, found, _ in report.invariant_reports)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_eq1_reports(self, case):
        _, data, opens = reference_case(case)
        checked = 0
        for xprime, x in invariant_eq1_pairs(data, opens):
            got = eq1_crosscheck(xprime, x, data)
            assert got == keyset_eq1_crosscheck(xprime, x, data), (xprime, x)
            # the identity cannot fail once the hypotheses hold
            assert got.hypothesis_ok and got.equal
            checked += 1
        assert checked

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_composite_saturation_of_invariant_masks(self, case):
        # (a): the induced action commutes with the orbit map, and on an
        # invariant mask the composite saturation is the fibre saturation
        _, data, _ = reference_case(case)
        rng = random.Random(20260817)
        for w in enumerate_good_subsets(data.act.fan, data.act):
            if not w.mask or not is_invariant(data, w.mask):
                continue
            q = good_quotient(w, data.act)
            for gamma in data.sym:
                induced = reference_induced_symmetry(q, gamma)
                for t in w.keys:
                    assert q.orbit_map[gamma.apply_key(t)] == induced.apply_key(
                        q.orbit_map[t]
                    )
            for mask in invariant_masks(q, data, rng):
                assert _saturation(q.fibres, mask) == reference_composite_saturation(
                    q, data, mask
                )

    @pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
    def test_orbit_classes_under_the_trivial_group(self, case):
        # (b) with one element: the target cones are the orbit images
        fan, gens = ENUMERATION_CASES[case]
        act = normalize_action(fan, gens)
        trivial = SymmetryGroup.trivial(fan)
        for u in enumerate_good_subsets(fan, act):
            if u.mask:
                q = good_quotient(u, act)
                induced = [reference_induced_symmetry(q, g) for g in trivial]
                assert symmetry._orbit_classes(q, trivial) == reference_orbit_partition(
                    q.fan.cone_keys(), induced
                )

    def test_the_checkers_build_no_automorphism_off_the_source_fan(self, monkeypatch):
        built = []
        init = FanAutomorphism.__init__

        def recording(self, fan, matrix):
            built.append(fan)
            init(self, fan, matrix)

        monkeypatch.setattr(FanAutomorphism, "__init__", recording)
        for case in sorted(KEYSET_CASES):
            fan, data, opens = keyset_case(case)
            assert built  # the group's elements
            built.clear()
            for u in t_maximal_subsets(fan, data.act):
                verify_theorem_conclusions(u, data)
            verify_corollary(fan, data)
            for xprime, x in invariant_eq1_pairs(data, opens):
                eq1_crosscheck(xprime, x, data)
            assert [f for f in built if f is not fan] == []


CUBE = Fan(
    3,
    [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)],
    [
        [i for i in range(8) if (i >> (2 - axis) & 1) == side]
        for axis in range(3)
        for side in (0, 1)
    ],
)


class TestInputBoundaries:
    def test_group_generator_of_the_wrong_shape(self):
        with pytest.raises(ValueError, match="^matrix shape differs from lattice rank$"):
            SymmetryGroup(P2, [((1, 0),)])
        with pytest.raises(ValueError, match="^cols does not match row width$"):
            SymmetryGroup(P2, [NEG1])

    def test_w_set_of_another_fan(self):
        with pytest.raises(ValueError, match="^selection lives on a different fan$"):
            w_set(SubfanSelection(P2, [fs()]), p1_full_torus_data())

    def test_theorem_on_another_fan(self):
        with pytest.raises(ValueError, match="^selection lives on a different fan$"):
            verify_theorem_conclusions(SubfanSelection(P2, [fs()]), p1_full_torus_data())

    def test_corollary_on_another_fan(self):
        with pytest.raises(ValueError, match="^group data lives on a different fan$"):
            verify_corollary(P2, p1_full_torus_data())

    def test_corollary_on_the_complete_cube_fan(self):
        assert is_complete(CUBE) and all(len(c) == 4 for c in CUBE.max_cones)
        data = GroupActionData(normalize_action(CUBE, []), SymmetryGroup.trivial(CUBE))
        with pytest.raises(ValueError, match="^fan is not simplicial$"):
            verify_corollary(CUBE, data)
