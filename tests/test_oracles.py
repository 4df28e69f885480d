"""Cross-checks between the closed-form engine and the definition-level
recomputations, plus unit tests for the recomputation primitives."""

import random
from dataclasses import replace

import pytest

from toricgit.cox import cox_presentation, lift_open, quasitorus_action
from toricgit.fans import Fan, enumerate_open_subsets
from toricgit.intlat import IntMatrix
from toricgit.oracles import (
    brute_max_saturated_inside,
    brute_t_maximal,
    chart_family,
    invariant_monoid_generators,
    mutually_generate,
    oracle_good_quotient,
    oracle_orbit_labels,
    oracle_saturated,
    oracle_verify_quotient,
)
from toricgit.quotients import (
    Obstruction,
    QuotientFan,
    good_quotient,
    is_saturated,
    max_saturated_inside,
    normalize_action,
    t_maximal_subsets,
)

A1 = Fan(1, [(1,)], [{0}])
P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])
P112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
P1XP1 = Fan(
    2,
    [(1, 0), (-1, 0), (0, 1), (0, -1)],
    [{0, 2}, {0, 3}, {1, 2}, {1, 3}],
)


def punctured_plane():
    return C2.selection([frozenset(), frozenset({0}), frozenset({1})])


class TestChartFamilySearch:
    def test_agrees_with_engine_on_p1(self):
        for gens in ([], [(1,)]):
            act = normalize_action(P1, gens)
            for sel in enumerate_open_subsets(P1):
                eng = not isinstance(good_quotient(sel, act), Obstruction)
                assert oracle_good_quotient(sel, act) == eng

    def test_agrees_with_engine_on_plane_diagonal(self):
        act = normalize_action(C2, [(1, 1)])
        for sel in enumerate_open_subsets(C2):
            eng = not isinstance(good_quotient(sel, act), Obstruction)
            assert oracle_good_quotient(sel, act) == eng

    def test_agrees_with_engine_on_product_fan(self):
        act = normalize_action(P1XP1, [(1, 0)])
        for sel in enumerate_open_subsets(P1XP1):
            eng = not isinstance(good_quotient(sel, act), Obstruction)
            assert oracle_good_quotient(sel, act) == eng

    def test_family_of_punctured_plane(self):
        act = normalize_action(C2, [(1, 1)])
        fam = chart_family(punctured_plane(), act)
        assert fam == (frozenset(), frozenset({0}), frozenset({1}))

    def test_no_family_for_whole_line_target(self):
        act = normalize_action(P1, [(1,)])
        assert chart_family(P1.full_selection(), act) is None

    def test_fan_mismatch_rejected(self):
        act = normalize_action(P1, [(1,)])
        with pytest.raises(ValueError):
            chart_family(C2.full_selection(), act)


class TestOrbitLabels:
    def test_punctured_plane_labels(self):
        act = normalize_action(C2, [(1, 1)])
        labels = oracle_orbit_labels(punctured_plane(), act)
        assert len(set(labels.values())) == 3

    def test_partition_matches_engine_orbit_map(self):
        act = normalize_action(P1XP1, [(1, 0)])
        for sel in enumerate_open_subsets(P1XP1):
            if not oracle_good_quotient(sel, act):
                continue
            labels = oracle_orbit_labels(sel, act)
            q = good_quotient(sel, act)
            keys = sorted(sel.keys, key=lambda k: (len(k), sorted(k)))
            for a in keys:
                for b in keys:
                    same_eng = q.orbit_map[a] == q.orbit_map[b]
                    assert (labels[a] == labels[b]) == same_eng

    def test_obstructed_selection_rejected(self):
        act = normalize_action(P1, [(1,)])
        with pytest.raises(ValueError):
            oracle_orbit_labels(P1.full_selection(), act)


class TestSaturationOracle:
    def test_agrees_with_engine_on_product_fan(self):
        act = normalize_action(P1XP1, [(1, 0)])
        opens = enumerate_open_subsets(P1XP1)
        checked = 0
        for outer in opens:
            if not oracle_good_quotient(outer, act):
                continue
            for inner in opens:
                if inner.keys <= outer.keys:
                    want = is_saturated(inner, outer, act)
                    assert oracle_saturated(inner, outer, act) == want
                    checked += 1
        assert checked >= 50

    def test_containment_required(self):
        act = normalize_action(P1, [(1,)])
        chart = P1.selection([frozenset(), frozenset({0})])
        other = P1.selection([frozenset(), frozenset({1})])
        with pytest.raises(ValueError):
            oracle_saturated(other, chart, act)


class TestBruteForceSearches:
    def test_projective_line_maximal_sets(self):
        act = normalize_action(P1, [(1,)])
        brute = {u.keys for u in brute_t_maximal(P1, act)}
        assert brute == {
            frozenset({frozenset()}),
            frozenset({frozenset(), frozenset({0})}),
            frozenset({frozenset(), frozenset({1})}),
        }
        assert brute == {u.keys for u in t_maximal_subsets(P1, act)}

    def test_affine_line_maximal_sets(self):
        act = normalize_action(A1, [(1,)])
        brute = {u.keys for u in brute_t_maximal(A1, act)}
        assert brute == {
            frozenset({frozenset()}),
            frozenset({frozenset(), frozenset({0})}),
        }
        assert brute == {u.keys for u in t_maximal_subsets(A1, act)}

    def test_max_saturated_inside_plane(self):
        act = normalize_action(C2, [(1, 1)])
        outer = C2.full_selection()
        best = brute_max_saturated_inside(outer, punctured_plane(), act)
        # every orbit family degenerates to the origin, so nothing survives
        assert best.keys == frozenset()
        assert best.keys == max_saturated_inside(outer, punctured_plane(), act).keys

    def test_max_saturated_inside_matches_engine_sample(self):
        act = normalize_action(P1XP1, [(1, 0)])
        opens = enumerate_open_subsets(P1XP1)
        goods = [u for u in opens if oracle_good_quotient(u, act)]
        rng = random.Random(20260817)
        for outer in goods:
            inners = [s for s in opens if s.keys <= outer.keys]
            for inner in rng.sample(inners, min(3, len(inners))):
                want = max_saturated_inside(outer, inner, act).keys
                assert brute_max_saturated_inside(outer, inner, act).keys == want


class TestMonoidComparison:
    def test_redundant_generator(self):
        assert mutually_generate(
            [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], 2
        )

    def test_same_cone_different_monoid(self):
        assert not mutually_generate([(2, 0), (0, 1)], [(1, 0), (0, 1)], 2)

    def test_different_cones(self):
        assert not mutually_generate([(1, 0)], [(0, 1)], 2)

    def test_scaled_ray(self):
        assert not mutually_generate([(1, 0)], [(2, 0)], 2)

    def test_lineality_index_detected(self):
        gens = [(2, 0), (-2, 0), (0, 1)]
        assert not mutually_generate(gens, [(1, 0), (-1, 0), (0, 1)], 2)

    def test_lineality_shear(self):
        a = [(1, 0), (-1, 0), (0, 1)]
        b = [(1, 0), (-1, 0), (1, 1)]
        assert mutually_generate(a, b, 2)

    def test_invariant_monoid_of_ray_chart(self):
        act = normalize_action(C2, [(1, 1)])
        sigma = C2.cone(frozenset({0}))
        assert invariant_monoid_generators(sigma, act.cochar) == ((1, -1),)


class TestQuotientCertificates:
    def test_punctured_plane_certificate(self):
        act = normalize_action(C2, [(1, 1)])
        q = good_quotient(punctured_plane(), act)
        assert oracle_verify_quotient(q, act) == ()

    def test_trivial_action_certificates(self):
        act = normalize_action(P1, [])
        for sel in enumerate_open_subsets(P1):
            q = good_quotient(sel, act)
            assert oracle_verify_quotient(q, act) == ()

    def test_product_fan_certificates(self):
        act = normalize_action(P1XP1, [(1, 0)])
        for sel in enumerate_open_subsets(P1XP1):
            q = good_quotient(sel, act)
            if isinstance(q, Obstruction):
                continue
            assert oracle_verify_quotient(q, act) == ()

    def test_cox_quotient_certificates(self):
        for fan in (P2, P112, P1XP1):
            pres = cox_presentation(fan)
            act = quasitorus_action(pres)
            q = good_quotient(lift_open(pres, fan.full_selection()), act)
            assert isinstance(q, QuotientFan)
            assert oracle_verify_quotient(q, act) == ()

    def test_tampered_orbit_map_detected(self):
        act = normalize_action(C2, [(1, 1)])
        q = good_quotient(punctured_plane(), act)
        om = dict(q.orbit_map)
        om[frozenset({0})], om[frozenset({1})] = om[frozenset({1})], om[frozenset({0})]
        fake = replace(q, orbit_map=om)
        problems = oracle_verify_quotient(fake, act)
        assert any("carrier" in p for p in problems)

    def test_tampered_geometric_flag_detected(self):
        act = normalize_action(C2, [(1, 1)])
        q = good_quotient(punctured_plane(), act)
        fake = replace(q, geometric=not q.geometric)
        problems = oracle_verify_quotient(fake, act)
        assert any("geometric" in p for p in problems)


class TestMemoHistory:
    """A verdict on a certificate must not depend on what the action was
    asked before: every memo is keyed by all that its value depends on."""

    @pytest.mark.parametrize("fan", [C2, P2], ids=["C2", "P2"])
    def test_negated_projection_gives_the_same_problems_fresh_and_warm(self, fan):
        checked = 0
        for sel in enumerate_open_subsets(fan):
            q = good_quotient(sel, normalize_action(fan, [(1, 1)]))
            if isinstance(q, Obstruction) or not q.proj_full.rows:
                continue  # negating a map onto a point changes nothing
            negated = IntMatrix([[-x for x in row] for row in q.proj_full.entries])
            bad = replace(q, proj_full=negated)
            fresh = oracle_verify_quotient(bad, normalize_action(fan, [(1, 1)]))
            warm = normalize_action(fan, [(1, 1)])
            assert oracle_verify_quotient(q, warm) == ()
            assert oracle_verify_quotient(bad, warm) == fresh
            assert fresh
            checked += 1
        assert checked >= 3
