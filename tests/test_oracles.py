"""Cross-checks between the closed-form engine and the definition-level
recomputations, plus unit tests for the recomputation primitives."""

import random
from collections import Counter
from dataclasses import replace
from functools import reduce
from itertools import combinations
from operator import and_

import pytest
from test_quotients import (
    DIFFERENTIAL_CASES,
    ENUMERATION_CASES,
    P3_CONES,
    P3_RAYS,
    PYRAMID_CONES,
    PYRAMID_RAYS,
    TABLE_CASES,
    face_keys,
    maximal_cones,
    peel_filter_t_maximal,
    refuse_every_listing,
)

from toricgit import oracles, quotients
from toricgit.cones import Cone
from toricgit.cox import cox_presentation, lift_open, quasitorus_action
from toricgit.corpus import actions_for, corpus_fans
from toricgit.fans import Fan, _open_masks, bits, enumerate_open_subsets, key_order
from toricgit.intlat import IntMatrix, quotient_lattice_map
from toricgit.oracles import (
    brute_max_saturated_inside,
    brute_t_maximal,
    chart_family,
    mutually_generate,
    oracle_good_quotient,
    oracle_orbit_labels,
    oracle_saturated,
    oracle_verify_quotient,
)
from toricgit.quotients import (
    Obstruction,
    QuotientFan,
    enumerate_good_subsets,
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

P3 = Fan(
    3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}],
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

    def test_rejects_an_inner_selection_of_another_fan(self):
        act = normalize_action(C2, [(1, 1)])
        inner = P2.selection([frozenset(), frozenset({2})])
        with pytest.raises(ValueError, match="different fans"):
            oracle_saturated(inner, C2.full_selection(), act)

    def test_brute_search_rejects_an_inner_selection_of_another_fan(self):
        act = normalize_action(C2, [(1, 1)])
        inner = P2.selection([frozenset(), frozenset({2})])
        with pytest.raises(ValueError, match="different fans"):
            brute_max_saturated_inside(C2.full_selection(), inner, act)


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

    def test_maximal_sets_come_in_key_order(self):
        fan, gens = DIFFERENTIAL_CASES["p3_123"]
        brute = brute_t_maximal(fan, normalize_action(fan, gens))
        order = [[key_order(k) for k in sorted(u.keys, key=key_order)] for u in brute]
        assert len(order) == 7 and order == sorted(order)

    def test_maximal_sets_reject_a_fan_other_than_the_actions(self):
        # the fan check comes before the enumeration and its guard
        act = normalize_action(P2, [(1, 1)])
        with pytest.raises(ValueError, match="^action and selection live on different fans$"):
            brute_t_maximal(P1XP1, act, limit=1)

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
        _, bit = C2.numbering()
        sigma = bit[frozenset({0})]
        assert oracles._invariant_monoid(act, sigma, None)[0] == ((1, -1),)


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
        # P^3 and the pyramid fan give rank-3 lifts; the pyramid fan is not
        # simplicial, so its lift is the one quotient here that is not geometric
        pyramid, _ = ENUMERATION_CASES["pyramid_123"]
        for fan in (P2, P112, P1XP1, P3, pyramid):
            pres = cox_presentation(fan)
            act = quasitorus_action(pres)
            q = good_quotient(lift_open(pres, fan.full_selection()), act)
            assert isinstance(q, QuotientFan)
            assert q.geometric == (fan is not pyramid)
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


class TestCertificateFailures:
    """Each problem oracle_verify_quotient reports, forced on the punctured
    plane's quotient by the diagonal, whose two charts swap rays, by one
    patched helper or one forged field."""

    def verify(self, q=None):
        act = normalize_action(C2, [(1, 1)])
        if q is None:
            q = good_quotient(punctured_plane(), act)
        return oracle_verify_quotient(q, act)

    def test_ring_mismatch(self, monkeypatch):
        monkeypatch.setattr(oracles, "_chart_ring_check", lambda *args: (False, ()))
        assert self.verify() == tuple(
            f"invariant functions of chart [{i}] do not match the target chart functions"
            for i in (0, 1)
        )

    def test_fibre_not_the_chart_faces(self, monkeypatch):
        everything = punctured_plane().mask
        monkeypatch.setattr(oracles, "_contents", lambda *args: everything)
        assert self.verify() == tuple(
            f"cones mapping into the image of chart [{i}] are not exactly its faces"
            for i in (0, 1)
        )

    def test_uncovered_cone(self):
        q = good_quotient(punctured_plane(), normalize_action(C2, [(1, 1)]))
        charts = {img: ck for img, ck in q.chart_map.items() if ck != frozenset({0})}
        assert self.verify(replace(q, chart_map=charts)) == (
            "cone [0] is covered by no chart",
            "cone [0] has no unique carrier face",
        )

    def test_meet_not_a_face(self, monkeypatch):
        monkeypatch.setattr(oracles, "_meet_is_face", lambda *args: (False, None))
        assert self.verify() == (
            "images of charts [0] and [1] do not meet in a common face",
        )

    def test_no_unique_carrier(self, monkeypatch):
        real = oracles._carriers

        def lost(act, charts, mask, proj):
            return {**real(act, charts, mask, proj), 1: None}

        monkeypatch.setattr(oracles, "_carriers", lost)
        assert self.verify() == (
            "cone [0] has no unique carrier face",
            "geometric flag is True but the face-bijection test says False",
        )


SIX_RAYS = Fan(
    2,
    [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)],
    [{i, (i + 1) % 6} for i in range(6)],
)


def oracle_answers(fan, act, opens, quotients):
    """Every oracle verdict on the fan: per ideal, per good quotient, the
    torus-maximal masks, and the brute union per good outer and ideal inside."""
    goods = [s for s in opens if oracle_good_quotient(s, act)]
    return (
        [oracle_good_quotient(s, act) for s in opens],
        [oracle_verify_quotient(q, act) for q in quotients],
        [u.mask for u in brute_t_maximal(fan, act)],
        [brute_max_saturated_inside(o, i, act).mask
         for o in goods for i in opens if i <= o],
    )


def refuse(*args, **kwargs):
    raise AssertionError("an oracle went through an engine route")


class TestIndependence:
    """The oracles answer alike with the engine's rows and the cones'
    meet-in-face routine made to raise: they reach neither."""

    @pytest.mark.parametrize("fan", [P1XP1, SIX_RAYS], ids=["P1xP1", "six-ray"])
    @pytest.mark.parametrize(
        "gens", [[], [(1, 2)], [(1, 0), (0, 1)]], ids=["trivial", "(1,2)", "torus"]
    )
    def test_same_answers_without_the_engine_routes(self, fan, gens, monkeypatch):
        opens = enumerate_open_subsets(fan)
        engine = normalize_action(fan, gens)
        quotients = [q for q in (good_quotient(s, engine) for s in opens)
                     if not isinstance(q, Obstruction)]
        want = oracle_answers(fan, normalize_action(fan, gens), opens, quotients)
        assert want[1] == [()] * len(quotients)
        cold = normalize_action(fan, gens)
        monkeypatch.setattr("toricgit.quotients._rows", refuse)
        monkeypatch.setattr(Cone, "meets_in_face", refuse)
        with pytest.raises(AssertionError, match="engine route"):
            good_quotient(fan.full_selection(), normalize_action(fan, gens))
        assert oracle_answers(fan, cold, opens, quotients) == want


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


# The oracles before they moved onto the cone numbering, kept as the
# reference: fibers, coverage and carriers on frozensets of cone keys, each
# image containment decided per (chart, cone) and each carrier found by
# scanning the union of the chart images' faces.
class KeySetOracles:
    def __init__(self, act):
        self.act = act
        self.images = {}
        self.compatible = {}

    def image(self, key, proj):
        if (key, proj) not in self.images:
            rows = [proj.matvec(g) for g in self.act.fan.cone(key).generators]
            self.images[key, proj] = Cone.from_inequalities(rows, proj.rows).dual()
        return self.images[key, proj]

    def pair_compatible(self, a, b):
        if (a, b) not in self.compatible:
            proj = self.act.proj
            lin = self.image(a, proj).lineality_lattice()
            got = lin.basis == self.image(b, proj).lineality_lattice().basis
            if got:
                split = quotient_lattice_map(lin) @ proj
                ia, ib = self.image(a, split), self.image(b, split)
                meet = ia.intersect(ib)
                got = meet.is_face_of(ia) and meet.is_face_of(ib)
            self.compatible[a, b] = got
        return self.compatible[a, b]

    def chart_family(self, keys):
        proj = self.act.proj
        fibers = {}
        for k in sorted(keys, key=key_order):
            ik = self.image(k, proj)
            fiber = frozenset(t for t in keys if ik.contains_cone(self.image(t, proj)))
            if fiber == frozenset(face_keys(self.act.fan, k)):
                fibers[k] = fiber
        cands = tuple(fibers)
        if frozenset().union(*fibers.values()) != keys:
            return None
        if all(self.pair_compatible(a, b) for a, b in combinations(cands, 2)):
            return cands
        for size in range(1, len(cands) + 1):
            for sub in combinations(cands, size):
                if frozenset().union(*(fibers[k] for k in sub)) == keys and all(
                    self.pair_compatible(a, b) for a, b in combinations(sub, 2)
                ):
                    return sub
        return None

    def carriers(self, charts, keys, proj):
        faces = {f for k in charts for f in self.image(k, proj).faces()}
        out = {}
        for t in keys:
            pt = proj.matvec(self.act.fan.cone(t).relative_interior_point())
            found = [f for f in faces if f.contains_in_relative_interior(pt)]
            out[t] = found[0] if len(found) == 1 else None
        return out


def keyset_saturated(inner, outer, labels):
    inside = {labels[t] for t in inner.keys}
    return all(t in inner.keys for t in outer.keys if labels[t] in inside)


# the engine against the oracles on every ideal of fans up to rank 3, and
# on the small rank-4 fans of the differential cases; P^4 with (1,2,3,4)
# is a CI step
RANK3_CASES = {
    **ENUMERATION_CASES,
    "full_cube_123": TABLE_CASES["full_cube_123"],
    "p3_sum_zero": (Fan(3, P3_RAYS, P3_CONES), [(1, -1, 0), (0, 1, -1)]),
}
# goods and T-maximal sets
RANK3_COUNTS = {
    "p1_cubed_123": (917, 67),
    "full_cube_123": (2317, 38),
    "pyramid_123": (189, 11),
    "p3_sum_zero": (23, 13),
}


class TestDifferentialAgainstKeySets:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_families_labels_and_saturation(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        reference = KeySetOracles(normalize_action(fan, gens))
        opens = enumerate_open_subsets(fan)
        goods = 0
        for outer in opens:
            family = reference.chart_family(outer.keys)
            assert chart_family(outer, act) == family, outer
            if family is None:
                continue
            goods += 1
            labels = reference.carriers(family, outer.keys, act.proj)
            assert oracle_orbit_labels(outer, act) == labels, outer
            for inner in opens:
                if inner <= outer:
                    want = keyset_saturated(inner, outer, labels)
                    assert oracle_saturated(inner, outer, act) == want, (inner, outer)
        assert 0 < goods < len(opens)

    @pytest.mark.parametrize("case", sorted(RANK3_CASES))
    def test_brute_maximal_sets_are_the_engines(self, case):
        fan, gens = RANK3_CASES[case]
        brute = brute_t_maximal(fan, normalize_action(fan, gens))
        act = normalize_action(fan, gens)
        engine = t_maximal_subsets(fan, act)
        assert sorted(u.mask for u in brute) == sorted(u.mask for u in engine)
        assert {u.keys for u in brute} == {u.keys for u in engine}
        if case in RANK3_COUNTS:
            goods = enumerate_good_subsets(fan, act)
            assert (len(goods), len(engine)) == RANK3_COUNTS[case]

    @pytest.mark.parametrize("case", sorted(RANK3_CASES))
    def test_the_oracles_agree_with_the_engine_on_every_ideal(self, case):
        fan, gens = RANK3_CASES[case]
        act = normalize_action(fan, gens)
        for sel in enumerate_open_subsets(fan):
            q = good_quotient(sel, act)
            assert oracle_good_quotient(sel, act) == isinstance(q, QuotientFan), sel
            if isinstance(q, QuotientFan):
                assert oracle_verify_quotient(q, act) == (), sel


# RANK3_CASES with the table cases: every differential and enumeration
# case, P^4 with (1,2,3,4) and the full cube fan
MAXIMAL_CLIQUE_CASES = {**RANK3_CASES, **TABLE_CASES}


def maximal_cliques(act):
    """The chart families of the goods, their maximal cones, that no
    further cone passes the clique tests with, ascending."""
    compat = quotients._compatible(act)
    everyone = (1 << len(compat)) - 1
    families = (maximal_cones(act.fan, w) for w in quotients._goods(act, 2 ** 20))
    return sorted(
        family for family in families
        if not reduce(and_, (compat[f] for f in family), everyone)
    )


def assert_the_maximal_cliques_are_the_peel_filter(fan, act, reference_act, monkeypatch):
    """The maximal-clique route on act equals the per-good peel filter on
    reference_act, sets and order, lists no good, and peel-tests each
    maximal clique once."""
    tested = []
    witnesses = quotients._witnesses

    def recorded(act, u, family, *rows):
        tested.append(family)
        return witnesses(act, u, family, *rows)

    with monkeypatch.context() as m:
        m.setattr(quotients, "_witnesses", recorded)
        refuse_every_listing(m)
        got = [u.mask for u in t_maximal_subsets(fan, act)]
    assert got and got == [u.mask for u in peel_filter_t_maximal(fan, reference_act)]
    assert sorted(tested) == maximal_cliques(reference_act)


class TestMaximalCliquesAgainstThePeelFilter:
    @pytest.mark.parametrize("case", sorted(MAXIMAL_CLIQUE_CASES))
    def test_cases(self, case, monkeypatch):
        fan, gens = MAXIMAL_CLIQUE_CASES[case]
        assert_the_maximal_cliques_are_the_peel_filter(
            fan, normalize_action(fan, gens), normalize_action(fan, gens), monkeypatch
        )

    def test_every_action_of_every_corpus_fan(self, monkeypatch):
        pairs = [
            (fan, act, reference_act) for fan in corpus_fans()
            for act, reference_act in zip(actions_for(fan), actions_for(fan))
        ]
        assert len(pairs) == 192
        for fan, act, reference_act in pairs:
            assert_the_maximal_cliques_are_the_peel_filter(fan, act, reference_act, monkeypatch)

    def test_the_baseline_counts(self):
        # maximal cliques and T-maximal sets on P^4 and (P1)^3
        for case, counts in (("p4_1234", (199, 9)), ("p1_cubed_123", (192, 67))):
            fan, gens = MAXIMAL_CLIQUE_CASES[case]
            act = normalize_action(fan, gens)
            assert (len(maximal_cliques(act)), len(t_maximal_subsets(fan, act))) == counts

    def test_every_action_of_every_corpus_fan_against_the_brute_search(self):
        for fan in corpus_fans():
            for act in actions_for(fan):
                brute = {u.mask for u in brute_t_maximal(fan, act)}
                assert {u.mask for u in t_maximal_subsets(fan, act)} == brute, (fan, act)


# the route the engine took before it read top fibres and carriers off the
# action's own images, kept as the reference: each cone's image under the
# split projection q2 @ proj of a lineality class is built as a cone, and
# each cone's point is split by that class.  split[c] is class c's split
# projection.
def reference_split_projections(act):
    rows = quotients._rows(act)
    return [quotient_lattice_map(rows.lin[m.bit_length() - 1]) @ act.proj for m in rows.members]


def reference_split_image(act, i, proj):
    keys, _ = act.fan.numbering()
    return Cone.from_generators(
        [proj.matvec(act.fan.rays[r]) for r in sorted(keys[i])], proj.rows
    )


def reference_split_point(act, t, proj):
    keys, _ = act.fan.numbering()
    total = [0] * act.fan.rank
    for r in keys[t]:
        total = [x + y for x, y in zip(total, act.fan.rays[r])]
    return proj.matvec(total)


def reference_top_fibre(act, s, split):
    proj = split[quotients._rows(act).cls[s]]
    image = reference_split_image(act, s, proj)
    return sum(
        1 << t for t in bits(act.fan.face_masks()[s])
        if image.contains_in_relative_interior(reference_split_point(act, t, proj))
    )


def reference_carrier(act, t, s, split):
    proj = split[quotients._rows(act).cls[s]]
    return reference_split_image(act, s, proj).carrier_generators(
        [reference_split_point(act, t, proj)]
    )


def reference_rendering(act, mask, lbar, family, split):
    """(chart_map, orbit_map, fibres, geometric) of a good nonempty mask on
    the split route."""
    keys, _ = act.fan.numbering()
    faces, rows = act.fan.face_masks(), quotients._rows(act)
    proj = split[rows.cls[lbar]]
    chart_gens = [reference_split_image(act, s, proj).generators for s in family]
    index = {g: i for i, g in enumerate(sorted({g for gens in chart_gens for g in gens}))}
    covered = sum(1 << s for s in family)
    carriers, fibre = {}, {}
    for t in bits(mask):
        cover = rows.above[t] & covered
        c = carriers[t] = reference_carrier(act, t, (cover & -cover).bit_length() - 1, split)
        fibre[c] = fibre.get(c, 0) | 1 << t
    fibres = {t: fibre[c] for t, c in carriers.items()}
    return (
        {frozenset(index[g] for g in gens): keys[s] for s, gens in zip(family, chart_gens)},
        {keys[t]: frozenset(index[g] for g in c) for t, c in carriers.items()},
        fibres,
        all(fibres[f] & faces[s] == 1 << f for s in family for f in bits(faces[s])),
    )


def assert_the_split_route(act):
    """Every top fibre of act, and every good's fibres and rendered quotient,
    equal the split route's.  Returns the number of goods whose lineality
    class is not zero."""
    fan = act.fan
    split = reference_split_projections(act)
    for s in range(len(fan.face_masks())):
        assert quotients._top_fibre(act, s) == reference_top_fibre(act, s, split), s
    lined = 0
    for sel in enumerate_good_subsets(fan, act):
        if not sel.mask:
            continue  # no chart: the empty quotient reads no carrier
        _, lbar, family = quotients._decide(act, sel.mask)
        want = reference_rendering(act, sel.mask, lbar, family, split)
        assert quotients._fibres(act, sel.mask, family)[1] == want[2], sel
        q = good_quotient(sel, act)
        got = (q.chart_map, q.orbit_map, q.fibres)
        assert [list(m.items()) for m in got] == [list(m.items()) for m in want[:3]], sel
        assert q.geometric == want[3], sel
        lined += q.pre_lineality.rank > 0
    return lined


# RANK3_CASES, the pyramid under every rank-3 subtorus of the
# differential cases, named as RANK3_CASES names those it already has, and
# P^4 with (1,2,3,4), 2,644 goods
SPLIT_ROUTE_CASES = {
    **{
        "pyramid_" + "".join(map(str, gens[0])).replace("-", "m"):
            (Fan(3, PYRAMID_RAYS, PYRAMID_CONES), gens)
        for fan, gens in DIFFERENTIAL_CASES.values() if fan.rank == 3
    },
    **RANK3_CASES,
    "p4_1234": TABLE_CASES["p4_1234"],
}


class TestSplitRouteReference:
    @pytest.mark.parametrize("case", sorted(SPLIT_ROUTE_CASES))
    def test_cases(self, case):
        fan, gens = SPLIT_ROUTE_CASES[case]
        lined = assert_the_split_route(normalize_action(fan, gens))
        # every other case has goods that split a nonzero lineality class
        assert lined > 0 or case in ("cube_two_facets", "p4_cone_line")

    def test_corpus_actions(self):
        # the rank-2 fans under a line have charts whose image is the whole
        # target line, so some goods split a nonzero lineality class
        lined = sum(
            assert_the_split_route(act) for fan in corpus_fans() for act in actions_for(fan)
        )
        assert lined > 0


def quadratic_t_maximal(fan, act):
    """brute_t_maximal before its superset index, as masks: every good
    against every good."""
    goods = [u for u in _open_masks(fan, 2 ** 20) if oracles._chart_family(act, u) is not None]
    out = [
        u for u in goods
        if not any(
            u != v and not u & ~v
            and oracles._is_union_of(oracles._orbit_labels(act, v), u)
            for v in goods
        )
    ]
    return sorted(out, key=lambda u: list(bits(u)))


class TestBruteMaximalAgainstTheQuadraticFilter:
    @pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
    def test_enumeration_cases(self, case):
        fan, gens = ENUMERATION_CASES[case]
        act = normalize_action(fan, gens)
        got = [u.mask for u in brute_t_maximal(fan, act)]
        assert got and got == quadratic_t_maximal(fan, act)

    def test_every_action_of_every_corpus_fan(self):
        for fan in corpus_fans():
            for act in actions_for(fan):
                got = [u.mask for u in brute_t_maximal(fan, act)]
                assert got and got == quadratic_t_maximal(fan, act), (fan, act)


def first_subset(mask, fibers, compatible):
    """The subset loop of _chart_family before its branch-and-bound
    search, kept as the reference: every subset of the candidates, size by
    size in `combinations` order, until one covers the mask and is
    pairwise compatible."""
    cands = tuple(fibers)
    for size in range(1, len(cands) + 1):
        # the fibers of each subset, drawn in step with it
        for sub, covers in zip(combinations(cands, size), combinations(fibers.values(), size)):
            if oracles._union(covers) == mask and all(
                compatible(a, b) for a, b in combinations(sub, 2)
            ):
                return sub
    return None


def subset_loop_chart_family(act, mask):
    """_chart_family with the subset loop; returns the family and whether
    the loop ran."""
    fibers = {}
    for k in bits(mask):
        fiber = mask & oracles._contents(act, k, act.proj)
        if fiber == act.fan.face_masks()[k]:
            fibers[k] = fiber
    cands = tuple(fibers)
    if oracles._union(fibers.values()) != mask:
        return None, False
    compatible = lambda a, b: oracles._pair_compatible(act, a, b)
    if all(compatible(a, b) for a, b in combinations(cands, 2)):
        return cands, False
    return first_subset(mask, fibers, compatible), True


def searched_ideals(fan, act):
    """Ideals whose candidate charts are not pairwise compatible, each
    checked against the subset loop; returns how many found a family and
    how many did not."""
    found = Counter()
    for u in _open_masks(fan, 2 ** 20):
        got = oracles._chart_family(act, u)
        want, searched = subset_loop_chart_family(act, u)
        assert got == want, (fan, act, u)
        if searched:
            found[got is not None] += 1
    return found


class TestSmallestFamilyAgainstTheSubsetLoop:
    def test_random_fibers_and_compatibilities(self, monkeypatch):
        # ties between families of the smallest size occur here, and the
        # search can meet a larger sorted tuple first: fibers {0,1} of chart
        # 2 and {0,2} of chart 3 beside {1} of chart 1 give (2, 3) before
        # (1, 3)
        rng = random.Random(20261019)
        compatible = {}
        monkeypatch.setattr(oracles, "_pair_compatible", lambda act, a, b: compatible[a, b])
        compatible.update(dict.fromkeys(combinations((1, 2, 3), 2), True))
        assert oracles._smallest_family(None, 0b111, {1: 0b010, 2: 0b011, 3: 0b101}) == (1, 3)
        found = Counter()
        for _ in range(400):
            mask = (1 << rng.randint(1, 6)) - 1
            fibers = {
                k: rng.randint(1, mask) for k in sorted(rng.sample(range(12), rng.randint(1, 8)))
            }
            compatible.clear()
            for a, b in combinations(fibers, 2):
                compatible[a, b] = rng.random() < 0.7
            want = first_subset(mask, fibers, lambda a, b: compatible[a, b])
            assert oracles._smallest_family(None, mask, fibers) == want, (mask, fibers)
            found[want is not None] += 1
        assert found[True] > 200 and found[False] > 50

    @pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
    def test_enumeration_cases(self, case):
        fan, gens = ENUMERATION_CASES[case]
        found = searched_ideals(fan, normalize_action(fan, gens))
        assert found[True] > 0

    def test_every_action_of_every_corpus_fan(self):
        found = Counter()
        for fan in corpus_fans():
            for act in actions_for(fan):
                found += searched_ideals(fan, act)
        assert found[True] > 0
