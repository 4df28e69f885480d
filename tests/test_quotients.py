"""Good-quotient tests: frozen examples, saturation, maximality, staging."""

import contextlib
import dataclasses
import gc
import inspect
import sys
from collections import Counter
from itertools import combinations

import pytest

from toricgit import oracles, quotients
from toricgit.cones import Cone, SizeGuardError
from toricgit.corpus import actions_for, corpus_fans
from toricgit.fans import (
    Fan,
    SubfanSelection,
    _open_masks,
    _union,
    bits,
    enumerate_open_subsets,
    is_complete,
    key_order,
    limit_of_generic_point,
    validate_fan,
)
from toricgit.intlat import IntMatrix, Sublattice, quotient_lattice_map
from toricgit.oracles import brute_t_maximal, chart_family, oracle_verify_quotient
from toricgit.quotients import (
    Obstruction,
    QuotientFan,
    enumerate_good_subsets,
    good_quotient,
    host_of,
    is_saturated,
    max_saturated_inside,
    normalize_action,
    remark_suite,
    staged_quotient,
    t_maximal_subsets,
)
from toricgit.symmetry import GroupActionData, SymmetryGroup, verify_theorem_conclusions

P1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
A1 = Fan(1, [(1,)], [{0}])
C2 = Fan(2, [(1, 0), (0, 1)], [{0, 1}])
P2 = Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}, {0, 2}])

Z = frozenset()
R0 = frozenset({0})
R1 = frozenset({1})
TOP = frozenset({0, 1})


def face_keys(fan, key):
    """Keys of the faces of a fan cone, read off its face mask."""
    keys, bit = fan.numbering()
    return tuple(keys[j] for j in bits(fan.face_masks()[bit[frozenset(key)]]))


def maximal_cones(fan, mask):
    """The cones of mask below no other cone of it, ascending: for a good
    mask, its chart family (see the `quotients` docstring)."""
    ups = fan.up_masks()
    return tuple(s for s in bits(mask) if ups[s] & mask == 1 << s)


def c2_punctured():
    return SubfanSelection(C2, [Z, R0, R1])


def diag_action(fan=C2):
    return normalize_action(fan, [(1, 1)])


class TestNormalizeAction:
    def test_span_is_saturated(self):
        act = normalize_action(C2, [(2, 2)])
        assert act.cochar.basis.entries == ((1, 1),)
        assert Sublattice.from_rows(2, [(2, 2)]).basis != act.cochar.basis

    def test_a_saturated_rank_three_span_is_recognised(self):
        # three Hermite rows: the saturation's basis must come out identical
        p4 = Fan(4, P4_RAYS, P4_CONES)
        gens = [(1, 0, -3, 0), (0, 1, 1, 0), (0, 0, 2, 1)]
        act = normalize_action(p4, gens)
        assert Sublattice.from_rows(4, gens).basis == act.cochar.basis

    def test_full_torus(self):
        act = normalize_action(C2, [(1, 0), (0, 1)])
        assert act.proj.rows == 0 and act.is_full()

    def test_trivial(self):
        act = normalize_action(C2, [])
        assert act.proj == IntMatrix.identity(2)
        assert act.is_trivial()
        assert Sublattice.from_rows(2, []).basis == act.cochar.basis

    def test_projection_kills_exactly_l(self):
        act = diag_action()
        assert act.proj.matvec((1, 1)) == (0,)
        assert act.proj.matvec((1, 0)) != (0,)


class TestGoodQuotient:
    def test_punctured_plane_gives_p1(self):
        q = good_quotient(c2_punctured(), diag_action())
        assert isinstance(q, QuotientFan)
        assert q.fan == Fan(1, [(-1,), (1,)], [{0}, {1}])
        assert q.target_rank == 1
        assert tuple(q.chart_map.values()) == (R0, R1)
        assert q.geometric
        # the two source rays land on the two opposite quotient rays
        assert {q.orbit_map[R0], q.orbit_map[R1]} == {frozenset({0}), frozenset({1})}
        assert q.orbit_map[Z] == frozenset()
        # chart map sends each maximal quotient cone back to its chart
        assert set(q.chart_map.values()) == {R0, R1}
        for top, chart in q.chart_map.items():
            assert q.orbit_map[chart] == top

    def test_full_quadrant_gives_point(self):
        q = good_quotient(C2.full_selection(), diag_action())
        assert isinstance(q, QuotientFan)
        assert q.target_rank == 0
        assert tuple(q.chart_map.values()) == (TOP,)
        assert not q.geometric

    def test_complete_p1_by_full_torus_obstructed(self):
        act = normalize_action(P1, [(1,)])
        res = good_quotient(P1.full_selection(), act)
        assert isinstance(res, Obstruction)
        assert res.kind == "chart-fiber"
        assert res.witness is not None
        m, bad = res.witness
        assert m in P1.full_selection().keys and bad in P1.full_selection().keys

    def test_empty_selection(self):
        q = good_quotient(C2.empty_selection(), diag_action())
        assert isinstance(q, QuotientFan)
        assert q.chart_map == {} and q.orbit_map == {}

    def test_trivial_action_is_identity(self):
        for sel in enumerate_open_subsets(P2):
            q = good_quotient(sel, normalize_action(P2, []))
            assert isinstance(q, QuotientFan)
            assert len(q.fan.cone_keys()) == max(len(sel.keys), 1)
            assert q.geometric

    def test_quotient_fan_invariants(self):
        act = diag_action()
        q = good_quotient(c2_punctured(), act)
        assert validate_fan(q.fan).valid
        fan = q.source.fan
        image = {t: fan.cone(t).image(act.proj) for t in q.source.keys}
        for chart in q.chart_map.values():
            fiber = {t for t in q.source.keys if image[chart].contains_cone(image[t])}
            assert fiber == set(face_keys(fan, chart))

    def test_results_are_cached(self):
        act = diag_action()
        assert good_quotient(c2_punctured(), act) is good_quotient(
            c2_punctured(), act
        )


class TestSaturation:
    def test_torus_not_saturated_in_line(self):
        act = normalize_action(A1, [(1,)])
        torus = SubfanSelection(A1, [Z])
        line = A1.full_selection()
        assert not is_saturated(torus, line, act)

    def test_trivial_action_everything_saturated(self):
        act = normalize_action(P1, [])
        subsets = enumerate_open_subsets(P1)
        for u in subsets:
            for v in subsets:
                if u.keys <= v.keys:
                    assert is_saturated(u, v, act)

    def test_chart_preimage_saturated(self):
        chart = SubfanSelection(C2, [Z, R0])
        assert is_saturated(chart, c2_punctured(), diag_action())

    def test_rejects_an_inner_selection_of_another_fan(self):
        inner = SubfanSelection(P2, [Z, frozenset({2})])
        with pytest.raises(ValueError, match="different fans"):
            is_saturated(inner, C2.full_selection(), diag_action())

    def test_requires_containment_and_quotient(self):
        act = normalize_action(P1, [(1,)])
        plus = SubfanSelection(P1, [Z, R0])
        minus = SubfanSelection(P1, [Z, R1])
        with pytest.raises(ValueError):
            is_saturated(plus, minus, act)
        with pytest.raises(ValueError):
            is_saturated(plus, P1.full_selection(), act)


class TestEnumeration:
    def test_p1_good_subsets(self):
        act = normalize_action(P1, [(1,)])
        goods = {sel.keys for sel in enumerate_good_subsets(P1, act)}
        assert goods == {
            frozenset(),
            frozenset({Z}),
            frozenset({Z, R0}),
            frozenset({Z, R1}),
        }

    def test_trivial_action_all_good(self):
        act = normalize_action(P2, [])
        assert len(enumerate_good_subsets(P2, act)) == len(enumerate_open_subsets(P2))

    def test_c2_diagonal_includes_affine_quadrant(self):
        act = diag_action()
        goods = {sel.keys for sel in enumerate_good_subsets(C2, act)}
        assert C2.full_selection().keys in goods
        assert len(goods) == 6


class TestTMaximal:
    def test_p1_full_torus(self):
        act = normalize_action(P1, [(1,)])
        got = {sel.keys for sel in t_maximal_subsets(P1, act)}
        assert got == {
            frozenset({Z}),
            frozenset({Z, R0}),
            frozenset({Z, R1}),
        }

    def test_a1_full_torus(self):
        act = normalize_action(A1, [(1,)])
        got = {sel.keys for sel in t_maximal_subsets(A1, act)}
        assert got == {frozenset({Z}), frozenset({Z, R0})}

    def test_trivial_action(self):
        act = normalize_action(P2, [])
        got = t_maximal_subsets(P2, act)
        assert len(got) == 1 and got[0] == P2.full_selection()

    def test_host_of_a_selection_without_good_quotient(self):
        act = normalize_action(P1, [(1,)])
        with pytest.raises(ValueError, match="selection admits no good quotient"):
            host_of(P1.full_selection(), act)
        assert host_of(SubfanSelection(P1, [Z]), act) is None


class TestMaxSaturatedInside:
    def test_a1_torus_window(self):
        act = normalize_action(A1, [(1,)])
        got = max_saturated_inside(
            A1.full_selection(), SubfanSelection(A1, [Z]), act
        )
        assert got.keys == frozenset()

    def test_trivial_action_returns_window(self):
        act = normalize_action(C2, [])
        w = SubfanSelection(C2, [Z, R0])
        assert max_saturated_inside(C2.full_selection(), w, act) == w

    def test_punctured_plane_chart(self):
        got = max_saturated_inside(
            c2_punctured(), SubfanSelection(C2, [Z, R1]), diag_action()
        )
        assert got.keys == frozenset({Z, R1})

    def test_rejects_an_inner_selection_of_another_fan(self):
        inner = SubfanSelection(P2, [Z, frozenset({2})])
        with pytest.raises(ValueError, match="different fans"):
            max_saturated_inside(C2.full_selection(), inner, diag_action())


class TestStaged:
    def test_quadrant_diag_then_full(self):
        act1 = diag_action()
        act2 = normalize_action(C2, [(1, 0), (0, 1)])
        rep = staged_quotient(C2.full_selection(), act1, act2)
        assert rep.equal and rep.consistent
        assert rep.direct.target_rank == 0

    def test_punctured_plane_consistent_failure(self):
        act1 = diag_action()
        act2 = normalize_action(C2, [(1, 0), (0, 1)])
        rep = staged_quotient(c2_punctured(), act1, act2)
        assert isinstance(rep.second, Obstruction)
        assert isinstance(rep.direct, Obstruction)
        assert rep.consistent and rep.equal is None

    def test_equal_lattices_stage_two_identity(self):
        act = diag_action()
        rep = staged_quotient(c2_punctured(), act, act)
        assert rep.equal and rep.consistent

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            staged_quotient(
                C2.full_selection(),
                normalize_action(C2, [(1, 0)]),
                normalize_action(C2, [(0, 1)]),
            )


def forged_staged(monkeypatch, forge):
    """staged_quotient on P2 by two trivial actions, with forge applied to
    the direct quotient only."""
    small, large = normalize_action(P2, []), normalize_action(P2, [])
    real = quotients.good_quotient

    def direct_forged(sel, act):
        q = real(sel, act)
        return forge(q) if act is large else q

    monkeypatch.setattr(quotients, "good_quotient", direct_forged)
    return staged_quotient(P2.full_selection(), small, large)


class TestStagedFailures:
    """Each failure return of staged_quotient, forced by one forged direct
    quotient; unforged, the two routes agree."""

    def test_unforged_targets_agree(self, monkeypatch):
        assert forged_staged(monkeypatch, lambda q: q).detail == "targets agree"

    @pytest.mark.parametrize("field, value, detail", [
        ("proj_full", IntMatrix([[1, 0]]),
         "composite and direct projections have different kernels"),
        # two rows of rank one: the kernel is not the row count short of full
        ("proj_full", IntMatrix([[1, 0], [2, 0]]),
         "composite and direct projections have different kernels"),
        ("proj_full", IntMatrix([[2, 0], [0, 2]]),
         "no unimodular identification of the targets"),
        # three rows of rank two: the kernels agree, the targets cannot
        ("proj_full", IntMatrix([[1, 0], [0, 1], [1, 1]]),
         "no unimodular identification of the targets"),
        ("fan", Fan(2, [(-1, 0), (0, -1), (1, 1)], [{0, 1}, {1, 2}, {0, 2}]),
         "target fans have different rays"),
        ("fan", Fan(2, [(1, 0), (0, 1), (-1, -1)], [{0, 1}, {1, 2}]),
         "target fans have different maximal cones"),
    ], ids=["kernels", "kernels rank below rows", "unimodular",
            "unimodular rank below rows", "rays", "maximal cones"])
    def test_forged_target(self, monkeypatch, field, value, detail):
        rep = forged_staged(
            monkeypatch, lambda q: dataclasses.replace(q, **{field: value})
        )
        assert (rep.equal, rep.consistent, rep.detail) == (False, False, detail)

    def test_orbit_maps_disagree(self, monkeypatch):
        def swapped(q):
            om = dict(q.orbit_map)
            om[R0], om[R1] = om[R1], om[R0]
            return dataclasses.replace(q, orbit_map=om)

        rep = forged_staged(monkeypatch, swapped)
        assert (rep.equal, rep.consistent, rep.detail) == (
            False, False, "orbit maps disagree at cone [0]"
        )


class TestRemarkSuite:
    def test_no_violations_on_frozen_quotients(self):
        cases = [
            (c2_punctured(), diag_action()),
            (C2.full_selection(), diag_action()),
            (SubfanSelection(C2, [Z, R0]), diag_action()),
            (P1.full_selection(), normalize_action(P1, [])),
            (SubfanSelection(P1, [Z, R0]), normalize_action(P1, [(1,)])),
        ]
        for sel, act in cases:
            q = good_quotient(sel, act)
            assert isinstance(q, QuotientFan)
            assert remark_suite(q, act) == ()

    def test_empty_selection_has_no_orbits_to_flag(self):
        act = diag_action()
        q = good_quotient(SubfanSelection(C2, []), act)
        assert isinstance(q, QuotientFan)
        assert remark_suite(q, act) == ()


# The engine before the per-action rows, kept as the reference for the mask
# algebra: every fact is recomputed pairwise on the selection's own cones,
# and the scans run in key_order, which is the rows' index order.
def pairwise_good_quotient(selection, act, images):
    fan = selection.fan
    keys = sorted(selection.keys, key=key_order)
    if not keys:
        return QuotientFan(
            selection, Sublattice.from_rows(act.proj.rows, []), act.proj,
            Fan(act.proj.rows, [], []), chart_map={}, orbit_map={},
            fibres={}, geometric=True,
        )
    for k in keys:
        if k not in images:
            images[k] = fan.cone(k).image(act.proj)
    img = {k: images[k] for k in keys}
    lin = {k: img[k].lineality_lattice() for k in keys}
    lbar_key = next(
        (k for k in keys if all(lin[k].contains_lattice(lin[j]) for j in keys)), None
    )
    if lbar_key is None:
        a, b = next(
            (a, b)
            for a, b in combinations(keys, 2)
            if not lin[a].contains_lattice(lin[b])
            and not lin[b].contains_lattice(lin[a])
        )
        return Obstruction(
            "mixed-lineality",
            f"images of {sorted(a)} and {sorted(b)} have incomparable lineality spaces",
            (a, b),
        )
    lbar = lin[lbar_key]
    charts = []
    for k in keys:
        if lin[k].basis != lbar.basis:
            continue
        fiber = {t for t in keys if img[k].contains_cone(img[t])}
        if fiber == set(face_keys(fan, k)):
            charts.append(k)
    chart_family = [
        k
        for k in charts
        if not any(j != k and img[j].contains_cone(img[k]) for j in charts)
    ]
    for t in keys:
        if any(img[s].contains_cone(img[t]) for s in chart_family):
            continue
        m = next(
            m
            for m in keys
            if img[m].contains_cone(img[t])
            and not any(
                img[j].contains_cone(img[m]) and not img[m].contains_cone(img[j])
                for j in keys
            )
        )
        if lin[m].basis != lbar.basis:
            return Obstruction(
                "mixed-lineality",
                f"the maximal image of {sorted(m)} drops the common lineality space",
                (m, lbar_key),
            )
        bad = next(
            tp
            for tp in keys
            if img[m].contains_cone(img[tp]) and tp not in set(face_keys(fan, m))
        )
        return Obstruction(
            "chart-fiber",
            f"cone {sorted(bad)} maps into the image of {sorted(m)} "
            "but is not a face of it",
            (m, bad),
        )
    for a, b in combinations(chart_family, 2):
        meet = img[a].intersect(img[b])
        if not (meet.is_face_of(img[a]) and meet.is_face_of(img[b])):
            return Obstruction(
                "non-fan-images",
                f"images of charts {sorted(a)} and {sorted(b)} do not meet in a face",
                (a, b),
            )
    q2 = quotient_lattice_map(lbar)
    proj_full = q2 @ act.proj
    timg = {k: fan.cone(k).image(proj_full) for k in keys}
    rays = sorted({g for s in chart_family for g in timg[s].generators})
    ray_index = {g: i for i, g in enumerate(rays)}
    qfan = Fan(
        q2.rows,
        rays,
        [frozenset(ray_index[g] for g in timg[s].generators) for s in chart_family],
    )
    orbit_map = {
        t: limit_of_generic_point(qfan, timg[t].relative_interior_point()) for t in keys
    }
    chart_map = {
        frozenset(ray_index[g] for g in timg[s].generators): s for s in chart_family
    }
    geometric = True
    for s in chart_family:
        sfaces = face_keys(fan, s)
        mapped = [orbit_map[f] for f in sfaces]
        top = frozenset(ray_index[g] for g in timg[s].generators)
        if len(set(mapped)) != len(sfaces) or set(mapped) != set(face_keys(qfan, top)):
            geometric = False
    _, bit = fan.numbering()
    fibres = {
        bit[t]: sum(1 << bit[u] for u in keys if orbit_map[u] == orbit_map[t])
        for t in keys
    }
    return QuotientFan(
        selection, lbar, proj_full, qfan,
        chart_map=chart_map, orbit_map=orbit_map, fibres=fibres, geometric=geometric,
    )


def projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)] + [(-1,) * n]
    return rays, [[j for j in range(n + 1) if j != i] for i in range(n + 1)]


P3_RAYS, P3_CONES = projective_space(3)
P4_RAYS, P4_CONES = projective_space(4)
# cones over the facets x = 1 and y = 1 of the cube [-1, 1]^3: four rays each
CUBE_RAYS = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)
             if x == 1 or y == 1]
CUBE_FACETS = [[i for i, r in enumerate(CUBE_RAYS) if r[axis] == 1] for axis in (0, 1)]

# a square cone over z = 1 and four simplicial cones below it: the square
# has four rays but dimension 3, so cone_keys() and numbering() order the
# cones differently
PYRAMID_RAYS = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (0, 0, -1)]
PYRAMID_CONES = [[0, 1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]]

# Together these reach every verdict branch: chart-fiber everywhere,
# non-fan-images on P3 with (1,2,3), on the cube facets and on the P4 cone
# with a line (rank-3 target, where the meet of two chart images can be a
# face of one image only), and both mixed-lineality branches (incomparable
# lineality spaces, and a maximal image dropping the common one) on the
# two cases with rank-2 targets after them.  The two pyramid cases are the
# only fan here whose numbering() and cone_keys() orders disagree; they
# reach chart-fiber, a maximal image dropping the common lineality space,
# and non-fan-images.
DIFFERENTIAL_CASES = {
    "p2_diagonal": (Fan(2, P2.rays, P2.max_cones), [(1, 1)]),
    "p3_123": (Fan(3, P3_RAYS, P3_CONES), [(1, 2, 3)]),
    "p3_1m10": (Fan(3, P3_RAYS, P3_CONES), [(1, -1, 0)]),
    "cube_two_facets": (Fan(3, CUBE_RAYS, CUBE_FACETS), [(1, 2, 3)]),
    "p4_cone_line": (Fan(4, P4_RAYS, [P4_CONES[4]]), [(-2, 1, 0, -1)]),
    "p3_two_cones_110": (Fan(3, P3_RAYS, [P3_CONES[1], P3_CONES[3]]), [(1, 1, 0)]),
    "p4_cone_rank2": (Fan(4, P4_RAYS, [P4_CONES[4]]), [(1, 0, 0, 1), (0, 1, 1, 0)]),
    "pyramid_011": (Fan(3, PYRAMID_RAYS, PYRAMID_CONES), [(0, 1, 1)]),
    "pyramid_12m2": (Fan(3, PYRAMID_RAYS, PYRAMID_CONES), [(1, 2, -2)]),
}


def verdict(result):
    """Everything a caller can read off a result, as comparable data."""
    if isinstance(result, Obstruction):
        branch = result.kind
        if branch == "mixed-lineality":
            branch += "/pair" if result.detail.startswith("images") else "/maximal"
        return branch, (result.kind, result.detail, result.witness)
    return "quotient", (
        list(result.chart_map.items()),  # the charts in key order
        result.orbit_map,
        result.fibres,
        result.geometric,
        result.fan.rays,
        result.fan.max_cones,
        result.pre_lineality,
        result.proj_full,
    )


class TestDifferentialAgainstPairwiseEngine:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_every_selection_matches(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        images = {}
        for sel in enumerate_open_subsets(fan):
            got = good_quotient(sel, act)
            want = pairwise_good_quotient(sel, act, images)
            assert type(got) is type(want), sel
            assert verdict(got) == verdict(want), sel

    def test_the_cases_reach_every_branch(self):
        branches = Counter()
        for fan, gens in DIFFERENTIAL_CASES.values():
            act = normalize_action(fan, gens)
            branches.update(
                verdict(good_quotient(sel, act))[0] for sel in enumerate_open_subsets(fan)
            )
        assert set(branches) == {
            "quotient", "chart-fiber", "non-fan-images",
            "mixed-lineality/pair", "mixed-lineality/maximal",
        }


NINE_RAYS = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
P1_CUBED_RAYS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
P1_CUBED_CONES = [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]

# beyond the differential cases: a surface fan where almost every ideal
# fails as chart-fiber, a rank-3 fan where the chart family candidates
# outnumber the goods, and a complete fan whose enumeration order is not
# the numeric order of masks
ENUMERATION_CASES = {
    **DIFFERENTIAL_CASES,
    "nine_ray_12": (Fan(2, NINE_RAYS, [[i, (i + 1) % 9] for i in range(9)]), [(1, 2)]),
    "p1_cubed_123": (Fan(3, P1_CUBED_RAYS, P1_CUBED_CONES), [(1, 2, 3)]),
    "pyramid_123": (Fan(3, PYRAMID_RAYS, PYRAMID_CONES), [(1, 2, 3)]),
}


class TestEnumerationRouteAgainstSelections:
    # enumerate_good_subsets decides bare ideal masks and keeps only the
    # goods; good_quotient decides one selection at a time
    @pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
    def test_goods_are_the_selections_with_a_quotient(self, case):
        fan, gens = ENUMERATION_CASES[case]
        goods = enumerate_good_subsets(fan, normalize_action(fan, gens))
        fresh = normalize_action(fan, gens)
        want = [
            sel for sel in enumerate_open_subsets(fan)
            if isinstance(good_quotient(sel, fresh), QuotientFan)
        ]
        assert [(u.keys, u.mask) for u in goods] == [(u.keys, u.mask) for u in want]

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_verdicts_after_enumeration_match_the_pairwise_engine(self, case):
        # rejected masks left no memo entry and are decided again here
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        assert enumerate_good_subsets(fan, act)
        images = {}
        for sel in enumerate_open_subsets(fan):
            got = good_quotient(sel, act)
            want = pairwise_good_quotient(sel, act, images)
            assert type(got) is type(want), sel
            assert verdict(got) == verdict(want), sel

    @pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
    def test_the_goods_are_the_clique_closures(self, case):
        # each good, listed once, is the face closure of its maximal cones,
        # which pass the clique tests pairwise
        fan, gens = ENUMERATION_CASES[case]
        act = normalize_action(fan, gens)
        goods = [u.mask for u in enumerate_good_subsets(fan, act)]
        faces, compat = fan.face_masks(), quotients._compatible(act)
        assert len(set(goods)) == len(goods)
        for w in goods:
            family = maximal_cones(fan, w)
            assert _union(faces[s] for s in family) == w
            assert all(compat[a] >> b & 1 for a, b in combinations(family, 2)), w
        if case == "p1_cubed_123":
            assert len(goods) == 917

    def test_enumeration_decides_nothing(self, monkeypatch):
        # the pass over every ideal decided 5,779 of them here, and the
        # pass over the chart family candidates 70
        fan, gens = ENUMERATION_CASES["nine_ray_12"]
        act = normalize_action(fan, gens)
        assert len(_open_masks(fan, 2 ** 20)) == 5779
        decided = []
        monkeypatch.setattr(quotients, "_decide", lambda *args: decided.append(args))
        grouped = count_fibre_groupings(monkeypatch)
        assert len(enumerate_good_subsets(fan, act)) == 70
        assert decided == [] and kept_table(act, quotients._verdict) == {} and grouped == []


@pytest.mark.parametrize("case", ["p3_123", "cube_two_facets"])
def test_equal_targets_share_one_fan(case):
    fan, gens = DIFFERENTIAL_CASES[case]
    act = normalize_action(fan, gens)
    images = {}
    targets = {}
    goods = enumerate_good_subsets(fan, act)
    for sel in goods:
        q = good_quotient(sel, act)
        assert verdict(q) == verdict(pairwise_good_quotient(sel, act, images)), sel
        targets.setdefault((q.fan.rank, q.fan.rays, q.fan.max_cones), []).append(q.fan)
    assert len(targets) < len(goods)
    for fans in targets.values():
        assert all(f is fans[0] for f in fans)


def test_enumeration_builds_selections_only_for_goods(monkeypatch):
    fan = Fan(3, P3_RAYS, P3_CONES)
    act = normalize_action(fan, [(1, 2, 3)])
    assert len(enumerate_open_subsets(fan)) == 167
    built = Counter()
    of_mask = SubfanSelection._of_mask.__func__
    obstruction_init = Obstruction.__init__

    def counted_of_mask(cls, fan, mask):
        built["selection"] += 1
        return of_mask(cls, fan, mask)

    def counted_obstruction(self, *args, **kwargs):
        built["obstruction"] += 1
        obstruction_init(self, *args, **kwargs)

    monkeypatch.setattr(SubfanSelection, "_of_mask", classmethod(counted_of_mask))
    monkeypatch.setattr(Obstruction, "__init__", counted_obstruction)
    goods = enumerate_good_subsets(fan, act)
    assert len(goods) == 70
    assert built == {"selection": 70}


def test_t_maximal_subsets_builds_selections_only_for_its_results(monkeypatch):
    fan = Fan(4, P4_RAYS, P4_CONES)
    act = normalize_action(fan, [(1, 2, 3, 4)])
    built = Counter()
    of_mask = SubfanSelection._of_mask.__func__

    def counted_of_mask(cls, fan, mask):
        built["selection"] += 1
        return of_mask(cls, fan, mask)

    monkeypatch.setattr(SubfanSelection, "_of_mask", classmethod(counted_of_mask))
    assert len(t_maximal_subsets(fan, act)) == 9
    assert len(quotients._goods(act, 2 ** 20)) == 2644
    assert built == {"selection": 9}


def count_fibre_groupings(monkeypatch):
    """List of the masks whose fibres are asked for from now on."""
    grouped = []
    real = quotients._fibres

    def counted(act, mask):
        grouped.append(mask)
        return real(act, mask)

    monkeypatch.setattr(quotients, "_fibres", counted)
    return grouped


def count_constructions(monkeypatch, *classes):
    """Counter of the instances of each class built from now on."""
    built = Counter()

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        return counted

    for cls in classes:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    return built


def test_listings_build_no_quotient_fan(monkeypatch):
    fan = Fan(4, P4_RAYS, P4_CONES)
    act = normalize_action(fan, [(1, 2, 3, 4)])
    built = count_constructions(monkeypatch, Fan, QuotientFan)
    assert len(enumerate_good_subsets(fan, act)) == 2644
    assert len(t_maximal_subsets(fan, act)) == 9
    assert built == {}


@pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
def test_saturation_over_goods_builds_no_quotient_fan(case, monkeypatch):
    # on a fresh action, so each outer selection is decided on the way
    fan, gens = ENUMERATION_CASES[case]
    goods = enumerate_good_subsets(fan, normalize_action(fan, gens))
    act = normalize_action(fan, gens)
    built = count_constructions(monkeypatch, Fan, QuotientFan)
    for outer in goods:
        for inner in goods:
            if inner <= outer:
                max_saturated_inside(outer, inner, act)
    assert built == {}


@pytest.mark.parametrize("case", sorted(ENUMERATION_CASES))
def test_goods_render_on_demand_as_on_a_fresh_action(case, monkeypatch):
    fan, gens = ENUMERATION_CASES[case]
    warm = normalize_action(fan, gens)
    grouped = count_fibre_groupings(monkeypatch)
    goods = enumerate_good_subsets(fan, warm)
    # the enumeration renders nothing
    assert kept_table(warm, quotients._verdict) == {} and grouped == []
    fresh = normalize_action(fan, gens)
    for u in goods:
        record = quotients._fibres(warm, u.mask)[1]
        q = good_quotient(u, warm)
        want = good_quotient(u, fresh)
        assert isinstance(q, QuotientFan) and isinstance(want, QuotientFan), u
        assert (q.chart_map, q.orbit_map, q.fibres, q.geometric) == (
            want.chart_map, want.orbit_map, want.fibres, want.geometric
        ), u
        assert (q.fan.rays, q.fan.max_cones, q.pre_lineality, q.proj_full) == (
            want.fan.rays, want.fan.max_cones, want.pre_lineality, want.proj_full
        ), u
        assert record == want.fibres, u
        assert good_quotient(u, warm) is q
        # the rendered fibres are the kept ones
        assert record is q.fibres, u


@pytest.mark.parametrize("listing", [enumerate_good_subsets, t_maximal_subsets])
def test_listings_reject_a_fan_other_than_the_actions(listing):
    act = normalize_action(P2, [(1, 1)])
    with pytest.raises(ValueError, match="^action and selection live on different fans$"):
        listing(P1, act)


# what each listing's guard counts
GUARD_UNITS = {enumerate_good_subsets: "good subsets", t_maximal_subsets: "clique search nodes"}


@pytest.mark.parametrize("listing", [enumerate_good_subsets, t_maximal_subsets])
def test_listings_trip_the_enumeration_guard_before_any_verdict(listing, monkeypatch):
    assert len(enumerate_good_subsets(P2, normalize_action(P2, [(1, 1)]))) > 4
    act = normalize_action(P2, [(1, 1)])
    decided = []
    monkeypatch.setattr(quotients, "_decide", lambda *args: decided.append(args))
    grouped = count_fibre_groupings(monkeypatch)
    with pytest.raises(SizeGuardError, match=f"^more than 4 {GUARD_UNITS[listing]}$"):
        listing(P2, act, limit=4)
    assert decided == [] and kept_table(act, quotients._verdict) == {} and grouped == []


# The saturation routines before fibre masks, kept as the reference: they
# compare orbit-map key sets, and the T-maximal scan tests every pair of
# good selections.
def keyset_outer_quotient(inner, outer, act):
    if not inner.keys <= outer.keys:
        raise ValueError("inner selection must lie inside the outer one")
    q = good_quotient(outer, act)
    if isinstance(q, Obstruction):
        raise ValueError("outer selection admits no good quotient")
    return q


def keyset_is_saturated(inner, outer, act):
    q = keyset_outer_quotient(inner, outer, act)
    inside = {q.orbit_map[t] for t in inner.keys}
    return all(t in inner.keys for t in outer.keys if q.orbit_map[t] in inside)


def keyset_max_saturated_inside(outer, inner, act):
    q = keyset_outer_quotient(inner, outer, act)
    bad = {q.orbit_map[b] for b in outer.keys - inner.keys}
    return SubfanSelection(outer.fan, {t for t in outer.keys if q.orbit_map[t] not in bad})


def pairwise_t_maximal(fan, act):
    goods = enumerate_good_subsets(fan, act)
    return [
        u for u in goods
        if not any(u.keys < v.keys and keyset_is_saturated(u, v, act) for v in goods)
    ]


class TestSaturationAgainstKeySets:
    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_every_good_pair(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        goods = enumerate_good_subsets(fan, act)
        pairs = [(u, v) for u in goods for v in goods if u.keys <= v.keys]
        assert len(pairs) > len(goods)
        for u, v in pairs:
            assert is_saturated(u, v, act) == keyset_is_saturated(u, v, act), (u, v)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_every_open_inside_a_good_outer(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        opens = enumerate_open_subsets(fan)
        for outer in enumerate_good_subsets(fan, act):
            for inner in opens:
                if inner.keys <= outer.keys:
                    got = max_saturated_inside(outer, inner, act)
                    want = keyset_max_saturated_inside(outer, inner, act)
                    assert (got.keys, got.mask) == (want.keys, want.mask), (outer, inner)

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_t_maximal_lists(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        got = t_maximal_subsets(fan, normalize_action(fan, gens))
        want = pairwise_t_maximal(fan, normalize_action(fan, gens))
        assert [u.keys for u in got] == [u.keys for u in want]

    @pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
    def test_refusals_name_the_first_host(self, case):
        fan, gens = DIFFERENTIAL_CASES[case]
        act = normalize_action(fan, gens)
        data = GroupActionData(act, SymmetryGroup.trivial(fan))
        goods = enumerate_good_subsets(fan, act)
        maximal = {u.keys for u in pairwise_t_maximal(fan, act)}
        for u in goods:
            if u.keys in maximal:
                continue
            host = next(v for v in goods
                        if u.keys < v.keys and keyset_is_saturated(u, v, act))
            report = verify_theorem_conclusions(u, data)
            assert report.refused
            assert report.diagnosis == (
                "selection is properly saturated inside the larger good subset "
                f"{sorted(sorted(k) for k in host.keys)}"
            )


def test_t_maximal_subsets_compares_no_selection_pairs(monkeypatch):
    # the peel rule reads each good's own fibres, so no pair of
    # selections is ordered
    fan = Fan(3, P3_RAYS, P3_CONES)
    act = normalize_action(fan, [(1, 2, 3)])
    assert enumerate_good_subsets(fan, act)
    calls = 0
    lt = SubfanSelection.__lt__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return lt(self, other)

    monkeypatch.setattr(SubfanSelection, "__lt__", counted)
    assert t_maximal_subsets(fan, act)
    assert calls == 0


def test_image_containment_is_decided_at_most_once_per_pair(monkeypatch):
    fan = Fan(2, NINE_RAYS, [[i, (i + 1) % 9] for i in range(9)])
    act = normalize_action(fan, [(1, 2)])
    n = len(fan.cone_keys())
    calls = 0
    contains_cone = Cone.contains_cone

    def counted(self, other):
        nonlocal calls
        calls += 1
        return contains_cone(self, other)

    monkeypatch.setattr(Cone, "contains_cone", counted)
    assert len(enumerate_good_subsets(fan, act)) > 0
    assert n == 19 and calls <= n * n


def test_quotient_fans_are_read_off_the_image_table(monkeypatch):
    # orbit images and the geometric flag come from the source fan's split
    # images, so no cone of a target fan is built; the source fan is
    # simplicial, so its listing builds none of its cones either
    fan = Fan(3, P3_RAYS, P3_CONES)
    act = normalize_action(fan, [(1, 2, 3)])
    built_on = Counter()
    cone = Fan.cone

    def spied(self, key):
        built_on["source" if self is fan else "other"] += 1
        return cone(self, key)

    monkeypatch.setattr(Fan, "cone", spied)
    assert len(enumerate_good_subsets(fan, act)) > 0
    assert built_on["source"] == 0 and built_on["other"] == 0


def pairwise_rows(act):
    """`quotients._rows` before ray masks, kept as the reference: a cone's
    image is the image of its fan cone, and every pair of cones has both
    containments decided on the cones and lattices themselves."""
    keys, _ = act.fan.numbering()
    n = len(keys)
    img = [act.fan.cone(k).image(act.proj) for k in keys]
    lin = [c.lineality_lattice() for c in img]
    classes = {}
    cls = [classes.setdefault(lat.basis, len(classes)) for lat in lin]
    members = [sum(1 << i for i, c in enumerate(cls) if c == d) for d in range(len(classes))]
    below, above, lin_le = [0] * n, [0] * n, [0] * n
    for a in range(n):
        for b in range(n):
            if img[a].contains_cone(img[b]):
                below[a] |= 1 << b
                above[b] |= 1 << a
            if lin[a].contains_lattice(lin[b]):
                lin_le[a] |= 1 << b
    return quotients.Rows(img, lin, cls, members, below, above, lin_le)


def kept_table(act, fn):
    """The entries the action's memos hold for the `_kept` function fn."""
    return act.memos.get(fn.__wrapped__, {})


def rows_kept(act):
    """The entries the action's memos hold for `quotients._rows`."""
    return kept_table(act, quotients._rows)


# the complete fan over the faces of the cube [-1, 1]^3: six 4-ray facets
FULL_CUBE_RAYS = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
FULL_CUBE_FACETS = [
    [i for i, r in enumerate(FULL_CUBE_RAYS) if r[axis] == sign]
    for axis in range(3) for sign in (1, -1)
]
TABLE_CASES = {
    **ENUMERATION_CASES,
    "p4_1234": (Fan(4, P4_RAYS, P4_CONES), [(1, 2, 3, 4)]),
    "full_cube_123": (Fan(3, FULL_CUBE_RAYS, FULL_CUBE_FACETS), [(1, 2, 3)]),
}


def superset_index_hosts(fan, act):
    """The host search before the peel rule, kept as the reference: bit j
    of holders[c] is set when the j-th good holds cone c, so the AND of
    holders over u's cones holds the goods containing u, and u's host is
    the first of them in which u is saturated.  Returns the host mask, or
    None, of every good mask."""
    goods = enumerate_good_subsets(fan, act)
    holders = [0] * len(fan.cone_keys())
    for j, v in enumerate(goods):
        for c in bits(v.mask):
            holders[c] |= 1 << j
    everyone = (1 << len(goods)) - 1
    hosts = {}
    for k, u in enumerate(goods):
        larger = everyone & ~(1 << k)
        for c in bits(u.mask):
            larger &= holders[c]
        hosts[u.mask] = next(
            (
                goods[j].mask
                for j in bits(larger)
                if quotients._saturation(
                    quotients._fibres(act, goods[j].mask)[1], u.mask
                ) == u.mask
            ),
            None,
        )
    return hosts


def assert_peel_hosts_match_the_superset_index(fan, reference_act, act):
    want = superset_index_hosts(fan, reference_act)
    goods = enumerate_good_subsets(fan, act)
    assert [u.mask for u in goods] == list(want)
    assert [u.mask for u in t_maximal_subsets(fan, act)] == [
        u for u, host in want.items() if host is None
    ]
    for u in goods:
        assert getattr(host_of(u, act), "mask", None) == want[u.mask], u


def refuse_every_listing(monkeypatch):
    """Make the clique listing, and so its size guard, raise from now on."""

    def refused(*args):
        raise AssertionError("the clique listing was reached")

    monkeypatch.setattr(quotients, "_goods", refused)


class TestHostOfIsLocal:
    # the peel test decides the selection and tests its witnesses: no list
    # of goods and no limit
    def test_no_limit_is_taken(self):
        for routine in (host_of, verify_theorem_conclusions):
            assert "limit" not in inspect.signature(routine).parameters

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_cases_without_a_listing(self, case, monkeypatch):
        fan, gens = TABLE_CASES[case]
        want = superset_index_hosts(fan, normalize_action(fan, gens))
        act = normalize_action(fan, gens)
        refuse_every_listing(monkeypatch)
        for u, host in want.items():
            got = host_of(SubfanSelection._of_mask(fan, u), act)
            assert getattr(got, "mask", None) == host, u

    def test_p5_above_the_guard(self, monkeypatch):
        # P5 has 2,506,660 goods, more than the default limit of 2**20
        rays, cones = projective_space(5)
        fan = Fan(5, rays, cones)
        act = normalize_action(fan, [(1, 2, 3, 4, 5)])
        refuse_every_listing(monkeypatch)
        u = SubfanSelection(fan, [(), *((i,) for i in range(1, 6))])
        w = host_of(u, act)
        assert u < w and isinstance(good_quotient(w, act), QuotientFan)
        assert is_saturated(u, w, act)
        assert sorted(sorted(k) for k in w.keys) == [[], [0], [1], [2], [3], [4], [5]]
        data = GroupActionData(act, SymmetryGroup.trivial(fan))
        report = verify_theorem_conclusions(u, data)
        assert report.refused and report.diagnosis == (
            "selection is properly saturated inside the larger good subset "
            "[[], [0], [1], [2], [3], [4], [5]]"
        )
        # following the hosts ends at a T-maximal set, which is not refused
        while (host := host_of(w, act)) is not None:
            assert w < host
            w = host
        report = verify_theorem_conclusions(w, data)
        assert not report.refused and report.conclusions_hold()


class TestPeelHostsAgainstTheSupersetIndex:
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_table_cases(self, case):
        fan, gens = TABLE_CASES[case]
        assert_peel_hosts_match_the_superset_index(
            fan, normalize_action(fan, gens), normalize_action(fan, gens)
        )

    def test_every_action_of_every_corpus_fan(self):
        for fan in corpus_fans():
            for reference_act, act in zip(actions_for(fan), actions_for(fan)):
                assert_peel_hosts_match_the_superset_index(fan, reference_act, act)

    def test_the_pyramid_fan_is_not_in_numeric_order(self):
        # its 189 goods do not come in numeric mask order, and the good
        # superset of {[],[0],[1],[0,1]} with the smallest mask, in which it
        # is saturated, is not its host
        fan, gens = ENUMERATION_CASES["pyramid_123"]
        act = normalize_action(fan, gens)
        assert validate_fan(fan).valid and is_complete(fan)
        goods = enumerate_good_subsets(fan, act)
        assert len(goods) == 189 and len(t_maximal_subsets(fan, act)) == 11
        assert [u.mask for u in goods] != sorted(u.mask for u in goods)
        u = SubfanSelection(fan, [(), (0,), (1,), (0, 1)])
        hosts = [v for v in goods if u < v and is_saturated(u, v, act)]
        assert host_of(u, act) == hosts[0] != min(hosts, key=lambda v: v.mask)
        assert sorted(sorted(k) for k in hosts[0].keys) == [
            [], [0], [0, 1], [0, 1, 2, 3], [0, 3], [1], [1, 2], [2], [2, 3], [3]
        ]


def assert_families_are_the_verdicts(fan, act):
    # the goods are the ideals with a verdict, and the chart family of each
    # is its maximal cones
    goods = {u.mask for u in enumerate_good_subsets(fan, act)}
    ideals = _open_masks(fan, 2 ** 20)
    assert goods <= set(ideals)
    for mask in ideals:
        code, _, family = quotients._decide(act, mask)
        if code is None:
            assert mask in goods and family == maximal_cones(fan, mask), mask
        else:
            assert mask not in goods, mask


class TestCliqueClosures:
    # the face closure of every clique is good with the clique as its
    # chart family, and every good is one
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_the_families_are_the_verdicts_on_every_ideal(self, case):
        fan, gens = TABLE_CASES[case]
        assert_families_are_the_verdicts(fan, normalize_action(fan, gens))

    def test_every_action_of_every_corpus_fan(self):
        for fan in corpus_fans():
            for act in actions_for(fan):
                assert_families_are_the_verdicts(fan, act)

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_a_charts_fibre_is_its_top_fibre_in_every_good(self, case):
        fan, gens = TABLE_CASES[case]
        act = normalize_action(fan, gens)
        for w in quotients._goods(act, 2 ** 20):
            fibres = quotients._fibres(act, w)[1]
            for s in maximal_cones(fan, w):
                assert fibres[s] == quotients._top_fibre(act, s), (w, s)


P1_SQUARED = Fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [{0, 1}, {1, 2}, {2, 3}, {3, 0}])


@pytest.mark.parametrize("fan, gens", [
    (P1, [(1,)]), (P2, [(1, 1)]), (P1_SQUARED, [(1, 1)]), ENUMERATION_CASES["nine_ray_12"],
], ids=["p1", "p2", "p1_squared", "nine_ray_12"])
def test_the_guard_fires_exactly_above_the_good_count(fan, gens):
    want = [u.mask for u in enumerate_good_subsets(fan, normalize_action(fan, gens))]
    for limit in range(1, len(want) + 2):
        act = normalize_action(fan, gens)
        if len(want) > limit:
            with pytest.raises(SizeGuardError, match=f"^more than {limit} good subsets$"):
                enumerate_good_subsets(fan, act, limit)
        else:
            assert [u.mask for u in enumerate_good_subsets(fan, act, limit)] == want


@contextlib.contextmanager
def count_clique_search_nodes():
    """Count the nodes `t_maximal_subsets` visits inside the block: the runs
    of the line each node runs once, after the guard let it in.  Yields the
    list of runs."""
    fn = quotients.t_maximal_subsets
    lines, first = inspect.getsourcelines(fn)
    (line,) = [first + i for i, text in enumerate(lines) if text.strip() == "if not cands:"]
    visited = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            visited.append(line)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is fn.__code__ else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield visited
    finally:
        sys.settrace(previous)


@contextlib.contextmanager
def count_good_search_nodes(monkeypatch):
    """Count the nodes the goods' clique search visits inside the block: it
    reads the extensions of each node it visits once.  Yields the list of
    reads."""
    visited = []
    real = quotients.bits

    def counted(mask):
        if sys._getframe(1).f_code is quotients._goods.__code__:
            visited.append(mask)
        return real(mask)

    monkeypatch.setattr(quotients, "bits", counted)
    yield visited


@pytest.mark.parametrize("n, limit", [(5, 1000), (6, 10_000)])
@pytest.mark.parametrize("listing", [enumerate_good_subsets, t_maximal_subsets])
def test_the_refusal_comes_after_at_most_limit_nodes(listing, n, limit, monkeypatch):
    # P5 has 2,506,660 goods and 15,332 maximal cliques; P6 more than 12
    # million maximal cliques
    rays, cones = projective_space(n)
    fan = Fan(n, rays, cones)
    act = normalize_action(fan, [tuple(range(1, n + 1))])
    if listing is t_maximal_subsets:
        counting = count_clique_search_nodes()
    else:
        counting = count_good_search_nodes(monkeypatch)
    with counting as visited:
        with pytest.raises(SizeGuardError, match=f"^more than {limit} {GUARD_UNITS[listing]}$"):
            listing(fan, act, limit)
    assert 0 < len(visited) <= limit


@pytest.mark.parametrize("listing", [enumerate_good_subsets, t_maximal_subsets])
def test_a_negative_limit_is_refused(listing):
    # P2 answers at any limit of at least its goods; a negative one refuses
    act = normalize_action(P2, [(1, 1)])
    with pytest.raises(SizeGuardError, match=f"^more than -1 {GUARD_UNITS[listing]}$"):
        listing(P2, act, -1)


def test_the_goods_listing_keeps_nothing_but_what_it_reads():
    # answered or refused, the listing leaves the rows, the clique rows and
    # the enumeration keys in the memos, and no entry for the goods
    read = {f.__wrapped__ for f in (quotients._rows, quotients._compatible, quotients._shifted)}
    answered, refused = normalize_action(P2, [(1, 1)]), normalize_action(P2, [(1, 1)])
    assert len(enumerate_good_subsets(P2, answered)) > 4
    with pytest.raises(SizeGuardError):
        enumerate_good_subsets(P2, refused, 4)
    assert set(answered.memos) == set(refused.memos) == read


@pytest.mark.parametrize("fan, gens", [
    (P1, [(1,)]), (P2, [(1, 1)]), (P1_SQUARED, [(1, 1)]), ENUMERATION_CASES["nine_ray_12"],
], ids=["p1", "p2", "p1_squared", "nine_ray_12"])
def test_the_maximal_sets_answer_at_a_limit_of_the_good_count(fan, gens):
    # every clique search node holds a distinct clique, so a distinct good
    goods = enumerate_good_subsets(fan, normalize_action(fan, gens))
    want = [u.mask for u in peel_filter_t_maximal(fan, normalize_action(fan, gens))]
    act = normalize_action(fan, gens)
    with count_clique_search_nodes() as visited:
        got = t_maximal_subsets(fan, act, len(goods))
    assert [u.mask for u in got] == want
    assert 0 < len(visited) <= len(goods)
    # and the guard counts exactly those nodes
    fewer = len(visited) - 1
    with pytest.raises(SizeGuardError, match=f"^more than {fewer} clique search nodes$"):
        t_maximal_subsets(fan, normalize_action(fan, gens), fewer)


def test_the_pivot_keeps_the_clique_search_small():
    # P4 with (1,2,3,4): 2,644 goods, 199 maximal cliques, 9 T-maximal sets;
    # branching on every candidate would visit all 2,644 cliques
    fan = Fan(4, P4_RAYS, P4_CONES)
    act = normalize_action(fan, [(1, 2, 3, 4)])
    with count_clique_search_nodes() as visited:
        assert len(t_maximal_subsets(fan, act)) == 9
    assert len(visited) == 380


def peel_filter_t_maximal(fan, act):
    """`t_maximal_subsets` before the maximal cliques, kept as the
    reference: every good is peel-tested as the goods' clique search
    reaches it, and the goods without a witness are kept in enumeration
    order.  It holds only the survivors and has no guard, so it also runs
    where the goods number more than `enumerate_good_subsets` lists."""
    faces, ups = fan.face_masks(), fan.up_masks()
    compat, shifted = quotients._compatible(act), quotients._shifted(act)
    kept = []
    stack = [(0, (), (1 << len(faces)) - 1)]
    while stack:
        u, family, extend = stack.pop()
        if next(quotients._witnesses(act, u, family, faces, ups, compat), None) is None:
            kept.append((quotients._union(shifted[s] for s in family), u))
        for a in bits(extend):
            stack.append((u | faces[a], family + (a,), extend & compat[a] & -(2 << a)))
    return [SubfanSelection._of_mask(fan, u) for _, u in sorted(kept)]


def surface_fan(m):
    """The complete smooth fan on (0,-1), (1,j) for -m <= j < m, (0,1) and
    (-1,0), in that cyclic order."""
    rays = [(0, -1)] + [(1, j) for j in range(-m, m)] + [(0, 1), (-1, 0)]
    return Fan(2, rays, [[i, (i + 1) % len(rays)] for i in range(len(rays))])


P1_FOURTH_RAYS = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
P1_FOURTH_CONES = [[a, b, c, d] for a in (0, 1) for b in (2, 3) for c in (4, 5) for d in (6, 7)]


def goods_from_maximal(fan, act):
    """The union, over the T-maximal w, of the preimages under w's orbit map
    of every open subfan of w's target: by the paper, every good mask."""
    goods = set()
    for w in t_maximal_subsets(fan, act):
        q = good_quotient(w, act)
        for sub in enumerate_open_subsets(q.fan):
            goods.add(
                SubfanSelection(fan, [t for t in w.keys if q.orbit_map[t] in sub.keys]).mask
            )
    return goods


# more than 2**20 order ideals each, but few goods
@pytest.mark.parametrize("fan, gens, counts", [
    (surface_fan(9), [(1, 2)], (390, 347)),
    (surface_fan(19), [(1, 2)], (1590, 1507)),
    (Fan(4, P1_FOURTH_RAYS, P1_FOURTH_CONES), [(1, 0, 1, 0), (0, 1, 0, 1)], (1900, 121)),
], ids=["surface_21_rays", "surface_41_rays", "p1_fourth_rank2"])
def test_small_searches_beyond_the_ideal_count_answer(fan, gens, counts):
    assert validate_fan(fan).valid and is_complete(fan)
    with pytest.raises(SizeGuardError):
        _open_masks(fan, 2 ** 20)
    act = normalize_action(fan, gens)
    goods = enumerate_good_subsets(fan, act)
    tmax = t_maximal_subsets(fan, act)
    assert (len(goods), len(tmax)) == counts
    assert goods_from_maximal(fan, act) == {u.mask for u in goods}
    assert [w for w in tmax if oracle_verify_quotient(good_quotient(w, act), act)] == []


def test_p5_gives_eleven_maximal_sets_without_listing_goods(monkeypatch):
    # 2,506,660 goods, more than the default limit, but 15,332 maximal cliques
    rays, cones = projective_space(5)
    fan = Fan(5, rays, cones)
    act = normalize_action(fan, [(1, 2, 3, 4, 5)])
    refuse_every_listing(monkeypatch)
    tmax = t_maximal_subsets(fan, act)
    assert len(tmax) == 11
    # the per-good peel filter over all the goods gives the same, in order
    want = peel_filter_t_maximal(fan, normalize_action(fan, [(1, 2, 3, 4, 5)]))
    assert [w.mask for w in tmax] == [w.mask for w in want]
    for w in tmax:
        assert host_of(w, act) is None


class TestRayMaskTable:
    def test_the_full_cube_is_a_complete_fan(self):
        fan, _ = TABLE_CASES["full_cube_123"]
        assert validate_fan(fan).valid and is_complete(fan)

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_build_matches_the_pairwise_build(self, case):
        fan, gens = TABLE_CASES[case]
        act = normalize_action(fan, gens)
        rows = quotients._rows(act)
        reference = pairwise_rows(act)
        for field in quotients.Rows._fields:
            assert getattr(rows, field) == getattr(reference, field), field
        # the rows are kept: a second read returns them as they are
        assert quotients._rows(act) is rows and list(rows_kept(act).values()) == [rows]
        # on a fan the ray images and the fan-cone images share interner keys
        assert all(a is b for a, b in zip(rows.img, reference.img))

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_listings_match_the_pairwise_build(self, case, monkeypatch):
        fan, gens = TABLE_CASES[case]

        def listings():
            act = normalize_action(fan, gens)
            goods = enumerate_good_subsets(fan, act)
            return (
                [u.mask for u in goods],
                [u.mask for u in t_maximal_subsets(fan, act)],
                [getattr(host_of(u, act), "mask", None) for u in goods],
            )

        got = listings()
        monkeypatch.setattr(quotients, "_rows", quotients._kept(pairwise_rows))
        assert got == listings()

    def test_enumeration_tests_rays_and_builds_maximal_fan_cones_only(self, monkeypatch):
        # one membership test per cone and ray outside it, no cone
        # containment, and no fan cone at all, since every maximal cone is
        # simplicial; the pairwise build made 332 membership tests here
        fan = Fan(2, NINE_RAYS, [[i, (i + 1) % 9] for i in range(9)])
        act = normalize_action(fan, [(1, 2)])
        calls = Counter()
        built = set()
        contains, contains_cone, cone = Cone.contains, Cone.contains_cone, Fan.cone

        def counted_contains(self, v):
            calls["contains"] += 1
            return contains(self, v)

        def counted_contains_cone(self, other):
            calls["contains_cone"] += 1
            return contains_cone(self, other)

        def spied(self, key):
            built.add(frozenset(key))
            return cone(self, key)

        monkeypatch.setattr(Cone, "contains", counted_contains)
        monkeypatch.setattr(Cone, "contains_cone", counted_contains_cone)
        monkeypatch.setattr(Fan, "cone", spied)
        assert len(enumerate_good_subsets(fan, act)) == 70
        assert len(fan.cone_keys()) == 19 and len(fan.rays) == 9
        assert calls["contains_cone"] == 0 and calls["contains"] <= 19 * 9
        assert built == set()


# the face masks live on the fan, so each case forges a fresh copy of P1;
# the rows are forged in place of the action's kept ones
def forge_rows(act, **rows):
    kept = rows_kept(act)
    kept[()] = kept[()]._replace(**rows)


def forge_none_is_a_chart(act, full):
    act.fan._faces[:] = [full] * len(act.fan._faces)


def forge_no_maximal_image(act, full):
    forge_none_is_a_chart(act, full)
    forge_rows(act, below=[1 << i for i in range(len(act.fan._faces))])


def forge_cyclic_lineality(act, full):
    # each lattice contains the next one only: pairwise comparable, no largest
    forge_rows(act, lin_le=[1 << i | 1 << (i + 1) % 3 for i in range(3)])


@pytest.mark.parametrize("forge, message", [
    (forge_none_is_a_chart, r"cone \[\] has a maximal image but is no chart"),
    (forge_no_maximal_image, r"the image of cone \[\] lies in no maximal image"),
    (forge_cyclic_lineality, r"images from cone \[\] on are pairwise comparable"),
])
def test_broken_table_invariants_raise_named_errors(forge, message):
    fan = Fan(1, P1.rays, P1.max_cones)
    act = normalize_action(fan, [(1,)])
    full = fan.full_selection().mask
    quotients._rows(act)
    forge(act, full)
    with pytest.raises(RuntimeError, match=message):
        good_quotient(fan.full_selection(), act)


def test_every_engine_fact_is_kept_on_the_action_by_one_memo_rule():
    # the action holds one memo store, whose every key is a function of
    # the engine or the oracles wrapped by `_kept`, the rows and the
    # verdicts included
    assert quotients.SubtorusAction.__slots__ == ("fan", "cochar", "proj", "memos")
    kept_code = quotients._kept(lambda act: act).__code__
    kept = {
        f.__wrapped__ for module in (quotients, oracles) for f in vars(module).values()
        if getattr(f, "__code__", None) is kept_code
    }
    fan, gens = ENUMERATION_CASES["pyramid_123"]
    act = normalize_action(fan, gens)
    large = normalize_action(fan, [*gens, (0, 0, 1)])
    goods = enumerate_good_subsets(fan, act)
    assert len(t_maximal_subsets(fan, act)) == 11
    for u in goods:
        host_of(u, act)
        assert isinstance(good_quotient(u, act), QuotientFan)
        assert is_saturated(u, u, act)
        staged_quotient(u, act, large)
    assert all(chart_family(u, act) for u in goods[1:])
    tmax = t_maximal_subsets(fan, act)
    assert all(oracle_verify_quotient(good_quotient(w, act), act) == () for w in tmax)
    assert {w.mask for w in brute_t_maximal(fan, act)} == {w.mask for w in tmax}
    assert set(act.memos) <= kept and set(large.memos) <= kept
    assert {
        oracles._chart_family.__wrapped__, oracles._carrier.__wrapped__,
        oracles._chart_ring_check.__wrapped__, quotients._carrier.__wrapped__,
    } <= set(act.memos)
    assert {quotients._residual.__wrapped__, quotients._composite.__wrapped__} <= set(
        act.memos
    )
    assert len(rows_kept(act)) == 1
    assert set(kept_table(act, quotients._verdict)) == {(u.mask,) for u in goods}


def test_a_mask_is_decided_once_whoever_asks():
    # the verdict, the host search and both saturation routines read one
    # kept decision of the outer mask, and the quotient's fibres are the
    # kept ones
    fan, gens = ENUMERATION_CASES["pyramid_123"]
    act = normalize_action(fan, gens)
    u = SubfanSelection(fan, [(), (0,), (1,), (0, 1)])
    v = SubfanSelection(fan, [(), (0,)])
    q = good_quotient(u, act)
    assert isinstance(q, QuotientFan) and host_of(u, act) is not None
    # u's cones share one orbit image, so nothing inside v is saturated
    assert not is_saturated(v, u, act) and max_saturated_inside(u, v, act).mask == 0
    assert list(kept_table(act, quotients._decide)) == [(u.mask,)]
    assert quotients._fibres(act, u.mask)[1] is good_quotient(u, act).fibres


def test_a_kept_none_is_computed_once():
    # the oracles keep None for a mask without a chart family
    calls = []

    @quotients._kept
    def nothing(act, x):
        calls.append(x)

    act = normalize_action(P1, [(1,)])
    assert nothing(act, 1) is None and nothing(act, 1) is None
    assert calls == [1] and act.memos == {nothing.__wrapped__: {(1,): None}}


def test_dropped_fan_and_action_are_freed_without_a_cyclic_collection():
    # the memo holds results, and a result holds no way back to its action
    gc.collect()
    gc.disable()
    try:
        fan = Fan(3, P3_RAYS, P3_CONES)
        act = normalize_action(fan, [(1, 2, 3)])
        assert enumerate_good_subsets(fan, act) and t_maximal_subsets(fan, act)
        del fan, act
        assert gc.collect() == 0
    finally:
        gc.enable()


# remark_suite before masks, kept as the reference: orbit closures and image
# ideals are key sets, and a preimage is validated by SubfanSelection
def keyset_remark_suite(q, act):
    violations = []
    fan = q.source.fan
    keys = sorted(q.source.keys, key=key_order)
    o = q.orbit_map
    qkeys = q.fan.cone_keys()
    up = {t: frozenset(k for k in keys if t <= k) for t in keys}
    qup = {c: frozenset(k for k in qkeys if c <= k) for c in qkeys}
    for t in keys:
        image = {o[a] for a in up[t]}
        hull = set().union(*(qup[c] for c in image))
        if hull != image:
            violations.append(
                f"(i) image of the orbit closure of {sorted(t)} is not closed"
            )
    for t, s in combinations(keys, 2):
        if up[t].isdisjoint(up[s]):
            if not {o[a] for a in up[t]}.isdisjoint({o[a] for a in up[s]}):
                violations.append(
                    f"(ii) disjoint orbit closures of {sorted(t)} and {sorted(s)} "
                    "have overlapping images"
                )
    ikeys = frozenset(o.values())
    principal_opens = sorted(
        {frozenset(), ikeys}
        | {frozenset(k for k in ikeys if k <= c) for c in ikeys},
        key=lambda g: (len(g), sorted(sorted(k) for k in g)),
    )
    preimages = []
    for g in principal_opens:
        pre = frozenset(t for t in keys if o[t] in g)
        preimages.append(pre)
        if {o[t] for t in pre} != g:
            violations.append("(iii) a saturated open does not map onto its image")
            continue
        try:
            sub = good_quotient(SubfanSelection(fan, pre), act)
        except ValueError:
            violations.append(
                "(iii) preimage of an open image set is not an open selection"
            )
            continue
        if isinstance(sub, Obstruction):
            violations.append(
                "(iii) restriction to a saturated open is not a good quotient: "
                f"{sub.detail}"
            )
    for t in keys:
        for pre in preimages:
            trace = up[t] & pre
            trace_images = {o[a] for a in trace}
            for a in up[t]:
                if o[a] in trace_images and a not in trace:
                    violations.append(
                        f"(iv) trace of a saturated open on the orbit closure of "
                        f"{sorted(t)} is not saturated there"
                    )
                    break
    return tuple(violations)


def with_one_image_moved(q):
    """q with the orbit image of its last source cone moved to the last
    other target cone, fibres to match; None when there is nothing to move."""
    keys, bit = q.source.fan.numbering()
    qkeys, _ = q.fan.numbering()
    if not q.source.mask or len(qkeys) < 2:
        return None
    t = keys[q.source.mask.bit_length() - 1]
    orbit_map = dict(q.orbit_map)
    orbit_map[t] = [c for c in qkeys if c != orbit_map[t]][-1]
    fibres = {
        bit[u]: sum(1 << bit[v] for v in orbit_map if orbit_map[v] == orbit_map[u])
        for u in orbit_map
    }
    return dataclasses.replace(q, orbit_map=orbit_map, fibres=fibres)


def remark_actions(case):
    """(fan, action) pairs of a differential case, or of a corpus fan with
    every corpus action."""
    if case in DIFFERENTIAL_CASES:
        fan, gens = DIFFERENTIAL_CASES[case]
        return [(fan, normalize_action(fan, gens))]
    rays = {"corpus_p1xp1": {(1, 0), (-1, 0), (0, 1), (0, -1)},
            "corpus_p112": {(1, 0), (0, 1), (-1, -2)},
            "corpus_six_rays": {(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)}}[case]
    fan = next(f for f in corpus_fans() if set(f.rays) == rays)
    return [(fan, act) for act in actions_for(fan)]


class TestRemarkSuiteAgainstKeySets:
    @pytest.mark.parametrize(
        "case",
        sorted(DIFFERENTIAL_CASES) + ["corpus_p112", "corpus_p1xp1", "corpus_six_rays"],
    )
    def test_every_good_quotient_and_a_moved_copy(self, case):
        statements = Counter()
        for fan, act in remark_actions(case):
            for sel in enumerate_good_subsets(fan, act):
                q = good_quotient(sel, act)
                assert remark_suite(q, act) == keyset_remark_suite(q, act) == (), sel
                moved = with_one_image_moved(q)
                if moved is not None:
                    got = remark_suite(moved, act)
                    assert got == keyset_remark_suite(moved, act), sel
                    statements.update(v.split(" ", 1)[0] for v in got)
        # the suite can fail: a moved orbit image breaks (i)-(iii).  (iv)
        # cannot fail, since every preimage of an image set is a union of
        # fibres, and so is its trace on any set of cones.
        assert set(statements) == {"(i)", "(ii)", "(iii)"}
