"""Acceptance gate: the eleven headline guarantees, one verdict line each.

Run with -s to see the verdict lines; under plain pytest each test's
pass/fail status is the verdict.  The corpus sweep is shared by the
criteria that consume it, so the whole gate costs one sweep plus the
deliberate double run of the command suite at the end.
"""

import json
import random
import time
from pathlib import Path

import pytest

from toricgit.cli import main
from toricgit.corpus import run_sweep
from toricgit.cox import (
    canonical_section,
    cox_presentation,
    isotropy_at,
    round_trip,
    zero_set_identity_holds,
)
from toricgit.fans import Fan, SubfanSelection, is_complete
from toricgit.oracles import brute_t_maximal
from toricgit.quotients import (
    Obstruction,
    QuotientFan,
    good_quotient,
    normalize_action,
    t_maximal_subsets,
)
from toricgit.symmetry import (
    GroupActionData,
    SymmetryGroup,
    verify_theorem_conclusions,
)

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
SEED = 20260817


def verdict(number, ok, text):
    word = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE CRITERION {number:2d} {word}: {text}")
    assert ok, f"criterion {number}: {text}"


@pytest.fixture(scope="session")
def sweep():
    return run_sweep(seed=SEED)


def projective_line():
    return Fan(1, ((1,), (-1,)), [{0}, {1}])


def affine_line():
    return Fan(1, ((1,),), [{0}])


def punctured_plane():
    fan = Fan(2, ((1, 0), (0, 1)), [{0, 1}])
    sel = SubfanSelection(
        fan, [frozenset(), frozenset({0}), frozenset({1})]
    )
    return fan, sel


def test_criterion_01_punctured_plane_modulo_diagonal():
    start = time.perf_counter()
    fan, sel = punctured_plane()
    act = normalize_action(fan, [(1, 1)])
    q = good_quotient(sel, act)
    elapsed = time.perf_counter() - start
    ok = (
        isinstance(q, QuotientFan)
        and q.fan.rank == 1
        and set(q.fan.rays) == {(1,), (-1,)}
        and is_complete(q.fan)
        and set(q.chart_map.values()) == {frozenset({0}), frozenset({1})}
        and q.orbit_map[frozenset()] == frozenset()
        and q.geometric
        and elapsed < 1.0
    )
    verdict(1, ok, "punctured plane modulo the diagonal is the projective line")


def test_criterion_02_full_torus_on_a_complete_fan():
    start = time.perf_counter()
    fan = projective_line()
    act = normalize_action(fan, [(1,)])
    q = good_quotient(fan.full_selection(), act)
    elapsed = time.perf_counter() - start
    ok = isinstance(q, Obstruction) and bool(q.detail) and elapsed < 1.0
    verdict(2, ok, "full torus on the projective line is obstructed, with a reason")


def test_criterion_03_maximal_subsets_of_the_line():
    p1 = projective_line()
    act1 = normalize_action(p1, [(1,)])
    start = time.perf_counter()
    engine1 = {frozenset(u.keys) for u in t_maximal_subsets(p1, act1)}
    brute1 = {frozenset(u.keys) for u in brute_t_maximal(p1, act1)}
    t1 = time.perf_counter() - start
    zero, left, right = frozenset(), frozenset({0}), frozenset({1})
    expected1 = {
        frozenset({zero}),
        frozenset({zero, left}),
        frozenset({zero, right}),
    }

    a1 = affine_line()
    act2 = normalize_action(a1, [(1,)])
    start = time.perf_counter()
    engine2 = {frozenset(u.keys) for u in t_maximal_subsets(a1, act2)}
    brute2 = {frozenset(u.keys) for u in brute_t_maximal(a1, act2)}
    t2 = time.perf_counter() - start
    expected2 = {frozenset({zero}), frozenset({zero, left})}

    ok = (
        engine1 == brute1 == expected1
        and engine2 == brute2 == expected2
        and t1 < 1.0
        and t2 < 1.0
    )
    verdict(3, ok, "torus-maximal subsets of both lines match brute force exactly")


def test_criterion_04_criterion_oracle_equivalence(sweep):
    ok = (
        sweep.fans == 20
        and sweep.actions == 192
        and sweep.selections > 10000
        and sweep.goods > 1000
        and not sweep.legs["verdict_disagreements"]
        and not sweep.legs["certificate_failures"]
        and sweep.elapsed < 300.0
    )
    verdict(
        4,
        ok,
        f"{sweep.selections} verdicts and {sweep.goods} chart certificates agree "
        f"with the definition-level oracle in {sweep.elapsed:.1f}s",
    )


def test_criterion_05_both_maximality_variants_coincide(sweep):
    ok = not sweep.legs["tmax_mismatches"]
    verdict(
        5,
        ok,
        "engine torus-maximal subsets match the brute-force filter corpus-wide "
        "(one list serves both maximality variants)",
    )


def test_criterion_06_remark_suite(sweep):
    ok = sweep.goods > 0 and not sweep.legs["remark_violations"]
    verdict(
        6, ok, f"remark identities hold on all {sweep.goods} certified quotients"
    )


def test_criterion_07_staged_and_direct_quotients(sweep):
    ok = sweep.staged_pairs > 0 and not sweep.legs["staged_inconsistencies"]
    verdict(
        7,
        ok,
        f"staged and direct quotients agree on all {sweep.staged_pairs} nested pairs",
    )


def test_criterion_08_saturation_and_removed_piece(sweep):
    ok = (
        sweep.saturation_checks > 0
        and sweep.eq1_checks > 0
        and not sweep.legs["saturation_mismatches"]
        and not sweep.legs["eq1_failures"]
    )
    verdict(
        8,
        ok,
        f"{sweep.saturation_checks} saturation searches match brute force and "
        f"{sweep.eq1_checks} removed-piece identities hold",
    )


def test_criterion_09_quasitorus_presentations():
    p2 = Fan(2, ((1, 0), (0, 1), (-1, -1)), [{0, 1}, {1, 2}, {0, 2}])
    p112 = Fan(2, ((1, 0), (0, 1), (-1, -2)), [{0, 1}, {1, 2}, {0, 2}])
    pres2 = cox_presentation(p2)
    pres112 = cox_presentation(p112)

    plane_ok = (
        pres2.class_rank == 1
        and pres2.torsion_factors == ()
        and pres2.weights() == ((1,), (1,), (1,))
        and len(pres2.coordinate_fan.cone_keys()) == 7
        and all(
            isotropy_at(pres2, key) == (0, ()) for key in p2.max_cones
        )
    )
    weighted_ok = (
        pres112.class_rank == 1
        and pres112.torsion_factors == ()
        and pres112.weights() == ((1,), (2,), (1,))
        and isotropy_at(pres112, frozenset({0, 2})) == (0, (2,))
    )

    rng = random.Random(SEED)
    zero_sets_ok = True
    for pres in (pres2, pres112):
        n = len(pres.fan.rays)
        for _ in range(100):
            exps = tuple(rng.randrange(4) for _ in range(n))
            section = canonical_section(pres, exps)
            zero_sets_ok = zero_sets_ok and zero_set_identity_holds(pres, section)

    rt2 = round_trip(pres2, p2.full_selection())
    rt112 = round_trip(pres112, p112.full_selection())
    round_trips_ok = rt2.ok and rt2.geometric and rt112.ok and rt112.geometric

    ok = plane_ok and weighted_ok and zero_sets_ok and round_trips_ok
    verdict(
        9,
        ok,
        "quasitorus presentations: weights, isotropy, 100 zero-set identities "
        "per fan, and both round trips",
    )


def test_criterion_10_theorem_checker(sweep):
    corpus_ok = not sweep.legs["theorem_failures"]

    p1 = projective_line()
    act = normalize_action(p1, [(1,)])
    sym = SymmetryGroup(p1, [((-1,),)])
    data = GroupActionData(act, sym)
    chart = SubfanSelection(p1, [frozenset(), frozenset({0})])
    report = verify_theorem_conclusions(chart, data)
    swap_ok = (
        not report.refused
        and report.w_keys == ((),)
        and report.open_in_source
        and report.quotient_exists
        and report.saturated_in_input is False
        and bool(report.caveat)
        and not report.conclusions_hold()
    )

    ok = corpus_ok and swap_ok
    verdict(
        10,
        ok,
        "conclusions verify corpus-wide, and the ray swap on the line fails "
        "honestly at saturation with the disconnectedness caveat",
    )


SUITE = (
    ("check-p2", ["check", "p2.json"]),
    ("quotient-diag", ["quotient", "c2_diagonal.json", "--selection", "punctured"]),
    ("quotient-p1", ["quotient", "p1.json", "--selection", "all"]),
    ("enumerate-p1", ["enumerate-maximal", "p1.json"]),
    ("cox-p2", ["cox", "p2.json", "--family", "witnesses"]),
    ("cox-p112", ["cox", "p112.json", "--family", "witnesses"]),
    ("w-set-p1", ["w-set", "p1.json", "--selection", "chart"]),
    ("theorem-p1", ["verify-theorem", "p1.json", "--selection", "chart"]),
    ("corollary-p2", ["verify-corollary", "p2.json"]),
    ("eq1-diag", ["eq1-check", "c2_diagonal.json", "--selection", "all",
                  "--inner", "punctured"]),
    ("oracle-sweep", ["oracle-sweep"]),
)


def run_suite(capsys, outdir):
    outdir.mkdir()
    texts = {}
    for label, argv in SUITE:
        argv = list(argv)
        if len(argv) > 1 and argv[1].endswith(".json"):
            argv[1] = str(INPUTS / argv[1])
        argv += ["--seed", str(SEED), "--out", str(outdir / label)]
        capsys.readouterr()
        main(argv)
        texts[label] = capsys.readouterr().out
    return texts


def test_criterion_11_reports_are_reproducible(capsys, tmp_path):
    first = run_suite(capsys, tmp_path / "first")
    second = run_suite(capsys, tmp_path / "second")
    stdout_ok = first == second
    files_ok = True
    for label, _ in SUITE:
        for ext in (".txt", ".json"):
            a = (tmp_path / "first" / (label + ext)).read_bytes()
            b = (tmp_path / "second" / (label + ext)).read_bytes()
            files_ok = files_ok and a == b
    parsed = json.loads(
        (tmp_path / "first" / "oracle-sweep.json").read_text(encoding="utf-8")
    )
    sweep_ok = parsed["body"]["clean"] and parsed["exit_code"] == 0
    ok = stdout_ok and files_ok and sweep_ok
    verdict(
        11,
        ok,
        f"two runs of the {len(SUITE)}-command suite are byte-identical on "
        "stdout and in both written report formats",
    )
