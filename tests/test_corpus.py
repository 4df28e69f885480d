"""Corpus structure and sweep determinism."""

from toricgit.corpus import (
    CANDIDATE_RAYS,
    actions_for,
    complete_rank2_fans,
    corpus_fans,
    named_fans,
    run_sweep,
    subtorus_lines,
)
from toricgit.fans import Fan, is_complete, is_simplicial


class TestCorpusFans:
    def test_generated_family_size(self):
        assert len(complete_rank2_fans()) == 18

    def test_generated_fans_are_complete_and_simplicial(self):
        for fan in complete_rank2_fans():
            assert is_complete(fan)
            assert is_simplicial(fan)

    def test_plane_and_product_arise(self):
        ray_sets = {frozenset(fan.rays) for fan in complete_rank2_fans()}
        assert frozenset({(1, 0), (0, 1), (-1, -1)}) in ray_sets
        assert frozenset({(1, 0), (-1, 0), (0, 1), (0, -1)}) in ray_sets

    def test_gap_filter_rejects_half_turns(self):
        # three rays in a closed half plane never give a complete fan
        for fan in complete_rank2_fans():
            assert len(fan.rays) >= 3
            assert frozenset(fan.rays) != frozenset({(1, 0), (1, 1), (0, 1)})

    def test_named_fans(self):
        p1, p112 = named_fans()
        assert p1.rank == 1
        assert p112.rays == ((1, 0), (0, 1), (-1, -2))
        assert len(corpus_fans()) == 20


class TestActions:
    def test_line_list(self):
        assert subtorus_lines() == (
            (0, 1),
            (1, -2),
            (1, -1),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, -1),
            (2, 1),
        )

    def test_action_count_rank_two(self):
        fan = complete_rank2_fans()[0]
        acts = actions_for(fan)
        assert len(acts) == 10
        assert acts[0].is_trivial()
        assert acts[-1].is_full()

    def test_action_count_rank_one(self):
        p1, _ = named_fans()
        acts = actions_for(p1)
        assert len(acts) == 2
        assert acts[0].is_trivial()
        assert acts[-1].is_full()


class TestSweep:
    def test_reduced_sweep_is_clean_and_deterministic(self):
        fans = corpus_fans()[:2]
        first = run_sweep(fans=fans)
        second = run_sweep(fans=fans)
        assert first.clean()
        assert first.failures() == second.failures()
        assert (first.selections, first.goods, first.staged_pairs) == (
            second.selections,
            second.goods,
            second.staged_pairs,
        )

    def test_seed_changes_sampling_not_verdicts(self):
        fans = corpus_fans()[:1]
        a = run_sweep(seed=1, fans=fans)
        b = run_sweep(seed=2, fans=fans)
        assert a.clean() and b.clean()
        assert a.selections == b.selections

    def test_failures_list_the_legs_in_report_order(self):
        p1, _ = named_fans()
        result = run_sweep(fans=[p1])
        failures = result.failures()
        assert list(failures) == [
            "verdict_disagreements",
            "certificate_failures",
            "remark_violations",
            "tmax_mismatches",
            "staged_inconsistencies",
            "saturation_mismatches",
            "eq1_failures",
            "theorem_failures",
        ]
        assert all(lines == () for lines in failures.values())
        # a fresh dict each time, so a caller cannot change the result
        failures["eq1_failures"] = ("changed",)
        assert result.failures()["eq1_failures"] == () and result.clean()
