"""Verification corpus: complete surface fans, subtorus actions, and the
seeded cross-check sweep behind the acceptance gate.

The corpus is every complete simplicial surface fan assembled from a
fixed candidate ray list, together with the projective line and the
weighted projective plane; the actions are the trivial subtorus, every
primitive line with small entries, and the full torus.  The sweep runs
the closed-form engine against the definition-level recomputations over
all face-closed selections and reports every discrepancy it finds.

Each leg is named once, in LEGS; `SweepResult.legs` maps it to its
failure lines.  Selections are compared and filtered on their masks.
"""

import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .fans import Fan, enumerate_open_subsets
from .oracles import (
    brute_max_saturated_inside,
    brute_t_maximal,
    oracle_good_quotient,
    oracle_verify_quotient,
)
from .quotients import (
    Obstruction,
    good_quotient,
    max_saturated_inside,
    normalize_action,
    remark_suite,
    staged_quotient,
    t_maximal_subsets,
)
from .symmetry import (
    GroupActionData,
    SymmetryGroup,
    eq1_crosscheck,
    generate_symmetry_group,
    is_invariant,
    verify_theorem_conclusions,
)

CANDIDATE_RAYS = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def complete_rank2_fans():
    """All complete simplicial surface fans on the fixed candidate rays.

    A subset of the candidate circle is complete exactly when every
    consecutive angular gap stays below a half turn; successive rays then
    span the maximal cones.
    """
    fans = []
    m = len(CANDIDATE_RAYS)
    for size in range(3, m + 1):
        for pick in combinations(range(m), size):
            rays = [CANDIDATE_RAYS[i] for i in pick]
            if all(_cross(rays[i], rays[(i + 1) % size]) > 0 for i in range(size)):
                fans.append(Fan(2, rays, [{i, (i + 1) % size} for i in range(size)]))
    return tuple(fans)


def named_fans():
    """The projective line and the weighted plane; the unweighted plane
    and the product of two lines already arise from the candidate rays."""
    p1 = Fan(1, [(1,), (-1,)], [{0}, {1}])
    p112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
    return (p1, p112)


def corpus_fans():
    return complete_rank2_fans() + named_fans()


def subtorus_lines():
    """Primitive direction vectors, up to sign, with entries in [-2, 2]."""
    out = set()
    for a in range(-2, 3):
        for b in range(-2, 3):
            if (a, b) != (0, 0) and gcd(a, b) == 1:
                out.add((a, b) if (a, b) > (0, 0) else (-a, -b))
    return tuple(sorted(out))


def actions_for(fan):
    """Trivial subtorus, each candidate line, and the full torus."""
    acts = [normalize_action(fan, [])]
    if fan.rank == 2:
        acts.extend(normalize_action(fan, [v]) for v in subtorus_lines())
    unit = [
        tuple(1 if j == i else 0 for j in range(fan.rank)) for i in range(fan.rank)
    ]
    acts.append(normalize_action(fan, unit))
    return acts


def _tag(index, fan, act):
    line = ",".join(str(b) for b in act.cochar.basis.entries)
    return f"fan{index}(rays={fan.rays}) L=[{line}]"


def _negation_symmetric(fan):
    rays = set(fan.rays)
    return all(tuple(-x for x in r) in rays for r in fan.rays)


# the sweep's legs, in report order; each collects its failure lines
LEGS = (
    "verdict_disagreements", "certificate_failures", "remark_violations",
    "tmax_mismatches", "staged_inconsistencies", "saturation_mismatches",
    "eq1_failures", "theorem_failures",
)
# sampled checks per fan and action: staged selections per nested pair,
# saturation inners per outer, removed-piece inners per invariant outer
STAGED_SAMPLES = 12
SATURATION_SAMPLES = 5
EQ1_SAMPLES = 3


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one verification sweep; clean() means no leg failed."""

    seed: int
    fans: int
    actions: int
    selections: int
    goods: int
    staged_pairs: int
    saturation_checks: int
    eq1_checks: int
    legs: dict  # leg name -> tuple of failure lines, in LEGS order
    elapsed: float

    def failures(self):
        return dict(self.legs)

    def clean(self):
        return not any(self.legs.values())


def _keys(sel):
    return sorted(map(sorted, sel.keys))


def run_sweep(seed=20260817, fans=None, limit=2 ** 20, bound=None):
    """Cross-check the engine on the corpus; deterministic for a seed.

    Legs, per fan and action: engine verdicts against exhaustive family
    search on every face-closed selection, with a definition-level
    certificate recheck and the set-calculus suite on every good
    quotient; engine torus-maximal families against the brute-force
    filter (both variants coincide, see quotients.t_maximal_subsets);
    staged quotients against direct ones on sampled selections for every
    nested pair of corpus subtori; engine maximal-saturated subsets
    against the brute-force union on sampled pairs; the conclusion
    checker on every maximal set under the trivial symmetry group; and
    the removed-piece identity on sampled invariant pairs, under the
    trivial group and also under the central reflection where the fan
    allows it.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    if fans is None:
        fans = corpus_fans()
    selections = goods_total = actions_total = staged_pairs = 0
    saturation_checks = eq1_checks = 0
    legs = {leg: [] for leg in LEGS}

    for index, fan in enumerate(fans):
        opens = enumerate_open_subsets(fan, limit)
        acts = actions_for(fan)
        actions_total += len(acts)
        symmetric = _negation_symmetric(fan)
        negation = tuple(
            tuple(-1 if j == i else 0 for j in range(fan.rank))
            for i in range(fan.rank)
        )
        for act in acts:
            tag = _tag(index, fan, act)
            goods = []
            for sel in opens:
                selections += 1
                engine = good_quotient(sel, act)
                engine_good = not isinstance(engine, Obstruction)
                if engine_good != oracle_good_quotient(sel, act):
                    legs["verdict_disagreements"].append(
                        f"{tag} keys={_keys(sel)}: engine={engine_good}"
                    )
                    continue
                if not engine_good:
                    continue
                goods.append(sel)
                for problem in oracle_verify_quotient(engine, act, bound):
                    legs["certificate_failures"].append(
                        f"{tag} keys={_keys(sel)}: {problem}"
                    )
                for violation in remark_suite(engine, act):
                    legs["remark_violations"].append(
                        f"{tag} keys={_keys(sel)}: {violation}"
                    )
            goods_total += len(goods)

            tmax = t_maximal_subsets(fan, act, limit=limit)
            brute = {u.mask for u in brute_t_maximal(fan, act, limit)}
            if {u.mask for u in tmax} != brute:
                legs["tmax_mismatches"].append(f"{tag}: torus-maximal subsets disagree")

            data = GroupActionData(act, SymmetryGroup.trivial(fan))
            for u in tmax:
                report = verify_theorem_conclusions(u, data)
                if report.refused or not report.conclusions_hold():
                    legs["theorem_failures"].append(
                        f"{tag} keys={_keys(u)}: "
                        f"{report.diagnosis or 'conclusions fail'}"
                    )

            outers = []
            full = fan.full_selection()
            if any(g.mask == full.mask for g in goods):
                outers.append(full)
            outers.extend(rng.sample(goods, min(2, len(goods))))
            for outer in outers:
                inners = [
                    s for s in opens
                    if s <= outer and s.mask.bit_count() <= 9
                ]
                for inner in rng.sample(inners, min(SATURATION_SAMPLES, len(inners))):
                    saturation_checks += 1
                    want = max_saturated_inside(outer, inner, act).mask
                    got = brute_max_saturated_inside(outer, inner, act, limit).mask
                    if want != got:
                        legs["saturation_mismatches"].append(
                            f"{tag} outer={_keys(outer)} inner={_keys(inner)}"
                        )

            groups = [("", data)]
            if symmetric:
                sym = generate_symmetry_group(fan, [negation])
                groups.append(("reflected ", GroupActionData(act, sym)))
            for label, gdata in groups:
                invariant = [u for u in goods if is_invariant(gdata, u.mask)]
                for outer in rng.sample(invariant, min(2, len(invariant))):
                    inners = [
                        s for s in opens
                        if s <= outer and is_invariant(gdata, s.mask)
                    ]
                    for inner in rng.sample(inners, min(EQ1_SAMPLES, len(inners))):
                        eq1_checks += 1
                        report = eq1_crosscheck(outer, inner, gdata)
                        if not report.holds():
                            legs["eq1_failures"].append(
                                f"{tag} {label}"
                                f"outer={_keys(outer)} inner={_keys(inner)}: "
                                f"{report.diagnosis or 'sides differ'}"
                            )

        trivial, full_act = acts[0], acts[-1]
        lines = acts[1:-1]
        pairs = [(trivial, a) for a in acts]
        pairs += [(line, line) for line in lines]
        pairs += [(line, full_act) for line in lines]
        pairs += [(full_act, full_act)]
        for small, large in pairs:
            staged_pairs += 1
            tag = _tag(index, fan, large)
            for sel in rng.sample(opens, min(STAGED_SAMPLES, len(opens))):
                comparison = staged_quotient(sel, small, large)
                if not comparison.consistent:
                    legs["staged_inconsistencies"].append(
                        f"{tag} via L=[{','.join(str(b) for b in small.cochar.basis.entries)}] "
                        f"keys={_keys(sel)}: {comparison.detail}"
                    )

    return SweepResult(
        seed=seed,
        fans=len(fans),
        actions=actions_total,
        selections=selections,
        goods=goods_total,
        staged_pairs=staged_pairs,
        saturation_checks=saturation_checks,
        eq1_checks=eq1_checks,
        legs={leg: tuple(lines) for leg, lines in legs.items()},
        elapsed=time.perf_counter() - start,
    )
