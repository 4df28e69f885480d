"""Recompute perfbench/reference.json, the expected outputs of the workloads.

    python3 perfbench/make_reference.py

Run from the repository root.  Off any timed path:
- sweep: the selection count of each fan, as open subsets times actions;
- enumerate: goods counts, t-maximal keys (`oracles.brute_t_maximal`) and a
  pool of (outer, inner) pairs with `oracles.brute_max_saturated_inside`,
  all on the untransformed inputs; the engine is checked against them;
- cli: exit code and report digest of every command for every pool seed.
The file is meant to be regenerated only when a report changes on purpose.
"""

import json
import os
import random
import sys
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import toricgit.cli  # noqa: E402,F401  (imports every toricgit module)
import workloads as wl  # noqa: E402
from toricgit import corpus, fans, oracles, quotients  # noqa: E402

PAIR_POOL = 16
POOL_SEED = 20260817


def sweep_reference():
    by_rays = {f.rays: f for f in corpus.corpus_fans()}
    out = {}
    for name, rays in wl.SWEEP_FANS.items():
        fan = by_rays[rays]
        out[name] = len(fans.enumerate_open_subsets(fan)) * len(corpus.actions_for(fan))
    return out


def enumerate_reference():
    rng = random.Random(POOL_SEED)
    out = {}
    for name, (rank, rays, cones, gens) in wl.ENUMERATE_CASES.items():
        fan = fans.Fan(rank, rays, cones)
        act = quotients.normalize_action(fan, gens)
        opens = fans.enumerate_open_subsets(fan)
        goods = [u for u in opens if oracles.oracle_good_quotient(u, act)]
        tmax = oracles.brute_t_maximal(fan, act)
        pairs = []
        for outer in rng.sample(goods, PAIR_POOL):
            inner = rng.choice([u for u in opens if u.keys <= outer.keys])
            expect = oracles.brute_max_saturated_inside(outer, inner, act)
            pairs.append({
                "outer": wl.canon_keys(outer.keys),
                "inner": wl.canon_keys(inner.keys),
                "expect": wl.canon_keys(expect.keys),
            })
        engine_act = quotients.normalize_action(fans.Fan(rank, rays, cones), gens)
        engine_goods = quotients.enumerate_good_subsets(engine_act.fan, engine_act)
        engine_tmax = quotients.t_maximal_subsets(engine_act.fan, engine_act)
        if len(engine_goods) != len(goods) or sorted(
            wl.canon_keys(u.keys) for u in engine_tmax
        ) != sorted(wl.canon_keys(u.keys) for u in tmax):
            raise SystemExit(f"{name}: engine disagrees with the oracles")
        out[name] = {
            "selections": len(opens),
            "goods": len(goods),
            "tmax": sorted(wl.canon_keys(u.keys) for u in tmax),
            "pairs": pairs,
        }
        print(f"{name}: {len(opens)} selections, {len(goods)} goods, "
              f"{len(tmax)} t-maximal", flush=True)
    return out


def cli_reference(work_dir):
    tk = SimpleNamespace(cli=toricgit.cli)
    wl.Cli(os.path.join(ROOT, "inputs"), work_dir).build(tk, 0, {"cli": {}}, True)
    out = {}
    previous = os.getcwd()
    os.chdir(work_dir)
    try:
        for label, argv in wl.CLI_COMMANDS.items():
            out[label] = {}
            for seed in wl.CLI_SEEDS:
                prefix = os.path.join("out", label)
                code, text, _, _ = wl.run_command(tk, argv, seed, prefix)
                with open(prefix + ".json", "rb") as handle:
                    digest = wl.report_digest(text, handle.read())
                out[label][str(seed)] = {"exit": code, "sha256": digest}
    finally:
        os.chdir(previous)
    return out


def main():
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench", "make-reference")
    reference = {
        "sweep": sweep_reference(),
        "enumerate": enumerate_reference(),
        "cli": cli_reference(work_dir),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
