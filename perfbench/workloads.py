"""Seeded inputs and timed passes of the three benchmark workloads.

A workload builds its inputs once from the seed (`build`, timed as set-up)
and then runs passes over them (`run_pass`), each a fixed list of
closed-loop calls into toricgit on fresh library objects, so every pass
does the same work from cold memos.  The library only ever sees the
generated inputs; the seed stays with the benchmark.

Expected outputs come from `reference.json`, which `make_reference.py`
computes once from the oracle layer (enumerate) or the reports of the
code the benchmark was written against (cli).
"""

import contextlib
import hashlib
import io
import os
import random
import shutil
import time
from dataclasses import dataclass, field


def canon_keys(keys):
    """A selection's cone keys as a sorted list of sorted index lists."""
    return sorted(sorted(k) for k in keys)


@dataclass
class PassResult:
    """One pass: per-call latencies, work done, and failures found."""

    calls: list = field(default_factory=list)  # (label, start, seconds)
    ops: int = 0  # selections decided (sweep, enumerate) or commands answered (cli)
    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


# ---------------------------------------------------------------- sweep

# The 6-ray fan is the corpus's costliest member; P1 x P1 (negation
# symmetric, so the reflected legs run), the weighted plane P(1,1,2) and the
# line cover the other shapes of the corpus.  Their costs are far apart, so
# the per-pass latency percentiles always land on the same fan.
SWEEP_FANS = {
    "six_rays": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    "p1xp1": ((1, 0), (0, 1), (-1, 0), (0, -1)),
    "p112": ((1, 0), (0, 1), (-1, -2)),
    "p1": ((1,), (-1,)),
}
SWEEP_TINY = ("p112", "p1")


class Sweep:
    """`corpus.run_sweep(seed)`, one call per corpus fan, oracles included."""

    name = "sweep"

    def build(self, tk, seed, reference, tiny):
        by_rays = {f.rays: f for f in tk.corpus.corpus_fans()}
        names = list(SWEEP_TINY if tiny else SWEEP_FANS)
        random.Random(seed).shuffle(names)
        specs = []
        for name in names:
            fan = by_rays[SWEEP_FANS[name]]
            specs.append((name, (fan.rank, fan.rays, fan.max_cones)))
        return {"seed": seed, "specs": specs, "expect": reference["sweep"]}

    def run_pass(self, tk, inputs):
        out = PassResult()
        for name, spec in inputs["specs"]:
            fan = tk.fans.Fan(*spec)
            start = time.perf_counter()
            try:
                result = tk.corpus.run_sweep(seed=inputs["seed"], fans=[fan])
            except Exception as e:  # a crash is a failed operation, not an abort
                out.check(False, f"sweep {name}: {e!r}")
                continue
            out.calls.append((name, start, time.perf_counter() - start))
            out.ops += result.selections
            out.check(result.clean(), f"sweep {name}: legs failed {result.failures()}")
            out.check(
                result.selections == inputs["expect"][name],
                f"sweep {name}: {result.selections} selections",
            )
        return out


# ------------------------------------------------------------ enumerate

def _projective_space(n):
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append((-1,) * n)
    return rays, [[j for j in range(n + 1) if j != i] for i in range(n + 1)]


def _cube_facets(signs):
    """Subfan of the fan over the faces of [-1, 1]^3: the cones over the
    facets x_axis = sign, non-simplicial with four rays each."""
    corners = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    used = [r for r in corners if any(r[axis] == s for axis, s in signs)]
    cones = [[i for i, r in enumerate(used) if r[axis] == s] for axis, s in signs]
    return used, cones


def _enumerate_cases():
    p3_rays, p3_cones = _projective_space(3)
    p4_rays, p4_cones = _projective_space(4)
    nine = [(1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1)]
    cube_rays, cube_cones = _cube_facets([(0, 1), (1, 1)])
    return {
        "p3_123": (3, p3_rays, p3_cones, [(1, 2, 3)]),
        "p3_1m10": (3, p3_rays, p3_cones, [(1, -1, 0)]),
        "nine_ray_surface_12": (2, nine, [[i, (i + 1) % 9] for i in range(9)], [(1, 2)]),
        "cube_two_facets_123": (3, cube_rays, cube_cones, [(1, 2, 3)]),
        "p4_three_cones_rank2": (4, p4_rays, p4_cones[:3], [(1, 0, 0, 1), (0, 1, 1, 0)]),
    }


ENUMERATE_CASES = _enumerate_cases()
ENUMERATE_TINY = ("p3_1m10",)
PAIRS_PER_CASE = 6


def _signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return lambda v: tuple(signs[i] * v[perm[i]] for i in range(n))


class Enumerate:
    """Engine only on fans outside the corpus: rank 3 and 4, non-simplicial.

    The seed moves each fan and its subtorus by one signed permutation of
    the coordinates and relabels the rays.  That is a lattice automorphism,
    so the stored counts and keys carry over through the relabelling while
    the library sees new inputs.
    """

    name = "enumerate"

    def build(self, tk, seed, reference, tiny):
        rng = random.Random(seed)
        cases = []
        for name in ENUMERATE_TINY if tiny else ENUMERATE_CASES:
            rank, rays, cones, gens = ENUMERATE_CASES[name]
            move = _signed_permutation(rng, rank)
            order = list(range(len(rays)))
            rng.shuffle(order)  # ray i becomes ray order[i]
            new_rays = [None] * len(rays)
            for i, r in enumerate(rays):
                new_rays[order[i]] = move(r)

            def relabel(keys, order=order):
                return canon_keys([order[i] for i in k] for k in keys)

            spec = (rank, new_rays, [[order[i] for i in c] for c in cones])
            check = tk.fans.validate_fan(tk.fans.Fan(*spec))
            if not check.valid:
                raise ValueError(f"enumerate input {name} is not a fan: {check.problems}")
            ref = reference["enumerate"][name]
            pairs = [
                (relabel(p["outer"]), relabel(p["inner"]), relabel(p["expect"]))
                for p in rng.sample(ref["pairs"], PAIRS_PER_CASE)
            ]
            cases.append({
                "name": name,
                "spec": spec,
                "gens": [move(g) for g in gens],
                "selections": ref["selections"],
                "goods": ref["goods"],
                "tmax": sorted(relabel(u) for u in ref["tmax"]),
                "pairs": pairs,
            })
        return cases

    def run_pass(self, tk, inputs):
        out = PassResult()
        for case in inputs:
            name = case["name"]
            start = time.perf_counter()
            try:
                fan = tk.fans.Fan(*case["spec"])
                act = tk.quotients.normalize_action(fan, case["gens"])
                goods = tk.quotients.enumerate_good_subsets(fan, act)
                tmax = tk.quotients.t_maximal_subsets(fan, act)
                saturated = [
                    tk.quotients.max_saturated_inside(
                        tk.fans.SubfanSelection(fan, outer),
                        tk.fans.SubfanSelection(fan, inner),
                        act,
                    )
                    for outer, inner, _ in case["pairs"]
                ]
            except Exception as e:  # a crash is a failed operation, not an abort
                out.check(False, f"{name}: {e!r}")
                continue
            out.calls.append((name, start, time.perf_counter() - start))
            out.ops += case["selections"]
            out.check(len(goods) == case["goods"], f"{name}: {len(goods)} goods")
            out.check(
                sorted(canon_keys(u.keys) for u in tmax) == case["tmax"],
                f"{name}: t-maximal keys differ",
            )
            for (outer, inner, expect), got in zip(case["pairs"], saturated):
                out.check(
                    canon_keys(got.keys) == expect,
                    f"{name}: max_saturated_inside({outer}, {inner})",
                )
        return out


# ------------------------------------------------------------------ cli

# The command suite of acceptance criterion 11 without oracle-sweep, plus
# enumerate-maximal on p2 and p112 and check on p112.
CLI_COMMANDS = {
    "check-p2": ["check", "p2.json"],
    "quotient-diag": ["quotient", "c2_diagonal.json", "--selection", "punctured"],
    "quotient-p1": ["quotient", "p1.json", "--selection", "all"],
    "enumerate-p1": ["enumerate-maximal", "p1.json"],
    "cox-p2": ["cox", "p2.json", "--family", "witnesses"],
    "cox-p112": ["cox", "p112.json", "--family", "witnesses"],
    "w-set-p1": ["w-set", "p1.json", "--selection", "chart"],
    "theorem-p1": ["verify-theorem", "p1.json", "--selection", "chart"],
    "corollary-p2": ["verify-corollary", "p2.json"],
    "eq1-diag": ["eq1-check", "c2_diagonal.json", "--selection", "all",
                 "--inner", "punctured"],
    "enumerate-p2": ["enumerate-maximal", "p2.json"],
    "enumerate-p112": ["enumerate-maximal", "p112.json"],
    "check-p112": ["check", "p112.json"],
}
CLI_PROBLEMS = ("c2_diagonal.json", "p1.json", "p112.json", "p2.json")
# --seed values with stored report digests; the benchmark seed draws from them
CLI_SEEDS = (20260817, 1, 7, 42, 101, 977, 2024, 31337,
             4242, 65537, 123457, 271828, 314159, 577215, 999331, 1618033)
CLI_ROUNDS = 12
CLI_TINY_ROUNDS = 1


def report_digest(text, json_bytes):
    """Digest of one command's stdout report and its --out JSON file."""
    h = hashlib.sha256(text.encode("utf-8"))
    h.update(b"\0")
    h.update(json_bytes)
    return h.hexdigest()


def run_command(tk, argv, seed, out_prefix):
    """One in-process `toricgit` call; returns (exit code, stdout, start,
    seconds)."""
    buf = io.StringIO()
    argv = list(argv) + ["--seed", str(seed), "--out", out_prefix]
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = tk.cli.main(argv)
    return code, buf.getvalue(), start, time.perf_counter() - start


class Cli:
    """`toricgit.cli.main` in-process; every call re-parses its problem file
    and rebuilds fan and action, so every memo starts cold."""

    name = "cli"

    def __init__(self, inputs_dir, work_dir):
        self.inputs_dir = inputs_dir
        self.work_dir = work_dir

    def build(self, tk, seed, reference, tiny):
        # problem files are addressed relative to the work directory, so the
        # reports name them the same way in every checkout
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(os.path.join(self.work_dir, "out"))
        for name in CLI_PROBLEMS:
            shutil.copyfile(os.path.join(self.inputs_dir, name),
                            os.path.join(self.work_dir, name))
        rng = random.Random(seed)
        schedule = []
        for _ in range(CLI_TINY_ROUNDS if tiny else CLI_ROUNDS):
            labels = list(CLI_COMMANDS)
            rng.shuffle(labels)
            schedule.extend((label, rng.choice(CLI_SEEDS)) for label in labels)
        return {"schedule": schedule, "expect": reference["cli"]}

    def run_pass(self, tk, inputs):
        out = PassResult()
        previous = os.getcwd()
        os.chdir(self.work_dir)
        try:
            for label, seed in inputs["schedule"]:
                prefix = os.path.join("out", label)
                try:
                    code, text, start, seconds = run_command(
                        tk, CLI_COMMANDS[label], seed, prefix)
                    with open(prefix + ".json", "rb") as handle:
                        digest = report_digest(text, handle.read())
                except Exception as e:  # a crash is a failed command, not an abort
                    out.check(False, f"{label} --seed {seed}: {e!r}")
                    continue
                out.calls.append((label, start, seconds))
                out.ops += 1
                expect = inputs["expect"][label][str(seed)]
                out.check(
                    code == expect["exit"] and digest == expect["sha256"],
                    f"{label} --seed {seed}: exit {code}, digest {digest[:12]}",
                )
        finally:
            os.chdir(previous)
        return out
