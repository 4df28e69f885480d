"""Batch front door: file ingestion, command dispatch, deterministic reports.

Each command fills one `Report` (text lines, JSON body, exit code); a fact
both formats carry is added in one call with its line and its field.  The
text goes to stdout and, with --out PREFIX, to PREFIX.txt beside the JSON
document PREFIX.json; both carry a version header.  An existing report file
is rewritten in place and cut to length (`_rewrite`): truncating it on open
would free its blocks first, which costs more than writing the report, and
replacing it would break its links.  Exit codes: 0 when all checks pass,
1 when a mathematical verdict is negative, 2 on input errors, with the
offending line or field named in the report (a command line that argparse
rejects included), and 3 when the library fails an invariant check of its
own (a RuntimeError).  All sampling is seeded and reports are
byte-identical for identical input and flags.  The parser is built once per
process, on the first call of `main`.
"""

import argparse
import functools
import json
import math
import os
import sys

from .cones import BoundExceededError
from .corpus import run_sweep
from .cox import (
    PolynomialSection,
    canonical_section,
    cox_presentation,
    isotropy_at,
    lift_open,
    round_trip,
    verify_globally_defined,
)
from .fans import is_complete, is_simplicial, key_order
from .intlat import Sublattice
from .oracles import oracle_verify_quotient
from .problemfile import (
    MonomialSpec,
    ProblemFileError,
    load_problem,
    select,
)
from .quotients import (
    Obstruction,
    good_quotient,
    normalize_action,
    t_maximal_subsets,
)
from .symmetry import (
    GroupActionData,
    SymmetryGroup,
    eq1_crosscheck,
    verify_corollary,
    verify_theorem_conclusions,
    w_set,
)

TEXT_HEADER = "toricgit report v1"
JSON_FORMAT = "toricgit-report"
JSON_VERSION = 1
DEFAULT_SEED = 20260817

RESULT_WORDS = {0: "pass", 1: "negative", 2: "input error", 3: "internal error"}


class Report:
    """Text lines, JSON body and exit code of one command run."""

    def __init__(self, exit_code=0):
        self.lines = []
        self.body = {}
        self.exit_code = exit_code

    def add(self, *lines, **fields):
        """One fact: its text lines (None adds no line) and its JSON fields."""
        self.lines.extend(line for line in lines if line is not None)
        self.body.update(fields)

    def flag(self, label, **field):
        """A yes/no fact: `label: yes` or `label: no`, and one boolean field."""
        (value,) = field.values()
        self.add(f"{label}: {_yes(value)}", **field)

    def rows(self, field, rows):
        """A JSON list `field` from (text line, item) pairs, one per item."""
        rows = list(rows)
        self.lines.extend(line for line, _ in rows)
        self.body[field] = [item for _, item in rows]


def _yes(flag):
    return "yes" if flag else "no"


def _fmt_key(key):
    return "[" + ",".join(str(i) for i in sorted(key)) + "]"


def _fmt_keys(keys):
    return "{" + ",".join(_fmt_key(k) for k in sorted(keys, key=key_order)) + "}"


def _fmt_vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def _key_list(keys):
    return [sorted(k) for k in sorted(keys, key=key_order)]


def _add_fan(rep, fan, prefix, field):
    rays = ", ".join(_fmt_vec(r) for r in fan.rays)
    cones = ", ".join(_fmt_key(c) for c in fan.max_cones)
    rep.add(
        f"{prefix}fan: rank {fan.rank}, {len(fan.rays)} rays, "
        f"{len(fan.max_cones)} maximal cones",
        f"{prefix}rays: {rays or 'none'}",
        f"{prefix}maximal cones: {cones or 'none'}",
        **{field: {
            "rank": fan.rank,
            "rays": fan.rays,
            "max_cones": _key_list(fan.max_cones),
        }},
    )


def _action(rep, problem):
    act = normalize_action(problem.fan, problem.subtorus)
    if Sublattice.from_rows(act.fan.rank, problem.subtorus).basis != act.cochar.basis:
        rep.add(
            "note: subtorus generators spanned a non-saturated lattice; "
            "the saturation is used"
        )
    return act


def _group_data(rep, problem):
    """The subtorus action and the symmetry group acting together."""
    act = _action(rep, problem)
    return GroupActionData(act, SymmetryGroup(problem.fan, problem.symmetries))


def cmd_check(rep, problem, args):
    fan = problem.fan
    _add_fan(rep, fan, "", "fan")
    rep.flag("complete", complete=is_complete(fan))
    rep.flag("simplicial", simplicial=is_simplicial(fan))
    rep.add(f"subtorus generators: {len(problem.subtorus)}")
    rep.add(f"symmetry matrices: {len(problem.symmetries)}")
    selections = sorted(problem.selections)
    rep.add(f"named selections: {', '.join(selections) or 'none'}", selections=selections)
    families = sorted(problem.families)
    rep.add(f"named families: {', '.join(families) or 'none'}", families=families)


def cmd_quotient(rep, problem, args):
    act = _action(rep, problem)
    sel = select(problem, args.selection)
    rep.add(f"selection: {args.selection} = {_fmt_keys(sel.keys)}")
    rep.add(f"subtorus rank: {act.cochar.rank}")
    q = good_quotient(sel, act)
    if isinstance(q, Obstruction):
        rep.add(f"verdict: no good quotient ({q.kind})", verdict="obstructed", kind=q.kind)
        rep.add(f"reason: {q.detail}", detail=q.detail)
        rep.exit_code = 1
        return
    rep.add("verdict: good quotient exists", verdict="good")
    _add_fan(rep, q.fan, "target ", "target_fan")
    rep.rows("charts", [
        (f"chart: target cone {_fmt_key(img)} from source cone {_fmt_key(src)}",
         {"target": sorted(img), "source": sorted(src)})
        for img, src in sorted(q.chart_map.items(), key=lambda kv: key_order(kv[0]))
    ])
    rep.rows("orbit_map", [
        (f"orbit map: {_fmt_key(t)} -> {_fmt_key(q.orbit_map[t])}",
         {"source": sorted(t), "target": sorted(q.orbit_map[t])})
        for t in sorted(sel.keys, key=key_order)
    ])
    rep.flag("geometric", geometric=q.geometric)
    problems = oracle_verify_quotient(q, act, args.bound)
    rep.add(
        "certificate: " + ("FAILED" if problems else "clean (chart functions verified)"),
        *(f"  {p}" for p in problems),
        certificate_problems=problems,
    )
    rep.exit_code = 1 if problems else 0


def cmd_enumerate_maximal(rep, problem, args):
    act = _action(rep, problem)
    subsets = t_maximal_subsets(problem.fan, act, limit=args.max_subsets)
    rep.add(f"subtorus rank: {act.cochar.rank}")
    rep.add(f"variant: k={args.k}", k=args.k)
    rep.add(f"maximal subsets with good quotient: {len(subsets)}", count=len(subsets))
    ordered = sorted(
        (u.keys for u in subsets),
        key=lambda keys: (len(keys), sorted(sorted(k) for k in keys)),
    )
    rep.rows("subsets", [(f"  {_fmt_keys(keys)}", _key_list(keys)) for keys in ordered])


def _isotropy_text(free, torsion):
    if free:
        return f"infinite (free rank {free})"
    return f"finite of order {math.prod(torsion)}" if torsion else "trivial"


def cmd_cox(rep, problem, args):
    fan = problem.fan
    pres = cox_presentation(fan)
    torsion = ",".join(str(m) for m in pres.torsion_factors)
    rep.add(
        f"class group: free rank {pres.class_rank}"
        + (f", torsion factors ({torsion})" if pres.torsion_factors else ""),
        f"coordinates: {len(fan.rays)} (one per ray)",
        class_rank=pres.class_rank,
        torsion_factors=pres.torsion_factors,
    )
    weights = []
    for i, w in enumerate(pres.weights()):
        tor = tuple(row[i] % mod for mod, row in pres.torsion_rows)
        tortext = f" torsion {_fmt_vec(tor)}" if tor else ""
        weights.append((f"weight of coordinate {i}: {_fmt_vec(w)}{tortext}", w))
    rep.rows("weights", weights)
    faces = len(pres.coordinate_fan.cone_keys())
    rep.add(f"relevant selection: {faces} coordinate faces", relevant_faces=faces)
    isotropy = []
    for key in sorted(fan.max_cones, key=key_order):
        free, tors = isotropy_at(pres, key)
        isotropy.append((
            f"isotropy at chart {_fmt_key(key)}: {_isotropy_text(free, tors)}",
            {"chart": sorted(key), "free_rank": free, "torsion": tors},
        ))
    rep.rows("isotropy", isotropy)
    rt = round_trip(pres, fan.full_selection())
    rep.add(
        "round trip: " + ("reproduces the fan" if rt.ok else f"FAILED ({rt.detail})"),
        f"round trip geometric: {_yes(rt.geometric)}" if rt.ok else None,
        round_trip_ok=rt.ok,
        round_trip_detail=rt.detail,
    )
    rep.exit_code = 0 if rt.ok else 1
    if args.family is None:
        return
    if args.family not in problem.families:
        raise ProblemFileError(
            f"families.{args.family}",
            f"unknown family; available: {', '.join(sorted(problem.families)) or 'none'}",
        )
    sections = [
        canonical_section(pres, spec.exponents)
        if isinstance(spec, MonomialSpec)
        else PolynomialSection(spec.terms, declared_weight=spec.weight)
        for spec in problem.families[args.family]
    ]
    report = verify_globally_defined(
        pres,
        lift_open(pres, fan.full_selection()),
        sections,
        subtorus_generators=problem.subtorus,
        seed=args.seed,
    )
    family = Report()
    family.add(f"family: {args.family} ({len(sections)} sections)", name=args.family)
    family.rows("members", [
        (f"section {i}: "
         + ("homogeneous" if m.homogeneous else "NOT homogeneous") + ", "
         + ("affine locus" if m.affine else
            "affine undecided" if m.affine is None else "NON-affine locus") + ", "
         + ("contained" if m.contained else "NOT contained") + f" ({m.detail})",
         {"homogeneous": m.homogeneous, "affine": m.affine,
          "contained": m.contained, "detail": m.detail})
        for i, m in enumerate(report.members)
    ])
    if report.coverage:
        coverage = "every point pair shares a member's affine locus"
    else:
        a, b = report.coverage_witness
        coverage = f"FAILED, no common member for orbits {_fmt_key(a)} and {_fmt_key(b)}"
    family.add(f"coverage: {coverage}", coverage=report.coverage)
    family.add(
        "note: verdicts rely on seeded point sampling" if report.sampled else None,
        sampled=report.sampled,
    )
    family.flag("witness family", witness_family=report.witness_family)
    rep.add(*family.lines, family=family.body)
    if not report.witness_family:
        rep.exit_code = 1


def cmd_w_set(rep, problem, args):
    data = _group_data(rep, problem)
    sel = select(problem, args.selection)
    w = w_set(sel, data)
    rep.add(
        f"selection: {args.selection} = {_fmt_keys(sel.keys)}",
        selection=_key_list(sel.keys),
    )
    rep.add(f"symmetry group order: {len(data.sym)}", group_order=len(data.sym))
    rep.add(f"translate intersection: {_fmt_keys(w.keys)}", w_set=_key_list(w.keys))


def cmd_verify_theorem(rep, problem, args):
    data = _group_data(rep, problem)
    sel = select(problem, args.selection)
    rep.add(f"selection: {args.selection} = {_fmt_keys(sel.keys)}")
    rep.add(f"symmetry group order: {len(data.sym)}")
    report = verify_theorem_conclusions(sel, data)
    rep.exit_code = 0 if report.conclusions_hold() else 1
    if report.refused:
        rep.add(f"refused: {report.diagnosis}", refused=True, diagnosis=report.diagnosis)
        return
    rep.add(
        f"translate intersection W: {_fmt_keys(report.w_keys)}",
        refused=False,
        w_keys=report.w_keys,
    )
    rep.flag("W open in the selection", open_in_source=report.open_in_source)
    rep.add(
        "good quotient of W: "
        + ("exists" if report.quotient_exists else f"fails ({report.quotient_detail})"),
        quotient_exists=report.quotient_exists,
    )
    saturated = report.saturated_in_input
    rep.add(
        "saturation of W in the selection: "
        + ("not applicable" if saturated is None else _yes(saturated)),
        saturated_in_input=saturated,
    )
    if report.orbit_classes is not None:
        classes = "; ".join(
            "{" + ",".join(_fmt_key(k) for k in cls) + "}" for cls in report.orbit_classes
        )
        rep.add(f"composite orbit classes: {classes}")
    rep.add(f"caveat: {report.caveat}" if report.caveat else None, caveat=report.caveat)
    rep.flag("conclusions hold", conclusions_hold=report.conclusions_hold())


def cmd_verify_corollary(rep, problem, args):
    data = _group_data(rep, problem)
    report = verify_corollary(problem.fan, data, limit=args.max_subsets)
    rep.add(f"symmetry group order: {len(data.sym)}")
    rep.add(f"torus-maximal subsets checked: {len(report.maximal_reports)}")
    rep.rows("maximal", [
        (f"  maximal {_fmt_keys(keys)}: "
         + ("conclusions hold" if sub.conclusions_hold()
            else (sub.diagnosis or "conclusions fail")),
         {"keys": keys, "holds": sub.conclusions_hold()})
        for keys, sub in report.maximal_reports
    ])
    rep.add(f"invariant good subsets checked: {len(report.invariant_reports)}")
    rep.rows("invariant", [
        (f"  invariant {_fmt_keys(keys)}: "
         + f"inside W of {_fmt_keys(host)}, "
         + ("saturated" if saturated else "NOT saturated"),
         {"keys": keys, "host": host, "saturated": saturated})
        for keys, host, saturated in report.invariant_reports
    ])
    rep.flag("all statements verified", all_pass=report.all_pass)
    rep.exit_code = 0 if report.all_pass else 1


def cmd_eq1_check(rep, problem, args):
    data = _group_data(rep, problem)
    outer = select(problem, args.selection)
    inner = select(problem, args.inner)
    rep.add(
        f"outer selection: {args.selection} = {_fmt_keys(outer.keys)}",
        f"inner selection: {args.inner} = {_fmt_keys(inner.keys)}",
    )
    report = eq1_crosscheck(outer, inner, data)
    rep.exit_code = 0 if report.holds() else 1
    if not report.hypothesis_ok:
        rep.add(
            f"hypotheses fail: {report.diagnosis}",
            hypothesis_ok=False,
            diagnosis=report.diagnosis,
        )
        return
    rep.add(
        f"largest saturated subset inside inner: {_fmt_keys(report.u_keys)}",
        hypothesis_ok=True,
        u_keys=report.u_keys,
    )
    rep.add(f"left side: {_fmt_keys(report.left)}", left=report.left)
    rep.add(f"right side: {_fmt_keys(report.right)}", right=report.right)
    rep.flag("sides equal", equal=report.equal)
    if report.witness is not None:
        rep.add(f"first differing key: {_fmt_key(report.witness)}")


def cmd_oracle_sweep(rep, problem, args):
    result = run_sweep(seed=args.seed, limit=args.max_subsets, bound=args.bound)
    rep.add(
        f"corpus: {result.fans} fans, {result.actions} actions",
        fans=result.fans,
        actions=result.actions,
    )
    for label, field in (
        ("selections checked", "selections"),
        ("good quotients certified", "goods"),
        ("staged pairs", "staged_pairs"),
        ("saturation comparisons", "saturation_checks"),
        ("removed-piece identity checks", "eq1_checks"),
    ):
        rep.add(f"{label}: {getattr(result, field)}", **{field: getattr(result, field)})
    failures = result.failures()
    rep.add(failures=failures)
    for leg in sorted(failures):
        rep.add(
            f"{leg.replace('_', ' ')}: {len(failures[leg])}",
            *(f"  {entry}" for entry in failures[leg]),
        )
    rep.flag("sweep clean", clean=result.clean())
    rep.exit_code = 0 if result.clean() else 1


HANDLERS = {
    "check": cmd_check,
    "quotient": cmd_quotient,
    "enumerate-maximal": cmd_enumerate_maximal,
    "cox": cmd_cox,
    "w-set": cmd_w_set,
    "verify-theorem": cmd_verify_theorem,
    "verify-corollary": cmd_verify_corollary,
    "eq1-check": cmd_eq1_check,
    "oracle-sweep": cmd_oracle_sweep,
}


class _CommandLineError(ValueError):
    """A command line that argparse rejects, reported as an input error."""


class _Parser(argparse.ArgumentParser):
    # subparsers share this class, so every rejection reaches main's report
    def error(self, message):
        raise _CommandLineError(message)


@functools.cache
def build_parser():
    """The command-line parser, built on first use and shared by every call
    of `main` in the process."""
    parser = _Parser(
        prog="toricgit",
        description="Exact good quotients of subtorus actions on toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, file=True, bound=False, max_subsets=False):
        p = sub.add_parser(name, help=help)
        if file:
            p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if bound:
            p.add_argument("--bound", type=int, default=None,
                           help="Hilbert-basis box guard")
        if max_subsets:
            p.add_argument("--max-subsets", type=int, default=2 ** 20,
                           help="enumeration guard")
        p.add_argument("--out", default=None, metavar="PREFIX",
                       help="write PREFIX.txt and PREFIX.json")
        return p

    command("check", "fan validation, completeness, simpliciality")
    p = command("quotient", "good quotient of a named selection", bound=True)
    p.add_argument("--selection", default="all")
    p = command("enumerate-maximal", "torus-maximal good subsets", max_subsets=True)
    p.add_argument("--k", type=int, choices=(1, 2), default=1)
    p = command("cox", "quasitorus presentation and witnesses")
    p.add_argument("--family", default=None)
    p = command("w-set", "intersection of symmetry translates")
    p.add_argument("--selection", default="all")
    p = command("verify-theorem", "conclusion checker for one selection")
    p.add_argument("--selection", default="all")
    command("verify-corollary", "both corollary sweeps", max_subsets=True)
    p = command("eq1-check", "removed-piece identity crosscheck")
    p.add_argument("--selection", default="all", help="outer selection")
    p.add_argument("--inner", required=True)
    command("oracle-sweep", "brute-force corpus cross-check", file=False,
            bound=True, max_subsets=True)
    return parser


def _emit(head, rep, out):
    result = RESULT_WORDS[rep.exit_code]
    lines = [TEXT_HEADER, *(f"{name}: {value}" for name, value in head.items()), ""]
    text = "\n".join(lines + rep.lines + ["", f"result: {result}"]) + "\n"
    document = dict(head, report_format=JSON_FORMAT, report_version=JSON_VERSION)
    document.update(body=rep.body, result=result, exit_code=rep.exit_code)
    sys.stdout.write(text)
    if out:
        _rewrite(out + ".txt", text)
        _rewrite(out + ".json", json.dumps(document, indent=2, sort_keys=True) + "\n")
    return rep.exit_code


def _rewrite(path, text):
    """Write text to path in place: overwrite from the start, then cut the
    file to the new length.  An existing file keeps its inode, so hard
    links, symlinked prefixes and permissions survive; a new one is
    created with mode 0o666 less the umask, as `open(path, "w")` would.  An
    interrupted rewrite leaves the new text over the old tail, where an
    interrupted truncating write leaves a short file; either way the
    report has to be made again."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.truncate()


def _input_error(message):
    rep = Report(exit_code=2)
    rep.add(f"input error: {message}", error=message)
    return rep


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args, unknown = build_parser().parse_known_args(argv)
    except _CommandLineError as e:
        # --out was not read either, so the report goes to stdout only
        head = {"command": argv[0] if argv else "(none)", "input": "(unparsed)",
                "seed": DEFAULT_SEED}
        return _emit(head, _input_error(str(e)), None)
    source = getattr(args, "file", None) or "(builtin corpus)"
    # argparse reads the value of an unknown flag placed before the problem
    # file as the file, so the file names the input only if no unknown
    # argument precedes its last occurrence
    if unknown and "file" in args and (
        len(argv) - 1 - argv[::-1].index(args.file) > argv.index(unknown[0])
    ):
        source = "(unparsed)"
    head = {"command": args.command, "input": source, "seed": args.seed}
    out = args.out
    rep = Report()
    try:
        folder = os.path.dirname(out or "") or "."
        if not os.path.isdir(folder):
            out = None
            raise ValueError(f"--out {args.out}: directory {folder} does not exist")
        if out is not None and (not os.path.basename(out) or os.path.isdir(out)):
            out = None
            raise ValueError(f"--out {args.out}: names a directory, not a file prefix")
        taken = [p for p in (f"{out}.txt", f"{out}.json") if out and os.path.isdir(p)]
        if taken:
            out = None
            raise ValueError(f"--out {args.out}: {taken[0]} is a directory")
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        problem = load_problem(args.file) if "file" in args else None
        HANDLERS[args.command](rep, problem, args)
    except BoundExceededError as e:
        rep = _input_error(f"Hilbert-basis bound too small; the certified bound is {e.needed}")
    except ValueError as e:
        rep = _input_error(str(e))
    except RuntimeError as e:
        rep = Report(exit_code=3)
        rep.add(f"internal error: {e}", error=str(e))
    return _emit(head, rep, out)


if __name__ == "__main__":
    sys.exit(main())
