"""Batch front door: file ingestion, command dispatch, deterministic reports.

Every run prints one human-readable text report to stdout and, with
--out PREFIX, also writes PREFIX.txt and PREFIX.json (the structured
document).  Both formats carry a version header.  Exit codes: 0 when all
checks pass, 1 when a mathematical verdict is negative, 2 on input
errors, with the offending line or field named in the report.  All
sampling is seeded and reports are byte-identical for identical input
and flags.
"""

import argparse
import json
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
from .fans import is_complete, is_simplicial
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
    generate_symmetry_group,
    verify_corollary,
    verify_theorem_conclusions,
    w_set,
)

TEXT_HEADER = "toricgit report v1"
JSON_FORMAT = "toricgit-report"
JSON_VERSION = 1
DEFAULT_SEED = 20260817

RESULT_WORDS = {0: "pass", 1: "negative", 2: "input error"}


def _fmt_key(key):
    return "[" + ",".join(str(i) for i in sorted(key)) + "]"


def _fmt_keys(keys):
    ordered = sorted(keys, key=lambda k: (len(k), sorted(k)))
    return "{" + ",".join(_fmt_key(k) for k in ordered) + "}"


def _fmt_vec(v):
    return "(" + ",".join(str(x) for x in v) + ")"


def _key_list(keys):
    return [sorted(k) for k in sorted(keys, key=lambda k: (len(k), sorted(k)))]


def _fan_lines(fan):
    rays = ", ".join(_fmt_vec(r) for r in fan.rays)
    cones = ", ".join(_fmt_key(c) for c in fan.max_cones)
    return [
        f"fan: rank {fan.rank}, {len(fan.rays)} rays, "
        f"{len(fan.max_cones)} maximal cones",
        f"rays: {rays}" if fan.rays else "rays: none",
        f"maximal cones: {cones}" if fan.max_cones else "maximal cones: none",
    ]


def _fan_payload(fan):
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": _key_list(fan.max_cones),
    }


def _action_for(problem):
    act = normalize_action(problem.fan, problem.subtorus)
    notes = []
    if not act.input_saturated:
        notes.append(
            "note: subtorus generators spanned a non-saturated lattice; "
            "the saturation is used"
        )
    return act, notes


def _sym_for(problem):
    if problem.symmetries:
        return generate_symmetry_group(problem.fan, problem.symmetries)
    return SymmetryGroup.trivial(problem.fan)


def cmd_check(problem, args):
    fan = problem.fan
    complete = is_complete(fan)
    simplicial = is_simplicial(fan)
    lines = _fan_lines(fan)
    lines.append(f"complete: {'yes' if complete else 'no'}")
    lines.append(f"simplicial: {'yes' if simplicial else 'no'}")
    lines.append(f"subtorus generators: {len(problem.subtorus)}")
    lines.append(f"symmetry matrices: {len(problem.symmetries)}")
    lines.append(f"named selections: {', '.join(sorted(problem.selections)) or 'none'}")
    lines.append(f"named families: {', '.join(sorted(problem.families)) or 'none'}")
    payload = {
        "fan": _fan_payload(fan),
        "complete": complete,
        "simplicial": simplicial,
        "selections": sorted(problem.selections),
        "families": sorted(problem.families),
    }
    return lines, payload, 0


def cmd_quotient(problem, args):
    act, lines = _action_for(problem)
    sel = select(problem, args.selection)
    lines.append(f"selection: {args.selection} = {_fmt_keys(sel.keys)}")
    lines.append(f"subtorus rank: {act.cochar.rank}")
    q = good_quotient(sel, act)
    if isinstance(q, Obstruction):
        lines.append(f"verdict: no good quotient ({q.kind})")
        lines.append(f"reason: {q.detail}")
        payload = {
            "verdict": "obstructed",
            "kind": q.kind,
            "detail": q.detail,
        }
        return lines, payload, 1
    lines.append("verdict: good quotient exists")
    lines.extend("target " + text for text in _fan_lines(q.fan))
    for img_key in sorted(q.chart_map, key=lambda k: (len(k), sorted(k))):
        lines.append(
            f"chart: target cone {_fmt_key(img_key)} from source cone "
            f"{_fmt_key(q.chart_map[img_key])}"
        )
    for t in sorted(sel.keys, key=lambda k: (len(k), sorted(k))):
        lines.append(f"orbit map: {_fmt_key(t)} -> {_fmt_key(q.orbit_map[t])}")
    lines.append(f"geometric: {'yes' if q.geometric else 'no'}")
    problems = oracle_verify_quotient(q, args.bound)
    if problems:
        lines.append("certificate: FAILED")
        lines.extend(f"  {p}" for p in problems)
    else:
        lines.append("certificate: clean (chart functions verified)")
    payload = {
        "verdict": "good",
        "target_fan": _fan_payload(q.fan),
        "charts": [
            {"target": sorted(k), "source": sorted(v)}
            for k, v in sorted(
                q.chart_map.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
        ],
        "orbit_map": [
            {"source": sorted(t), "target": sorted(q.orbit_map[t])}
            for t in sorted(sel.keys, key=lambda k: (len(k), sorted(k)))
        ],
        "geometric": q.geometric,
        "certificate_problems": list(problems),
    }
    return lines, payload, 1 if problems else 0


def cmd_enumerate_maximal(problem, args):
    act, lines = _action_for(problem)
    subsets = t_maximal_subsets(problem.fan, act, k=args.k, limit=args.max_subsets)
    lines.append(f"subtorus rank: {act.cochar.rank}")
    lines.append(f"variant: k={args.k}")
    lines.append(f"maximal subsets with good quotient: {len(subsets)}")
    ordered = sorted(
        (u.keys for u in subsets),
        key=lambda keys: (len(keys), sorted(sorted(k) for k in keys)),
    )
    for keys in ordered:
        lines.append(f"  {_fmt_keys(keys)}")
    payload = {
        "k": args.k,
        "count": len(subsets),
        "subsets": [_key_list(keys) for keys in ordered],
    }
    return lines, payload, 0


def cmd_cox(problem, args):
    fan = problem.fan
    pres = cox_presentation(fan)
    torsion = ",".join(str(m) for m in pres.torsion_factors)
    lines = [
        f"class group: free rank {pres.class_rank}"
        + (f", torsion factors ({torsion})" if pres.torsion_factors else ""),
        f"coordinates: {len(fan.rays)} (one per ray)",
    ]
    for i, w in enumerate(pres.weights()):
        tor = tuple(row[i] % mod for mod, row in pres.torsion_rows)
        tortext = f" torsion {_fmt_vec(tor)}" if tor else ""
        lines.append(f"weight of coordinate {i}: {_fmt_vec(w)}{tortext}")
    lines.append(f"relevant selection: {len(pres.relevant.keys)} coordinate faces")
    iso_payload = []
    for key in sorted(fan.max_cones, key=lambda k: (len(k), sorted(k))):
        free, tors = isotropy_at(pres, frozenset(key))
        if free == 0 and not tors:
            desc = "trivial"
        elif free == 0:
            order = 1
            for m in tors:
                order *= m
            desc = f"finite of order {order}"
        else:
            desc = f"infinite (free rank {free})"
        lines.append(f"isotropy at chart {_fmt_key(key)}: {desc}")
        iso_payload.append(
            {"chart": sorted(key), "free_rank": free, "torsion": list(tors)}
        )
    rt = round_trip(pres, fan.full_selection())
    lines.append(
        "round trip: "
        + ("reproduces the fan" if rt.ok else f"FAILED ({rt.detail})")
    )
    if rt.ok:
        lines.append(f"round trip geometric: {'yes' if rt.geometric else 'no'}")
    exit_code = 0 if rt.ok else 1
    payload = {
        "class_rank": pres.class_rank,
        "torsion_factors": list(pres.torsion_factors),
        "weights": [list(w) for w in pres.weights()],
        "relevant_faces": len(pres.relevant.keys),
        "isotropy": iso_payload,
        "round_trip_ok": rt.ok,
        "round_trip_detail": rt.detail,
    }

    if args.family is not None:
        if args.family not in problem.families:
            raise ProblemFileError(
                f"families.{args.family}",
                f"unknown family; available: {', '.join(sorted(problem.families)) or 'none'}",
            )
        sections = []
        for spec in problem.families[args.family]:
            if isinstance(spec, MonomialSpec):
                sections.append(canonical_section(pres, spec.exponents))
            else:
                sections.append(
                    PolynomialSection(spec.terms, declared_weight=spec.weight)
                )
        lifted = lift_open(pres, fan.full_selection())
        report = verify_globally_defined(
            pres,
            lifted,
            sections,
            subtorus_generators=problem.subtorus,
            seed=args.seed,
        )
        lines.append(f"family: {args.family} ({len(sections)} sections)")
        members_payload = []
        for i, member in enumerate(report.members):
            parts = [
                "homogeneous" if member.homogeneous else "NOT homogeneous",
                "affine locus"
                if member.affine
                else ("affine undecided" if member.affine is None else "NON-affine locus"),
                "contained" if member.contained else "NOT contained",
            ]
            lines.append(f"section {i}: " + ", ".join(parts) + f" ({member.detail})")
            members_payload.append(
                {
                    "homogeneous": member.homogeneous,
                    "affine": member.affine,
                    "contained": member.contained,
                    "detail": member.detail,
                }
            )
        if report.coverage:
            lines.append("coverage: every point pair shares a member's affine locus")
        else:
            a, b = report.coverage_witness
            lines.append(
                "coverage: FAILED, no common member for orbits "
                f"{_fmt_key(a)} and {_fmt_key(b)}"
            )
        if report.sampled:
            lines.append("note: verdicts rely on seeded point sampling")
        lines.append(
            "witness family: " + ("yes" if report.witness_family else "no")
        )
        payload["family"] = {
            "name": args.family,
            "members": members_payload,
            "coverage": report.coverage,
            "sampled": report.sampled,
            "witness_family": report.witness_family,
        }
        if not report.witness_family:
            exit_code = 1
    return lines, payload, exit_code


def cmd_w_set(problem, args):
    act, lines = _action_for(problem)
    sym = _sym_for(problem)
    data = GroupActionData(act, sym)
    sel = select(problem, args.selection)
    w = w_set(sel, data)
    lines.append(f"selection: {args.selection} = {_fmt_keys(sel.keys)}")
    lines.append(f"symmetry group order: {len(sym)}")
    lines.append(f"translate intersection: {_fmt_keys(w.keys)}")
    payload = {
        "selection": _key_list(sel.keys),
        "group_order": len(sym),
        "w_set": _key_list(w.keys),
    }
    return lines, payload, 0


def cmd_verify_theorem(problem, args):
    act, lines = _action_for(problem)
    sym = _sym_for(problem)
    data = GroupActionData(act, sym)
    sel = select(problem, args.selection)
    lines.append(f"selection: {args.selection} = {_fmt_keys(sel.keys)}")
    lines.append(f"symmetry group order: {len(sym)}")
    report = verify_theorem_conclusions(sel, data, limit=args.max_subsets)
    if report.refused:
        lines.append(f"refused: {report.diagnosis}")
        payload = {"refused": True, "diagnosis": report.diagnosis}
        return lines, payload, 1
    lines.append(f"translate intersection W: {_fmt_keys(report.w_keys)}")
    lines.append(f"W open in the selection: {'yes' if report.open_in_source else 'no'}")
    lines.append(
        "good quotient of W: "
        + ("exists" if report.quotient_exists else f"fails ({report.quotient_detail})")
    )
    if report.saturated_in_input is None:
        lines.append("saturation of W in the selection: not applicable")
    else:
        lines.append(
            "saturation of W in the selection: "
            + ("yes" if report.saturated_in_input else "no")
        )
    if report.orbit_classes is not None:
        classes = "; ".join(
            "{" + ",".join("[" + ",".join(map(str, k)) + "]" for k in cls) + "}"
            for cls in report.orbit_classes
        )
        lines.append(f"composite orbit classes: {classes}")
    if report.caveat:
        lines.append(f"caveat: {report.caveat}")
    holds = report.conclusions_hold()
    lines.append(f"conclusions hold: {'yes' if holds else 'no'}")
    payload = {
        "refused": False,
        "w_keys": [list(k) for k in report.w_keys],
        "open_in_source": report.open_in_source,
        "quotient_exists": report.quotient_exists,
        "saturated_in_input": report.saturated_in_input,
        "caveat": report.caveat,
        "conclusions_hold": holds,
    }
    return lines, payload, 0 if holds else 1


def cmd_verify_corollary(problem, args):
    act, lines = _action_for(problem)
    sym = _sym_for(problem)
    data = GroupActionData(act, sym)
    report = verify_corollary(problem.fan, data, limit=args.max_subsets)
    lines.append(f"symmetry group order: {len(sym)}")
    lines.append(f"torus-maximal subsets checked: {len(report.maximal_reports)}")
    maximal_payload = []
    for keys, sub in report.maximal_reports:
        holds = sub.conclusions_hold()
        lines.append(
            f"  maximal {_fmt_keys(map(frozenset, keys))}: "
            + ("conclusions hold" if holds else (sub.diagnosis or "conclusions fail"))
        )
        maximal_payload.append({"keys": [list(k) for k in keys], "holds": holds})
    lines.append(f"invariant good subsets checked: {len(report.invariant_reports)}")
    invariant_payload = []
    for v_keys, host, saturated in report.invariant_reports:
        host_text = (
            f"inside W of {_fmt_keys(map(frozenset, host))}" if host else "no host"
        )
        lines.append(
            f"  invariant {_fmt_keys(map(frozenset, v_keys))}: {host_text}, "
            + ("saturated" if saturated else "NOT saturated")
        )
        invariant_payload.append(
            {
                "keys": [list(k) for k in v_keys],
                "host": [list(k) for k in host] if host else None,
                "saturated": saturated,
            }
        )
    lines.append(f"all statements verified: {'yes' if report.all_pass else 'no'}")
    payload = {
        "maximal": maximal_payload,
        "invariant": invariant_payload,
        "all_pass": report.all_pass,
    }
    return lines, payload, 0 if report.all_pass else 1


def cmd_eq1_check(problem, args):
    act, lines = _action_for(problem)
    sym = _sym_for(problem)
    data = GroupActionData(act, sym)
    outer = select(problem, args.selection)
    inner = select(problem, args.inner)
    lines.append(f"outer selection: {args.selection} = {_fmt_keys(outer.keys)}")
    lines.append(f"inner selection: {args.inner} = {_fmt_keys(inner.keys)}")
    report = eq1_crosscheck(outer, inner, data)
    if not report.hypothesis_ok:
        lines.append(f"hypotheses fail: {report.diagnosis}")
        payload = {"hypothesis_ok": False, "diagnosis": report.diagnosis}
        return lines, payload, 1
    lines.append(
        f"largest saturated subset inside inner: {_fmt_keys(map(frozenset, report.u_keys))}"
    )
    lines.append(f"left side: {_fmt_keys(map(frozenset, report.left))}")
    lines.append(f"right side: {_fmt_keys(map(frozenset, report.right))}")
    lines.append(f"sides equal: {'yes' if report.equal else 'no'}")
    if report.witness is not None:
        lines.append(f"first differing key: {_fmt_key(report.witness)}")
    payload = {
        "hypothesis_ok": True,
        "u_keys": [list(k) for k in report.u_keys],
        "left": [list(k) for k in report.left],
        "right": [list(k) for k in report.right],
        "equal": report.equal,
    }
    return lines, payload, 0 if report.holds() else 1


def cmd_oracle_sweep(args):
    result = run_sweep(seed=args.seed, limit=args.max_subsets, bound=args.bound)
    lines = [
        f"corpus: {result.fans} fans, {result.actions} actions",
        f"selections checked: {result.selections}",
        f"good quotients certified: {result.goods}",
        f"staged pairs: {result.staged_pairs}",
        f"saturation comparisons: {result.saturation_checks}",
        f"removed-piece identity checks: {result.eq1_checks}",
    ]
    failures = result.failures()
    for leg in sorted(failures):
        entries = failures[leg]
        lines.append(f"{leg.replace('_', ' ')}: {len(entries)}")
        lines.extend(f"  {entry}" for entry in entries)
    lines.append(f"sweep clean: {'yes' if result.clean() else 'no'}")
    payload = {
        "fans": result.fans,
        "actions": result.actions,
        "selections": result.selections,
        "goods": result.goods,
        "staged_pairs": result.staged_pairs,
        "saturation_checks": result.saturation_checks,
        "eq1_checks": result.eq1_checks,
        "failures": {leg: list(entries) for leg, entries in failures.items()},
        "clean": result.clean(),
    }
    return lines, payload, 0 if result.clean() else 1


HANDLERS = {
    "check": cmd_check,
    "quotient": cmd_quotient,
    "enumerate-maximal": cmd_enumerate_maximal,
    "cox": cmd_cox,
    "w-set": cmd_w_set,
    "verify-theorem": cmd_verify_theorem,
    "verify-corollary": cmd_verify_corollary,
    "eq1-check": cmd_eq1_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toricgit",
        description="Exact good quotients of subtorus actions on toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--bound", type=int, default=None,
                       help="Hilbert-basis box guard")
        p.add_argument("--max-subsets", type=int, default=2 ** 20,
                       help="enumeration guard")
        p.add_argument("--out", default=None, metavar="PREFIX",
                       help="write PREFIX.txt and PREFIX.json")

    p = sub.add_parser("check", help="fan validation, completeness, simpliciality")
    common(p)
    p = sub.add_parser("quotient", help="good quotient of a named selection")
    common(p)
    p.add_argument("--selection", default="all")
    p = sub.add_parser("enumerate-maximal", help="torus-maximal good subsets")
    common(p)
    p.add_argument("--k", type=int, choices=(1, 2), default=1)
    p = sub.add_parser("cox", help="quasitorus presentation and witnesses")
    common(p)
    p.add_argument("--family", default=None)
    p = sub.add_parser("w-set", help="intersection of symmetry translates")
    common(p)
    p.add_argument("--selection", default="all")
    p = sub.add_parser("verify-theorem", help="conclusion checker for one selection")
    common(p)
    p.add_argument("--selection", default="all")
    p = sub.add_parser("verify-corollary", help="both corollary sweeps")
    common(p)
    p = sub.add_parser("eq1-check", help="removed-piece identity crosscheck")
    common(p)
    p.add_argument("--selection", default="all", help="outer selection")
    p.add_argument("--inner", required=True)
    p = sub.add_parser("oracle-sweep", help="brute-force corpus cross-check")
    common(p, with_file=False)
    return parser


def _emit(args, command, input_name, lines, payload, exit_code):
    text_lines = [
        TEXT_HEADER,
        f"command: {command}",
        f"input: {input_name}",
        f"seed: {args.seed}",
        "",
    ]
    text_lines.extend(lines)
    text_lines.append("")
    text_lines.append(f"result: {RESULT_WORDS[exit_code]}")
    text = "\n".join(text_lines) + "\n"
    document = {
        "report_format": JSON_FORMAT,
        "report_version": JSON_VERSION,
        "command": command,
        "input": input_name,
        "seed": args.seed,
        "body": payload,
        "result": RESULT_WORDS[exit_code],
        "exit_code": exit_code,
    }
    sys.stdout.write(text)
    if args.out:
        with open(args.out + ".txt", "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(args.out + ".json", "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return exit_code


def main(argv=None):
    args = build_parser().parse_args(argv)
    command = args.command
    input_name = getattr(args, "file", None) or "(builtin corpus)"
    try:
        if command == "oracle-sweep":
            lines, payload, code = cmd_oracle_sweep(args)
        else:
            problem = load_problem(args.file)
            lines, payload, code = HANDLERS[command](problem, args)
    except BoundExceededError as e:
        message = f"Hilbert-basis bound too small; the certified bound is {e.needed}"
        lines = [f"input error: {message}"]
        return _emit(args, command, input_name, lines, {"error": message}, 2)
    except ValueError as e:
        lines = [f"input error: {e}"]
        return _emit(args, command, input_name, lines, {"error": str(e)}, 2)
    return _emit(args, command, input_name, lines, payload, code)


if __name__ == "__main__":
    sys.exit(main())
