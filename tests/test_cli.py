"""Command front end: report layout, verdicts, exit codes, file output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from toricgit import cli
from toricgit.cli import main
from toricgit.corpus import LEGS, SweepResult


def p1_doc():
    return {
        "format": "toricgit-problem",
        "version": 1,
        "rank": 1,
        "rays": [[1], [-1]],
        "max_cones": [[0], [1]],
        "subtorus": [[1]],
        "symmetries": [[[-1]]],
        "selections": {"chart": [[], [0]]},
    }


def c2_doc():
    return {
        "format": "toricgit-problem",
        "version": 1,
        "rank": 2,
        "rays": [[1, 0], [0, 1]],
        "max_cones": [[0, 1]],
        "subtorus": [[1, 1]],
        "selections": {"punctured": [[], [0], [1]]},
    }


def p2_doc():
    return {
        "format": "toricgit-problem",
        "version": 1,
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
        "symmetries": [[[0, -1], [1, -1]]],
        "families": {
            "coords": [
                {"monomial": [1, 0, 0]},
                {"monomial": [0, 1, 0]},
                {"monomial": [0, 0, 1]},
            ],
            "witnesses": [
                {"monomial": [1, 0, 0]},
                {"monomial": [0, 1, 0]},
                {"monomial": [0, 0, 1]},
                {"polynomial": [[1, [1, 0, 0]], [1, [0, 1, 0]]]},
                {"polynomial": [[1, [1, 0, 0]], [1, [0, 0, 1]]]},
                {"polynomial": [[1, [0, 1, 0]], [1, [0, 0, 1]]]},
            ],
        },
    }


def non_fan_doc():
    # the quadrant [0, 1] contains the maximal cone [0, 2]
    return {
        "format": "toricgit-problem",
        "version": 1,
        "rank": 2,
        "rays": [[1, 0], [0, 1], [1, 1], [-1, -1]],
        "max_cones": [[0, 1], [0, 2], [1, 3]],
    }


@pytest.fixture
def write(tmp_path):
    def to_file(doc, name="problem.json"):
        target = tmp_path / name
        target.write_text(json.dumps(doc), encoding="utf-8")
        return str(target)

    return to_file


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        return code, capsys.readouterr().out

    return invoke


class TestReportLayout:
    def test_text_shape(self, run, write):
        path = write(p1_doc())
        code, out = run("check", path)
        lines = out.splitlines()
        assert lines[0] == "toricgit report v1"
        assert lines[1] == "command: check"
        assert lines[2] == f"input: {path}"
        assert lines[3] == "seed: 20260817"
        assert lines[4] == ""
        assert lines[-2] == ""
        assert lines[-1] == "result: pass"
        assert out.endswith("\n")
        assert code == 0

    def test_seed_flag_is_echoed(self, run, write):
        path = write(p1_doc())
        _, out = run("check", path, "--seed", "7")
        assert "seed: 7" in out

    def test_result_words(self, run, write):
        path = write(p1_doc())
        assert run("check", path)[1].rstrip().endswith("result: pass")
        # full-torus quotient of a complete fan cannot exist
        code, out = run("quotient", path)
        assert code == 1
        assert out.rstrip().endswith("result: negative")
        code, out = run("check", str(write({}, "empty.json")))
        assert code == 2
        assert out.rstrip().endswith("result: input error")


class TestCheck:
    def test_valid_file(self, run, write):
        code, out = run("check", write(p2_doc()))
        assert code == 0
        assert "complete: yes" in out
        assert "simplicial: yes" in out
        assert "named families: coords, witnesses" in out

    def test_incomplete_fan_is_informational(self, run, write):
        code, out = run("check", write(c2_doc()))
        assert code == 0
        assert "complete: no" in out

    def test_missing_file(self, run, tmp_path):
        code, out = run("check", str(tmp_path / "absent.json"))
        assert code == 2
        assert "input error: cannot read" in out

    def test_malformed_json_names_the_line(self, run, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"format":\n', encoding="utf-8")
        code, out = run("check", str(target))
        assert code == 2
        assert "line 2" in out

    def test_non_fan_is_rejected_before_any_verdict(self, run, write):
        path = write(non_fan_doc())
        for argv in (("check", path), ("quotient", path, "--selection", "all")):
            code, out = run(*argv)
            assert code == 2
            assert "input error: rays/max_cones:" in out
            assert "[0, 1], [0, 2]" in out


class TestQuotient:
    def test_punctured_plane_modulo_diagonal(self, run, write):
        code, out = run("quotient", write(c2_doc()), "--selection", "punctured")
        assert code == 0
        assert "verdict: good quotient exists" in out
        assert "target fan: rank 1, 2 rays, 2 maximal cones" in out
        assert "geometric: yes" in out
        assert "certificate: clean (chart functions verified)" in out

    def test_full_torus_on_complete_fan_is_obstructed(self, run, write):
        code, out = run("quotient", write(p1_doc()), "--selection", "all")
        assert code == 1
        assert "verdict: no good quotient" in out
        assert "reason:" in out

    def test_saturation_note(self, run, write):
        doc = c2_doc()
        doc["subtorus"] = [[2, 2]]
        code, out = run("quotient", write(doc), "--selection", "punctured")
        assert code == 0
        assert "non-saturated lattice; the saturation is used" in out

    def test_no_saturation_note_for_a_saturated_span(self, run, write):
        doc = {
            "format": "toricgit-problem",
            "version": 1,
            "rank": 4,
            "rays": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, -1, -1, -1]],
            "max_cones": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4], [0, 2, 3, 4], [1, 2, 3, 4]],
            "subtorus": [[1, 0, -3, 0], [0, 1, 1, 0], [0, 0, 2, 1]],
        }
        code, out = run("quotient", write(doc))
        assert "subtorus rank: 3" in out
        assert "non-saturated" not in out

    def test_unknown_selection(self, run, write):
        code, out = run("quotient", write(c2_doc()), "--selection", "nope")
        assert code == 2
        assert "unknown selection" in out

    def test_tiny_hilbert_bound(self, run, write):
        code, out = run(
            "quotient", write(c2_doc()), "--selection", "punctured", "--bound", "0"
        )
        assert code == 2
        assert "certified bound is 1" in out

    def test_a_bound_above_the_certificate_changes_nothing(self, run, tmp_path):
        # the box enumerated is the certified one, so a huge bound costs nothing
        problem = str(Path(__file__).resolve().parent.parent / "inputs" / "p2.json")
        reports = []
        for bound in ("3", "100000"):
            prefix = str(tmp_path / f"bound{bound}")
            code, out = run("quotient", problem, "--bound", bound, "--out", prefix)
            reports.append((code, out, Path(prefix + ".json").read_bytes()))
        assert reports[0] == reports[1]
        assert reports[0][0] == 0


class TestEnumerateMaximal:
    def test_projective_line(self, run, write):
        code, out = run("enumerate-maximal", write(p1_doc()))
        assert code == 0
        assert "maximal subsets with good quotient: 3" in out
        assert "{[]}" in out
        assert "{[],[0]}" in out
        assert "{[],[1]}" in out

    def test_both_variants_agree_here(self, run, write):
        path = write(p1_doc())
        _, one = run("enumerate-maximal", path, "--k", "1")
        _, two = run("enumerate-maximal", path, "--k", "2")
        assert one.replace("k=1", "k=") == two.replace("k=2", "k=")

    def test_subset_guard(self, run, write):
        code, out = run("enumerate-maximal", write(p1_doc()), "--max-subsets", "2")
        assert code == 2
        assert "input error" in out

    def test_a_negative_subset_guard_is_refused(self, run, write):
        code, out = run("enumerate-maximal", write(p1_doc()), "--max-subsets", "-1")
        assert code == 2
        assert "input error: more than -1 clique search nodes" in out


class TestCox:
    def test_presentation_report(self, run, write):
        code, out = run("cox", write(p2_doc()))
        assert code == 0
        assert "class group: free rank 1" in out
        assert "weight of coordinate 0: (1)" in out
        assert "relevant selection: 7 coordinate faces" in out
        assert "round trip: reproduces the fan" in out

    def test_witness_family_verifies(self, run, write):
        code, out = run("cox", write(p2_doc()), "--family", "witnesses")
        assert code == 0
        assert "witness family: yes" in out
        assert "coverage: every point pair shares a member's affine locus" in out

    def test_coordinates_alone_do_not_cover(self, run, write):
        # distinct maximal charts never share a coordinate's affine locus
        code, out = run("cox", write(p2_doc()), "--family", "coords")
        assert code == 1
        assert "coverage: FAILED" in out
        assert "witness family: no" in out

    def test_unknown_family(self, run, write):
        code, out = run("cox", write(p2_doc()), "--family", "ghost")
        assert code == 2


class TestSymmetryCommands:
    def test_w_set(self, run, write):
        code, out = run("w-set", write(p1_doc()), "--selection", "chart")
        assert code == 0
        assert "symmetry group order: 2" in out
        assert "translate intersection: {[]}" in out

    def test_theorem_honest_failure(self, run, write):
        code, out = run("verify-theorem", write(p1_doc()), "--selection", "chart")
        assert code == 1
        assert "translate intersection W: {[]}" in out
        assert "good quotient of W: exists" in out
        assert "saturation of W in the selection: no" in out
        assert "caveat:" in out
        assert "conclusions hold: no" in out

    def test_theorem_trivial_symmetry_passes(self, run, write):
        doc = p1_doc()
        del doc["symmetries"]
        code, out = run("verify-theorem", write(doc), "--selection", "chart")
        assert code == 0
        assert "conclusions hold: yes" in out

    def test_corollary(self, run, write):
        code, out = run("verify-corollary", write(p2_doc()))
        assert code == 0
        assert "all statements verified: yes" in out

    def test_corollary_needs_a_complete_fan(self, run, write):
        code, out = run("verify-corollary", write(c2_doc()))
        assert code == 2
        assert "not complete" in out

    def test_eq1_check(self, run, write):
        code, out = run(
            "eq1-check", write(c2_doc()), "--selection", "all", "--inner", "punctured"
        )
        assert code == 0
        assert "sides equal: yes" in out


class TestFileOutput:
    def test_out_prefix_writes_both_documents(self, run, write, tmp_path):
        prefix = str(tmp_path / "report")
        code, out = run(
            "quotient", write(c2_doc()), "--selection", "punctured", "--out", prefix
        )
        text = (tmp_path / "report.txt").read_text(encoding="utf-8")
        assert text == out
        doc = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert doc["report_format"] == "toricgit-report"
        assert doc["report_version"] == 1
        assert doc["command"] == "quotient"
        assert doc["result"] == "pass"
        assert doc["exit_code"] == code == 0
        assert doc["body"]["geometric"] is True

    def test_error_reports_are_also_written(self, run, write, tmp_path):
        prefix = str(tmp_path / "err")
        code, _ = run("quotient", str(tmp_path / "absent.json"), "--out", prefix)
        assert code == 2
        doc = json.loads((tmp_path / "err.json").read_text(encoding="utf-8"))
        assert doc["exit_code"] == 2
        assert "error" in doc["body"]

    def test_internal_failures_exit_3_with_both_reports(self, run, write, tmp_path):
        def broken(selection, act):
            raise RuntimeError("the image of cone [] lies in no maximal image")

        prefix = str(tmp_path / "internal")
        with mock.patch.object(cli, "good_quotient", broken):
            code, out = run(
                "quotient", write(c2_doc()), "--selection", "punctured", "--out", prefix
            )
        assert code == 3
        lines = out.splitlines()
        assert "internal error: the image of cone [] lies in no maximal image" in lines
        assert lines[-1] == "result: internal error"
        assert (tmp_path / "internal.txt").read_text(encoding="utf-8") == out
        doc = json.loads((tmp_path / "internal.json").read_text(encoding="utf-8"))
        assert doc["exit_code"] == 3
        assert doc["result"] == "internal error"
        assert doc["body"]["error"] == "the image of cone [] lies in no maximal image"


class TestRewrittenReports:
    """--out overwrites existing report files in place and cuts them to the
    new length."""

    def rewrite_twice(self, run, first, second, prefix):
        """Write the longer report `first`, then `second`, to one prefix."""
        run(*first, "--out", prefix)
        sizes = [os.path.getsize(prefix + suffix) for suffix in (".txt", ".json")]
        code, out = run(*second, "--out", prefix)
        assert Path(prefix + ".txt").read_bytes() == out.encode("utf-8")
        document = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
        assert document["exit_code"] == code
        for suffix, size in zip((".txt", ".json"), sizes):
            assert os.path.getsize(prefix + suffix) < size
        return code, document

    def test_a_shorter_report_leaves_no_tail(self, run, write, tmp_path):
        command = ("cox", write(p2_doc()), "--family", "witnesses")
        _, document = self.rewrite_twice(
            run, (*command, "--seed", "20260817"), (*command, "--seed", "7"),
            str(tmp_path / "report"),
        )
        assert document["seed"] == 7

    def test_an_input_error_after_a_verdict(self, run, write, tmp_path):
        code, document = self.rewrite_twice(
            run,
            ("quotient", write(c2_doc()), "--selection", "punctured"),
            ("quotient", str(tmp_path / "absent.json")),
            str(tmp_path / "report"),
        )
        assert code == 2
        assert document["result"] == "input error"
        assert set(document["body"]) == {"error"}

    def test_links_and_permissions_survive(self, run, write, tmp_path):
        # the prefix runs through a symlinked folder, report.txt is a
        # symlink to a longer file, and report.json has a second hard link
        path = write(p1_doc())
        real = tmp_path / "real"
        real.mkdir()
        (tmp_path / "linked").symlink_to(real, target_is_directory=True)
        prefix = str(tmp_path / "linked" / "report")
        run("enumerate-maximal", path, "--out", prefix)
        elsewhere = tmp_path / "elsewhere.txt"
        elsewhere.write_text("x" * 10000, encoding="utf-8")
        (real / "report.txt").unlink()
        (real / "report.txt").symlink_to(elsewhere)
        os.link(real / "report.json", tmp_path / "second.json")
        (real / "report.json").chmod(0o640)
        inodes = [os.stat(p).st_ino for p in (elsewhere, real / "report.json")]
        code, out = run("check", path, "--out", prefix)
        assert code == 0
        assert (real / "report.txt").is_symlink()
        assert elsewhere.read_text(encoding="utf-8") == out
        assert [os.stat(p).st_ino for p in (elsewhere, real / "report.json")] == inodes
        document = json.loads((tmp_path / "second.json").read_text(encoding="utf-8"))
        assert document["command"] == "check"
        assert (real / "report.json").stat().st_mode & 0o777 == 0o640

    def test_new_files_are_created_with_the_umask(self, run, write, tmp_path):
        prefix = tmp_path / "fresh"
        mask = os.umask(0o022)
        try:
            code, out = run("check", write(p1_doc()), "--out", str(prefix))
        finally:
            os.umask(mask)
        assert code == 0
        assert Path(f"{prefix}.txt").read_text(encoding="utf-8") == out
        for suffix in (".txt", ".json"):
            assert Path(f"{prefix}{suffix}").stat().st_mode & 0o777 == 0o644


class TestDeterminism:
    def test_sampled_verdicts_are_reproducible(self, run, write):
        path = write(p2_doc())
        _, first = run("cox", path, "--family", "witnesses")
        _, second = run("cox", path, "--family", "witnesses")
        assert first == second

    def test_seed_changes_only_the_echo_here(self, run, write):
        path = write(p2_doc())
        _, first = run("cox", path, "--family", "witnesses", "--seed", "1")
        _, second = run("cox", path, "--family", "witnesses", "--seed", "2")
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("seed:")]
        assert strip(first) == strip(second)


class TestOptions:
    def test_flags_a_command_does_not_read_are_rejected(self, run, write, tmp_path):
        path = write(p1_doc())
        for flag in ("--bound", "--max-subsets"):
            prefix = tmp_path / flag.strip("-")
            code, out = run("check", path, flag, "3", "--out", str(prefix))
            assert code == 2
            assert f"input error: unrecognized arguments: {flag} 3" in out
            assert out.rstrip().endswith("result: input error")
            assert Path(f"{prefix}.txt").read_text(encoding="utf-8") == out
            document = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
            assert document["exit_code"] == 2

    def test_a_flag_before_the_file_does_not_take_its_place(self, run, write):
        path = write(p1_doc())
        for flag in ("--bound", "--max-subsets"):
            code, out = run("check", flag, "3", path)
            assert code == 2
            lines = out.splitlines()
            assert lines[:3] == ["toricgit report v1", "command: check", "input: (unparsed)"]
            assert "input: 3" not in lines
            assert f"input error: unrecognized arguments: {flag} {path}" in lines
            assert lines[-1] == "result: input error"

    def test_verify_theorem_takes_no_enumeration_guard(self, run, write):
        # the conclusion checker finds hosts by the local peel test, which
        # lists no goods, so it has no guard to set
        path = write(p1_doc())
        code, out = run("verify-theorem", path, "--selection", "chart", "--max-subsets", "3")
        assert code == 2
        assert "input error: unrecognized arguments: --max-subsets 3" in out
        assert out.rstrip().endswith("result: input error")

    def test_out_into_a_missing_directory(self, run, write, tmp_path):
        prefix = str(tmp_path / "no" / "such" / "x")
        code, out = run("check", write(p1_doc()), "--out", prefix)
        assert code == 2
        assert f"input error: --out {prefix}:" in out
        assert out.rstrip().endswith("result: input error")
        assert not (tmp_path / "no").exists()

    def test_out_naming_a_directory(self, run, write, tmp_path):
        path = write(p1_doc())
        folder = tmp_path / "outdir"
        folder.mkdir()
        for prefix in (str(folder) + os.sep, str(folder)):
            code, out = run("check", path, "--out", prefix)
            assert code == 2
            assert f"input error: --out {prefix}: names a directory" in out
            assert out.rstrip().endswith("result: input error")
        assert list(folder.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "problem.json"]


class TestCommandLine:
    def test_unknown_command_is_an_input_error(self, run, write):
        code, out = run("frob", write(p1_doc()))
        assert code == 2
        assert out.startswith("toricgit report v1\ncommand: frob\n")
        assert "input error: argument command: invalid choice: 'frob'" in out
        assert out.rstrip().endswith("result: input error")

    def test_missing_required_flag_is_an_input_error(self, run, write):
        code, out = run("eq1-check", write(p1_doc()))
        assert code == 2
        assert out.startswith("toricgit report v1\ncommand: eq1-check\n")
        assert "input error: the following arguments are required: --inner" in out
        assert out.rstrip().endswith("result: input error")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith("usage: toricgit")

    def test_the_parser_is_built_once_per_process(self, run, write):
        cli.build_parser.cache_clear()
        path = write(p1_doc())
        run("check", path)
        run("cox", path)
        assert cli.build_parser.cache_info().misses == 1

    def test_consecutive_calls_match_separate_processes(self, run, write):
        calls = [
            ["check", write(p1_doc())],
            ["frob", "problem.json"],
            ["quotient", write(c2_doc(), "c2.json"), "--selection", "punctured"],
        ]
        in_process = [run(*argv) for argv in calls]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        for argv, (code, out) in zip(calls, in_process):
            alone = subprocess.run(
                [sys.executable, "-m", "toricgit.cli", *argv],
                capture_output=True, text=True, env=env, check=False, timeout=120,
            )
            assert (alone.returncode, alone.stdout) == (code, out)


# Report branches that the shipped problem files do not reach.  The expected
# exit code, stdout and JSON file of each case were recorded with the earlier
# cli.py, which built every command's text lines and JSON payload separately;
# they pin both renderings byte for byte.
PINNED = Path(__file__).with_name("cli_pinned.json")


def non_saturated_doc():
    doc = c2_doc()
    doc["subtorus"] = [[2, 2]]
    return doc


PINNED_CASES = {
    "theorem-refused": (p1_doc, ["verify-theorem", "problem.json", "--selection", "all"]),
    "eq1-hypotheses-fail": (
        c2_doc,
        ["eq1-check", "problem.json", "--selection", "punctured", "--inner", "all"],
    ),
    "bound-zero": (
        c2_doc,
        ["quotient", "problem.json", "--selection", "punctured", "--bound", "0"],
    ),
    "non-fan": (non_fan_doc, ["check", "problem.json"]),
    "unknown-selection": (c2_doc, ["quotient", "problem.json", "--selection", "nope"]),
    "empty-selection": (c2_doc, ["quotient", "problem.json", "--selection", "empty"]),
    "cox-no-family": (p2_doc, ["cox", "problem.json"]),
    "cox-coords": (p2_doc, ["cox", "problem.json", "--family", "coords"]),
    "saturation-note": (
        non_saturated_doc,
        ["quotient", "problem.json", "--selection", "punctured"],
    ),
    "enumerate-k2": (p2_doc, ["enumerate-maximal", "problem.json", "--k", "2"]),
    "sweep-clean": (None, ["oracle-sweep", "--seed", "5"]),
    "sweep-failures": (None, ["oracle-sweep", "--seed", "6"]),
}


def fake_sweep(seed, limit, bound):
    """A small sweep result; seed 6 has failures in two legs."""
    legs = dict.fromkeys(LEGS, ())
    if seed == 6:
        legs["certificate_failures"] = ("P1 a=(1) keys=[[], [0]]: chart fails",)
        legs["eq1_failures"] = (
            "P1xP1 a=(1,1) outer=[[]] inner=[]: sides differ",
            "P1xP1 a=(1,1) reflected outer=[[]] inner=[]: sides differ",
        )
    return SweepResult(
        seed=seed, fans=2, actions=3, selections=17, goods=9, staged_pairs=4,
        saturation_checks=5, eq1_checks=6, legs=legs, elapsed=0.25,
    )


def pinned_report(name, workdir):
    """Exit code, stdout and written JSON report of one pinned case, run in
    `workdir` so that the report names its problem file the same way on
    every machine."""
    make_doc, argv = PINNED_CASES[name]
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        if make_doc is not None:
            Path("problem.json").write_text(json.dumps(make_doc()), encoding="utf-8")
        buf = io.StringIO()
        with mock.patch.object(cli, "run_sweep", fake_sweep), \
                contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out", "report"])
        return {
            "exit": code,
            "text": buf.getvalue(),
            "json": Path("report.json").read_text(encoding="utf-8"),
        }
    finally:
        os.chdir(previous)


@pytest.mark.parametrize("name", sorted(PINNED_CASES))
def test_pinned_report(name, tmp_path):
    expected = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    assert pinned_report(name, tmp_path) == expected
