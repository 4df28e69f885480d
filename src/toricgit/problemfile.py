"""Problem file ingestion.

A problem file is a JSON document with integer leaves describing a fan
together with optional subtorus generators, symmetry matrices, named
open selections, and named section families.  Parsing is strict: every
violation, a non-fan included, raises ProblemFileError carrying the
offending field path (or the line for malformed JSON), which the command
front end turns into an input-error exit.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .fans import Fan, SubfanSelection, validate_fan

FORMAT_NAME = "toricgit-problem"
FORMAT_VERSION = 1

BUILTIN_SELECTIONS = ("all", "torus", "empty")


class ProblemFileError(ValueError):
    """Input rejection with a field path or line diagnostic."""

    def __init__(self, path, message):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}" if path else message)


def _fail(path, message):
    raise ProblemFileError(path, message)


def _expect_int(value, path):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, "expected an integer")
    return value


def _int_vector(value, path, length=None):
    if not isinstance(value, list):
        _fail(path, "expected a list of integers")
    if length is not None and len(value) != length:
        _fail(path, f"expected {length} entries, got {len(value)}")
    return tuple(_expect_int(x, f"{path}[{i}]") for i, x in enumerate(value))


def _int_matrix(value, path, rows, cols):
    if not isinstance(value, list):
        _fail(path, "expected a list of rows")
    if len(value) != rows:
        _fail(path, f"expected {rows} rows, got {len(value)}")
    return tuple(
        _int_vector(row, f"{path}[{i}]", cols) for i, row in enumerate(value)
    )


@dataclass(frozen=True)
class MonomialSpec:
    exponents: tuple


@dataclass(frozen=True)
class PolynomialSpec:
    terms: tuple
    weight: tuple | None


@dataclass(frozen=True)
class ProblemFile:
    fan: Fan
    subtorus: tuple
    symmetries: tuple
    selections: dict
    families: dict


def _parse_coefficient(value, path):
    if isinstance(value, bool):
        _fail(path, "expected an integer or [numerator, denominator]")
    if isinstance(value, int):
        return Fraction(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in value)
    ):
        if value[1] == 0:
            _fail(path, "zero denominator")
        return Fraction(value[0], value[1])
    _fail(path, "expected an integer or [numerator, denominator]")


def _parse_exponents(value, path, nrays):
    exps = _int_vector(value, path, nrays)
    for i, a in enumerate(exps):
        if a < 0:
            _fail(f"{path}[{i}]", "exponents must be nonnegative")
    return exps


def _parse_section(value, path, nrays):
    if not isinstance(value, dict):
        _fail(path, "expected a section object")
    unknown = set(value) - {"monomial", "polynomial", "weight"}
    if unknown:
        _fail(path, f"unknown field {sorted(unknown)[0]!r}")
    if ("monomial" in value) == ("polynomial" in value):
        _fail(path, "exactly one of 'monomial' or 'polynomial' is required")
    if "monomial" in value:
        if "weight" in value:
            _fail(f"{path}.weight", "weights apply to polynomial sections only")
        return MonomialSpec(_parse_exponents(value["monomial"], f"{path}.monomial", nrays))
    raw = value["polynomial"]
    if not isinstance(raw, list) or not raw:
        _fail(f"{path}.polynomial", "expected a nonempty list of terms")
    terms = []
    for i, term in enumerate(raw):
        tpath = f"{path}.polynomial[{i}]"
        if not isinstance(term, list) or len(term) != 2:
            _fail(tpath, "expected [coefficient, exponents]")
        coeff = _parse_coefficient(term[0], f"{tpath}[0]")
        exps = _parse_exponents(term[1], f"{tpath}[1]", nrays)
        terms.append((coeff, exps))
    weight = None
    if "weight" in value:
        weight = _int_vector(value["weight"], f"{path}.weight")
    return PolynomialSpec(tuple(terms), weight)


def parse_problem(text):
    """ProblemFile from JSON text; raises ProblemFileError on any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ProblemFileError(f"line {e.lineno}", e.msg) from None
    if not isinstance(doc, dict):
        _fail("", "expected a JSON object")
    unknown = set(doc) - {
        "format",
        "version",
        "rank",
        "rays",
        "max_cones",
        "subtorus",
        "symmetries",
        "selections",
        "families",
    }
    if unknown:
        _fail(sorted(unknown)[0], "unknown field")
    for field in ("format", "version", "rank", "rays", "max_cones"):
        if field not in doc:
            _fail(field, "missing required field")
    if doc["format"] != FORMAT_NAME:
        _fail("format", f"expected {FORMAT_NAME!r}")
    if doc["version"] != FORMAT_VERSION:
        _fail("version", f"expected {FORMAT_VERSION}")
    rank = _expect_int(doc["rank"], "rank")
    if rank < 0:
        _fail("rank", "rank must be nonnegative")
    if not isinstance(doc["rays"], list):
        _fail("rays", "expected a list of rays")
    rays = tuple(
        _int_vector(r, f"rays[{i}]", rank) for i, r in enumerate(doc["rays"])
    )
    if not isinstance(doc["max_cones"], list):
        _fail("max_cones", "expected a list of ray-index lists")
    cones = []
    for i, c in enumerate(doc["max_cones"]):
        idx = _int_vector(c, f"max_cones[{i}]")
        for j, x in enumerate(idx):
            if not 0 <= x < len(rays):
                _fail(f"max_cones[{i}][{j}]", f"ray index {x} out of range")
        cones.append(frozenset(idx))
    try:
        fan = Fan(rank, rays, cones)
    except ValueError as e:
        raise ProblemFileError("rays/max_cones", str(e)) from None
    problems = validate_fan(fan).problems
    if problems:
        _fail("rays/max_cones", problems[0])

    subtorus = ()
    if "subtorus" in doc:
        if not isinstance(doc["subtorus"], list):
            _fail("subtorus", "expected a list of generator rows")
        subtorus = tuple(
            _int_vector(row, f"subtorus[{i}]", rank)
            for i, row in enumerate(doc["subtorus"])
        )

    symmetries = ()
    if "symmetries" in doc:
        if not isinstance(doc["symmetries"], list):
            _fail("symmetries", "expected a list of matrices")
        symmetries = tuple(
            _int_matrix(m, f"symmetries[{i}]", rank, rank)
            for i, m in enumerate(doc["symmetries"])
        )

    selections = {}
    if "selections" in doc:
        if not isinstance(doc["selections"], dict):
            _fail("selections", "expected an object of named selections")
        for name, raw in doc["selections"].items():
            path = f"selections.{name}"
            if name in BUILTIN_SELECTIONS:
                _fail(path, "name is reserved for a built-in selection")
            if not isinstance(raw, list):
                _fail(path, "expected a list of cone keys")
            keys = []
            for i, key in enumerate(raw):
                idx = _int_vector(key, f"{path}[{i}]")
                for j, x in enumerate(idx):
                    if not 0 <= x < len(rays):
                        _fail(f"{path}[{i}][{j}]", f"ray index {x} out of range")
                keys.append(frozenset(idx))
            try:
                selections[name] = SubfanSelection(fan, keys)
            except ValueError as e:
                raise ProblemFileError(path, str(e)) from None

    families = {}
    if "families" in doc:
        if not isinstance(doc["families"], dict):
            _fail("families", "expected an object of named families")
        for name, raw in doc["families"].items():
            path = f"families.{name}"
            if not isinstance(raw, list) or not raw:
                _fail(path, "expected a nonempty list of sections")
            families[name] = tuple(
                _parse_section(s, f"{path}[{i}]", len(rays))
                for i, s in enumerate(raw)
            )

    return ProblemFile(
        fan=fan,
        subtorus=subtorus,
        symmetries=symmetries,
        selections=selections,
        families=families,
    )


def load_problem(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as e:
        raise ProblemFileError("", f"cannot read {path}: {e.strerror}") from None
    return parse_problem(text)


def select(problem, name):
    """Named selection, or one of the built-ins all, torus, empty."""
    if name in problem.selections:
        return problem.selections[name]
    fan = problem.fan
    if name == "all":
        return fan.full_selection()
    if name == "torus":
        return SubfanSelection(fan, [frozenset()])
    if name == "empty":
        return SubfanSelection(fan, [])
    known = sorted(problem.selections) + list(BUILTIN_SELECTIONS)
    raise ProblemFileError(
        f"selections.{name}", f"unknown selection; available: {', '.join(known)}"
    )
