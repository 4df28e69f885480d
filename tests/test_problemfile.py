"""Problem file parsing: accepted documents and every rejection path."""

import json

import pytest

from toricgit.problemfile import (
    MonomialSpec,
    PolynomialSpec,
    ProblemFileError,
    load_problem,
    parse_problem,
    select,
)
from fractions import Fraction


def doc(**overrides):
    base = {
        "format": "toricgit-problem",
        "version": 1,
        "rank": 2,
        "rays": [[1, 0], [0, 1], [-1, -1]],
        "max_cones": [[0, 1], [1, 2], [0, 2]],
    }
    base.update(overrides)
    for key in [k for k, v in base.items() if v is None]:
        del base[key]
    return base


def parse(document):
    return parse_problem(json.dumps(document))


def rejected(document):
    with pytest.raises(ProblemFileError) as info:
        parse(document)
    return info.value


class TestAcceptedDocuments:
    def test_minimal_document(self):
        p = parse(doc())
        assert p.fan.rank == 2
        assert p.fan.rays == ((1, 0), (0, 1), (-1, -1))
        assert set(p.fan.max_cones) == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        }
        assert p.subtorus == ()
        assert p.symmetries == ()
        assert p.selections == {}
        assert p.families == {}

    def test_full_document(self):
        p = parse(
            doc(
                subtorus=[[1, 1]],
                symmetries=[[[0, -1], [1, -1]]],
                selections={"chart": [[], [0], [1], [0, 1]]},
                families={
                    "coords": [{"monomial": [1, 0, 0]}],
                    "mixed": [
                        {
                            "polynomial": [[1, [1, 0, 0]], [[-1, 2], [0, 1, 0]]],
                            "weight": [1],
                        }
                    ],
                },
            )
        )
        assert p.subtorus == ((1, 1),)
        assert p.symmetries == (((0, -1), (1, -1)),)
        assert p.selections["chart"].keys == frozenset(
            {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
        )
        coords = p.families["coords"]
        assert coords == (MonomialSpec((1, 0, 0)),)
        (mixed,) = p.families["mixed"]
        assert isinstance(mixed, PolynomialSpec)
        assert mixed.terms == (
            (Fraction(1), (1, 0, 0)),
            (Fraction(-1, 2), (0, 1, 0)),
        )
        assert mixed.weight == (1,)

    def test_polynomial_weight_is_optional(self):
        p = parse(doc(families={"f": [{"polynomial": [[2, [0, 0, 0]]]}]}))
        (section,) = p.families["f"]
        assert section.weight is None
        assert section.terms == ((Fraction(2), (0, 0, 0)),)

    def test_rank_zero_point(self):
        p = parse(
            {
                "format": "toricgit-problem",
                "version": 1,
                "rank": 0,
                "rays": [],
                "max_cones": [[]],
            }
        )
        assert p.fan.rank == 0
        assert set(p.fan.cone_keys()) == {frozenset()}


class TestDocumentShape:
    def test_malformed_json_reports_the_line(self):
        with pytest.raises(ProblemFileError) as info:
            parse_problem('{"format": "toricgit-problem",\n "version": 1\n "rank"')
        assert info.value.path == "line 3"

    def test_root_must_be_an_object(self):
        with pytest.raises(ProblemFileError) as info:
            parse_problem("[1, 2]")
        assert "JSON object" in info.value.message

    def test_unknown_top_level_field(self):
        err = rejected(doc(extra=1))
        assert err.path == "extra"

    def test_missing_required_field(self):
        err = rejected(doc(rays=None))
        assert err.path == "rays"
        assert "missing" in err.message

    def test_wrong_format_name(self):
        err = rejected(doc(format="other"))
        assert err.path == "format"

    def test_wrong_version(self):
        err = rejected(doc(version=2))
        assert err.path == "version"

    def test_rank_must_be_an_integer(self):
        assert rejected(doc(rank=True)).path == "rank"
        assert rejected(doc(rank="2")).path == "rank"
        assert rejected(doc(rank=-1)).path == "rank"

    def test_booleans_are_not_integers(self):
        err = rejected(doc(rays=[[1, 0], [0, True], [-1, -1]]))
        assert err.path == "rays[1][1]"


class TestFanFields:
    def test_ray_of_wrong_length(self):
        err = rejected(doc(rays=[[1, 0], [0, 1, 5], [-1, -1]]))
        assert err.path == "rays[1]"
        assert "expected 2 entries" in err.message

    def test_cone_index_out_of_range(self):
        err = rejected(doc(max_cones=[[0, 3]]))
        assert err.path == "max_cones[0][1]"
        assert "out of range" in err.message

    def test_fan_level_rejection_keeps_the_message(self):
        err = rejected(doc(rays=[[1, 0], [0, 2], [-1, -1]]))
        assert err.path == "rays/max_cones"
        assert "primitive" in err.message


class TestSymmetries:
    # every matrix must be an automorphism of the fan, checked where it is read
    def test_matrix_must_be_unimodular(self):
        err = rejected(doc(symmetries=[[[0, 1], [1, 0]], [[2, 0], [0, 1]]]))
        assert (err.path, err.message) == ("symmetries[1]", "matrix is not unimodular")

    def test_matrix_must_permute_the_rays(self):
        err = rejected(doc(symmetries=[[[1, 1], [0, 1]]]))
        assert (err.path, err.message) == ("symmetries[0]", "matrix does not permute the rays")

    def test_matrix_must_preserve_the_cone_set(self):
        # swapping the axes sends the cone on rays 1, 2 to rays 0, 3
        err = rejected(doc(
            rays=[[1, 0], [0, 1], [-1, 0], [0, -1]],
            max_cones=[[0, 1], [1, 2], [2, 3]],
            symmetries=[[[0, 1], [1, 0]]],
        ))
        assert (err.path, err.message) == (
            "symmetries[0]", "matrix does not preserve the cone set"
        )


class TestSelections:
    def test_reserved_name(self):
        err = rejected(doc(selections={"all": [[]]}))
        assert err.path == "selections.all"
        assert "reserved" in err.message

    def test_face_closure_is_required(self):
        # [0,1] without its ray faces is not an open union of orbit closures
        err = rejected(doc(selections={"bad": [[], [0, 1]]}))
        assert err.path == "selections.bad"

    def test_selection_index_out_of_range(self):
        err = rejected(doc(selections={"bad": [[9]]}))
        assert err.path == "selections.bad[0][0]"

    def test_builtin_lookups(self):
        p = parse(doc())
        assert select(p, "all").keys == p.fan.full_selection().keys
        assert select(p, "torus").keys == frozenset({frozenset()})
        assert select(p, "empty").keys == frozenset()

    def test_named_lookup_beats_nothing_else(self):
        p = parse(doc(selections={"chart": [[], [0]]}))
        assert select(p, "chart").keys == frozenset({frozenset(), frozenset({0})})

    def test_unknown_selection_lists_the_known_names(self):
        p = parse(doc(selections={"chart": [[]]}))
        with pytest.raises(ProblemFileError) as info:
            select(p, "missing")
        assert info.value.path == "selections.missing"
        assert "chart" in info.value.message
        assert "torus" in info.value.message


class TestFamilies:
    def section(self, **fields):
        return rejected(doc(families={"f": [fields]}))

    def test_family_must_be_nonempty(self):
        err = rejected(doc(families={"f": []}))
        assert err.path == "families.f"

    def test_exactly_one_kind(self):
        err = self.section(monomial=[0, 0, 0], polynomial=[[1, [0, 0, 0]]])
        assert "exactly one" in err.message
        err = self.section()
        assert "exactly one" in err.message

    def test_unknown_section_field(self):
        err = self.section(monomial=[0, 0, 0], extra=1)
        assert "unknown field" in err.message

    def test_negative_exponent(self):
        err = self.section(monomial=[0, -1, 0])
        assert err.path == "families.f[0].monomial[1]"

    def test_exponent_vector_length(self):
        err = self.section(monomial=[0, 0])
        assert "expected 3 entries" in err.message

    def test_weight_on_monomial(self):
        err = self.section(monomial=[1, 0, 0], weight=[1])
        assert err.path == "families.f[0].weight"

    def test_empty_polynomial(self):
        err = self.section(polynomial=[])
        assert err.path == "families.f[0].polynomial"

    def test_term_shape(self):
        err = self.section(polynomial=[[1, [0, 0, 0], 3]])
        assert err.path == "families.f[0].polynomial[0]"

    def test_coefficient_forms(self):
        err = self.section(polynomial=[[True, [0, 0, 0]]])
        assert err.path == "families.f[0].polynomial[0][0]"
        err = self.section(polynomial=[["x", [0, 0, 0]]])
        assert err.path == "families.f[0].polynomial[0][0]"

    def test_zero_denominator(self):
        err = self.section(polynomial=[[[1, 0], [0, 0, 0]]])
        assert "zero denominator" in err.message


class TestLoading:
    def test_load_from_disk(self, tmp_path):
        target = tmp_path / "p.json"
        target.write_text(json.dumps(doc()), encoding="utf-8")
        assert load_problem(str(target)).fan.rank == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemFileError) as info:
            load_problem(str(tmp_path / "absent.json"))
        assert "cannot read" in info.value.message
