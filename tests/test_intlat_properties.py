"""Hypothesis properties of the integer normal forms, with sympy as an
independent reference for invariant factors and ranks.

Every property is derandomized and runs on small matrices (at most 4 x 4,
or 6 x 6 for the Hermite and quotient-map properties, entries in [-9, 9]),
so a run tests the same examples each time.
"""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_smith

from toricgit.fans import Fan
from toricgit.intlat import (
    IntMatrix,
    Sublattice,
    hermite_rows,
    kernel_lattice,
    matrix_rank,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
    smith_normal_form,
    split_surjection,
)
from toricgit.quotients import normalize_action

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entry = st.integers(-9, 9)
    return IntMatrix(
        [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


@st.composite
def wide_matrices(draw):
    """Up to six rows in Z^d for d <= 6."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entry = st.integers(-9, 9)
    return IntMatrix(
        [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


@st.composite
def unimodular(draw, n=None):
    """A product of random elementary integer row operations on the identity."""
    if n is None:
        n = draw(st.integers(1, 4))
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != j:
            c = draw(st.integers(-3, 3))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "negate":
            rows[i] = [-a for a in rows[i]]
    return IntMatrix(rows, cols=n)


def reference_smith(A):
    """sympy's Smith normal form of A."""
    return IntMatrix(sympy_smith(sympy.Matrix(A.entries), domain=sympy.ZZ).tolist(), cols=A.cols)


def reference_diag(A):
    """sympy's invariant factors, min(rows, cols) of them."""
    return tuple(reference_smith(A).row(i)[i] for i in range(min(A.rows, A.cols)))


@PROPERTY
@given(matrices())
def test_smith_decomposition_against_sympy(A):
    snf = smith_normal_form(A)
    assert snf.left @ A @ snf.right == reference_smith(A)
    assert snf.diag == reference_diag(A)
    assert snf.left.is_unimodular() and snf.right.is_unimodular()
    nonzero = [d for d in snf.diag if d != 0]
    assert all(d > 0 for d in nonzero)
    assert nonzero == list(snf.diag[: len(nonzero)])  # zeros come last
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


@PROPERTY
@given(matrices())
def test_matrix_rank_against_sympy(A):
    assert matrix_rank(A.entries, A.cols) == sympy.Matrix(A.entries).rank()


@PROPERTY
@given(matrices())
def test_saturated_iff_every_invariant_factor_is_one(A):
    # the rows of A span L; L is saturated iff Z^n / L is torsion-free
    lattice = Sublattice.from_rows(A.cols, A.entries)
    assert lattice.saturated == all(d in (0, 1) for d in reference_diag(A))


@PROPERTY
@given(wide_matrices(), st.data())
def test_hermite_basis_is_canonical(A, data):
    # a fixed point, and one basis for every spanning set of the lattice
    basis = hermite_rows(A.entries, A.cols)
    assert hermite_rows(basis, A.cols) == basis
    U = data.draw(unimodular(A.rows))
    assert hermite_rows((U @ A).entries, A.cols) == basis


@PROPERTY
@given(wide_matrices())
def test_quotient_map_of_the_saturation_is_the_annihilator_basis(A):
    L = Sublattice.from_rows(A.cols, A.entries)
    assert quotient_lattice_map(saturate(L)).entries == kernel_lattice(L.basis).basis.entries


@PROPERTY
@given(unimodular())
def test_right_inverse_of_a_unimodular_matrix_is_its_inverse(U):
    inv = right_inverse_of_surjection(U)
    identity = IntMatrix.identity(U.rows)
    assert inv @ U == identity
    assert U @ inv == identity


@PROPERTY
@given(matrices())
def test_a_section_exists_iff_the_map_is_onto(A):
    onto = A.rows <= A.cols and all(d == 1 for d in reference_diag(A))
    if onto:
        assert A @ right_inverse_of_surjection(A) == IntMatrix.identity(A.rows)
        kernel, section = split_surjection(A)
        assert kernel == kernel_lattice(A)
        assert section == right_inverse_of_surjection(A)
    else:
        with pytest.raises(ValueError):
            right_inverse_of_surjection(A)


@st.composite
def generator_sets(draw):
    """Subtorus generators: 0 to d + 1 rows in Z^d for d <= 4, so the span
    runs from the zero lattice to full rank, saturated or not."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.integers(0, cols + 1))
    entry = st.integers(-9, 9)
    return cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@PROPERTY
@given(generator_sets())
def test_normalize_action_reads_the_saturation_off_the_annihilator_basis(case):
    # two Smith forms, against the saturation and its quotient map
    cols, generators = case
    saturation = saturate(Sublattice.from_rows(cols, generators))
    act = normalize_action(Fan(cols, [], []), generators)
    assert act.proj == quotient_lattice_map(saturation)
    assert act.cochar.basis == saturation.basis
