"""Exact lattice algebra: frozen examples plus randomized oracle sweeps."""
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from toricgit.intlat import (
    IntMatrix,
    Sublattice,
    cokernel_diagnostics,
    dot,
    hermite_rows,
    kernel_lattice,
    matrix_rank,
    primitive,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
    smith_normal_form,
    vgcd,
)


def minor_gcd_diag(A):
    """Invariant factors via determinantal divisors: d_k = g_k / g_{k-1}.

    Independent oracle: g_k is the gcd of all k x k minors.
    """
    m, n = A.rows, A.cols
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = IntMatrix([[A.entries[i][j] for j in cols] for i in rows], cols=k)
                g = gcd(g, abs(sub.det()))
        if g == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def diagonal(diag, rows, cols):
    """The rows x cols matrix with diag on its main diagonal."""
    return IntMatrix(
        [[diag[i] if i == j else 0 for j in range(cols)] for i in range(rows)], cols=cols
    )


def test_smith_diag_examples():
    assert smith_normal_form(IntMatrix([[2, 0], [0, 3]])).diag == (1, 6)
    assert smith_normal_form(IntMatrix([[1, 2], [3, 4]])).diag == (1, 2)


def test_smith_decomposition_reconstructs():
    A = IntMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    snf = smith_normal_form(A)
    assert snf.left @ A @ snf.right == diagonal(snf.diag, A.rows, A.cols)
    assert snf.left.is_unimodular() and snf.right.is_unimodular()


def test_smith_random_sweep_against_minor_gcd_oracle():
    rng = random.Random(20260817)
    for trial in range(1000):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        snf = smith_normal_form(A)
        assert snf.left @ A @ snf.right == diagonal(snf.diag, m, n), (trial, A)
        assert abs(snf.left.det()) == 1 and abs(snf.right.det()) == 1, (trial, A)
        nonzero = [d for d in snf.diag if d != 0]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), (trial, A)
        assert snf.diag == minor_gcd_diag(A), (trial, A)


def test_kernel_lattice_example():
    ker = kernel_lattice(IntMatrix([[1, 1]]))
    assert ker.basis.entries == ((1, -1),)
    assert ker.saturated


def test_kernel_vectors_annihilate():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        ker = kernel_lattice(A)
        for row in ker.basis.entries:
            assert A.matvec(row) == (0,) * m
        assert ker.rank == n - matrix_rank(A.entries, n)


def test_saturate_example_and_properties():
    L = Sublattice.from_rows(2, [(2, 2)])
    assert not L.saturated
    sat = saturate(L)
    assert sat.basis.entries == ((1, 1),)
    assert sat.saturated
    # idempotent and extensive
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(0, n)
        L = Sublattice.from_rows(n, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(k)])
        sat = saturate(L)
        assert saturate(sat).basis == sat.basis
        assert all(sat.contains(r) for r in L.basis.entries)
        assert sat.saturated


def test_quotient_lattice_map_example():
    L = Sublattice.from_rows(2, [(1, 1)])
    pi = quotient_lattice_map(L)
    assert pi.rows == 1 and pi.cols == 2
    # canonical form is (1, -1): pi(a, b) = a - b
    assert pi.entries == ((1, -1),)


def test_quotient_lattice_map_rejects_unsaturated():
    L = Sublattice.from_rows(2, [(2, 0)])
    with pytest.raises(ValueError):
        quotient_lattice_map(L)


def test_quotient_map_random_properties():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(1, 5)
        k = rng.randint(0, n)
        L = saturate(
            Sublattice.from_rows(n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)])
        )
        pi = quotient_lattice_map(L)
        assert pi.rows == n - L.rank and pi.cols == n
        for row in L.basis.entries:
            assert pi.matvec(row) == (0,) * pi.rows
        if pi.rows:
            assert all(d == 1 for d in smith_normal_form(pi).diag)  # surjective
        assert kernel_lattice(pi).basis == L.basis  # kernel is exactly L


def test_cokernel_examples():
    p2_rays = IntMatrix([[1, 0], [0, 1], [-1, -1]])
    assert cokernel_diagnostics(p2_rays) == (1, ())
    assert cokernel_diagnostics(IntMatrix([[2]])) == (0, (2,))


def test_hermite_rows_canonical():
    a = hermite_rows([(2, 4), (1, 3)], 2)
    b = hermite_rows([(1, 3), (0, 2), (3, 9)], 2)
    assert a == b == ((1, 1), (0, 2))


def test_unimodular_inverse_and_right_inverse():
    U = IntMatrix([[2, 1], [1, 1]])
    inv = right_inverse_of_surjection(U)
    assert inv == IntMatrix([[1, -1], [-1, 2]])
    assert U @ inv == inv @ U == IntMatrix.identity(2)
    A = IntMatrix([[1, 0, 2], [0, 1, -1]])
    s = right_inverse_of_surjection(A)
    assert A @ s == IntMatrix.identity(2)


def test_primitive():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((0, -5)) == (0, -1)


def test_vgcd():
    assert vgcd((4, -6, 10)) == 2
    assert vgcd((-7,)) == 7
    assert vgcd((0, 0)) == 0
    assert vgcd(()) == 0
    assert vgcd((0, -3, 0)) == 3


def test_dot_is_exact_on_integers_and_fractions():
    assert dot((3, -4, 5), (1, 2, -3)) == -20
    assert dot((), ()) == 0
    assert dot((10 ** 30, 1), (10 ** 30, -1)) == 10 ** 60 - 1
    half = dot((1, -1), (Fraction(1, 2), Fraction(1, 3)))
    assert half == Fraction(1, 6) and isinstance(half, Fraction)


def test_equal_matrices_hash_equal_however_built():
    # the hash is kept after its first use, so it must not depend on the route
    a = IntMatrix([[1, 2, 0], [0, -1, 3]])
    b = IntMatrix._of(((1, 2, 0), (0, -1, 3)), 3)
    c = IntMatrix.identity(2) @ a
    d = IntMatrix([[1, 0], [2, -1], [0, 3]]).transpose()
    e = a @ IntMatrix.identity(3)
    for m in (a, b, c, d, e):
        assert m == a and hash(m) == hash(a) == hash((3, a.entries))
    assert len({a, b, c, d, e}) == 1
    # empty matrices of different widths stay apart
    assert hash(IntMatrix([], cols=2)) == hash((2, ()))
    assert IntMatrix([], cols=2) != IntMatrix([], cols=3)


@pytest.mark.parametrize("name", ["entries", "rows", "cols", "_hash"])
def test_matrices_stay_immutable_with_a_kept_hash(name):
    m = IntMatrix([[1, 2], [3, 4]])
    hash(m)
    with pytest.raises(AttributeError):
        setattr(m, name, None)
    assert m.entries == ((1, 2), (3, 4)) and hash(m) == hash((2, m.entries))


def test_saturation_is_decided_once_per_lattice(monkeypatch):
    from toricgit import intlat

    calls = 0
    smith = intlat.smith_normal_form

    def counted(A):
        nonlocal calls
        calls += 1
        return smith(A)

    monkeypatch.setattr(intlat, "smith_normal_form", counted)
    fine = Sublattice.from_rows(3, [(1, 1, 0), (0, 1, 1)])
    coarse = Sublattice.from_rows(2, [(2, 0)])
    assert [fine.saturated, coarse.saturated] * 2 == [True, False] * 2
    assert calls == 2
    # the kept flag is no part of the value
    assert fine == Sublattice.from_rows(3, [(1, 2, 1), (0, 1, 1)])
    assert hash(coarse) == hash(Sublattice.from_rows(2, [(-2, 0)]))
