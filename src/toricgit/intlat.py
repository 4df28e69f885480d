"""Exact integer linear algebra: Hermite and Smith forms, kernels, saturations,
quotient maps.

Everything works over plain Python integers (arbitrary precision); no
fractions and no floating point anywhere.  Ranks, inverses, kernels and
solutions all come from the two integer normal forms, `hermite_rows` and
`smith_normal_form`.  Vectors are tuples read as column vectors, matrices act
on the left.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from operator import mul


def vgcd(v):
    """gcd of the entries of a vector, 0 for the zero vector."""
    return gcd(*v)


def primitive(v):
    """Primitive integer vector on the same ray; the zero vector stays zero."""
    g = vgcd(v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def dot(a, b):
    """Exact pairing; the entries may be integers or Fractions."""
    return sum(map(mul, a, b))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, v):
    return tuple(c * x for x in v)


def vneg(v):
    return tuple(-x for x in v)


class IntMatrix:
    """Immutable integer matrix, row-major.  The hash is computed on first
    use and kept, since matrices serve as memo keys."""

    __slots__ = ("rows", "cols", "entries", "_hash")

    def __init__(self, entries, cols=None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
            cols = width
        elif cols is None:
            cols = 0
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def _of(cls, entries, cols):
        """Internal: entries already a tuple of int tuples, each of width cols."""
        m = object.__new__(cls)
        object.__setattr__(m, "entries", entries)
        object.__setattr__(m, "rows", len(entries))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_hash", None)
        return m

    @classmethod
    def identity(cls, n):
        return cls._of(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @classmethod
    def from_columns(cls, columns, rows=None):
        columns = tuple(tuple(c) for c in columns)
        if columns:
            rows = len(columns[0])
        elif rows is None:
            rows = 0
        return cls(tuple(tuple(col[i] for col in columns) for i in range(rows)), cols=len(columns))

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def transpose(self):
        return IntMatrix._of(tuple(self.column(j) for j in range(self.cols)), self.rows)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length %d != cols %d" % (len(v), self.cols))
        return tuple(dot(row, v) for row in self.entries)

    def __matmul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d @ %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        cols = tuple(other.column(j) for j in range(other.cols))
        return IntMatrix._of(
            tuple(tuple(dot(row, col) for col in cols) for row in self.entries),
            other.cols,
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.cols, self.entries)))
        return self._hash

    def __repr__(self):
        return "IntMatrix(%r)" % (list(list(r) for r in self.entries),)

    def det(self):
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = [list(r) for r in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def is_unimodular(self):
        return self.rows == self.cols and abs(self.det()) == 1


@dataclass(frozen=True)
class SmithDecomposition:
    """left @ A @ right == diagonal(diag); left, right unimodular.

    diag entries are nonnegative and each nonzero entry divides the next.
    """

    left: IntMatrix
    diag: tuple
    right: IntMatrix


def smith_normal_form(A):
    """Smith decomposition of an integer matrix.

    Row/column elimination with the usual divisibility repair; the diagonal
    is the canonical invariant-factor chain.
    """
    m, n = A.rows, A.cols
    D = [list(r) for r in A.entries]
    L = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_sub(i, k, q):  # row_i -= q * row_k
        D[i] = [a - q * b for a, b in zip(D[i], D[k])]
        L[i] = [a - q * b for a, b in zip(L[i], L[k])]

    def col_sub(j, k, q):  # col_j -= q * col_k
        for r in D:
            r[j] -= q * r[k]
        for r in R:
            r[j] -= q * r[k]

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        L[i], L[k] = L[k], L[i]

    def col_swap(j, k):
        for r in D:
            r[j], r[k] = r[k], r[j]
        for r in R:
            r[j], r[k] = r[k], r[j]

    def row_neg(i):
        D[i] = [-a for a in D[i]]
        L[i] = [-a for a in L[i]]

    def pivot(t):  # first nonzero entry of least absolute value in the trailing block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        best = pivot(t)
        if best is None:
            break
        while True:
            i0, j0 = best
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    if q:
                        row_sub(i, t, q)
                    if D[i][t] != 0:
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    if q:
                        col_sub(j, t, q)
                    if D[t][j] != 0:
                        dirty = True
            if not dirty:
                # divisibility repair: pivot must divide every trailing entry
                fix = None
                for i in range(t + 1, m):
                    for j in range(t + 1, n):
                        if D[i][j] % D[t][t] != 0:
                            fix = i
                            break
                    if fix is not None:
                        break
                if fix is None:
                    break
                D[t] = [a + b for a, b in zip(D[t], D[fix])]
                L[t] = [a + b for a, b in zip(L[t], L[fix])]
            best = pivot(t)
        if D[t][t] < 0:
            row_neg(t)
        t += 1
    diag = tuple(D[i][i] for i in range(min(m, n)))
    return SmithDecomposition(
        IntMatrix._of(tuple(map(tuple, L)), m), diag, IntMatrix._of(tuple(map(tuple, R)), n)
    )


def hermite_rows(rows, cols):
    """Canonical basis (row-style Hermite form) of the lattice spanned by rows.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Zero rows are dropped, so equal lattices give equal tuples: the Hermite
    normal form is unique (H. Cohen, A Course in Computational Algebraic
    Number Theory, GTM 138, section 2.4).

    The reduction above the pivots runs top-down.  Row i is zero left of
    its pivot, so reducing an upper row by row i touches only columns from
    pivot i on and keeps every column already reduced by rows above i.
    Bottom-up, reducing by row 1 would undo the reduction by row 2 of the
    column of pivot 2, and the result would depend on the input rows.
    """
    work = [list(r) for r in rows if any(x != 0 for x in r)]
    basis = []
    for col in range(cols):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            for r in live[1:]:
                q = r[col] // p[col]
                if q:
                    for j in range(cols):
                        r[j] -= q * p[j]
            live = [r for r in live if r[col] != 0]
        p = live[0]
        if p[col] < 0:
            for j in range(cols):
                p[j] = -p[j]
        basis.append(p)
        work = [r for r in work if r is not p and any(x != 0 for x in r)]
    # reduce entries above each pivot into [0, pivot), top-down
    for i in range(len(basis)):
        pivot_col = next(j for j in range(cols) if basis[i][j] != 0)
        for k in range(i):
            q = basis[k][pivot_col] // basis[i][pivot_col]
            if q:
                for j in range(cols):
                    basis[k][j] -= q * basis[i][j]
    return tuple(tuple(r) for r in basis)


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of Z^ambient spanned by the rows of basis (a Hermite basis).
    Whether it is saturated is decided once, on first use."""

    ambient: int
    basis: IntMatrix
    _saturated: bool | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_rows(cls, ambient, rows):
        basis = hermite_rows(rows, ambient)
        if any(len(r) != ambient for r in basis):
            raise ValueError("cols does not match row width")
        return cls(ambient, IntMatrix._of(basis, ambient))

    @property
    def rank(self):
        return self.basis.rows

    @property
    def saturated(self):
        """Z^ambient / L is torsion-free: every invariant factor is 1."""
        if self._saturated is None:
            object.__setattr__(
                self, "_saturated", all(d == 1 for d in smith_normal_form(self.basis).diag)
            )
        return self._saturated

    def contains(self, v):
        """Integer membership via Hermite reduction."""
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        v = list(v)
        for row in self.basis.entries:
            pivot_col = next(j for j in range(self.ambient) if row[j] != 0)
            if v[pivot_col] % row[pivot_col] == 0:
                q = v[pivot_col] // row[pivot_col]
                if q:
                    v = [a - q * b for a, b in zip(v, row)]
        return all(x == 0 for x in v)

    def contains_lattice(self, other):
        return all(self.contains(r) for r in other.basis.entries)


def kernel_lattice(A):
    """Saturated sublattice {v in Z^cols : A v = 0}."""
    snf = smith_normal_form(A)
    r = sum(1 for d in snf.diag if d != 0)
    return Sublattice.from_rows(A.cols, (snf.right.column(j) for j in range(r, A.cols)))


def saturate(L):
    """Saturation: rational span intersected with the integer lattice.

    Double orthogonal complement; both steps are kernel lattices, which are
    saturated by construction.
    """
    if L.rank == 0:
        return L
    perp = kernel_lattice(L.basis)
    if perp.rank == 0:
        return Sublattice(L.ambient, IntMatrix.identity(L.ambient))
    return kernel_lattice(perp.basis)


def quotient_lattice_map(L):
    """Surjection pi: Z^n -> Z^(n-k) with kernel exactly the saturated L.

    Raises ValueError for an unsaturated input (the quotient would have
    torsion, which a lattice map cannot carry).
    """
    n, k = L.ambient, L.rank
    if k == 0:
        return IntMatrix.identity(n)
    snf = smith_normal_form(L.basis.transpose())  # columns span L
    if any(d != 1 for d in snf.diag):
        raise ValueError("quotient by an unsaturated sublattice has torsion")
    # left @ basis^T has only the first k rows nonzero; the lower rows of left
    # therefore kill L, stay surjective, and have kernel exactly L.
    pi_rows = snf.left.entries[k:]
    return IntMatrix._of(hermite_rows(pi_rows, n), n)


def cokernel_diagnostics(A):
    """(free rank, torsion invariant factors > 1) of Z^rows / column span of A."""
    snf = smith_normal_form(A)
    nonzero = [d for d in snf.diag if d != 0]
    torsion = tuple(d for d in nonzero if d != 1)
    return A.rows - len(nonzero), torsion


def _section(A):
    """(s, right): an integer section s of the lattice surjection A
    (A @ s == identity) and the right factor of the Smith form it came from."""
    m, n = A.rows, A.cols
    snf = smith_normal_form(A)
    if any(d != 1 for d in snf.diag) or len(snf.diag) < m:
        raise ValueError("matrix is not a lattice surjection")
    # A = left^-1 [I 0] right^-1, so s = right [I; 0] left
    block = IntMatrix._of(
        tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(n)), m
    )
    return snf.right @ block @ snf.left, snf.right


def right_inverse_of_surjection(A):
    """Integer section s with A @ s == identity, for surjective A."""
    return _section(A)[0]


def split_surjection(A):
    """Kernel lattice and integer section of a lattice surjection A, both
    read off one Smith form: the last n - m columns of its right factor span
    the kernel."""
    s, right = _section(A)
    return Sublattice.from_rows(A.cols, (right.column(j) for j in range(A.rows, A.cols))), s


def matrix_rank(rows, cols):
    """Rank of a list of integer row vectors: the length of their Hermite basis."""
    return len(hermite_rows(rows, cols))
