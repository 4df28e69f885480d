"""Quasitorus presentation of a toric variety from its fan.

The variety is exhibited as a good quotient of an open invariant subset
of affine n-space (n = number of rays) by the quasitorus dual to the
divisor class group.  The grading of the coordinate ring by that group
is the cokernel of the ray-pairing map; the grading, its torsion and the
cocharacters of the quasitorus's torus part all come from one Smith form
of the ray matrix.  The open subset upstairs is the union of coordinate
charts indexed by the cones of the fan: the coordinate fan, whose cones
are the coordinate faces of the maximal cones, so its size grows with the
maximal cones, not with the 2^n faces of the orthant.  Its rays are unit
vectors, so every coordinate cone is simplicial and its faces are the
subsets of its key: the coordinate fan's lattice builds no cone.
Monomials are the canonical sections of effective invariant divisors,
and their witness verdicts are exact.  Polynomial sections are supported
for witness checking too, but their zero sets are not unions of orbits,
so their verdicts rest on seeded orbit points, all drawn inside
`verify_globally_defined` from the generator its `seed` argument seeds.
Each member's vanishing test is prepared once per call: a monomial's
support, or a polynomial's terms scaled to integers, so each sampled
point costs only its own products.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .fans import Fan, SubfanSelection, _union, limit_of_generic_point
from .intlat import (
    IntMatrix,
    Sublattice,
    cokernel_diagnostics,
    dot,
    kernel_lattice,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
    smith_normal_form,
)
from .quotients import Obstruction, SubtorusAction, good_quotient


def _coordinate_faces(coordinates, keys):
    """The coordinate faces of the keys: the OR of their coordinate-fan face masks."""
    _, bit = coordinates.numbering()
    faces = coordinates.face_masks()
    return SubfanSelection._of_mask(coordinates, _union(faces[bit[k]] for k in keys))


@dataclass(frozen=True)
class CoxPresentation:
    fan: Fan
    coordinate_fan: Fan  # the coordinate cones of fan.max_cones
    ray_matrix: IntMatrix  # rows are the rays: the pairing map M -> Z^n
    ray_map: IntMatrix  # columns are the rays: Z^n -> N
    free_rows: IntMatrix  # free part of the grading, canonical form
    torsion_rows: tuple  # (modulus, row) pairs for the torsion part
    class_rank: int
    torsion_factors: tuple
    h_cochar: Sublattice  # cocharacters of the quasitorus torus part

    def degree(self, exponents):
        """Divisor class of a monomial: free part plus torsion residues."""
        exponents = tuple(exponents)
        free = tuple(self.free_rows.matvec(exponents))
        torsion = tuple(dot(row, exponents) % mod for mod, row in self.torsion_rows)
        return (free, torsion)

    def weights(self):
        """Free-part degree of each coordinate, one column per ray."""
        return tuple(
            tuple(self.free_rows.column(i)) for i in range(len(self.fan.rays))
        )


@dataclass(frozen=True)
class MonomialSection:
    exponents: tuple
    degree: tuple

    def support(self):
        return frozenset(i for i, a in enumerate(self.exponents) if a)

    def evaluate(self, point):
        value = Fraction(1)
        for a, x in zip(self.exponents, point):
            if a:
                value *= Fraction(x) ** a
        return value


@dataclass(frozen=True)
class PolynomialSection:
    terms: tuple  # (coefficient, exponent tuple) pairs
    declared_weight: tuple | None = None

    def evaluate(self, point):
        total = Fraction(0)
        for coeff, exponents in self.terms:
            value = Fraction(coeff)
            for a, x in zip(exponents, point):
                if a:
                    value *= Fraction(x) ** a
            total += value
        return total


def cox_presentation(fan):
    """Grading, coordinate fan, and quasitorus data of a fan.

    The coordinate fan's cones are exactly the relevant coordinate faces; its
    lattice, built on first use, reads them off subsets of the maximal
    cones' keys (unit rays are linearly independent) and builds no cone.

    Everything is read off one Smith form L·R·U = D of the n×d ray matrix
    R.  The rays span iff D has d nonzero entries.  Rows d.. of L then
    span the ray relations {a : a·R = 0}: a = z·L kills R iff z·D = 0,
    iff z is zero in its first d entries.  The relations are the
    annihilator of the saturated image of M, so their Hermite basis is
    the free part of the grading, and they are ker(Z^n -> N), so the same
    lattice is H's cocharacters.  Row i < d of L gives the torsion residue
    modulo D_i, nontrivial iff D_i > 1.
    """
    n, d = len(fan.rays), fan.rank
    ray_matrix = IntMatrix(fan.rays, cols=d)
    snf = smith_normal_form(ray_matrix)
    if len(snf.diag) < d or not all(snf.diag):
        raise ValueError("rays do not span the ambient space")
    h_cochar = Sublattice.from_rows(n, snf.left.entries[d:])
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    return CoxPresentation(
        fan=fan,
        coordinate_fan=Fan(n, units, fan.max_cones),
        ray_matrix=ray_matrix,
        ray_map=ray_matrix.transpose(),
        free_rows=h_cochar.basis,
        torsion_rows=tuple(
            (m, snf.left.row(i)) for i, m in enumerate(snf.diag) if m > 1
        ),
        class_rank=n - d,
        torsion_factors=tuple(m for m in snf.diag if m > 1),
        h_cochar=h_cochar,
    )


def quasitorus_action(pres):
    """Torus part of the quasitorus acting on affine n-space."""
    return SubtorusAction(
        pres.coordinate_fan, pres.h_cochar, quotient_lattice_map(pres.h_cochar)
    )


def lift_open(pres, selection):
    """Preimage upstairs of an open selection: all coordinate faces lying
    inside the coordinate cone of some selected cone."""
    if selection.fan != pres.fan:
        raise ValueError("selection does not live on the presentation's fan")
    return _coordinate_faces(pres.coordinate_fan, selection.keys)


def canonical_section(pres, exponents):
    exponents = tuple(int(a) for a in exponents)
    if len(exponents) != len(pres.fan.rays):
        raise ValueError("one exponent per ray required")
    if any(a < 0 for a in exponents):
        raise ValueError("exponents must be nonnegative")
    return MonomialSection(exponents, pres.degree(exponents))


def image_zero_set(pres, section):
    """Downstairs cones in the support of the divisor: the union of orbit
    closures of the supported rays."""
    supp = section.support()
    return frozenset(key for key in pres.fan.cone_keys() if key & supp)


def zero_set_identity_holds(pres, section):
    """The monomial's zero set upstairs equals the preimage of the
    divisor support.  The minimal downstairs cone over a coordinate face
    is located by a relative-interior point."""
    supp = section.support()
    down = image_zero_set(pres, section)
    for key in pres.coordinate_fan.cone_keys():
        v = tuple(
            sum(pres.fan.rays[i][j] for i in key) for j in range(pres.fan.rank)
        )
        sigma = limit_of_generic_point(pres.fan, v)
        if bool(key & supp) != (sigma in down):
            return False
    return True


def isotropy_at(pres, key):
    """Quasitorus isotropy of the distinguished point of a coordinate
    face: (free rank, torsion factors); finite iff the free rank is 0."""
    key = frozenset(key)
    if key not in pres.coordinate_fan.numbering()[1]:
        raise ValueError("coordinate face is not in the relevant selection")
    n, d = len(pres.fan.rays), pres.fan.rank
    columns = [pres.ray_matrix.column(j) for j in range(d)]
    columns += [pres.coordinate_fan.rays[i] for i in range(n) if i not in key]
    return cokernel_diagnostics(IntMatrix.from_columns(columns, rows=n))


@dataclass(frozen=True)
class RoundTrip:
    ok: bool
    geometric: bool
    detail: str


def round_trip(pres, selection):
    """Quotient of the lift by the quasitorus torus part, compared with
    the selection itself under the canonical identification."""
    lifted = lift_open(pres, selection)
    q = good_quotient(lifted, quasitorus_action(pres))
    if isinstance(q, Obstruction):
        return RoundTrip(False, False, f"lift has no good quotient: {q.detail}")
    if not selection.keys:
        return RoundTrip(True, q.geometric, "empty selection")
    if kernel_lattice(q.proj_full).basis != pres.h_cochar.basis:
        return RoundTrip(
            False, q.geometric, "projection kernel differs from the quasitorus part"
        )
    phi = pres.ray_map @ right_inverse_of_surjection(q.proj_full)
    if not phi.is_unimodular():
        return RoundTrip(
            False,
            q.geometric,
            "no unimodular identification: the rays span a proper sublattice",
        )
    ray_index = {r: i for i, r in enumerate(pres.fan.rays)}
    recovered = set()
    for top, chart in q.chart_map.items():
        gens = [tuple(phi.matvec(q.fan.rays[i])) for i in sorted(top)]
        if any(g not in ray_index for g in gens):
            return RoundTrip(False, q.geometric, "recovered ray is not a fan ray")
        key = frozenset(ray_index[g] for g in gens)
        if frozenset(chart) != key:
            return RoundTrip(
                False,
                q.geometric,
                f"chart of {sorted(key)} is not its own coordinate face",
            )
        recovered.add(key)
    maximal = {
        k
        for k in selection.keys
        if not any(k < other for other in selection.keys)
    }
    if recovered != maximal:
        return RoundTrip(False, q.geometric, "maximal cones are not recovered")
    return RoundTrip(True, q.geometric, "selection recovered")


@dataclass(frozen=True)
class SectionVerdict:
    section: object
    homogeneous: bool
    affine: bool | None  # None: not combinatorially decidable (polynomial)
    contained: bool
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    members: tuple
    coverage: bool
    coverage_witness: tuple | None
    sampled: bool
    witness_family: bool


_NONZERO = tuple(x for x in range(-5, 6) if x)


def _orbit_point(key, n, rng):
    """A seeded point of the orbit of the cone key, as (numerator,
    denominator) pairs: zero exactly at the coordinates of key."""
    return tuple(
        (0, 1) if i in key else (rng.choice(_NONZERO), rng.randint(1, 4))
        for i in range(n)
    )


def _unit_point(key, n):
    """The point of the orbit of the cone key with every other coordinate 1."""
    return tuple((0 if i in key else 1, 1) for i in range(n))


def _vanishing_test(section):
    """The test `nonzero(key, point)`: is the section nonzero at point, an
    orbit point of the cone key?  Prepared once per section, so each point
    costs only its own arithmetic.

    A monomial is nonzero there exactly when its support misses key.  A
    polynomial is evaluated in integers: every term is multiplied by the
    common denominator of the coefficients and by each coordinate's
    denominator to its largest exponent in the polynomial, a positive
    factor that leaves the sign of the sum alone.  Each term is prepared as
    its scaled integer coefficient and one (coordinate, exponent, padding)
    triple per coordinate of positive top exponent, the padding being top
    minus exponent."""
    if isinstance(section, MonomialSection):
        support = section.support()
        return lambda key, point: not key & support
    coeffs = [Fraction(c) for c, _ in section.terms]
    scale = lcm(*(c.denominator for c in coeffs))
    top = [max(col) for col in zip(*(e for _, e in section.terms))]
    terms = [
        (c.numerator * (scale // c.denominator),
         tuple((i, a, t - a) for i, (a, t) in enumerate(zip(exponents, top)) if t))
        for c, (_, exponents) in zip(coeffs, section.terms)
    ]

    def nonzero(key, point):
        total = 0
        for value, factors in terms:
            for i, a, pad in factors:
                num, den = point[i]
                value *= num ** a * den ** pad
            total += value
        return total != 0

    return nonzero


# point pairs drawn for the sampled coverage check
COVERAGE_SAMPLES = 100


def verify_globally_defined(pres, lifted, family, subtorus_generators=(), seed=20260817):
    """Witness-family report: per section, homogeneity for the subtorus,
    affineness of its nonvanishing locus, and containment in the open
    set; plus coverage of point pairs by common members.

    Each member's vanishing test (`_vanishing_test`) is prepared once, in
    family order, so a member listed twice gets its own verdicts.  Every
    vanishing question is one call of it, exact for a monomial, so a
    monomial's verdicts draw nothing; affineness is decided for monomials
    only.  A polynomial is contained if it vanishes at three seeded points
    and the unit point of the orbit of every coordinate-fan cone outside the
    open set.  Coverage takes every ordered pair of orbits for a monomial
    family, and otherwise COVERAGE_SAMPLES seeded point pairs, marking the
    report sampled.  All draws come from one generator seeded by seed:
    containment points member by member, then coverage pairs."""
    if lifted.fan != pres.coordinate_fan:
        raise ValueError("the open set must be a selection on the coordinate fan")
    family = tuple(family)
    if not all(isinstance(s, (MonomialSection, PolynomialSection)) for s in family):
        raise ValueError("family members must be sections")
    n = len(pres.fan.rays)
    lat = saturate(Sublattice.from_rows(pres.fan.rank, subtorus_generators))
    lift = right_inverse_of_surjection(pres.ray_map)
    lifts = [lift.matvec(b) for b in lat.basis.entries]
    rng = random.Random(seed)
    sampled = any(isinstance(s, PolynomialSection) for s in family)
    outside = sorted(set(pres.coordinate_fan.cone_keys()) - lifted.keys, key=sorted)
    tests = [_vanishing_test(s) for s in family]

    members = []
    for section, nonzero_at in zip(family, tests):
        exact = isinstance(section, MonomialSection)
        exponents = [section.exponents] if exact else [e for _, e in section.terms]
        declared = None if exact else section.declared_weight
        weights = {tuple(dot(e, v) for v in lifts) for e in exponents}
        contained = True
        for key in outside:
            points = [] if exact else [_orbit_point(key, n, rng) for _ in range(3)]
            points.append(_unit_point(key, n))
            if any(nonzero_at(key, p) for p in points):
                contained = False
                break
        affine = None
        if exact:
            nonzero = [k for k in lifted.keys if nonzero_at(k, _unit_point(k, n))]
            affine = frozenset().union(*nonzero) in nonzero
        members.append(
            SectionVerdict(
                section,
                homogeneous=len(weights) <= 1
                and (declared is None or weights <= {tuple(declared)}),
                affine=affine,
                contained=contained,
                detail="combinatorial" if exact else "not combinatorially decidable; sampled",
            )
        )

    keys = sorted(lifted.keys, key=sorted)

    def drawn_pairs():
        for _ in range(COVERAGE_SAMPLES if keys else 0):
            ka, kb = rng.choice(keys), rng.choice(keys)
            yield ka, _orbit_point(ka, n, rng), kb, _orbit_point(kb, n, rng)

    pairs = drawn_pairs() if sampled else (
        (a, _unit_point(a, n), b, _unit_point(b, n)) for a in keys for b in keys
    )
    coverage_witness = None
    for ka, pa, kb, pb in pairs:
        if not any(nonzero_at(ka, pa) and nonzero_at(kb, pb) for nonzero_at in tests):
            coverage_witness = (ka, kb)
            break
    coverage = coverage_witness is None
    return WitnessReport(
        members=tuple(members),
        coverage=coverage,
        coverage_witness=coverage_witness,
        sampled=sampled,
        witness_family=coverage
        and all(m.homogeneous and m.affine is not False and m.contained for m in members),
    )
