"""Cone engine tests.

Frozen small examples plus randomized cross-checks against an oracle that
is independent of the production double-description code: candidate rays
are enumerated as kernel lines of inequality subsets using Fraction
Gaussian elimination, then filtered by feasibility.
"""

import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from toricgit.cones import (
    BoundExceededError,
    Cone,
    SizeGuardError,
    _canonical_generators,
    dd_solve,
    hilbert_basis,
    monoid_generators,
)
from toricgit import cones, fans, intlat
from toricgit.fans import Fan, limit_of_generic_point, validate_fan
from toricgit.intlat import (
    IntMatrix,
    Sublattice,
    dot,
    kernel_lattice,
    primitive,
    quotient_lattice_map,
    right_inverse_of_surjection,
    saturate,
    vneg,
    vscale,
    vsub,
)


def frac_kernel_basis(rows, d):
    """Basis of {x in Q^d : r.x = 0 for all r in rows} by row reduction."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(d):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    basis = []
    for fc in (c for c in range(d) if c not in pivots):
        v = [Fraction(0)] * d
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def frac_rank(rows, d):
    return d - len(frac_kernel_basis(rows, d))


def integer_direction(frac_vec):
    den = 1
    for x in frac_vec:
        den = den * x.denominator // gcd(den, x.denominator)
    v = [int(x * den) for x in frac_vec]
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def oracle_extreme_rays(ineqs, d):
    """All extreme rays of {x : a.x >= 0}, assuming the cone is pointed.

    A feasible nonzero direction spanning the kernel of a rank d-1 subset
    of the inequalities is extreme, and every extreme ray arises this way.
    """
    from itertools import combinations

    ineqs = [tuple(a) for a in ineqs if any(a)]
    found = set()
    subsets = [()] if d == 1 else combinations(ineqs, d - 1)
    for sub in subsets:
        ker = frac_kernel_basis(sub, d)
        if len(ker) != 1:
            continue
        v = integer_direction(ker[0])
        for cand in (v, tuple(-x for x in v)):
            if all(dot(a, cand) >= 0 for a in ineqs):
                found.add(cand)
    return tuple(sorted(found))


def random_vectors(rng, count, d, lo=-4, hi=4):
    return [tuple(rng.randint(lo, hi) for _ in range(d)) for _ in range(count)]


QUADRANT = Cone.from_generators([(1, 0), (0, 1)], 2)


class TestDual:
    def test_quadrant_self_dual(self):
        assert QUADRANT.dual() == QUADRANT

    def test_single_ray_gives_half_plane(self):
        ray = Cone.from_generators([(1, 0)], 2)
        dual = ray.dual()
        assert set(dual.generators) == {(1, 0), (0, 1), (0, -1)}
        assert dual.lineality_rank == 1

    def test_zero_cone_gives_full_space(self):
        assert Cone.zero(2).dual() == Cone.full(2)
        assert Cone.full(2).dual() == Cone.zero(2)

    def test_dual_is_the_interned_cone_of_the_facets(self):
        rng = random.Random(20261018)
        for _ in range(30):
            d = rng.randint(1, 3)
            c = Cone.from_generators(random_vectors(rng, rng.randint(0, 4), d), d)
            assert c.dual() is c.dual()
            assert c.dual() is Cone.from_generators(c.facets, c.ambient)

    def test_involution_random_sweep(self):
        rng = random.Random(20260817)
        for _ in range(300):
            d = rng.randint(1, 4)
            gens = random_vectors(rng, rng.randint(0, 6), d)
            c = Cone.from_generators(gens, d)
            assert c.dual().dual() == c

    def test_extreme_rays_match_subset_kernel_oracle(self):
        rng = random.Random(424242)
        pointed_seen = 0
        for _ in range(250):
            d = rng.randint(2, 3)
            ineqs = random_vectors(rng, rng.randint(2, 6), d, -3, 3)
            c = Cone.from_inequalities(ineqs, d)
            ker = frac_kernel_basis([a for a in ineqs if any(a)], d)
            assert len(ker) == c.lineality_rank
            if c.lineality_rank == 0:
                pointed_seen += 1
                assert c.generators == oracle_extreme_rays(ineqs, d)
        assert pointed_seen > 50

    def test_facets_match_oracle_on_full_dimensional_cones(self):
        rng = random.Random(97531)
        for _ in range(200):
            d = rng.randint(2, 3)
            gens = random_vectors(rng, rng.randint(d, 6), d, -3, 3)
            if frac_rank(gens, d) < d:
                continue
            c = Cone.from_generators(gens, d)
            assert c.facets == oracle_extreme_rays(gens, d)


class TestIntersect:
    def test_quadrant_with_left_half_plane(self):
        half = Cone.from_inequalities([(-1, 0)], 2)
        assert QUADRANT.intersect(half).generators == ((0, 1),)

    def test_idempotent(self):
        assert QUADRANT.intersect(QUADRANT) == QUADRANT

    def test_with_full_space(self):
        assert QUADRANT.intersect(Cone.full(2)) == QUADRANT

    def test_meets_in_face(self):
        upper = Cone.from_generators([(1, 1), (0, 1)], 2)
        left = Cone.from_generators([(0, 1), (-1, 0)], 2)
        assert QUADRANT.meets_in_face(left)  # the common ray
        assert not QUADRANT.meets_in_face(upper)  # upper is no face of QUADRANT
        assert not upper.meets_in_face(QUADRANT)

    def test_membership_sampling(self):
        rng = random.Random(1111)
        for _ in range(40):
            d = rng.randint(2, 3)
            a = Cone.from_generators(random_vectors(rng, rng.randint(1, 5), d), d)
            b = Cone.from_generators(random_vectors(rng, rng.randint(1, 5), d), d)
            c = a.intersect(b)
            assert a.meets_in_face(b) == (c.is_face_of(a) and c.is_face_of(b))
            pts = random_vectors(rng, 100, d, -6, 6)
            for p in pts:
                if c.contains(p):
                    assert a.contains(p) and b.contains(p)
            # points assembled inside the intersection must lie in both
            basis = list(c.generators)
            if basis:
                for _ in range(10):
                    coeffs = [Fraction(rng.randint(0, 5), rng.randint(1, 4)) for _ in basis]
                    p = tuple(sum(q * g[i] for q, g in zip(coeffs, basis)) for i in range(d))
                    assert a.contains(p) and b.contains(p)


class TestFaces:
    def test_quadrant_face_lattice(self):
        gens = {f.generators for f in QUADRANT.faces()}
        assert gens == {(), ((1, 0),), ((0, 1),), ((0, 1), (1, 0))}

    def test_zero_cone(self):
        z = Cone.zero(2)
        assert [f.generators for f in z.faces()] == [()]

    def test_half_plane(self):
        half = Cone.from_inequalities([(1, 0)], 2)
        gens = {f.generators for f in half.faces()}
        assert gens == {((0, -1), (0, 1)), ((0, -1), (0, 1), (1, 0))}

    def test_is_face_of(self):
        ray = Cone.from_generators([(1, 0)], 2)
        diag = Cone.from_generators([(1, 1)], 2)
        assert ray.is_face_of(QUADRANT)
        assert not diag.is_face_of(QUADRANT)
        assert QUADRANT.is_face_of(QUADRANT)
        assert Cone.zero(2).is_face_of(QUADRANT)

    def test_simplicial_face_count_random(self):
        rng = random.Random(3333)
        for _ in range(60):
            d = rng.randint(1, 4)
            basis = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
            for _ in range(8):
                i, j = rng.randrange(d), rng.randrange(d)
                if i != j:
                    m = rng.randint(-2, 2)
                    basis[i] = [a + m * b for a, b in zip(basis[i], basis[j])]
            k = rng.randint(0, d)
            c = Cone.from_generators([tuple(r) for r in basis[:k]], d)
            assert c.is_simplicial()
            assert len(c.faces()) == 2 ** k


def reference_faces(cone):
    """Faces by one double-description cut per (face, facet) pair."""
    seen = {cone}
    frontier = [cone]
    while frontier:
        nxt = []
        for c in frontier:
            for phi in c.facets:
                neg = tuple(-x for x in phi)
                cut = Cone.from_inequalities(c.facets + (neg,), cone.ambient)
                if cut not in seen:
                    seen.add(cut)
                    nxt.append(cut)
        frontier = nxt
    return tuple(sorted(seen, key=lambda c: (c.dim(), c.generators)))


def reference_is_face_of(a, b):
    """Cut b by the negated facets tight on a; a is a face iff that gives a."""
    if not b.contains_cone(a):
        return False
    tight = [phi for phi in b.facets if all(dot(phi, g) == 0 for g in a.generators)]
    extra = tuple(tuple(-x for x in phi) for phi in tight)
    return Cone.from_inequalities(b.facets + extra, a.ambient) == a


def reference_cone_keys(fan):
    found = {frozenset()}
    for top in fan.max_cones:
        for face in reference_faces(fan.cone(top)):
            found.add(frozenset(i for i in top if face.contains(fan.rays[i])))
    return tuple(sorted(found, key=lambda k: (fan.cone(k).dim(), sorted(k))))


def reference_limit(fan, keys, v):
    """First key, in cone_keys order, holding v in its relative interior."""
    return next(
        (k for k in keys if fan.cone(k).contains_in_relative_interior(v)), None
    )


def cube_facet_fan(signs):
    """Cones over the facets x_axis = sign of [-1, 1]^3 (four rays each)."""
    corners = [(x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1)]
    used = [r for r in corners if any(r[axis] == s for axis, s in signs)]
    cones = [[i for i, r in enumerate(used) if r[axis] == s] for axis, s in signs]
    return Fan(3, used, cones)


P3 = Fan(
    3,
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
)
CUBE_FACETS = cube_facet_fan([(0, 1), (1, 1)])
# a 3-dimensional cone with five rays beside a 4-dimensional simplicial one:
# sorting keys by their number of rays would put the larger cone first
PENTAGON_AND_SIMPLEX = Fan(
    4,
    [(1, 0, 1, 0), (0, 1, 1, 0), (-1, 1, 1, 0), (-1, 0, 1, 0), (0, -1, 1, 0),
     (0, 0, -1, 1), (1, 0, -1, 1), (0, 1, -1, 1), (0, 0, -1, 2)],
    [[0, 1, 2, 3, 4], [5, 6, 7, 8]],
)


class TestFacesAgainstDoubleDescription:
    """The incidence routines against the per-cut double description."""

    def random_cones(self, rng):
        cube = cube_facet_fan([(axis, s) for axis in range(3) for s in (1, -1)])
        cones = [cube.cone(top) for top in cube.max_cones]
        for _ in range(70):
            d = rng.randint(1, 4)
            vecs = random_vectors(rng, rng.randint(0, 6), d, -3, 3)
            if rng.random() < 0.5:
                cones.append(Cone.from_generators(vecs, d))
            else:
                cones.append(Cone.from_inequalities(vecs, d))
        return cones

    def test_faces_and_is_face_of(self):
        rng = random.Random(20021101)
        cones = self.random_cones(rng)
        assert any(not c.is_pointed() and c.facets for c in cones)
        assert any(c.is_pointed() and not c.is_simplicial() for c in cones)
        for c in cones:
            ref = reference_faces(c)
            got = c.faces()
            assert got == ref
            assert [f.facets for f in got] == [f.facets for f in ref]
            d = c.ambient
            candidates = list(ref)
            for _ in range(6):
                sub = [g for g in c.generators if rng.random() < 0.5]
                candidates.append(Cone.from_generators(sub, d))
            candidates.append(Cone.from_generators(random_vectors(rng, 2, d, -2, 2), d))
            candidates.append(Cone.zero(d))
            for a in candidates:
                assert a.is_face_of(c) == reference_is_face_of(a, c), (a, c)

    @pytest.mark.parametrize(
        "fan",
        [P3, CUBE_FACETS, PENTAGON_AND_SIMPLEX],
        ids=["P3", "cube_facets", "pentagon_and_simplex"],
    )
    def test_cone_keys_and_limits(self, fan):
        assert validate_fan(fan).valid
        keys = reference_cone_keys(fan)
        assert fan.cone_keys() == keys
        rng = random.Random(4242)
        points = [(0,) * fan.rank]
        points += [fan.cone(k).relative_interior_point() for k in keys]
        points += random_vectors(rng, 150, fan.rank, -3, 3)
        for v in points:
            assert limit_of_generic_point(fan, v) == reference_limit(fan, keys, v), v


class TestImageAndQueries:
    def test_image_of_quadrant_under_difference_map(self):
        pi = IntMatrix(((1, -1),))
        img = QUADRANT.image(pi)
        assert img == Cone.full(1)
        assert img.lineality_rank == 1

    def test_image_of_ray(self):
        pi = IntMatrix(((1, -1),))
        assert Cone.from_generators([(1, 0)], 2).image(pi).generators == ((1,),)

    def test_image_of_zero_cone(self):
        pi = IntMatrix(((1, -1),))
        assert Cone.zero(2).image(pi) == Cone.zero(1)

    def test_contains(self):
        assert QUADRANT.contains((1, 1))
        assert QUADRANT.contains((0, 0))
        assert not QUADRANT.contains((-1, 2))
        assert QUADRANT.contains((Fraction(1, 2), Fraction(3, 7)))

    def test_relative_interior(self):
        assert QUADRANT.contains_in_relative_interior((1, 1))
        assert not QUADRANT.contains_in_relative_interior((1, 0))
        assert Cone.zero(2).contains_in_relative_interior((0, 0))

    def test_is_simplicial(self):
        # a redundant generating list still describes the (simplicial) quadrant
        redundant = Cone.from_generators([(1, 0), (0, 1), (1, 1)], 2)
        assert redundant == QUADRANT
        assert redundant.is_simplicial()
        half = Cone.from_inequalities([(1, 0)], 2)
        assert not half.is_simplicial()
        square = Cone.from_generators(
            [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], 3
        )
        assert not square.is_simplicial()
        assert Cone.zero(3).is_simplicial()


class TestHilbertBasis:
    def test_quadrant(self):
        assert set(hilbert_basis(QUADRANT, bound=5)) == {(1, 0), (0, 1)}

    def test_width_two_cone(self):
        c = Cone.from_generators([(1, 0), (1, 2)], 2)
        assert set(hilbert_basis(c, bound=5)) == {(1, 0), (1, 1), (1, 2)}

    def test_width_three_cone(self):
        c = Cone.from_generators([(1, 0), (1, 3)], 2)
        assert set(hilbert_basis(c, bound=5)) == {(1, 0), (1, 1), (1, 2), (1, 3)}

    def test_bound_exceeded_is_explicit(self):
        c = Cone.from_generators([(1, 0), (1, 3)], 2)
        with pytest.raises(BoundExceededError) as exc:
            hilbert_basis(c, bound=2)
        assert exc.value.needed == 3
        assert set(hilbert_basis(c, bound=exc.value.needed)) == set(
            hilbert_basis(c, bound=None)
        )

    def test_explicit_bound_above_the_certificate_changes_nothing(self):
        c = Cone.from_generators([(1, 0), (1, 3)], 2)
        assert hilbert_basis(c, bound=10 ** 6) == hilbert_basis(c)

    def test_oversized_box_is_refused_before_enumeration(self, monkeypatch):
        # need = 51 on the last coordinate: a box of 103^3 > 2^20 points
        c = Cone.from_generators([(1, 0, 0), (0, 1, 0), (1, 0, 51)], 3)

        def enumerated(*args):
            raise AssertionError("the box was enumerated")

        monkeypatch.setattr(Cone, "dual", enumerated)
        monkeypatch.setattr(Cone, "contains", enumerated)
        with pytest.raises(SizeGuardError, match="1092727 points"):
            hilbert_basis(c)
        with pytest.raises(SizeGuardError):
            hilbert_basis(c, bound=51)
        assert issubclass(SizeGuardError, ValueError)
        assert fans.SizeGuardError is SizeGuardError

    def test_non_pointed_rejected(self):
        half = Cone.from_inequalities([(1, 0)], 2)
        with pytest.raises(ValueError):
            hilbert_basis(half, bound=5)

    def test_dual_pairing_nonnegative_sweep(self):
        rng = random.Random(555)
        checked = 0
        while checked < 30:
            d = rng.randint(2, 3)
            gens = random_vectors(rng, rng.randint(d, 4), d, -2, 2)
            if frac_rank(gens, d) < d:
                continue
            c = Cone.from_generators(gens, d)
            for m in hilbert_basis(c.dual()):
                assert all(dot(m, v) >= 0 for v in c.generators)
            checked += 1

    def test_monoid_generators_of_half_plane(self):
        half = Cone.from_inequalities([(1, 0)], 2)
        assert set(monoid_generators(half)) == {(0, 1), (0, -1), (1, 0)}

    def test_hilbert_basis_is_minimal_and_generates(self):
        rng = random.Random(777)
        checked = 0
        while checked < 20:
            gens = random_vectors(rng, 2, 2, 0, 4)
            c = Cone.from_generators(gens, 2)
            if not c.is_pointed() or c.dim() != 2:
                continue
            hb = hilbert_basis(c)
            for i, h in enumerate(hb):
                others = [x for j, x in enumerate(hb) if j != i]
                assert not _in_monoid(h, others, c)
            for p in random_vectors(rng, 30, 2, 0, 6):
                if c.contains(p):
                    assert _in_monoid(p, list(hb), c)
            checked += 1


def _in_monoid(p, gens, cone):
    """Exhaustive monoid membership for small nonnegative instances."""
    if all(x == 0 for x in p):
        return True
    return any(
        cone.contains(tuple(a - b for a, b in zip(p, g)))
        and _in_monoid(tuple(a - b for a, b in zip(p, g)), gens, cone)
        for g in gens
    )


def direct_lists(route, vectors, d):
    """(generators, facets) by two double descriptions, with no interner."""
    vectors = [tuple(v) for v in vectors if any(v)]
    other = _canonical_generators(*dd_solve(vectors, d), d)
    own = _canonical_generators(*dd_solve(other, d), d)
    return (own, other) if route == "g" else (other, own)


def variants(rng, vectors):
    """The same input vector set, permuted, duplicated, zero-padded and with
    some vectors scaled by positive integers."""
    d = len(vectors[0])
    permuted = rng.sample(vectors, len(vectors))
    duplicated = vectors + rng.sample(vectors, max(1, len(vectors) // 2))
    padded = [(0,) * d] + vectors + [(0,) * d]
    scaled = [vscale(rng.randint(1, 4), v) for v in vectors]
    return [permuted, duplicated, padded, scaled]


class TestInterner:
    BUILD = {"g": Cone.from_generators, "i": Cone.from_inequalities}

    @pytest.mark.parametrize("route", ["g", "i"])
    def test_equal_inputs_share_one_cone(self, route):
        rng = random.Random(8 if route == "g" else 9)
        build = self.BUILD[route]
        for _ in range(30):
            d = rng.choice([2, 3])
            vectors = random_vectors(rng, rng.randint(1, 5), d, -3, 3)
            if not any(any(v) for v in vectors):
                continue
            held = build(vectors, d)
            assert (held.generators, held.facets) == direct_lists(route, vectors, d)
            for other in variants(rng, vectors):
                assert build(other, d) is held
                assert (held.generators, held.facets) == direct_lists(route, other, d)

    def test_generators_and_inequalities_never_alias(self):
        rng = random.Random(10)
        sets = [[(1, 0), (0, 1)], [(1, 0)], []]
        sets += [random_vectors(rng, 3, 2, -3, 3) for _ in range(10)]
        for vectors in sets:
            spanned = Cone.from_generators(vectors, 2)
            cut = Cone.from_inequalities(vectors, 2)
            assert spanned is not cut
            assert cut == spanned.dual()

    def test_dropping_the_last_holder_empties_the_entry(self):
        gc.collect()
        gc.disable()
        try:
            before = set(cones._INTERNED.keys())
            held = Cone.from_generators([(977, 1, 0), (0, 983, 1)], 3)
            added = set(cones._INTERNED.keys()) - before
            assert len(added) == 1
            assert Cone.from_generators([(0, 983, 1), (977, 1, 0)], 3) is held
            del held
            assert not added & set(cones._INTERNED.keys())
        finally:
            gc.enable()

    def test_faces_keep_no_reference_to_their_cone(self):
        # the cone's own key is its canonical generator set, so a stored
        # self-face would be a cycle that only the cyclic collector breaks
        key = ("g", 2, frozenset({(5, 7), (3, 11)}))
        gc.collect()
        gc.disable()
        try:
            held = Cone.from_generators([(5, 7), (3, 11)], 2)
            assert held.faces()[-1] is held
            assert cones._INTERNED.get(key) is held
            del held
            assert key not in cones._INTERNED
        finally:
            gc.enable()

    @staticmethod
    def run_fresh(script):
        """stdout lines of script, split into integers, from a fresh
        interpreter: cones that other test modules keep alive stay interned,
        and a sweep would find them and fill their lazy members."""
        env = dict(os.environ, PYTHONPATH=str(Path(cones.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        return [tuple(map(int, line.split())) for line in done.stdout.splitlines()]

    # two default-seed P(1,1,2) sweeps on fresh objects, each printing
    # whether it is clean and how often module.name ran in it
    COLD_PASSES = """
import gc
from toricgit import corpus, {module}
from toricgit.fans import Fan

runs = [0]
real = {module}.{name}

def counting(*args):
    runs[0] += 1
    return real(*args)

{module}.{name} = counting
for _ in range(2):
    p112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{{0, 1}}, {{1, 2}}, {{0, 2}}])
    gc.collect()
    gc.disable()
    runs[0] = 0
    clean = corpus.run_sweep(fans=[p112]).clean()
    gc.enable()
    print(int(clean), runs[0])
"""

    def cold_pass_counts(self, module, name):
        passes = self.run_fresh(self.COLD_PASSES.format(module=module, name=name))
        assert [clean for clean, _ in passes] == [1, 1]
        return [runs for _, runs in passes]

    def test_each_sweep_pass_starts_cold(self):
        # a strong cache would make the second pass run no double description;
        # every run is counted, the cold ones of dd_solve and the warm ones
        # of meets_in_face
        counts = self.cold_pass_counts("cones", "_dd_add")
        assert counts[0] == counts[1] <= 117

    def test_each_sweep_pass_runs_the_same_smith_forms(self):
        # the staged quotients' lattice facts live on the actions' memos,
        # so a second pass on fresh objects recomputes every one of them
        counts = self.cold_pass_counts("intlat", "smith_normal_form")
        assert counts[0] == counts[1] <= 387

    def test_a_sweep_leaves_no_action_in_cyclic_garbage(self):
        # memo keys are values: a key holding an action would make a cycle
        # from the action through its memos, found here as saved garbage
        script = """
import gc
from toricgit import corpus
from toricgit.fans import Fan
from toricgit.quotients import Rows, SubtorusAction

p112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
clean = corpus.run_sweep(fans=[p112]).clean()
gc.collect()
held = [o for o in gc.garbage if isinstance(o, (SubtorusAction, Rows))]
print(int(clean), len(held))
"""
        assert self.run_fresh(script) == [(1, 0)]

    def test_a_sweep_leaves_no_oracle_closure_in_cyclic_garbage(self):
        # a helper that recursed through a closure naming itself would leave
        # each call's function and cells, and the cones they hold, to the
        # cyclic collector; the sweep leaves no cell at all
        script = """
import gc
import types
from toricgit import corpus
from toricgit.fans import Fan

p112 = Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}])
gc.collect()
gc.disable()
gc.set_debug(gc.DEBUG_SAVEALL)
clean = corpus.run_sweep(fans=[p112]).clean()
gc.collect()
functions = [o for o in gc.garbage if isinstance(o, types.FunctionType)
             and o.__module__ == "toricgit.oracles"]
cells = [o for o in gc.garbage if isinstance(o, types.CellType)]
print(int(clean), len(functions), len(cells))
"""
        assert self.run_fresh(script) == [(1, 0, 0)]

    # Keys a sweep may still miss on after their first build.  The cones
    # `mutually_generate` builds are held beside the ring check's verdict;
    # without that a P(1,1,2) sweep has 26 rebuilds.  The pointed images
    # that `monoid_generators` takes are held in the oracle memo values that
    # asked for them; without that each fan has 6 rebuilds (3 keys built 3
    # times each).
    SWEEP_REBUILD_RESIDUE = 0

    def test_no_cone_is_built_twice_in_a_sweep(self):
        # every cone an oracle helper builds is a memo value on the action,
        # so it stays interned for the whole sweep
        script = """
import gc
from collections import Counter
from toricgit import cones, corpus
from toricgit.fans import Fan
from toricgit.intlat import primitive

misses = Counter()
interned = cones._interned

def counting(route, vectors, ambient):
    vectors = [tuple(int(x) for x in v) for v in vectors if any(v)]
    key = (route, ambient, frozenset(primitive(v) for v in vectors))
    if key not in cones._INTERNED:
        misses[key] += 1
    return interned(route, vectors, ambient)

cones._interned = counting
six = [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)]
for fan in (
    Fan(2, [(1, 0), (0, 1), (-1, -2)], [{0, 1}, {1, 2}, {0, 2}]),
    Fan(2, six, [{i, (i + 1) % 6} for i in range(6)]),
):
    gc.collect()
    gc.disable()
    misses.clear()
    clean = corpus.run_sweep(fans=[fan]).clean()
    gc.enable()
    print(int(clean), sum(misses.values()) - len(misses))
"""
        passes = self.run_fresh(script)
        assert [clean for clean, _ in passes] == [1, 1]
        assert max(rebuilt for _, rebuilt in passes) <= self.SWEEP_REBUILD_RESIDUE

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def vector_sets(draw):
    """Up to six vectors in Z^d, d <= 5; short lists are mostly independent."""
    d = draw(st.integers(1, 5))
    return draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=6)), d


class TestOneDoubleDescriptionForIndependentInputs:
    @PROPERTY
    @given(vector_sets(), st.sampled_from(["g", "i"]))
    def test_both_routes_match_two_double_descriptions(self, drawn, route):
        vectors, d = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            got = TestInterner.BUILD[route](vectors, d)
        assert (got.generators, got.facets) == direct_lists(route, vectors, d)

    @pytest.mark.parametrize("route", ["g", "i"])
    @pytest.mark.parametrize("vectors, d, runs", [
        ([(977, 1, 0), (0, 983, 1)], 3, 1),
        ([(2, 0, 0), (0, 3, 0), (0, 0, 5), (1, 0, 0)], 3, 0),  # one ray, twice
        ([], 3, 0),
        ([(1, 0), (0, 1), (1, 1)], 2, 2),
        ([(1, 0), (-1, 0)], 2, 2),
        ([(1, 2, 3), (2, 4, 6), (0, 0, 0)], 3, 0),  # one ray
        ([(1, 1, 0), (0, 1, 1), (1, 2, 1)], 3, 2),
    ])
    def test_a_miss_runs_none_for_a_basis_and_one_iff_independent(
        self, monkeypatch, route, vectors, d, runs
    ):
        # no input, one ray and a basis of Z^d take the closed form
        monkeypatch.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
        calls = 0
        solve = cones.dd_solve

        def counted(*args):
            nonlocal calls
            calls += 1
            return solve(*args)

        monkeypatch.setattr(cones, "dd_solve", counted)
        got = TestInterner.BUILD[route](vectors, d)
        assert calls == runs
        assert (got.generators, got.facets) == direct_lists(route, vectors, d)

    @PROPERTY
    @given(vector_sets(), st.sampled_from(["g", "i"]))
    def test_a_miss_reads_the_second_list_off_an_interned_cone(self, drawn, route):
        # the cone generated by the first run's list is interned beforehand:
        # the dual on route "g", the cone itself on route "i"
        vectors, d = drawn
        want = direct_lists(route, vectors, d)
        calls = 0
        solve = cones.dd_solve

        def counted(*args):
            nonlocal calls
            calls += 1
            return solve(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            held = Cone.from_generators(want[1] if route == "g" else want[0], d)
            mp.setattr(cones, "dd_solve", counted)
            got = TestInterner.BUILD[route](vectors, d)
        assert (got.generators, got.facets) == want and calls <= 1
        assert held.facets == (want[0] if route == "g" else want[1])


def counted_calls(mp, calls, *targets):
    """Count the calls of each (module, name) in calls[name] under mp."""
    for module, name in targets:
        real = getattr(module, name)

        def run(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        mp.setattr(module, name, run)


@st.composite
def square_sets(draw):
    """d vectors in Z^d for 1 <= d <= 4, or no vector for 0 <= d <= 4."""
    d = draw(st.integers(0, 4))
    if d == 0 or draw(st.integers(0, 5)) == 0:
        return [], d
    return draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=d, max_size=d)), d


class TestClosedFormForABasis:
    @PROPERTY
    @given(square_sets(), st.sampled_from(["g", "i"]))
    @example(([], 0), "g")
    @example(([], 0), "i")
    @example(([(2, -4), (1, -2)], 2), "g")
    @example(([(0, 3, 0), (0, 0, 0), (0, 1, 0)], 3), "i")
    def test_no_input_and_a_basis_take_no_double_description(self, drawn, route):
        # the closed form for no input and a basis runs no double
        # description and no Smith form, and one ray's runs one Smith form;
        # other dependent vectors take the general route to the same lists
        vectors, d = drawn
        want = direct_lists(route, vectors, d)
        nonzero = [v for v in vectors if any(v)]
        closed = not nonzero or len(nonzero) == d and IntMatrix(nonzero, cols=d).det() != 0
        ray = len({primitive(v) for v in nonzero}) == 1
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            counted_calls(mp, calls, (cones, "dd_solve"), (intlat, "smith_normal_form"))
            got = TestInterner.BUILD[route](vectors, d)
        assert (got.generators, got.facets) == want
        if closed:
            assert calls == Counter()
        elif ray:
            assert calls == Counter({"smith_normal_form": 1})
        else:
            assert calls["dd_solve"] >= 1


class TestClosedFormForOneRay:
    @PROPERTY
    @given(st.integers(1, 5).flatmap(
        lambda d: st.tuples(st.tuples(*[st.integers(-6, 6)] * d).filter(any), st.just(d))
    ), st.sampled_from(["g", "i"]), st.integers(1, 3))
    @example(((0, 0, -3), 3), "g", 1)
    @example(((5, -10, 0, 15, 0), 5), "i", 2)
    def test_one_ray_takes_one_smith_form(self, drawn, route, scale):
        # the closed form is the general route's second list, and the
        # cone's lists are the two double descriptions' on either route
        v, d = drawn
        u = primitive(v)
        if d > 1:
            assert cones._ray_other(u, d) == _canonical_generators(*dd_solve([v], d), d)
        want = direct_lists(route, [v], d)
        calls = Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            counted_calls(mp, calls, (cones, "dd_solve"), (intlat, "smith_normal_form"))
            got = TestInterner.BUILD[route]([vscale(scale, v), v], d)
        assert (got.generators, got.facets) == want
        # in Z^1 one vector is a basis, which takes no Smith form
        assert calls == (Counter({"smith_normal_form": 1}) if d > 1 else Counter())


def four_smith_canonical_generators(lin_rows, rays, ambient):
    """Reference canonical form: saturate the lineality lattice by a double
    kernel, then take its quotient map and that map's section, each from a
    Smith form of its own (four in all)."""
    lat = saturate(Sublattice.from_rows(ambient, lin_rows))
    gens = set()
    if lat.rank:
        q = quotient_lattice_map(lat)
        s = right_inverse_of_surjection(q)
        for b in lat.basis.entries:
            gens.add(tuple(b))
            gens.add(vneg(b))
        for r in rays:
            w = primitive(q.matvec(r))
            if any(w):
                gens.add(s.matvec(w))
    else:
        for r in rays:
            if any(r):
                gens.add(primitive(r))
    return tuple(sorted(gens))


@st.composite
def split_inputs(draw):
    """Lineality rows and rays in Z^d for d <= 6, in any position."""
    d = draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(-4, 4)] * d)
    lin_rows = draw(st.lists(vector, max_size=d))
    rays = draw(st.lists(vector, max_size=6))
    return lin_rows, rays, d


class TestDifferentialAgainstFourSmithSplit:
    @PROPERTY
    @given(split_inputs())
    # a three-row quotient map, where a Hermite form that depends on its
    # input rows would give the two routes different sections
    @example(([(-3, 1, -3, -3, 1), (-4, -5, 1, -1, -3)], [(-3, 3, 2, -4, -6)], 5))
    def test_random_inputs(self, inputs):
        assert _canonical_generators(*inputs) == four_smith_canonical_generators(*inputs)

    def test_double_description_outputs(self):
        rng = random.Random(41)
        for _ in range(150):
            d = rng.randint(2, 4)
            vectors = random_vectors(rng, rng.randint(1, 5), d, -3, 3)
            lin, rays = dd_solve(vectors, d)
            assert _canonical_generators(lin, rays, d) == (
                four_smith_canonical_generators(lin, rays, d)
            )


@st.composite
def cones_and_points(draw):
    """A cone by either route in Z^d, d <= 4, and up to three of its points,
    each a nonnegative combination of its generators."""
    d = draw(st.integers(1, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), max_size=5))
    build = draw(st.sampled_from((Cone.from_generators, Cone.from_inequalities)))
    c = build(vectors, d)
    points = []
    for _ in range(draw(st.integers(1, 3))):
        point = (0,) * d
        for g in c.generators:
            k = draw(st.integers(0, 2))
            point = tuple(x + k * y for x, y in zip(point, g))
        points.append(point)
    return c, points


class TestConeProperties:
    @PROPERTY
    @given(cones_and_points())
    def test_lineality_read_off_the_generators(self, drawn):
        c, _ = drawn
        assert c.lineality_lattice() == kernel_lattice(IntMatrix(c.facets, cols=c.ambient))

    @PROPERTY
    @given(cones_and_points())
    def test_dual_is_an_involution_on_interned_cones(self, drawn):
        # x is filed under its input vectors, dual() looks cones up under
        # their canonical generators, so c is the object it returns
        x, _ = drawn
        c = Cone.from_generators(x.generators, x.ambient)
        assert c == x
        assert x.dual().dual() is c
        assert c.dual().dual() is c
        assert Cone.from_generators(c.generators, c.ambient) is c

    @PROPERTY
    @given(cones_and_points())
    def test_faces_are_closed_under_taking_faces(self, drawn):
        c, _ = drawn
        faces = set(c.faces())
        assert all(set(f.faces()) <= faces for f in faces)

    @PROPERTY
    @given(cones_and_points())
    def test_carrier_generators_are_minimal(self, drawn):
        # the carrier is a face holding every point, and a face without any
        # one of its generators loses a point
        c, points = drawn
        carrier = c.carrier_generators(points)
        face = Cone.from_generators(carrier, c.ambient)
        assert face.generators == carrier and face.is_face_of(c)
        assert all(face.contains(p) for p in points)
        for g in carrier:
            for other in c.faces():
                if g not in other.generators:
                    assert not all(other.contains(p) for p in points)


def frozenset_dd_solve(ineqs, ambient):
    """Reference double description: the same steps as `dd_solve`, with each
    ray's tight inequalities a frozenset rebuilt from dot products at every
    cut, and each pairing recomputed where it is read."""
    lin = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
    rays = []
    processed = []
    for raw in ineqs:
        a = primitive(raw)
        if not any(a):
            continue
        lin_pairing = [dot(a, b) for b in lin]
        if any(lin_pairing):
            i0 = next(i for i, v in enumerate(lin_pairing) if v != 0)
            b0 = lin[i0] if lin_pairing[i0] > 0 else vneg(lin[i0])
            ab0 = abs(lin_pairing[i0])
            new_lin = []
            for i, (b, ab) in enumerate(zip(lin, lin_pairing)):
                if i == i0:
                    continue
                new_lin.append(b if ab == 0 else primitive(vsub(vscale(ab0, b), vscale(ab, b0))))
            new_rays = []
            for r in rays:
                ar = dot(a, r)
                new_rays.append(r if ar == 0 else primitive(vsub(vscale(ab0, r), vscale(ar, b0))))
            new_rays.append(b0)
            lin = new_lin
            rays = list(dict.fromkeys(new_rays))
        else:
            plus = [r for r in rays if dot(a, r) > 0]
            zero = [r for r in rays if dot(a, r) == 0]
            minus = [r for r in rays if dot(a, r) < 0]
            if minus:
                tight = {
                    r: frozenset(j for j, aj in enumerate(processed) if dot(aj, r) == 0)
                    for r in rays
                }
                combos = []
                for p in plus:
                    for m in minus:
                        t = tight[p] & tight[m]
                        if any(r is not p and r is not m and t <= tight[r] for r in rays):
                            continue
                        w = primitive(vsub(vscale(dot(a, p), m), vscale(dot(a, m), p)))
                        if any(w):
                            combos.append(w)
                rays = list(dict.fromkeys(plus + zero + combos))
        processed.append(a)
    return lin, rays


def incidence_masks(points, ineqs):
    """Per point, the mask of the nonzero inequalities vanishing there,
    numbered in input order with the zero ones skipped."""
    ineqs = [a for a in ineqs if any(a)]
    return [sum(1 << j for j, a in enumerate(ineqs) if not dot(a, p)) for p in points]


class TestBitMaskDoubleDescription:
    def test_identical_lists_on_seeded_inputs(self):
        # from the whole space every first cut peels the lineality, and
        # short lists leave some of it uncut
        rng = random.Random(2024)
        for _ in range(3000):
            d = rng.randint(1, 5)
            vectors = random_vectors(rng, rng.randint(0, 9), d, -3, 3)
            assert dd_solve(vectors, d) == frozenset_dd_solve(vectors, d), vectors

    def test_the_masks_are_the_incidences(self):
        rng = random.Random(2025)
        for _ in range(500):
            d = rng.randint(1, 5)
            vectors = random_vectors(rng, rng.randint(0, 9), d, -3, 3)
            start = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
            lin, rays, tight, count = cones._dd_add(start, [], [], 0, vectors)
            assert tight == incidence_masks(rays, vectors)
            assert count == sum(1 for v in vectors if any(v))
            assert not any(dot(a, b) for a in vectors for b in lin)

    def test_a_warm_start_from_a_cones_lists_describes_the_meet(self):
        # a cone's canonical lists are a double description of the cone its
        # facets cut out, so adding another cone's facets yields the meet
        rng = random.Random(2026)
        for _ in range(400):
            d = rng.randint(1, 4)
            a, b = (
                rng.choice([Cone.from_generators, Cone.from_inequalities])(
                    random_vectors(rng, rng.randint(0, 5), d, -2, 2), d
                )
                for _ in range(2)
            )
            lin, rays, tight = a._double_description()
            assert list(tight) == incidence_masks(rays, a.facets)
            lin, rays, tight, count = cones._dd_add(
                lin, rays, tight, len(a.facets), b.facets
            )
            assert count == len(a.facets) + len(b.facets)
            assert list(tight) == incidence_masks(rays, a.facets + b.facets)
            assert _canonical_generators(lin, rays, d) == a.intersect(b).generators


@st.composite
def cone_pairs(draw):
    """Two cones in Z^d, d <= 4, each by either route: lower-dimensional,
    with lineality or both."""
    d = draw(st.integers(1, 4))
    vectors = st.lists(st.tuples(*[st.integers(-2, 2)] * d), max_size=5)
    routes = st.sampled_from(["g", "i"])
    return d, [(draw(routes), draw(vectors)) for _ in range(2)]


class TestMeetsInFaceProperty:
    @PROPERTY
    @given(cone_pairs(), st.booleans())
    def test_the_verdict_is_its_definition(self, drawn, swapped):
        # each pair is built in an empty interner, so no verdict is kept yet,
        # and either cone runs the double description
        d, inputs = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            a, b = (TestInterner.BUILD[route](vectors, d) for route, vectors in inputs)
            got = b.meets_in_face(a) if swapped else a.meets_in_face(b)
            meet = a.intersect(b)
            assert got == (meet.is_face_of(a) and meet.is_face_of(b))
            assert a.meets_in_face(b) == b.meets_in_face(a) == got


def warm_step_meets_in_face(a, b):
    """The meet verdict of one warm `_dd_add` step from a's own lists with
    b's facets, as `Cone.meets_in_face` takes it for two cones that are
    not rays."""
    k = len(a.facets)
    _, _, tight, _ = cones._dd_add(*a._double_description(), k, b.facets)
    common = -1
    for t in tight:
        common &= t
    return a._carrier_within(common, b) and b._carrier_within(common >> k, a)


@st.composite
def rays_and_cones(draw):
    """A ray cone(u) and a cone C in Z^d, d <= 4: C by either route, or
    with a line, or inside the last coordinate hyperplane; u is drawn
    freely or as a sum of some of C's generators."""
    d = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(-2, 2)] * d)
    kind = draw(st.sampled_from(["any", "with a line", "lower-dimensional"]))
    vectors = draw(st.lists(vector, max_size=5))
    route = draw(st.sampled_from(["g", "i"])) if kind == "any" else "g"
    if kind == "with a line":
        line = draw(vector.filter(any))
        vectors += [line, vneg(line)]
    elif kind == "lower-dimensional":
        vectors = [v[:-1] + (0,) for v in vectors]
    picks = draw(st.lists(st.integers(0, 6), max_size=3))
    return d, kind, route, vectors, picks, draw(vector.filter(any))


class TestRayMeetRule:
    @PROPERTY
    @given(rays_and_cones(), st.booleans())
    def test_the_rule_is_the_warm_step_verdict(self, drawn, swapped):
        # each pair is built in an empty interner, so no verdict is kept
        # yet, and the rule runs no `_dd_add` step in either order
        d, kind, route, vectors, picks, free = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_INTERNED", weakref.WeakValueDictionary())
            c = TestInterner.BUILD[route](vectors, d)
            inside = [0] * d
            for p in picks:
                if c.generators:
                    inside = [x + y for x, y in zip(inside, c.generators[p % len(c.generators)])]
            ray = Cone.from_generators([inside if any(inside) else free], d)
            want = warm_step_meets_in_face(c, ray)
            assert want == warm_step_meets_in_face(ray, c)
            meet = c.intersect(ray)
            assert want == (meet.is_face_of(c) and meet.is_face_of(ray))
            calls = Counter()
            counted_calls(mp, calls, (cones, "_dd_add"))
            got = c.meets_in_face(ray) if swapped else ray.meets_in_face(c)
            assert calls == Counter()
        assert got == want
        assert c.meets_in_face(ray) == ray.meets_in_face(c) == got
        if kind == "with a line":
            assert not c.is_pointed()
        elif kind == "lower-dimensional":
            assert c.dim() < d
