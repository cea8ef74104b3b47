"""Tests for lattice construction, enumeration, and equivalence."""

import decimal
import math
import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from framelat import lattice
from framelat.circulant import load_pairs, search_conference_pairs
from framelat.exact import (
    NotPositiveDefiniteError,
    SurdValue,
    bareiss_determinant,
    floor_sqrt,
    mat_inverse,
    mat_mul,
    transpose,
)
from framelat.frames import (
    CoordinateFrame,
    FrameSpec,
    IrrationalAlphaError,
    conference_frame,
    coordinatize,
    frame_6_16,
    frame_7_28,
    frame_alpha,
    gram_consistency_holds,
    preferred_variant,
    simplex_frame,
)
from framelat.lattice import (
    LatticeModel,
    MinVecReport,
    SearchBudgetExceededError,
    alpha_gate,
    brute_force_short_vectors,
    enumerate_short_vectors,
    equivalence_classes,
    frame_vectors_are_minimal,
    has_basis_of_minimal_vectors,
    lattice_determinant,
    lattice_model,
    minimal_vectors,
    non_lattice_witness_3_6,
    packing_density,
    scalar_orthogonal_equivalence,
)
from test_circulant import CACHE_25

F = Fraction


def model_from_gram(rows):
    gram = [[F(v) for v in row] for row in rows]
    return LatticeModel(gram)


def random_pd_gram(rng, k):
    """a'a/d + I with small integer a and d: positive definite, mixed denominators."""
    a = [[F(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
    d = rng.randint(1, 6)
    q = [[v / d for v in row] for row in mat_mul(transpose(a), a)]
    for i in range(k):
        q[i][i] += 1
    return q


# --- alpha gate ---------------------------------------------------------------

def test_alpha_gate_irrational_families():
    for (k, n, rad) in ((3, 6, 5), (7, 14, 13), (9, 18, 17)):
        assert alpha_gate(k, n) is False
        assert frame_alpha(k, n) == SurdValue(F(1), rad)


def test_alpha_gate_rational_families():
    for (k, n, a) in ((5, 10, 3), (6, 16, 3), (7, 28, 3), (13, 26, 5), (25, 50, 7)):
        assert alpha_gate(k, n) is True
        assert frame_alpha(k, n) == SurdValue(F(a))


def test_alpha_gate_simplex():
    for k in range(2, 13):
        assert alpha_gate(k, k + 1) is True
        assert frame_alpha(k, k + 1) == SurdValue(F(k))


def test_alpha_gate_domain():
    with pytest.raises(ValueError):
        alpha_gate(1, 5)
    with pytest.raises(ValueError):
        alpha_gate(5, 5)


# --- constructive lattice test: rational coordinates over a basis -------------

def test_lattice_test_simplex():
    cf = coordinatize(simplex_frame(5).frame)
    assert [row[5:] for row in cf.coords] == [[-1]] * 5
    assert cf.beta == 1


def test_lattice_test_6_16():
    built = frame_6_16()
    cf = coordinatize(built.frame)
    assert cf.basis_indices == (1, 2, 3, 4, 5, 9)
    assert cf.beta == 1
    assert cf.coords == built.coords


COORDINATE_FRAMES = (
    [f"simplex:{k}" for k in range(2, 9)]
    + [f"conference:{k}:{i}:{variant}" for k, count in ((5, 4), (13, 12), (25, 1))
       for i in range(count) for variant in ("plus", "minus")]
    + ["explicit:6x16", "explicit:7x28"])


def frame_by_label(label):
    family, *args = label.split(":")
    if family == "simplex":
        return simplex_frame(int(args[0]))
    if family == "explicit":
        return {"6x16": frame_6_16, "7x28": frame_7_28}[args[0]]()
    k, index, variant = int(args[0]), int(args[1]), args[2]
    pairs = load_pairs(str(CACHE_25), 25) if k == 25 else search_conference_pairs(k)
    return conference_frame(pairs[index], variant)


@pytest.mark.parametrize("label", COORDINATE_FRAMES)
def test_lattice_test_matches_minus_N(label):
    # P = [I | -N] (plus) and [-N^{-1} | I] (minus) come from the circulant
    # solve; the Gram solve over the same basis is a second algorithm for both
    cf = frame_by_label(label)
    k, n = cf.frame.k, cf.frame.n
    assert len(cf.coords) == k and all(len(row) == n for row in cf.coords)
    columns = list(zip(*cf.coords))
    units = [tuple(int(i == t) for i in range(k)) for t in range(k)]
    assert [columns[b - 1] for b in cf.basis_indices] == units
    assert gram_consistency_holds(cf)
    assert coordinatize(cf.frame, cf.basis_indices).coords == cf.coords


def test_lattice_test_irrational():
    from framelat.frames import conference_frame_spec
    pairs = search_conference_pairs(3)
    with pytest.raises(IrrationalAlphaError):
        coordinatize(conference_frame_spec(pairs[0]))


# --- determinants ---------------------------------------------------------------

def test_determinant_5_10():
    pairs = search_conference_pairs(5)
    cf = conference_frame(pairs[0], "plus")
    det = lattice_determinant(lattice_model(cf))
    assert det == F(4, 9)


def test_determinant_simplex_13():
    cf = simplex_frame(13)
    det = lattice_determinant(lattice_model(cf))
    assert det.squared() == F(1, 14) * (F(14, 13)) ** 13


def test_determinant_13_26():
    pairs = search_conference_pairs(13)
    cf = conference_frame(pairs[0], "plus")
    det = lattice_determinant(lattice_model(cf))
    assert det == SurdValue(F(2 ** 6, 5 ** 5), 5)  # = (2^6/5^4)·sqrt(1/5)
    assert abs(float(det) - 0.0458) < 1e-4


def test_determinant_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        lattice_determinant(model_from_gram([[1, 2], [2, 1]]))


def test_determinant_unimodular_invariance():
    rng = random.Random(2026)
    pairs = search_conference_pairs(5)
    cf = conference_frame(pairs[0], "plus")
    q = lattice_model(cf).gram
    base = lattice_determinant(lattice_model(cf))
    for _ in range(20):
        u = random_unimodular(rng, 5)
        q2 = mat_mul(transpose(u), mat_mul(q, u))
        assert lattice_determinant(model_from_gram(q2)) == base


def test_determinant_ldl_matches_bareiss_random():
    # the LDL' minors and the Gauss-Jordan elimination share no code
    rng = random.Random(8080)
    for _ in range(60):
        q = random_pd_gram(rng, rng.randint(1, 6))
        assert lattice_determinant(model_from_gram(q)).squared() == bareiss_determinant(q)


def random_unimodular(rng, k):
    # product of elementary row additions and sign flips keeps |det| = 1
    m = [[F(1 if i == j else 0) for j in range(k)] for i in range(k)]
    for _ in range(3 * k):
        i, j = rng.randrange(k), rng.randrange(k)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for t in range(k):
            m[i][t] += c * m[j][t]
    i = rng.randrange(k)
    for t in range(k):
        m[i][t] = -m[i][t]
    assert abs(bareiss_determinant(m)) == 1
    return m


# --- enumeration -----------------------------------------------------------------

def test_enumerate_identity_gram():
    model = model_from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert enumerate_short_vectors(model, 1) == [((0, 0, 1), 1), ((0, 1, 0), 1), ((1, 0, 0), 1)]


def test_enumerate_respects_bound():
    model = model_from_gram([[1, 0], [0, 1]])
    found = enumerate_short_vectors(model, 2)
    assert dict(found) == {(0, 1): 1, (1, 0): 1, (1, 1): 2, (1, -1): 2}


def test_enumerate_rejects_semidefinite():
    with pytest.raises(NotPositiveDefiniteError):
        enumerate_short_vectors(model_from_gram([[1, 1], [1, 1]]), 1)


def test_minimal_simplex_4():
    cf = simplex_frame(4)
    rep = minimal_vectors(lattice_model(cf))
    assert rep.min_norm_sq == 1
    assert 2 * len(rep.vectors) == 10
    assert set(rep.vectors) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, 1), (1, 1, 1, 1)}


def test_minimal_5_10():
    pairs = search_conference_pairs(5)
    for i, p in enumerate(pairs, start=1):
        cf = conference_frame(p, "plus")
        model = lattice_model(cf)
        rep = minimal_vectors(model)
        assert rep.min_norm_sq == 1
        assert 2 * len(rep.vectors) == 20
        assert frame_vectors_are_minimal(cf, rep)


def test_minimal_6_16():
    cf = frame_6_16()
    model = lattice_model(cf)
    rep = minimal_vectors(model)
    assert rep.min_norm_sq == 1
    assert 2 * len(rep.vectors) == 32
    assert frame_vectors_are_minimal(cf, rep)
    assert has_basis_of_minimal_vectors(model, rep)


def test_frame_vectors_trivial_when_basis_is_whole_frame():
    spec = FrameSpec(k=2, n=2, seidel=[[0, 0], [0, 0]])
    cf = CoordinateFrame(frame=spec, basis_indices=(1, 2), coords=[[1, 0], [0, 1]])
    rep = minimal_vectors(LatticeModel([[F(1), F(0)], [F(0), F(1)]]))
    assert frame_vectors_are_minimal(cf, rep)


def test_basis_of_minimal_vectors_simplex():
    for k in (2, 5, 9):
        cf = simplex_frame(k)
        model = lattice_model(cf)
        assert has_basis_of_minimal_vectors(model, minimal_vectors(model))


def test_basis_of_minimal_vectors_subset_path(monkeypatch):
    # minimum attained away from one unit vector, so the identity shortcut
    # misses and the subset search must find {(1,0), (1,-1)}
    model = model_from_gram([[1, 1], [1, 2]])
    rep = minimal_vectors(model)
    assert set(rep.vectors) == {(1, 0), (1, -1)}
    assert has_basis_of_minimal_vectors(model, rep)
    monkeypatch.setattr(lattice, "SUBSET_BUDGET", 0)
    with pytest.raises(SearchBudgetExceededError):
        has_basis_of_minimal_vectors(model, rep)


def test_basis_of_minimal_vectors_false():
    model = model_from_gram([[1, 1], [1, 4]])
    rep = minimal_vectors(model)
    assert rep.vectors == [(1, 0)]
    assert not has_basis_of_minimal_vectors(model, rep)


# --- brute-force oracle ------------------------------------------------------------

def test_brute_force_matches_fincke_pohst_random():
    # integer and fractional bounds, and bounds equal to an attained norm,
    # where an off-by-one in floor(bound·scale) or in the interval ends shows
    rng = random.Random(424242)
    for trial in range(60):
        k = rng.randint(1, 5)
        model = model_from_gram(random_pd_gram(rng, k))
        if trial % 3 == 0:
            bound = F(rng.randint(1, 4))
        elif trial % 3 == 1:
            bound = F(rng.randint(1, 12), rng.randint(2, 5))
        else:
            y = [rng.randint(-1, 1) for _ in range(k)]
            y[rng.randrange(k)] = 1
            bound = sum(y[i] * model.gram[i][j] * y[j] for i in range(k) for j in range(k))
        found = enumerate_short_vectors(model, bound)
        assert brute_force_short_vectors(model, bound) == found
        if trial % 3 == 2:
            assert (tuple(y), bound) in found or (tuple(-v for v in y), bound) in found


def naive_box_scan(model, bound):
    """Every point of the dual-certificate box |x_i| <= sqrt(bound·(Q^-1)_ii),
    its norm in Fractions, one (x, x'Qx) per +- pair, x's first nonzero
    coordinate positive."""
    inv = mat_inverse(model.gram)
    radii = [floor_sqrt(bound * inv[i][i]) for i in range(model.k)]
    found = {}
    for x in product(*(range(-r, r + 1) for r in radii)):
        t = norm(model, x)
        if any(x) and t <= bound:
            found[x if next(v for v in x if v) > 0 else tuple(-v for v in x)] = t
    return sorted(found.items())


def test_brute_force_matches_a_naive_box_scan():
    # k = 1 has an empty head; fractional bounds put the roots of the last
    # coordinate's quadratic off the integers, attained ones on them
    rng = random.Random(20251)
    for trial in range(60):
        k = 1 + trial % 5
        model = model_from_gram(random_pd_gram(rng, k))
        if trial % 3 == 0:
            bound = F(rng.randint(1, 4))
        elif trial % 3 == 1:
            bound = F(rng.randint(1, 9), rng.randint(2, 5))
        else:
            y = [rng.randint(-1, 1) for _ in range(k)]
            y[rng.randrange(k)] = 1
            bound = norm(model, y)
        assert brute_force_short_vectors(model, bound) == naive_box_scan(model, bound)


def test_brute_force_named_lattices():
    pairs = search_conference_pairs(5)
    cf = conference_frame(pairs[0], "plus")
    model = lattice_model(cf)
    assert brute_force_short_vectors(model, 1) == enumerate_short_vectors(model, 1)


def small_pd_gram(rng, k):
    """a'a/d + I with a in {-1, 0, 1} and d >= 3: every diagonal entry is below 4."""
    a = [[F(rng.randint(-1, 1)) for _ in range(k)] for _ in range(k)]
    d = rng.randint(3, 6)
    q = [[v / d for v in row] for row in mat_mul(transpose(a), a)]
    for i in range(k):
        q[i][i] += 1
    return q


def norm(model, x):
    return sum(x[i] * model.gram[i][j] * x[j] for i in range(model.k) for j in range(model.k))


def assert_enumeration_invariants(model, bound):
    found = enumerate_short_vectors(model, bound)
    vectors = [x for x, _ in found]
    assert len(set(vectors)) == len(vectors)
    assert all(next(v for v in x if v) > 0 for x in vectors)
    assert all(t == norm(model, x) <= bound for x, t in found)
    assert found == brute_force_short_vectors(model, bound)
    return vectors


def test_enumeration_invariants_random():
    # one representative per +- pair, first nonzero coordinate positive, its
    # exact norm, and the oracle's list, for integer, fractional and attained bounds up to k = 7
    rng = random.Random(1985)
    for trial in range(90):
        k = rng.randint(1, 7)
        model = model_from_gram(small_pd_gram(rng, k))
        if trial % 3 == 0:
            bound = F(rng.randint(1, 3))
        elif trial % 3 == 1:
            bound = F(rng.randint(1, 11), rng.randint(3, 5))
        else:
            # a random short y, else a unit vector (every diagonal entry is below 4)
            tries = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(20)]
            units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
            y = next(y for y in tries + units if any(y) and norm(model, y) < 4)
            bound = norm(model, y)
        found = assert_enumeration_invariants(model, bound)
        if trial % 3 == 2:
            assert tuple(y) in found or tuple(-v for v in y) in found


@pytest.mark.parametrize("k", range(1, 8))
def test_enumeration_at_the_first_and_last_coordinate(k):
    # the +- cut lies at the topmost nonzero coordinate: a vector whose only
    # nonzero coordinate is the last (searched first) or the first (searched
    # last, under all-zero levels) must be found exactly once
    rng = random.Random(k)
    for p in {0, k - 1}:
        unit = tuple(1 if i == p else 0 for i in range(k))
        model = model_from_gram([[(1 if i == p else 5) if i == j else 0 for j in range(k)]
                                 for i in range(k)])
        assert assert_enumeration_invariants(model, 4) == [unit, tuple(2 * v for v in unit)]
        q = small_pd_gram(rng, k)
        for i in range(k):
            q[i][i] += 0 if i == p else 3
        model = model_from_gram(q)
        assert unit in assert_enumeration_invariants(model, q[p][p])


def unit_triangular(rng, k, lower):
    return [[F(1) if i == j else F(rng.randint(-1, 1)) if (i > j) == lower else F(0)
             for j in range(k)] for i in range(k)]


def test_minimum_below_the_smallest_diagonal_entry():
    # U'DU with a unimodular U = LR hides the short vectors behind long basis vectors
    rng = random.Random(1994)
    below = 0
    for _ in range(40):
        k = rng.randint(2, 4)
        u = mat_mul(unit_triangular(rng, k, True), unit_triangular(rng, k, False))
        d = [F(rng.randint(1, 4)) for _ in range(k)]
        q = mat_mul(transpose(u), [[d[i] * v for v in row] for i, row in enumerate(u)])
        model = model_from_gram(q)
        least_diagonal = min(q[i][i] for i in range(k))
        short = brute_force_short_vectors(model, least_diagonal)
        norms = {x: norm(model, x) for x, _ in short}
        assert dict(short) == norms
        least = min(norms.values())
        rep = minimal_vectors(model)
        assert rep.min_norm_sq == least
        assert rep.vectors == sorted(x for x, t in norms.items() if t == least)
        below += least < least_diagonal
    assert below >= 10


def test_minimal_vectors_node_count_at_k25(monkeypatch):
    # one integer square root per node visited: 6665 when both vectors of a
    # +- pair were walked, about half with x_j >= 0 under all-zero levels
    cf = conference_frame(load_pairs(str(CACHE_25), 25)[0], "plus")
    model = lattice_model(cf)
    model.ldl  # factor first, so that only the search's square roots are counted
    nodes = 0
    isqrt = math.isqrt

    def counting(n):
        nonlocal nodes
        nodes += 1
        return isqrt(n)

    monkeypatch.setattr(lattice.math, "isqrt", counting)
    rep = minimal_vectors(model)
    assert len(rep.vectors) == 50 and frame_vectors_are_minimal(cf, rep)
    assert nodes <= 3400


def test_simplex_norm_inequality_with_equality_on_minimal():
    # (k+1)·sum(x²) >= k + (sum x)² for integer x != 0, equality exactly on
    # the minimal vectors of the simplex lattice
    for k in (2, 3, 4):
        cf = simplex_frame(k)
        model = lattice_model(cf)
        minimal = set(minimal_vectors(model).vectors)
        box = [x for x, _ in brute_force_short_vectors(model, 4)]
        assert len(box) > len(minimal)
        for x in box:
            s1 = sum(v * v for v in x)
            s2 = sum(x)
            assert (k + 1) * s1 >= k + s2 * s2
            assert ((k + 1) * s1 == k + s2 * s2) == (x in minimal)


# --- density -------------------------------------------------------------------

def test_density_line():
    model = model_from_gram([[1]])
    rep = minimal_vectors(model)
    assert packing_density(model, rep) == pytest.approx(1.0)


def test_density_hexagonal():
    cf = simplex_frame(2)
    model = lattice_model(cf)
    rep = minimal_vectors(model)
    import math
    assert packing_density(model, rep) == pytest.approx(math.pi / math.sqrt(12), abs=1e-12)


def test_density_past_the_float_range_of_gamma():
    # Gamma(172) overflows a float, so from k = 342 on the density is taken in
    # log space; with d = 2 and det = 1 it is the volume of the unit k-ball
    k = 342
    model = model_from_gram([[int(i == j) for j in range(k)] for i in range(k)])
    density = packing_density(model, MinVecReport(min_norm_sq=F(4), vectors=[]))
    reference = math.exp(k / 2 * math.log(math.pi) - math.lgamma(k / 2 + 1))
    assert density == pytest.approx(reference, rel=1e-12)
    assert density > 0


@pytest.mark.parametrize("scale", [F(10 ** 700), F(1, 10 ** 700)], ids=["1e700", "1e-700"])
def test_density_past_the_float_range_of_the_gram(scale):
    # a float of the minimum and of the determinant overflows at 10^700 and is
    # 0 at 10^-700; density is scale invariant, so both are the square
    # lattice's pi/4, taken in logs of the exact values
    model = model_from_gram([[scale, 0], [0, scale]])
    rep = minimal_vectors(model)
    assert rep.min_norm_sq == scale
    assert packing_density(model, rep) == pytest.approx(math.pi / 4, rel=1e-12)


def test_density_scale_invariance():
    rng = random.Random(777)
    cf = simplex_frame(3)
    base_model = lattice_model(cf)
    base = packing_density(base_model, minimal_vectors(base_model))
    for _ in range(10):
        t = F(rng.randint(1, 9), rng.randint(1, 9))
        q = [[t * t * v for v in row] for row in base_model.gram]
        model = model_from_gram(q)
        assert packing_density(model, minimal_vectors(model)) == pytest.approx(base)


# --- equivalence ---------------------------------------------------------------

def test_equivalence_identical():
    q = [[F(2), F(1)], [F(1), F(2)]]
    assert scalar_orthogonal_equivalence(q, q) == 1


def test_equivalence_scaled():
    q = [[F(2), F(1)], [F(1), F(2)]]
    q2 = [[F(9, 4) * v for v in row] for row in q]
    assert scalar_orthogonal_equivalence(q2, q) == F(9, 4)
    assert scalar_orthogonal_equivalence(q, q2) == F(4, 9)


def test_equivalence_b1_vs_b3():
    pairs = search_conference_pairs(5)
    cf1 = conference_frame(pairs[0], "plus")
    cf3 = conference_frame(pairs[2], "plus")
    q1 = lattice_model(cf1).gram
    q3 = lattice_model(cf3).gram
    assert scalar_orthogonal_equivalence(q1, q3) is None


def test_equivalence_is_equivalence_relation():
    rng = random.Random(31337)
    for _ in range(40):
        k = rng.randint(2, 4)
        a = [[F(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
        q = mat_mul(transpose(a), a)
        for i in range(k):
            q[i][i] += 1
        c = F(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        d = F(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        q2 = [[c * v for v in row] for row in q]
        q3 = [[d * v for v in row] for row in q2]
        assert scalar_orthogonal_equivalence(q, q) == 1
        assert scalar_orthogonal_equivalence(q2, q) == c
        assert scalar_orthogonal_equivalence(q, q2) == 1 / c
        assert scalar_orthogonal_equivalence(q3, q) == c * d


def reference_ratio(q1, q2):
    """c with q1 = c·q2 entrywise and c > 0, in Fractions, or None."""
    entries = [(F(a), F(b)) for r1, r2 in zip(q1, q2) for a, b in zip(r1, r2)]
    ratios = [a / b for a, b in entries if b != 0]
    if not ratios or ratios[0] <= 0 or any(a != ratios[0] * b for a, b in entries):
        return None
    return ratios[0]


@pytest.mark.parametrize("q1, q2, want", [
    # a zero in q2 where q1 is nonzero, and the reverse
    ([[2, 1], [1, 2]], [[4, 0], [2, 4]], None),
    ([[2, 0], [1, 2]], [[4, 2], [2, 4]], None),
    # q2's first nonzero entry away from (0, 0)
    ([[0, 3], [3, 6]], [[0, 1], [1, 2]], 3),
    ([[0, 0], [0, F(5, 2)]], [[0, 0], [0, F(1, 2)]], 5),
    # a negative ratio, a zero ratio and an all-zero q2
    ([[-2, -1], [-1, -2]], [[2, 1], [1, 2]], None),
    ([[0, 0], [0, 0]], [[2, 1], [1, 2]], None),
    ([[2, 1], [1, 2]], [[0, 0], [0, 0]], None),
    # mixed int and Fraction entries
    ([[F(3, 2), 3], [3, F(9, 2)]], [[1, 2], [F(2), 3]], F(3, 2)),
    ([[3, F(3, 7)], [F(3, 7), 6]], [[F(7), 1], [1, 14]], F(3, 7)),
    # a mismatch only in the last entry
    ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[4, 2, 0], [2, 4, 2], [0, 2, 5]], None),
    ([[2, 1, 0], [1, 2, 1], [0, 1, F(5, 2)]], [[4, 2, 0], [2, 4, 2], [0, 2, 4]], None),
])
def test_equivalence_matches_the_fraction_definition(q1, q2, want):
    assert reference_ratio(q1, q2) == want
    got = scalar_orthogonal_equivalence(q1, q2)
    assert got == want
    assert want is None or type(got) is Fraction


def test_equivalence_classes_small():
    q = [[F(2), F(1)], [F(1), F(2)]]
    q2 = [[4 * v for v in row] for row in q]
    r = [[F(3), F(1)], [F(1), F(3)]]
    assert equivalence_classes([q, r, q2, r]) == [[0, 2], [1, 3]]


def test_preferred_variant_13_26():
    pairs = search_conference_pairs(13)
    variants = [preferred_variant(p) for p in pairs]
    assert variants.count("plus") == 6
    assert variants.count("minus") == 6
    assert [v == "plus" for v in variants] == \
        [True, True, True, True, False, False, True, True, False, False, False, False]


# --- non-lattice demo ------------------------------------------------------------

def test_non_lattice_witness():
    steps = non_lattice_witness_3_6(12)
    assert len(steps) == 12
    assert steps[0][0] == (0, 2, 1, 1, -1, 1)
    norms = [t for _, t in steps]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[9] < 1e-3
    assert all(t > 0 for t in norms)


def test_non_lattice_witness_matches_a_decimal_reference_up_to_its_bound():
    # 8(x + p·y)²/(1 + p²) at 400 digits; the float walk avoids the cancellation
    # in x + p·y, so every norm it shows is within a few ulps of the reference
    steps = non_lattice_witness_3_6(736)
    norms = [t for _, t in steps]
    assert all(t >= sys.float_info.min for t in norms)
    assert all(a > b for a, b in zip(norms, norms[1:]))
    with decimal.localcontext(decimal.Context(prec=400)):
        p = (1 + decimal.Decimal(5).sqrt()) / 2
        for coeffs, t in steps:
            x, y = coeffs[4], coeffs[2]
            ref = 8 * (x + p * y) ** 2 / (1 + p * p)
            assert abs(decimal.Decimal(t) - ref) <= ref * decimal.Decimal("1e-15"), coeffs
    with pytest.raises(ValueError, match="at most 736 steps"):
        non_lattice_witness_3_6(737)


def test_non_lattice_witness_domain():
    with pytest.raises(ValueError):
        non_lattice_witness_3_6(0)
