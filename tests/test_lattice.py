"""Tests for lattice construction, enumeration, and equivalence."""

import random
from fractions import Fraction

import pytest

from framelat.circulant import search_conference_pairs
from framelat.exact import SurdValue, bareiss_determinant, mat_mul, transpose
from framelat.frames import (
    CoordinateFrame,
    FrameSpec,
    IrrationalAlphaError,
    conference_frame,
    coordinatize,
    frame_6_16,
    preferred_variant,
    simplex_frame,
)
from framelat.lattice import (
    LatticeModel,
    NotPositiveDefiniteError,
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

F = Fraction


def model_from_gram(rows):
    gram = [[F(v) for v in row] for row in rows]
    return LatticeModel(k=len(gram), gram=gram)


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
        verdict = alpha_gate(k, n)
        assert not verdict.is_lattice
        assert verdict.reason == "IrrationalAlpha"
        assert verdict.alpha == SurdValue(F(1), rad)


def test_alpha_gate_rational_families():
    for (k, n, a) in ((5, 10, 3), (6, 16, 3), (7, 28, 3), (13, 26, 5), (25, 50, 7)):
        verdict = alpha_gate(k, n)
        assert verdict.is_lattice
        assert verdict.reason == "RationalAlpha"
        assert verdict.alpha == SurdValue(F(a))


def test_alpha_gate_simplex():
    for k in range(2, 13):
        assert alpha_gate(k, k + 1).alpha == SurdValue(F(k))


def test_alpha_gate_domain():
    with pytest.raises(ValueError):
        alpha_gate(1, 5)
    with pytest.raises(ValueError):
        alpha_gate(5, 5)


# --- constructive lattice test: rational coordinates over a basis -------------

def test_lattice_test_simplex():
    spec, _ = simplex_frame(5)
    cf = coordinatize(spec)
    assert cf.coords == [[-1]] * 5
    assert cf.beta == 1


def test_lattice_test_6_16():
    spec, built = frame_6_16()
    cf = coordinatize(spec)
    assert cf.basis_indices == (1, 2, 3, 4, 5, 9)
    assert cf.beta == 1
    assert cf.coords == built.coords


def test_lattice_test_matches_minus_N():
    pairs = search_conference_pairs(5)
    spec, built = conference_frame(pairs[0], "plus")
    cf = coordinatize(spec)
    assert cf.basis_indices == (1, 2, 3, 4, 5)
    assert cf.coords == built.coords  # X = -N falls out of the Gram solve


def test_lattice_test_irrational():
    from framelat.frames import conference_frame_spec
    pairs = search_conference_pairs(3)
    with pytest.raises(IrrationalAlphaError):
        coordinatize(conference_frame_spec(pairs[0]))


# --- determinants ---------------------------------------------------------------

def test_determinant_5_10():
    pairs = search_conference_pairs(5)
    _, cf = conference_frame(pairs[0], "plus")
    det = lattice_determinant(lattice_model(cf))
    assert det == F(4, 9)


def test_determinant_simplex_13():
    _, cf = simplex_frame(13)
    det = lattice_determinant(lattice_model(cf))
    assert det.squared() == F(1, 14) * (F(14, 13)) ** 13


def test_determinant_13_26():
    pairs = search_conference_pairs(13)
    _, cf = conference_frame(pairs[0], "plus")
    det = lattice_determinant(lattice_model(cf))
    assert det == SurdValue(F(2 ** 6, 5 ** 5), 5)  # = (2^6/5^4)·sqrt(1/5)
    assert abs(float(det) - 0.0458) < 1e-4


def test_determinant_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        lattice_determinant(model_from_gram([[1, 2], [2, 1]]))


def test_determinant_unimodular_invariance():
    rng = random.Random(2026)
    pairs = search_conference_pairs(5)
    _, cf = conference_frame(pairs[0], "plus")
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
    assert enumerate_short_vectors(model, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_enumerate_respects_bound():
    model = model_from_gram([[1, 0], [0, 1]])
    found = enumerate_short_vectors(model, 2)
    assert set(found) == {(0, 1), (1, 0), (1, 1), (1, -1)}


def test_enumerate_rejects_semidefinite():
    with pytest.raises(NotPositiveDefiniteError):
        enumerate_short_vectors(model_from_gram([[1, 1], [1, 1]]), 1)


def test_minimal_simplex_4():
    _, cf = simplex_frame(4)
    rep = minimal_vectors(lattice_model(cf))
    assert rep.min_norm_sq == 1
    assert rep.count_with_signs == 10
    assert set(rep.vectors) == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                (0, 0, 0, 1), (1, 1, 1, 1)}


def test_minimal_5_10():
    pairs = search_conference_pairs(5)
    for i, p in enumerate(pairs, start=1):
        _, cf = conference_frame(p, "plus")
        model = lattice_model(cf)
        rep = minimal_vectors(model)
        assert rep.min_norm_sq == 1
        assert rep.count_with_signs == 20
        assert frame_vectors_are_minimal(model, rep)


def test_minimal_6_16():
    _, cf = frame_6_16()
    model = lattice_model(cf)
    rep = minimal_vectors(model)
    assert rep.min_norm_sq == 1
    assert rep.count_with_signs == 32
    assert frame_vectors_are_minimal(model, rep)
    assert has_basis_of_minimal_vectors(model, rep)


def test_frame_vectors_trivial_when_basis_is_whole_frame():
    spec = FrameSpec(k=2, n=2, gamma=F(1), alpha=SurdValue(F(1)), seidel=[[0, 0], [0, 0]])
    cf = CoordinateFrame(frame=spec, basis_indices=(1, 2), coords=[[], []], beta=1)
    model = LatticeModel(k=2, gram=[[F(1), F(0)], [F(0), F(1)]], coord_frame=cf)
    rep = minimal_vectors(model)
    assert frame_vectors_are_minimal(model, rep)


def test_basis_of_minimal_vectors_simplex():
    for k in (2, 5, 9):
        _, cf = simplex_frame(k)
        model = lattice_model(cf)
        assert has_basis_of_minimal_vectors(model, minimal_vectors(model))


def test_basis_of_minimal_vectors_subset_path():
    # minimum attained away from one unit vector, so the identity shortcut
    # misses and the subset search must find {(1,0), (1,-1)}
    model = model_from_gram([[1, 1], [1, 2]])
    rep = minimal_vectors(model)
    assert set(rep.vectors) == {(1, 0), (1, -1)}
    assert has_basis_of_minimal_vectors(model, rep)
    with pytest.raises(SearchBudgetExceededError):
        has_basis_of_minimal_vectors(model, rep, cap=0)


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
            assert tuple(y) in found or tuple(-v for v in y) in found


def test_brute_force_named_lattices():
    pairs = search_conference_pairs(5)
    _, cf = conference_frame(pairs[0], "plus")
    model = lattice_model(cf)
    assert brute_force_short_vectors(model, 1) == enumerate_short_vectors(model, 1)


def test_simplex_norm_inequality_with_equality_on_minimal():
    # (k+1)·sum(x²) >= k + (sum x)² for integer x != 0, equality exactly on
    # the minimal vectors of the simplex lattice
    for k in (2, 3, 4):
        _, cf = simplex_frame(k)
        model = lattice_model(cf)
        minimal = set(minimal_vectors(model).vectors)
        box = brute_force_short_vectors(model, 4)
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
    _, cf = simplex_frame(2)
    model = lattice_model(cf)
    rep = minimal_vectors(model)
    import math
    assert packing_density(model, rep) == pytest.approx(math.pi / math.sqrt(12), abs=1e-12)


def test_density_scale_invariance():
    rng = random.Random(777)
    _, cf = simplex_frame(3)
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
    _, cf1 = conference_frame(pairs[0], "plus")
    _, cf3 = conference_frame(pairs[2], "plus")
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


def test_non_lattice_witness_domain():
    with pytest.raises(ValueError):
        non_lattice_witness_3_6(0)
