"""Tests for strong eutaxy, perfection rank, and the 28x28 certificate."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from framelat import circulant, frames, geometry, lattice
from framelat.exact import matrix_rank
from test_circulant import CACHE_25

# Reference entries for the certificate matrix: column j stacks the
# on-or-below-diagonal entries of w_j w_j' for the transformed frame vector
# w_j, blocks of heights 7, 6, ..., 1.  Recovered independently from the
# rank-one structure of the columns.
CERTIFICATE_FIXTURE = """
0 16 16 16 16 16 16 16 16 16 16 16 16 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 -4 12 12 12 12 12 4 -12 -12 -12 -12 -12 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 24 -8 8 8 8 8 -24 8 -8 -8 -8 -8 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 20 20 -12 4 4 4 -20 -20 12 -4 -4 -4 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 16 16 16 -16 0 0 -16 -16 -16 16 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 12 12 12 12 -20 -4 -12 -12 -12 -12 20 4 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
0 8 8 8 8 8 -24 -8 -8 -8 -8 -8 24 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0
49 1 9 9 9 9 9 1 9 9 9 9 9 25 25 25 25 25 1 1 1 1 1 1 1 1 1 1
42 -6 -6 6 6 6 6 -6 -6 6 6 6 6 10 -10 -10 -10 -10 6 6 6 6 2 2 2 2 2 2
35 -5 15 -9 3 3 3 -5 15 -9 3 3 3 -25 15 -5 -5 -5 3 -1 -1 -1 7 7 7 3 3 3
28 -4 12 12 -12 0 0 -4 12 12 -12 0 0 -20 -20 20 0 0 -4 4 0 0 4 0 0 8 8 4
21 -3 9 9 9 -15 -3 -3 9 9 9 -15 -3 -15 -15 -15 25 5 -3 -3 5 1 -3 5 1 5 1 9
14 -2 6 6 6 6 -18 -2 6 6 6 6 -18 -10 -10 -10 -10 30 -2 -2 -2 6 -2 -2 6 -2 6 6
36 36 4 4 4 4 4 36 4 4 4 4 4 4 4 4 4 4 36 36 36 36 4 4 4 4 4 4
30 30 -10 -6 2 2 2 30 -10 -6 2 2 2 -10 -6 2 2 2 18 -6 -6 -6 14 14 14 6 6 6
24 24 -8 8 -8 0 0 24 -8 8 -8 0 0 -8 8 -8 0 0 -24 24 0 0 8 0 0 16 16 8
18 18 -6 6 6 -10 -2 18 -6 6 6 -10 -2 -6 6 6 -10 -2 -18 -18 30 6 -6 10 2 10 2 18
12 12 -4 4 4 4 -12 12 -4 4 4 4 -12 -4 4 4 4 -12 -12 -12 -12 36 -4 -4 12 -4 12 12
25 25 25 9 1 1 1 25 25 9 1 1 1 25 9 1 1 1 9 1 1 1 49 49 49 9 9 9
20 20 20 -12 -4 0 0 20 20 -12 -4 0 0 20 -12 -4 0 0 -12 -4 0 0 28 0 0 24 24 12
15 15 15 -9 3 -5 -1 15 15 -9 3 -5 -1 15 -9 3 -5 -1 -9 3 -5 -1 -21 35 7 15 3 27
10 10 10 -6 2 2 -6 10 10 -6 2 2 -6 10 -6 2 2 -6 -6 2 2 -6 -14 -14 42 -6 18 18
16 16 16 16 16 0 0 16 16 16 16 0 0 16 16 16 0 0 16 16 0 0 16 0 0 64 64 16
12 12 12 12 -12 0 0 12 12 12 -12 0 0 12 12 -12 0 0 12 -12 0 0 -12 0 0 40 8 36
8 8 8 8 -8 0 0 8 8 8 -8 0 0 8 8 -8 0 0 8 -8 0 0 -8 0 0 -16 48 24
9 9 9 9 9 25 1 9 9 9 9 25 1 9 9 9 25 1 9 9 25 1 9 25 1 25 1 81
6 6 6 6 6 -10 6 6 6 6 6 -10 6 6 6 6 -10 6 6 6 -10 6 6 -10 6 -10 6 54
4 4 4 4 4 4 36 4 4 4 4 4 36 4 4 4 4 36 4 4 4 36 4 4 36 4 36 36
"""


def fixture_matrix():
    rows = [[int(e) for e in line.split()] for line in CERTIFICATE_FIXTURE.strip().splitlines()]
    assert len(rows) == 28 and all(len(r) == 28 for r in rows)
    return rows


def model_and_minima(cf):
    model = lattice.lattice_model(cf)
    return model, lattice.minimal_vectors(model)


def test_square_lattice_is_eutactic_with_constant_two():
    model = lattice.gram_model([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    rep = lattice.minimal_vectors(model)
    assert geometry.strong_eutaxy_check(model, rep) == 2


def test_rectangular_lattice_is_not_eutactic():
    # diag(1, 2): the only minimal pair is +-e1, whose outer square cannot
    # be a multiple of the identity.
    model = lattice.gram_model([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
    rep = lattice.minimal_vectors(model)
    assert geometry.strong_eutaxy_check(model, rep) is None


def test_simplex_family_eutaxy_and_rank():
    for k in range(2, 10):
        cf = frames.simplex_frame(k)
        model, rep = model_and_minima(cf)
        assert geometry.strong_eutaxy_check(model, rep) == Fraction(2 * (k + 1), k), k
        assert geometry.perfection_rank(model, rep) == k + 1


def test_conference_5_10_eutactic_not_perfect():
    for p in circulant.search_conference_pairs(5):
        for variant in ("plus", "minus"):
            cf = frames.conference_frame(p, variant)
            model, rep = model_and_minima(cf)
            assert geometry.strong_eutaxy_check(model, rep) == 4
            assert geometry.perfection_rank(model, rep) == 10


def test_frame_6_16_eutactic_not_perfect():
    cf = frames.frame_6_16()
    model, rep = model_and_minima(cf)
    assert geometry.strong_eutaxy_check(model, rep) == Fraction(16, 3)
    assert geometry.perfection_rank(model, rep) == 16


def test_frame_7_28_eutactic_and_perfect():
    cf = frames.frame_7_28()
    model, rep = model_and_minima(cf)
    assert geometry.strong_eutaxy_check(model, rep) == 8
    assert geometry.perfection_rank(model, rep) == 28


def test_conference_13_26_eutactic_not_perfect():
    p = circulant.search_conference_pairs(13)[0]
    cf = frames.conference_frame(p, frames.preferred_variant(p))
    model, rep = model_and_minima(cf)
    assert geometry.strong_eutaxy_check(model, rep) == 4
    assert geometry.perfection_rank(model, rep) == 26


def test_rank_bounded_by_vector_count_and_dimension():
    cases = [frames.simplex_frame(4), frames.frame_6_16()]
    p = circulant.search_conference_pairs(5)[0]
    cases.append(frames.conference_frame(p, "plus"))
    for cf in cases:
        model, rep = model_and_minima(cf)
        k = model.k
        assert geometry.perfection_rank(model, rep) <= min(len(rep.vectors), k * (k + 1) // 2)


def test_rank_invariant_under_unimodular_change_of_coordinates():
    rng = random.Random(20260816)
    p = circulant.search_conference_pairs(5)[0]
    cf = frames.conference_frame(p, "plus")
    model, rep = model_and_minima(cf)
    base_rank = geometry.perfection_rank(model, rep)
    k = model.k
    for _ in range(10):
        u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        for _ in range(12):
            i, j = rng.sample(range(k), 2)
            c = rng.choice((-2, -1, 1, 2))
            for col in range(k):
                u[i][col] += c * u[j][col]
        moved = [tuple(sum(u[i][j] * x[j] for j in range(k)) for i in range(k))
                 for x in rep.vectors]
        fake = lattice.MinVecReport(min_norm_sq=rep.min_norm_sq, vectors=moved)
        assert geometry.perfection_rank(model, fake) == base_rank


def lower_triangle_rank(k, vectors):
    """The rank straight from its definition: one row of k(k+1)/2 entries per form."""
    return matrix_rank([geometry._lower_triangle(x, k) for x in vectors])


def identity_model(k):
    return lattice.gram_model([[Fraction(int(i == j)) for j in range(k)] for i in range(k)])


def every_family():
    for k in range(2, 10):
        yield frames.simplex_frame(k)
    for p in circulant.search_conference_pairs(5):
        for variant in ("plus", "minus"):
            yield frames.conference_frame(p, variant)
    for pairs in (circulant.search_conference_pairs(13), circulant.load_pairs(str(CACHE_25), 25)):
        yield frames.conference_frame(pairs[0], frames.preferred_variant(pairs[0]))
    yield frames.frame_6_16()
    yield frames.frame_7_28()


def test_rank_equals_lower_triangle_rank_on_every_family():
    for cf in every_family():
        model, rep = model_and_minima(cf)
        assert geometry.perfection_rank(model, rep) == lower_triangle_rank(model.k, rep.vectors)


def test_rank_with_more_minimal_vectors_than_forms_d4():
    # the Cartan matrix of D4: 12 minimal pairs against 10 forms, and D4 is perfect
    cartan = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]
    model = lattice.gram_model([[Fraction(v) for v in row] for row in cartan])
    rep = lattice.minimal_vectors(model)
    assert (rep.min_norm_sq, len(rep.vectors)) == (2, 12)
    assert geometry.perfection_rank(model, rep) == lower_triangle_rank(4, rep.vectors) == 10


@pytest.mark.parametrize("vectors, rank", [
    ([(1, 0, 0), (2, 0, 0)], 1),  # x and 2x
    ([(1, 1, 0), (1, 1, 0), (0, 1, 0)], 2),  # a repeated vector
    ([(1, 2, -1), (2, 4, -2), (0, 1, 1), (0, 1, 1), (1, 0, 0)], 3),
    ([(1, 0), (0, 1), (1, 1), (1, -1)], 3),  # n > k(k+1)/2
])
def test_rank_of_dependent_sets(vectors, rank):
    k = len(vectors[0])
    fake = lattice.MinVecReport(min_norm_sq=Fraction(1), vectors=vectors)
    assert geometry.perfection_rank(identity_model(k), fake) == lower_triangle_rank(k, vectors) == rank


def test_rank_equals_lower_triangle_rank_random():
    rng = random.Random(20261019)
    for _ in range(60):
        k = rng.randint(1, 5)
        vectors = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(1, 20))]
        fake = lattice.MinVecReport(min_norm_sq=Fraction(1), vectors=vectors)
        assert geometry.perfection_rank(identity_model(k), fake) == lower_triangle_rank(k, vectors)


def test_empty_report_has_rank_zero():
    model = lattice.gram_model([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])
    fake = lattice.MinVecReport(min_norm_sq=Fraction(1), vectors=[])
    assert geometry.perfection_rank(model, fake) == 0


def test_certificate_matrix_matches_reference_entrywise():
    assert geometry.perfection_certificate_matrix_7_28() == fixture_matrix()


def test_certificate_first_column_and_first_row():
    cert = geometry.perfection_certificate_matrix_7_28()
    first_col = [cert[r][0] for r in range(14)]
    assert first_col == [0, 0, 0, 0, 0, 0, 0, 49, 42, 35, 28, 21, 14, 36]
    assert cert[0] == [0] + [16] * 12 + [0] * 15


def test_certificate_determinant_exact():
    assert geometry.perfection_certificate_det_7_28() == 3 * 2**159


def test_certificate_columns_are_rank_one_stacks():
    # Reconstructing the symmetric 7x7 matrix from any column must give an
    # exact outer square w w' (diagonal entries are perfect squares, etc.).
    cert = geometry.perfection_certificate_matrix_7_28()
    offs = [0, 7, 13, 18, 22, 25, 27]
    col = [cert[r][9] for r in range(28)]
    sym = [[0] * 7 for _ in range(7)]
    for c in range(7):
        for i in range(7 - c):
            sym[c + i][c] = sym[c][c + i] = col[offs[c] + i]
    for i in range(7):
        for j in range(7):
            assert sym[i][j] ** 2 == sym[i][i] * sym[j][j] or sym[i][i] * sym[j][j] >= 0
    # trace of w w' equals |w|^2 > 0
    assert sum(sym[i][i] for i in range(7)) > 0
