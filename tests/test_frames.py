"""Tests for frame constructions and validation."""

from fractions import Fraction
from pathlib import Path

import pytest

from framelat.circulant import (
    ConferencePair,
    circulant_inverse,
    circulant_matrix,
    circulant_multiply,
    compute_N,
    load_pairs,
    search_conference_pairs,
)
from framelat.exact import SurdValue, bareiss_determinant
from framelat.frames import (
    CoordinateFrame,
    FrameSpec,
    IrrationalAlphaError,
    basis_gram,
    conference_data,
    conference_frame,
    conference_frame_spec,
    frame_6_16,
    frame_7_28,
    full_gram,
    goethals_seidel_coordinates,
    gram_consistency_holds,
    select_basis_greedy,
    simplex_frame,
    validate_frame,
)

F = Fraction


def det_of_basis_gram(cf):
    return bareiss_determinant(basis_gram(cf))


# --- simplex ---------------------------------------------------------------

def test_simplex_small():
    spec, cf = simplex_frame(3)
    g = full_gram(spec)
    assert all(g[i][j] == (1 if i == j else F(-1, 3)) for i in range(4) for j in range(4))
    assert cf.coords == [[-1], [-1], [-1]]
    assert cf.beta == 1
    assert gram_consistency_holds(cf)


def test_simplex_gamma():
    spec, _ = simplex_frame(2)
    assert spec.gamma == F(3, 2)
    assert spec.label == "simplex:2"


def test_simplex_alpha_and_gerzon():
    spec, _ = simplex_frame(9)
    assert spec.alpha == SurdValue(F(9))
    rep = validate_frame(spec)
    assert rep.all_ok


def test_simplex_determinant_formula():
    for k in (2, 3, 5, 8):
        _, cf = simplex_frame(k)
        expect = F(1, k + 1) * (1 + F(1, k)) ** k
        assert det_of_basis_gram(cf) == expect


def test_simplex_validates():
    for k in (2, 4, 7):
        spec, _ = simplex_frame(k)
        assert validate_frame(spec).all_ok


# --- conference frames -------------------------------------------------------

def test_conference_plus_5_10():
    pairs = search_conference_pairs(5)
    spec, cf = conference_frame(pairs[0], "plus", pair_index=1)
    assert spec.label == "conference:5:t1:plus"
    assert (spec.k, spec.n) == (5, 10)
    assert spec.alpha == SurdValue(F(3))
    q = basis_gram(cf)
    # basis Gram is I + A/3
    assert q[0][0] == 1 and q[0][2] == F(1, 3)
    assert cf.beta == 1  # X = -N is integral
    assert cf.coords[0] == [-1, 0, 1, 1, 0]
    assert gram_consistency_holds(cf)
    assert validate_frame(spec).all_ok


def test_conference_minus_5_10():
    pairs = search_conference_pairs(5)
    spec, cf = conference_frame(pairs[0], "minus", pair_index=1)
    assert cf.basis_indices == (6, 7, 8, 9, 10)
    # N is unimodular here (|det N| = |det(A-3I)| / |det D| = 48/48), so
    # X = -N^{-1} is integral as well
    assert cf.beta == 1
    assert gram_consistency_holds(cf)


def test_conference_minus_13_26():
    pairs = search_conference_pairs(13)
    spec, cf = conference_frame(pairs[4], "minus", pair_index=5)
    assert cf.beta == 1
    assert gram_consistency_holds(cf)
    q = basis_gram(cf)
    # minus-variant Gram is I - A/5
    a_head = pairs[4].a_row
    assert q[0][1] == -F(a_head[1], 5)


def test_conference_irrational_alpha():
    pairs = search_conference_pairs(3)
    assert pairs, "k=3 admits conference pairs even though 2k-1=5 is no square"
    with pytest.raises(IrrationalAlphaError):
        conference_frame(pairs[0], "plus")


def test_conference_spec_irrational_still_tight():
    # the frame itself exists for k=3; tightness holds in the field extension
    pairs = search_conference_pairs(3)
    spec = conference_frame_spec(pairs[0])
    assert spec.alpha.radicand == 5
    rep = validate_frame(spec)
    assert rep.all_ok


def test_conference_rejects_unknown_variant():
    pairs = search_conference_pairs(5)
    with pytest.raises(ValueError):
        conference_frame(pairs[0], "both")


# --- per-pair record -----------------------------------------------------------

CACHE_25 = Path(__file__).resolve().parent.parent / "cache" / "conference-25.json"


@pytest.mark.parametrize("k", [5, 13, 25])
def test_conference_data_matches_the_dense_reference(k):
    pairs = load_pairs(str(CACHE_25)) if k == 25 else search_conference_pairs(k)
    assert len(pairs) == {5: 4, 13: 12, 25: 20}[k]
    alpha = {5: 3, 13: 5, 25: 7}[k]
    e0 = (1,) + (0,) * (k - 1)
    for p in pairs:
        data = conference_data(p)
        assert data.alpha == alpha
        assert data.n_row == compute_N(p, alpha, 0, alpha)
        assert data.n_inv_row == circulant_inverse(data.n_row)
        assert circulant_multiply(data.n_row, data.n_inv_row) == e0
        a = circulant_matrix(p.a_row)
        plus = [[alpha * (i == j) + a[i][j] for j in range(k)] for i in range(k)]
        minus = [[alpha * (i == j) - a[i][j] for j in range(k)] for i in range(k)]
        assert data.det_d == bareiss_determinant(circulant_matrix(p.d_row))
        assert data.det_plus == bareiss_determinant(plus)
        assert data.det_minus == bareiss_determinant(minus)


def test_conference_data_rejects_a_non_conference_pair():
    p = ConferencePair(5, (0, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    with pytest.raises(ValueError, match="not a conference pair"):
        conference_data(p)
    with pytest.raises(ValueError, match="not a conference pair"):
        conference_frame(p, "plus")


def test_conference_data_irrational_alpha():
    with pytest.raises(IrrationalAlphaError):
        conference_data(search_conference_pairs(3)[0])


# --- two-parameter coordinates ----------------------------------------------

def test_goethals_seidel_a0_b3():
    pairs = search_conference_pairs(5)
    cf = goethals_seidel_coordinates(pairs[0], 0, 3)
    assert cf.beta == 1
    assert cf.coords[0] == [-1, 0, 1, 1, 0]
    assert gram_consistency_holds(cf)


def test_goethals_seidel_reduces_to_plus_variant():
    pairs = search_conference_pairs(5)
    for i, p in enumerate(pairs, start=1):
        cf_gs = goethals_seidel_coordinates(p, 3, 0)
        _, cf_plus = conference_frame(p, "plus", pair_index=i)
        assert cf_gs.coords == cf_plus.coords


def test_goethals_seidel_rational_nonint_parameters():
    pairs = search_conference_pairs(5)
    cf = goethals_seidel_coordinates(pairs[0], F(9, 5), F(12, 5))
    assert gram_consistency_holds(cf)


# --- explicit frames ----------------------------------------------------------

def test_frame_6_16():
    spec, cf = frame_6_16()
    assert (spec.k, spec.n) == (6, 16)
    assert spec.gamma == F(8, 3)
    assert cf.basis_indices == (1, 2, 3, 4, 5, 9)
    assert cf.beta == 1
    assert det_of_basis_gram(cf) == F(2 ** 6, 3 ** 6)
    assert gram_consistency_holds(cf)
    assert validate_frame(spec).all_ok


def test_frame_6_16_greedy_basis_matches():
    spec, cf = frame_6_16()
    assert select_basis_greedy(full_gram(spec), 6) == cf.basis_indices


def test_frame_6_16_tightness_breaks_under_sign_flip():
    spec, _ = frame_6_16()
    c = [row[:] for row in spec.seidel]
    c[0][1] = -c[0][1]
    c[1][0] = -c[1][0]
    bad = FrameSpec(k=6, n=16, gamma=spec.gamma, alpha=spec.alpha,
                    seidel=c, label="flipped")
    rep = validate_frame(bad)
    assert rep.seidel_ok and not rep.tightness_ok


def test_frame_7_28():
    spec, cf = frame_7_28()
    assert (spec.k, spec.n) == (7, 28)
    assert spec.gamma == 4
    assert cf.basis_indices == (1, 2, 3, 4, 5, 6, 16)
    assert cf.beta == 1
    assert det_of_basis_gram(cf) == F(2 ** 6, 3 ** 7)
    assert gram_consistency_holds(cf)
    assert validate_frame(spec).all_ok


def test_greedy_basis_simplex():
    spec, _ = simplex_frame(5)
    assert select_basis_greedy(full_gram(spec), 5) == (1, 2, 3, 4, 5)
