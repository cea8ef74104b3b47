"""Acceptance gate: one test per headline criterion, at its pinned tolerance.

Run with -v to get one pass/fail line per criterion.  Every assertion is
exact unless a decimal tolerance is called out inline.  The (25,50)
determinant factorization is checked against an independent cyclotomic
resultant computed here.  The old reference factorization for it is not
attainable by any conference pair of order 25; the comment in
test_criterion_06_25_50_det_factorization gives the proof.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

from framelat import circulant, cli, frames, geometry, lattice
from framelat.exact import SurdValue, bareiss_determinant
from test_geometry import fixture_matrix


class budget:
    """Context manager asserting its body ran inside a wall-clock allowance."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.perf_counter() - self.start
            assert elapsed < self.seconds, f"took {elapsed:.3f}s, budget {self.seconds}s"
        return False


@pytest.fixture(scope="module")
def pairs25_timed():
    start = time.perf_counter()
    pairs = circulant.search_conference_pairs(25)
    return pairs, time.perf_counter() - start


@pytest.fixture(scope="module")
def facts25(pairs25_timed):
    pairs, _ = pairs25_timed
    return [cli._pair_facts(p) for p in pairs]


def coordinatized(cf):
    model = lattice.lattice_model(cf)
    return model, lattice.minimal_vectors(model)


def natural_gram(p, variant):
    """Gram I +- A/alpha of one natural basis of a conference frame."""
    return frames.basis_gram(frames.conference_frame(p, variant))


def test_criterion_01_alpha_gate_split():
    lattice.alpha_gate(3, 6)  # warm the code path before timing
    with budget(0.001):
        for k, n in ((3, 6), (7, 14), (9, 18)):
            assert lattice.alpha_gate(k, n) is False, (k, n)
            assert frames.frame_alpha(k, n).radicand > 1, (k, n)
        for k, n in ((5, 10), (6, 16), (7, 28), (13, 26), (25, 50)):
            assert lattice.alpha_gate(k, n) is True, (k, n)
            assert frames.frame_alpha(k, n).radicand == 1, (k, n)


def test_criterion_02_simplex_family():
    with budget(1.0):
        for k in range(2, 13):
            cf = frames.simplex_frame(k)
            model, rep = coordinatized(cf)
            assert bareiss_determinant(model.gram) == \
                Fraction(1, k + 1) * Fraction(k + 1, k) ** k, k
            assert rep.min_norm_sq == 1, k
            assert 2 * len(rep.vectors) == 2 * (k + 1), k
            assert lattice.frame_vectors_are_minimal(cf, rep), k
            assert geometry.strong_eutaxy_check(model, rep) is not None, k
            assert geometry.perfection_rank(model, rep) == k + 1, k


def test_criterion_03_search_counts(pairs25_timed):
    for k, count in ((5, 4), (13, 12)):
        fast = circulant.search_conference_pairs(k)
        assert len(fast) == count, k
        assert fast == circulant.search_conference_pairs(k, brute_force=True), k
    pairs, elapsed = pairs25_timed
    assert len(pairs) == 20
    assert elapsed < 60, f"k = 25 search took {elapsed:.1f}s"


def test_criterion_04_5_10():
    with budget(1.0):
        pairs = circulant.search_conference_pairs(5)
        expected_n = [(1, 0, -1, -1, 0), (-1, 0, 1, 1, 0),
                      (1, -1, 0, 0, -1), (-1, 1, 0, 0, 1)]
        for p, want in zip(pairs, expected_n):
            n_row = tuple(int(Fraction(v)) for v in circulant.compute_N(p, 3))
            assert n_row == want
            facts = cli._pair_facts(p)
            assert abs(facts["detD"]) == 48
            assert facts["detAlphaPlusA"] == 48
        for p in pairs:
            cf = frames.conference_frame(p, "plus")
            model, rep = coordinatized(cf)
            assert lattice.lattice_determinant(model) == SurdValue(Fraction(4, 9), 1)
            assert 2 * len(rep.vectors) == 20
            assert lattice.frame_vectors_are_minimal(cf, rep)
        gram_1 = natural_gram(pairs[0], "plus")
        gram_3 = natural_gram(pairs[2], "plus")
        assert lattice.scalar_orthogonal_equivalence(gram_1, gram_3) is None


def test_criterion_05_13_26():
    with budget(10.0):
        pairs = circulant.search_conference_pairs(13)
        assert len(pairs) == 12
        n_int = []
        for p in pairs:
            facts = cli._pair_facts(p)
            # det(5I+A) * det(5I-A) = (det D)^2 = 2560000 * 23040000
            # = 7680000^2 pins |det D| exactly.
            assert abs(facts["detD"]) == 7680000
            n_int.append(facts["nIntegral"])
            assert facts["nIntegral"] != facts["nInverseIntegral"]
            if facts["nIntegral"]:
                assert facts["detAlphaPlusA"] == 2560000
                assert facts["detAlphaMinusA"] == 23040000
            else:
                assert facts["detAlphaMinusA"] == 2560000
                assert facts["detAlphaPlusA"] == 23040000
        assert sum(n_int) == 6 and sum(not b for b in n_int) == 6
        for p in pairs:
            variant = frames.preferred_variant(p)
            cf = frames.conference_frame(p, variant)
            model, rep = coordinatized(cf)
            det = lattice.lattice_determinant(model)
            assert det == SurdValue(Fraction(64, 3125), 5)
            assert abs(float(det) - 0.0458) <= 0.0001
            assert 2 * len(rep.vectors) == 52
            assert lattice.frame_vectors_are_minimal(cf, rep)
        grams = [natural_gram(p, frames.preferred_variant(p)) for p in pairs]
        assert lattice.equivalence_classes(grams) == \
            [[0, 1, 10, 11], [2, 3, 8, 9], [4, 5, 6, 7]]


def _resultant(f, g):
    """Res(f, g) by Euclid's algorithm over Fraction; coefficients lowest first.

    For monic f this is the product of g over the roots of f.  Each step uses
    Res(f, g) = (-1)^(deg f * deg g) * lc(g)^(deg f - deg r) * Res(g, r) with
    r = f mod g, down to Res(f, c) = c^(deg f) for a constant c (0 for r = 0).
    """
    f, g = [Fraction(c) for c in f], [Fraction(c) for c in g]
    res = Fraction(1)
    while True:
        while g and g[-1] == 0:
            g.pop()
        if not g:
            return Fraction(0)
        m, n = len(f) - 1, len(g) - 1
        if n == 0:
            return res * g[0] ** m
        r = f[:]
        while len(r) > n:
            q = r[-1] / g[-1]
            for i, c in enumerate(g):
                r[len(r) - 1 - n + i] -= q * c
            r.pop()
        while r and r[-1] == 0:
            r.pop()
        res *= (-1) ** (m * n) * g[-1] ** (m - len(r) + 1)
        f, g = g, r


def _is_seven_times_square(n):
    return n > 0 and n % 7 == 0 and math.isqrt(n // 7) ** 2 == n // 7


PHI_5 = [1] * 5                    # 1 + x + x^2 + x^3 + x^4
PHI_25 = [1, 0, 0, 0, 0] * 4 + [1]  # PHI_5(x^5); x^25 - 1 = (x - 1) PHI_5 PHI_25


def test_criterion_06_25_50_det_factorization(facts25, pairs25_timed):
    # det(7I +- A) = Res(x^25 - 1, g) with g(x) = 7 +- a(x), a(x) the sign row
    # as a polynomial (circ(a) has eigenvalues a(w), w^25 = 1).  It splits
    # over x^25 - 1 = (x - 1) PHI_5 PHI_25 into g(1), Res(PHI_5, g) and
    # Res(PHI_25, g), each computed below by _resultant, which shares no code
    # with Bareiss or cli._pair_facts.
    #
    # Why the old pin 2^22 * 3^2 * 5^2 * 7^2 * 11^4 = 677032073625600 cannot
    # hold: lambda0 = sum(a) is even (24 signs) and mu0 = sum(d) is odd (25
    # signs), and the conference condition at w = 1 gives lambda0^2 + mu0^2
    # = 49, so lambda0 = 0 and g(1) = 7.  A is symmetric, so a(w) = a(1/w) and
    # each of Res(PHI_5, g), Res(PHI_25, g) is the square of a norm from a
    # real subfield, an integer.  Hence det(7I +- A) = 7 * m^2 for an integer
    # m, with an odd power of 7.  The old pin is a perfect square (7^2), so no
    # conference pair of order 25 attains it; the 7 * m^2 assertion rejects it.
    pairs, _ = pairs25_timed
    assert len(pairs) == len(facts25) == 20
    for p, facts in zip(pairs, facts25):
        for sign, det in ((1, facts["detAlphaPlusA"]), (-1, facts["detAlphaMinusA"])):
            g = [7 + sign * p.a_row[0]] + [sign * c for c in p.a_row[1:]]
            factors = (sum(g), _resultant(PHI_5, g), _resultant(PHI_25, g))
            assert factors == (7, 4**2, (2**10 * 7**4) ** 2), (p, sign)
            assert math.prod(factors) == det == 2**24 * 7**9, (p, sign)
            assert _is_seven_times_square(det), (p, sign)
    assert not _is_seven_times_square(2**22 * 3**2 * 5**2 * 7**2 * 11**4)


def test_criterion_06_25_50_det_consistency(facts25, pairs25_timed):
    # The program's own identities on the same value: both signs agree,
    # their product is the square of det D, and N and N^-1 are integral.
    # The independent resultant check is the factorization test above.
    computed = 2**24 * 7**9
    pairs, _ = pairs25_timed
    for p, facts in zip(pairs, facts25):
        assert facts["detAlphaPlusA"] == computed
        assert facts["detAlphaMinusA"] == computed
        assert facts["detAlphaPlusA"] * facts["detAlphaMinusA"] == facts["detD"] ** 2
        assert facts["nIntegral"] and facts["nInverseIntegral"]


def test_criterion_06_25_50_lattice_invariants(pairs25_timed):
    pairs, _ = pairs25_timed
    ordered = sorted(pairs, key=lambda p: (p.d_row[0], p.a_row, p.d_row))
    for j in range(10):
        assert ordered[j].a_row == ordered[j + 10].a_row, f"B_{j+1} vs B_{j+11}"
    model = lattice.LatticeModel(natural_gram(ordered[0], "plus"))
    det = lattice.lattice_determinant(model)
    assert abs(float(det) - 0.00071052) <= 1e-8
    classes = lattice.equivalence_classes([natural_gram(p, "plus") for p in ordered[:10]])
    assert classes == [[i] for i in range(10)]


def test_criterion_07_6_16():
    with budget(1.0):
        cf = frames.frame_6_16()
        assert tuple(cf.basis_indices) == (1, 2, 3, 4, 5, 9)
        assert cf.beta == 1
        model = lattice.lattice_model(cf)
        assert bareiss_determinant(model.gram) == Fraction(2**6, 3**6)
        rep = lattice.minimal_vectors(model)
        assert 2 * len(rep.vectors) == 32
        assert lattice.frame_vectors_are_minimal(cf, rep)
        assert lattice.has_basis_of_minimal_vectors(model, rep)


def test_criterion_08_7_28():
    with budget(5.0):
        cf = frames.frame_7_28()
        model = lattice.lattice_model(cf)
        assert bareiss_determinant(model.gram) == Fraction(2**6, 3**7)
        rep = lattice.minimal_vectors(model)
        assert 2 * len(rep.vectors) == 56
        assert lattice.frame_vectors_are_minimal(cf, rep)
        assert geometry.strong_eutaxy_check(model, rep) is not None
        assert geometry.perfection_rank(model, rep) == 28
        assert geometry.perfection_certificate_det_7_28() == 3 * 2**159
        assert geometry.perfection_certificate_matrix_7_28() == fixture_matrix()
        assert abs(lattice.packing_density(model, rep) - 0.2157) <= 0.0001


def test_criterion_09_oracle_equivalence():
    with budget(5.0):
        cfs = [frames.simplex_frame(k) for k in range(2, 8)]
        for p in circulant.search_conference_pairs(5):
            cfs += [frames.conference_frame(p, variant) for variant in ("plus", "minus")]
        cfs += [frames.frame_6_16(), frames.frame_7_28()]
        for model in map(lattice.lattice_model, cfs):
            fast = set(lattice.enumerate_short_vectors(model, Fraction(1)))
            slow = set(lattice.brute_force_short_vectors(model, Fraction(1)))
            assert fast == slow, f"k = {model.k}"


def test_criterion_10_property_suites():
    ok, detail = cli._check_property_suites()
    assert ok, detail
