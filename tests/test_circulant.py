"""Tests for circulant rows and the conference-pair search."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from framelat.circulant import (
    BothSingularError,
    CacheCorruptError,
    ConferencePair,
    MalformedPatternError,
    SingularCirculantError,
    autocorrelation_key,
    circulant_inverse,
    circulant_matrix,
    circulant_multiply,
    compute_N,
    free_sign_counts,
    is_conference,
    load_pairs,
    save_pairs,
    search_conference_pairs,
)
from framelat.exact import SizeMismatchError, bareiss_determinant

F = Fraction

E0_5 = (1, 0, 0, 0, 0)


def signs(text):
    """'0,-,+,+,-' -> (0, -1, 1, 1, -1)"""
    lut = {"0": 0, "-": -1, "+": 1}
    return tuple(lut[c.strip()] for c in text.split(","))


# independently hard-coded fixture: the known (5,10) pair list
T5 = [
    (signs("0,-,+,+,-"), signs("-,+,+,+,+")),
    (signs("0,-,+,+,-"), signs("+,-,-,-,-")),
    (signs("0,+,-,-,+"), signs("-,+,+,+,+")),
    (signs("0,+,-,-,+"), signs("+,-,-,-,-")),
]


def test_circulant_matrix_layout():
    m = circulant_matrix((10, 20, 30))
    assert m == [[10, 20, 30], [30, 10, 20], [20, 30, 10]]


def test_multiply_identity_row():
    e0 = (1, 0, 0, 0)
    b = (2, 3, 5, 3)
    assert circulant_multiply(e0, b) == b


def test_multiply_small_hand_example():
    assert circulant_multiply((0, 1, 1), (0, 1, 1)) == (2, 1, 1)


def test_multiply_size_mismatch():
    with pytest.raises(SizeMismatchError):
        circulant_multiply((1, 0), (1, 0, 0))


def test_multiply_commutes_and_associates():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 7)
        a = tuple(rng.randint(-3, 3) for _ in range(k))
        b = tuple(rng.randint(-3, 3) for _ in range(k))
        c = tuple(rng.randint(-3, 3) for _ in range(k))
        assert circulant_multiply(a, b) == circulant_multiply(b, a)
        assert circulant_multiply(circulant_multiply(a, b), c) == \
            circulant_multiply(a, circulant_multiply(b, c))


def test_multiply_agrees_with_matrix_product():
    rng = random.Random(18)
    for _ in range(20):
        k = rng.randint(2, 6)
        a = tuple(rng.randint(-4, 4) for _ in range(k))
        b = tuple(rng.randint(-4, 4) for _ in range(k))
        ma = circulant_matrix(a)
        mb = circulant_matrix(b)
        prod_row = tuple(sum(ma[0][t] * mb[t][j] for t in range(k)) for j in range(k))
        assert circulant_multiply(a, b) == prod_row


def test_is_conference_known_pair():
    a, d = T5[0]
    pair = ConferencePair(5, a, d)
    assert is_conference(pair)
    assert circulant_multiply(a, a) == (4, -1, -1, -1, -1)
    aa = circulant_multiply(a, a)
    dd = circulant_multiply(d, d)
    assert tuple(x + y for x, y in zip(aa, dd)) == (9, 0, 0, 0, 0)


def test_is_conference_all_plus_is_false():
    pair = ConferencePair(5, signs("0,+,+,+,+"), signs("+,+,+,+,+"))
    assert not is_conference(pair)


def test_is_conference_malformed():
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (1, 1, 1, 1, 1), (1,) * 5))  # bad head
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, 0, 0, 1), (1,) * 5))  # zero in tail
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, -1, 1, 1), (1,) * 5))  # not palindromic
    with pytest.raises(MalformedPatternError):
        is_conference(ConferencePair(5, (0, 1, 1, 1, 1), (1, 1, 2, 2, 1)))  # bad sign


def test_search_k5_exact_list():
    found = search_conference_pairs(5)
    assert [(p.a_row, p.d_row) for p in found] == T5


def test_search_k5_is_exhaustive():
    # every sign tuple not returned fails the conference condition (all 32)
    from itertools import product
    found = {(p.a_row, p.d_row) for p in search_conference_pairs(5)}
    na, nd = free_sign_counts(5)
    assert (na, nd) == (2, 3)
    seen = 0
    for tup in product((-1, 1), repeat=na + nd):
        a = (0, tup[0], tup[1], tup[1], tup[0])
        d = (tup[2], tup[3], tup[4], tup[4], tup[3])
        pair = ConferencePair(5, a, d)
        assert is_conference(pair) == ((a, d) in found)
        seen += 1
    assert seen == 32


def test_search_counts():
    assert len(search_conference_pairs(5)) == 4
    assert len(search_conference_pairs(13)) == 12


def test_search_mitm_matches_brute_force():
    for k in range(2, 14):
        assert search_conference_pairs(k) == search_conference_pairs(k, brute_force=True)


def packed(row):
    """Σ row_j·2^(16j), the documented encoding of the search keys."""
    return sum(v << (16 * j) for j, v in enumerate(row))


@st.composite
def palindromic_rows(draw):
    k = draw(st.integers(2, 61))
    head = draw(st.sampled_from((-1, 0, 1)))
    half = [draw(st.sampled_from((-1, 1))) for _ in range(k // 2)]
    return (head,) + tuple(half[min(i, k - i) - 1] for i in range(1, k))


@given(palindromic_rows())
def test_autocorrelation_key_matches_circulant_multiply(a):
    key = autocorrelation_key(len(a), packed(v + 1 for v in a), sum(a))
    assert key == packed(circulant_multiply(a, a))


def test_search_k13_contains_known_rows():
    found = search_conference_pairs(13)
    a = signs("0,-,-,-,+,-,+,+,-,+,-,-,-")
    d = signs("-,-,+,+,+,-,+,+,-,+,+,+,-")
    assert (a, d) == (found[0].a_row, found[0].d_row)


def test_inverse_identity():
    assert circulant_inverse((1, 0, 0)) == (1, 0, 0)


def test_inverse_roundtrip():
    rng = random.Random(3)
    done = 0
    while done < 25:
        k = rng.randint(2, 6)
        row = tuple(rng.randint(-3, 3) for _ in range(k))
        try:
            inv = circulant_inverse(row)
        except SingularCirculantError:
            continue
        e0 = (1,) + (0,) * (k - 1)
        assert circulant_multiply(inv, row) == e0
        done += 1


def test_inverse_of_known_D():
    _, d = T5[0]
    inv = circulant_inverse(d)
    assert circulant_multiply(inv, d) == E0_5
    det = bareiss_determinant(circulant_matrix(d))
    assert abs(det) == 48


def test_singular_A_raises():
    a, _ = T5[0]
    with pytest.raises(SingularCirculantError):
        circulant_inverse(a)


def test_inverse_of_non_numeric_row_is_not_reported_singular():
    # only a genuinely singular circulant may surface as SingularCirculantError
    with pytest.raises((AttributeError, TypeError)):
        circulant_inverse(("x", 1, 1))


def test_compute_N_t1():
    pair = ConferencePair(5, *T5[0])
    n_row = compute_N(pair, 3, 0, 3)
    assert n_row == (1, 0, -1, -1, 0)


def test_compute_N_t4():
    pair = ConferencePair(5, *T5[3])
    assert compute_N(pair, 3, 0, 3) == (-1, 1, 0, 0, 1)


def test_compute_N_defining_identity():
    # both defining identities hold exactly for one and the same N:
    # (D + bI) N = A - aI and (A + aI) N = bI - D
    for a_row, d_row in T5:
        pair = ConferencePair(5, a_row, d_row)
        for a, b in ((3, 0), (0, 3), (F(9, 5), F(12, 5))):
            if (a, b) == (0, 3) and d_row[0] == 1:
                continue  # D + 3I singular there, A singular too
            n_row = compute_N(pair, a, b, 3)
            lhs_d = circulant_multiply((d_row[0] + b,) + d_row[1:], n_row)
            assert lhs_d == (a_row[0] - a,) + a_row[1:]
            lhs_a = circulant_multiply((a_row[0] + a,) + a_row[1:], n_row)
            assert tuple(lhs_a) == (F(b) - d_row[0],) + tuple(-v for v in d_row[1:])


def test_compute_N_both_pivots_singular():
    pair = ConferencePair(5, *T5[0])
    # D's row sums to 3, so b = -3 kills the all-ones eigenvalue of D + bI;
    # A itself is singular, so a = 0 leaves no usable pivot on either side.
    with pytest.raises(BothSingularError):
        compute_N(pair, 0, -3, 3)


def test_compute_N_rejects_bad_parameters():
    pair = ConferencePair(5, *T5[0])
    with pytest.raises(ValueError):
        compute_N(pair, 1, 1, 3)


def test_cache_roundtrip(tmp_path):
    path = str(tmp_path / "pairs.json")
    pairs = search_conference_pairs(5)
    save_pairs(path, 5, pairs)
    assert load_pairs(path) == pairs


def test_cache_write_is_atomic(tmp_path, monkeypatch):
    path = str(tmp_path / "pairs.json")
    pairs = search_conference_pairs(5)
    save_pairs(path, 5, pairs)

    def interrupted_dump(doc, fh):
        fh.write('{"k": 5, "pairs": [{"aRow": [0, ')
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted_dump)
    with pytest.raises(KeyboardInterrupt):
        save_pairs(path, 5, pairs[:1])
    assert load_pairs(path) == pairs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.json"]


def test_cache_corrupt_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path))


def test_cache_bad_schema(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"pairs": []}))
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path))


def test_cache_tampered_pair(tmp_path):
    path = tmp_path / "bad3.json"
    doc = {"k": 5, "pairs": [{"aRow": [0, 1, 1, 1, 1], "dRow": [1, 1, 1, 1, 1]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheCorruptError):
        load_pairs(str(path))
