"""Symmetric circulant rows over the integers/rationals and the conference-pair search.

A symmetric circulant is determined by its palindromic first row, so everything
here works on rows; full matrices are materialized only when a caller needs one
(determinants, linear solves).  The search enumerates sign patterns for a pair
of circulants (A, D) with A having a zero leading entry, looking for
a*a + d*d = (2k-1)e0 under cyclic convolution — equivalently C^2 = (2k-1)I for
the block matrix C = [[A, D], [D, -A]].

The search never convolves rows.  It keys each candidate row a by the integer
Σ_j (a*a)_j·B^j with B = 2^16 (Kronecker substitution).  A palindromic row has
a(x^-1) ≡ a(x) mod x^k - 1, so with E = Σ (a_j + 1)·B^j the autocorrelation is
E² mod (B^k - 1) minus (2·Σa + k)·J, where J = Σ B^j.  Each digit of the folded
square is at most 4k < B (for k < 2^14), so no digit carries into the next;
the keys of two autocorrelations (digits at most k in absolute value) are
equal exactly when the autocorrelations are.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import product
from operator import mul
from typing import NamedTuple

from .exact import Rational, SingularMatrixError, SizeMismatchError, solve_linear, transpose

Row = tuple  # first row of a circulant; entries int or Fraction


class MalformedPatternError(ValueError):
    """Sign pattern violates the (aRow, dRow) shape constraints."""


class SingularCirculantError(ZeroDivisionError):
    """The circulant has no inverse."""


class BothSingularError(ZeroDivisionError):
    """Neither A + aI nor D + bI is invertible."""


class CacheCorruptError(ValueError):
    """A pair-cache file failed schema or conference validation."""


class ConferencePair(NamedTuple):
    k: int
    a_row: Row
    d_row: Row


def circulant_matrix(row):
    """k x k matrix M with M[i][j] = row[(j - i) % k]."""
    k = len(row)
    return [[row[(j - i) % k] for j in range(k)] for i in range(k)]


def is_palindromic(row) -> bool:
    k = len(row)
    return all(row[i] == row[k - i] for i in range(1, k))


def circulant_multiply(a: Row, b: Row) -> Row:
    """First row of circ(a) · circ(b), i.e. the cyclic convolution of the rows."""
    if len(a) != len(b):
        raise SizeMismatchError(f"rows of size {len(a)} and {len(b)}")
    k = len(a)
    return tuple(sum(a[i] * b[(j - i) % k] for i in range(k)) for j in range(k))


def _check_pattern(p: ConferencePair) -> None:
    k = p.k
    if len(p.a_row) != k or len(p.d_row) != k:
        raise MalformedPatternError("row lengths do not match k")
    if p.a_row[0] != 0:
        raise MalformedPatternError("aRow must start with 0")
    if any(v not in (-1, 1) for v in p.a_row[1:]):
        raise MalformedPatternError("aRow tail must be +-1")
    if any(v not in (-1, 1) for v in p.d_row):
        raise MalformedPatternError("dRow must be +-1 throughout")
    if not (is_palindromic(p.a_row) and is_palindromic(p.d_row)):
        raise MalformedPatternError("rows must be palindromic")


def is_conference(p: ConferencePair) -> bool:
    """True iff a*a + d*d = (2k-1)·e0, the conference condition C² = (n-1)I."""
    _check_pattern(p)
    k = p.k
    aa = circulant_multiply(p.a_row, p.a_row)
    dd = circulant_multiply(p.d_row, p.d_row)
    target = (2 * k - 1,) + (0,) * (k - 1)
    return tuple(x + y for x, y in zip(aa, dd)) == target


def _sign_slots(k: int) -> list[tuple]:
    """Row positions filled by each free sign of a palindromic row after its head.

    Sign i fills positions i and k - i for 1 <= i <= (k-1)/2; even k has a
    self-mirrored middle position k/2 that takes one extra sign.
    """
    slots = [(i, k - i) for i in range(1, (k - 1) // 2 + 1)]
    if k % 2 == 0:
        slots.append((k // 2,))
    return slots


def _palindromic_row(k: int, head, signs) -> Row:
    row = [head] + [0] * (k - 1)
    for sign, positions in zip(signs, _sign_slots(k)):
        for i in positions:
            row[i] = sign
    return tuple(row)


def free_sign_counts(k: int) -> tuple[int, int]:
    """(number of free signs in aRow, in dRow) for the palindromic layout."""
    tail = len(_sign_slots(k))
    return tail, tail + 1


_DIGIT_BITS = 16  # B = 2^16 in the search keys


def autocorrelation_key(k: int, e: int, total: int) -> int:
    """Σ_j (a*a)_j·B^j, B = 2^16, for a palindromic row a of length k < 2^14
    with entries in {-1, 0, 1}, given E = Σ (a_j + 1)·B^j and total = Σ a_j.

    E² folded modulo B^k - 1 is (a+1)*(a+1) = a*a + (2·Σa + k)·J (see the
    module docstring for why no digit carries).
    """
    width = _DIGIT_BITS * k
    mask = (1 << width) - 1
    sq = e * e
    return (sq & mask) + (sq >> width) - (2 * total + k) * (mask // ((1 << _DIGIT_BITS) - 1))


def _keyed_rows(k: int, slots: list[tuple]):
    """(signs, autocorrelation_key) of every row that is 0 outside ``slots`` and
    takes one sign on each slot's positions, in ``product`` order of the signs."""
    zero_row = sum(1 << (_DIGIT_BITS * j) for j in range(k))
    weights = [sum(1 << (_DIGIT_BITS * i) for i in positions) for positions in slots]
    sizes = [len(positions) for positions in slots]
    for signs in product((-1, 1), repeat=len(slots)):
        e = zero_row + sum(map(mul, signs, weights))
        yield signs, autocorrelation_key(k, e, sum(map(mul, signs, sizes)))


def search_conference_pairs(k: int, *, brute_force: bool = False) -> list[ConferencePair]:
    """All conference pairs over the palindromic sign parameterization.

    Results come in lexicographic order of the combined sign tuple
    (aRow signs, then dRow head and body) with -1 ordered before +1, which
    pins deterministic pair indices t1, t2, ...

    The default strategy is meet-in-the-middle on integer keys: bucket aRow
    candidates by 2k - 1 minus the key of a*a and join dRow candidates on the
    key of d*d (``autocorrelation_key``); rows are built for joined pairs only.
    ``brute_force=True`` scans all 2^k sign tuples with ``circulant_multiply``
    instead (auditing aid; identical output, order included).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    na, nd = free_sign_counts(k)

    if brute_force:
        target = (2 * k - 1,) + (0,) * (k - 1)
        found = []
        for signs in product((-1, 1), repeat=na + nd):
            a = _palindromic_row(k, 0, signs[:na])
            d = _palindromic_row(k, signs[na], signs[na + 1:])
            aa = circulant_multiply(a, a)
            dd = circulant_multiply(d, d)
            if tuple(x + y for x, y in zip(aa, dd)) == target:
                found.append(ConferencePair(k, a, d))
        return found

    slots = _sign_slots(k)
    buckets: dict[int, list[tuple]] = {}
    for asigns, key in _keyed_rows(k, slots):
        buckets.setdefault(2 * k - 1 - key, []).append(asigns)
    joined = sorted(asigns + dsigns
                    for dsigns, key in _keyed_rows(k, [(0,)] + slots)
                    for asigns in buckets.get(key, ()))
    return [ConferencePair(k, _palindromic_row(k, 0, signs[:na]),
                           _palindromic_row(k, signs[na], signs[na + 1:]))
            for signs in joined]


def circulant_inverse(row: Row) -> Row:
    """First row of the inverse circulant, exact.

    Solves conv(r, row) = e0 for r, which in matrix form is circ(row)' r = e0.
    """
    k = len(row)
    m = transpose(circulant_matrix(row))
    e0 = [[1 if i == 0 else 0] for i in range(k)]
    try:
        col = solve_linear(m, e0)
    except SingularMatrixError as exc:
        raise SingularCirculantError("circulant is singular") from exc
    return tuple(r[0] for r in col)


def add_scalar(row: Row, c) -> Row:
    """Row of circ(row) + c·I."""
    return (row[0] + c,) + tuple(row[1:])


def compute_N(p: ConferencePair, a: Rational, b: Rational, alpha: int) -> Row:
    """First row of N = (D + bI)^{-1}(A − aI), falling back to (A + aI)^{-1}(bI − D).

    The D-pivot form is preferred whenever D + bI is invertible; with b = 0
    it specializes to N = D^{-1}(A − αI).
    """
    k = p.k
    if Fraction(a) ** 2 + Fraction(b) ** 2 != alpha * alpha or alpha * alpha != 2 * k - 1:
        raise ValueError("need a^2 + b^2 = alpha^2 = 2k - 1")
    try:
        inv = circulant_inverse(add_scalar(p.d_row, b))
    except SingularCirculantError:
        pass
    else:
        rhs = add_scalar(p.a_row, -a)
        return circulant_multiply(inv, rhs)
    try:
        inv = circulant_inverse(add_scalar(p.a_row, a))
    except SingularCirculantError:
        raise BothSingularError("A + aI and D + bI are both singular") from None
    rhs = add_scalar(tuple(-v for v in p.d_row), b)
    return circulant_multiply(inv, rhs)


# --- JSON cache -------------------------------------------------------------

def save_pairs(path: str, k: int, pairs: list[ConferencePair]) -> None:
    """Write a pair cache atomically: a temp file beside it, then os.replace.

    An interrupted write leaves any earlier cache file untouched.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    doc = {"k": k, "pairs": [{"aRow": list(p.a_row), "dRow": list(p.d_row)} for p in pairs]}
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_pairs(path: str) -> list[ConferencePair]:
    """Read a pair cache, re-validating every entry against the conference condition."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheCorruptError(f"unreadable cache {path}: {exc}") from exc
    if not isinstance(doc, dict) or "k" not in doc or "pairs" not in doc:
        raise CacheCorruptError(f"bad cache schema in {path}")
    k = doc["k"]
    pairs = []
    try:
        for entry in doc["pairs"]:
            p = ConferencePair(k, tuple(entry["aRow"]), tuple(entry["dRow"]))
            if not is_conference(p):
                raise CacheCorruptError(f"non-conference pair in {path}")
            pairs.append(p)
    except CacheCorruptError:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise CacheCorruptError(f"bad pair entry in {path}: {exc}") from exc
    return pairs
