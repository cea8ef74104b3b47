"""Output checks for the benchmark's framelat commands.

Expected values come from the paper and the pins in ``tests/test_acceptance.py``
(pair counts, determinants, minimal-vector counts, the 7x28 certificate),
recomputed here from closed forms where one exists, so a wrong program output
cannot also bend its own check.  Values with no closed form (the pair counts at
the irrational-alpha orders 21 and 27, and which variant of a (13,26) pair
coordinatizes over the integers) are pinned as the seed commit found them.

Every checker takes ``(exit_code, stdout)`` and raises ``CheckFailed`` on the
first mismatch.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as F


class CheckFailed(Exception):
    """A command's exit code or output differs from the expected result."""


def _need(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _close(x: float, want: float, rel: float = 1e-9) -> bool:
    return abs(x - want) <= rel * abs(want)


# --- exact surds -----------------------------------------------------------------


def surd_sqrt(q: F) -> tuple[F, int]:
    """sqrt(q) as (coefficient, squarefree radicand)."""
    n = q.numerator * q.denominator  # sqrt(a/b) = sqrt(a*b) / b
    square, radicand, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        square *= p ** (e // 2)
        radicand *= p ** (e % 2)
        p += 1
    radicand *= n
    return F(square, q.denominator), radicand


def _surd_json(coeff: F, radicand: int) -> dict:
    return {"coeff": str(coeff), "radicand": radicand}


def _surd_float(coeff: F, radicand: int) -> float:
    return float(coeff) * math.sqrt(radicand)


# --- analyze ----------------------------------------------------------------------

# Lattice volume (coefficient, radicand) of the families whose frame vectors
# are the minimal vectors.  (25,50): 2^12/7^8 = 4096/5764801, reference decimal
# 0.00071052; (13,26): (64/3125)*sqrt(5), reference decimal 0.0458.
VOLUMES = {
    5: (F(4, 9), 1),
    13: (F(64, 3125), 5),
    25: (F(4096, 5764801), 1),
    "explicit:6x16": (F(8, 27), 1),  # sqrt(2^6/3^6)
    "explicit:7x28": (F(8, 81), 3),  # sqrt(2^6/3^7)
}

# For each (13,26) pair index, the variant whose basis coordinatizes the frame
# over the integers (N integral -> plus, else minus), as found at the seed
# commit: six of each.  The other variant gives the "beta = 3" lattice below.
PREFERRED_13 = "ppppmmppmmmm"
OTHER_13 = {
    "beta": 3, "detSurd": _surd_json(F(192, 3125), 5), "minVecCountWithSigns": 26,
    "framesAreMinimal": False, "basisOfMinimalVectors": True, "eutactic": False,
    "parsevalConstant": None, "perfectionRank": 13, "perfect": False,
}

CERTIFICATE_DET_7_28 = 3 * 2 ** 159


def simplex_volume(k: int) -> tuple[F, int]:
    return surd_sqrt(F(1, k + 1) * F(k + 1, k) ** k)


def _frame_minimal_profile(k: int, n: int, volume: tuple[F, int]) -> dict:
    """Expected report when the frame vectors are exactly the minimal vectors."""
    return {
        "beta": 1, "detSurd": _surd_json(*volume), "minVecCountWithSigns": 2 * n,
        "framesAreMinimal": True, "basisOfMinimalVectors": True, "eutactic": True,
        "parsevalConstant": str(F(2 * n, k)), "perfectionRank": n,
        "perfect": n == k * (k + 1) // 2,
    }


def expected_analyze(selector: str) -> dict:
    parts = selector.split(":")
    if parts[0] == "simplex":
        k = int(parts[1])
        n = k + 1
        want = _frame_minimal_profile(k, n, simplex_volume(k))
    elif parts[0] == "conference":
        k, i, variant = int(parts[1]), int(parts[2]), parts[3]
        n = 2 * k
        want = _frame_minimal_profile(k, n, VOLUMES[k])
        if k == 13 and variant[0] != PREFERRED_13[i]:
            want = dict(OTHER_13)
    else:
        k, n = {"explicit:6x16": (6, 16), "explicit:7x28": (7, 28)}[selector]
        want = _frame_minimal_profile(k, n, VOLUMES[selector])
        if selector == "explicit:7x28":
            want["detD"] = CERTIFICATE_DET_7_28
    want.update({"k": k, "n": n, "label": selector, "isLattice": True, "minNormSq": "1"})
    return want


def analyze_checker(selector: str):
    want = expected_analyze(selector)

    def check(code: int, out: str) -> None:
        _need(code == 0, f"analyze {selector}: exit code {code}")
        r = json.loads(out)
        for key, value in want.items():
            _need(r.get(key) == value, f"{selector}: {key} = {r.get(key)!r}, expected {value!r}")
        k = want["k"]
        det = _surd_float(F(want["detSurd"]["coeff"]), want["detSurd"]["radicand"])
        _need(_close(r["detFloat"], det), f"{selector}: detFloat {r['detFloat']} != {det}")
        ball = math.pi ** (k / 2) / math.gamma(k / 2 + 1) / 2 ** k  # unit min norm
        _need(_close(r["density"], ball / det), f"{selector}: density {r['density']}")
        if selector == "explicit:7x28":
            _need(abs(r["density"] - 0.2157) <= 1e-4, "explicit:7x28: density != 0.2157")
    return check


# --- table1 -----------------------------------------------------------------------

# (family, k, n, volume or None for "no lattice", perfect)
TABLE1 = (
    ("(k+1,k) k=4", 4, 5, simplex_volume(4), False),
    ("(3,6)", 3, 6, None, None),
    ("(5,10)", 5, 10, VOLUMES[5], False),
    ("(6,16)", 6, 16, VOLUMES["explicit:6x16"], False),
    ("(7,14)", 7, 14, None, None),
    ("(7,28)", 7, 28, VOLUMES["explicit:7x28"], True),
    ("(9,18)", 9, 18, None, None),
    ("(13,26)", 13, 26, VOLUMES[13], False),
    ("(25,50)", 25, 50, VOLUMES[25], False),
)


def check_table1(code: int, out: str) -> None:
    _need(code == 0, f"table1: exit code {code}")
    rows = json.loads(out)["rows"]
    _need(len(rows) == len(TABLE1), f"table1: {len(rows)} rows")
    for row, (family, k, n, volume, perfect) in zip(rows, TABLE1):
        cosine = surd_sqrt(F(n - k, k * (n - 1)))  # 1/alpha
        lattice = volume is not None
        want = {
            "family": family, "k": k, "n": n, "cosine": _surd_json(*cosine),
            "isLattice": lattice,
            "volumeSurd": _surd_json(*volume) if lattice else None,
            "framesAreMinimal": True if lattice else None,
            "basisOfMinimalVectors": True if lattice else None,
            "perfect": perfect,
        }
        for key, value in want.items():
            _need(row.get(key) == value, f"table1 {family}: {key} = {row.get(key)!r}")
        _need(_close(row["cosineFloat"], _surd_float(*cosine)), f"table1 {family}: cosineFloat")
        if lattice:
            _need(_close(row["volumeFloat"], _surd_float(*volume)), f"table1 {family}: volumeFloat")


# --- verify-all ----------------------------------------------------------------------

VERIFY_LABELS = (
    "alpha-gate", "simplex", "search-counts", "5x10", "13x26", "25x50-det-factorization",
    "25x50-lattice", "6x16", "7x28", "oracle-equivalence", "properties",
)
# The pinned factorization 2^22*3^2*5^2*7^2*11^4 disagrees with the exact
# det(7I +- A) = 2^24*7^9; the check must keep reporting that one FAIL.
EXPECTED_FAIL = "25x50-det-factorization"
COMPUTED_DET_25 = 2 ** 24 * 7 ** 9  # 677021181018112


def check_verify_all(code: int, out: str) -> None:
    _need(code == 1, f"verify-all: exit code {code}, expected 1 (one known FAIL)")
    report = json.loads(out)
    labels = tuple(c["label"] for c in report["checks"])
    _need(labels == VERIFY_LABELS, f"verify-all: checks {labels}")
    failed = [c for c in report["checks"] if not c["ok"]]
    _need([c["label"] for c in failed] == [EXPECTED_FAIL],
          f"verify-all: failing checks {[c['label'] for c in failed]}")
    _need(str(COMPUTED_DET_25) in failed[0]["detail"], "verify-all: FAIL detail lacks 2^24*7^9")
    _need((report["passed"], report["failed"], report["skipped"]) == (10, 1, []),
          "verify-all: summary counts")


# --- search ----------------------------------------------------------------------------

# Pair counts: 12 and 20 from the paper (12 cross-checked against brute force);
# 24 and 36 at the irrational-alpha orders as found at the seed commit.
SEARCH_COUNTS = {5: 4, 13: 12, 21: 24, 25: 20, 27: 36}


def _is_conference(k: int, a: list, d: list) -> bool:
    """a*a + d*d = (2k-1) e0 under cyclic convolution, for palindromic sign rows."""
    if len(a) != k or len(d) != k or a[0] != 0:
        return False
    if any(v not in (-1, 1) for v in a[1:] + d):
        return False
    if any(a[i] != a[k - i] or d[i] != d[k - i] for i in range(1, k)):
        return False
    for shift in range(k):
        s = sum(a[i] * a[(i + shift) % k] + d[i] * d[(i + shift) % k] for i in range(k))
        if s != (2 * k - 1 if shift == 0 else 0):
            return False
    return True


def _sign_key(k: int, a: list, d: list) -> tuple:
    # the search's documented order: aRow signs, then dRow head and body
    half = (k - 1) // 2
    return tuple(a[1:half + 1]) + (d[0],) + tuple(d[1:half + 1])


def _check_facts(k: int, pairs: list) -> None:
    if k == 13:
        for e in pairs:
            _need(abs(e["detD"]) == 7680000, "search 13: |det D| != 7680000")
            _need(e["nIntegral"] != e["nInverseIntegral"], "search 13: integrality not split")
            side, other = ((e["detAlphaPlusA"], e["detAlphaMinusA"]) if e["nIntegral"]
                           else (e["detAlphaMinusA"], e["detAlphaPlusA"]))
            _need((side, other) == (2560000, 23040000), "search 13: det(5I +- A)")
        _need(sum(e["nIntegral"] for e in pairs) == 6, "search 13: expected a 6 / 6 split")
        _need("".join("p" if e["nIntegral"] else "m" for e in pairs) == PREFERRED_13,
              "search 13: N-integral pairs moved")
    elif k == 25:
        for e in pairs:
            _need(e["detAlphaPlusA"] == e["detAlphaMinusA"] == COMPUTED_DET_25,
                  "search 25: det(7I +- A) != 2^24*7^9")
            _need(e["detAlphaPlusA"] * e["detAlphaMinusA"] == e["detD"] ** 2,
                  "search 25: det(7I+A) det(7I-A) != det(D)^2")
            _need(e["nIntegral"] and e["nInverseIntegral"], "search 25: N, N^-1 not integral")
    elif k == 5:
        for e in pairs:
            _need(abs(e["detD"]) == 48 and e["detAlphaPlusA"] == 48, "search 5: dets")
    else:
        _need(all("detD" not in e for e in pairs), f"search {k}: facts at irrational alpha")


def search_checker(k: int, source: str):
    def check(code: int, out: str) -> None:
        _need(code == 0, f"search {k}: exit code {code}")
        report = json.loads(out)
        _need((report["k"], report["source"]) == (k, source),
              f"search {k}: k/source {report['k']}/{report['source']}")
        pairs = report["pairs"]
        _need(report["count"] == len(pairs) == SEARCH_COUNTS[k],
              f"search {k}: {len(pairs)} pairs, expected {SEARCH_COUNTS[k]}")
        keys = []
        for i, e in enumerate(pairs):
            _need(e["index"] == i, f"search {k}: index {e['index']} at {i}")
            _need(_is_conference(k, e["aRow"], e["dRow"]), f"search {k}: pair {i} not conference")
            keys.append(_sign_key(k, e["aRow"], e["dRow"]))
        _need(all(x < y for x, y in zip(keys, keys[1:])), f"search {k}: pairs out of order")
        _check_facts(k, pairs)
    return check
