"""End-to-end tests for the command-line driver."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import framelat
from framelat import circulant, cli, frames, geometry, lattice


@pytest.fixture(scope="module", autouse=True)
def workdir(tmp_path_factory):
    # One shared scratch directory so the conference-pair cache warms once.
    old = os.getcwd()
    path = tmp_path_factory.mktemp("cliwork")
    os.chdir(path)
    yield path
    os.chdir(old)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table1_text_matches_reference_rows(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out.count("no lattice") == 3
    for snippet in (
        "(k+1,k) k=4",
        "(5/16)*sqrt(5) = 0.6988",
        "4/9 = 0.4444",
        "8/27 = 0.2963",
        "(8/81)*sqrt(3) = 0.1711",
        "(64/3125)*sqrt(5) = 0.0458",
        "4096/5764801 = 0.00071052",
    ):
        assert snippet in out, snippet
    assert out.count("Yes, Yes") == 6
    assert out.count("and perfect") == 1


def test_table1_volumes_are_the_table_closed_forms(capsys):
    code, out, _ = run(capsys, "table1", "--format", "json")
    assert code == 0
    rows = {row["family"]: row for row in json.loads(out)["rows"]}
    lattices = [row for row in cli.FAMILIES if row[3] is not None]
    assert len(lattices) == 6
    for family, _, _, _, volume in lattices:
        want = {"coeff": str(volume.coeff), "radicand": volume.radicand}
        assert rows[family]["volumeSurd"] == want, family


@pytest.mark.parametrize("k, n, selector", [(7, 14, "conference:7"), (13, 26, None)])
def test_alpha_gate_check_fails_when_the_table_disagrees(monkeypatch, k, n, selector):
    wrong = tuple((row[0], k, n, selector, row[4]) if row[1:3] == (k, n) else row
                  for row in cli.FAMILIES)
    monkeypatch.setattr(cli, "FAMILIES", wrong)
    ok, detail = cli._check_alpha_gate()
    assert not ok and f"({k},{n})" in detail, detail


def test_table1_csv_has_one_line_per_family(capsys):
    code, out, _ = run(capsys, "table1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10  # header + 9 families
    assert lines[0].startswith("family,k,n,cosineCoeff,cosineRadicand")
    row_25 = next(line for line in lines if line.startswith('"(25,50)"'))
    assert ",True,True," in row_25  # the two cells left open get computed


def test_search_5_text_lists_the_four_pairs(capsys):
    code, out, _ = run(capsys, "search", "5")
    assert code == 0
    assert "4 conference pairs" in out
    assert "t1: a = (0,-,+,+,-), d = (-,+,+,+,+)" in out
    assert out.count("N and N^-1 integral") == 4
    assert "det D = 48" in out and "det D = -48" in out


def test_search_rejects_even_and_unknown_sizes(capsys):
    code, _, err = run(capsys, "search", "4")
    assert code == 2 and "odd" in err
    code, _, err = run(capsys, "search", "41")
    assert code == 2 and "--allow-unverified" in err


def test_search_unverified_size_with_flag(capsys):
    code, out, _ = run(capsys, "search", "3", "--allow-unverified", "--no-cache")
    assert code == 0
    assert "4 conference pairs" in out
    assert "det D" not in out  # irrational alpha: no determinant columns


def test_search_json_is_deterministic_and_uses_cache(capsys):
    code, first, _ = run(capsys, "search", "13", "--format", "json")
    assert code == 0
    code, second, _ = run(capsys, "search", "13", "--format", "json")
    assert code == 0
    doc1, doc2 = json.loads(first), json.loads(second)
    assert doc2["source"] == "cache"
    assert doc1["pairs"] == doc2["pairs"]
    assert doc1["count"] == 12
    # byte-identical once the cache is the common source
    code, third, _ = run(capsys, "search", "13", "--format", "json")
    assert second == third


def test_search_no_cache_runs_are_byte_identical(capsys):
    code, first, _ = run(capsys, "search", "5", "--format", "json", "--no-cache")
    code2, second, _ = run(capsys, "search", "5", "--format", "json", "--no-cache")
    assert code == code2 == 0
    assert first == second
    assert json.loads(first)["source"] == "search"


def test_cache_round_trip_preserves_pairs(workdir, capsys):
    run(capsys, "search", "5")
    loaded = circulant.load_pairs(os.path.join("cache", "conference-5.json"), 5)
    assert loaded == circulant.search_conference_pairs(5)


def test_corrupt_cache_is_a_cache_error(workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("garbage")
    code, _, err = run(capsys, "search", "5", "--cache", str(bad))
    assert code == 3
    assert "cache error" in err
    # --no-cache bypasses the corrupt file and leaves it untouched
    code, out, _ = run(capsys, "search", "5", "--cache", str(bad), "--no-cache")
    assert code == 0 and "4 conference pairs" in out
    assert bad.read_text() == "garbage"


@pytest.mark.parametrize("k, one", [(5, 1.0), (5, True), (5.0, 1)])
def test_non_int_cache_entries_are_a_cache_error(workdir, capsys, k, one):
    # 1.0 and true compare equal to 1, so only a type check keeps them out
    bad = workdir / "non-int.json"
    pairs = [{"aRow": [one if v == 1 else v for v in p.a_row], "dRow": list(p.d_row)}
             for p in circulant.search_conference_pairs(5)]
    bad.write_text(json.dumps({"k": k, "pairs": pairs}))
    for argv in (("search", "5"), ("analyze", "conference:5:0")):
        code, _, err = run(capsys, *argv, "--cache", str(bad), "--format", "json")
        assert code == 3, argv
        assert "cache error" in err


def test_cache_beyond_the_key_range_is_a_cache_error(workdir, capsys):
    # is_conference keys rows with 16-bit digits, which carry from k = 2^14 on
    k = 2 ** 14 + 1
    big = workdir / "c16385.json"
    big.write_text(json.dumps({"k": k, "pairs": [{"aRow": [0] + [1] * (k - 1), "dRow": [1] * k}]}))
    code, out, err = run(capsys, "search", str(k), "--allow-unverified", "--cache", str(big))
    assert code == 3
    assert out == ""
    assert "cache error" in err


def test_cache_for_another_order_is_a_cache_error(workdir, capsys):
    # an empty pair list holds no pair of the wrong size, so only the header shows it
    other = workdir / "c11.json"
    code, _, _ = run(capsys, "search", "11", "--allow-unverified", "--cache", str(other))
    assert code == 0
    assert json.loads(other.read_text()) == {"k": 11, "pairs": []}
    code, out, err = run(capsys, "search", "25", "--cache", str(other))
    assert code == 3
    assert out == ""
    assert "cache error" in err


@pytest.mark.parametrize("order", [[0, 0, 1, 2, 3], [3, 2, 1, 0]])
def test_repeated_or_reordered_cache_pairs_are_a_cache_error(workdir, capsys, order):
    # the cache order numbers the pairs (conference:5:i), so it must be the search's
    bad = workdir / "shuffled.json"
    pairs = circulant.search_conference_pairs(5)
    circulant.save_pairs(str(bad), 5, [pairs[i] for i in order])
    for argv in (("search", "5"), ("analyze", "conference:5:0")):
        code, out, err = run(capsys, *argv, "--cache", str(bad))
        assert (code, out) == (3, ""), argv
        assert "cache error" in err and "order" in err


def test_cache_directory_option(workdir, capsys):
    cachedir = workdir / "pairdir"
    cachedir.mkdir()
    code, _, _ = run(capsys, "search", "13", "--cache", str(cachedir))
    assert code == 0
    assert (cachedir / "conference-13.json").exists()


def test_table1_cache_file_is_a_usage_error(workdir, capsys):
    # table1 reads three orders, which one file cannot hold: nothing is read or written
    target = workdir / "t1.json"
    code, out, err = run(capsys, "table1", "--cache", str(target))
    assert code == 2
    assert out == ""
    assert "--cache must name a directory" in err
    assert not target.exists()
    target.write_text("kept")
    code, _, _ = run(capsys, "table1", "--cache", str(target))
    assert code == 2
    assert target.read_text() == "kept"


def test_cache_path_with_trailing_separator_is_a_new_directory(workdir, capsys):
    cachedir = workdir / "fresh" / "pairs"
    code, _, err = run(capsys, "search", "5", "--cache", str(cachedir) + os.sep, "--format", "json")
    assert code == 0, err
    assert (cachedir / "conference-5.json").exists()
    code, out, _ = run(capsys, "search", "5", "--cache", str(cachedir) + os.sep, "--format", "json")
    assert code == 0
    assert json.loads(out)["source"] == "cache"


def test_analyze_simplex_9(capsys):
    code, out, _ = run(capsys, "analyze", "simplex:9", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["eutactic"] is True
    assert doc["perfect"] is False
    assert doc["minVecCountWithSigns"] == 20
    # det(gram) = (1/10)(10/9)^9 = 10^8/3^18, a perfect rational square
    assert doc["detSurd"] == {"coeff": "10000/19683", "radicand": 1}


def test_analyze_conference_7_reports_no_lattice(capsys):
    code, out, _ = run(capsys, "analyze", "conference:7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["isLattice"] is False
    assert doc["alpha"] == {"coeff": "1", "radicand": 13}
    assert doc["reason"] == "IrrationalAlpha"


def test_analyze_explicit_7x28(capsys):
    code, out, _ = run(capsys, "analyze", "explicit:7x28", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["minVecCountWithSigns"] == 56
    assert doc["perfect"] is True
    assert abs(doc["density"] - 0.2157) < 1e-4
    assert doc["detD"] == 3 * 2**159
    assert doc["parsevalConstant"] == "8"


def test_analyze_conference_variant_and_range_errors(capsys):
    code, out, _ = run(capsys, "analyze", "conference:5:1:minus", "--format", "json")
    assert code == 0
    assert json.loads(out)["beta"] == 1
    code, _, err = run(capsys, "analyze", "conference:5:9")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "analyze", "conference:6")
    assert code == 2
    code, _, err = run(capsys, "analyze", "simplex:1")
    assert code == 2
    code, _, err = run(capsys, "analyze", "bogus:1")
    assert code == 2 and "unknown selector" in err
    # alpha = sqrt(17), sqrt(5), sqrt(17) is irrational, yet a malformed index
    # or variant is still a usage error
    for label in ("conference:9:x", "conference:3:-5:plus", "conference:9:999:bogus"):
        code, out, err = run(capsys, "analyze", label)
        assert (code, out) == (2, ""), label
        assert err.startswith("error: "), label


def test_analyze_csv_flattens_surds(capsys):
    code, out, _ = run(capsys, "analyze", "simplex:4", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert cols["detSurdCoeff"] == "5/16"
    assert cols["detSurdRadicand"] == "5"
    assert cols["label"] == "simplex:4"


# SHA-256 of stdout in each format, recorded before the commands shared one
# report pipeline; any byte of drift fails.  The demo's json and csv were
# re-pinned when its norms stopped cancelling: their last digits changed, the
# text (three digits) did not.
PINNED_SHA256 = {
    ("table1",): {
        "json": "f90e4f1ba3fcd0c3a2e2643c892bec5b3fb7994502d206d30e06004630c366fd",
        "csv": "28ba3ef68d5385a2d1ea81930bcbfd6246690fd3211cec616f7751f6a920bcd7",
        "text": "355bf3189bd02ca34e156287b3db842aa1e76f738ee84d75405967b72815386d",
    },
    ("analyze", "conference:25:0"): {
        "json": "b7efeae750436ca88162c431c08b554019372b42ee04cdbfcac0de22477984fb",
        "csv": "77a7735fe2ee72419e97ec6f1b5352f5ebe7d163c809b5de0be1d8b9100ddcd1",
        "text": "520004351a5d7e84f06733069fdd57ecacc5017e7380cacd43638de85641fc1a",
    },
    ("analyze", "conference:13:0"): {
        "json": "3d324db5ea2eb8f00ff4fdda2d03e168f57afdf200da74ab874901e624c45ab5",
        "csv": "294ce6c25dea5cd147c2a05b23250de18b0615b46fa2dd09e420dc6cb0181906",
        "text": "822e31351a0c05e6d1716cf9fdc0029c6e96da990e5a87c606187f3e36b94669",
    },
    ("analyze", "conference:25:7:minus"): {
        "json": "2e1518b2afb070bb7acb3d08688570555716e0d35b25e3e8eecc13048699f124",
        "csv": "413ac24adb23cab930564bfa36ea2d73752a1e75fdc866eac91b51214176657e",
        "text": "93b3a1c6d84a451f35ff75cce75db8b79a14e24e4d60cd7da7d49c72680ffd52",
    },
    ("analyze", "conference:5:1:minus"): {
        "json": "8165d33a88559fe00d6f384d84e65b3a009d463a6eeea33dd39874b7ad815422",
        "csv": "05ed81c2e10bdc171f8b47bb26b458cf33814703f5033d874c8150320619ed58",
        "text": "c8bb11e394e0aa1c9840e7f7d3d29523a1e9d8c8d1bad7c214bcc47b52a6089b",
    },
    ("analyze", "simplex:24"): {
        "json": "f5f826bc8ac9606da2534a7313bcce6fa4eb95d70b3527a300beab936ba8dbdb",
        "csv": "a98e0ae88a65c051a36b3304a6707efa2325496efd4869ffede2d7305055192c",
        "text": "2e46190ed35f3255a804cdb0809c462738c4d19ab59e09ca50d2b2980f1b6f93",
    },
    ("analyze", "explicit:6x16"): {
        "json": "77f21c41680ab0fe8b1eb7460821476a0cd018393d0ce52185ed9abb808d8912",
        "csv": "85f8456fa923ff56a961cb7828ac381ec5091a906f766049e408bd31145edbae",
        "text": "a9ed5c35d71d8be7c37e00753f4afd39c1ff0eab682efbfc5437473fce62e7be",
    },
    ("analyze", "explicit:7x28"): {
        "json": "152176e2e384b8ac2101402950c1ca4ae736e267a6ab96d2b0625e8790bbee97",
        "csv": "fab21aae98cc5481ced8894ec32f8cc2ce3d9f21c9e25f8e1ef48bf8e0d92ec0",
        "text": "bfce23244104749a7c74ff7f9b161450ba45404a80878c2abaf117a4f295b6ea",
    },
    ("search", "5"): {
        "json": "836acdc3c87dcd4264812a0ec94063a13bc3ba064dc1239b6d88757aa0da6550",
        "csv": "3d993a20ec672e1b93cf5ebafee655978a6026be966079e5fd6fec22af488068",
        "text": "0d617f705ba891ccdc7c27a0c89e59cfa3fb02ceda8688d34e702f42a65d0f0c",
    },
    ("search", "3", "--allow-unverified", "--no-cache"): {
        "json": "cf87151d451981b0f60cf2924e9f8242980297b6864945241537281641ec9758",
        "csv": "437a80979f621769f0d318e80127966575e0849dfaf738d0c67456fca157d631",
        "text": "527ced5801585441168a83878a77738c4b262a6bb0fd5de5cc2ed6582aaec466",
    },
    ("verify-all",): {
        "json": "5a30b0a9914e438f9802ce28bd710a8cc64fb60e37dbf5c914c7c4921dc18cda",
        "csv": "2d1841e9ba77d62d1f0f33cd418d0264c4956d76391c8f295919b578ecf7d4ce",
        "text": "cd7bcd186cd0a7a3b1e70bcf97883f16954345c2167db99c3be1607d83f363ad",
    },
    ("demo-nonlattice", "7"): {
        "json": "426352910e1cc6bffa94ec165311902094badddb6526d6f153839563e18f4c83",
        "csv": "b6dc9d80bf06fdce847e9caa3a3ceb8302521d448a7b94bcddce970036494dc7",
        "text": "05620ee2599137364e36d699d685b807b5c31f2bf0314d18b1e1043981708910",
    },
}


def assert_pinned(capsys, argv, fmt):
    if argv[0] == "search" and "--no-cache" not in argv:
        run(capsys, *argv)  # warm the pair cache: `source` then reads "cache" in any test order
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (1 if argv[0] == "verify-all" else 0, "")  # the known 25x50 FAIL
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[argv][fmt]


@pytest.mark.parametrize("argv", sorted(PINNED_SHA256), ids="-".join)
def test_json_output_is_byte_identical_to_the_pin(capsys, argv):
    assert_pinned(capsys, argv, "json")


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("argv", sorted(PINNED_SHA256), ids="-".join)
def test_csv_and_text_output_are_byte_identical_to_the_pin(capsys, argv, fmt):
    assert_pinned(capsys, argv, fmt)


@pytest.mark.parametrize("argv", [
    ("demo-nonlattice", "--skip", "x"),
    ("demo-nonlattice", "--cache", "x"),
    ("demo-nonlattice", "--no-cache"),
    ("table1", "--allow-unverified"),
    ("table1", "--skip", "x"),
    ("search", "5", "--skip", "x"),
    ("analyze", "simplex:3", "--skip", "x"),
    ("verify-all", "--allow-unverified"),
], ids="-".join)
def test_flags_outside_their_commands_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: framelat {command}")


def test_analyze_help_names_every_explicit_frame(capsys):
    with pytest.raises(SystemExit):
        cli.main(["analyze", "--help"])
    out = capsys.readouterr().out
    for label in cli.EXPLICIT_FRAMES:
        assert label in out, label


def test_cli_import_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(framelat.__file__))
    code = "import sys, framelat.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_module_entry_point_runs_main(tmp_path, capsys):
    # the documented python3 -m framelat.cli reaches main() only through its
    # __main__ guard, which no in-process test runs
    src = os.path.dirname(os.path.dirname(framelat.__file__))

    def module(*argv):
        return subprocess.run([sys.executable, "-X", "dev", "-m", "framelat.cli", *argv],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                              capture_output=True)

    done = module("analyze", "simplex:4", "--format", "json")
    code, out, _ = run(capsys, "analyze", "simplex:4", "--format", "json")
    assert (done.returncode, code) == (0, 0)
    assert done.stdout == out.encode()
    bad = module("analyze", "bogus:1")
    assert bad.returncode == 2
    assert bad.stderr.startswith(b"error: ")


def test_verify_all_reports_the_one_known_failure(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["failed"] == 1
    failing = [c["label"] for c in doc["checks"] if not c["ok"]]
    assert failing == ["25x50-det-factorization"]
    assert "2^24*7^9" in doc["checks"][5]["detail"]


def test_family_checks_assert_on_the_analyze_record(monkeypatch):
    # each family check compares the lattice_report record that analyze prints,
    # so one wrong field there fails all five
    real = geometry.perfection_rank

    def one_short(model, rep):
        return real(model, rep) - 1

    monkeypatch.setattr(geometry, "perfection_rank", one_short)
    checks = dict(cli.verification_checks(cli.RunConfig()))
    for label in ("simplex", "5x10", "13x26", "6x16", "7x28"):
        ok, detail = checks[label]()
        assert not ok and "perfectionRank" in detail, (label, detail)


def test_6x16_check_tests_the_greedy_basis(monkeypatch):
    # the (6,16) frame takes the greedy leftmost basis, which the check pins
    monkeypatch.setattr(frames, "select_basis_greedy", lambda gram, k: (1, 2, 3, 4, 5, 10))
    ok, detail = dict(cli.verification_checks(cli.RunConfig()))["6x16"]()
    assert not ok and "basis" in detail, detail


def test_5x10_check_tests_compute_N(monkeypatch):
    real = circulant.compute_N
    monkeypatch.setattr(circulant, "compute_N", lambda p, alpha: tuple(-v for v in real(p, alpha)))
    ok, detail = dict(cli.verification_checks(cli.RunConfig()))["5x10"]()
    assert not ok and "N first row" in detail, detail


def test_search_counts_check_tests_the_keyed_search(monkeypatch):
    real = circulant.brute_force_conference_pairs
    monkeypatch.setattr(circulant, "brute_force_conference_pairs", lambda k: real(k)[1:])
    ok, detail = dict(cli.verification_checks(cli.RunConfig()))["search-counts"]()
    assert not ok and "disagrees with brute force" in detail, detail


def test_verify_all_skip_unlocks_a_clean_exit(capsys):
    code, out, _ = run(capsys, "verify-all", "--skip", "25x50", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0
    assert doc["skipped"] == ["25x50-det-factorization", "25x50-lattice"]


@pytest.mark.parametrize("label", ["7x82", "bogus", "25x5", "det"])
def test_verify_all_unknown_skip_label_is_a_usage_error(capsys, label):
    code, out, err = run(capsys, "verify-all", "--skip", "25x50", "--skip", label)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and label in err


def test_verify_report_honors_fine_grained_skips():
    cfg = cli.RunConfig(skip=(
        "simplex", "search-counts", "5x10", "13x26", "25x50",
        "6x16", "7x28", "oracle-equivalence", "properties"))
    report = cli.verify_all_report(cfg)
    assert [c["label"] for c in report["checks"]] == ["alpha-gate"]
    assert report["passed"] == 1 and report["failed"] == 0
    assert len(report["skipped"]) == 10


def test_properties_fail_on_an_ldl_row_off_by_one(monkeypatch):
    real = cli.ldl_decompose

    def broken(q):
        dec = real(q)
        rows = [list(row) for row in dec.rows]
        rows[0][-1] += 1
        return dec._replace(rows=rows)

    monkeypatch.setattr(cli, "ldl_decompose", broken)
    assert cli._check_property_suites() == (False, "LDL reconstruction failed on trial 0")


def test_properties_fail_on_a_wrong_equivalence_ratio(monkeypatch):
    real = lattice.scalar_orthogonal_equivalence

    def reciprocal(q1, q2):
        ratio = real(q1, q2)
        return None if ratio is None else 1 / ratio

    monkeypatch.setattr(lattice, "scalar_orthogonal_equivalence", reciprocal)
    assert cli._check_property_suites() == (False, "symmetry failed on a scaled copy")


def test_demo_nonlattice_rows(capsys):
    code, out, _ = run(capsys, "demo-nonlattice", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["steps"]) == 5
    assert doc["steps"][0]["coefficients"] == [0, 2, 1, 1, -1, 1]
    norms = [s["normSq"] for s in doc["steps"]]
    assert all(a > b for a, b in zip(norms, norms[1:]))
    code, out, _ = run(capsys, "demo-nonlattice", "15", "--format", "json")
    assert json.loads(out)["steps"][-1]["normSq"] < 1e-5


@pytest.mark.parametrize("steps", ["737", "1500"])
def test_demo_refuses_steps_past_the_smallest_normal_float(capsys, steps):
    code, out, err = run(capsys, "demo-nonlattice", steps)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "at most 736 steps" in err


def test_unwritable_cache_is_a_cache_error(capsys, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = run(capsys, "search", "5", "--cache", f"{blocker}{os.sep}sub{os.sep}")
    assert (code, out) == (3, "")
    assert err.startswith("cache error: cannot write ")


def test_demo_rejects_zero_steps(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo-nonlattice", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
