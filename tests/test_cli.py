import csv
import hashlib
import io
import json

import pytest

from nagumo_atlas import cli, counting, numtheory
from nagumo_atlas.words import A3, GroupKind

TABLE1_EXPECTED = {
    2: (3, 2, 2, 1),
    3: (7, 4, 3, 1),
    4: (16, 9, 5, 2),
    5: (36, 20, 8, 3),
    6: (80, 44, 13, 5),
    7: (184, 104, 21, 8),
    8: (437, 253, 35, 14),
    9: (1061, 624, 56, 21),
    10: (2689, 1628, 95, 39),
}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_count_table1(capsys):
    code, out = run_cli(capsys, "count", "--n-max", "10", "--table1")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n", "total_a3", "BLpi_a3", "total_a2", "BLpi_a2"]
    assert len(rows) == 9
    for row in rows:
        n = int(row[0])
        assert tuple(int(x) for x in row[1:]) == TABLE1_EXPECTED[n]


def test_count_full_columns(capsys):
    code, out = run_cli(capsys, "count", "--n-max", "3")
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "n"
    assert "Npi_a2" in header and "BLpi_a3" in header
    assert header[-2:] == ["total_a2", "total_a3"]
    assert len(rows) == 3
    by_n = {int(r[0]): r for r in rows}
    assert by_n[1][header.index("total_a2")] == ""
    assert by_n[3][header.index("N_a3")] == "11"
    assert by_n[3][header.index("B_a3")] == "10"
    assert by_n[3][header.index("Npi_a3")] == "6"
    assert by_n[3][header.index("Bpi_a3")] == "6"


COUNT_COLUMNS = ("N", "B", "Npi", "Bpi", "NL", "BL", "NLpi", "BLpi")


def test_count_header_is_exact(capsys):
    _, out = run_cli(capsys, "count", "--n-max", "1")
    header, _ = parse_csv(out)
    assert header == (
        ["n"]
        + [f"{c}_a2" for c in COUNT_COLUMNS]
        + [f"{c}_a3" for c in COUNT_COLUMNS]
        + ["total_a2", "total_a3"]
    )
    _, out = run_cli(capsys, "count", "--n-max", "1", "--alphabet", "a3")
    header, _ = parse_csv(out)
    assert header == ["n"] + [f"{c}_a3" for c in COUNT_COLUMNS] + ["total_a3"]


def test_count_single_alphabet(capsys):
    code, out = run_cli(capsys, "count", "--n-max", "2", "--alphabet", "a2")
    assert code == 0
    header, rows = parse_csv(out)
    assert all(col.endswith("_a2") for col in header[1:])
    assert len(rows) == 2


def test_count_out_file(tmp_path, capsys):
    target = tmp_path / "counts.csv"
    code, out = run_cli(capsys, "count", "--n-max", "4", "--table1", "--out", str(target))
    assert code == 0
    assert out == ""
    header, rows = parse_csv(target.read_text(encoding="utf-8"))
    assert header[0] == "n"
    assert len(rows) == 3


def test_count_range_guard_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--n-max", "70"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--n-max", "0"])
    assert info.value.code == 2


def test_count_table1_conflicts_with_alphabet(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["count", "--n-max", "4", "--table1", "--alphabet", "a2"])
    assert info.value.code == 2


def test_count_deterministic_bytes(capsys):
    _, first = run_cli(capsys, "count", "--n-max", "8")
    _, second = run_cli(capsys, "count", "--n-max", "8")
    assert first == second


def test_orbits_class_count_lines(capsys):
    code, out = run_cli(capsys, "orbits", "-n", "3", "--alphabet", "a3", "--group", "c3")
    assert code == 0
    assert len(out.splitlines()) == 11


def test_orbits_published_aperiodic_row(capsys):
    code, out = run_cli(
        capsys, "orbits", "-n", "6", "--alphabet", "a2", "--group", "d6pi", "--lyndon"
    )
    assert code == 0
    lines = out.splitlines()
    reps = {line.split()[0] for line in lines}
    assert reps == {"000001", "000011", "000101", "000111", "001011"}


def test_orbits_single_letter_words(capsys):
    code, out = run_cli(capsys, "orbits", "-n", "1", "--alphabet", "a2", "--group", "c1")
    assert code == 0
    assert out.splitlines() == ["0 1", "1 1"]


def test_orbits_full_members(capsys):
    code, out = run_cli(
        capsys, "orbits", "-n", "2", "--alphabet", "a3", "--group", "d2pi", "--lyndon", "--full"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("0a 4 ")
    members = lines[0].split()[2].split(",")
    # members ordered by letter rank 0 < a < 1, not by ASCII
    assert members == ["0a", "a0", "a1", "1a"]


def test_orbits_sizes_sum_to_word_count(capsys):
    code, out = run_cli(capsys, "orbits", "-n", "4", "--alphabet", "a3", "--group", "d4pi")
    assert code == 0
    total = sum(int(line.split()[1]) for line in out.splitlines())
    assert total == 3**4


# sha256 of `orbits -n N --alphabet A --group G --full`, recorded from the
# set-based sweep that the vectorised one replaced; a3 n = 10 dpi (1,652
# classes, printed in two blocks) from the per-class member rebuild after it
FULL_LISTING_SHA256 = {
    ("a3", 7, "c"): "5d5068f6798244e117f2ec5f684f0c545d23ec931b7550ae21f252f8c97c7145",
    ("a3", 7, "d"): "94f77551d220eaa492dce17ed4815473106bf0b938a89f9bbad28adc313ace5a",
    ("a3", 7, "cpi"): "64fc9f820535c7870a9aa9b74d6f3a551fd1009c9230ebb2d8bac3ce418ad507",
    ("a3", 7, "dpi"): "7487c628ee4a6fcb2b8828b9e8e075422b6b967c843c9c663eb209fed8ee8a0c",
    ("a2", 10, "c"): "a17a3864702c9876b30671030cf6c16bd80edce27ea5d84668894f6eb827f7c7",
    ("a2", 10, "d"): "9d3ba200f19f3427f2d37a4c6e74812c5d9246cfcc5ec02cdb788a0a6788a999",
    ("a2", 10, "cpi"): "96a2017929db0b2371d9d01e674fd711caa38f3199bfbe66d221b72b55a3690a",
    ("a2", 10, "dpi"): "412466d6ba17fa32d10630c07f4c2e68de5b3a15320bfaa478af5ba788216121",
    ("a3", 10, "dpi"): "d5b60d78b51d34065de411d51f8da16c4907975b40cbe72ead22036f110f1a9e",
}

# the same with --lyndon, recorded from the per-class member rebuild that the
# grouping of all codes under their minimum replaced
LYNDON_FULL_LISTING_SHA256 = {
    ("a3", 6, "dpi"): "7f50ff96f7959d2ffab5c89a3e1901425730931dce428a4c5ec4678777c0e486",
    ("a2", 10, "cpi"): "c9c7b3b8d170c2b93382aeec71462415e0b629cf0c77ea1f11994063e3a29b1e",
    ("a3", 10, "dpi"): "da3ece8246e4fd0336a8fcc0b07331cb6e0a59c13351549610cbdf32bc4a7cf5",
}


@pytest.mark.parametrize("alphabet,n,group", sorted(FULL_LISTING_SHA256))
def test_orbits_full_listing_is_byte_identical(capsys, alphabet, n, group):
    code, out = run_cli(
        capsys, "orbits", "-n", str(n), "--alphabet", alphabet, "--group", group, "--full"
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == FULL_LISTING_SHA256[alphabet, n, group]


@pytest.mark.parametrize("alphabet,n,group", sorted(LYNDON_FULL_LISTING_SHA256))
def test_orbits_lyndon_full_listing_is_byte_identical(capsys, alphabet, n, group):
    code, out = run_cli(
        capsys, "orbits", "-n", str(n), "--alphabet", alphabet, "--group", group,
        "--lyndon", "--full",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LYNDON_FULL_LISTING_SHA256[alphabet, n, group]


def test_orbits_group_token_errors(capsys):
    for argv in (
        ["orbits", "-n", "4", "--group", "c3"],
        ["orbits", "-n", "4", "--group", "x4"],
        ["orbits", "-n", "40", "--group", "c40"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_solve_text_output(capsys):
    code, out = run_cli(
        capsys, "solve", "--word", "011", "--a", "0.475", "--d", "0.025"
    )
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["word"] == "011"
    assert fields["stable"] == "True"
    assert fields["det_sign"] == "-1"
    assert float(fields["residual_norm"]) <= 1e-12
    assert len(fields["u"].split()) == 3


def test_solve_json_output(capsys):
    code, out = run_cli(
        capsys, "solve", "--word", "0a1", "--a", "0.475", "--d", "0.025", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["word", "a", "d", "u", "stable", "det_sign", "residual_norm"]
    assert payload["word"] == "0a1"
    assert payload["stable"] is False
    assert len(payload["u"]) == 3
    assert payload["u"][0] == pytest.approx(0.0, abs=0.1)
    assert payload["residual_norm"] <= 1e-12


def test_solve_beyond_fold_exits_1(capsys):
    code = cli.main(["solve", "--word", "01", "--a", "0.5", "--d", "0.2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "solve failed" in captured.err


def test_solve_constant_word_at_a_zero_eigenvalue(capsys):
    # aa at a = 1/2 has the eigenvalue f'(1/2) - 4d = 0 at d = 1/16; the
    # state exists, and its determinant sign is 0
    code, out = run_cli(capsys, "solve", "--word", "aa", "--a", "0.5", "--d", "0.0625")
    assert code == 0
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    assert fields["u"] == "0.5 0.5"
    assert fields["det_sign"] == "0"
    assert fields["stable"] == "False"


def test_solve_usage_errors_exit_2(capsys):
    for argv in (
        ["solve", "--word", "0b1", "--a", "0.5", "--d", "0.1"],
        ["solve", "--word", "01", "--a", "1.5", "--d", "0.1"],
        ["solve", "--word", "01", "--a", "0.5", "--d", "-0.1"],
        ["solve", "--word", "01", "--a", "0.5", "--d", "0.1", "--tol", "0"],
        ["solve", "--word", "01", "--a", "0.5", "--d", "0.1", "--tol", "nan"],
        ["solve", "--word", "01", "--a", "0.5", "--d", "0.1", "--tol", "inf"],
        # no tolerance can be set: a loose one used to accept a state past
        # the fold of 01 at 1/16
        ["solve", "--word", "01", "--a", "0.5", "--d", "0.0628", "--tol", "1e-4"],
        ["solve", "--word", "0", "--a", "0.5", "--d", "0.1"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_region_csv(capsys):
    code, out = run_cli(
        capsys,
        "region", "--word", "01",
        "--a-min", "0.4", "--a-max", "0.6", "--a-count", "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["word", "a", "d_max", "terminal"]
    assert [r[0] for r in rows] == ["01", "01", "01"]
    assert [float(r[1]) for r in rows] == [0.4, 0.5, 0.6]
    assert float(rows[1][2]) == pytest.approx(0.0625, abs=1e-6)
    assert {r[3] for r in rows} == {"fold"}
    assert float(rows[0][2]) == pytest.approx(float(rows[2][2]), abs=1e-8)


def test_region_compare_deviation_column(capsys):
    code, out = run_cli(
        capsys,
        "region", "--word", "001", "--compare", "010",
        "--a-min", "0.45", "--a-max", "0.55", "--a-count", "2",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[-1] == "abs_dev"
    for row in rows:
        assert float(row[-1]) <= 1e-8


def test_region_out_file_deterministic(tmp_path, capsys):
    target = tmp_path / "region.csv"
    args = [
        "region", "--word", "0a",
        "--a-min", "0.48", "--a-max", "0.52", "--a-count", "2",
        "--out", str(target),
    ]
    assert cli.main(args) == 0
    first = target.read_bytes()
    assert cli.main(args) == 0
    assert target.read_bytes() == first


def test_region_usage_errors(capsys):
    for argv in (
        ["region", "--word", "01", "--a-min", "0.6", "--a-max", "0.4", "--a-count", "3"],
        ["region", "--word", "01", "--a-min", "0.4", "--a-max", "0.6", "--a-count", "0"],
        ["region", "--word", "0b", "--a-min", "0.4", "--a-max", "0.6", "--a-count", "2"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2


def test_verify_identities_only(capsys):
    code, out = run_cli(capsys, "verify", "--identities-only", "--n-max", "500")
    assert code == 0
    assert "all checks passed" in out
    assert "MISMATCH" not in out


def test_verify_small_enumeration_bounds(capsys):
    code, out = run_cli(
        capsys,
        "verify", "--n-max-a2", "6", "--n-max-a3", "4", "--n-max", "64",
    )
    assert code == 0
    assert out.count("ok:") == 19
    assert "MISMATCH" not in out


def test_verify_output_is_byte_identical(capsys):
    # sha256 of `verify --seed 1` at the default bounds, recorded from the
    # four per-group listings that one sweep per (alphabet, n) replaced
    code, out = run_cli(capsys, "verify", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a09135f6246613cdf448b559ee87ed3af42e1e6b577f798e609c5afe41cbf6bc"
    )


def test_verify_usage_errors_exit_2(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("verify enumerated before rejecting its bounds")

    monkeypatch.setattr(cli, "sweep_orbits", no_enumeration)
    for argv in (
        ["verify", "--n-max-a2", "-3", "--n-max-a3", "0", "--n-max", "5"],
        ["verify", "--n-max-a2", "0"],
        ["verify", "--n-max-a3", "0"],
        ["verify", "--n-max-a2", "24"],
        ["verify", "--n-max-a3", "15"],
        ["verify", "--n-max", "0"],
        # the sampled identity checks need some n above --n-max below 10^6
        ["verify", "--identities-only", "--n-max", "999999"],
    ):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""


def test_verify_largest_enumeration_bounds_are_accepted(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "sweep_orbits", lambda n, *rest: seen.append(n) or [])
    cli.main(["verify", "--n-max-a2", "23", "--n-max-a3", "14", "--n-max", "5"])
    assert max(seen) == 23 and 14 in seen


def test_verify_seed_changes_sample_note_not_result(capsys):
    code_a, out_a = run_cli(capsys, "verify", "--identities-only", "--n-max", "50",
                            "--seed", "1")
    code_b, out_b = run_cli(capsys, "verify", "--identities-only", "--n-max", "50",
                            "--seed", "2")
    assert code_a == code_b == 0
    assert "seed 1" in out_a and "seed 2" in out_b


def test_verify_reports_each_failed_check(capsys, monkeypatch):
    # one class count off by one fails the a3 d listing and the a3 divisor
    # sums at n = 3; a wrong mobius(5) fails the identities from n = 5 on
    real_count, real_mobius = counting.count, numtheory.mobius

    def count(alphabet, n, group, aperiodic=False):
        off = (alphabet, n, group, aperiodic) == (A3, 3, GroupKind.DIHEDRAL, False)
        return real_count(alphabet, n, group, aperiodic) + off

    monkeypatch.setattr(counting, "count", count)
    monkeypatch.setattr(numtheory, "mobius", lambda n: real_mobius(n) + (n == 5))
    code = cli.main(
        ["verify", "--n-max-a2", "4", "--n-max-a3", "4", "--n-max", "12", "--seed", "1"]
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
        "MISMATCH: divisor-sum identities, n <= 12 plus 25 sampled (seed 1)",
        "MISMATCH: formula vs enumeration, a3 d n <= 4",
        "MISMATCH: aperiodic-root divisor sums, a3 n <= 64",
    ]
    assert err == (
        "  first failing n: 5\n"
        "  n=3: formula 11, enumerated 10\n"
        "  group d at n=3\n"
    )
    assert out.splitlines()[-1] == "verify: 3 check(s) failed"


@pytest.mark.parametrize(
    "name, wrong, first",
    [
        # the identity sums are right, but their even and odd parts are not
        ("convolution_identity_check", lambda real, n: real(n)[:1] + (1, 1), 2),
        # n = 3 fails the sum's d = 3 term; n = 12 only the totient sum, since
        # mobius(4) = 0 takes phi(3) out of its convolution
        ("euler_phi", lambda real, n: real(n) + (n == 3), 3),
    ],
)
def test_verify_reports_failed_identities(capsys, monkeypatch, name, wrong, first):
    real = getattr(numtheory, name)
    monkeypatch.setattr(numtheory, name, lambda n: wrong(real, n))
    code = cli.main(["verify", "--identities-only", "--n-max", "12", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines() == [
        "MISMATCH: divisor-sum identities, n <= 12 plus 25 sampled (seed 1)",
        "verify: 1 check(s) failed",
    ]
    assert err == f"  first failing n: {first}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["count", "--n-max", "0"], "--n-max must lie in 1..64, got 0"),
        (
            ["orbits", "-n", "4", "--group", "x4"],
            "bad group token 'x4'; expected forms like c3, d3, c3pi, d3pi",
        ),
        (
            ["solve", "--word", "0b1", "--a", "0.5", "--d", "0.1"],
            "bad letter 'b' in word '0b1'",
        ),
        (
            ["region", "--word", "01", "--a-min", "0.4", "--a-max", "0.6",
             "--a-count", "0"],
            "--a-count must be at least 1, got 0",
        ),
        (["verify", "--n-max-a3", "15"], "--n-max-a3 must lie in 1..14, got 15"),
    ],
)
def test_usage_error_reports_its_message(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"nagumo-atlas: error: {message}"


REGION_01 = ["region", "--word", "01", "--a-min", "0.4", "--a-max", "0.6", "--a-count", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (REGION_01 + ["--compare", ""], "words must have at least one letter"),
        (
            ["count", "--n-max", "2", "--out", ""],
            "cannot write --out '': No such file or directory",
        ),
        (
            REGION_01 + ["--out", "{missing}"],
            "cannot write --out '{missing}': No such file or directory",
        ),
    ],
)
def test_empty_compare_word_and_unopenable_out_are_usage_errors(
    tmp_path, capsys, argv, message
):
    missing = str(tmp_path / "no-such-dir" / "x.csv")
    with pytest.raises(SystemExit) as info:
        cli.main([arg.format(missing=missing) for arg in argv])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"nagumo-atlas: error: {message.format(missing=missing)}"
    )


def test_unopenable_out_is_reported_before_the_scan(tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("region scanned before opening --out")

    monkeypatch.setattr(cli.regions, "scan_region", no_scan)
    missing = str(tmp_path / "missing" / "x.csv")
    with pytest.raises(SystemExit) as info:
        cli.main(REGION_01 + ["--out", missing])
    assert info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"nagumo-atlas: error: cannot write --out '{missing}': No such file or directory"
    )


def test_later_usage_error_leaves_out_file_unchanged(tmp_path, capsys):
    target = tmp_path / "region.csv"
    target.write_bytes(b"earlier contents\n" * 100)
    grid = ["--a-min", "0.4", "--a-max", "0.6", "--a-count", "3"]
    reversed_grid = ["--a-min", "0.6", "--a-max", "0.4", "--a-count", "3"]
    with pytest.raises(SystemExit) as info:
        cli.main(["region", "--word", "01", *reversed_grid, "--out", str(target)])
    assert info.value.code == 2
    assert target.read_bytes() == b"earlier contents\n" * 100
    # a run that succeeds replaces the whole file with its CSV
    _, expected = run_cli(capsys, "region", "--word", "01", *grid)
    assert cli.main(["region", "--word", "01", *grid, "--out", str(target)]) == 0
    assert target.read_bytes() == expected.encode()


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
