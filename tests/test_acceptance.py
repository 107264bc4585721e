"""Release acceptance gate: ten contract checks, one test per check.

Each test asserts both the numeric tolerances and the runtime budget of
its check, so ``pytest -v tests/test_acceptance.py`` prints exactly one
pass/fail line per criterion.
"""

import csv
import io
import time
from contextlib import contextmanager

import pytest

import oracles
from nagumo_atlas import regions
from nagumo_atlas.cli import main as cli_main
from nagumo_atlas.counting import (
    bracelets,
    count,
    necklaces,
    permuted_bracelets,
    permuted_necklaces,
)
from nagumo_atlas.gde import Params, lde_residual_check, solve_type
from nagumo_atlas.numtheory import (
    convolution_identity_check,
    divisors,
    euler_phi,
    mobius,
)
from nagumo_atlas.regions import Terminal, d_max, membership, verify_region_symmetries
from nagumo_atlas.words import A2, A3, GroupKind, Word, representatives


@contextmanager
def budget(seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget is {seconds:.0f}s"


# Frozen reference columns for the summary table, n = 2..10.
TABLE1_TOTAL_A3 = [3, 7, 16, 36, 80, 184, 437, 1061, 2689]
TABLE1_BLPI_A3 = [2, 4, 9, 20, 44, 104, 253, 624, 1628]
TABLE1_TOTAL_A2 = [2, 3, 5, 8, 13, 21, 35, 56, 95]
TABLE1_BLPI_A2 = [1, 1, 2, 3, 5, 8, 14, 21, 39]

# Frozen canonical representative sets of the aperiodic classes under
# rotation, reflection, and the 0<->1 value swap.
REP_SETS_A3 = {
    2: {"01", "0a"},
    3: {"00a", "001", "0a1", "0aa"},
    4: {"000a", "0001", "00aa", "00a1", "0011", "0a01", "0aaa", "0aa1", "0a1a"},
}
REP_SETS_A2 = {
    2: {"01"},
    3: {"001"},
    4: {"0001", "0011"},
    5: {"00001", "00011", "00101"},
    6: {"000001", "000011", "000101", "000111", "001011"},
}

GROUP_ACTION = {
    GroupKind.CYCLIC: (False, False),
    GroupKind.DIHEDRAL: (True, False),
    GroupKind.CYCLIC_PI: (False, True),
    GroupKind.DIHEDRAL_PI: (True, True),
}


def test_criterion_01_summary_table_cli(capsys):
    with budget(1.0):
        rc = cli_main(["count", "--n-max", "10", "--table1"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [int(r["n"]) for r in rows] == list(range(2, 11))
    assert [int(r["total_a3"]) for r in rows] == TABLE1_TOTAL_A3
    assert [int(r["BLpi_a3"]) for r in rows] == TABLE1_BLPI_A3
    assert [int(r["total_a2"]) for r in rows] == TABLE1_TOTAL_A2
    assert [int(r["BLpi_a2"]) for r in rows] == TABLE1_BLPI_A2


def test_criterion_02_representative_sets():
    with budget(1.0):
        for n, expected in REP_SETS_A3.items():
            reps = representatives(n, A3, GroupKind.DIHEDRAL_PI, lyndon_only=True)
            assert {str(w) for w in reps} == expected
        for n, expected in REP_SETS_A2.items():
            reps = representatives(n, A2, GroupKind.DIHEDRAL_PI, lyndon_only=True)
            assert {str(w) for w in reps} == expected


def test_criterion_03_formulas_match_enumeration():
    with budget(60.0):
        for alphabet, k, n_hi in ((A2, 2, 12), (A3, 3, 8)):
            for n in range(1, n_hi + 1):
                for group, (reflects, twisted) in GROUP_ACTION.items():
                    for aperiodic in (False, True):
                        got = count(alphabet, n, group, aperiodic)
                        want = oracles.class_count(
                            n, k, reflects, twisted, aperiodic_only=aperiodic
                        )
                        assert got == want, (alphabet, n, group, aperiodic)


def test_criterion_04_worked_count_examples():
    assert necklaces(3, 3) == 11
    assert bracelets(3, 3) == 10
    assert permuted_necklaces(A3, 3) == 6
    assert permuted_bracelets(A3, 3) == 6
    assert necklaces(2, 4) == 6
    assert bracelets(2, 4) == 6
    assert permuted_necklaces(A2, 4) == 4
    assert permuted_bracelets(A2, 4) == 4


def test_criterion_05_divisor_sum_identities():
    with budget(10.0):
        for n in range(1, 10_001):
            assert sum(euler_phi(d) for d in divisors(n)) == n
            s_all, s_even, s_odd = convolution_identity_check(n)
            mu = mobius(n)
            assert s_all == mu
            if n % 2 == 0:
                assert s_even == -mu
                assert s_odd == 2 * mu
            else:
                assert s_even == 0
                assert s_odd == mu


def test_criterion_06_two_site_fold_height():
    with budget(1.0):
        height, terminal = d_max(Word.parse("01"), 0.5)
    assert terminal is Terminal.FOLD
    assert height == pytest.approx(0.0625, abs=1e-6)


def test_criterion_07_doubled_word_height_scaling():
    # Repeating each period twice doubles the fold height of the region.
    with budget(30.0):
        for i in range(21):
            a = 0.3 + 0.02 * i
            tall, _ = d_max(Word.parse("0011"), a)
            short, _ = d_max(Word.parse("01"), a)
            assert tall == pytest.approx(2.0 * short, abs=1e-6), a


def test_criterion_08_membership_and_stability():
    p = Params(0.475, 0.025)
    expected_stable = {"0a": False, "011": True, "0a11": False}
    with budget(5.0):
        for text, stable in expected_stable.items():
            word = Word.parse(text)
            assert membership(word, p)
            eq = solve_type(word, p)
            assert eq.residual_norm <= 1e-12
            assert eq.stable is stable


def test_criterion_09_region_symmetry_sweep():
    grid = [k / 200.0 for k in range(1, 200)]
    with budget(600.0):
        for n in (2, 3, 4):
            for rep in representatives(n, A3, GroupKind.DIHEDRAL_PI, lyndon_only=True):
                report = verify_region_symmetries(rep, grid)
                assert report.max_dev <= 1e-8, (str(rep), report)


def test_criterion_10_periodic_extension_residuals():
    p = Params(0.475, 0.025)
    texts = ["01", "0a", "001", "011", "0a1", "0011", "0a11", "0101", "00011", "001a1"]
    assert len(texts) == 10 and {len(t) for t in texts} == {2, 3, 4, 5}
    with budget(5.0):
        for text in texts:
            eq = solve_type(Word.parse(text), p)
            assert lde_residual_check(eq, window_periods=5) <= 1e-12
