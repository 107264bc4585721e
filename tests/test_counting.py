from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nagumo_atlas import counting, numtheory
from nagumo_atlas.counting import (
    bracelets,
    count,
    lyndon_bracelets,
    lyndon_necklaces,
    necklaces,
    permuted_bracelets,
    permuted_lyndon_bracelets,
    permuted_lyndon_necklaces,
    permuted_necklaces,
    total_regions,
)
from nagumo_atlas.words import A2, A3, GroupKind

# the four headline columns of the published table, n = 2..10
TOTALS_A3 = (3, 7, 16, 36, 80, 184, 437, 1061, 2689)
APERIODIC_TWO_SIDED_A3 = (2, 4, 9, 20, 44, 104, 253, 624, 1628)
TOTALS_A2 = (2, 3, 5, 8, 13, 21, 35, 56, 95)
APERIODIC_TWO_SIDED_A2 = (1, 1, 2, 3, 5, 8, 14, 21, 39)

# rows of the `count` table: N, B, Npi, Bpi, NL, BL, NLpi, BLpi, total
TABLE_ROWS = {
    (A2, 2): (3, 3, 2, 2, 1, 1, 1, 1, 2),
    (A3, 2): (6, 6, 4, 4, 3, 3, 2, 2, 3),
    (A2, 5): (8, 8, 4, 4, 6, 6, 3, 3, 8),
    (A3, 5): (51, 39, 26, 22, 48, 36, 24, 20, 36),
    (A2, 9): (60, 46, 30, 23, 56, 42, 28, 21, 56),
    (A3, 9): (2195, 1219, 1098, 630, 2184, 1209, 1092, 624, 1061),
}


def test_necklaces_examples():
    assert necklaces(3, 3) == 11
    assert necklaces(2, 1) == 2
    assert necklaces(2, 4) == 6


def test_bracelets_examples():
    assert bracelets(3, 3) == 10
    assert bracelets(2, 4) == 6
    assert bracelets(2, 1) == 2


def test_permuted_necklaces_examples():
    assert permuted_necklaces(A3, 3) == 6
    assert permuted_necklaces(A2, 4) == 4
    assert permuted_necklaces(A2, 1) == 1


def test_permuted_bracelets_examples():
    assert permuted_bracelets(A3, 3) == 6
    assert permuted_bracelets(A2, 4) == 4
    assert permuted_bracelets(A2, 2) == 2


def test_lyndon_necklaces_examples():
    assert lyndon_necklaces(2, 4) == 3
    assert lyndon_necklaces(3, 1) == 3
    assert lyndon_necklaces(2, 6) == 9


def test_lyndon_bracelets_examples():
    # brute force lists three aperiodic binary two-sided classes of length
    # four: 0001, 0011, 0111 (0111 only merges with 0001 under the value
    # swap, which the plain dihedral group does not contain); over three
    # letters and length three, ten bracelets minus the three constants
    # leaves seven aperiodic classes
    assert lyndon_bracelets(2, 4) == 3
    assert lyndon_bracelets(3, 3) == 7
    assert lyndon_bracelets(2, 1) == 2


def test_permuted_lyndon_necklaces_examples():
    assert permuted_lyndon_necklaces(A2, 5) == 3
    assert permuted_lyndon_necklaces(A3, 2) == 2
    assert permuted_lyndon_necklaces(A3, 1) == 2


def test_permuted_lyndon_bracelets_examples():
    assert permuted_lyndon_bracelets(A3, 4) == 9
    assert permuted_lyndon_bracelets(A2, 6) == 5
    assert permuted_lyndon_bracelets(A3, 10) == 1628


def test_totals_examples():
    assert total_regions(A3, 3) == 7
    assert total_regions(A2, 10) == 95
    assert total_regions(A3, 8) == 437


def test_published_table_columns():
    for offset, n in enumerate(range(2, 11)):
        assert total_regions(A3, n) == TOTALS_A3[offset]
        assert permuted_lyndon_bracelets(A3, n) == APERIODIC_TWO_SIDED_A3[offset]
        assert total_regions(A2, n) == TOTALS_A2[offset]
        assert permuted_lyndon_bracelets(A2, n) == APERIODIC_TWO_SIDED_A2[offset]


def test_totals_recurrence():
    for alphabet in (A2, A3):
        for n in range(2, 30):
            assert total_regions(alphabet, n + 1) == total_regions(
                alphabet, n
            ) + permuted_lyndon_bracelets(alphabet, n + 1)


@pytest.mark.parametrize("alphabet,k", [(A2, 2), (A3, 3)])
def test_formulas_match_fixed_point_oracle(alphabet, k):
    for n in range(1, 13 if k == 2 else 9):
        assert necklaces(k, n) == oracles.orbit_count(n, k, False, False)
        assert bracelets(k, n) == oracles.orbit_count(n, k, True, False)
        assert permuted_necklaces(alphabet, n) == oracles.orbit_count(n, k, False, True)
        assert permuted_bracelets(alphabet, n) == oracles.orbit_count(n, k, True, True)


@pytest.mark.parametrize("alphabet,k", [(A2, 2), (A3, 3)])
def test_aperiodic_formulas_match_enumeration_oracle(alphabet, k):
    for n in range(1, 12 if k == 2 else 8):
        assert lyndon_necklaces(k, n) == oracles.class_count(
            n, k, False, False, aperiodic_only=True
        )
        assert lyndon_bracelets(k, n) == oracles.class_count(
            n, k, True, False, aperiodic_only=True
        )
        assert permuted_lyndon_necklaces(alphabet, n) == oracles.class_count(
            n, k, False, True, aperiodic_only=True
        )
        assert permuted_lyndon_bracelets(alphabet, n) == oracles.class_count(
            n, k, True, True, aperiodic_only=True
        )


@lru_cache(maxsize=None)
def _oracle(n, k, reflects, twisted, aperiodic):
    """oracles.orbit_count, or for aperiodic words that count minus the
    aperiodic counts of the proper divisors of n (no Moebius function)."""
    full = oracles.orbit_count(n, k, reflects, twisted)
    if not aperiodic:
        return full
    return full - sum(
        _oracle(d, k, reflects, twisted, True) for d in range(1, n) if n % d == 0
    )


def test_count_matches_fixed_point_oracle_through_64():
    for alphabet, k in ((A2, 2), (A3, 3)):
        for group in GroupKind:
            for aperiodic in (False, True):
                for n in range(1, 65):
                    want = _oracle(n, k, group.reflects, group.swaps_values, aperiodic)
                    assert count(alphabet, n, group, aperiodic) == want, (
                        alphabet, n, group, aperiodic,
                    )


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=40))
def test_k_letter_formulas_match_fixed_point_oracle(k, n):
    assert necklaces(k, n) == _oracle(n, k, False, False, False)
    assert bracelets(k, n) == _oracle(n, k, True, False, False)
    assert lyndon_necklaces(k, n) == _oracle(n, k, False, False, True)
    assert lyndon_bracelets(k, n) == _oracle(n, k, True, False, True)


def test_aperiodic_divisor_sums_recover_full_counts():
    for n in range(1, 65):
        divs = numtheory.divisors(n)
        for k, alphabet in ((2, A2), (3, A3)):
            assert necklaces(k, n) == sum(lyndon_necklaces(k, d) for d in divs)
            assert bracelets(k, n) == sum(lyndon_bracelets(k, d) for d in divs)
            assert permuted_necklaces(alphabet, n) == sum(
                permuted_lyndon_necklaces(alphabet, d) for d in divs
            )
            assert permuted_bracelets(alphabet, n) == sum(
                permuted_lyndon_bracelets(alphabet, d) for d in divs
            )


def test_size_orderings():
    for n in range(1, 40):
        for k, alphabet in ((2, A2), (3, A3)):
            assert 0 <= lyndon_necklaces(k, n) <= necklaces(k, n)
            assert 0 <= lyndon_bracelets(k, n) <= bracelets(k, n)
            assert bracelets(k, n) <= necklaces(k, n)
            assert permuted_bracelets(alphabet, n) <= permuted_necklaces(alphabet, n)
            assert permuted_necklaces(alphabet, n) <= necklaces(k, n)


def test_count_table_rows():
    for (alphabet, n), row in TABLE_ROWS.items():
        counts = [count(alphabet, n, g, ap) for ap in (False, True) for g in GroupKind]
        assert (*counts, total_regions(alphabet, n)) == row


def test_count_table_fields_are_complete():
    # every column has a count at every length; totals start at n = 2
    for alphabet in (A2, A3):
        for group in GroupKind:
            for aperiodic in (False, True):
                assert count(alphabet, 4, group, aperiodic) > 0
                assert count(alphabet, 1, group, aperiodic) > 0
    with pytest.raises(ValueError):
        total_regions(A2, 1)


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        necklaces(2, 0)
    with pytest.raises(ValueError):
        permuted_necklaces("a5", 3)
    with pytest.raises(ValueError):
        total_regions(A3, 1)
