import itertools
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from nagumo_atlas.words import (
    A2,
    A3,
    MID,
    GroupKind,
    Word,
    canonical,
    enumerate_orbits,
    orbit,
    permute_values,
    reflect,
    representatives,
    rotate,
    spell,
    sweep_orbits,
)

ALL_GROUPS = list(GroupKind)
LETTERS = {A2: "01", A3: "0a1"}


def w(text):
    return Word.parse(text)


def primitive_period(word):
    return oracles.primitive_period(word.letters)


def test_parse_roundtrip():
    for text in ["0", "a", "1", "0a1", "0011", "1aa1aa"]:
        assert str(w(text)) == text


def test_parse_rejects_unknown_letters():
    with pytest.raises(ValueError):
        Word.parse("0b1")
    with pytest.raises(ValueError):
        Word.parse("2")


def test_alphabet_validation():
    # a word is its letters, checked against {0, a, 1}; an unknown code is named by its repr
    with pytest.raises(ValueError, match="^letter 7 not in alphabet 'a3'$"):
        Word((0, 7))


def test_empty_word_rejected():
    with pytest.raises(ValueError):
        Word.parse("")


def test_global_order_zero_mid_one():
    assert w("0") < w("a") < w("1")
    assert sorted([w("1"), w("0"), w("a")]) == [w("0"), w("a"), w("1")]


def test_rotate_examples():
    assert str(rotate(w("001"))) == "010"
    assert str(rotate(w("0a1"))) == "a10"
    assert str(rotate(w("000"))) == "000"
    assert rotate(w("0a1"), 3) == w("0a1")


def test_reflect_examples():
    assert str(reflect(w("0a1"))) == "1a0"
    assert str(reflect(w("01"))) == "10"
    assert str(reflect(w("aaa"))) == "aaa"
    assert reflect(reflect(w("0a11"))) == w("0a11")


def test_permute_values_examples():
    assert str(permute_values(w("0a1"))) == "1a0"
    assert str(permute_values(w("0011"))) == "1100"
    assert str(permute_values(w("aa"))) == "aa"
    assert permute_values(permute_values(w("0a11"))) == w("0a11")


def test_permute_values_binary_alphabet():
    flipped = permute_values(w("0011"))
    assert str(flipped) == "1100"
    assert canonical(flipped, GroupKind.CYCLIC) in representatives(4, A2, GroupKind.CYCLIC, False)


def test_primitive_period_examples():
    assert primitive_period(w("1aa1aa")) == 3
    assert primitive_period(w("0101")) == 2
    assert primitive_period(w("001")) == 3
    assert primitive_period(w("0000")) == 1


def test_primitive_period_divides_length():
    rng = random.Random(7)
    letters = "0a1"
    for _ in range(200):
        n = rng.randrange(1, 13)
        text = "".join(rng.choice(letters) for _ in range(n))
        assert n % primitive_period(w(text)) == 0


def test_canonical_examples():
    assert str(canonical(w("100"), GroupKind.CYCLIC)) == "001"
    assert str(canonical(w("110"), GroupKind.DIHEDRAL_PI)) == "001"
    assert str(canonical(w("0a0"), GroupKind.CYCLIC)) == "00a"


def test_canonical_is_orbit_minimum_and_idempotent():
    rng = random.Random(11)
    letters = "0a1"
    for _ in range(100):
        n = rng.randrange(1, 9)
        word = w("".join(rng.choice(letters) for _ in range(n)))
        for group in ALL_GROUPS:
            rep = canonical(word, group)
            members = orbit(word, group)
            assert rep == min(members)
            assert canonical(rep, group) == rep
            assert orbit(rep, group) == members


def test_orbit_closed_under_generators():
    rng = random.Random(13)
    letters = "0a1"
    for _ in range(60):
        n = rng.randrange(1, 8)
        word = w("".join(rng.choice(letters) for _ in range(n)))
        for group in ALL_GROUPS:
            members = orbit(word, group)
            for m in members:
                assert rotate(m) in members
                if group.reflects:
                    assert reflect(m) in members
                if group.swaps_values:
                    assert permute_values(m) in members


def test_orbit_size_divides_group_order():
    for group in ALL_GROUPS:
        for text in ["01", "0a", "0011", "0a1", "aaa", "0101"]:
            word = w(text)
            assert group.order(len(word)) % len(orbit(word, group)) == 0


def test_group_orders():
    assert GroupKind.CYCLIC.order(5) == 5
    assert GroupKind.DIHEDRAL.order(5) == 10
    assert GroupKind.CYCLIC_PI.order(5) == 10
    assert GroupKind.DIHEDRAL_PI.order(5) == 20


def test_group_order_rejects_an_empty_word():
    for group in ALL_GROUPS:
        with pytest.raises(ValueError, match="^word length must be positive, got 0$"):
            group.order(0)


def test_enumerate_orbits_worked_examples():
    assert len(enumerate_orbits(3, A3, GroupKind.CYCLIC)) == 11
    assert len(enumerate_orbits(3, A3, GroupKind.CYCLIC_PI)) == 6
    assert len(enumerate_orbits(4, A2, GroupKind.CYCLIC)) == 6


def test_enumerate_orbits_matches_oracle_counts():
    for alphabet, k, n_hi in ((A2, 2, 10), (A3, 3, 7)):
        for n in range(1, n_hi + 1):
            for group in ALL_GROUPS:
                classes = enumerate_orbits(n, alphabet, group)
                for lyndon in (False, True):
                    got = sum(not lyndon or c.period == n for c in classes)
                    want = oracles.class_count(
                        n, k, group.reflects, group.swaps_values, aperiodic_only=lyndon
                    )
                    assert got == want, (alphabet, n, group, lyndon)


def test_enumerate_orbits_partitions_all_words():
    for alphabet, n_hi in ((A2, 8), (A3, 6)):
        for n in range(1, n_hi + 1):
            every_word = [
                w("".join(t))
                for t in itertools.product(LETTERS[alphabet], repeat=n)
            ]
            aperiodic = [x for x in every_word if primitive_period(x) == n]
            for group in ALL_GROUPS:
                every_class = enumerate_orbits(n, alphabet, group)
                for lyndon in (False, True):
                    classes = [c for c in every_class if not lyndon or c.period == n]
                    listed = aperiodic if lyndon else every_word
                    for c in classes:
                        assert c.group is group
                        assert c.size == len(orbit(c.representative, group))
                    assert sum(c.size for c in classes) == len(listed)
                    reps = [c.representative for c in classes]
                    assert reps == sorted({canonical(x, group) for x in listed})


def test_sweep_arrays_agree_with_the_class_objects():
    # verify counts from sweep_orbits' arrays; enumerate_orbits is their object view
    for alphabet, n_hi in ((A2, 12), (A3, 8)):
        for n in range(1, n_hi + 1):
            swept = list(sweep_orbits(n, alphabet))
            assert [s[0] for s in swept] == [
                GroupKind.CYCLIC, GroupKind.CYCLIC_PI, GroupKind.DIHEDRAL, GroupKind.DIHEDRAL_PI,
            ]
            for group, minima, reps, sizes, periods in swept:
                classes = enumerate_orbits(n, alphabet, group)
                assert spell(reps, n, alphabet) == [str(c.representative) for c in classes]
                assert sizes.tolist() == [c.size for c in classes]
                assert periods.tolist() == [c.period for c in classes]
                assert sorted(set(minima.tolist())) == reps.tolist()


def test_sweep_minima_are_canonical_forms():
    # codes count up in word order, so minima[x] belongs to the x-th word
    for alphabet, n_hi in ((A2, 8), (A3, 6)):
        for n in range(1, n_hi + 1):
            every_word = [
                w("".join(t))
                for t in itertools.product(LETTERS[alphabet], repeat=n)
            ]
            for group, minima, *_ in sweep_orbits(n, alphabet):
                assert spell(minima, n, alphabet) == [
                    str(canonical(x, group)) for x in every_word
                ]


def test_representative_sets_match_published_table():
    assert {str(x) for x in representatives(2, A3)} == {"01", "0a"}
    assert {str(x) for x in representatives(6, A2)} == {
        "000001", "000011", "000101", "000111", "001011",
    }
    reps4 = [str(x) for x in representatives(4, A3)]
    assert len(reps4) == 9
    assert reps4[0] == "000a"
    assert reps4[1] == "0001"
    assert reps4[-1] == "0a1a"


def test_representatives_are_aperiodic_by_default():
    for word in representatives(6, A2):
        assert primitive_period(word) == 6


def test_enumeration_memory_peak():
    # the rotation sweep peaks at 5.1 MiB here, about 30 bytes a word; the
    # sweep over every group image peaked at 5.4 MiB, a set of seen words at 31.9
    enumerate_orbits(3, A3, GroupKind.DIHEDRAL_PI)
    tracemalloc.start()
    try:
        enumerate_orbits(11, A3, GroupKind.DIHEDRAL_PI)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_binary_classes_are_the_ternary_classes_without_a():
    # a word is its letters, so an a2 listing is the a3 one with the a-words left out
    for n in range(1, 9):
        for group in ALL_GROUPS:
            assert enumerate_orbits(n, A2, group) == [
                c for c in enumerate_orbits(n, A3, group) if MID not in c.representative.letters
            ]
            for lyndon in (False, True):
                binary = representatives(n, A2, group, lyndon)
                assert set(binary) <= set(representatives(n, A3, group, lyndon))
    assert Word.parse("01") in representatives(2, A2)


def test_spell_rejects_an_unknown_alphabet():
    with pytest.raises(ValueError, match="^unknown alphabet 'a4'; expected 'a2' or 'a3'$"):
        spell(np.array([0, 1]), 2, "a4")


def test_size_guard():
    with pytest.raises(ValueError):
        enumerate_orbits(40, A2, GroupKind.CYCLIC)
    with pytest.raises(ValueError):
        enumerate_orbits(20, A3, GroupKind.DIHEDRAL_PI)


def test_listings_reject_a_group_that_is_not_a_group_kind():
    # a group token is not a group: the listings name it instead of
    # letting the group pick run dry
    with pytest.raises(ValueError, match="^unknown group 'dpi'; expected a GroupKind$"):
        enumerate_orbits(3, A3, "dpi")
    with pytest.raises(ValueError, match="^unknown group None; expected a GroupKind$"):
        representatives(3, A3, None)


def test_images_preserve_primitive_period():
    rng = random.Random(17)
    letters = "0a1"
    for _ in range(100):
        n = rng.randrange(1, 10)
        word = w("".join(rng.choice(letters) for _ in range(n)))
        period = primitive_period(word)
        assert primitive_period(rotate(word)) == period
        assert primitive_period(reflect(word)) == period
        assert primitive_period(permute_values(word)) == period
