"""Property tests for canonical forms over random words of length 1-9, and
for the primitive period that each orbit class reports."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nagumo_atlas.counting import count
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
    rotate,
)

LETTERS = {A2: "01", A3: "0a1"}


@st.composite
def random_words(draw) -> Word:
    alphabet = draw(st.sampled_from([A2, A3]))
    text = draw(st.text(alphabet=LETTERS[alphabet], min_size=1, max_size=9))
    return Word.parse(text)


groups = st.sampled_from(list(GroupKind))


@lru_cache(maxsize=None)
def _sizes_by_representative(n: int, alphabet: str, group: GroupKind) -> dict:
    return {c.representative: c.size for c in enumerate_orbits(n, alphabet, group)}


@settings(deadline=None)
@given(random_words(), groups, st.integers(min_value=0, max_value=8))
def test_canonical_is_invariant_under_the_generators(word, group, steps):
    rep = canonical(word, group)
    assert canonical(rotate(word, steps), group) == rep
    if group.reflects:
        assert canonical(reflect(word), group) == rep
    if group.swaps_values:
        assert canonical(permute_values(word), group) == rep


@settings(deadline=None)
@given(random_words(), groups)
def test_orbit_and_canonical_match_the_oracle_images(word, group):
    # the images built from index maps and the letter swap, not from the
    # generators rotate, reflect and permute_values that canonical composes
    t, swap = word.letters, oracles.swap_map(3)
    images = {tuple(t[i] for i in m) for m in oracles.position_maps(len(t), group.reflects)}
    if group.swaps_values:
        images |= {tuple(swap[x] for x in image) for image in images}
    assert {image.letters for image in orbit(word, group)} == images
    assert canonical(word, group).letters == min(images)


@settings(deadline=None)
@given(random_words(), groups)
def test_canonical_is_idempotent(word, group):
    rep = canonical(word, group)
    assert canonical(rep, group) == rep


@settings(deadline=None)
@given(random_words(), groups)
def test_canonical_is_a_listed_representative(word, group):
    sizes = _sizes_by_representative(len(word), A2 if MID not in word.letters else A3, group)
    rep = canonical(word, group)
    assert rep in sizes
    assert sizes[rep] == len(orbit(word, group))


@settings(deadline=None)
@given(st.sampled_from([A2, A3]), groups, st.integers(min_value=1, max_value=8))
def test_class_period_is_every_members_period(alphabet, group, n):
    classes = enumerate_orbits(n, alphabet, group)
    for c in classes:
        assert all(oracles.primitive_period(m.letters) == c.period for m in orbit(c.representative, group))
    assert sum(c.period == n for c in classes) == count(alphabet, n, group, True)
