"""Words over {0,a,1}, the symmetry groups acting on them, and orbit
classes of all four groups, listed with their primitive periods by one
vectorised sweep over the rotations of every word.

A word of length n labels a candidate stationary pattern on an n-cycle:
letter 0 or 1 pins a vertex to a stable root of the cubic nonlinearity,
letter a to the unstable middle root. A word is its letters; an alphabet,
a2 = {0,1} or a3 = {0,a,1}, is a parameter of listings and counts only, so
the a2 listings hold exactly the a3 words without a. Four groups act:

* rotations alone (cyclic),
* rotations and the reversal of vertex order (dihedral),
* either of those combined with the value swap 0 <-> 1 that fixes a
  (the "pi" variants).

Letters are stored as small ints chosen so that tuple comparison is the
global word order with 0 < a < 1. A canonical form is the least image that
rotate, reflect and permute_values generate. The sweep reads each word as
a base-k integer code whose integer order is the same order (spell is the
one decoder of codes); the value swap and the reversal act on its array of
rotation minima as two gathers (an index reversal and a transpose).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

ZERO = 0
MID = 1
ONE = 2

A2 = "a2"
A3 = "a3"

_ALPHABET_LETTERS = {A2: (ZERO, ONE), A3: (ZERO, MID, ONE)}
_CHAR_OF = {ZERO: "0", MID: "a", ONE: "1"}
_LETTER_OF = {"0": ZERO, "a": MID, "1": ONE}
_SWAP = {ZERO: ONE, MID: MID, ONE: ZERO}

# Refuse to enumerate beyond ~2^23 words: the sweep holds about 30 bytes a
# word, so the largest accepted sweeps peak near 250 MiB (dpi on one Xeon
# core: a3 n = 14 takes 0.64 s and 160 MiB RSS, a2 n = 23 1.4 s and 250 MiB).
_ENUMERATION_BITS = 23


def _check_alphabet(alphabet: str) -> None:
    if alphabet not in _ALPHABET_LETTERS:
        raise ValueError(f"unknown alphabet {alphabet!r}; expected {A2!r} or {A3!r}")


class GroupKind(Enum):
    """Symmetry group selector; value strings double as CLI tokens."""

    CYCLIC = "c"
    DIHEDRAL = "d"
    CYCLIC_PI = "cpi"
    DIHEDRAL_PI = "dpi"

    # members are singletons compared by identity; Enum.__hash__ is a Python
    # call, which every hit on the counting caches keyed by GroupKind pays for
    __hash__ = object.__hash__

    @property
    def reflects(self) -> bool:
        return self in (GroupKind.DIHEDRAL, GroupKind.DIHEDRAL_PI)

    @property
    def swaps_values(self) -> bool:
        return self in (GroupKind.CYCLIC_PI, GroupKind.DIHEDRAL_PI)

    def order(self, n: int) -> int:
        """Size of the group acting on length-n words."""
        if n < 1:
            raise ValueError(f"word length must be positive, got {n}")
        return n * (2 if self.reflects else 1) * (2 if self.swaps_values else 1)


@dataclass(frozen=True, order=True)
class Word:
    """Immutable word, its letters alone: it compares by them in the global order."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("words must have at least one letter")
        for x in self.letters:
            if x not in _ALPHABET_LETTERS[A3]:
                raise ValueError(f"letter {x!r} not in alphabet {A3!r}")

    @classmethod
    def parse(cls, text: str) -> "Word":
        try:
            letters = tuple(_LETTER_OF[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"bad letter {exc.args[0]!r} in word {text!r}") from None
        return cls(letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(_CHAR_OF[x] for x in self.letters)


def rotate(w: Word, steps: int = 1) -> Word:
    """Cyclic left shift: letter i of the result is letter i+steps of w."""
    n = len(w.letters)
    k = steps % n
    return Word(w.letters[k:] + w.letters[:k])


def reflect(w: Word) -> Word:
    """Reverse the vertex order."""
    return Word(w.letters[::-1])


def permute_values(w: Word) -> Word:
    """Swap letters 0 and 1, fix a."""
    return Word(tuple(_SWAP[x] for x in w.letters))


def _images(w: Word, group: GroupKind):
    """Yield every image of w under the group (|G| items, repeats possible)."""
    variants = [w, reflect(w)] if group.reflects else [w]
    if group.swaps_values:
        variants += [permute_values(v) for v in variants]
    for v in variants:
        for k in range(len(w)):
            yield rotate(v, k)


def canonical(w: Word, group: GroupKind) -> Word:
    """Smallest image of w under the group, in the global word order."""
    return min(_images(w, group))


def orbit(w: Word, group: GroupKind) -> frozenset[Word]:
    """All distinct images of w under the group."""
    return frozenset(_images(w, group))


@dataclass(frozen=True)
class OrbitClass:
    """One orbit, held as its minimum, with the primitive period of every
    member (the group actions preserve it); its members are orbit(representative, group)."""

    representative: Word
    group: GroupKind
    size: int
    period: int


def enumeration_limit(alphabet: str) -> int:
    """Longest word length sweep_orbits accepts: k^n stays within 2^23."""
    _check_alphabet(alphabet)
    return int(_ENUMERATION_BITS / math.log2(len(_ALPHABET_LETTERS[alphabet])))


def sweep_orbits(n: int, alphabet: str = A3):
    """Yield (group, minima, reps, sizes, periods) for the groups c, cpi, d
    and dpi in turn, all from one sweep over the rotations of the k^n words.

    Code x reads a word in base k, first letter most significant and letter
    index 0 < a < 1, so integer order is word order; minima[x] is the least
    code in x's orbit. The value swap maps x to k^n - 1 - x and commutes with
    rotation and reversal, so adding it takes min(minima, minima[::-1]); the
    reversal reverses x's digits, so the dihedral minima are the least of the
    cyclic ones and their transpose as a k x ... x k array. The reps are the
    codes equal to their minimum, sorted; sizes[i] counts the codes whose
    minimum is reps[i], and periods[i] is reps[i]'s primitive period.

    Groups are derived one at a time, so the sweep holds a few int32 arrays
    of k^n codes, about 30 bytes a word at its peak; lengths beyond
    enumeration_limit(alphabet) are refused.
    """
    if n < 1:
        raise ValueError(f"word length must be positive, got {n}")
    limit = enumeration_limit(alphabet)
    k = len(_ALPHABET_LETTERS[alphabet])
    if n > limit:
        raise ValueError(
            f"enumerating {k}^{n} words exceeds the size guard of length {limit}"
        )
    codes = np.arange(k**n, dtype=np.int32)  # the guard keeps k^n within 2^23
    minima = codes.copy()
    for s in range(1, n):  # the rotation by s
        np.minimum(minima, codes % k ** (n - s) * k**s + codes // k ** (n - s), out=minima)
    # a cyclic class's size is its period, at most 23 under the guard
    periods = np.bincount(minima).astype(np.int8)

    def classes(group, low):
        reps = np.flatnonzero(low == codes)
        return group, low, reps, np.bincount(low)[reps], periods[reps]

    yield classes(GroupKind.CYCLIC, minima)
    yield classes(GroupKind.CYCLIC_PI, np.minimum(minima, minima[::-1]))
    cube = (k,) * n  # axis i holds letter i, so the reversal is the transpose
    minima = np.minimum(minima.reshape(cube), minima.reshape(cube).T).ravel()
    yield classes(GroupKind.DIHEDRAL, minima)
    yield classes(GroupKind.DIHEDRAL_PI, np.minimum(minima, minima[::-1]))


def spell(codes: np.ndarray, n: int, alphabet: str = A3) -> list[str]:
    """The length-n words that codes stand for, as strings."""
    _check_alphabet(alphabet)
    chars = np.array([_CHAR_OF[x] for x in _ALPHABET_LETTERS[alphabet]])
    digits = codes[:, None] // len(chars) ** np.arange(n - 1, -1, -1, dtype=np.int32)
    return chars[digits % len(chars)].view(f"U{n}").ravel().tolist()


def enumerate_orbits(
    n: int,
    alphabet: str = A3,
    group: GroupKind = GroupKind.DIHEDRAL_PI,
) -> list[OrbitClass]:
    """Partition words of length n into group orbits, sorted by
    representative: the group's classes from sweep_orbits (one rotation
    sweep, whose minima the swap and the reversal gather) as objects.
    Members are not stored; orbit(c.representative, group) lists them."""
    if not isinstance(group, GroupKind):
        raise ValueError(f"unknown group {group!r}; expected a GroupKind")
    _, _, reps, sizes, periods = next(c for c in sweep_orbits(n, alphabet) if c[0] is group)
    return [OrbitClass(Word.parse(t), group, size, period) for t, size, period
            in zip(spell(reps, n, alphabet), sizes.tolist(), periods.tolist())]


def representatives(
    n: int,
    alphabet: str = A3,
    group: GroupKind = GroupKind.DIHEDRAL_PI,
    lyndon_only: bool = True,
) -> list[Word]:
    """Sorted canonical representatives, one per class; with lyndon_only, aperiodic only."""
    return [
        c.representative
        for c in enumerate_orbits(n, alphabet, group)
        if not lyndon_only or c.period == n
    ]
