"""Closed-form counts of word classes under the four symmetry groups.

====================  =========================  ==============================
quantity              group                      function
====================  =========================  ==============================
necklaces             rotations                  necklaces(k, n)
bracelets             rotations + reversal       bracelets(k, n)
permuted necklaces    rotations + value swap     permuted_necklaces(alphabet, n)
permuted bracelets    all of the above           permuted_bracelets(alphabet, n)
====================  =========================  ==============================

plus the aperiodic ("lyndon") variant of each; count(alphabet, n, group,
aperiodic) gives any of them for a words.GroupKind.

Every count is one Cauchy-Frobenius average: the number of words each
group element fixes, summed over the group and divided by its order. An
element whose positions fall into cycles fixes k**cycles words; composed
with the value swap it fixes k words per even cycle and s = k mod 2 (the
letters the swap fixes) per odd cycle. The division is checked exact: a
remainder would mean a transcription bug, not a rounding issue.

The group actions preserve the primitive period, so the words of length n
split by period d | n into aperiodic classes of length d, and Moebius
inversion gives aperiodic(n) = sum over d | n of mobius(n/d) * classes(d).

total_regions(alphabet, n) is the headline number: distinct stationary
patterns on cycles of every length up to n, counted up to rotation,
reflection, value swap, and period collapse - that is,
1 (the homogeneous middle-root pattern) plus the aperiodic permuted
bracelet counts for lengths 2..n.
"""

from __future__ import annotations

from functools import lru_cache

from .numtheory import _check_positive, divisors, euler_phi, mobius
from .words import _ALPHABET_LETTERS, GroupKind, _check_alphabet


@lru_cache(maxsize=None)
def _classes(k: int, n: int, group: GroupKind) -> int:
    """Classes of length-n words over k letters under the group."""
    _check_positive(k)
    s = k % 2

    def fixed(odd: int, even: int) -> int:
        plain = k ** (odd + even)
        return plain + s**odd * k**even if group.swaps_values else plain

    # (elements, odd cycles, even cycles). For each m | n, phi(m) rotations
    # have n/m cycles of length m. A reflection fixes the vertices on its
    # axis and pairs the rest: for odd n every axis meets one vertex, for
    # even n half the axes meet two vertices and half meet none.
    types = [
        (euler_phi(m), n // m, 0) if m % 2 else (euler_phi(m), 0, n // m)
        for m in divisors(n)
    ]
    if group.reflects:
        h = n // 2
        types += [(n, 1, h)] if n % 2 else [(h, 2, h - 1), (h, 0, h)]
    total = sum(elements * fixed(odd, even) for elements, odd, even in types)
    order = group.order(n)
    classes, remainder = divmod(total, order)
    if remainder:
        raise ArithmeticError(f"inexact division {total}/{order} in a class count")
    return classes


@lru_cache(maxsize=None)
def _aperiodic_classes(k: int, n: int, group: GroupKind) -> int:
    """Classes of aperiodic length-n words, by Moebius inversion."""
    return sum(mobius(n // d) * _classes(k, d, group) for d in divisors(n))


def _letters(alphabet: str) -> int:
    _check_alphabet(alphabet)
    return len(_ALPHABET_LETTERS[alphabet])


def count(alphabet: str, n: int, group: GroupKind, aperiodic: bool = False) -> int:
    """Classes of length-n words under the group (aperiodic ones only if asked)."""
    return (_aperiodic_classes if aperiodic else _classes)(_letters(alphabet), n, group)


def necklaces(k: int, n: int) -> int:
    """Words of length n over k letters, up to rotation."""
    return _classes(k, n, GroupKind.CYCLIC)


def bracelets(k: int, n: int) -> int:
    """Words of length n over k letters, up to rotation and reversal."""
    return _classes(k, n, GroupKind.DIHEDRAL)


def permuted_necklaces(alphabet: str, n: int) -> int:
    """Classes up to rotation and the 0 <-> 1 value swap."""
    return count(alphabet, n, GroupKind.CYCLIC_PI)


def permuted_bracelets(alphabet: str, n: int) -> int:
    """Classes up to rotation, reversal, and the value swap."""
    return count(alphabet, n, GroupKind.DIHEDRAL_PI)


def lyndon_necklaces(k: int, n: int) -> int:
    """Aperiodic words of length n over k letters, up to rotation."""
    return _aperiodic_classes(k, n, GroupKind.CYCLIC)


def lyndon_bracelets(k: int, n: int) -> int:
    """Aperiodic words up to rotation and reversal."""
    return _aperiodic_classes(k, n, GroupKind.DIHEDRAL)


def permuted_lyndon_necklaces(alphabet: str, n: int) -> int:
    """Aperiodic classes up to rotation and the value swap."""
    return count(alphabet, n, GroupKind.CYCLIC_PI, True)


def permuted_lyndon_bracelets(alphabet: str, n: int) -> int:
    """Aperiodic classes up to rotation, reversal, and the value swap.

    This is the count of genuinely distinct stationary patterns whose
    smallest repeating block has length exactly n.
    """
    return count(alphabet, n, GroupKind.DIHEDRAL_PI, True)


def total_regions(alphabet: str, n: int) -> int:
    """Distinct nontrivial patterns across all cycle lengths 2..n, plus the
    homogeneous middle-root pattern."""
    k = _letters(alphabet)
    if n < 2:
        raise ValueError(f"totals need n >= 2, got {n}")
    return 1 + sum(_aperiodic_classes(k, m, GroupKind.DIHEDRAL_PI) for m in range(2, n + 1))
