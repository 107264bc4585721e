"""Closed-form counts of word classes under the four symmetry groups.

Eight formula families, all exact integer divisor sums:

====================  =========================  ==============================
quantity              group                      function
====================  =========================  ==============================
necklaces             rotations                  necklaces(k, n)
bracelets             rotations + reversal       bracelets(k, n)
permuted necklaces    rotations + value swap     permuted_necklaces(alphabet, n)
permuted bracelets    all of the above           permuted_bracelets(alphabet, n)
====================  =========================  ==============================

plus the aperiodic ("lyndon") variant of each, obtained by Moebius
inversion over the primitive period; count(alphabet, n, group, aperiodic)
picks the family for a words.GroupKind. The permuted counts depend on which
letters the value swap fixes, so they take the alphabet tag rather than a
bare k. Divisions by n, 2n, 4n are performed last and checked exact; a
remainder would mean a transcription bug, not a rounding issue, since all
counts are integers by construction.

total_regions(alphabet, n) is the headline number: distinct stationary
patterns on cycles of every length up to n, counted up to rotation,
reflection, value swap, and period collapse - that is,
1 (the homogeneous middle-root pattern) plus the aperiodic permuted
bracelet counts for lengths 2..n.
"""

from __future__ import annotations

from functools import lru_cache

from .numtheory import _check_positive, divisors, euler_phi, mobius
from .words import A2, GroupKind, _check_alphabet


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"inexact division {num}/{den} in a counting formula")
    return q


def _letters(alphabet: str) -> int:
    _check_alphabet(alphabet)
    return 2 if alphabet == A2 else 3


def necklaces(k: int, n: int) -> int:
    """Words of length n over k letters, up to rotation."""
    _check_positive(k)
    _check_positive(n)
    total = sum(euler_phi(d) * k ** (n // d) for d in divisors(n))
    return _exact_div(total, n)


def _reflection_fixed(k: int, n: int) -> int:
    """Average over the n reflections of the words each one fixes."""
    if n % 2 == 0:
        # half the axes pass through vertices (fix k^(n/2+1) words),
        # half through edges (fix k^(n/2)); averaged over n axes.
        return _exact_div((k + 1) * k ** (n // 2), 2)
    return k ** ((n + 1) // 2)


def bracelets(k: int, n: int) -> int:
    """Words of length n over k letters, up to rotation and reversal."""
    _check_positive(k)
    _check_positive(n)
    return _exact_div(necklaces(k, n) + _reflection_fixed(k, n), 2)


def permuted_necklaces(alphabet: str, n: int) -> int:
    """Classes up to rotation and the 0 <-> 1 value swap."""
    _check_positive(n)
    k = _letters(alphabet)
    total = 0
    for d in divisors(n):
        q = n // d
        if alphabet == A2:
            # swap composed with an odd-order rotation power fixes nothing
            # over {0,1}; with an even-order one it fixes 2^q words.
            term = euler_phi(d) * 2**q
            total += term if d % 2 == 1 else 2 * term
        else:
            if d % 2 == 1:
                total += euler_phi(d) * (1 + 3**q)
            else:
                total += 2 * euler_phi(d) * 3**q
    return _exact_div(total, 2 * n)


def _swap_reflection_fixed(alphabet: str, n: int) -> int:
    """Sum over the n swap-composed reflections of the words each fixes."""
    if alphabet == A2:
        if n % 2 == 0:
            return 2 ** (n // 2)
        return 2 ** ((n - 1) // 2)
    if n % 2 == 0:
        return _exact_div(4 * 3 ** (n // 2), 3)
    return 2 * 3 ** ((n - 1) // 2)


def permuted_bracelets(alphabet: str, n: int) -> int:
    """Classes up to rotation, reversal, and the value swap."""
    _check_positive(n)
    _check_alphabet(alphabet)
    return _exact_div(permuted_necklaces(alphabet, n) + _swap_reflection_fixed(alphabet, n), 2)


def lyndon_necklaces(k: int, n: int) -> int:
    """Aperiodic words of length n over k letters, up to rotation."""
    _check_positive(k)
    _check_positive(n)
    total = sum(mobius(n // d) * k**d for d in divisors(n))
    return _exact_div(total, n)


def lyndon_bracelets(k: int, n: int) -> int:
    """Aperiodic words up to rotation and reversal."""
    _check_positive(k)
    _check_positive(n)
    folded = sum(mobius(n // d) * _reflection_fixed(k, d) for d in divisors(n))
    return _exact_div(lyndon_necklaces(k, n) + folded, 2)


def _aperiodic_swap_correction(n: int) -> int:
    # contribution of swap-twisted rotations after Moebius inversion: it
    # telescopes to +1 at n=1, -1 at powers of two, 0 elsewhere.
    if n == 1:
        return 1
    if n & (n - 1) == 0:
        return -1
    return 0


def permuted_lyndon_necklaces(alphabet: str, n: int) -> int:
    """Aperiodic classes up to rotation and the value swap."""
    _check_positive(n)
    _check_alphabet(alphabet)
    if alphabet == A2:
        total = sum(mobius(d) * 2 ** (n // d) for d in divisors(n) if d % 2 == 1)
        return _exact_div(total, 2 * n)
    total = sum(mobius(d) * 3 ** (n // d) for d in divisors(n) if d % 2 == 1)
    total += _aperiodic_swap_correction(n)
    return _exact_div(total, 2 * n)


@lru_cache(maxsize=None)
def permuted_lyndon_bracelets(alphabet: str, n: int) -> int:
    """Aperiodic classes up to rotation, reversal, and the value swap.

    This is the count of genuinely distinct stationary patterns whose
    smallest repeating block has length exactly n.
    """
    _check_positive(n)
    _check_alphabet(alphabet)
    folded = sum(
        mobius(n // d) * _swap_reflection_fixed(alphabet, d) for d in divisors(n)
    )
    return _exact_div(permuted_lyndon_necklaces(alphabet, n) + folded, 2)


def count(alphabet: str, n: int, group: GroupKind, aperiodic: bool = False) -> int:
    """Classes of length-n words under the group (aperiodic ones only if asked)."""
    k = _letters(alphabet)
    if group is GroupKind.CYCLIC:
        return (lyndon_necklaces if aperiodic else necklaces)(k, n)
    if group is GroupKind.DIHEDRAL:
        return (lyndon_bracelets if aperiodic else bracelets)(k, n)
    if group is GroupKind.CYCLIC_PI:
        return (permuted_lyndon_necklaces if aperiodic else permuted_necklaces)(alphabet, n)
    return (permuted_lyndon_bracelets if aperiodic else permuted_bracelets)(alphabet, n)


def total_regions(alphabet: str, n: int) -> int:
    """Distinct nontrivial patterns across all cycle lengths 2..n, plus the
    homogeneous middle-root pattern."""
    _check_alphabet(alphabet)
    if n < 2:
        raise ValueError(f"totals need n >= 2, got {n}")
    return 1 + sum(permuted_lyndon_bracelets(alphabet, m) for m in range(2, n + 1))
