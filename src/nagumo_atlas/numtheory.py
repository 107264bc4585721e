"""Exact integer arithmetic used by the pattern-counting formulas.

Everything here returns Python ints, so nothing overflows no matter how
large the counts get. Factorization is plain trial division. The counting
formulas take n <= 64, and `verify` checks the divisor-sum identities for
every n up to --n-max (256 by default, at most 999,998) plus 25 sampled
n below 10^6; trial division of such n takes at most ~500 steps, so
anything fancier would be noise.
"""

from __future__ import annotations

from functools import lru_cache


def _check_positive(n: int) -> None:
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n!r}")


@lru_cache(maxsize=None)
def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as ((prime, exponent), ...) in ascending prime order."""
    _check_positive(n)
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def mobius(n: int) -> int:
    """Moebius function: 0 unless n is squarefree, else (-1)^(prime count)."""
    sign = 1
    for _, e in _factorize(n):
        if e > 1:
            return 0
        sign = -sign
    return sign


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient: count of 1..n coprime to n."""
    result = n
    for p, _ in _factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    out = [1]
    for p, e in _factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def convolution_identity_check(n: int) -> tuple[int, int, int]:
    """Divisor sums of mobius(n/d) * (n/d) * euler_phi(d), split by parity of d.

    Returns (full sum, even-d part, odd-d part). The full sum collapses to
    mobius(n); for even n the even and odd parts are -mobius(n) and
    2*mobius(n). Callers assert those identities; this function just sums.
    """
    s_all = s_even = s_odd = 0
    for d in divisors(n):
        q = n // d
        term = mobius(q) * q * euler_phi(d)
        s_all += term
        if d % 2 == 0:
            s_even += term
        else:
            s_odd += term
    return s_all, s_even, s_odd
