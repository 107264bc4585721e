"""Correctness checks of the benchmark, computed without the package.

Nothing here imports nagumo_atlas: each check recomputes what it needs
from the equations and group actions themselves, so a fault in the
package cannot hide in a shared helper. Words are strings over '0', 'a',
'1'; in the package's word order 0 < a < 1.

The linear algebra references are bound at import, before a traced run
replaces numpy.linalg's functions, so checks never show up in a trace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_eigvalsh = np.linalg.eigvalsh

SYMMETRY_TOL = 1e-8
FOLD_01 = 1.0 / 16.0
RESIDUAL_TOL = 1e-11
MIN_SPREAD = 1e-3
PITCHFORK_SLACK = 1e-9

_ORDER = {"0": 0, "a": 1, "1": 2}
_SWAP = {"0": "1", "a": "a", "1": "0"}
ALPHABET_LETTERS = {"a2": 2, "a3": 3}


# --- region heights -------------------------------------------------------


def symmetry_deviation_ok(deviation: float) -> bool:
    """Rotation, reflection and swap images must give the same height."""
    return deviation <= SYMMETRY_TOL


def fold_01_ok(height: float) -> bool:
    """01 at a = 1/2 folds at d = 1/16; the march may stop just short."""
    return -1e-9 <= FOLD_01 - height <= 1e-6


def pitchfork(a: float) -> float:
    """Coupling where the constant-a state loses the alternating mode: there
    f'(a) = a(1-a) equals 4d, the largest eigenvalue of the cycle Laplacian
    on a two-periodic pattern. The 0a branch ends there or earlier."""
    return a * (1.0 - a) / 4.0


def pitchfork_ok(a: float, height: float) -> bool:
    return height <= pitchfork(a) + PITCHFORK_SLACK


def primitive_root(word: str) -> str:
    n = len(word)
    for p in range(1, n + 1):
        if n % p == 0 and word[:p] * (n // p) == word:
            return word[:p]
    return word


def in_0a_family(word: str) -> bool:
    """Words made of repeats of 0a, a0, 1a or a1: two-periodic patterns that
    alternate a stable root with the middle root."""
    return primitive_root(word) in ("0a", "a0", "1a", "a1")


def height_ok(height: float, d_cap: float) -> bool:
    return 0.0 < height <= d_cap


# --- equilibria -----------------------------------------------------------


def residual_max(u, a: float, d: float) -> float:
    """Max-norm of d (u[i-1] - 2u[i] + u[i+1]) + u(1-u)(u-a) on the cycle."""
    n = len(u)
    return max(
        abs(d * (u[i - 1] - 2.0 * u[i] + u[(i + 1) % n]) + u[i] * (1.0 - u[i]) * (u[i] - a))
        for i in range(n)
    )


def top_eigenvalue(u, a: float, d: float) -> float:
    """Largest eigenvalue of the Jacobian of the residual at u."""
    n = len(u)
    J = np.zeros((n, n))
    for i in range(n):
        s = u[i]
        J[i, i] = -3.0 * s * s + 2.0 * (1.0 + a) * s - a - 2.0 * d
        J[i, (i + 1) % n] += d
        J[i, (i - 1) % n] += d
    return float(_eigvalsh(J)[-1])


def equilibrium_problems(word: str, a: float, d: float, u, stable: bool) -> list[str]:
    """What is wrong with a state reported as the pattern `word` at (a, d)."""
    u = [float(x) for x in u]
    out = []
    if len(u) != len(word):
        return [f"{word}: state has {len(u)} sites"]
    r = residual_max(u, a, d)
    if not r <= RESIDUAL_TOL:
        out.append(f"{word} a={a} d={d}: residual {r:.3g}")
    lam = top_eigenvalue(u, a, d)
    if stable != (lam < 0.0):
        out.append(f"{word} a={a} d={d}: stable={stable} but top eigenvalue {lam:.3g}")
    spread = max(u) - min(u)
    if len(set(word)) > 1 and not spread > MIN_SPREAD:
        out.append(f"{word} a={a} d={d}: near-constant state, spread {spread:.3g}")
    return out


# --- counts and orbits ----------------------------------------------------


def _mobius(n: int) -> int:
    sign, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if m > 1 else sign


def _cycle_lengths(perm: list[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length:
            lengths.append(length)
    return lengths


@lru_cache(maxsize=None)
def orbit_count(n: int, k: int, reflects: bool, swaps: bool) -> int:
    """Classes of length-n words over k letters, by Cauchy-Frobenius: the
    average over the group of the words each element fixes. A swap-composed
    element fixes a word when each position cycle of even length carries
    any letter, and each odd one a swap-fixed letter (the middle letter
    when k = 3, none when k = 2)."""
    perms = [[(i + s) % n for i in range(n)] for s in range(n)]
    if reflects:
        perms += [[(s - i) % n for i in range(n)] for s in range(n)]
    total = 0
    for perm in perms:
        cycles = _cycle_lengths(perm)
        total += k ** len(cycles)
        if swaps:
            fixed = 1
            for length in cycles:
                fixed *= k if length % 2 == 0 else k % 2
            total += fixed
    count, remainder = divmod(total, len(perms) * (2 if swaps else 1))
    if remainder:
        raise ArithmeticError(f"fixed-word average is not whole at n={n}, k={k}")
    return count


def aperiodic_orbit_count(n: int, k: int, reflects: bool, swaps: bool) -> int:
    """Classes of words with primitive period n. A class of length-n words
    with primitive period d is a class of aperiodic length-d words, so the
    all-period counts are divisor sums of these; invert by Moebius."""
    return sum(
        _mobius(n // d) * orbit_count(d, k, reflects, swaps)
        for d in range(1, n + 1)
        if n % d == 0
    )


# column label of the count table -> (reflects, swaps, aperiodic)
COUNT_COLUMNS = {
    "N": (False, False, False),
    "B": (True, False, False),
    "Npi": (False, True, False),
    "Bpi": (True, True, False),
    "NL": (False, False, True),
    "BL": (True, False, True),
    "NLpi": (False, True, True),
    "BLpi": (True, True, True),
}


def expected_count(label: str, alphabet: str, n: int) -> int:
    k = ALPHABET_LETTERS[alphabet]
    if label == "total":
        return 1 + sum(aperiodic_orbit_count(m, k, True, True) for m in range(2, n + 1))
    reflects, swaps, aperiodic = COUNT_COLUMNS[label]
    count = aperiodic_orbit_count if aperiodic else orbit_count
    return count(n, k, reflects, swaps)


def count_table_problems(rows: list[dict[str, str]]) -> list[str]:
    """Compare every cell of `nagumo-atlas count` CSV rows with expected_count."""
    out = []
    for row in rows:
        n = int(row["n"])
        for column, cell in row.items():
            if column == "n":
                continue
            label, alphabet = column.rsplit("_", 1)
            if label == "total" and n < 2:
                if cell != "":
                    out.append(f"count n={n} {column}: {cell}, expected blank")
                continue
            want = expected_count(label, alphabet, n)
            if cell != str(want):
                out.append(f"count n={n} {column}: {cell}, expected {want}")
    return out


def swap(word: str) -> str:
    """The value swap 0 <-> 1, which fixes a."""
    return "".join(_SWAP[c] for c in word)


def dihedral_images(word: str, swaps: bool) -> list[str]:
    n = len(word)
    variants = [word, word[::-1]]
    if swaps:
        variants += [swap(v) for v in variants]
    return [v[s:] + v[:s] for v in variants for s in range(n)]


def _key(word: str) -> tuple[int, ...]:
    return tuple(_ORDER[c] for c in word)


def orbit_minimum(word: str, swaps: bool = True) -> str:
    """Smallest image of the word under rotation, reversal and, if asked,
    the value swap, in the order 0 < a < 1."""
    return min(dihedral_images(word, swaps), key=_key)


def self_conjugate(word: str) -> bool:
    """Whether the value swap maps the word into its own dihedral class, so
    that its region is symmetric under a -> 1 - a."""
    return orbit_minimum(swap(word), swaps=False) == orbit_minimum(word, swaps=False)


def orbit_listing_problems(lines: list[str], n: int, k: int) -> list[str]:
    """Check `nagumo-atlas orbits` output lines 'rep size' for length n."""
    out = []
    sizes = 0
    reps = []
    for line in lines:
        rep, size = line.split()
        reps.append(rep)
        sizes += int(size)
        if len(rep) != n:
            out.append(f"orbits: {rep} has length {len(rep)}")
        elif orbit_minimum(rep) != rep:
            out.append(f"orbits: {rep} is not the minimum of its orbit")
    if sizes != k**n:
        out.append(f"orbits: class sizes sum to {sizes}, expected {k**n}")
    want = orbit_count(n, k, True, True)
    if len(reps) != want or len(set(reps)) != len(reps):
        out.append(f"orbits: {len(reps)} classes, expected {want}")
    return out
