"""Independent cross-checks for counting, enumeration and region heights.

Everything here is reimplemented from first principles and imports
nothing from the package, so tests compare two code paths that share no
helpers. For counting, letters are plain integers 0..k-1; the value
permutation swaps the outer letters and fixes the middle one when k is
odd, matching the stable/unstable/middle root roles of the dynamics.

Two counting strategies:

* orbit_count: fixed-point average over the group (no enumeration),
  summing k**(number of position cycles) per element, with the twisted
  elements contributing per-cycle factors k (even cycle) or the number
  of swap-fixed letters (odd cycle).
* class_count: exhaustive canonicalization of all k**n words, optionally
  restricted to aperiodic words.
"""

from __future__ import annotations

import itertools

import numpy as np


def swap_map(k: int) -> tuple[int, ...]:
    if k == 2:
        return (1, 0)
    if k == 3:
        return (2, 1, 0)
    raise ValueError(f"unsupported letter count {k}")


def position_maps(n: int, reflects: bool) -> list[tuple[int, ...]]:
    """Index maps i -> g(i) for the rotations, plus reflections if asked."""
    maps = [tuple((i + shift) % n for i in range(n)) for shift in range(n)]
    if reflects:
        maps += [tuple((shift - i) % n for i in range(n)) for shift in range(n)]
    return maps


def cycle_lengths(perm: tuple[int, ...]) -> list[int]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return out


def orbit_count(n: int, k: int, reflects: bool, twisted: bool) -> int:
    """Class count via the fixed-point average (Cauchy-Frobenius)."""
    swap_fixed = k % 2  # letters with swap(x) == x
    total = 0
    elements = 0
    for perm in position_maps(n, reflects):
        cycles = cycle_lengths(perm)
        total += k ** len(cycles)
        elements += 1
        if twisted:
            fixed = 1
            for length in cycles:
                fixed *= k if length % 2 == 0 else swap_fixed
            total += fixed
            elements += 1
    classes, remainder = divmod(total, elements)
    assert remainder == 0, "fixed-point sum must divide by the group order"
    return classes


def primitive_period(word: tuple[int, ...]) -> int:
    n = len(word)
    for d in range(1, n + 1):
        if n % d == 0 and word == word[d:] + word[:d]:
            return d
    return n


def class_count(
    n: int, k: int, reflects: bool, twisted: bool, aperiodic_only: bool = False
) -> int:
    """Class count by exhaustive enumeration and orbit marking."""
    swap = swap_map(k)
    maps = position_maps(n, reflects)
    seen: set[tuple[int, ...]] = set()
    count = 0
    for word in itertools.product(range(k), repeat=n):
        if word in seen:
            continue
        if aperiodic_only and primitive_period(word) != n:
            continue
        count += 1
        for perm in maps:
            image = tuple(word[perm[i]] for i in range(n))
            seen.add(image)
            if twisted:
                seen.add(tuple(swap[x] for x in image))
    return count


# Region heights of words whose states keep two values x and y. On the
# 2-cycle a state (x, y) is stationary where 2d(y - x) + f(x) = 0 and
# 2d(x - y) + f(y) = 0; on the 3-cycle a state (x, x, y) of a word xxy
# where d(y - x) + f(x) = 0 and 2d(x - y) + f(y) = 0. Both are the curve
# m f(x) + f(y) = 0 (m = 1 and 2) with d = m f(x) / (2(x - y)).


def _cubic(s, a):
    return s * (1.0 - s) * (s - a)


def _cubic_slope(s, a):
    return (-3.0 * s + 2.0 * (1.0 + a)) * s - a


def _divided_difference(x, y, a):
    """(f(x) - f(y)) / (x - y) for the cubic f, written as a polynomial, and
    its gradient in (x, y)."""
    q = -(x * x + x * y + y * y) + (1.0 + a) * (x + y) - a
    return q, 1.0 + a - 2.0 * x - y, 1.0 + a - x - 2.0 * y


def _tangent(m, x, y, a, ox, oy):
    """Unit tangent of m f(x) + f(y) = 0 at (x, y), on the side of (ox, oy)."""
    tx, ty = _cubic_slope(y, a), -m * _cubic_slope(x, a)
    scale = np.where(tx * ox + ty * oy < 0.0, -1.0, 1.0) / np.hypot(tx, ty)
    return scale * tx, scale * ty


def _project(m, px, py, a):
    """Newton from (px, py) onto m f(x) + f(y) = 0 along the normal there;
    returns the point and how far it moved (inf where it missed the curve)."""
    nx, ny = m * _cubic_slope(px, a), _cubic_slope(py, a)
    norm = np.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    sigma = np.zeros_like(px)
    for _ in range(12):
        qx, qy = px + sigma * nx, py + sigma * ny
        slope = m * _cubic_slope(qx, a) * nx + _cubic_slope(qy, a) * ny
        sigma = sigma - (m * _cubic(qx, a) + _cubic(qy, a)) / slope
    qx, qy = px + sigma * nx, py + sigma * ny
    on_curve = np.abs(m * _cubic(qx, a) + _cubic(qy, a)) <= 1e-14
    return qx, qy, np.where(on_curve, np.abs(sigma), np.inf)


def _passed(x, y, a, tx, ty, side):
    """Whether d has stopped growing along (tx, ty), or x - y changed sign."""
    _, qx, qy = _divided_difference(x, y, a)
    return (qx * tx + qy * ty <= 0.0) | (np.sign(x - y) != side)


def _curve_height(m: int, x0, y0, a) -> tuple[np.ndarray, np.ndarray]:
    """Trace m f(x) + f(y) = 0 from (x0, y0) at every threshold of a.

    On the curve m f(x) = -f(y), so d = m f(x) / (2(x - y)) equals
    m/(2(1 + m)) times the divided difference f[x, y], a polynomial that
    stays exact where the curve crosses x = y. From the decoupled state
    (d = 0) the trace follows arclength in the direction where d grows:
    a tangent predictor and a Newton projection along the normal. The
    step starts at 1 % of min(a, 1 - a), doubles after each accepted step
    up to 0.01, and halves while the projection fails, moves more than
    half a step or turns the tangent by more than 0.2 rad. Returns
    (height, crossed): d at the first maximum of d, or at the first
    crossing of x = y if that comes first, located by 60 bisections of
    the step in which it happens; crossed holds where the end lies on
    x = y (for m = 1 the curve is symmetric about x = y, so d peaks
    there too).
    """
    a = np.asarray(a, dtype=float)
    x = np.broadcast_to(x0, a.shape).astype(float)
    y = np.broadcast_to(y0, a.shape).astype(float)
    # orient along the gradient of f[x, y], so that d grows
    tx, ty = _tangent(m, x, y, a, *_divided_difference(x, y, a)[1:])
    side = np.sign(x - y)
    h = 0.01 * np.minimum(a, 1.0 - a)
    live = np.arange(a.size)
    while live.size:
        r = live
        qx, qy, moved = _project(m, x[r] + h[r] * tx[r], y[r] + h[r] * ty[r], a[r])
        ntx, nty = _tangent(m, qx, qy, a[r], tx[r], ty[r])
        ok = (moved <= 0.5 * h[r]) & (ntx * tx[r] + nty * ty[r] >= np.cos(0.2))
        h[r[~ok]] *= 0.5
        if (h[r] < 1e-12).any():
            raise RuntimeError("the curve trace cannot take a step")
        hit = ok & _passed(qx, qy, a[r], ntx, nty, side[r])
        s = r[ok & ~hit]
        x[s], y[s] = qx[ok & ~hit], qy[ok & ~hit]
        tx[s], ty[s] = ntx[ok & ~hit], nty[ok & ~hit]
        h[s] = np.minimum(2.0 * h[s], 0.01)
        live = r[~hit]
    # every trace stopped one step short of its end; bisect that step
    lo, hi = np.zeros(a.size), h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        mx, my, _ = _project(m, x + mid * tx, y + mid * ty, a)
        beyond = _passed(mx, my, a, *_tangent(m, mx, my, a, tx, ty), side)
        lo, hi = np.where(beyond, lo, mid), np.where(beyond, mid, hi)
    ex, ey, _ = _project(m, x + hi * tx, y + hi * ty, a)
    height = m / (2.0 * (1.0 + m)) * _divided_difference(ex, ey, a)[0]
    crossed = np.abs(ex - ey) <= 1e-9
    return height, crossed


def _letter_value(letter: str, a):
    return {"0": 0.0, "a": a, "1": 1.0}[letter]


def two_cell_height(word: str, a) -> tuple[np.ndarray, np.ndarray]:
    """Region height of the two-letter word xy at thresholds a: the curve
    f(x) + f(y) = 0 with d = f(x) / (2(x - y)). Returns (height, crossed)."""
    x, y = word
    return _curve_height(1, _letter_value(x, a), _letter_value(y, a), a)


def xxy_height(word: str, a) -> tuple[np.ndarray, np.ndarray]:
    """Region height of the three-letter word xxy at thresholds a: the
    curve 2f(x) + f(y) = 0 with d = f(x) / (x - y). Returns (height,
    crossed)."""
    x, x2, y = word
    if x != x2:
        raise ValueError(f"{word} is not of the form xxy")
    return _curve_height(2, _letter_value(x, a), _letter_value(y, a), a)
