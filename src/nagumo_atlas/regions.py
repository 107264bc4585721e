"""Existence regions: how far in the coupling d a pattern survives.

Each pattern (word) exists on a parameter set that contains a vertical
segment {a} x [0, d_max(a)) for every threshold a it exists at when
decoupled. d_max() measures that height by continuation from d = 0 with
gde._march, whose rounds (gde._round) hold the step control: the height
is the last d the march accepts before its step falls below the floor.
solve_type marches by the same rule to the requested d, and rounds two
calls on a pattern share are not recomputed. Solving to d_max's cap takes
d_max's steps, so NotInRegion.d_reached is d_max; a lower cap clips a
step and changes the rest. membership() compares p.d with the height, so
it holds exactly up to d_max.

A batch of (word, a) rays, whose words share a length, is marched in
lockstep, and a ray ends exactly where it would end alone. d_max is a
batch of one; scan_region and verify_region_symmetries submit whole grids.

The terminal tag says why the march stopped:

* DMAX_CAP    - reached the requested cap, still alive;
* FOLD        - the Jacobian determinant collapsed on the way to the last
                accepted point (the branch turns around; certificate =
                ratio of |det J| there against its value where the ray
                started, at most DET_GUARD);
* STEP_FLOOR  - the march died without det collapse (a solver artifact,
                not a certified fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import gde
from .gde import Params
from .words import Word, permute_values, reflect, rotate

DEFAULT_D_CAP = 0.5
# |det J| relative to its d = 0 value at or below which a ray's end counts
# as a fold; multiple eigenvalues can vanish together at symmetric folds,
# so this is a declaration level, not a rejection floor
DET_GUARD = 1e-2


class Terminal(Enum):
    FOLD = "fold"
    DMAX_CAP = "dmax_cap"
    STEP_FLOOR = "step_floor"


@dataclass(frozen=True)
class BoundarySample:
    a: float
    d_max: float
    terminal: Terminal
    det_ratio: float


@dataclass
class RegionBoundary:
    word: Word
    d_cap: float
    samples: list[BoundarySample]


def _march(rays: Sequence[tuple[Word, float]], d_cap: float) -> list[BoundarySample]:
    """Measure the region height along every (word, a) ray of the batch."""
    if not rays:
        raise ValueError("the threshold grid is empty")
    if d_cap <= 0 or not math.isfinite(d_cap):
        raise ValueError(f"d_cap must be finite and positive, got {d_cap}")
    end = gde._march([word for word, _ in rays], np.array([a for _, a in rays]), d_cap)
    samples = []
    for k, (_, a_k) in enumerate(rays):
        logdet, logdet0 = float(end.logdet[k]), float(end.logdet0[k])
        # a constant word's ray stays at its start, where det J may vanish
        ratio = 1.0 if logdet == logdet0 else math.exp(logdet - logdet0)
        if end.d[k] >= d_cap:
            terminal = Terminal.DMAX_CAP
        elif ratio <= DET_GUARD:
            terminal = Terminal.FOLD
        else:
            terminal = Terminal.STEP_FLOOR
        samples.append(BoundarySample(a_k, float(end.d[k]), terminal, ratio))
    return samples


def d_max(word: Word, a: float, d_cap: float = DEFAULT_D_CAP) -> tuple[float, Terminal]:
    """Height of the existence region of the pattern above threshold a.

    Returns (d_max, terminal). The height is the last d the march accepts
    before its step falls below the floor, not the branch's end itself.
    Over a = k/200 it is within 2.3e-10 of the two- and three-cell folds
    at every threshold. Where a branch merges into a more symmetric one
    the march goes on along that one and over-claims: 0a1 at a = 0.475
    gives 0.0832, past where it joins aa1's branch near 0.0671. Where a
    branch meets the constant-a state (01 at a = 1/2, 0a at a(1-a)/4,
    aa0 at a(1-a)/3) it falls short by 6e-8 to 1.4e-4: the capture
    spread stops 0a 2.5e-5, 00aa 5.0e-5 and aa0 1.4e-4 early at
    a = 0.005.
    """
    (sample,) = _march([(word, a)], d_cap)
    return sample.d_max, sample.terminal


def membership(word: Word, p: Params) -> bool:
    """Whether p lies in the pattern's region: p.d at most the height above
    p.a, measured up to DEFAULT_D_CAP or to p.d where that is higher."""
    return p.d <= d_max(word, p.a, max(p.d, DEFAULT_D_CAP))[0]


def scan_region(
    word: Word,
    a_grid: Sequence[float],
    d_cap: float = DEFAULT_D_CAP,
    workers: Optional[int] = None,
) -> RegionBoundary:
    """Trace d_max over a strictly increasing grid of thresholds.

    The grid is marched as one batch in this process; workers may only be
    None or 1.
    """
    grid = [float(a) for a in a_grid]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("the threshold grid must be strictly increasing")
    if workers not in (None, 1):
        raise ValueError(f"scan_region runs in one process, got workers={workers}")
    samples = _march([(word, a) for a in grid], d_cap)
    return RegionBoundary(word=word, d_cap=d_cap, samples=samples)


@dataclass
class SymmetryReport:
    """Largest |d_max difference| seen for each generator of the symmetries."""

    word: Word
    rotation_dev: float
    reflection_dev: float
    mirror_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.rotation_dev, self.reflection_dev, self.mirror_dev)


def verify_region_symmetries(word: Word, a_grid: Sequence[float]) -> SymmetryReport:
    """Check that region height is blind to rotation and reflection of the
    word, and maps a -> 1-a under the value swap."""
    grid = [float(a) for a in a_grid]
    rays = [(w, a) for w in (word, rotate(word), reflect(word)) for a in grid]
    rays += [(permute_values(word), 1.0 - a) for a in grid]
    heights = [s.d_max for s in _march(rays, DEFAULT_D_CAP)]
    base, rot, refl, mir = np.array(heights).reshape(4, len(grid))

    def dev(other):
        return float(np.max(np.abs(other - base), initial=0.0))

    return SymmetryReport(
        word=word,
        rotation_dev=dev(rot),
        reflection_dev=dev(refl),
        mirror_dev=dev(mir),
    )
