"""Stationary states of the Nagumo equation on an n-cycle.

The system solved here is

    0 = d * (u[i-1] - 2 u[i] + u[i+1]) + f(u[i]; a),   i mod n,

with the bistable cubic f(s; a) = s (1 - s) (s - a), 0 < a < 1, and
coupling strength d >= 0. Indices wrap, so for n = 2 each vertex sees its
single neighbour twice and the effective coupling is 2d(u[j] - u[i]);
the wraparound arithmetic produces that doubled edge on its own.

At d = 0 the sites decouple and every assignment of the roots {0, a, 1}
is an equilibrium, named by a word over {0, a, 1}. solve_type() follows
the branch rooted at a word from d = 0 to a requested d by natural
continuation: no fancy arclength, just steps in d, each corrected by
Newton. A rejected step halves; two accepted steps in a row double it
again, never beyond the first step. The branch ends at a fold, where
Newton stops converging to anything nearby; solve_type then raises
NotInRegion carrying the depth reached. Two subtleties guard the march.
The Jacobian determinant may cross zero at an interior point of a
perfectly healthy branch (a secondary bifurcation sits on it, which
happens for the two-site pattern 01 at a = 1/2); the march steps across
such crossings, and the det_sign recorded on the returned equilibrium is
the sign at the requested d: -1 or 1, or 0 for a constant word whose d
meets a zero eigenvalue f'(c) - d*mu_k of its state (aa at a = 1/2,
d = 1/16), a state that exists. And no Newton iterate may stray far from
its step's start or draw together onto a surviving constant state, and a
correction stops once its residual grows (_newton_core). A constant
word (no spread at d = 0) has an exact branch and is never marched.

One march (_march) serves solve_type, a batch of one capped at the
requested d, and every height measurement of the regions module, so all
of them stop by one rule: a ray ends when it reaches its cap or when its
step falls below _D_STEP_MIN, and the last d it accepted is how far the
branch reaches. The march moves a stack of branches in lockstep, one row
per (word, a) ray, through one Newton correction per round, and each ray
keeps its own step. The correction iterates on a sites-major (n, B) copy,
rays along the contiguous axis, and every row still takes exactly the
iterations it would take alone (batched LAPACK factors each matrix on its
own), so a ray ends where it would end alone. It checks its rays once,
first, and measures det J by one slogdet per accepted state and one at
each ray's start. A batch of one of the last single ray's (word, a)
jumps through its recorded rounds to the first one its cap attempts
differently (_march): a query after d_max corrects little, and answers
as a fresh march would.

Stability is decided twice at every accepted equilibrium: from the
letters (a word is stable iff it avoids the middle root a) and from the
Jacobian spectrum (symmetric, so eigvalsh). Disagreement raises
StabilityMismatch rather than silently trusting either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .words import MID, ONE, ZERO, Word

# a Newton iterate further than this from the state its step started from
# ends the step; near a fold the corrector would wander onto a sibling branch
_MAX_CORRECTOR_JUMP = 0.25
# a heterogeneous word's Newton iterate spread closer than this (or than half
# its d = 0 spread, for small thresholds) is sliding onto a constant state;
# this stops such a ray early, by as much as regions.d_max states
_HOMOG_SPREAD = 1e-3
# Newton's residual max-norm tolerance. Near a fold the residual is flat in
# u, so a much looser one accepts points on no branch, past the fold
_NEWTON_TOL = 1e-12
_MAX_NEWTON_ITERS = 25
# a ray's first and largest step in d; a rejected step halves, and a ray
# whose step falls below _D_STEP_MIN ends at its last accepted d
_D_STEP_INIT = 1e-3
_D_STEP_MIN = 1e-10
# a marching ray's step doubles after this many accepted attempts in a row
_REGROW_AFTER = 2


class SolveError(Exception):
    """Base class for solver failures."""


class StabilityMismatch(SolveError):
    pass


class NotInRegion(SolveError):
    """The branch of the requested pattern ends before the requested d."""

    def __init__(self, word: Word, params: "Params", d_reached: float):
        super().__init__(
            f"pattern {word} at a={params.a} stops near d={d_reached:.6g}, "
            f"short of requested d={params.d:.6g}"
        )
        self.word = word
        self.params = params
        self.d_reached = d_reached


@dataclass(frozen=True)
class Params:
    """Nonlinearity threshold a and coupling strength d."""

    a: float
    d: float

    def __post_init__(self):
        if not (0.0 < self.a < 1.0) or not math.isfinite(self.a):
            raise ValueError(f"threshold a must lie strictly in (0, 1), got {self.a}")
        if self.d < 0.0 or not math.isfinite(self.d):
            raise ValueError(f"coupling d must be finite and >= 0, got {self.d}")


@dataclass(eq=False)
class Equilibrium:
    word: Word
    u: np.ndarray
    params: Params
    det_sign: int
    stable: bool
    residual_norm: float


def cubic(s, a: float):
    """Bistable nonlinearity s(1-s)(s-a); roots 0 and 1 stable, a unstable."""
    return s * (1.0 - s) * (s - a)


def cubic_deriv(s, a: float):
    """d/ds of cubic(s, a)."""
    return (-3.0 * s + 2.0 * (1.0 + a)) * s - a


def _as_state(u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise ValueError("state must be a 1-d array with at least two sites")
    return u


@lru_cache(maxsize=None)
def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the left and right neighbours of the n-cycle's sites."""
    idx = np.arange(n)
    return (idx - 1) % n, (idx + 1) % n


@lru_cache(maxsize=None)
def _adjacency(n: int) -> np.ndarray:
    """Read-only adjacency matrix of the n-cycle: one per incident edge, so
    the n = 2 cycle (a doubled edge) holds 2 off the diagonal."""
    A = np.roll(np.eye(n), 1, axis=1) + np.roll(np.eye(n), -1, axis=1)
    A.flags.writeable = False
    return A


def _residuals(u: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """residual() of each column of the sites-major (n, B) stack u at a[k], d[k]."""
    left, right = _neighbours(len(u))
    return d * (u[left] - 2.0 * u + u[right]) + cubic(u, a)


def _jacobians(u: np.ndarray, a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """jacobian() of each column of the sites-major (n, B) stack u, as a
    (B, n, n) stack: d times the cycle's adjacency, diagonal f'(u) - 2d."""
    n = len(u)
    J = d[:, None, None] * _adjacency(n)
    J.reshape(-1, n * n)[:, :: n + 1] = (cubic_deriv(u, a) - 2.0 * d).T
    return J


def residual(u, p: Params) -> np.ndarray:
    """Right-hand side of the stationary system at state u."""
    return _residuals(_as_state(u)[:, None], np.array([p.a]), np.array([p.d]))[:, 0]


def jacobian(u, p: Params) -> np.ndarray:
    """Derivative of residual(); cyclic tridiagonal and symmetric."""
    return _jacobians(_as_state(u)[:, None], np.array([p.a]), np.array([p.d]))[0]


def _decoupled_states(words: list[Word], a: np.ndarray) -> np.ndarray:
    """decoupled_state() of each (words[k], a[k]), as a (B, n) stack."""
    roots = np.empty((len(words), 3))
    roots[:, ZERO], roots[:, MID], roots[:, ONE] = 0.0, a, 1.0
    return np.take_along_axis(roots, np.array([w.letters for w in words]), axis=1)


def decoupled_state(word: Word, a: float) -> np.ndarray:
    """The exact d = 0 equilibrium named by the word: 0 -> 0, a -> a, 1 -> 1."""
    return _decoupled_states([word], np.array([float(a)]))[0]


def _solve_rows(J: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve J[k] x[k] = rhs[k] for every k; returns (x, singular mask)."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], np.zeros(len(J), bool)
    except np.linalg.LinAlgError:
        # slogdet runs the same LAPACK getrf as solve, so it flags the same
        # exact zero pivots; the other rows are solved in one batch
        singular = np.linalg.slogdet(J)[0] == 0.0
    x = np.zeros_like(rhs)
    x[~singular] = np.linalg.solve(J[~singular], rhs[~singular, :, None])[:, :, 0]
    return x, singular


def _newton_core(
    u: np.ndarray, a: np.ndarray, d: np.ndarray, capture: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration from each row of the (B, n) stack u at a[k], d[k].

    Returns (roots, converged): where converged[k] holds, the residual
    max-norm of roots[k] is within _NEWTON_TOL. A row stops unconverged
    at a singular Jacobian, at an iterate further than _MAX_CORRECTOR_JUMP
    from u[k] (a hop towards a sibling branch) or spread less than
    capture[k] (a slide onto the constant state that survives where a
    branch ends against it, "converging" forever after), where an update
    after the first leaves a larger residual max-norm than the update
    before (a monotonicity test, Deuflhard 2004: near a fold such a
    correction fails slowly or wanders onto a sibling branch), and after
    _MAX_NEWTON_ITERS updates. It iterates on a sites-major (n, B) copy of u,
    so its reductions run along the contiguous axis. A row leaves as soon as
    it converges or stops, so it still takes exactly the iterations it
    would take alone.
    """
    roots, converged = np.empty_like(u), np.zeros(len(u), bool)
    u = start = np.ascontiguousarray(u.T)
    rows, stop = np.arange(len(roots)), np.zeros(len(roots), bool)
    for it in range(_MAX_NEWTON_ITERS + 1):
        r = _residuals(u, a, d)
        norm = np.abs(r).max(axis=0)
        if it >= 2:
            stop |= norm > last
        done = (norm <= _NEWTON_TOL) & ~stop
        converged[rows[done]] = True
        out = done | stop | (it == _MAX_NEWTON_ITERS)
        if out.any():
            roots[rows[out]] = u[:, out].T
            keep = np.flatnonzero(~out)
            u, start, r = u[:, keep], start[:, keep], r[:, keep]
            a, d, capture, rows, norm = (x[keep] for x in (a, d, capture, rows, norm))
        if not rows.size:
            break
        last = norm
        du, singular = _solve_rows(_jacobians(u, a, d), -r.T)
        u = u + du.T
        stop = singular | (np.abs(u - start).max(axis=0) > _MAX_CORRECTOR_JUMP)
        stop |= u.max(axis=0) - u.min(axis=0) < capture
    return roots, converged


def _build_equilibrium(
    word: Word, u: np.ndarray, p: Params, sign: float, det_flip_seen: bool
) -> Equilibrium:
    """Assemble an Equilibrium at state u, where det J has sign; check stability.

    The stable flag always reports the spectrum. The letters predict it
    too (a word is stable iff it avoids the middle root), but only while
    no Jacobian eigenvalue has crossed zero since d = 0. A continuation
    that watched the determinant change sign between accepted steps has
    witnessed such a crossing and passes det_flip_seen; the spectrum then
    simply wins. Without that witness a disagreement means the state does
    not belong to the claimed pattern, which is an error.
    """
    rmax = float(np.max(np.abs(residual(u, p))))
    eigs = np.linalg.eigvalsh(jacobian(u, p))
    eig_stable = bool(eigs[-1] < 0.0)
    if not det_flip_seen:
        word_stable = MID not in word.letters
        if word_stable != eig_stable:
            raise StabilityMismatch(
                f"letters of {word} predict stable={word_stable} but the "
                f"spectrum says stable={eig_stable} at a={p.a}, d={p.d}, "
                f"with no determinant sign change to account for it"
            )
    return Equilibrium(
        word=word,
        u=u,
        params=p,
        det_sign=int(sign),
        stable=eig_stable,
        residual_norm=rmax,
    )


class _Branches(NamedTuple):
    """The state of every ray of a march, before a round or where it ended."""

    d: np.ndarray  # last accepted d
    u: np.ndarray  # (B, n) states there
    sign: np.ndarray  # sign of det J there
    logdet: np.ndarray  # log|det J| there
    logdet0: np.ndarray  # log|det J| where the ray started
    flipped: np.ndarray  # whether det J changed sign between accepted steps
    step: np.ndarray  # the next step in d
    streak: np.ndarray  # accepted attempts in a row since the step last changed


def _start(
    words: list[Word], a: np.ndarray, d_cap: float
) -> tuple[_Branches, np.ndarray, np.ndarray]:
    """Where the rays of the words at thresholds a begin, det J measured: at
    d = 0, or at d_cap for a constant word (no spread at d = 0), exact and
    never marched. Also returns each ray's capture spread for _newton_core,
    min(_HOMOG_SPREAD, half its d = 0 spread), and the constant words' mask.
    """
    u = _decoupled_states(words, a)
    spread = u.max(axis=1) - u.min(axis=1)
    constant = spread == 0.0
    capture = np.minimum(_HOMOG_SPREAD, 0.5 * spread)
    d = np.where(constant, d_cap, 0.0)
    sign, logdet0 = np.linalg.slogdet(_jacobians(u.T, a, d))
    rays = _Branches(
        d, u, sign, logdet0.copy(), logdet0,
        np.zeros_like(d, bool), np.full_like(d, _D_STEP_INIT), np.zeros_like(d, int),
    )
    return rays, capture, constant


def _round(
    rays: _Branches, live: np.ndarray, a: np.ndarray, capture: np.ndarray, d_cap: float
) -> None:
    """Attempt one step on each live ray, in place.

    A step is rejected where _newton_core stops its row or det J is exactly
    singular there, found by one batched slogdet over the converged rows. A
    rejected step halves; _REGROW_AFTER accepted ones in a row double it,
    never beyond _D_STEP_INIT. A ray's new state depends only on its state
    and its attempt, so _march may jump over recorded rounds.
    """
    d_try = np.minimum(rays.d[live] + rays.step[live], d_cap)
    u_new, ok = _newton_core(rays.u[live], a[live], d_try, capture[live])
    sign_new, logdet_new = np.zeros((2, live.size))
    J = _jacobians(u_new[ok].T, a[live[ok]], d_try[ok])
    sign_new[ok], logdet_new[ok] = np.linalg.slogdet(J)
    accepted = sign_new != 0.0
    won, lost = live[accepted], live[~accepted]
    rays.u[won] = u_new[accepted]
    rays.flipped[won] |= sign_new[accepted] != rays.sign[won]
    rays.sign[won] = sign_new[accepted]
    rays.logdet[won] = logdet_new[accepted]
    rays.d[won] = d_try[accepted]
    rays.streak[won] += 1
    rays.streak[lost] = 0
    grow = won[rays.streak[won] == _REGROW_AFTER]
    rays.step[grow] = np.minimum(2.0 * rays.step[grow], _D_STEP_INIT)
    rays.streak[grow] = 0
    rays.step[lost] *= 0.5


# ((word, a), d_cap, record) of the last single-ray march: the record stacks
# the ray's round-start states and its end. Replaced whole, never mutated
_last_ray = (None, 0.0, None)


def _march(words: list[Word], a: np.ndarray, d_cap: float) -> _Branches:
    """Continue the branch of every (words[k], a[k]) ray upward in d.

    A ray ends when it reaches d_cap or when its step falls below
    _D_STEP_MIN, always correcting from its last accepted state (_round); a
    constant word's ray starts at d_cap (_start). A threshold outside (0, 1),
    a word of one letter or words of two lengths raise ValueError first.

    A batch of one of the last single ray's (word, a) starts from its record.
    A round's outcome depends only on its starting state and its attempt, so
    a recorded round is reused exactly when both caps clip its attempt
    alike: the ray jumps to the first round they clip differently (to the
    end, if none does) and marches on from there. Every answer is bitwise
    what a fresh march gives. Another (word, a), or a larger cap, replaces
    the record; constant words bypass it.
    """
    global _last_ray
    bad = ~((0.0 < a) & (a < 1.0))
    if bad.any():
        raise ValueError(f"threshold a must lie strictly in (0, 1), got {a[bad][0]}")
    lengths = {len(word) for word in words}
    if min(lengths) < 2:
        raise ValueError("dynamics need words of length at least 2")
    if len(lengths) > 1:
        raise ValueError("the words of one batch must share a length")
    key, rec_cap, rec = _last_ray  # read once: another thread may replace it
    rays, capture, constant = _start(words, a, d_cap)
    solo = len(words) == 1 and not constant[0]
    same = solo and key == (words[0], a[0])
    keep = solo and (not same or d_cap > rec_cap)
    states = [[] for _ in rays]  # round-start states and the end, by field
    if same:
        attempt = rec.d[:-1] + rec.step[:-1]
        clip = np.minimum(attempt, d_cap) != np.minimum(attempt, rec_cap)
        j = int(np.argmax(clip)) if clip.any() else clip.size
        states = [list(x[:j]) for x in rec]
        rays = _Branches(*(x[j : j + 1].copy() for x in rec))
    while True:
        if keep:
            for h, x in zip(states, rays):
                h.append(x[0].copy())
        live = np.flatnonzero((rays.d < d_cap) & (rays.step >= _D_STEP_MIN))
        if not live.size:
            break
        _round(rays, live, a, capture, d_cap)
    if keep:
        _last_ray = ((words[0], a[0]), d_cap, _Branches(*map(np.array, states)))
    return rays


def solve_type(word: Word, p: Params) -> Equilibrium:
    """Equilibrium of the type named by the word, at parameters p.

    Continues the branch rooted at the exact d = 0 state of the word,
    correcting each step until the residual max-norm is within _NEWTON_TOL.
    Raises NotInRegion if the branch folds before p.d.
    """
    end = _march([word], np.array([p.a]), p.d)
    if end.d[0] < p.d:
        raise NotInRegion(word, p, d_reached=float(end.d[0]))
    return _build_equilibrium(word, end.u[0], p, end.sign[0], bool(end.flipped[0]))


def lde_residual_check(eq: Equilibrium, window_periods: int = 3) -> float:
    """Max residual of the infinite periodic extension over a window.

    Repeating the cycle state n-periodically gives a candidate stationary
    state of the doubly infinite chain with the same a and d; by
    periodicity, checking window_periods copies with wraparound neighbours
    is exact. Returns the max-norm residual over the window.
    """
    if window_periods < 1:
        raise ValueError("window must cover at least one period")
    r = residual(np.tile(eq.u, window_periods), eq.params)
    return float(np.max(np.abs(r)))
