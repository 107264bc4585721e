import math
import random

import numpy as np
import pytest

from nagumo_atlas import gde
from nagumo_atlas.gde import (
    NotInRegion,
    Params,
    StabilityMismatch,
    cubic,
    cubic_deriv,
    decoupled_state,
    jacobian,
    lde_residual_check,
    residual,
    solve_type,
)
from nagumo_atlas.regions import Terminal, d_max, membership, scan_region
from nagumo_atlas.words import Word, permute_values, reflect, rotate


def w(text):
    return Word.parse(text)


def test_cubic_roots_and_value():
    assert cubic(0.0, 0.3) == 0.0
    assert cubic(1.0, 0.3) == 0.0
    assert cubic(0.5, 0.5) == 0.0
    assert cubic(0.5, 0.25) == pytest.approx(0.0625, abs=1e-15)


def test_cubic_deriv_examples():
    assert cubic_deriv(0.0, 0.3) == pytest.approx(-0.3, abs=1e-15)
    assert cubic_deriv(1.0, 0.3) == pytest.approx(-0.7, abs=1e-15)
    assert cubic_deriv(0.3, 0.3) == pytest.approx(0.21, abs=1e-15)


def test_cubic_deriv_matches_finite_difference():
    rng = random.Random(3)
    h = 1e-6
    for _ in range(50):
        s = rng.uniform(-0.5, 1.5)
        a = rng.uniform(0.1, 0.9)
        fd = (cubic(s + h, a) - cubic(s - h, a)) / (2 * h)
        assert cubic_deriv(s, a) == pytest.approx(fd, abs=1e-8)


def test_residual_exact_roots():
    p = Params(0.3, 0.17)
    assert np.all(residual(np.zeros(5), p) == 0.0)
    assert np.all(residual(np.full(4, 0.3), p) == 0.0)
    assert np.all(residual(np.ones(3), p) == 0.0)


def test_residual_two_site_doubled_edge():
    h = residual(np.array([0.0, 1.0]), Params(0.5, 0.1))
    assert h == pytest.approx([0.2, -0.2], abs=1e-15)


def test_jacobian_diagonal_at_zero_coupling():
    u = decoupled_state(w("0a1"), 0.4)
    J = jacobian(u, Params(0.4, 0.0))
    assert J == pytest.approx(np.diag([-0.4, 0.24, -0.6]), abs=1e-15)


def test_jacobian_symmetric_with_doubled_edge():
    J = jacobian(np.array([0.1, 0.8]), Params(0.3, 0.07))
    assert J[0, 1] == pytest.approx(0.14, abs=1e-15)
    assert np.array_equal(J, J.T)


def test_jacobian_row_sums_cancel_coupling():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8):
        u = rng.uniform(0.0, 1.0, size=n)
        p = Params(0.35, 0.12)
        rows = jacobian(u, p).sum(axis=1)
        assert rows == pytest.approx(cubic_deriv(u, p.a), abs=1e-14)


def test_jacobian_matches_finite_difference():
    rng = np.random.default_rng(9)
    p = Params(0.45, 0.08)
    u = rng.uniform(0.0, 1.0, size=5)
    J = jacobian(u, p)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        col = (residual(u + e, p) - residual(u - e, p)) / (2 * h)
        assert J[:, j] == pytest.approx(col, abs=1e-8)


def test_residual_and_jacobian_are_their_defining_formulas():
    # the batched kernels must compute exactly the textbook formulas, site
    # by site, with the n = 2 cycle's doubled edge in the adjacency
    rng = np.random.default_rng(2707)
    for n in range(2, 9):
        A = np.zeros((n, n))
        for i in range(n):
            A[i, (i - 1) % n] += 1.0
            A[i, (i + 1) % n] += 1.0
        for _ in range(6):
            u = rng.uniform(-0.2, 1.2, size=n)
            p = Params(rng.uniform(0.05, 0.95), rng.uniform(0.0, 0.3))
            J = np.diag(cubic_deriv(u, p.a) - 2.0 * p.d) + p.d * A
            h = [
                p.d * (u[i - 1] - 2.0 * u[i] + u[(i + 1) % n]) + cubic(u[i], p.a)
                for i in range(n)
            ]
            assert jacobian(u, p) == pytest.approx(J, rel=0, abs=0)
            assert residual(u, p) == pytest.approx(h, rel=0, abs=0)


def test_decoupled_state_letters():
    u = decoupled_state(w("0a1"), 0.4)
    assert u == pytest.approx([0.0, 0.4, 1.0], abs=0.0)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0.0, 0.1)
    with pytest.raises(ValueError):
        Params(1.0, 0.1)
    with pytest.raises(ValueError):
        Params(0.5, -0.01)
    assert Params(0.5, 0.0).d == 0.0


def test_newton_stops_a_row_that_jumps_from_its_start():
    # near the critical point of the cubic the Newton step is enormous; the
    # row stops unconverged far from its start while its neighbour converges
    roots, converged = gde._newton_core(
        np.array([[0.79, 0.79], [0.02, 0.97]]),
        np.array([0.5, 0.5]),
        np.zeros(2),
        np.zeros(2),
    )
    assert converged.tolist() == [False, True]
    assert np.abs(roots[0] - 0.5).max() > 1.0
    assert roots[1] == pytest.approx([0.0, 1.0], abs=1e-12)


def _plain_newton(u, p):
    """Newton from u at p with none of the package's stopping rules, to
    convergence or _MAX_NEWTON_ITERS updates: its iterates and their
    residual max-norms."""
    iterates, norms = [u], [np.abs(residual(u, p)).max()]
    while norms[-1] > gde._NEWTON_TOL and len(norms) <= gde._MAX_NEWTON_ITERS:
        u = u - np.linalg.solve(jacobian(u, p), residual(u, p))
        iterates.append(u)
        norms.append(np.abs(residual(u, p)).max())
    return iterates, norms


# a 01 step at a = 0.49 just past the last accepted state below its fold at
# 0.0372446
_STRAY = np.array([0.23484711597266725, 0.8504047963355621])
_STRAY_P = Params(0.49, 0.03724609375000002)


def test_newton_stops_a_row_that_strays_towards_a_sibling_branch(monkeypatch):
    # left unguarded, the iterates pass 0.25 from the start and converge
    # onto another branch; the residual grows at the second update already,
    # which stops the row with or without the jump limit
    iterates, norms = _plain_newton(_STRAY, _STRAY_P)
    assert norms[-1] <= gde._NEWTON_TOL
    assert iterates[-1] == pytest.approx([0.1296, 0.6755], abs=1e-4)
    assert max(np.abs(x - _STRAY).max() for x in iterates) > gde._MAX_CORRECTOR_JUMP
    assert norms[2] > norms[1]
    rows = (_STRAY[None], np.array([_STRAY_P.a]), np.array([_STRAY_P.d]), np.array([1e-3]))
    for jump in (gde._MAX_CORRECTOR_JUMP, np.inf):
        monkeypatch.setattr(gde, "_MAX_CORRECTOR_JUMP", jump)
        roots, converged = gde._newton_core(*rows)
        assert not converged[0]
        assert roots[0] == pytest.approx(iterates[2], abs=1e-12)


def test_newton_stops_a_row_whose_residual_grows_from_the_second_update_on():
    # from [0.12, 1] at a = 1/2, d = 0 the first update overshoots and the
    # residual grows, then it falls at every update to the root [0, 1]; the
    # 01 row above grows at its second update and stops there
    overshoot = np.array([0.12, 1.0])
    _, norms = _plain_newton(overshoot, Params(0.5, 0.0))
    assert norms[1] > norms[0]
    assert (np.diff(norms[1:]) < 0).all()
    stray, _ = _plain_newton(_STRAY, _STRAY_P)
    roots, converged = gde._newton_core(
        np.array([overshoot, _STRAY]),
        np.array([0.5, _STRAY_P.a]),
        np.array([0.0, _STRAY_P.d]),
        np.full(2, 1e-3),
    )
    assert converged.tolist() == [True, False]
    assert roots[0] == pytest.approx([0.0, 1.0], abs=1e-12)
    assert roots[1] == pytest.approx(stray[2], abs=1e-12)


def test_newton_stops_a_row_sliding_onto_the_constant_state():
    # 0a at a = 0.1 ends against the constant-a state at a(1-a)/4; a step
    # just past it converges onto that state unless the capture spread stops it
    a = 0.1
    end = a * (1.0 - a) / 4.0
    start = solve_type(w("0a"), Params(a, end - 1e-4)).u[None]
    rows = (start, np.array([a]), np.array([end + 1e-5]))
    roots, converged = gde._newton_core(*rows, np.zeros(1))
    assert converged[0]
    assert roots[0] == pytest.approx([a, a], abs=1e-8)
    roots, converged = gde._newton_core(*rows, np.array([1e-3]))
    assert not converged[0]
    assert np.ptp(roots[0]) < 1e-3


def test_newton_stops_a_row_at_a_singular_jacobian():
    # every entry of the first row's Jacobian is 1/32, so the batched solve
    # fails and each row is solved alone: the singular row stops where it
    # started while its neighbour converges
    start = np.array([[0.25, 0.25], [0.02, 0.97]])
    a, d = np.array([0.5, 0.5]), np.array([1 / 64, 0.0])
    assert (jacobian(start[0], Params(0.5, 1 / 64)) == 1 / 32).all()
    roots, converged = gde._newton_core(start, a, d, np.zeros(2))
    assert converged.tolist() == [False, True]
    assert roots[0].tolist() == [0.25, 0.25]
    assert roots[1] == pytest.approx([0.0, 1.0], abs=1e-12)


def test_newton_rows_take_exactly_the_iterations_they_take_alone():
    # a seeded batch, with the rows above that stop for growth, at a singular
    # Jacobian, for a jump and for a capture mixed in, must give each row
    # bitwise the root and flag that the row gives when run on its own
    rng = np.random.default_rng(2709)
    capture_a = 0.1
    capture_d = capture_a * (1.0 - capture_a) / 4.0
    capture_u = solve_type(w("0a"), Params(capture_a, capture_d - 1e-4)).u
    special = [
        (_STRAY, _STRAY_P.a, _STRAY_P.d, 1e-3),
        (np.array([0.25, 0.25]), 0.5, 1 / 64, 0.0),
        (np.array([0.79, 0.79]), 0.5, 0.0, 0.0),
        (capture_u, capture_a, capture_d + 1e-5, 1e-3),
    ]
    for n in (2, 5, 24):
        rows = []
        for _ in range(64):
            a_k = rng.uniform(0.05, 0.95)
            u_k = rng.choice([0.0, a_k, 1.0], size=n) + rng.normal(0.0, 0.05, size=n)
            rows.append((u_k, a_k, rng.uniform(0.0, 0.06), rng.choice([0.0, 1e-3])))
        if n == 2:
            rows[5:5] = special
        u, a, d, capture = (np.array(x) for x in zip(*rows))
        roots, converged = gde._newton_core(u, a, d, capture)
        assert converged.any() and not converged.all()
        for k, row in enumerate(rows):
            alone, ok = gde._newton_core(*(np.array([x]) for x in row))
            assert ok[0] == converged[k]
            assert alone[0].tobytes() == roots[k].tobytes()


def test_solve_rows_matches_solving_each_row_alone():
    # a batch with exactly singular rows must give every other row bitwise the
    # solution np.linalg.solve gives it alone, and zeros and a flag where it raises
    rng = np.random.default_rng(2801)
    for n in (2, 5, 24):
        J = rng.normal(size=(64, n, n))
        rhs = rng.normal(size=(64, n))
        J[[3, 17, 40], :, rng.integers(n)] = 0.0
        J[41, rng.integers(n)] = 0.0
        x, singular = gde._solve_rows(J, rhs)
        assert singular.sum() == 4
        for k in range(64):
            try:
                alone = np.linalg.solve(J[k], rhs[k])
            except np.linalg.LinAlgError:
                assert singular[k] and not x[k].any()
            else:
                assert not singular[k] and alone.tobytes() == x[k].tobytes()
    x, singular = gde._solve_rows(np.zeros((3, 2, 2)), np.ones((3, 2)))
    assert singular.all() and not x.any()


def test_march_measures_det_j_of_every_state_it_returns():
    # 01 folds at 1/16, 0a meets the constant-a state at a(1-a)/4 = 0.06,
    # and aa's branch is exact, so its ray starts at the cap
    words = [w("01"), w("0a"), w("aa")]
    a = np.array([0.5, 0.4, 0.5])
    for d_cap in (0.5, 0.0):
        end = gde._march(words, a, d_cap)
        if d_cap:
            assert 0.0 < end.d[0] < 0.0625 and 0.0 < end.d[1] < 0.06
        else:
            assert (end.d == 0.0).all()
        for k in range(len(words)):
            J = jacobian(end.u[k], Params(a[k], end.d[k]))
            assert (end.sign[k], end.logdet[k]) == tuple(np.linalg.slogdet(J))
        assert end.d[2] == d_cap
        assert end.logdet0[2] == end.logdet[2]


def test_solve_type_zero_coupling_is_decoupled_state():
    p = Params(0.37, 0.0)
    eq = solve_type(w("0a01"), p)
    assert np.array_equal(eq.u, decoupled_state(w("0a01"), 0.37))
    assert eq.residual_norm == 0.0


def test_solve_type_constant_word_any_coupling():
    for d in (0.0, 0.1, 0.4):
        eq = solve_type(w("111"), Params(0.3, d))
        assert eq.u == pytest.approx(np.ones(3), abs=0.0)
        assert eq.stable


def test_solve_type_two_site_analytic_branch():
    # exact branch at a = 1/2: u = (1/2 - v, 1/2 + v) with v^2 = 1/4 - 4d;
    # by d = 0.062 the in-phase eigenvalue f'(u_i) = 1/4 - 3v^2 has gone
    # positive (it crosses at d = 1/24), so the state is honestly unstable
    d = 0.0620
    eq = solve_type(w("01"), Params(0.5, d))
    v = math.sqrt(0.25 - 4.0 * d)
    assert eq.u == pytest.approx([0.5 - v, 0.5 + v], abs=1e-9)
    assert not eq.stable
    assert eq.det_sign == -1


def test_solve_type_crosses_interior_det_flip():
    # at a = 1/2 the determinant of the two-site branch changes sign at
    # d = 1/24 while the branch itself continues smoothly to the fold at
    # d = 1/16; the march crosses, and det_sign reports the endpoint
    below = solve_type(w("01"), Params(0.5, 0.01))
    above = solve_type(w("01"), Params(0.5, 0.05))
    assert below.det_sign == 1 and below.stable
    assert above.det_sign == -1 and not above.stable
    v = math.sqrt(0.25 - 4.0 * 0.05)
    assert above.u == pytest.approx([0.5 - v, 0.5 + v], abs=1e-9)
    with pytest.raises(NotInRegion) as info:
        solve_type(w("01"), Params(0.5, 0.2))
    assert info.value.d_reached == pytest.approx(1.0 / 16.0, abs=1e-4)


def test_solve_type_capture_by_constant_branch_rejected():
    # the 0a branch ends where it collides with the constant-a state, at
    # d = a(1-a)/4; the constant branch survives and Newton would happily
    # ride it, so the march must detect the capture and stop instead
    a = 0.475
    with pytest.raises(NotInRegion) as info:
        solve_type(w("0a"), Params(a, 0.08))
    assert info.value.d_reached == pytest.approx(a * (1.0 - a) / 4.0, abs=1e-6)


def _no_start(*args):
    raise AssertionError("a ray that fails its checks reached gde._start")


def test_solve_type_word_too_short(monkeypatch):
    monkeypatch.setattr(gde, "_start", _no_start)
    with pytest.raises(ValueError, match="^dynamics need words of length at least 2$"):
        solve_type(Word((0,)), Params(0.5, 0.1))


def test_constant_words_are_found_from_their_state_not_the_capture_spread(monkeypatch):
    # with no capture spread a two-letter word still marches, and only a word
    # whose d = 0 state has no spread starts at its cap
    monkeypatch.setattr(gde, "_HOMOG_SPREAD", 0.0)
    monkeypatch.setattr(gde, "_last_ray", (None, 0.0, None))  # no record outlives the test
    eq = solve_type(w("01"), Params(0.5, 0.01))
    assert eq.residual_norm <= 1e-12
    assert not np.array_equal(eq.u, decoupled_state(w("01"), 0.5))
    assert d_max(w("000"), 0.3) == (0.5, Terminal.DMAX_CAP)
    (sample,) = scan_region(w("000"), [0.3]).samples
    assert sample.det_ratio == 1.0


def test_solve_type_residual_meets_tolerance():
    p = Params(0.475, 0.025)
    for text in ("0a", "011", "0a11", "001a1"):
        eq = solve_type(w(text), p)
        assert eq.residual_norm <= 1e-12


def test_solve_type_stability_matches_letters():
    p = Params(0.475, 0.025)
    assert solve_type(w("011"), p).stable
    assert solve_type(w("0011"), p).stable
    assert not solve_type(w("0a"), p).stable
    assert not solve_type(w("0a1"), p).stable
    assert not solve_type(w("0a11"), p).stable


def test_solve_type_rotation_transport():
    p = Params(0.42, 0.03)
    base = solve_type(w("0a11"), p).u
    rotated = solve_type(rotate(w("0a11")), p).u
    assert rotated == pytest.approx(np.roll(base, -1), abs=1e-9)


def test_solve_type_reflection_transport():
    p = Params(0.42, 0.03)
    base = solve_type(w("0a11"), p).u
    reflected = solve_type(reflect(w("0a11")), p).u
    assert reflected == pytest.approx(base[::-1], abs=1e-9)


def test_solve_type_mirror_transport():
    base = solve_type(w("0a11"), Params(0.42, 0.03)).u
    swapped = solve_type(permute_values(w("0a11")), Params(0.58, 0.03)).u
    assert swapped == pytest.approx(1.0 - base, abs=1e-9)


def test_solve_type_det_sign_matches_zero_coupling_at_small_d():
    # no eigenvalue has crossed zero this close to d = 0, so the endpoint
    # determinant sign still agrees with the decoupled one
    p = Params(0.475, 0.025)
    for text in ("0a", "011", "0a1", "0a11"):
        eq = solve_type(w(text), p)
        eq0 = solve_type(w(text), Params(p.a, 0.0))
        assert eq.det_sign == eq0.det_sign


def test_constant_state_at_a_zero_eigenvalue_is_returned():
    # the eigenvalues of aa's constant state are f'(a) and f'(a) - 4d, and
    # f'(1/2) = 1/4, so det J is exactly 0 at d = 1/16; the state exists
    eq = solve_type(w("aa"), Params(0.5, 0.0625))
    assert np.array_equal(eq.u, [0.5, 0.5])
    assert eq.det_sign == 0
    assert not eq.stable
    assert membership(w("aa"), Params(0.5, 0.0625))
    assert d_max(w("aa"), 0.5) == (0.5, Terminal.DMAX_CAP)


def test_det_sign_matches_an_independent_determinant():
    # the march takes det J once, at the end of the ray; a determinant of
    # the returned state's Jacobian must carry the same sign
    rng = random.Random(1109)
    solved = []
    while len(solved) < 60:
        word = Word(tuple(rng.choice((0, 1, 2)) for _ in range(rng.randint(2, 8))))
        p = Params(rng.uniform(0.05, 0.95), rng.uniform(0.0, 0.06))
        try:
            solved.append(solve_type(word, p))
        except NotInRegion:
            pass
    for eq in solved:
        assert eq.det_sign == np.linalg.slogdet(jacobian(eq.u, eq.params))[0]
    assert {eq.det_sign for eq in solved} == {-1, 1}


def test_lde_residual_of_periodic_extension():
    p = Params(0.475, 0.025)
    eq = solve_type(w("0a1"), p)
    assert lde_residual_check(eq, window_periods=3) <= 1e-12
    assert lde_residual_check(solve_type(w("00"), p), window_periods=4) == 0.0
    with pytest.raises(ValueError):
        lde_residual_check(eq, window_periods=0)


def test_stability_mismatch_is_detected():
    # labelling the unstable constant middle state with a binary word must
    # raise while the determinant still has its zero-coupling sign (here
    # both signs are +1, so no crossing can excuse the disagreement)
    p = Params(0.5, 0.01)
    with pytest.raises(StabilityMismatch):
        gde._build_equilibrium(w("01"), np.array([0.5, 0.5]), p, 1.0, False)
    # and conversely for a stable state labelled with a middle-letter word
    stable = solve_type(w("0101"), p)
    assert stable.stable
    with pytest.raises(StabilityMismatch):
        gde._build_equilibrium(w("0a1a"), stable.u, p, 1.0, False)
