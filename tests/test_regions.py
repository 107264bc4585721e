import math
import random
import time

import numpy as np
import pytest

import oracles
from nagumo_atlas import regions
from nagumo_atlas.gde import NotInRegion, Params, solve_type
from nagumo_atlas.regions import (
    Terminal,
    d_max,
    membership,
    scan_region,
    verify_region_symmetries,
)
from nagumo_atlas.words import Word


def w(text):
    return Word.parse(text)


def test_two_site_fold_analytic():
    # independent oracle: u = (1/2 - v, 1/2 + v), v^2 = 1/4 - 4d, fold at 1/16
    height, terminal = d_max(w("01"), 0.5)
    assert height == pytest.approx(0.0625, abs=1e-6)
    assert terminal is Terminal.FOLD


def test_mixed_pair_transcritical_analytic():
    # second oracle: the 0a branch ends against the constant-a state where
    # 4d equals the slope f'(a;a) = a(1-a). That collision is the first
    # singularity only up to moderate thresholds; at larger a a genuine
    # fold precedes it (measured d_max ~ 0.0194 at a = 0.62), so the
    # oracle is asserted on the low side only.
    for a in (0.31, 0.475):
        height, terminal = d_max(w("0a"), a)
        assert height == pytest.approx(a * (1.0 - a) / 4.0, abs=1e-6)
        assert terminal is Terminal.FOLD
    # at a = 1/2 the branch folds at 1/24, an exact root of the two-cell
    # system, before it would reach the constant state at 1/16
    height, terminal = d_max(w("0a"), 0.5)
    assert height == pytest.approx(1.0 / 24.0, abs=1e-9)
    assert terminal is Terminal.FOLD


def test_constant_words_reach_the_cap():
    for text, a in (("000", 0.3), ("000", 0.7), ("aa", 0.5)):
        height, terminal = d_max(w(text), a)
        assert height == regions.DEFAULT_D_CAP
        assert terminal is Terminal.DMAX_CAP
    height, terminal = d_max(w("00"), 0.4, d_cap=0.2)
    assert height == 0.2
    assert terminal is Terminal.DMAX_CAP


def test_three_letter_pattern_regression_pin():
    height, terminal = d_max(w("0a1"), 0.475)
    assert terminal is Terminal.FOLD
    assert height > 0.025
    # the height 0a1 reaches after merging into aa1's branch near d = 0.0671,
    # which it should not follow (ROADMAP item 1)
    assert height == pytest.approx(0.0831938654184342, abs=1e-6)


def test_period_doubling_leaves_height_unchanged():
    for a in (0.31, 0.5):
        doubled, _ = d_max(w("0a0a"), a)
        base, _ = d_max(w("0a"), a)
        assert doubled == pytest.approx(base, abs=1e-9)


def test_vertical_stretch_small_grid():
    for a in (0.38, 0.5, 0.57):
        four, _ = d_max(w("0011"), a)
        two, _ = d_max(w("01"), a)
        assert four == pytest.approx(2.0 * two, abs=1e-6)


def test_fold_terminal_carries_collapsed_certificate():
    boundary = scan_region(w("01"), [0.45, 0.5, 0.55])
    for sample in boundary.samples:
        assert sample.terminal is Terminal.FOLD
        assert sample.det_ratio <= regions.DET_GUARD


def test_refinement_insensitive_to_step_schedule(monkeypatch):
    coarse, _ = d_max(w("01"), 0.5)
    monkeypatch.setattr(regions.gde, "_D_STEP_INIT", 5e-4)
    fine, _ = d_max(w("01"), 0.5)
    assert fine == pytest.approx(coarse, abs=1e-9)


def test_scan_symmetric_about_half_for_self_mirror_word():
    grid = [(k + 1) / 100.0 for k in range(99)]
    boundary = scan_region(w("01"), grid)
    heights = [s.d_max for s in boundary.samples]
    assert [s.a for s in boundary.samples] == grid
    for i in range(99):
        assert heights[i] == pytest.approx(heights[98 - i], abs=1e-6)


def test_scan_rejects_bad_grids(monkeypatch):
    def no_start(*args):
        raise AssertionError("a ray that fails its checks reached gde._start")

    monkeypatch.setattr(regions.gde, "_start", no_start)
    for a in (math.nan, 1.0):
        with pytest.raises(ValueError, match=rf"^threshold a must lie strictly in \(0, 1\), got {a}$"):
            d_max(w("01"), a)
    with pytest.raises(ValueError, match="^dynamics need words of length at least 2$"):
        scan_region(w("0"), [0.3])
    with pytest.raises(ValueError, match="^the words of one batch must share a length$"):
        regions._march([(w("01"), 0.3), (w("011"), 0.3)], regions.DEFAULT_D_CAP)
    with pytest.raises(ValueError):
        scan_region(w("01"), [])
    with pytest.raises(ValueError):
        scan_region(w("01"), [0.4, 0.4])
    with pytest.raises(ValueError):
        scan_region(w("01"), [0.6, 0.5])
    with pytest.raises(ValueError):
        scan_region(w("01"), [0.0, 0.5])
    with pytest.raises(ValueError):
        d_max(w("01"), 0.5, d_cap=0.0)
    with pytest.raises(ValueError):
        verify_region_symmetries(w("0a1"), [])


def test_scan_region_runs_in_one_process():
    grid = [0.4, 0.5, 0.6]
    assert scan_region(w("0a"), grid, workers=1) == scan_region(w("0a"), grid)
    with pytest.raises(ValueError):
        scan_region(w("0a"), grid, workers=2)


def test_0a_family_is_not_captured_by_the_constant_branch():
    # past the pitchfork at a(1-a)/4 the corrector would slide onto the
    # constant-a state, which survives; a heterogeneous state that has
    # spread nearly constant is rejected whatever |det J| is
    a = 0.1
    height, terminal = d_max(w("0a"), a)
    assert terminal is Terminal.FOLD
    assert a * (1.0 - a) / 4.0 - 2e-6 < height <= a * (1.0 - a) / 4.0
    with pytest.raises(NotInRegion) as info:
        solve_type(w("0a"), Params(a, 0.2))
    assert info.value.d_reached == height
    height, terminal = d_max(w("00a"), 0.045)
    assert terminal is Terminal.FOLD and height < 0.05
    state = solve_type(w("00a"), Params(0.045, 0.9 * height)).u
    assert state.max() - state.min() > 0.01
    # at thresholds this small the d = 0 spread a itself is below the
    # fixed capture spread, which must not reject the first step
    assert d_max(w("0a"), 5e-4)[0] > 0.0


def test_every_ray_ends_in_tens_of_rounds(monkeypatch):
    rounds = []
    newton = regions.gde._newton_core

    def counted(*args):
        rounds.append(len(args[0]))
        return newton(*args)

    monkeypatch.setattr(regions.gde, "_newton_core", counted)
    verify_region_symmetries(w("01"), [k / 200.0 for k in range(1, 200)])
    assert 0 < len(rounds) <= 200
    rounds.clear()
    boundary = scan_region(w("aaa"), [0.2, 0.5, 0.8])
    assert {s.terminal for s in boundary.samples} == {Terminal.DMAX_CAP}
    solve_type(w("00"), Params(0.3, 0.4))
    assert rounds == []


def test_constant_word_ray_has_ratio_one_at_its_cap():
    # the ray of a constant word never leaves its cap, so |det J| is
    # measured there once, also where it vanishes (aa at a = 1/2, d = 1/16)
    for d_cap in (regions.DEFAULT_D_CAP, 0.0625):
        (sample,) = scan_region(w("aa"), [0.5], d_cap=d_cap).samples
        assert (sample.d_max, sample.terminal) == (d_cap, Terminal.DMAX_CAP)
        assert sample.det_ratio == 1.0


def test_rays_in_one_batch_do_not_interact():
    # folds of 01, the branch point where 0a meets the constant-a state,
    # and a constant word that runs to the cap, marched in one batch
    rays = [
        (w("01"), 0.5),
        (w("0a"), 0.475),
        (w("00"), 0.4),
        (w("01"), 0.3),
        (w("0a"), 0.4),
    ]
    cap = regions.DEFAULT_D_CAP
    together = regions._march(rays, cap)
    assert {s.terminal for s in together} == {Terminal.FOLD, Terminal.DMAX_CAP}
    for ray, mixed in zip(rays, together):
        (alone,) = regions._march([ray], cap)
        assert (mixed.d_max, mixed.terminal, mixed.det_ratio) == (
            alone.d_max,
            alone.terminal,
            alone.det_ratio,
        )


def test_membership_examples():
    p = Params(0.475, 0.025)
    assert membership(w("0a11"), p)
    assert membership(w("0a"), p)
    assert not membership(w("01"), Params(0.5, 0.07))
    for d in (0.0, 0.1, 0.3):
        assert membership(w("aaa"), Params(0.5, d))


def test_membership_agrees_with_the_region_march():
    # membership compares d with the height d_max measures, so the two agree
    # on either side of it, also where a solve capped just past a fold once
    # hopped onto a sibling branch
    assert membership(w("01"), Params(0.5, 0.045))
    height, _ = d_max(w("01"), 0.5)
    assert membership(w("01"), Params(0.5, height - 1e-4))
    assert not membership(w("01"), Params(0.5, height + 1e-4))
    cases = [("01", 0.5)] + _HOPPED_PAST_FOLD + _seeded_patterns(10, seed=23)
    for text, a in cases:
        height, _ = d_max(w(text), a)
        for d in (0.0, 0.5 * height, height, height - 1e-12, height + 1e-12, 1.01 * height + 1e-6):
            assert membership(w(text), Params(a, d)) is (d <= height), (text, a, d)
    # above the default cap the height is measured up to d itself
    assert membership(w("aa"), Params(0.5, 0.7))
    assert not membership(w("01"), Params(0.5, 0.7))
    # a solve up to the cap stops exactly where the region march does
    for text, a in (("01", 0.5), ("0a", 0.1), ("0a", 0.31), ("0a1", 0.475)):
        height, _ = d_max(w(text), a)
        with pytest.raises(NotInRegion) as info:
            solve_type(w(text), Params(a, regions.DEFAULT_D_CAP))
        assert info.value.d_reached == height


def test_membership_ends_at_the_fold_where_a_step_once_hopped():
    # a solve capped just past these folds converges onto a sibling branch
    # within 0.25 of its last state unless its iterates, which stray further,
    # stop it first; membership reads the height, which ends at the fold
    for text, a in (("01a0a0a", 0.49362515400421375), ("10", 0.4937488923094864)):
        height, terminal = d_max(w(text), a)
        assert terminal is Terminal.FOLD
        assert not membership(w(text), Params(a, 1.01 * height + 1e-6))


# (word, a) where a solve capped at 1.01 * d_max + 1e-6 stepped past the fold
# onto a sibling branch; 0a10000110 still does (ROADMAP item 1). 001 is
# from point_queries seed 2204
_HOPPED_PAST_FOLD = [
    ("0a10000110", 0.7925698485498294),
    ("100111a00aa0110a1a11aa1", 0.8109184983992451),
    ("001", 0.40770381348243295),
]

# the largest shortfall of d_max at a branch's crossing with a constant
# state, as d_max's docstring states it
_CROSSING_SHORTFALL = 1.4e-4


def test_heights_match_the_two_and_three_cell_oracles():
    grid = [k / 200.0 for k in range(1, 200)]
    start = time.perf_counter()
    pairs = {word: oracles.two_cell_height(word, grid) for word in ("01", "0a", "1a")}
    cases = [(word, exact, 1.0) for word, exact in pairs.items()]
    for word in ("00a", "001", "11a", "aa0"):
        cases.append((word, oracles.xxy_height(word, grid), 1.0))
    cases += [("0011", pairs["01"], 2.0), ("00aa", pairs["0a"], 2.0)]
    for word, (exact, crossed), scale in cases:
        heights = [s.d_max for s in scan_region(w(word), grid).samples]
        for a, want, at_crossing, got in zip(grid, scale * exact, crossed, heights):
            if at_crossing:
                assert 0.0 <= want - got <= _CROSSING_SHORTFALL, (word, a, want, got)
            else:
                assert got == pytest.approx(want, abs=1e-9), (word, a)
    # 3.0-4.5 s measured on 2 cores
    assert time.perf_counter() - start < 20.0


def test_symmetry_report_rotation_family():
    grid = [0.42, 0.5, 0.58]
    report = verify_region_symmetries(w("001"), grid)
    assert report.max_dev <= 1e-8


def test_symmetry_report_mirror_family():
    report = verify_region_symmetries(w("011"), [0.45, 0.55])
    assert report.mirror_dev <= 1e-8
    report = verify_region_symmetries(w("0a"), [0.4, 0.6])
    assert report.max_dev <= 1e-8


def test_heights_positive_and_bounded():
    boundary = scan_region(w("0a1"), [0.35, 0.5, 0.65], d_cap=0.3)
    for sample in boundary.samples:
        assert 0.0 < sample.d_max <= 0.3
        assert math.isfinite(sample.det_ratio)


@pytest.mark.parametrize("text, a", [("a001aa111", 0.275), ("000a1a0a1", 0.7)])
def test_images_of_longer_words_agree(text, a):
    # a wandering correction once hopped one image's ray onto a sibling
    # branch: a001aa111 deviated by 1.27e-3 under reflection and swap,
    # 000a1a0a1 by 1.79e-3 under swap
    assert verify_region_symmetries(w(text), [a]).max_dev <= 1e-8


def test_solves_below_the_height_of_a_pair_crossing_succeed():
    # point_queries seed 2205 draws 10111 here. Its ray once went on past
    # its fold at 0.0631 to 0.168, and solves capped at d = 0.062 and 0.064
    # ended on states of Morse index 0 and 2, with det J < 0 at both, so
    # the det sign could not see the pair of eigenvalues the march passed
    word, a = w("10111"), 0.6338838848070426
    height, terminal = d_max(word, a)
    assert terminal is Terminal.FOLD
    for f in (0.5, 0.9):
        solve_type(word, Params(a, f * height))


def test_corrections_that_stop_contracting_no_longer_hop_past_folds():
    # each of these rays once went on along a sibling branch that a slow,
    # wandering correction reached past its fold. The folds below are a
    # pseudo-arclength tracer's, given to 7 digits
    for text, a, fold in (("0010", 0.37207289985926273, 0.0618425), ("000a", 0.375, 0.0605625)):
        height, terminal = d_max(w(text), a)
        assert terminal is Terminal.FOLD
        assert height == pytest.approx(fold, abs=5e-8), text
    # point_queries seed 1812: the solve below the height once ended at
    # 0.0376363, the fold, short of the hopped height 0.0421750
    word, a = w("aa011a10aa1"), 0.5018546153971988
    height, _ = d_max(word, a)
    solve_type(word, Params(a, 0.9 * height))
    # above a = 1/2 the 0a fold falls as a grows; 0.505 once hopped to 0.0625
    heights = [d_max(w("0a"), a)[0] for a in (0.505, 0.51, 0.515, 0.52, 0.525)]
    assert all(np.diff(heights) < 0), heights
    # a solve capped just past these folds no longer lands on a sibling branch
    for text, a in _HOPPED_PAST_FOLD[1:]:
        height, _ = d_max(w(text), a)
        with pytest.raises(NotInRegion):
            solve_type(w(text), Params(a, 1.01 * height + 1e-6))


# single-pattern queries that replay the last ray's rounds: folds,
# crossings with the constant state, former hops (0010, aa011a10aa1), a
# solve that holds past its fold (0a10000110) and a constant word
_REPLAYED = [
    ("01", 0.5), ("0a", 0.1), ("0a", 0.31), ("0a1", 0.475), ("00a", 0.045),
    ("01a0a0a", 0.49362515400421375), ("10", 0.4937488923094864),
    ("0a10000110", 0.7925698485498294), ("0010", 0.37207289985926273),
    ("aa011a10aa1", 0.5018546153971988), ("aa", 0.5),
]  # fmt: skip


def _seeded_patterns(count, seed=21):
    """count words of lengths spread over 2-24, each at a random threshold."""
    rng = random.Random(seed)
    lengths = [2 + k * 22 // (count - 1) for k in range(count)]
    words = ["".join(rng.choice("0a1") for _ in range(n)) for n in lengths]
    return [(word, rng.uniform(0.05, 0.95)) for word in words]


def _ray(word, a, d_cap=regions.DEFAULT_D_CAP):
    return scan_region(word, [a], d_cap=d_cap).samples[0]


def _answer(query, *args):
    """A query's answer in a form that compares bit for bit."""
    try:
        out = query(*args)
    except NotInRegion as exc:
        return "NotInRegion", exc.d_reached.hex()
    if isinstance(out, regions.BoundarySample):
        return out.d_max.hex(), out.terminal, out.det_ratio.hex()
    if isinstance(out, bool):
        return out
    return out.u.tobytes(), out.stable, out.det_sign, out.residual_norm.hex()


def _forget():
    # an unrelated single ray of one round replaces the record of the last
    # (word, a) marched, so the next query of it marches afresh
    _ray(w("01"), 0.3, 1e-3)


def _fresh(query, *args):
    _forget()
    return _answer(query, *args)


def test_replayed_queries_answer_bitwise_as_fresh_ones():
    start = time.perf_counter()
    past_fold = {}
    for text, a in _REPLAYED + _seeded_patterns(12):
        word = w(text)
        first = _fresh(_ray, word, a)
        height = float.fromhex(first[0])
        queries = [(solve_type, word, Params(a, f * height)) for f in (0.25, 0.5, 0.9, 1.0)]
        queries += [(membership, word, Params(a, 1.01 * height + 1e-6)), (_ray, word, a, 0.04)]
        replayed = [_answer(*q) for q in queries] + [_answer(_ray, word, a)]
        fresh = [_fresh(*q) for q in queries] + [first]
        assert replayed == fresh, (text, a)
        past_fold[text] = replayed[4]
        if (text, a) not in _REPLAYED:
            continue
        # a solve at a small cap first, then the region march and membership
        _fresh(solve_type, word, Params(a, 0.01))
        assert [_answer(_ray, word, a), _answer(*queries[4])] == [first, fresh[4]]
    # a solve capped there hops past the fold (ROADMAP item 1); membership
    # reads the height instead
    assert past_fold["0a10000110"] is False
    # 3.2-5.7 s measured on 2 cores: each fresh answer marches from d = 0
    assert time.perf_counter() - start < 20.0


def test_queries_after_d_max_make_a_handful_of_corrections(monkeypatch):
    corrections = []
    newton = regions.gde._newton_core

    def counted(*args):
        corrections.append(len(args[0]))
        return newton(*args)

    monkeypatch.setattr(regions.gde, "_newton_core", counted)

    def count(query, *args):
        corrections.clear()
        try:
            query(*args)
        except NotInRegion:
            pass
        return len(corrections)

    # measured: 49-160 corrections for a fresh d_max, one for each solve,
    # and none for membership or a repeated d_max
    for text, a in _REPLAYED[:5] + _REPLAYED[7:9]:
        word = w(text)
        _forget()
        assert count(d_max, word, a) >= 40
        height, _ = d_max(word, a)
        for f in (0.25, 0.5, 0.9):
            assert count(solve_type, word, Params(a, f * height)) == 1, (text, f)
        assert count(membership, word, Params(a, 1.01 * height + 1e-6)) == 0, text
        assert count(d_max, word, a) == 0


def test_returned_states_share_no_memory_with_the_replayed_rounds():
    word, a = w("0a1"), 0.475
    _forget()
    end = regions.gde._march([word], np.array([a]), regions.DEFAULT_D_CAP)
    kept = [x.copy() for x in end]
    for x in end:
        x[...] = 0
    again = regions.gde._march([word], np.array([a]), regions.DEFAULT_D_CAP)
    assert all(np.array_equal(x, y) for x, y in zip(kept, again))
    p = Params(a, 0.5 * float(kept[0][0]))
    eq = solve_type(word, p)
    u = eq.u.copy()
    eq.u[:] = 7.0
    assert solve_type(word, p).u.tobytes() == u.tobytes()
