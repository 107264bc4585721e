"""The four benchmark workloads.

Each workload makes its inputs from the seed when it is built, and then
runs whole rounds of the same operations. Every call into the package
that a round times goes through Record.timed; everything else a round
does is checking, against checks.py. An operation that fails a check
counts as failed. A failure of a 0a-family pattern is the known capture
fault (see README.md) and leaves the run correct; any other failure is
written to Record.problems and makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import time
import traceback
from pathlib import Path

import checks
from nagumo_atlas import cli, counting, gde, regions, words
from nagumo_atlas.words import A3, GroupKind, Word
from tracing import cpu_seconds


class Record:
    """Wall and CPU time of each timed call, round by round, and the tally
    of operations."""

    def __init__(self, pause=contextlib.nullcontext):
        self.rounds: list[list[tuple[float, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # findings that do not fail an operation
        self.notes: list[str] = []
        # a context in which package calls made for checking go untraced
        self.pause = pause

    def timed(self, fn, *args, **kwargs):
        start, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            return fn(*args, **kwargs)
        finally:
            cpu = cpu_seconds() - cpu0
            self.rounds[-1].append((time.perf_counter() - start, cpu))

    def tally(self, ops: int, failed: int, problems=()) -> None:
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems)

    @property
    def calls(self) -> list[tuple[float, float]]:
        return [call for calls in self.rounds for call in calls]

    def fastest(self) -> list[tuple[float, float]]:
        """(wall, CPU) of each call of a round, each the least over the
        rounds. Every round makes the same calls in the same order."""
        if len({len(calls) for calls in self.rounds}) != 1:
            raise RuntimeError("the rounds made different calls")
        return [
            (min(wall for wall, _ in same), min(cpu for _, cpu in same))
            for same in zip(*self.rounds)
        ]


def _error(what: str) -> str:
    return f"{what}: {traceback.format_exc(limit=3).strip()}"


class SymmetrySweep:
    """Acceptance criterion 09: verify_region_symmetries for the 15 aperiodic
    dpi representatives of length 2-4 over the 199 thresholds k/200, each
    call one batch of 4 x 199 rays. The seed orders the words."""

    op = "ray"
    grid = [k / 200.0 for k in range(1, 200)]

    def __init__(self, seed: int, workdir: Path):
        self.words = [
            w
            for n in (2, 3, 4)
            for w in words.representatives(n, A3, GroupKind.DIHEDRAL_PI, lyndon_only=True)
        ]
        random.Random(seed).shuffle(self.words)

    def warm_up(self) -> None:
        regions.verify_region_symmetries(Word.parse("0a1"), [0.25, 0.5])

    def run_round(self, rec: Record) -> None:
        rays = 4 * len(self.grid)
        for word in self.words:
            try:
                report = rec.timed(regions.verify_region_symmetries, word, self.grid)
            except Exception:
                rec.tally(rays, rays, [_error(f"verify_region_symmetries({word})")])
                continue
            problems = [
                f"{word}: {name} deviation {dev:.3g}"
                for name, dev in (
                    ("rotation", report.rotation_dev),
                    ("reflection", report.reflection_dev),
                    ("swap", report.mirror_dev),
                )
                if not checks.symmetry_deviation_ok(dev)
            ]
            failed = len(self.grid) * len(problems)
            with rec.pause():
                failed += self._height_failures(str(word), problems)
            rec.tally(rays, min(failed, rays), problems)

    def _height_failures(self, word: str, problems: list[str]) -> int:
        """Failed rays among the word's own heights, which the symmetry
        report does not show: they are measured again by the public
        scan_region, whose rays do not interact within a batch."""
        if word == "01":
            height, _ = regions.d_max(Word.parse(word), 0.5)
            if not checks.fold_01_ok(height):
                problems.append(f"01 at a=1/2: d_max {height!r}, fold at 1/16")
                return 4
        if not checks.in_0a_family(word):
            return 0
        failed = 0
        images = [
            (word, False), (word[1:] + word[:1], False), (word[::-1], False), (checks.swap(word), True)
        ]
        for image, mirrored in images:
            grid = sorted(1.0 - a for a in self.grid) if mirrored else self.grid
            boundary = regions.scan_region(Word.parse(image), grid, workers=1)
            failed += sum(not checks.pitchfork_ok(s.a, s.d_max) for s in boundary.samples)
        return failed


class RegionAtlas:
    """`nagumo-atlas region` in process, once for every dpi class of length 5
    (constant classes included) over a 91-point grid in
    [0.05, 0.95], with CSV written to a temporary file. The seed orders the
    words."""

    op = "ray"
    length = 5
    a_min, a_max, a_count = 0.05, 0.95, 91

    def __init__(self, seed: int, workdir: Path):
        self.words = [
            str(w)
            for w in words.representatives(self.length, A3, GroupKind.DIHEDRAL_PI, lyndon_only=False)
        ]
        random.Random(seed).shuffle(self.words)
        self.out = workdir / "region.csv"
        self.d_cap = regions.DEFAULT_D_CAP
        closed = counting.permuted_bracelets(A3, self.length)
        own = checks.orbit_count(self.length, 3, True, True)
        self.input_problems = (
            []
            if len(self.words) == closed == own
            else [f"{len(self.words)} words of length {self.length}, closed form {closed}, own count {own}"]
        )

    def _argv(self, word: str, a_min: float, a_max: float, a_count: int) -> list[str]:
        return [
            "region", "--word", word, "--a-min", repr(a_min), "--a-max", repr(a_max),
            "--a-count", str(a_count), "--out", str(self.out),
        ]

    def warm_up(self) -> None:
        cli.main(self._argv("0a1", 0.3, 0.6, 2))

    def run_round(self, rec: Record) -> None:
        rec.tally(0, 0, self.input_problems)
        for word in self.words:
            argv = self._argv(word, self.a_min, self.a_max, self.a_count)
            try:
                code = rec.timed(cli.main, argv)
                with open(self.out, newline="", encoding="utf-8") as f:
                    rows = list(csv.DictReader(f))
            except Exception:
                rec.tally(self.a_count, self.a_count, [_error(f"region --word {word}")])
                continue
            failed, problems = self.row_failures(word, code, rows)
            rec.tally(self.a_count, failed, problems)

    def row_failures(self, word: str, code, rows: list[dict]) -> tuple[int, list[str]]:
        if code != 0 or len(rows) != self.a_count:
            return self.a_count, [f"region {word}: exit {code}, {len(rows)} rows"]
        known, unknown, problems = set(), set(), []
        a = [float(r["a"]) for r in rows]
        h = [float(r["d_max"]) for r in rows]
        constant = len(set(word)) == 1
        for i, r in enumerate(rows):
            if r["word"] != word or not checks.height_ok(h[i], self.d_cap):
                unknown.add(i)
            elif constant and (h[i] != self.d_cap or r["terminal"] != "dmax_cap"):
                unknown.add(i)
            elif checks.in_0a_family(word) and not checks.pitchfork_ok(a[i], h[i]):
                known.add(i)
        if checks.self_conjugate(word):
            for i in range(len(rows)):
                j = len(rows) - 1 - i
                if abs(a[i] + a[j] - 1.0) > 1e-12 or abs(h[i] - h[j]) > checks.SYMMETRY_TOL:
                    unknown.add(i)
        for i in sorted(unknown):
            problems.append(f"region {word}: row a={rows[i]['a']} d_max={rows[i]['d_max']} "
                            f"terminal={rows[i]['terminal']}")
        return len(known | unknown), problems


class PointQueries:
    """A seeded stream of single-pattern queries. Each pattern is a random
    heterogeneous word of length 2-24 (lengths taken in turn) at a random
    threshold in [0.05, 0.95] and gives three queries, each timed as one
    call: d_max, solve_type at three fractions of that height, and
    membership just above it.

    Two kinds of word are not drawn. A constant word marches 500 steps to
    the cap, ten times a typical pattern, so the number drawn would set the
    cost of a round. 0a-family words meet the capture fault at thresholds
    that vary with the seed; one fixed 0a pattern at a = 0.1 opens every
    round instead, so that the fault costs the same share of queries on
    every seed."""

    op = "query"
    patterns = 46
    fractions = (0.25, 0.5, 0.9)
    fault = ("0a", 0.1)

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        drawn = [self.fault]
        for i in range(self.patterns):
            n = 2 + i % 23
            while True:
                word = "".join(rng.choice("0a1") for _ in range(n))
                if len(set(word)) > 1 and not checks.in_0a_family(word):
                    break
            drawn.append((word, rng.uniform(0.05, 0.95)))
        self.queries = [(Word.parse(w), w, a) for w, a in drawn]
        self.d_cap = regions.DEFAULT_D_CAP

    def warm_up(self) -> None:
        word = Word.parse("0a1")
        regions.d_max(word, 0.4)
        gde.solve_type(word, gde.Params(0.4, 0.01))
        regions.membership(word, gde.Params(0.4, 0.01))

    def run_round(self, rec: Record) -> None:
        for word, text, a in self.queries:
            self._pattern(rec, word, text, a)

    def _tally(self, rec: Record, text: str, problems: list[str]) -> None:
        known = checks.in_0a_family(text)
        rec.tally(1, 1 if problems else 0, [] if known else problems)

    def _solve_at_fractions(self, word: Word, a: float, height: float) -> list:
        """One query: solve_type at each fraction of the height, with the
        state or the SolveError it ended in."""
        out = []
        for f in self.fractions:
            p = gde.Params(a, f * height)
            try:
                out.append((p, gde.solve_type(word, p)))
            except gde.SolveError as exc:
                out.append((p, exc))
        return out

    def _pattern(self, rec: Record, word: Word, text: str, a: float) -> None:
        try:
            height, terminal = rec.timed(regions.d_max, word, a)
        except Exception:
            rec.tally(3, 3, [_error(f"d_max({text}, {a})")])
            return
        ok = checks.height_ok(height, self.d_cap) and (
            not checks.in_0a_family(text) or checks.pitchfork_ok(a, height)
        )
        self._tally(rec, text, [] if ok else [f"d_max({text}, {a!r}) = {height!r}"])
        problems = []
        for p, eq in rec.timed(self._solve_at_fractions, word, a, height):
            if isinstance(eq, gde.SolveError):
                problems.append(f"solve_type({text}, a={a!r}, d={p.d!r}): {eq!r}")
            else:
                problems += checks.equilibrium_problems(text, a, p.d, eq.u, eq.stable)
        self._tally(rec, text, problems)
        p = gde.Params(a, 1.01 * height + 1e-6)
        inside = rec.timed(regions.membership, word, p)
        if inside and terminal is regions.Terminal.FOLD:
            # Not counted as failed: a hop onto a sibling branch past the
            # fold makes some drawn patterns, on some seeds, report True
            # here (see README.md). The run records each such query.
            rec.notes.append(f"membership({text}, a={a!r}, d={p.d!r}) is True past its fold")
        rec.tally(1, 0)


class Census:
    """`nagumo-atlas verify` with its default bounds (the seed feeds its
    sampled identity checks), `count --n-max 64` and `orbits -n 10` (a3,
    dpi), in process with output captured. Touches words, counting,
    numtheory and cli, not gde or regions."""

    op = "command"

    def __init__(self, seed: int, workdir: Path):
        self.commands = [
            ["verify", "--seed", str(seed)],
            ["count", "--n-max", "64"],
            ["orbits", "-n", "10"],
        ]

    @staticmethod
    def _run(argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        self._run(["count", "--n-max", "2"])

    def run_round(self, rec: Record) -> None:
        for argv in self.commands:
            try:
                code, out = rec.timed(self._run, argv)
                problems = self.output_problems(argv[0], code, out)
            except Exception:
                problems = [_error(" ".join(argv))]
            rec.tally(1, 1 if problems else 0, problems)

    @staticmethod
    def output_problems(command: str, code, out: str) -> list[str]:
        if code != 0:
            return [f"{command}: exit {code}"]
        if command == "verify":
            ok = "MISMATCH" not in out and out.rstrip().endswith("verify: all checks passed")
            return [] if ok else ["verify: a check failed"]
        if command == "count":
            rows = list(csv.DictReader(io.StringIO(out)))
            if [int(r["n"]) for r in rows] != list(range(1, 65)):
                return ["count: rows are not n = 1..64"]
            return checks.count_table_problems(rows)
        return checks.orbit_listing_problems(out.splitlines(), 10, 3)


WORKLOADS = {
    "symmetry_sweep": SymmetrySweep,
    "region_atlas": RegionAtlas,
    "point_queries": PointQueries,
    "census": Census,
}
