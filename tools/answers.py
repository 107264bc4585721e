"""The answer ledger: every answer the package gives on a fixed set of
inputs, one line each, so that two trees can be compared bit for bit.

    python tools/answers.py                  # this checkout's ledger
    python tools/answers.py --tree DIR       # the ledger of DIR/src
    python tools/answers.py --against REV    # what changed since REV

A line is `family<TAB>key<TAB>fields`. Heights, det ratios and residual
norms are `float.hex`, a state is the first 16 hex digits of the sha256
of its bytes, and a CLI command is the sha256 of its stdout and its exit
code. The families:

* criterion09: every ray of acceptance criterion 09 (the 15 aperiodic dpi
  representatives of length 2-4, their rotation, reflection and value
  swap, over a = k/200), marched in verify_region_symmetries' batches, and
  each word's three deviations;
* region_atlas: the 22 dpi classes of length 5 over the `region` grid of
  91 thresholds in [0.05, 0.95];
* queries: 120 seeded heterogeneous words of length 2-24, each at a seeded
  threshold, each asked one fixed sequence of d_max, solve_type and
  membership queries in order, so that later queries replay the record
  the first one leaves;
* constant: constant words, whose branch is exact and never marched;
* cli: `count --n-max 64`, `orbits -n 10 --full`, `verify --seed 1` and
  the README's `solve` and `region` commands, each in a fresh process;
* work: per family, the number of Newton corrections (gde._newton_core
  calls) and of rows they corrected.

--against REV exports REV's src/ with `git archive`, builds both ledgers
in fresh processes side by side, prints each changed line as `-` old and
`+` new, and ends with a summary per family: answers, changed, heights up
and down, and the largest height change. It exits 1 when anything
changed. Ledgers compare two trees on one machine: LAPACK on another CPU
or numpy build may differ in the last bit, so no ledger is pinned.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CHECKOUT = Path(__file__).resolve().parent.parent
CLI_COMMANDS = (
    ("count", "--n-max", "64"),
    ("orbits", "-n", "10", "--full"),
    ("verify", "--seed", "1"),
    ("solve", "--word", "0a1", "--a", "0.475", "--d", "0.025"),
    ("region", "--word", "01", "--a-min", "0.3", "--a-max", "0.7", "--a-count", "3"),
)
QUERY_SEED, QUERY_PATTERNS = 20, 120


def _digest(data: bytes, width: int = 16) -> str:
    return hashlib.sha256(data).hexdigest()[:width]


class _Capture:
    """Counts Newton corrections and keeps the last march's end states and
    samples, by wrapping the package's internal march and corrector."""

    def __init__(self, gde, regions):
        self.calls = self.rows = 0
        self.end = self.samples = None
        self._wrap(gde, "_newton_core", self._count)
        self._wrap(gde, "_march", self._keep_end)
        self._wrap(regions, "_march", self._keep_samples)

    def _wrap(self, module, name, after):
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            out = original(*args, **kwargs)
            after(args, out)
            return out

        setattr(module, name, wrapped)

    def _count(self, args, out):
        self.calls += 1
        self.rows += len(args[0])

    def _keep_end(self, args, out):
        self.end = out

    def _keep_samples(self, args, out):
        self.samples = out

    def work(self) -> str:
        calls, rows = self.calls, self.rows
        self.calls = self.rows = 0
        return f"calls={calls} rows={rows}"

    def ray(self, k: int) -> str:
        """The fields of ray k of the last batch of rays."""
        s = self.samples[k]
        state = _digest(self.end.u[k].tobytes())
        ratio = s.det_ratio.hex()
        return f"d={s.d_max.hex()} terminal={s.terminal.value} det_ratio={ratio} u={state}"


def _ledger(tree: Path):
    """Yield the ledger of the package under tree/src, line by line."""
    sys.path.insert(0, str(tree / "src"))
    import nagumo_atlas
    from nagumo_atlas import gde, regions
    from nagumo_atlas.words import A3, GroupKind, Word, representatives
    from nagumo_atlas.words import permute_values, reflect, rotate

    if not Path(nagumo_atlas.__file__).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"imported {nagumo_atlas.__file__}, not the package under {tree}")
    cap, work = _Capture(gde, regions), []

    def answer(query, *args) -> str:
        try:
            out = query(*args)
        except gde.NotInRegion as exc:
            return f"NotInRegion d={exc.d_reached.hex()}"
        if isinstance(out, bool):
            return f"member={out}"
        if isinstance(out, tuple):  # d_max
            return cap.ray(0)
        return (
            f"u={_digest(out.u.tobytes())} stable={out.stable} det_sign={out.det_sign} "
            f"residual={out.residual_norm.hex()}"
        )

    grid = [k / 200.0 for k in range(1, 200)]
    for n in (2, 3, 4):
        for word in representatives(n, A3, GroupKind.DIHEDRAL_PI, lyndon_only=True):
            report = regions.verify_region_symmetries(word, grid)
            images = [("base", word), ("rotation", rotate(word)), ("reflection", reflect(word))]
            rays = [(name, image, a) for name, image in images for a in grid]
            rays += [("swap", permute_values(word), 1.0 - a) for a in grid]
            for k, (name, image, a) in enumerate(rays):
                yield f"criterion09\t{word} {name} {image} a={a!r}\t{cap.ray(k)}"
            devs = (report.rotation_dev, report.reflection_dev, report.mirror_dev)
            yield f"criterion09\t{word} deviations\t" + " ".join(x.hex() for x in devs)
    work.append(f"work\tcriterion09\t{cap.work()}")

    atlas_grid = np.linspace(0.05, 0.95, 91)
    for word in representatives(5, A3, GroupKind.DIHEDRAL_PI, lyndon_only=False):
        regions.scan_region(word, atlas_grid)
        for k, a in enumerate(atlas_grid):
            yield f"region_atlas\t{word} a={float(a)!r}\t{cap.ray(k)}"
    work.append(f"work\tregion_atlas\t{cap.work()}")

    rng = random.Random(QUERY_SEED)
    for i in range(QUERY_PATTERNS):
        n = 2 + i % 23
        text = "0"
        while len(set(text)) < 2:
            text = "".join(rng.choice("0a1") for _ in range(n))
        word, a = Word.parse(text), rng.uniform(0.05, 0.95)
        key = f"{i:03d} {text} a={a!r}"
        first = answer(regions.d_max, word, a)
        yield f"queries\t{key} d_max\t{first}"
        height = _height(first)
        sequence = [(f"solve {f}h", gde.solve_type, word, gde.Params(a, f * height))
                    for f in (0.25, 0.5, 0.9, 1.0)]
        sequence += [
            ("solve 1.01h+1e-6", gde.solve_type, word, gde.Params(a, 1.01 * height + 1e-6)),
            ("member 1.01h+1e-6", regions.membership, word, gde.Params(a, 1.01 * height + 1e-6)),
            ("member 0.5h", regions.membership, word, gde.Params(a, 0.5 * height)),
            ("d_max cap 0.7", regions.d_max, word, a, 0.7),
            ("d_max again", regions.d_max, word, a),
            ("d_max cap 0.05", regions.d_max, word, a, 0.05),
            ("solve 0", gde.solve_type, word, gde.Params(a, 0.0)),
        ]  # fmt: skip
        for name, query, *args in sequence:
            yield f"queries\t{key} {name}\t{answer(query, *args)}"
    work.append(f"work\tqueries\t{cap.work()}")

    for text in ("00", "11", "aa", "aaa", "1111", "aaaaa", "000000"):
        word = Word.parse(text)
        for a in (0.1, 0.3, 0.5, 0.75):
            yield f"constant\t{text} a={a!r} d_max\t{answer(regions.d_max, word, a)}"
            for d in (0.0, 0.0625, 0.3):
                out = answer(gde.solve_type, word, gde.Params(a, d))
                yield f"constant\t{text} a={a!r} solve {d!r}\t{out}"
    work.append(f"work\tconstant\t{cap.work()}")

    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    for argv in CLI_COMMANDS:
        run = subprocess.run(
            [sys.executable, "-m", "nagumo_atlas", *argv], capture_output=True, env=env
        )
        yield f"cli\t{' '.join(argv)}\texit={run.returncode} stdout={_digest(run.stdout, 64)}"
    yield from work


def _parse(text: str) -> dict[tuple[str, str], str]:
    lines = {}
    for line in text.splitlines():
        family, key, fields = line.split("\t")
        lines[family, key] = fields
    return lines


def _height(fields: str | None):
    """The height, or the depth a NotInRegion reached, of a line, if any."""
    d = [f[2:] for f in (fields or "").split(" ") if f.startswith("d=")]
    return float.fromhex(d[0]) if d else None


def compare(old: str, new: str) -> tuple[list[str], bool]:
    """The changed lines of two ledgers and a summary per family; and
    whether anything changed."""
    before, after = _parse(old), _parse(new)
    keys = list(before) + [k for k in after if k not in before]
    out, tally = [], {}
    for key in keys:
        family = key[0]
        t = tally.setdefault(family, {"answers": 0, "changed": 0, "up": 0, "down": 0, "max": 0.0})
        t["answers"] += 1
        x, y = before.get(key), after.get(key)
        if x == y:
            continue
        t["changed"] += 1
        out.append(f"{family} {key[1]}")
        out.append(f"  - {x if x is not None else '(absent)'}")
        out.append(f"  + {y if y is not None else '(absent)'}")
        hx, hy = _height(x), _height(y)
        if hx is not None and hy is not None and hx != hy:
            t["up" if hy > hx else "down"] += 1
            t["max"] = max(t["max"], abs(hy - hx))
    for family, t in tally.items():
        out.append(
            f"{family}: {t['answers']} answers, {t['changed']} changed "
            f"({t['up']} up, {t['down']} down, largest |d change| {t['max']:.3g})"
        )
    changed = sum(t["changed"] for t in tally.values())
    out.append(f"total: {sum(t['answers'] for t in tally.values())} answers, {changed} changed")
    return out, changed > 0


def _against(rev: str) -> int:
    archive = subprocess.run(
        ["git", "-C", str(CHECKOUT), "archive", "--format=tar", rev, "--", "src"],
        capture_output=True, check=True,
    ).stdout  # fmt: skip
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        outs = [Path(tmp, name) for name in ("old.txt", "new.txt")]
        runs = []
        for tree, out in zip((tmp, str(CHECKOUT)), outs):
            with out.open("w") as f:  # a file, not a pipe: both ledgers build at once
                runs.append(subprocess.Popen([sys.executable, __file__, "--tree", tree], stdout=f))
        if any(run.wait() for run in runs):
            raise SystemExit("building a ledger failed")
        lines, changed = compare(*(out.read_text() for out in outs))
    print("\n".join(lines))
    return int(changed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=CHECKOUT, help="the ledger of TREE/src")
    parser.add_argument("--against", metavar="REV", help="compare this checkout with revision REV")
    args = parser.parse_args(argv)
    if args.against:
        return _against(args.against)
    with contextlib.suppress(BrokenPipeError):
        for line in _ledger(args.tree):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
