"""Command-line front end: counting tables, orbit listings, equilibrium
solves, region boundary scans, and self-verification.

Subcommands
    count   counting-formula table as CSV (``--table1`` for the four
            headline columns)
    orbits  one orbit class per line for a chosen length, alphabet, group
    solve   one equilibrium by continuation, text or ``--json``
    region  d_max boundary scan over a threshold grid as CSV
    verify  formula-vs-enumeration and divisor-sum identity checks

Exit codes: 0 success, 1 verification or solve failure, 2 usage error.
Output is deterministic for fixed flags: stable sort orders, '.' decimal
separator, LF line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import re
import sys
from typing import Optional, Sequence

import numpy as np

from . import counting, numtheory, regions
from .gde import Params, SolveError, solve_type
from .words import A2, A3, GroupKind, Word, enumeration_limit, spell, sweep_orbits

_GROUP_TOKEN = re.compile(r"^(c|d)(\d+)?(pi)?$")

_N_MAX_LIMIT = 64


def _parse_group(token: str, n: int) -> GroupKind:
    """Turn a token like c3, d6pi, cpi into a GroupKind; the embedded
    length, when present, must match the word length."""
    m = _GROUP_TOKEN.match(token.lower())
    if m is None:
        raise ValueError(
            f"bad group token {token!r}; expected forms like c3, d3, c3pi, d3pi"
        )
    letter, digits, pi = m.groups()
    if digits is not None and int(digits) != n:
        raise ValueError(f"group token {token!r} names length {digits}, but -n is {n}")
    if letter == "c":
        return GroupKind.CYCLIC_PI if pi else GroupKind.CYCLIC
    return GroupKind.DIHEDRAL_PI if pi else GroupKind.DIHEDRAL


def _csv_out(path: Optional[str]):
    """Where a command writes its CSV: stdout, or the --out file, opened
    before the command's work in append mode, so that a later usage error
    leaves an existing file as it was."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "a", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out {path!r}: {exc.strerror}") from None


def _write_csv(rows: list[list], header: list[str], stream) -> None:
    """Replace whatever the stream holds with the CSV."""
    if stream is not sys.stdout:
        stream.truncate(0)
    csv.writer(stream, lineterminator="\n").writerows([header, *rows])


def _count_label(group: GroupKind, aperiodic: bool) -> str:
    """N (necklaces) or B (bracelets), then L if aperiodic, then pi if the
    group swaps values."""
    return (
        ("B" if group.reflects else "N")
        + ("L" if aperiodic else "")
        + ("pi" if group.swaps_values else "")
    )


def _cmd_count(args) -> int:
    if not (1 <= args.n_max <= _N_MAX_LIMIT):
        raise ValueError(f"--n-max must lie in 1..{_N_MAX_LIMIT}, got {args.n_max}")
    if args.table1 and args.alphabet is not None:
        raise ValueError("--table1 already fixes the columns; drop --alphabet")
    # N, B, Npi, Bpi, then their aperiodic variants NL, BL, NLpi, BLpi
    columns = [(group, aperiodic) for aperiodic in (False, True) for group in GroupKind]
    blocks = [A2, A3] if args.alphabet is None else [args.alphabet]
    header = ["n"]
    for alphabet in blocks:
        header += [f"{_count_label(g, ap)}_{alphabet}" for g, ap in columns]
    header += [f"total_{alphabet}" for alphabet in blocks]
    with _csv_out(args.out) as out:
        rows = []
        for n in range(1, args.n_max + 1):
            row: list = [n]
            for alphabet in blocks:
                row += [counting.count(alphabet, n, g, ap) for g, ap in columns]
            row += [
                counting.total_regions(alphabet, n) if n >= 2 else ""
                for alphabet in blocks
            ]
            rows.append(row)
        if args.table1:
            table1 = ("n", "total_a3", "BLpi_a3", "total_a2", "BLpi_a2")
            picked = [header.index(name) for name in table1]
            header = [header[i] for i in picked]
            # totals start at n = 2
            rows = [[row[i] for i in picked] for row in rows[1:]]
        _write_csv(rows, header, out)
    return 0


def _cmd_orbits(args) -> int:
    n, alphabet = args.n, args.alphabet
    group = _parse_group(args.group, n)
    _, minima, reps, sizes, periods = next(
        c for c in sweep_orbits(n, alphabet) if c[0] is group
    )
    ends = np.cumsum(sizes)
    keep = periods == n if args.lyndon else slice(None)
    reps, sizes, ends = reps[keep], sizes[keep], ends[keep]
    # every code under its minimum; a stable sort keeps members in word order
    order = np.argsort(minima, kind="stable") if args.full else None
    for i in range(0, reps.size, 1024):  # a block of classes bounds the text held
        block = slice(i, i + 1024)
        lines = [f"{w} {size}" for w, size in
                 zip(spell(reps[block], n, alphabet), sizes[block].tolist())]
        if args.full:
            first = ends[i] - sizes[i]
            members = spell(order[first:ends[block][-1]], n, alphabet)
            lines = [f"{line} {','.join(members[end - size:end])}" for line, end, size
                     in zip(lines, (ends[block] - first).tolist(), sizes[block].tolist())]
        sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _cmd_solve(args) -> int:
    word = Word.parse(args.word)
    p = Params(args.a, args.d)
    try:
        eq = solve_type(word, p)
    except SolveError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1
    payload = {
        "word": str(word),
        "a": p.a,
        "d": p.d,
        "u": [float(x) for x in eq.u],
        "stable": eq.stable,
        "det_sign": eq.det_sign,
        "residual_norm": eq.residual_norm,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if key == "u":
                value = " ".join(str(x) for x in value)
            print(f"{key}: {value}")
    return 0


def _cmd_region(args) -> int:
    word = Word.parse(args.word)
    compare = None if args.compare is None else Word.parse(args.compare)
    if args.a_count < 1:
        raise ValueError(f"--a-count must be at least 1, got {args.a_count}")
    if args.a_count == 1:
        grid = [args.a_min]
    else:
        width = (args.a_max - args.a_min) / (args.a_count - 1)
        grid = [args.a_min + i * width for i in range(args.a_count)]
    with _csv_out(args.out) as out:
        base = regions.scan_region(word, grid, d_cap=args.d_cap)
        other = None
        if compare is not None:
            other = regions.scan_region(compare, grid, d_cap=args.d_cap)
        header = ["word", "a", "d_max", "terminal"]
        if other is not None:
            header += ["word_b", "d_max_b", "terminal_b", "abs_dev"]
        rows = []
        for i, s in enumerate(base.samples):
            row: list = [str(word), str(s.a), str(s.d_max), s.terminal.value]
            if other is not None:
                o = other.samples[i]
                row += [
                    str(compare),
                    str(o.d_max),
                    o.terminal.value,
                    str(abs(s.d_max - o.d_max)),
                ]
            rows.append(row)
        _write_csv(rows, header, out)
    return 0


def _identities_ok(n: int) -> bool:
    s_all, s_even, s_odd = numtheory.convolution_identity_check(n)
    mu = numtheory.mobius(n)
    if s_all != mu:
        return False
    if n % 2 == 0 and (s_even != -mu or s_odd != 2 * mu):
        return False
    divs = numtheory.divisors(n)
    if sum(numtheory.euler_phi(d) for d in divs) != n:
        return False
    return sum(numtheory.mobius(d) for d in divs) == (1 if n == 1 else 0)


def _cmd_verify(args) -> int:
    # the sampled identity checks draw n from n_max + 1 .. sample_top - 1
    sample_top = 10**6
    if not 1 <= args.n_max <= sample_top - 2:
        raise ValueError(f"--n-max must lie in 1..{sample_top - 2}, got {args.n_max}")
    for flag, n_hi, alphabet in (
        ("--n-max-a2", args.n_max_a2, A2),
        ("--n-max-a3", args.n_max_a3, A3),
    ):
        limit = enumeration_limit(alphabet)
        if not 1 <= n_hi <= limit:
            raise ValueError(f"{flag} must lie in 1..{limit}, got {n_hi}")
    failures = 0

    def report(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok' if ok else 'MISMATCH'}: {label}")
        if not ok:
            failures += 1

    systematic = list(range(1, args.n_max + 1))
    rng = random.Random(args.seed)
    sampled = sorted(rng.randrange(args.n_max + 1, sample_top) for _ in range(25))
    bad = [n for n in systematic + sampled if not _identities_ok(n)]
    report(
        f"divisor-sum identities, n <= {args.n_max} plus 25 sampled "
        f"(seed {args.seed})",
        not bad,
    )
    if bad:
        print(f"  first failing n: {bad[0]}", file=sys.stderr)

    if not args.identities_only:
        for alphabet, n_hi in ((A2, args.n_max_a2), (A3, args.n_max_a3)):
            mismatches = {(g, lyndon): [] for g in GroupKind for lyndon in (False, True)}
            for n in range(1, n_hi + 1):
                for group, _, reps, _, periods in sweep_orbits(n, alphabet):
                    for lyndon in (False, True):
                        want = counting.count(alphabet, n, group, lyndon)
                        got = np.count_nonzero(periods == n) if lyndon else reps.size
                        if want != got:
                            mismatches[group, lyndon].append((n, want, got))
            for (group, lyndon), mismatch in mismatches.items():
                label = (
                    f"formula vs enumeration, {alphabet} {group.value}"
                    f"{' lyndon' if lyndon else ''} n <= {n_hi}"
                )
                report(label, not mismatch)
                for n, want, got in mismatch:
                    print(f"  n={n}: formula {want}, enumerated {got}",
                          file=sys.stderr)
        for alphabet in (A2, A3):
            bad_pairs = [
                (group, n)
                for group in GroupKind
                for n in range(1, _N_MAX_LIMIT + 1)
                if counting.count(alphabet, n, group)
                != sum(counting.count(alphabet, d, group, True)
                       for d in numtheory.divisors(n))
            ]
            report(
                f"aperiodic-root divisor sums, {alphabet} n <= {_N_MAX_LIMIT}",
                not bad_pairs,
            )
            for group, n in bad_pairs:
                print(f"  group {group.value} at n={n}", file=sys.stderr)

    print(f"verify: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nagumo-atlas",
        description="Pattern counts, orbit listings, and existence regions "
        "for periodic states of the bistable cycle network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="counting-formula table as CSV")
    p_count.add_argument("--n-max", type=int, required=True,
                         help=f"largest word length, 1..{_N_MAX_LIMIT}")
    p_count.add_argument("--alphabet", choices=[A2, A3], default=None,
                         help="restrict columns to one alphabet")
    p_count.add_argument("--table1", action="store_true",
                         help="only the four headline columns: totals and "
                         "aperiodic two-sided class counts per alphabet")
    p_count.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p_orbits = sub.add_parser("orbits", help="orbit classes, one per line")
    p_orbits.add_argument("-n", type=int, required=True, help="word length")
    p_orbits.add_argument("--alphabet", choices=[A2, A3], default=A3)
    p_orbits.add_argument("--group", default="dpi",
                          help="symmetry group token: c, d, cpi, dpi, "
                          "optionally with the length, e.g. c3 or d6pi")
    p_orbits.add_argument("--lyndon", action="store_true",
                          help="aperiodic classes only")
    p_orbits.add_argument("--full", action="store_true",
                          help="append the class members to each line")

    p_solve = sub.add_parser("solve", help="one equilibrium by continuation")
    p_solve.add_argument("--word", required=True, help="pattern, e.g. 0a1")
    p_solve.add_argument("--a", type=float, required=True, help="threshold in (0,1)")
    p_solve.add_argument("--d", type=float, required=True, help="coupling, >= 0")
    p_solve.add_argument("--json", action="store_true", help="JSON output")

    p_region = sub.add_parser("region", help="d_max boundary scan as CSV")
    p_region.add_argument("--word", required=True)
    p_region.add_argument("--a-min", type=float, required=True)
    p_region.add_argument("--a-max", type=float, required=True)
    p_region.add_argument("--a-count", type=int, required=True,
                          help="number of grid points")
    p_region.add_argument("--d-cap", type=float, default=regions.DEFAULT_D_CAP,
                          help="stop the march at this coupling")
    p_region.add_argument("--compare", default=None,
                          help="second word; adds its heights and |deviation|")
    p_region.add_argument("--out", default=None,
                          help="write CSV here instead of stdout")

    p_verify = sub.add_parser("verify", help="cross-check formulas and identities")
    p_verify.add_argument("--n-max-a2", type=int, default=12,
                          help="enumeration bound for the two-letter alphabet")
    p_verify.add_argument("--n-max-a3", type=int, default=8,
                          help="enumeration bound for the three-letter alphabet")
    p_verify.add_argument("--n-max", type=int, default=256,
                          help="systematic bound for divisor-sum identities")
    p_verify.add_argument("--identities-only", action="store_true",
                          help="skip the enumeration cross-checks")
    p_verify.add_argument("--seed", type=int, default=1729,
                          help="seed for the sampled identity checks")

    return parser


_HANDLERS = {
    "count": _cmd_count,
    "orbits": _cmd_orbits,
    "solve": _cmd_solve,
    "region": _cmd_region,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
