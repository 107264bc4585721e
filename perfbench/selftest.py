"""Self-test of the benchmark's checks: each must flag a corrupted result.

    python3 perfbench/selftest.py

Feeds every check of checks.py one result known to be right and one
corrupted on purpose: a height above the analytic fold, a constant state
reported for 0a1, a class count off by one, and a symmetry deviation of
1e-6. Needs numpy only, not the package. run.py runs it before every
benchmark run and refuses to measure if a check is blind.
"""

from __future__ import annotations

import sys

import checks


def run() -> list[str]:
    """Names of the cases a check got wrong; empty when all is well."""
    a = 0.3
    fold_0a = checks.pitchfork(a)
    count_rows = [
        {"n": "6", "N_a3": "130", "B_a3": "92",
         "BLpi_a2": str(checks.aperiodic_orbit_count(6, 2, True, True)),
         "total_a3": str(checks.expected_count("total", "a3", 6))},
        {"n": "1", "Bpi_a3": "2", "total_a3": ""},
    ]
    off_by_one = [dict(count_rows[0], N_a3=str(int(count_rows[0]["N_a3"]) + 1))]
    orbit_lines = ["00 2", "0a 4", "01 2", "aa 1"]
    not_minimal = ["00 2", "1a 4", "01 2", "aa 1"]
    cases = {
        # (passes on the right result, flags the corrupted one)
        "fold of 01 at a=1/2": (
            checks.fold_01_ok(1 / 16 - 6.25e-8),
            not checks.fold_01_ok(1 / 16 + 1e-6),
        ),
        "pitchfork bound of 0a": (
            checks.pitchfork_ok(a, fold_0a - 1.5e-7),
            not checks.pitchfork_ok(a, fold_0a + 1e-6),
        ),
        "constant state for 0a1": (
            not checks.equilibrium_problems("0a1", a, 0.0, [0.0, a, 1.0], False),
            bool(checks.equilibrium_problems("0a1", a, 0.01, [a, a, a], False)),
        ),
        "stability flag": (
            not checks.equilibrium_problems("01", a, 0.0, [0.0, 1.0], True),
            bool(checks.equilibrium_problems("01", a, 0.0, [0.0, 1.0], False)),
        ),
        "residual": (
            not checks.residual_max([0.0, a, 1.0], a, 0.0),
            bool(checks.equilibrium_problems("01", a, 0.0, [1e-9, 1.0], True)),
        ),
        "class count off by one": (
            not checks.count_table_problems(count_rows),
            bool(checks.count_table_problems(off_by_one)),
        ),
        "orbit listing": (
            not checks.orbit_listing_problems(orbit_lines, 2, 3),
            bool(checks.orbit_listing_problems(not_minimal, 2, 3)),
        ),
        "symmetry deviation 1e-6": (
            checks.symmetry_deviation_ok(0.0),
            not checks.symmetry_deviation_ok(1e-6),
        ),
        "0a family": (
            checks.in_0a_family("a1a1") and checks.in_0a_family("0a"),
            not checks.in_0a_family("0a1") and not checks.in_0a_family("00"),
        ),
    }
    failures = []
    for name, (passes, flags) in cases.items():
        if not passes:
            failures.append(f"{name}: a right result was flagged")
        if not flags:
            failures.append(f"{name}: the corrupted result was not flagged")
    return failures


if __name__ == "__main__":
    problems = run()
    for line in problems:
        print(line)
    print("selftest: " + ("all checks flag their corrupted result" if not problems else "FAILED"))
    sys.exit(1 if problems else 0)
