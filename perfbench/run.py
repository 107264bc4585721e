"""Benchmark of nagumo-atlas: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and README.md): symmetry_sweep, region_atlas,
point_queries, census. The package is imported from src/ of the checkout
that holds this file. A run first checks its own checks (selftest.py),
times set-up in fresh interpreters, builds the inputs from the seed and
warms up, then runs whole rounds of the workload until S seconds have
passed, checking every output.

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced round
for reference, then traced rounds, and prints the per-layer metrics with
the tracing overhead; the spans go to perfbench/results/. Every run also
writes its full result, with the machine's facts, to perfbench/results/.
The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_SAMPLES = 5
SETUP_TIMEOUT = 60


def _import_package():
    """Import nagumo_atlas from the checkout's src/, and nowhere else."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import nagumo_atlas
    except ImportError as exc:
        raise SystemExit(f"run.py: cannot import nagumo_atlas from {ROOT / 'src'}: {exc}")
    where = Path(nagumo_atlas.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"run.py: nagumo_atlas was imported from {where}, not from src/")
    return nagumo_atlas


def _setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and one warm-up call: what set-up times."""
    _import_package()
    import workloads

    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm_up()
    return wl


def _setup_seconds(args, workdir: Path) -> list[float]:
    """Set-up time of fresh interpreters, each from its own start."""
    samples = []
    for i in range(SETUP_SAMPLES):
        child_dir = workdir / f"setup-{i}"
        child_dir.mkdir()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(child_dir)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT)
        if done.returncode != 0:
            raise SystemExit(f"run.py: set-up failed:\n{done.stderr}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _rounds(wl, rec, seconds: float) -> int:
    """Whole rounds until `seconds` have passed; at least one."""
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        rec.rounds.append([])
        wl.run_round(rec)
        rounds += 1
    return rounds


def _machine() -> dict:
    import multiprocessing

    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "pool_start_method": multiprocessing.get_start_method(),
        "NAGUMO_ATLAS_THREADS": os.environ.get("NAGUMO_ATLAS_THREADS"),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(rec, setup: list[float]) -> dict:
    """Figures of one round, each call timed by its fastest round."""
    ops = rec.attempted / len(rec.rounds)
    wall = [w for w, _ in rec.fastest()]
    cpu = [c for _, c in rec.fastest()]
    return {
        "setup_s": _metric(statistics.median(setup), "s"),
        "ops_per_s": _metric(ops / sum(wall), "1/s"),
        "call_ms_p50": _metric(1e3 * statistics.median(wall), "ms"),
        "cpu_ms_per_op": _metric(1e3 * sum(cpu) / ops, "ms"),
        "peak_rss_mib": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def _traced(args, workdir: Path, per_layer_units: dict) -> tuple[dict, dict, list]:
    """Traced set-up, an untraced reference round, then traced rounds."""
    _import_package()
    import tracing
    import workloads

    tracer = tracing.Tracer("nagumo_atlas", workdir)
    tracer.install()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    wl.warm_up()
    reference = workloads.Record()
    _rounds(wl, reference, 0.0)

    rec = workloads.Record(pause=tracer.paused)
    tracer.install()
    try:
        rounds = _rounds(wl, rec, args.seconds)
    finally:
        tracer.uninstall()
    spans = tracer.take()

    name = f"{args.workload}-seed{args.seed}-spans.json.gz"
    tracing.write_spans(RESULTS / name, setup_spans, spans)
    values = tracing.layer_metrics(setup_spans, spans, rounds, rec.attempted, len(rec.calls))
    per_op_traced = sum(w for w, _ in rec.calls) / rec.attempted
    per_op_plain = sum(w for w, _ in reference.calls) / reference.attempted
    values["trace.overhead_pct"] = 100.0 * (per_op_traced / per_op_plain - 1.0)
    metrics = {k: _metric(v, per_layer_units[k]) for k, v in values.items()}
    extra = {
        "rounds": rounds,
        "spans": len(spans),
        "spans_file": name,
        "untraced_ms_per_op": 1e3 * per_op_plain,
        "traced_ms_per_op": 1e3 * per_op_traced,
    }
    return metrics, extra, [reference, rec]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only is not None:
        _setup(args.workload, args.seed, Path(args.setup_only))
        print(time.perf_counter() - _START)
        return 0

    _import_package()
    import selftest
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    failures = selftest.run()
    if failures:
        raise SystemExit("run.py: the benchmark's own checks are broken:\n" + "\n".join(failures))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            metrics, extra, records = _traced(args, workdir, per_layer_units)
        else:
            setup = _setup_seconds(args, workdir)
            wl = _setup(args.workload, args.seed, workdir)
            rec = workloads.Record()
            extra = {"rounds": _rounds(wl, rec, args.seconds), "setup_samples_s": setup}
            metrics = _end_to_end(rec, setup)
            records = [rec]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [p for r in records for p in r.problems]
    notes = [n for r in records for n in r.notes]
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in records),
        "failed": sum(r.failed for r in records),
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, operation=workloads.WORKLOADS[args.workload].op,
                  calls=sum(len(r.calls) for r in records), problems=problems[:50],
                  notes=len(notes), first_notes=notes[:20], machine=_machine(), **extra)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
