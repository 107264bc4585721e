"""Span tracer for traced benchmark runs, installed from outside the package.

Tracer.install() swaps every public function of the package's six modules,
the ray march that scan_region hands to its pool workers, and numpy.linalg's
solve, slogdet and eigvalsh for wrappers that append one span per call to a
list in memory: name, start, end, parent span, a work count (rays, words or
matrices) and CPU time where asked. Every reference the package's modules
hold to a wrapped function is swapped, so calls between modules are traced
too. Tracer.uninstall() puts the originals back; the source is not touched.

Pool workers are forked copies of the traced process. Each spills the spans
of one pool task to a small file when the task returns, and Tracer.take()
merges those files into the span list, keeping each span's process id.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("numtheory", "words", "counting", "gde", "regions", "cli")
LINALG = ("solve", "slogdet", "eigvalsh")

# span fields
NAME, START, END, PARENT, COUNT, CPU, PID = range(7)


def cpu_seconds() -> float:
    """CPU time of this process and of the children it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _matrices(args, kwargs) -> int:
    a = args[0]
    return math.prod(a.shape[:-2]) if getattr(a, "ndim", 2) > 2 else 1


def _grid_rays(per_threshold: int):
    def count(args, kwargs) -> int:
        grid = args[1] if len(args) > 1 else kwargs["a_grid"]
        return per_threshold * len(grid)

    return count


def _enumerated_words(args, kwargs) -> int:
    n = args[0] if args else kwargs["n"]
    alphabet = args[1] if len(args) > 1 else kwargs.get("alphabet", "a3")
    return (2 if alphabet == "a2" else 3) ** n


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    argv = sys.argv[1:] if argv is None else argv
    return f"cli.{argv[0]}" if argv else "cli.main"


# work counts and CPU timing for the spans the per-layer metrics read
_COUNTS = {
    "regions.verify_region_symmetries": _grid_rays(4),
    "regions.scan_region": _grid_rays(1),
    "regions.d_max": lambda args, kwargs: 1,
    "regions._march": lambda args, kwargs: len(args[0]),
    "words.enumerate_orbits": _enumerated_words,
}
_TIMED_CPU = ("regions.scan_region",)


class Tracer:
    def __init__(self, package: str, spill_dir: Path):
        self.package = package
        self.spill_dir = spill_dir
        self.home_pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count=None, cpu=False, spill=False):
        spans, stack, perf = self.spans, self._stack, time.perf_counter
        named = callable(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name(args, kwargs) if named else name,
                perf(),
                0.0,
                stack[-1] if stack else -1,
                count(args, kwargs) if count else 0,
                0.0,
            ]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            cpu0 = cpu_seconds() if cpu else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf()
                if cpu:
                    span[CPU] = cpu_seconds() - cpu0
                stack.pop()
                if spill and os.getpid() != self.home_pid:
                    self._spill(index)

        return traced

    def _spill(self, first: int) -> None:
        """Hand a pool task's spans to the home process and drop them here.
        A parent inside the task is stored relative to its first span, one
        in the home process at index p as -2 - p (no parent stays -1)."""
        rows = []
        for name, start, end, parent, count, cpu in self.spans[first:]:
            parent = parent - first if parent >= first else -2 - parent
            rows.append([name, start, end, parent, count, cpu])
        del self.spans[first:]
        path = self.spill_dir / f"spill-{os.getpid()}-{time.monotonic_ns()}.json"
        path.write_text(json.dumps({"pid": os.getpid(), "spans": rows}))

    def install(self) -> None:
        import numpy.linalg

        modules = [importlib.import_module(self.package)]
        targets: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{self.package}.{layer}")
            modules.append(module)
            for attr, obj in vars(module).items():
                own = getattr(obj, "__module__", None) == module.__name__
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj) or not own:
                    continue
                key = f"{layer}.{attr}"
                name = _cli_name if key == "cli.main" else key
                targets[id(obj)] = (
                    obj,
                    self._wrap(name, obj, _COUNTS.get(key), key in _TIMED_CPU),
                )
            if layer == "regions":
                march = module._march
                targets[id(march)] = (
                    march,
                    self._wrap("regions._march", march, _COUNTS["regions._march"], spill=True),
                )
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))
        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            setattr(numpy.linalg, attr, self._wrap(f"numpy.linalg.{attr}", fn, _matrices))
            self._patched.append((numpy.linalg, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside go untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def take(self) -> list[list]:
        """Every span recorded so far, pool workers' included, each with its
        process id; the tracer starts empty again."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = [span + [self.home_pid] for span in self.spans]
        home = len(out)
        for path in sorted(self.spill_dir.glob("spill-*.json")):
            spill = json.loads(path.read_text())
            path.unlink()
            offset = len(out)
            for name, start, end, parent, count, cpu in spill["spans"]:
                if parent >= 0:
                    parent += offset
                elif -2 - parent >= home:
                    raise RuntimeError("a pool task's parent span is not a home span")
                else:
                    parent = -2 - parent
                out.append([name, start, end, parent, count, cpu, spill["pid"]])
        self.spans.clear()
        return out


def write_spans(path: Path, setup: list[list], measured: list[list]) -> None:
    fields = ["name", "start", "end", "parent", "count", "cpu", "pid"]
    with gzip.open(path, "wt", encoding="utf-8") as out:
        json.dump({"fields": fields, "setup": setup, "measured": measured}, out)


# --- per-layer metrics ------------------------------------------------------


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span less that of its children in the same process
    (pool tasks run beside their parent, not inside its time)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT]
        if p >= 0 and spans[p][PID] == s[PID]:
            own[p] -= s[END] - s[START]
    return own


def _outermost(spans: list[list], layers: tuple[str, ...]) -> list[list]:
    """Spans of the given layers with no ancestor of those layers in their
    own process."""
    out = []
    for s in spans:
        if _layer(s[NAME]) not in layers:
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][PID] == s[PID] and _layer(spans[p][NAME]) not in layers:
            p = spans[p][PARENT]
        if p < 0 or spans[p][PID] != s[PID]:
            out.append(s)
    return out


def layer_metrics(
    setup: list[list], spans: list[list], rounds: int, ops: int, calls: int
) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from the spans of the traced
    rounds (home process first), and of set-up for words.representatives."""
    by_name: dict[str, list[list]] = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def seconds(rows):
        return sum(s[END] - s[START] for s in rows)

    def p50_ms(name, field=None):
        rows = by_name.get(name, [])
        values = [s[field] if field else s[END] - s[START] for s in rows]
        return 1e3 * statistics.median(values) if values else 0.0

    def matrices(name):
        return sum(s[COUNT] for s in by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    own = self_times(spans)

    def self_ms(layer):
        return 1e3 * sum(t for s, t in zip(spans, own) if _layer(s[NAME]) == layer) / rounds

    home = spans[0][PID] if spans else None
    rays = [s for s in _outermost(spans, ("regions",)) if s[PID] == home and s[COUNT]]
    linalg: dict[int, float] = {}
    for s in spans:
        if _layer(s[NAME]) == "numpy":
            linalg[s[PID]] = linalg.get(s[PID], 0.0) + s[END] - s[START]
    solver = [s for s in _outermost(spans, ("regions", "gde")) if s[PID] in linalg]
    orbits = [s for s in _outermost(spans, ("words",)) if s[NAME] == "words.enumerate_orbits"]
    solves = len(by_name.get("numpy.linalg.solve", []))
    return {
        "regions.verify_region_symmetries.ms_p50": p50_ms("regions.verify_region_symmetries"),
        "regions.rays_per_s": ratio(sum(s[COUNT] for s in rays), seconds(rays)),
        "regions.scan_region.ms_p50": p50_ms("regions.scan_region"),
        "regions.scan_region.cpu_ms_p50": p50_ms("regions.scan_region", CPU),
        "regions.d_max.ms_p50": p50_ms("regions.d_max"),
        "regions.membership.ms_p50": p50_ms("regions.membership"),
        "gde.solve_type.ms_p50": p50_ms("gde.solve_type"),
        "gde.eigvalsh_matrices_per_op": ratio(matrices("numpy.linalg.eigvalsh"), ops),
        "gde.newton_matrices_per_op": ratio(matrices("numpy.linalg.solve"), ops),
        "gde.slogdet_matrices_per_op": ratio(matrices("numpy.linalg.slogdet"), ops),
        "gde.newton_rounds_per_call": ratio(solves, calls),
        "gde.matrices_per_solve_call": ratio(matrices("numpy.linalg.solve"), solves),
        "gde.linalg_ms_share": ratio(sum(linalg.values()), seconds(solver)),
        "words.enumerate_orbits.ms": 1e3 * seconds(orbits) / rounds,
        "words.enumerate_orbits.words_per_s": ratio(sum(s[COUNT] for s in orbits), seconds(orbits)),
        "words.representatives.ms": 1e3
        * seconds(s for s in setup if s[NAME] == "words.representatives"),
        "counting.count_table.ms": 1e3 * seconds(by_name.get("counting.count_table", [])) / rounds,
        "numtheory.self_ms": self_ms("numtheory"),
        "cli.verify.ms": p50_ms("cli.verify"),
        "cli.count.ms": p50_ms("cli.count"),
        "cli.orbits.ms": p50_ms("cli.orbits"),
        "cli.region.ms_p50": p50_ms("cli.region"),
        "cli.self_ms": self_ms("cli"),
    }
