"""Closed-loop task runner, in-memory span recorder and metric reduction.

A workload is a ``setup`` that makes every input from the seed and a
``task`` that issues a fixed sequence of library calls. The runner runs
tasks back to back, one client, each starting when the previous one has
returned. Every library call goes through :meth:`Runner.call` (or
:meth:`Runner.expect` for inputs that must be rejected), which times it,
counts failures and, on sampled tasks, checks the output against the
bare-numpy reference with the clock paused. The set-ups are spread over
the run, between tasks, so that ``setup_s`` samples the host across the
same window as the task latencies.

Untraced runs report the end-to-end metrics. Traced runs interleave
plain tasks, traced tasks, which record one span per call under their
task span, and allocation probes, which run under tracemalloc. Spans stay
in memory and are written to ``bench/out/`` when the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import resource
import statistics
import sys
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import reference as R

OUT_DIR = Path(__file__).resolve().parent / "out"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# setup_s is the median of this many full set-ups, evenly spaced over the
# run. Each one replaces the workload's inputs, so evolved states restart
# from the seed's.
SETUP_REPS = 9
CHECK_EVERY = 3  # every third task is checked against the reference
# The tail percentile. ket_circuit, the slowest workload, completes about
# 100 tasks in a 30 s run at this commit's rate, so more than twenty lie
# beyond p75 in every workload. Higher percentiles measured the host
# instead of the program: on a 2-vCPU VM the speed moved by up to half
# for seconds to minutes at a time. When a slow spell covered a tenth of a
# run, p90 doubled while p50 held.
TAIL_PCT = 75

# Public functions the workloads call, by layer. Each gets calls, fail,
# busy_s and p50_us; the contraction kernels also get ref_ratio, alloc_mb
# and gbps_computed.
FUNCTIONS = [
    "operations.apply",
    "operations.apply_ctrl",
    "operations.apply_channel",
    "operations.ptrace",
    "operations.ptranspose",
    "operations.kraus2super",
    "operations.kraus2choi",
    "operations.choi2kraus",
    "operations.syspermute",
    "measurement.measure",
    "gates.Zd",
    "gates.ctrl_gate",
    "entropies.entropy",
    "entropies.qmutualinfo",
    "linalg.hevals",
    "iofmt.save",
    "iofmt.load",
    "randomness.rand_unitary",
    "randomness.rand_ket",
    "randomness.rand_rho",
    "randomness.rand_perm",
    "states.mket",
    "states.shor_codeword",
]
KERNELS = [
    "operations.apply",
    "operations.apply_ctrl",
    "operations.apply_channel",
    "operations.ptrace",
    "measurement.measure",
]
FUNCTION_METRICS = [
    ("calls", "count", "higher"),
    ("fail", "count", "lower"),
    ("busy_s", "s", "lower"),
    ("p50_us", "us", "lower"),
]
KERNEL_METRICS = [
    ("ref_ratio", "ratio", "lower"),
    ("alloc_mb", "MB", "lower"),
    ("gbps_computed", "GB/s", "higher"),
]
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("task_p50_ms", "ms", "lower"),
    ("task_tail_ms", "ms", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    specs = []
    for fn in FUNCTIONS:
        specs += [(f"{fn}.{m}", u, b) for m, u, b in FUNCTION_METRICS]
        if fn in KERNELS:
            specs += [(f"{fn}.{m}", u, b) for m, u, b in KERNEL_METRICS]
    specs += [("bench.glue_s", "s", "lower"), ("trace.overhead_pct", "%", "lower")]
    return specs


def import_quditsim():
    """Import quditsim afresh from this checkout's ``src``, never from
    anywhere else on the path, so every set-up pays the package import."""
    for name in [m for m in sys.modules if m == "quditsim" or m.startswith("quditsim.")]:
        del sys.modules[name]
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    qs = importlib.import_module("quditsim")
    if Path(qs.__file__).resolve().parent.parent != SRC_DIR:
        raise ImportError(f"quditsim imported from {qs.__file__}, not from {SRC_DIR}")
    return qs


class TaskFailed(Exception):
    """A call raised when it should not have; the rest of the task is skipped."""


class Runner:
    """Times, checks and (optionally) traces the library calls of one run."""

    def __init__(self, qs, per_layer: bool):
        self.qs = qs
        self.per_layer = per_layer  # keep what the per-layer metrics need
        self.checking = False
        self.tracing = False
        self.allocating = False
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, task id)
        self.parent = None
        self.task = None
        self.paused = 0.0
        self.task_failed = False
        self.incorrect = 0
        self.case_calls: Counter = Counter()
        self.case_fails: Counter = Counter()
        self.fn_calls: Counter = Counter()
        self.fn_fails: Counter = Counter()
        self.failure_notes: dict[str, str] = {}
        self.ref_pairs: dict[str, list] = defaultdict(list)  # name -> [(call s, ref s)]
        self.alloc: dict[str, list] = defaultdict(list)  # name -> [peak new bytes]
        self.moved: dict[str, list] = defaultdict(list)  # name -> [(bytes, s)]

    def span(self, name: str, start: float, end: float) -> int:
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, self.parent, self.task))
        return sid

    def _fail(self, name: str, case: str, note: str) -> None:
        self.task_failed = True
        self.fn_fails[name] += 1
        self.case_fails[case] += 1
        self.failure_notes.setdefault(case, note)

    def call(self, name: str, fn, *args, check=None, check_always: bool = False,
             moved: int = 0, case: str | None = None):
        """Call ``fn(*args)`` as the public function ``name`` (module.function).

        ``check(out) -> (relative error, reference seconds)`` runs on sampled
        tasks, or on every task with ``check_always``, outside the task's
        time. ``moved`` is the computed number of bytes the ideal kernel
        reads and writes, for ``gbps_computed``.
        """
        case = case or name
        self.case_calls[case] += 1
        self.fn_calls[name] += 1
        if self.allocating:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # any raise on valid input is a failed task
            t1 = perf_counter()
            if self.tracing:
                self.span(name, t0, t1)
            self._fail(name, case, f"raised {exc!r}")
            raise TaskFailed(case) from exc
        t1 = perf_counter()
        if self.allocating:
            self.alloc[name].append(tracemalloc.get_traced_memory()[1] - base)
        if self.tracing:
            self.span(name, t0, t1)
            if moved:
                self.moved[name].append((moved, t1 - t0))
        if check is not None and (self.checking or check_always):
            c0 = perf_counter()
            try:
                err, ref_s = check(out)
                why = None
            except Exception as exc:  # an output the reference cannot read is wrong
                err, ref_s, why = math.inf, None, f"check raised {exc!r}"
            if self.per_layer and ref_s is not None and not (self.tracing or self.allocating):
                self.ref_pairs[name].append((t1 - t0, ref_s))
            if not err <= R.TOL:
                self.incorrect += 1
                self._fail(name, case, why or f"relative error {err:.3g} > {R.TOL:g}")
            c1 = perf_counter()
            self.paused += c1 - c0
            if self.tracing:
                self.span("bench.check", c0, c1)
        return out

    def expect(self, name: str, kind, fn, *args, case: str) -> None:
        """Call ``fn(*args)``, which must raise QuantumError of ``kind``."""
        self.case_calls[case] += 1
        self.fn_calls[name] += 1
        t0 = perf_counter()
        try:
            fn(*args)
            note = "returned instead of raising"
        except self.qs.QuantumError as exc:
            note = None if exc.kind == kind else f"raised {exc.kind} instead of {kind}"
        except Exception as exc:  # a non-library error is a failure too
            note = f"raised {exc!r} instead of {kind}"
        t1 = perf_counter()
        if self.tracing:
            self.span(name, t0, t1)
        if note is not None:
            self.incorrect += 1
            self._fail(name, case, note)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for cs, ce in sorted(children[sid]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append(end - start - covered)
    return out


def tail(latencies: list[float]) -> tuple[float, int]:
    """(nearest-rank TAIL_PCT percentile, number of tasks beyond it)."""
    xs = sorted(latencies)
    rank = max(1, math.ceil(TAIL_PCT / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


def run_workload(workload_cls, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Run the closed loop for ``seconds``, setting up SETUP_REPS times
    along the way, and return the result object the benchmark prints."""
    run = Runner(None, per_layer=trace)
    setup_times = []

    def set_up():
        # a set-up's calls (randomness.*, gates.Zd) count, and are traced as
        # spans outside any task; its warm-up tasks go to a throwaway runner
        t0 = perf_counter()
        run.qs = import_quditsim()
        workload = workload_cls()
        run.task, run.tracing, run.checking = None, trace, False
        workload.setup(run, run.qs, seed, tiny)
        run.tracing = False
        warm = Runner(run.qs, per_layer=False)
        for i in range(workload.warmup):
            try:
                workload.task(warm, i)
            except TaskFailed:
                pass
        setup_times.append(perf_counter() - t0)
        return workload

    begin = perf_counter()
    deadline = begin + seconds
    workload = set_up()

    # In a traced run, tasks take turns: plain, traced (spans), plain, and
    # an allocation probe under tracemalloc, which is too slow to share a
    # task with the spans it would distort. Only plain tasks run untraced
    # mode's code path, so they are the base of trace.overhead_pct.
    roles = ("plain", "traced", "plain", "alloc") if trace else ("plain",)
    latencies = {role: [] for role in roles}
    attempted = failed = 0
    i = 0
    while True:
        if len(setup_times) < SETUP_REPS and (
            perf_counter() >= begin + len(setup_times) * seconds / SETUP_REPS
        ):
            workload = None  # free the old inputs before drawing new ones
            workload = set_up()
        role = roles[i % len(roles)]
        run.checking = i % CHECK_EVERY == 0
        run.paused = 0.0
        run.task_failed = False
        run.task = i
        run.allocating = role == "alloc"
        if run.allocating:
            tracemalloc.start()
        t0 = perf_counter()
        if role == "traced":
            run.tracing = True
            run.parent = run.span("task", t0, t0)
        try:
            workload.task(run, i)
        except TaskFailed:
            pass
        t1 = perf_counter()
        if role == "traced":
            sid, name, start, _, parent, task = run.spans[run.parent]
            run.spans[run.parent] = (sid, name, start, t1, parent, task)
            run.tracing, run.parent = False, None
        if run.allocating:
            tracemalloc.stop()
            run.allocating = False
        latencies[role].append(t1 - t0 - run.paused)
        attempted += 1
        failed += run.task_failed
        i += 1
        if t1 >= deadline and i >= len(roles) and len(setup_times) == SETUP_REPS:
            break

    lat = latencies["plain"]
    info = {
        "workload": workload.name,
        "seed": seed,
        "tasks": attempted,
        "checked_tasks": (attempted + CHECK_EVERY - 1) // CHECK_EVERY,
        "tolerance": R.TOL,
        "failures_by_case": {
            case: {"calls": run.case_calls[case], "failed": n, "first": run.failure_notes[case]}
            for case, n in sorted(run.case_fails.items())
        },
    }
    if trace:
        metrics = _per_layer(run, latencies, info)
        _write_spans(run.spans, workload.name, seed)
    else:
        p_tail, beyond = tail(lat)
        info["task_tail_percentile"] = TAIL_PCT
        info["tasks_beyond_tail"] = beyond
        values = {
            "setup_s": statistics.median(setup_times),
            "task_p50_ms": 1e3 * statistics.median(lat),
            "task_tail_ms": 1e3 * p_tail,
            "tasks_per_s": len(lat) / sum(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
    return {
        "info": info,
        "result": {
            "correct": run.incorrect == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _per_layer(run: Runner, latencies, info) -> dict:
    # set-up spans have no task; the rest are task spans, their calls and
    # the checks run inside them
    selfs = self_times(run.spans)
    by_name = defaultdict(list)
    glue = task_busy = 0.0
    for (sid, name, start, end, parent, task), own in zip(run.spans, selfs):
        if name == "task":
            glue += own
        elif name != "bench.check":
            by_name[name].append((end - start, own))
            task_busy += own if task is not None else 0.0
    values = {}
    for fn in FUNCTIONS:
        recs = by_name.get(fn, [])
        values[f"{fn}.calls"] = run.fn_calls[fn]
        values[f"{fn}.fail"] = run.fn_fails[fn]
        values[f"{fn}.busy_s"] = sum(own for _, own in recs)
        values[f"{fn}.p50_us"] = 1e6 * statistics.median(d for d, _ in recs) if recs else 0.0
        if fn in KERNELS:
            pairs = run.ref_pairs.get(fn, [])
            # per call, so that calls of different sizes compare like with like
            values[f"{fn}.ref_ratio"] = statistics.median(c / r for c, r in pairs) if pairs else 0.0
            allocs = run.alloc.get(fn, [])
            values[f"{fn}.alloc_mb"] = max(allocs) / 2**20 if allocs else 0.0
            moved = run.moved.get(fn, [])
            values[f"{fn}.gbps_computed"] = (
                sum(b for b, _ in moved) / sum(s for _, s in moved) / 1e9 if moved else 0.0
            )
    values["bench.glue_s"] = glue
    untraced, traced = latencies["plain"], latencies["traced"]
    values["trace.overhead_pct"] = (
        100.0 * (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)) - 100.0
        if traced
        else 0.0
    )
    info["traced_task_s"] = sum(traced)
    info["traced_busy_s"] = task_busy
    info["traced_glue_s"] = glue
    units = {name: unit for name, unit, _ in per_layer_specs()}
    return {name: {"value": values[name], "unit": units[name]} for name, _, _ in per_layer_specs()}


def _write_spans(spans, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w") as fh:
        for sid, name, start, end, parent, task in spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "task": task}) + "\n")
