"""Benchmark for matterwave: CLI latency, kernel cost per segment, geometry reuse.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, at most one matterwave child at a time):

* ``cli-small``: one ``python -m matterwave.cli`` process per operation over
  the golden scenes, seeded 1e3-segment scenes, ``verify``, Earth-centred
  loops and inputs that must be refused.
* ``cli-large``: one CLI process per operation on seeded 1e5-segment scenes.
* ``lib-scan``: one scan child imports matterwave, builds 1e3-segment
  geometries once, then evaluates a new rigid motion per operation.

Inputs come from ``--seed`` only and live in a temporary directory under
``.perfbench_tmp/`` that is removed at exit. Every operation's output is
checked against the numpy reference in ``reference.py``. Each run performs
a fixed number of whole cycles over the workload's cases, sized from
``--seconds`` so that the run takes about that long on a 2-core Xeon
(``CYCLE_S``). The number of operations, and so ``attempted`` and ``failed``,
depends on ``--seconds`` only, never on the speed of the machine or the
seed. Each case gets the same weight in the reported percentiles and ratios.
Medians are reported per geometry kind (closed or open loop); the 90th
percentile and the ratios take every operation.
Times are reported at reference CPU speed (see ``calib.py``); the wall-clock
figures are printed alongside.

``failed`` counts every operation whose output is wrong, including the
cases listed as known defects of the program (``inputs.DEFECT_C`` and
``DEFECT_D``); ``correct`` is false only when some other operation fails.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the cycle
once without and once with layer spans and prints the per-layer metrics.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "data")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")

import calib  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

SETUP_REPEATS = 7
INTERPRETER_REPEATS = 5
CHILD_TIMEOUT_S = 120
REUSE_SAMPLE_S = 0.25  # a calibration sample this recent still describes the CPU
PAUSE_EVERY_S = 0.25  # compute-sampling period inside a long CLI operation
P90_MIN_OPS = 100  # below this a 90th percentile has fewer than ten samples beyond it
# Wall time of one cycle over a workload's cases on a 2-core Xeon (Python 3.11),
# including the calibrations around each operation: cli-small 13-16 s,
# cli-large 21-36 s, lib-scan (two operations) 0.1-0.12 s.
CYCLE_S = {"cli-small": 14.0, "cli-large": 24.0, "lib-scan": 0.11}


def cycles_for(workload: str, seconds: float) -> int:
    """Whole cycles a run performs: a pure function of ``--seconds``."""
    return max(1, round(seconds / CYCLE_S[workload]))

END_TO_END = {
    "setup_s": "s",
    "op_ms_p50_closed": "ms",
    "op_ms_p50_open": "ms",
    "op_ms_p90": "ms",
    "us_per_segment": "us/segment",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# North-star baseline table of ROADMAP.md (2-core virtual machine, Python 3.11,
# medians of 10), as (label, value, unit).
BASELINE = {
    "interpreter": ("bare `python -c pass`", 65.0, "ms"),
    "import": ("`import matterwave`", 112.0, "ms"),
    "phase_golden": ("`matterwave phase` on slow_atom_open.json", 161.0, "ms"),
    "verify42": ("`matterwave verify --seed 42`", 405.0, "ms"),
    "two_path": ("`two_path_difference`", 26.5, "us/segment (23-30)"),
    "circulation": ("`circulation`", 53.0, "us/segment"),
}


class ChildTimeout(Exception):
    pass


@dataclass
class Child:
    exit_code: int
    wall_ms: float   # wall clock
    ms: float        # wall clock at reference speed (see calib.py)
    slowdown: tuple  # (start-up, compute) slowdown over the child's run
    rss_mb: float
    cpu_s: float
    stdout: bytes
    stderr: bytes


class Runner:
    """Starts one child at a time and accounts for it with os.wait4.

    Every child is bracketed by ``calib.sample()``; a sample taken just after
    one child serves as the one before the next.
    """

    def __init__(self, tmp: str):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        )
        self.out = os.path.join(tmp, "child.stdout")
        self.err = os.path.join(tmp, "child.stderr")
        self.peak_rss_mb = 0.0
        self.cpu_s = 0.0
        self.speeds: list[tuple[float, float]] = []
        self._last = (0.0, None)

    def _sample_before(self):
        taken_at, speed = self._last
        if speed is None or time.perf_counter() - taken_at > REUSE_SAMPLE_S:
            speed = calib.sample()
        return speed

    def spawn(self, args: list[str], startup_ms: float, pause: bool, track: bool = True) -> Child:
        """Run one child to its end; see calib.at_reference for ``startup_ms``.

        With ``pause`` the child is stopped every PAUSE_EVERY_S for a compute
        sample; the stopped time is not counted.
        """
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, self.out, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err, flags, 0o644),
        ]
        before = self._sample_before()
        compute = before[1]
        segments = []
        start = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env, file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            poller = select.poll()
            poller.register(pidfd, select.POLLIN)
            deadline = time.perf_counter() + CHILD_TIMEOUT_S
            while True:
                if poller.poll(1e3 * PAUSE_EVERY_S if pause else 1e3 * CHILD_TIMEOUT_S):
                    _, status, usage = os.wait4(pid, 0)
                    break
                if time.perf_counter() > deadline:
                    raise ChildTimeout(args)
                if not pause:
                    continue
                os.kill(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):
                    break
                end = time.perf_counter_ns()
                now = calib.compute_slowdown()
                segments.append([(end - start) / 1e6, 0.5 * (compute + now)])
                compute = now
                os.kill(pid, signal.SIGCONT)
                start = time.perf_counter_ns()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            os.close(pidfd)
        end = time.perf_counter_ns()
        after = calib.sample()
        self._last = (time.perf_counter(), after)
        self.speeds.append(after)
        segments.append([(end - start) / 1e6, 0.5 * (compute + after[1])])
        startup = 0.5 * (before[0] + after[0])
        with open(self.out, "rb") as fh:
            stdout = fh.read()
        with open(self.err, "rb") as fh:
            stderr = fh.read()
        child = Child(
            exit_code=os.waitstatus_to_exitcode(status),
            wall_ms=sum(wall for wall, _ in segments),
            ms=calib.at_reference(segments, startup, startup_ms),
            slowdown=(startup, sum(w * c for w, c in segments) / sum(w for w, _ in segments)),
            rss_mb=usage.ru_maxrss / 1024.0,
            cpu_s=usage.ru_utime + usage.ru_stime,
            stdout=stdout,
            stderr=stderr,
        )
        if track:
            self.peak_rss_mb = max(self.peak_rss_mb, child.rss_mb)
            self.cpu_s += child.cpu_s
        return child

    def median_startup_ms(self, args: list[str], repeats: int) -> tuple[float, float]:
        """Median (reference, wall-clock) time of a start-up child that must succeed."""
        times, walls = [], []
        for _ in range(repeats):
            child = self.spawn(args, startup_ms=math.inf, pause=False, track=False)
            if child.exit_code != 0:
                raise RuntimeError(f"set-up child failed: {child.stderr[-300:]!r}")
            times.append(child.ms)
            walls.append(child.wall_ms)
        return statistics.median(times), statistics.median(walls)


@dataclass
class Sample:
    case: int
    ms: float        # at reference speed
    wall_ms: float
    segments: int
    ok: bool
    kind: str | None  # geometry kind of the operation, None for verify and refusals


class Outcome:
    """Failure bookkeeping shared by every pass of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, tuple[str, str | None]] = {}

    def record(self, name: str, reason: str | None, known_defect: str | None = None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        if known_defect is None:
            self.unexpected += 1
        self.failures.setdefault(name, (reason, known_defect))
        return False

    def summary(self, report) -> None:
        for name, (reason, known) in sorted(self.failures.items()):
            tag = f"known defect ({known})" if known else "UNEXPECTED"
            report(f"failure: {name}: {tag}: {reason}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def weighted_quantile(values, weights, q: float) -> float:
    """Quantile of a weighted sample, interpolating between weight midpoints."""
    pairs = sorted(zip(values, weights))
    total = sum(w for _, w in pairs)
    positions, cum = [], 0.0
    for _, w in pairs:
        positions.append((cum + 0.5 * w) / total)
        cum += w
    if q <= positions[0]:
        return pairs[0][0]
    for (v0, _), (v1, _), p0, p1 in zip(pairs, pairs[1:], positions, positions[1:]):
        if q <= p1:
            return v0 + (v1 - v0) * (q - p0) / (p1 - p0)
    return pairs[-1][0]


def end_to_end(samples: list[Sample], setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics with every case weighted equally.

    The median is taken per geometry kind: a closed-loop operation does more
    work than an open one, so when both kinds carry equal weight a single
    median falls into the gap between them and jumps with its two edge values.
    """
    counts: dict[int, int] = {}
    for s in samples:
        counts[s.case] = counts.get(s.case, 0) + 1
    weights = [1.0 / counts[s.case] for s in samples]
    ms = [s.ms for s in samples]
    total_w = sum(weights)
    seg_w = sum(w * s.segments for w, s in zip(weights, samples))

    def p50(kind):
        ms_w = [(s.ms, w) for s, w in zip(samples, weights) if s.kind == kind]
        return weighted_quantile([m for m, _ in ms_w], [w for _, w in ms_w], 0.5)

    return {
        "setup_s": setup_s,
        "op_ms_p50_closed": p50("closed"),
        "op_ms_p50_open": p50("open"),
        "op_ms_p90": weighted_quantile(ms, weights, 0.9),
        "us_per_segment": 1e3 * sum(w * s.ms for w, s in zip(weights, samples)) / seg_w,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": sum(w for w, s in zip(weights, samples) if s.ok) / total_w,
    }


def case_medians(samples: list[Sample], cases) -> dict[str, float]:
    by_case: dict[int, list[float]] = {}
    for s in samples:
        by_case.setdefault(s.case, []).append(s.ms)
    return {cases[i].name: statistics.median(v) for i, v in by_case.items()}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def scaled_spans(spans, factor: float):
    """Spans with times taken to reference speed (only differences are used)."""
    return [[s[0], s[1] * factor, s[2] * factor, *s[3:]] for s in spans]


def kind_counts(samples: list[Sample]) -> str:
    closed = sum(s.kind == "closed" for s in samples)
    opened = sum(s.kind == "open" for s in samples)
    return f"n={len(samples)} (closed {closed}, open {opened})"


def speed_line(speeds, samples: list[Sample], setup_wall_s: float) -> str:
    """Calibrated slowdowns seen in the run, and the figures before calibration."""
    wall = end_to_end(
        [Sample(s.case, s.wall_ms, s.wall_ms, s.segments, s.ok, s.kind) for s in samples],
        setup_wall_s,
        0.0,
    )
    parts = []
    for name, values in (("start-up", [s[0] for s in speeds]), ("compute", [s[1] for s in speeds])):
        if any(values):
            parts.append(f"{name} {statistics.median(values):.3f} ({min(values):.3f}-{max(values):.3f})")
    figures = ", ".join(
        f"{name} {wall[name]:.6g}"
        for name in ("setup_s", "op_ms_p50_closed", "op_ms_p50_open", "op_ms_p90", "us_per_segment")
    )
    return f"speed: slowdown against reference, median (min-max): {', '.join(parts)}; wall clock: {figures}"


def calibration_check(ops, samples: list[Sample]) -> str:
    """Whether the compute calibration tracks the operations it rescales.

    Per geometry: correlation of wall time with the calibrated slowdown, and
    the p90/p10 ratio of the times before and after calibration.
    """
    parts = []
    for g, kind in enumerate(inputs.LIB_GEOMETRIES):
        wall = [s.wall_ms for s in samples if s.case == g]
        ref = [s.ms for s in samples if s.case == g]
        slowdown = [op[3] for op in ops if op[0] == g]
        if len(wall) < 10:
            continue
        try:
            corr = f"{statistics.correlation(wall, slowdown):.2f}"
        except statistics.StatisticsError:
            corr = "n/a"

        def p90_p10(v):
            deciles = statistics.quantiles(v, n=10)
            return deciles[8] / deciles[0]

        parts.append(
            f"{kind}: corr(wall, slowdown) {corr}, p90/p10 wall {p90_p10(wall):.2f} "
            f"reference {p90_p10(ref):.2f}"
        )
    return "calibration check: " + ("; ".join(parts) or "too few operations")


def run_cli(args, tmp, cases, report, vec3_case: str):
    runner = Runner(tmp)
    outcome = Outcome()
    scenes: dict = {}

    def run_case(index: int, argv_prefix: list[str], pause: bool = True) -> tuple[Child, bool]:
        case = cases[index]
        child = runner.spawn(argv_prefix + case.argv, startup_ms=startup_ms, pause=pause)
        reason = reference.check_case(case, child.exit_code, child.stdout, child.stderr, scenes)
        return child, outcome.record(case.name, reason, case.known_defect)

    startup_ms, startup_wall_ms = runner.median_startup_ms(["-c", "import matterwave.cli"], SETUP_REPEATS)
    if args.trace:
        interpreter_ms, _ = runner.median_startup_ms(["-c", "pass"], INTERPRETER_REPEATS)
        shim = os.path.join(HERE, "cli_shim.py")
        record_path = os.path.join(tmp, "record.json")
        untraced, traced, op_spans, imports = [], [], [], []
        # Neither child is paused (a pause would land inside the traced
        # child's spans), so both are scaled to reference speed alike.
        for i in range(len(cases)):
            child, _ = run_case(i, ["-m", "matterwave.cli"], pause=False)
            untraced.append(child.ms)
            child, _ = run_case(i, [shim, record_path, "trace", str(i), "--"], pause=False)
            traced.append(child.ms)
            startup_slowdown, compute_slowdown = child.slowdown
            with open(record_path) as fh:
                record = json.load(fh)
            op_spans.append(scaled_spans(record["spans"], 1.0 / compute_slowdown))
            imports.append(record["import_ns"] / startup_slowdown / 1e6)
        index = next(i for i, c in enumerate(cases) if c.name == vec3_case)
        run_case(index, [shim, record_path, "count", str(index), "--"], pause=False)
        with open(record_path) as fh:
            record = json.load(fh)
        metrics = tracer.layer_metrics(
            op_spans,
            interpreter_ms,
            statistics.median(imports),
            True,
            untraced,
            traced,
            (record["vec3"], record["segments"]),
        )
        report(f"traced {len(cases)} operations, each once without and once with spans")
        report(tracer.accounting_line(metrics, untraced, traced))
        return metrics, outcome, None

    runner.peak_rss_mb = 0.0
    samples: list[Sample] = []
    for i in range(cycles_for(args.workload, args.seconds) * len(cases)):
        index = i % len(cases)
        child, ok = run_case(index, ["-m", "matterwave.cli"])
        samples.append(Sample(index, child.ms, child.wall_ms, cases[index].segments, ok, cases[index].kind))
    metrics = end_to_end(samples, startup_ms / 1e3, runner.peak_rss_mb)
    report(
        f"operations {kind_counts(samples)} over {len(cases)} cases "
        f"({len(samples) / len(cases):.2f} cycles); child cpu {runner.cpu_s:.2f} s"
    )
    report(speed_line(runner.speeds, samples, startup_wall_ms / 1e3))
    if len(samples) < P90_MIN_OPS:
        report(f"note: op_ms_p90 rests on n={len(samples)} operations, fewer than {P90_MIN_OPS}")
    return metrics, outcome, case_medians(samples, cases)


def cli_small(args, tmp, report):
    cases = inputs.cli_small_cases(args.seed, tmp, GOLDEN)
    return run_cli(args, tmp, cases, report, "gen1e3/closed:phase:json")


def cli_large(args, tmp, report):
    cases = inputs.cli_large_cases(args.seed, tmp)
    return run_cli(args, tmp, cases, report, "gen1e5/closed:phase:json")


def lib_scan(args, tmp, report):
    data = inputs.lib_scan_input(args.seed)
    input_path = os.path.join(tmp, "lib_input.json")
    inputs.write_json(input_path, data)
    results_path = os.path.join(tmp, "lib_results.json")
    child_py = os.path.join(HERE, "lib_child.py")
    runner = Runner(tmp)
    outcome = Outcome()
    ref = reference.LibRef(data)
    mode = "trace" if args.trace else "run"

    if args.trace:
        interpreter_ms, _ = runner.median_startup_ms(["-c", "pass"], INTERPRETER_REPEATS)
    else:
        setup_ms, setup_wall_ms = runner.median_startup_ms(
            [child_py, input_path, "-", "setup", "0"], SETUP_REPEATS
        )
    count = cycles_for(args.workload, args.seconds) * len(inputs.LIB_GEOMETRIES)
    child = runner.spawn(
        [child_py, input_path, results_path, mode, str(count)], startup_ms=0.0, pause=False
    )
    if child.exit_code != 0:
        outcome.record("lib-scan scan child", f"exit {child.exit_code}: {child.stderr[-300:]!r}")
        return None, outcome, None
    with open(results_path) as fh:
        record = json.load(fh)

    def check(ops, label):
        samples = []
        for g, j, ns, slowdown, results in ops:
            kind = inputs.LIB_GEOMETRIES[g]
            ok = outcome.record(f"{label}/geometry={g}:{kind}", ref.check(g, j, results))
            samples.append(Sample(g, ns / slowdown / 1e6, ns / 1e6, ref.geoms[g][0].segments, ok, kind))
        return samples

    samples = check(record["ops"], "lib-scan")
    if args.trace:
        traced = check(record["traced"], "lib-scan-traced")
        # Spans of one operation are contiguous; renumber their parent
        # indices from the operation's first span.
        op_spans: dict[int, tuple[int, list]] = {}
        for index, span in enumerate(record["spans"]):
            first, spans = op_spans.setdefault(span[4], (index, []))
            parent = None if span[3] is None else span[3] - first
            spans.append(span[:3] + [parent] + span[4:])
        slowdowns = [op[3] for op in record["traced"]]
        metrics = tracer.layer_metrics(
            [scaled_spans(spans, 1.0 / slowdowns[op]) for op, (_, spans) in op_spans.items()],
            interpreter_ms,
            record["import_ns"] / 1e6,
            False,
            [s.ms for s in samples],
            [s.ms for s in traced],
            tuple(record["vec3"]),
        )
        report(f"traced {len(traced)} operations, after the same {len(samples)} without spans")
        report(tracer.accounting_line(metrics, [s.ms for s in samples], [s.ms for s in traced]))
        return metrics, outcome, None

    metrics = end_to_end(samples, setup_ms / 1e3, runner.peak_rss_mb)
    report(f"operations {kind_counts(samples)} over {len(ref.geoms)} geometries; child cpu {runner.cpu_s:.2f} s")
    report(speed_line([(0.0, op[3]) for op in record["ops"]], samples, setup_wall_ms / 1e3))
    report(calibration_check(record["ops"], samples))
    open_us = [1e3 * s.ms / s.segments for s in samples if s.kind == "open"]
    return metrics, outcome, {LIB_OPEN_US: statistics.median(open_us)}


WORKLOADS = {"cli-small": cli_small, "cli-large": cli_large, "lib-scan": lib_scan}
LIB_OPEN_US = "median us/segment of open-geometry operations (two_path_difference plus open_loop_phase)"


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    digest = hashlib.sha256()
    package = os.path.join(SRC, "matterwave")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def baseline_lines(workload: str, trace: bool, metrics: dict, medians: dict | None) -> list[str]:
    """How this run compares with the ROADMAP North-star baseline table."""
    rows = []
    if trace:
        rows.append(("interpreter", metrics["startup.interpreter_ms"], "startup.interpreter_ms"))
        if metrics["phase.two_path_us_per_segment"]:
            rows.append(("two_path", metrics["phase.two_path_us_per_segment"], "phase.two_path_us_per_segment"))
        if metrics["kinematics.circulation_us_per_segment"]:
            rows.append(
                ("circulation", metrics["kinematics.circulation_us_per_segment"], "kinematics.circulation_us_per_segment")
            )
    else:
        if workload != "lib-scan":
            rows.append(("import", 1e3 * metrics["setup_s"], "setup_s (import matterwave.cli)"))
        for key, case in (("phase_golden", "golden/slow_atom_open:phase:json"), ("verify42", "verify/seed=42:json")):
            if medians and case in medians:
                rows.append((key, medians[case], f"median of case {case}"))
        if medians and LIB_OPEN_US in medians:
            rows.append(("two_path", medians[LIB_OPEN_US], LIB_OPEN_US))
    lines = []
    for key, measured, source in rows:
        label, value, unit = BASELINE[key]
        lines.append(
            f"baseline: {label}: ROADMAP {value:g} {unit}; measured {measured:.4g} "
            f"from {source} (x{measured / value:.2f})"
        )
    if not lines:
        lines.append(f"baseline: no North-star row applies to {workload} with trace={int(trace)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "matterwave", "cli.py"), GOLDEN) if not os.path.exists(p)]
    if missing:
        print(f"perfbench: error: not a matterwave checkout, missing {missing}", file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(line, flush=True)

    env = environment(args.seed)
    # One CPU for this process and every child it starts, so that the
    # calibration loop measures the CPU the operations run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT)
    try:
        report(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        report("env " + json.dumps(env))
        metrics, outcome, medians = WORKLOADS[args.workload](args, tmp, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass
    outcome.summary(report)
    if metrics is None:
        print("perfbench: error: the workload could not run", file=sys.stderr)
        return 1

    units = tracer.PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        report(f"metric {name} = {metrics[name]:.6g} {unit}")
    if args.trace:
        report(
            "note: every layer runs on the calling thread and does no I/O wait, "
            "so no wait time is reported; layers with no spans report 0"
        )
    for line in baseline_lines(args.workload, bool(args.trace), metrics, medians):
        report(line)
    result = {
        "correct": outcome.unexpected == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
