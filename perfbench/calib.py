"""CPU-speed calibration shared by the benchmark and its scan child.

On a shared virtual machine the CPU throughput drifts by up to about 2x
within seconds, and the drift is invisible to the guest: process CPU time
stretches with it. Every timed operation is therefore bracketed by short
fixed calibrations on the same CPU, and its time is reported at reference
speed, the speed the calibrations have on the reference machine.

The drift does not slow all work alike, so there are two calibrations:
``Spawn`` (a bare ``python -S -c pass`` child) tracks process start-up and
``Loop`` (object churn and a JSON parse, in process) tracks Python compute;
against start-up-bound CLI operations the loop moves about twice as much as
they do. A CLI operation is modelled as start-up, whose reference time is
the measured set-up time, plus compute: see ``at_reference``. A long child
is paused every quarter second for a compute sample, so the compute
slowdown is known for each stretch of its run.
"""
import json
import os
import sys
import time


class Loop:
    """Fastest of three runs of a fixed pure-Python loop, in ns."""

    # On the reference machine (2-core Xeon virtual machine, Python 3.11) in its
    # faster phase; it only keeps reported figures near wall-clock time there.
    reference_ns = 3_000_000

    # A fixed JSON document: parsing it exercises the C parser and the
    # allocator, as scene parsing does.
    _DOC = "[" + ",".join(f"[{i * 0.37:.17g},{i * 1.13:.17g},{-i * 0.71:.17g}]" for i in range(600)) + "]"

    def measure(self) -> int:
        best = None
        for _ in range(3):
            start = time.perf_counter_ns()
            p, step = _Point(0.0, 1.0, 2.0), _Point(1.0, 0.5, 0.25)
            for _ in range(8_000):
                p = p.add(step)
            json.loads(self._DOC)
            elapsed = time.perf_counter_ns() - start
            best = elapsed if best is None else min(best, elapsed)
        return best


class Spawn:
    """Wall time of a bare interpreter child, in ns."""

    reference_ns = 15_000_000

    def measure(self) -> int:
        start = time.perf_counter_ns()
        pid = os.posix_spawn(sys.executable, [sys.executable, "-S", "-c", "pass"], os.environ)
        os.waitpid(pid, 0)
        return time.perf_counter_ns() - start


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def add(self, other):
        return _Point(self.x + other.x, self.y + other.y, self.z + other.z)


def startup_slowdown() -> float:
    return Spawn().measure() / Spawn.reference_ns


def compute_slowdown() -> float:
    return Loop().measure() / Loop.reference_ns


def sample() -> tuple[float, float]:
    """Current slowdown of (start-up, compute) against reference speed."""
    return startup_slowdown(), compute_slowdown()


def at_reference(segments, startup_slowdown: float, startup_ms: float) -> float:
    """Reference time of a child timed in segments of [wall ms, compute slowdown].

    The child's first ``startup_ms`` of reference time is process start-up and
    runs at ``startup_slowdown``; the rest runs at each segment's compute
    slowdown. ``startup_ms=math.inf`` makes all of it start-up.
    """
    startup_wall = startup_ms * startup_slowdown
    total = 0.0
    for wall, slowdown in segments:
        part = min(wall, startup_wall)
        startup_wall -= part
        total += part / startup_slowdown + (wall - part) / slowdown
    return total
