"""A catalogue of mutants of the package, and a driver that runs the tests against each.

Each mutant changes one text of one file: its ``old`` text occurs exactly once
there (``tests/test_mutants.py`` checks this against the tree as it is). The
driver copies the tree into a new temporary directory per mutant and runs the
tests named to kill it there before the mutant is applied: they must pass, so
that a failure afterwards is the mutant's doing and not the copy's. It then
applies the mutant and runs ``pytest -x``: first on the named tests, then, if
they all pass, on the whole suite. It reports each mutant as killed, with the
first test that failed, or as survived. The driver exits 1 on a survivor not
marked equivalent (with the reason no test can tell it from the code), and on
a mutant killed only by a test outside its named ones, whose list is then
stale.

Usage, from the repository root (standard library and pytest only)::

    python tests/mutants.py

A change to the kernel, an oracle or a refusal adds its mutants here, with the
tests that kill them.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SKIP = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".perfbench_tmp",
    "*.egg-info", "BENCH_*.json",
)


class Mutant(NamedTuple):
    name: str
    path: str  # from the repository root
    old: str  # occurs exactly once in the file
    new: str
    killers: tuple  # pytest node ids expected to kill it
    equivalent: str | None = None  # why no test can tell it from the code


PHASE, MODEL = "src/matterwave/phase.py", "src/matterwave/model.py"

MUTANTS = (
    Mutant(
        "loop-box-reads-beam-i-first",
        MODEL,
        "zip(self.box_II, self.box_I))",
        "zip(self.box_I, self.box_II))",
        ("tests/test_phase.py::TestKeptLoop::test_the_loops_box_reads_beam_ii_first",),
    ),
    Mutant(
        "vector-area-plain-sum",
        "src/matterwave/kinematics.py",
        '0.5 * exact_sum(axis, "vector area")',
        "0.5 * sum(axis)",
        ("tests/test_cli.py::TestErrorContract::test_sum_beyond_float_range_refused",),
    ),
    Mutant(
        "increment-velocity-at-segment-end",
        PHASE,
        "rx, ry, rz = ax - ox, ay - oy, az - oz",
        "rx, ry, rz = bx - ox, by - oy, bz - oz",
        ("tests/test_golden.py::test_stdout_matches_golden",),
    ),
    Mutant(
        "boost-bound-without-margin",
        PHASE,
        "if not bound * (1.0 + _BOUND_MARGIN) < wave.speed_v:",
        "if not bound < wave.speed_v:",
        (
            "tests/test_phase.py::TestPathPhase::"
            "test_a_speed_bound_a_rounding_below_v_still_walks_the_segment",
        ),
    ),
    Mutant(
        "given-kind-not-checked",
        MODEL,
        "if kind is not self.kind and kind is not None:",
        "if False:",
        (
            "tests/test_phase.py::TestPairRecord::"
            "test_a_wrong_kind_is_refused_on_a_new_and_on_a_known_pair",
        ),
    ),
    Mutant(
        "pair-record-holds-beam-i",
        MODEL,
        "self.delta_I = _delta(path_i)\n",
        "self.delta_I = _delta(path_i)\n        self.path_I = path_i\n",
        (
            "tests/test_phase.py::TestPairRecord::test_no_record_refers_to_beam_i",
            "tests/test_phase.py::TestPairRecord::test_beam_ii_keeps_beam_is_vertices_not_beam_i",
        ),
    ),
    Mutant(
        "pair-known-by-vertex-tuple-alone",
        MODEL,
        "pair.vertices_I is path_i.vertices and pair.box_I is path_i.box",
        "pair.vertices_I is path_i.vertices",
        ("tests/test_phase.py::TestPairRecord::test_a_new_tuple_or_another_box_gets_a_new_record",),
    ),
    Mutant(
        "sweep-row-scale-moved",
        "src/matterwave/experiment.py",
        "phase = scale * _dot(_scaled(direction, v), d)",
        "phase = _dot(_scaled(direction, scale * v), d)",
        ("tests/test_experiment.py::test_sweep_rows_are_the_open_loop_phase_bit_for_bit",),
    ),
    Mutant(
        "usage-text-keeps-its-newline",
        "src/matterwave/cli.py",
        "self.format_usage().rstrip()",
        "self.format_usage()",
        ("tests/test_cli.py::TestCliContract::test_an_argparse_refusal_ends_at_its_usage_text",),
    ),
    Mutant(
        "help-exits-one",
        "src/matterwave/cli.py",
        "return int(exc.code or 0)",
        "return 1",
        ("tests/test_cli.py::TestCliContract::test_help_exits_zero_with_usage_on_stdout",),
    ),
)


def apply(tree: Path, mutant: Mutant) -> None:
    """Write the mutant into the tree's copy of its file."""
    path = tree / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def pytest(tree: Path, args) -> tuple[int, str | None]:
    """``pytest -x`` in the tree: its exit code and the first test that failed, if any."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *args]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", done.stdout, re.MULTILINE)
    if done.returncode not in (0, 1, 2) or (done.returncode and failed is None):
        raise RuntimeError(f"pytest {' '.join(args)} exited {done.returncode}:\n{done.stdout}")
    return done.returncode, failed and failed.group(1)


def run(mutant: Mutant) -> str | None:
    """The test that killed the mutant, or None where it survived."""
    with tempfile.TemporaryDirectory(prefix="matterwave-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        code, failed = pytest(tree, mutant.killers)
        if code:
            raise RuntimeError(f"{mutant.name}: {failed} fails on the unmutated copy")
        apply(tree, mutant)
        # The whole suite less the catalogue's own check, which any mutant fails.
        for args in (mutant.killers, ("--ignore=tests/test_mutants.py",)):
            code, failed = pytest(tree, args)
            if code:
                return failed
    return None


def main() -> int:
    failures = 0
    started = time.monotonic()
    for mutant in MUTANTS:
        t0 = time.monotonic()
        killer = run(mutant)
        took = f"{time.monotonic() - t0:.1f} s"
        if killer is not None and killer.startswith(mutant.killers):
            print(f"killed    {mutant.name} by {killer} ({took})", flush=True)
        elif killer is not None:
            failures += 1
            print(f"KILLED    {mutant.name} by {killer}, not by a named test ({took})", flush=True)
        elif mutant.equivalent:
            print(f"survived  {mutant.name} ({took}; equivalent: {mutant.equivalent})", flush=True)
        else:
            failures += 1
            print(f"SURVIVED  {mutant.name} ({took})", flush=True)
    print(f"{len(MUTANTS)} mutants, {failures} survived or killed outside their named tests, "
          f"{time.monotonic() - started:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
