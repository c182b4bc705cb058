"""Alternating pairs of perfbench runs: a base revision against the working tree.

Usage (from the repository root)::

    python bench/pairs.py --base REV --workload lib-scan --sets 2 --pairs 10 \\
        --out BENCH_33.json

The base side is ``git archive REV``, exported into a temporary directory
outside the repository; the change side is the working tree, or a second
exported revision with ``--change REV`` (``--base HEAD --change HEAD`` is an
A/A run, which shows how often identical trees "win"). Both trees' ``src`` are
byte-compiled first, so that both load cached bytecode as an installed package
does. Each pair runs ``perfbench/run.py`` once per side for 25 s with the same
seed, the base first on odd pairs. A run whose last JSON line says ``correct`` false, or
that does not end in one, is counted as failed, and its pair is left out of the
comparison.

Per set and metric the file records each side's median and quartiles, and the
pairs the change won (its metric better, by the direction ``BENCHMARK.json``
gives) in total and split by which side ran first. It also records each side's
``env`` line, the revisions, and ``dirty``: whether ``git status --porcelain``
shows a dirty working tree where the change side is the working tree, and null
where it is an exported revision. Each invocation appends one entry to
``--out``'s ``runs``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_SECONDS = 25
RUN_TIMEOUT_S = 900


# ---------------------------------------------------------------------------
# Statistics (pure functions)
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """The q-quantile of the values, by linear interpolation between order statistics
    (the default of numpy and of ``statistics.quantiles(method="inclusive")``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values) -> dict:
    """Median and quartiles of the values, with the values themselves."""
    return {
        "median": quantile(values, 0.5),
        "q1": quantile(values, 0.25),
        "q3": quantile(values, 0.75),
        "values": list(values),
    }


def pairs_won(base, change, base_first, better: str = "lower") -> dict:
    """Pairs in which the change's value is strictly better than the base's, in total and
    split by which side ran first. ``base_first[i]`` says whether pair i ran the base first."""
    wins = [(c < b) if better == "lower" else (c > b) for b, c in zip(base, change)]
    first = [bool(f) for f in base_first]
    return {
        "pairs": len(wins),
        "won": sum(wins),
        "base_first": {"pairs": first.count(True), "won": sum(w for w, f in zip(wins, first) if f)},
        "change_first": {
            "pairs": first.count(False),
            "won": sum(w for w, f in zip(wins, first) if not f),
        },
    }


def compare(base_runs, change_runs, base_first, directions: dict) -> dict:
    """Per metric: each side's summary and the pairs won, over the pairs where neither
    run failed. A run is a dict of metric values, or None where it failed."""
    kept = [
        (b, c, f) for b, c, f in zip(base_runs, change_runs, base_first)
        if b is not None and c is not None
    ]
    metrics = {}
    for name in (sorted(kept[0][0]) if kept else ()):
        base = [b[name] for b, _, _ in kept]
        change = [c[name] for _, c, _ in kept]
        better = directions.get(name, "lower")
        metrics[name] = {
            "better": better,
            "base": summary(base),
            "change": summary(change),
            **pairs_won(base, change, [f for _, _, f in kept], better),
        }
    return metrics


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def export(rev: str, parent: str, name: str) -> str:
    """``git archive rev``, extracted into ``parent/name``."""
    tree = os.path.join(parent, name)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        # The "data" filter where this Python has it: no links or paths out of the tree.
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return tree


def revisions(base: str, change: str | None) -> dict:
    """The entry's ``base`` and ``change`` revisions, and ``dirty``, which describes the
    working tree and so is None where the change side is an exported revision."""
    return {
        "base": git("rev-parse", base).strip(),
        "change": git("rev-parse", change).strip() if change else "working tree",
        "dirty": None if change else bool(git("status", "--porcelain").strip()),
    }


def directions() -> dict:
    """Metric name to "lower" or "higher", from the repository's BENCHMARK.json."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def run_once(tree: str, workload: str, seed: int):
    """One perfbench run in ``tree``: (metric values or None where it failed, its env line)."""
    argv = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    try:
        done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, None
    lines = done.stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, env
    if done.returncode != 0 or result.get("correct") is not True:
        return None, env
    return {name: m["value"] for name, m in result["metrics"].items()}, env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="base revision, exported with git archive")
    parser.add_argument("--change", help="change revision (default: the working tree)")
    parser.add_argument("--workload", required=True, choices=("cli-small", "cli-large", "lib-scan"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--label", default="", help="what this entry measures")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    entry = {
        "label": args.label,
        "workload": args.workload,
        **revisions(args.base, args.change),
        "seconds": RUN_SECONDS,
        "env": {},
        "sets": [],
    }
    tmp = tempfile.mkdtemp(prefix="matterwave-pairs-")
    try:
        trees = {
            "base": export(args.base, tmp, "base"),
            "change": export(args.change, tmp, "change") if args.change else ROOT,
        }
        for tree in trees.values():
            subprocess.run(
                [sys.executable, "-m", "compileall", "-q", os.path.join(tree, "src")], check=True
            )
        seed = args.seed
        for set_index in range(args.sets):
            runs = {"base": [], "change": []}
            seeds, base_first = [], []
            for pair in range(1, args.pairs + 1):
                order = ("base", "change") if pair % 2 else ("change", "base")
                for side in order:
                    values, env = run_once(trees[side], args.workload, seed)
                    runs[side].append(values)
                    if env is not None:
                        entry["env"].setdefault(side, env)
                    print(
                        f"set {set_index + 1} pair {pair} seed {seed} {side}: "
                        + ("failed" if values is None else json.dumps(values)),
                        file=sys.stderr, flush=True,
                    )
                seeds.append(seed)
                base_first.append(order[0] == "base")
                seed += 1
            entry["sets"].append({
                "seeds": seeds,
                "base_first": base_first,
                "failed": {side: runs[side].count(None) for side in runs},
                "metrics": compare(runs["base"], runs["change"], base_first, directions()),
            })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for set_index, result in enumerate(entry["sets"], 1):
        for name, m in result["metrics"].items():
            b, c = m["base"], m["change"]
            print(
                f"{args.workload} set {set_index} {name}: base {b['median']:.6g} "
                f"[{b['q1']:.6g}, {b['q3']:.6g}] change {c['median']:.6g} "
                f"[{c['q1']:.6g}, {c['q3']:.6g}] won {m['won']}/{m['pairs']} "
                f"(base first {m['base_first']['won']}/{m['base_first']['pairs']}, "
                f"change first {m['change_first']['won']}/{m['change_first']['pairs']})"
            )
    bench = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            bench = json.load(fh)
    bench["runs"].append(entry)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
