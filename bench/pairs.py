"""Alternating pairs of perfbench runs: a base revision against a change.

Usage (from the repository root)::

    python bench/pairs.py --base REV --workload lib-scan --sets 2 --pairs 10 \\
        --out BENCH_39.json

Both sides run as the benchmark pipeline runs them: exported to a temporary
directory outside the repository, with ``PYTHONDONTWRITEBYTECODE=1`` in every
perfbench child, so that each CLI process compiles what it imports (about 25 ms
at reference speed, which a byte-compiled tree would hide). Each side is the
``git archive`` of one commit: ``--base REV``, and ``--change REV`` or else the
``git stash create`` commit of the working tree's tracked files (HEAD for a
clean tree); untracked files under ``src`` would not be measured and are
refused. The names ``t0`` and ``t1`` swap every second pair, so that neither a
name nor the side that ran first goes with one tree. Each pair runs
``perfbench/run.py`` once per side for 25 s with the same seed, the base first
on odd pairs. A run whose last JSON line says ``correct`` false, or that does
not end in one, is counted as failed, and its pair is left out of the comparison.

Per set and metric the file records each side's median and quartiles, and the
pairs the change won (its metric better, by the direction ``BENCHMARK.json``
gives) in total, split by which side ran first and split by the base's
directory. Each set records each side's directory per pair. The entry records
each side's ``env`` line and, as ``base`` and ``change``, the SHA of the commit
it exported. Where the two agree the entry is an A/A run, which shows how often
identical trees "win", and records its ``resolution``: per end-to-end metric,
the largest median shift and the most pairs won. Each invocation appends one
entry to ``--out``'s ``runs``, and refuses an ``--out`` that is not JSON with a
``runs`` list before the first pair.
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
DIRECTORIES = ("t0", "t1")


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


def _wins(base, change, better: str) -> list:
    """Per pair, whether the change's value is strictly better than the base's."""
    return [(c < b) if better == "lower" else (c > b) for b, c in zip(base, change)]


def pairs_won(base, change, base_first, better: str, base_dir) -> dict:
    """Pairs in which the change's value is strictly better than the base's, in total,
    split by which side ran first and split by the base's directory. ``base_first[i]``
    says whether pair i ran the base first, ``base_dir[i]`` where the base tree was."""
    wins = _wins(base, change, better)
    first = [bool(f) for f in base_first]
    return {
        "pairs": len(wins),
        "won": sum(wins),
        "base_first": {"pairs": first.count(True), "won": sum(w for w, f in zip(wins, first) if f)},
        "change_first": {
            "pairs": first.count(False),
            "won": sum(w for w, f in zip(wins, first) if not f),
        },
        "base_dir": {
            d: {"pairs": base_dir.count(d), "won": sum(w for w, e in zip(wins, base_dir) if e == d)}
            for d in sorted(set(base_dir))
        },
    }


def compare(base_runs, change_runs, base_first, directions: dict, base_dir) -> dict:
    """Per metric: each side's summary and the pairs won, over the pairs where neither
    run failed. A run is a dict of metric values, or None where it failed."""
    kept = [
        i for i, (b, c) in enumerate(zip(base_runs, change_runs)) if b is not None and c is not None
    ]
    metrics = {}
    for name in (sorted(base_runs[kept[0]]) if kept else ()):
        base = [base_runs[i][name] for i in kept]
        change = [change_runs[i][name] for i in kept]
        better = directions[name]
        metrics[name] = {
            "better": better,
            "base": summary(base),
            "change": summary(change),
            **pairs_won(
                base, change, [base_first[i] for i in kept], better, [base_dir[i] for i in kept],
            ),
        }
    return metrics


def resolution(sets, names) -> dict:
    """What identical trees showed over an entry's sets, per metric of ``names`` that the
    sets hold: the largest ``|change median / base median - 1|`` (null where a base
    median is 0 and its change median is not) and the most pairs that either side won
    in one set, out of that set's pairs. A claimed gain on a metric that moves its
    median by no more, or wins no more pairs, is not resolved from these sets."""
    found = {}
    for name in names:
        metrics = [s["metrics"][name] for s in sets if name in s["metrics"]]
        if not metrics:
            continue
        shifts = [
            abs(m["change"]["median"] / m["base"]["median"] - 1.0) if m["base"]["median"]
            else (0.0 if m["change"]["median"] == 0.0 else None)
            for m in metrics
        ]
        base_won = [
            sum(_wins(m["change"]["values"], m["base"]["values"], m["better"])) for m in metrics
        ]
        most_won, pairs_ = max((max(m["won"], w), m["pairs"]) for m, w in zip(metrics, base_won))
        found[name] = {
            "largest_median_shift": None if None in shifts else max(shifts),
            "most_won": most_won,
            "pairs": pairs_,
        }
    return found


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


def directions() -> dict:
    """End-to-end metric name to "lower" or "higher", from the repository's BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def runs_file(path: str) -> dict:
    """The JSON document at ``path``, which must hold a ``runs`` list, or a new one."""
    if not os.path.exists(path):
        return {"runs": []}
    try:
        with open(path) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"pairs.py: {path} is not JSON: {exc}") from None
    if not isinstance(bench, dict) or not isinstance(bench.get("runs"), list):
        raise SystemExit(f"pairs.py: {path} holds no runs list")
    return bench


def change_revision(change: str | None) -> str:
    """``change``, or a commit of the working tree's tracked files (HEAD if it is clean)."""
    if change:
        return change
    if any(line.startswith("??") for line in git("status", "--porcelain", "src").splitlines()):
        raise SystemExit("pairs.py: untracked files under src/ would not be measured")
    return git("stash", "create").strip() or "HEAD"


def place(tmp: str, dirs: dict, base_dir: str) -> None:
    """Give the base tree the name ``base_dir`` under ``tmp`` and the change tree the
    other, by swapping their names; ``dirs`` maps each side to its name, and is updated."""
    if dirs["base"] != base_dir:
        os.rename(os.path.join(tmp, dirs["base"]), os.path.join(tmp, "moving"))
        os.rename(os.path.join(tmp, dirs["change"]), os.path.join(tmp, dirs["base"]))
        os.rename(os.path.join(tmp, "moving"), os.path.join(tmp, dirs["change"]))
        dirs["base"], dirs["change"] = dirs["change"], dirs["base"]


def run_once(tree: str, workload: str, seed: int):
    """One perfbench run in ``tree``: (metric values or None where it failed, its env line)."""
    argv = [
        sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0",
    ]
    try:
        done = subprocess.run(
            argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
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
    parser.add_argument("--change", help="change revision (default: git stash create, or HEAD)")
    parser.add_argument("--workload", required=True, choices=("cli-small", "cli-large", "lib-scan"))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--label", default="", help="what this entry measures")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = runs_file(args.out)
    better = directions()
    entry = {
        "label": args.label,
        "workload": args.workload,
        "base": git("rev-parse", args.base).strip(),
        "change": git("rev-parse", change_revision(args.change)).strip(),
        "seconds": RUN_SECONDS,
        "env": {},
        "sets": [],
    }
    tmp = tempfile.mkdtemp(prefix="matterwave-pairs-")
    try:
        dirs = {"base": DIRECTORIES[0], "change": DIRECTORIES[1]}
        export(entry["base"], tmp, dirs["base"])
        export(entry["change"], tmp, dirs["change"])

        seed = args.seed
        for set_index in range(args.sets):
            runs = {"base": [], "change": []}
            seeds, base_first = [], []
            directories = {"base": [], "change": []}
            for pair in range(1, args.pairs + 1):
                # The names swap every second pair: run order alternates every pair.
                place(tmp, dirs, DIRECTORIES[(pair - 1) // 2 % 2])
                for side in directories:
                    directories[side].append(dirs[side])
                order = ("base", "change") if pair % 2 else ("change", "base")
                for side in order:
                    values, env = run_once(os.path.join(tmp, dirs[side]), args.workload, seed)
                    runs[side].append(values)
                    if env is not None:
                        entry["env"].setdefault(side, env)
                    print(
                        f"set {set_index + 1} pair {pair} seed {seed} {side} "
                        f"({directories[side][-1]}): "
                        + ("failed" if values is None else json.dumps(values)),
                        file=sys.stderr, flush=True,
                    )
                seeds.append(seed)
                base_first.append(order[0] == "base")
                seed += 1
            entry["sets"].append({
                "seeds": seeds,
                "base_first": base_first,
                "directories": directories,
                "failed": {side: runs[side].count(None) for side in runs},
                "metrics": compare(
                    runs["base"], runs["change"], base_first, better, directories["base"],
                ),
            })
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if entry["base"] == entry["change"]:
        entry["resolution"] = resolution(entry["sets"], better)

    for set_index, result in enumerate(entry["sets"], 1):
        for name, m in result["metrics"].items():
            b, c, by_dir = m["base"], m["change"], m["base_dir"]
            print(
                f"{args.workload} set {set_index} {name}: base {b['median']:.6g} "
                f"[{b['q1']:.6g}, {b['q3']:.6g}] change {c['median']:.6g} "
                f"[{c['q1']:.6g}, {c['q3']:.6g}] won {m['won']}/{m['pairs']} "
                f"(base first {m['base_first']['won']}/{m['base_first']['pairs']}, "
                f"change first {m['change_first']['won']}/{m['change_first']['pairs']}; "
                + ", ".join(f"base in {d} {w['won']}/{w['pairs']}" for d, w in by_dir.items())
                + ")"
            )
    bench["runs"].append(entry)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
