"""Tests of the benchmark itself: reference, generator, emitted metrics.

Run from the repository root: ``python -m pytest perfbench``.
"""
import json
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import inputs
import reference
import run
import tracer

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

from matterwave import circulation, interference_loop, open_loop_phase  # noqa: E402
from matterwave import sagnac_area_phase, translation_opening, two_path_difference  # noqa: E402
from matterwave.scene import config_from_scene, parse_scene  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def engine_reasons(path):
    """Check the engine's in-process results for one scene file."""
    with open(path) as fh:
        config = config_from_scene(parse_scene(fh.read()))
    ref = reference.SceneRef(path)
    result = two_path_difference(config)
    values = {
        "total_phase_rad": result.total_phase_rad,
        "fringe_count": result.total_phase_rad / reference.TWO_PI,
        "v_lambda_m2ps": result.v_lambda,
    }
    breakdown = [(c.path_id, c.segment_index, c.phase_rad) for c in result.per_segment]
    reasons = [reference.check_phase(values, breakdown, ref.phase, ref.v_lambda)]
    if ref.geom.closed:
        loop = interference_loop(config)
        li = reference.TWO_PI / config.wave.v_lambda * circulation(config.motion, loop)
        af = sagnac_area_phase(config.wave, loop, config.motion)
        denom = max(abs(li), abs(af))
        sagnac = {
            "loop_integral_phase_rad": li,
            "area_formula_phase_rad": af,
            "relative_difference": abs(li - af) / denom if denom else 0.0,
            "v_lambda_m2ps": config.wave.v_lambda,
        }
        reasons.append(reference.check_sagnac(sagnac, ref.geom, ref.v_lambda, ref.T, ref.W, ref.P))
    else:
        opening = translation_opening(config)
        phase = open_loop_phase(config.wave, opening, config.motion.translation)
        T = config.motion.translation
        translate = {
            "phase_rad": phase,
            "fringe_count": phase / reference.TWO_PI,
            "opening_magnitude_m": opening.norm(),
            "cos_theta": T.unit().dot(opening.unit()) if T.norm() > 0 else None,
            "v_lambda_m2ps": config.wave.v_lambda,
        }
        reasons.append(reference.check_translate(translate, ref.geom, ref.v_lambda, ref.T))
    return [r for r in reasons if r]


@pytest.mark.parametrize("name", inputs.GOLDEN_SCENES)
def test_reference_agrees_with_engine_on_golden_scenes(name):
    assert engine_reasons(os.path.join(run.GOLDEN, name)) == []


@pytest.mark.parametrize("closed", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reference_agrees_with_engine_on_generated_scenes(tmp_path, closed, seed):
    scene = inputs.explicit_scene(random.Random(seed), 300, closed)
    path = str(tmp_path / "scene.json")
    inputs.write_json(path, scene)
    assert engine_reasons(path) == []


@pytest.mark.parametrize("side", inputs.EARTH_SIDES_M)
def test_reference_is_exact_far_from_the_origin(side):
    # The exact shoelace of the vertices as stored, in rational arithmetic.
    scene = inputs.earth_scene(random.Random(5), side)
    geom = reference.Geometry(*reference.scene_paths(scene))
    loop = scene["geometry"]["path_II_m"] + scene["geometry"]["path_I_m"][::-1][1:]
    exact = [Fraction(0)] * 3
    for a, b in zip(loop, loop[1:]):
        a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
        exact[0] += a[1] * b[2] - a[2] * b[1]
        exact[1] += a[2] * b[0] - a[0] * b[2]
        exact[2] += a[0] * b[1] - a[1] * b[0]
    area_z = float(exact[2] / 2)
    assert geom.area[2] == pytest.approx(area_z, rel=1e-12)
    omega = np.array(scene["motion"]["omega_radps"])
    assert reference.loop_circulation(geom, omega) == pytest.approx(
        2.0 * inputs.EARTH_OMEGA_RADPS * area_z, rel=1e-12
    )


def _tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _argv(cases, tmp):
    return [[a.replace(str(tmp), "<tmp>") for a in c.argv] for c in cases]


def test_generator_is_deterministic(tmp_path):
    dirs = [tmp_path / n for n in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    small = [inputs.cli_small_cases(s, str(d), run.GOLDEN) for s, d in zip((7, 7, 8), dirs)]
    large = [inputs.cli_large_cases(s, str(d)) for s, d in zip((7, 7, 8), dirs)]
    trees = [_tree(d) for d in dirs]
    assert trees[0] == trees[1]
    assert trees[0].keys() == trees[2].keys() and trees[0] != trees[2]
    assert _argv(small[0], dirs[0]) == _argv(small[1], dirs[1])
    assert _argv(large[0], dirs[0]) == _argv(large[1], dirs[1])
    assert inputs.lib_scan_input(7) == inputs.lib_scan_input(7) != inputs.lib_scan_input(8)
    assert len(trees[0]["large_closed.json"]) > 5_000_000


def test_cli_small_holds_the_listed_cases(tmp_path):
    cases = inputs.cli_small_cases(3, str(tmp_path), run.GOLDEN)
    names = [c.name for c in cases]
    assert len(names) == len(set(names))
    assert "verify/seed=42:json" in names
    defects = sorted(c.name for c in cases if c.known_defect)
    assert len([n for n in defects if n.startswith("earth/")]) == 6
    assert [n for n in defects if n.startswith("refuse/")] == [
        "refuse/nested-1e5",
        "refuse/not-utf8",
        "refuse/out-missing-dir",
        "refuse/sweep-overflow",
        "refuse/v-lambda-underflow",
    ]
    assert sum(c.op == "refuse" for c in cases) == 9


def test_output_checks_reject_bad_output():
    with pytest.raises(ValueError):
        reference.parse_json('{"phase_rad": Infinity}')
    with pytest.raises(ValueError):
        reference.parse_csv("quantity,value\nphase_rad,inf\n")
    assert reference.check_refusal(1, b"matterwave: error: bad scene\n") is None
    assert "traceback" in reference.check_refusal(1, b"Traceback (most recent call last):\n")
    assert "exit code 0" in reference.check_refusal(0, b"")
    assert "does not start" in reference.check_refusal(1, b"error: nope\n")


def test_weighted_quantile_matches_median_for_equal_weights():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    for n in (5, 6):
        assert run.weighted_quantile(values[:n], [1.0] * n, 0.5) == statistics.median(values[:n])


def test_case_weights_undo_a_partial_cycle():
    # Case 0 ran twice and case 1 once: each case still counts once.
    samples = [
        run.Sample(0, 10.0, 12.0, 100, True, "open"),
        run.Sample(0, 10.0, 12.0, 100, True, "open"),
        run.Sample(1, 30.0, 36.0, 0, False, "closed"),
    ]
    m = run.end_to_end(samples, 0.1, 12.0)
    assert m["ok_ratio"] == 0.5
    assert m["us_per_segment"] == pytest.approx(1e3 * 40.0 / 100)


def test_median_is_taken_per_geometry_kind():
    # Verify and refusals (kind None) count in p90 but in neither median.
    samples = [run.Sample(0, ms, ms, 10, True, "open") for ms in (1.0, 2.0, 3.0)]
    samples += [run.Sample(1, ms, ms, 10, True, "closed") for ms in (7.0, 8.0)]
    samples += [run.Sample(2, 100.0, 100.0, 0, True, None)]
    m = run.end_to_end(samples, 0.1, 12.0)
    assert m["op_ms_p50_open"] == 2.0
    assert m["op_ms_p50_closed"] == 7.5


def test_benchmark_json_names_what_run_emits():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracer.PER_LAYER


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace", [("lib-scan", 0), ("lib-scan", 1), ("cli-small", 0)])
def test_a_run_emits_every_metric_and_the_baseline_comparison(workload, trace):
    lines, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    names = tracer.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert any(line.startswith("baseline: ") and "ROADMAP" in line for line in lines)
    expected_failures = 11 if workload == "cli-small" else 0
    assert result["failed"] == expected_failures
    if not trace:
        # A fixed number of whole cycles: the counts follow from --seconds alone.
        cycle = 79 if workload == "cli-small" else len(inputs.LIB_GEOMETRIES)
        assert result["attempted"] == run.cycles_for(workload, 1) * cycle


def test_a_run_outside_a_checkout_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(run.HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(run.HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lib-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_baseline_lines_cover_every_row():
    e2e = dict.fromkeys(run.END_TO_END, 1.0)
    layer = dict.fromkeys(tracer.PER_LAYER, 1.0)
    medians = {"golden/slow_atom_open:phase:json": 150.0, "verify/seed=42:json": 400.0, run.LIB_OPEN_US: 25.0}
    text = "\n".join(
        run.baseline_lines("cli-small", False, e2e, medians) + run.baseline_lines("lib-scan", True, layer, None)
    )
    for label, _, _ in run.BASELINE.values():
        assert label in text
