"""CLI subcommands: outputs, exit codes, determinism, CSV discipline."""

import argparse
import gc
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from matterwave import (
    BeamPath,
    GeometryError,
    MatterWaveError,
    MotionField,
    PhaseResult,
    PropertyCheck,
    SweepRow,
    Vec3,
    VerifyReport,
    build_config,
    config_from_scene,
    interference_loop,
    make_particle_wave,
    parse_scene,
    path_phase,
    sensitivity_sweep,
)
from matterwave import cli
from matterwave.cli import emit_results, main, run_command
from matterwave.model import _coincide

import exact

TWO_PI = 2.0 * math.pi


def totals(result: PhaseResult) -> dict:
    """The phase command's document without its breakdown."""
    return {
        "total_phase_rad": result.total_phase_rad,
        "fringe_count": result.total_phase_rad / TWO_PI,
        "v_lambda_m2ps": result.v_lambda,
    }


class TestEmitResults:
    def test_two_segment_breakdown_length(self):
        wave = make_particle_wave(50.0, wavelength=0.1)
        path = BeamPath((Vec3(0, 0, 0), Vec3(0.5, 0, 0), Vec3(0.5, 0.5, 0)))
        result = path_phase(wave, path, MotionField(translation=Vec3(0.1, 0.2, 0)))
        payload = json.loads(emit_results({**totals(result), "per_segment": result.increments}, "json"))
        assert len(payload["per_segment"]) == 2
        payload = json.loads(emit_results(totals(result), "json"))
        assert "per_segment" not in payload

    def test_sweep_csv_reparses_bitwise(self):
        wave = make_particle_wave(1.0, wavelength=1e-8)
        config = build_config(
            "Fig3bOpen",
            wave,
            MotionField(translation=Vec3(0, 1e-4, 0)),
            opening_m=Vec3(0, 1e-4, 0),
        )
        sweep = sensitivity_sweep(config, 0.0, 2e-4, 7)
        doc = {"rows": (SweepRow._fields, sweep.rows), "cos_theta": sweep.cos_theta}
        lines = emit_results(doc, "csv").decode().splitlines()
        assert lines[0] == "V_mps,phase_rad,fringe_count"
        assert len(lines) == 1 + 7
        for line, row in zip(lines[1:], sweep.rows):
            v, phase, fringes = (float(tok) for tok in line.split(","))
            assert (v, phase, fringes) == (row.V_mps, row.phase_rad, row.fringe_count)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "document",
        [
            lambda bad: {"x": bad},
            lambda bad: {"x": 1.0, "opening_m": [0.0, bad, 0.0]},
            lambda bad: {"checks": [{"name": "a", "samples": 3, "max_violation": bad}]},
            lambda bad: {"rows": (("a", "b"), [(0.5, 1.0), (1.0, bad)]), "cos_theta": 1.0},
            lambda bad: {"x": 1.0, "per_segment": (("II", (0.5, 0.5)), ("I", (1.0, bad)))},
        ],
        ids=["top-level", "in-a-list", "in-a-dict-in-a-list", "grid-cell", "increment"],
    )
    def test_non_finite_float_refused_wherever_it_stands(self, document, fmt, bad):
        # One text in both formats, also for a list that CSV leaves out.
        with pytest.raises(MatterWaveError) as refused:
            emit_results(document(bad), fmt)
        assert str(refused.value) == f"result is not finite ({bad}); refusing to write it"

    def test_unknown_format_rejected(self):
        from matterwave import MatterWaveError

        with pytest.raises(MatterWaveError):
            emit_results({"x": 1.0}, "xml")


def reference_json(result: PhaseResult) -> bytes:
    """The breakdown as json.dumps writes the whole document."""
    payload = {
        **totals(result),
        "per_segment": [
            {"path_id": path_id, "segment_index": index, "phase_rad": phase}
            for path_id, incs in result.increments
            for index, phase in enumerate(incs)
        ],
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def reference_csv(result: PhaseResult) -> bytes:
    """The breakdown as a join of one cell per value writes it."""

    def cell(value):
        return repr(value) if isinstance(value, float) else str(value)

    rows = [["quantity", "value"]] + [[name, value] for name, value in totals(result).items()]
    rows += [
        [f"per_segment.{path_id}.{index}", phase]
        for path_id, incs in result.increments
        for index, phase in enumerate(incs)
    ]
    return ("\n".join(",".join(cell(v) for v in row) for row in rows) + "\n").encode()


# Finite increments, with the values where repr changes notation (1e16, 1e-4)
# and the ends of the float range.
finite_increments = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(
        [
            -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
            9999999999999998.0, 1e16, 1.0000000000000002e16, -1e16,
            9.999999999999999e-05, 1e-4, 0.00010000000000000002, -1e-4,
        ]
    ),
)
# Per beam, a label (the usual ones, or any text) and its increments.
labelled_beams = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(["II", "I"]), st.text(max_size=4)),
        st.lists(finite_increments, max_size=8).map(tuple),
    ),
    max_size=3,
).map(tuple)


class TestBreakdownTemplate:
    """The per-segment breakdown comes from a template; it is the serializers' bytes."""

    @given(labelled_beams, st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300))
    @example((('%d"%%', (1.0, -0.0)), ("II", ()), ("I", (5e-324,))), 0.0)
    def test_template_matches_the_reference_serializers(self, beams, total):
        result = PhaseResult(total_phase_rad=total, v_lambda=1e-8, walk=lambda: beams)
        doc = {**totals(result), "per_segment": beams}
        assert emit_results(doc, "json") == reference_json(result)
        assert emit_results(doc, "csv") == reference_csv(result)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_increment_refused(self, bad, fmt):
        beams = (("II", (0.5, 0.5)), ("I", (1.0, bad)))
        result = PhaseResult(total_phase_rad=1.0, v_lambda=1.0, walk=lambda: beams)
        with pytest.raises(MatterWaveError, match="not finite"):
            emit_results({**totals(result), "per_segment": result.increments}, fmt)
        # Without the breakdown the increments are not written, so not refused.
        assert emit_results(totals(result), fmt)


# A grid: distinct names, then rows of one finite float per name.
grids = st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True).flatmap(
    lambda header: st.tuples(
        st.just(tuple(header)),
        st.lists(st.tuples(*[finite_increments] * len(header)), max_size=6),
    )
)
# The other keys of a grid's document, one of them a nested "rows" key.
GRID_NEIGHBOURS = {"cos_theta": 0.5, "opening_m": [0.0, 1e-4, 0.0], "nested": {"rows": None}}


class TestGridTemplate:
    """A grid's rows come from a template; they are the serializers' bytes."""

    @given(
        grids,
        st.one_of(st.none(), labelled_beams),
        st.permutations(["rows", "per_segment", *GRID_NEIGHBOURS]),
    )
    @example(
        (("V_mps", '%d"%%'), [(1.0, -0.0), (5e-324, 1e16)]), None, ["rows", *GRID_NEIGHBOURS, "per_segment"]
    )
    @example((("offset_rad",), []), None, [*GRID_NEIGHBOURS, "rows", "per_segment"])
    @example(
        (("a", "b"), [(1.0, 2.0)]),
        (('%d"%%', (1.0, -0.0)), ("II", ()), ("I", (5e-324,))),
        ["per_segment", "cos_theta", "rows", "opening_m", "nested"],
    )
    def test_template_matches_the_reference_serializers(self, grid, beams, order):
        # The document holds the grid and, when one is drawn, a breakdown, in the drawn order.
        header, rows = grid
        values = {**GRID_NEIGHBOURS, "rows": grid, "per_segment": beams}
        doc = {key: values[key] for key in order if values[key] is not None}
        records = [dict(zip(header, row)) for row in rows]
        entries = [
            {"path_id": label, "segment_index": index, "phase_rad": phase}
            for label, incs in beams or ()
            for index, phase in enumerate(incs)
        ]
        lists = {"rows": records, "per_segment": entries}
        reference_json = json.dumps({k: lists.get(k, v) for k, v in doc.items()}, indent=2) + "\n"
        assert emit_results(doc, "json") == reference_json.encode()
        cells = [",".join(map(str, header))] + [",".join(map(repr, row)) for row in rows]
        cells += [f"per_segment.{e['path_id']}.{e['segment_index']},{e['phase_rad']!r}" for e in entries]
        assert emit_results(doc, "csv") == ("\n".join(cells) + "\n").encode()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_cell_refused(self, bad, fmt):
        doc = {"rows": (("a", "b"), [(0.5, 1.0), (1.0, bad)]), "cos_theta": 1.0}
        with pytest.raises(MatterWaveError, match=rf"^result is not finite \({bad}\); refusing"):
            emit_results(doc, fmt)


def run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scene(data_dir, name):
    return str(data_dir / name)


# Translations whose squared components overflow or underflow, with the
# cos(theta) they make with a 1e-4 m opening along +y.
EXTREME_TRANSLATIONS = pytest.mark.parametrize(
    "translation,cos_theta",
    [([1e200, 1e200, 0.0], math.sqrt(0.5)), ([1e-200, 0.0, 0.0], 0.0)],
    ids=["huge", "tiny"],
)


# A closed scene whose velocity at beam II's end, (1, 1, 0), lies beyond the float
# range, (inf, 1, 0), while every segment stays inside the boost domain.
OVERFLOWING_VELOCITY_SCENE = {
    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
    "motion": {"translation_mps": [1e308, 0, 0], "omega_radps": [0, 0, 1], "pivot_m": [0, 1e308, 0]},
    "geometry": {
        "path_I_m": [[0, 0, 0], [0, 1, 0], [1, 1, 0]],
        "path_II_m": [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
    },
}


def open_scene(tmp_path, motion, opening_m=(0.0, 1e-4, 0.0), speed_mps=1.0, wavelength_m=1e-8):
    """Fig3bOpen scene file of the given motion section."""
    scene_file = tmp_path / "moving_open.json"
    scene_file.write_text(
        json.dumps(
            {
                "particle": {"speed_mps": speed_mps, "wavelength_m": wavelength_m},
                "motion": motion,
                "geometry": {"kind": "Fig3bOpen", "opening_m": list(opening_m)},
            }
        )
    )
    return str(scene_file)


def moving_open_scene(tmp_path, translation):
    """Fig3bOpen scene with v*lambda = 1e-8 m^2/s: one fringe at V . D = 1e-8 m^2/s."""
    return open_scene(tmp_path, {"translation_mps": translation})


class TestPhaseCommand:
    def test_slow_atom_scene_gives_one_fringe(self, capsys, data_dir):
        code, out, _ = run(capsys, ["phase", "--scene", scene(data_dir, "slow_atom_open.json")])
        assert code == 0
        payload = json.loads(out)
        assert payload["total_phase_rad"] == pytest.approx(TWO_PI, rel=1e-12)
        assert payload["fringe_count"] == pytest.approx(1.0, rel=1e-12)
        assert "per_segment" not in payload

    def test_breakdown_lists_both_beams(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            ["phase", "--scene", scene(data_dir, "slow_atom_open.json"), "--breakdown"],
        )
        assert code == 0
        payload = json.loads(out)
        entries = payload["per_segment"]
        assert {e["path_id"] for e in entries} == {"I", "II"}
        assert len(entries) == 4  # two segments per beam
        total = math.fsum(e["phase_rad"] for e in entries)
        assert total == pytest.approx(payload["total_phase_rad"], rel=1e-12)

    def test_scene_output_block_controls_breakdown(self, capsys, data_dir):
        code, out, _ = run(
            capsys, ["phase", "--scene", scene(data_dir, "closed_translation.json")]
        )
        assert code == 0
        assert "per_segment" in json.loads(out)

    def test_missing_scene_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["phase", "--scene", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error" in err

    def test_apparatus_faster_than_particles_is_input_error(self, capsys, tmp_path):
        # A segment receding as fast as the particles is outside the phase
        # model: rejected input (exit 1), not a verification failure.
        scene_file = tmp_path / "too_fast.json"
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "motion": {"translation_mps": [-5.0, 0.0, 0.0]},
                    "geometry": {"kind": "Fig3aClosed", "side_m": 0.01},
                }
            )
        )
        code, _, err = run(capsys, ["phase", "--scene", str(scene_file)])
        assert code == 1
        assert "phase model does not apply" in err


def coincident_join_scene(speed_mps: float) -> dict:
    """A closed scene turning at 1 rad/s whose beam I ends 1e-13 m past beam II's end, from
    a vertex that is beam II's end; v * lambda is 1e-8 m^2/s. At 1 m/s the square's far
    side recedes as fast as the particles travel."""
    return {
        "particle": {"speed_mps": speed_mps, "wavelength_m": 1e-8 / speed_mps},
        "motion": {"omega_radps": [0, 0, 1]},
        "geometry": {
            "path_II_m": [[0, 0, 0], [1, 0, 0], [1, 1, 0]],
            "path_I_m": [[0, 0, 0], [0, 1, 0], [1, 1, 0], [1.0000000000001, 1, 0]],
        },
    }


# A closed scene whose beams each span 1e308 m in x, and 2e308 m together.
WIDE_LOOP_SCENE = {
    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
    "motion": {"omega_radps": [0, 0, 1e-300]},
    "geometry": {
        "path_II_m": [[0, 0, 0], [1e308, 0.5, 0], [0, 1, 0]],
        "path_I_m": [[0, 0, 0], [-1e308, 0.5, 0], [0, 1, 0]],
    },
}


class TestSagnacCommand:
    def test_loop_integral_agrees_with_area_formula(self, capsys, data_dir):
        code, out, _ = run(
            capsys, ["sagnac", "--scene", scene(data_dir, "earth_rotation_square.json")]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["relative_difference"] <= 1e-10
        # Earth-rate square, 0.1 m side, neutron wave at 2200 m/s.
        expected = (
            4 * math.pi / (6.62607015e-34 / 1.67492749804e-27)
        ) * 7.2921159e-5 * 0.01
        assert abs(payload["area_formula_phase_rad"]) == pytest.approx(expected, rel=1e-10)

    def test_open_scene_rejected(self, capsys, data_dir):
        code, _, err = run(capsys, ["sagnac", "--scene", scene(data_dir, "slow_atom_open.json")])
        assert code == 1
        assert "error" in err

    def test_loop_repeating_a_vertex_at_the_join_agrees_with_phase(self, capsys, tmp_path):
        # Beam I ends 1e-13 m from beam II, and its last but one vertex is beam II's end:
        # the loop goes on from there, and both of sagnac's forms meet phase's total
        # within the README bounds.
        doc = coincident_join_scene(10.0)
        scene_file = tmp_path / "coincident_join.json"
        scene_file.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["sagnac", "--scene", str(scene_file)])
        assert (code, err) == (0, "")
        _, phase_out, _ = run(capsys, ["phase", "--scene", str(scene_file)])
        total = json.loads(phase_out)["total_phase_rad"]
        config = config_from_scene(parse_scene(json.dumps(doc)))
        bound = exact.sagnac_bound(config, interference_loop(config), total)
        sagnac = json.loads(out)
        for key in ("loop_integral_phase_rad", "area_formula_phase_rad"):
            assert abs(sagnac[key] - total) <= bound

    def test_rotation_outside_the_slow_motion_domain_refused_as_phase_refuses(
        self, capsys, tmp_path
    ):
        # The square's far side, 0.1 m from the axis, recedes at 100 m/s against v = 1 m/s.
        scene_file = tmp_path / "fast_rotation.json"
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "motion": {"omega_radps": [0, 0, 1000]},
                    "geometry": {"kind": "Fig2Rotation", "side_m": 0.1},
                }
            )
        )
        refusal = (
            "matterwave: error: segment speed along the beam (-100.0 m/s) cancels or exceeds "
            "the particle speed (1.0 m/s); phase model does not apply\n"
        )
        for command in ("phase", "sagnac"):
            assert run(capsys, [command, "--scene", str(scene_file)]) == (1, "", refusal)

    @pytest.mark.parametrize(
        "omega,message",
        [
            ([0, 0, 1e100], "circulation overflows the float range"),
            # The circulation is finite, both phases are not.
            ([0, 0, 1], "phase overflows the float range"),
        ],
        ids=["circulation", "phase"],
    )
    def test_loop_whose_phase_overflows_refused(self, capsys, tmp_path, omega, message):
        scene_file = tmp_path / "huge_triangle.json"
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "motion": {"omega_radps": omega},
                    "geometry": {
                        "path_II_m": [[0, 0, 0], [1e150, 0, 0], [1e150, 1e150, 0]],
                        "path_I_m": [[0, 0, 0], [1e150, 1e150, 0]],
                    },
                }
            )
        )
        code, out, err = run(capsys, ["sagnac", "--scene", str(scene_file)])
        assert (code, out, err) == (1, "", f"matterwave: error: {message}\n")


class TestTranslateCommand:
    def test_slow_atom_scene_value(self, capsys, data_dir):
        code, out, _ = run(capsys, ["translate", "--scene", scene(data_dir, "slow_atom_open.json")])
        assert code == 0
        payload = json.loads(out)
        assert payload["phase_rad"] == pytest.approx(6.283185307179586, rel=1e-9)
        assert payload["cos_theta"] == pytest.approx(1.0, rel=1e-12)
        assert payload["opening_magnitude_m"] == pytest.approx(1e-4, rel=1e-12)

    @EXTREME_TRANSLATIONS
    def test_extreme_translation_angle(self, capsys, tmp_path, translation, cos_theta):
        argv = ["translate", "--scene", moving_open_scene(tmp_path, translation)]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out)["cos_theta"] == pytest.approx(cos_theta, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_at_rest_gives_zero_phase_and_no_angle(self, capsys, tmp_path, fmt):
        # With no motion section the apparatus is at rest: no translation, so no angle.
        scene_file = tmp_path / "at_rest.json"
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "geometry": {"kind": "Fig3bOpen", "opening_m": [0.0, 1e-4, 0.0]},
                }
            )
        )
        code, out, err = run(capsys, ["translate", "--scene", str(scene_file), "--format", fmt])
        assert (code, err) == (0, "")
        if fmt == "json":
            payload = json.loads(out)
            assert (repr(payload["phase_rad"]), payload["cos_theta"]) == ("0.0", None)
        else:
            rows = dict(line.split(",") for line in out.splitlines())
            assert rows["phase_rad"] == "0.0"
            assert "cos_theta" not in rows

    def test_closed_scene_rejected(self, capsys, data_dir):
        code, _, err = run(
            capsys, ["translate", "--scene", scene(data_dir, "closed_translation.json")]
        )
        assert code == 1
        assert "error" in err


# Translations whose norm overflows or is subnormal, on a Fig3bOpen layout with
# the opening [1e-3, 1e-3, 0] and v*lambda = 1e6 m^2/s. Each has a direction.
OUT_OF_RANGE_NORMS = pytest.mark.parametrize(
    "translation", [[1.5e308, 1.5e308, 0.0], [3e-321, 4e-321, 0.0]], ids=["overflowing", "subnormal"]
)


def out_of_range_norm_scene(tmp_path, translation):
    scene_file = tmp_path / "out_of_range_norm.json"
    scene_file.write_text(
        json.dumps(
            {
                "particle": {"speed_mps": 1e6, "wavelength_m": 1.0},
                "motion": {"translation_mps": translation},
                "geometry": {"kind": "Fig3bOpen", "opening_m": [1e-3, 1e-3, 0.0]},
            }
        )
    )
    return str(scene_file)


def cos_to_the_diagonal(translation) -> float:
    """cos(theta) between the translation and [1, 1, 0], on the translation scaled by a
    power of two into the normal range, which keeps its ratios."""
    x, y = (math.ldexp(c, 1074 if abs(c) < 1e-300 else -1000) for c in translation[:2])
    return (x + y) / (math.hypot(x, y) * math.sqrt(2.0))


class TestOutOfRangeTranslationNorms:
    @OUT_OF_RANGE_NORMS
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_translate(self, capsys, tmp_path, translation, fmt):
        argv = ["translate", "--scene", out_of_range_norm_scene(tmp_path, translation)]
        code, out, err = run(capsys, argv + ["--format", fmt])
        assert (code, err) == (0, "")
        if fmt == "json":
            cos_theta = json.loads(out)["cos_theta"]
        else:
            cos_theta = float(dict(line.split(",") for line in out.splitlines())["cos_theta"])
        assert cos_theta == pytest.approx(cos_to_the_diagonal(translation), rel=1e-12)

    @OUT_OF_RANGE_NORMS
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep(self, capsys, tmp_path, translation, fmt):
        # Along the translation's direction at V = 2 m/s: V . D = 2 * |D| * cos(theta).
        argv = ["sweep", "--scene", out_of_range_norm_scene(tmp_path, translation)]
        code, out, err = run(capsys, argv + ["--vmax", "2", "--steps", "3", "--format", fmt])
        assert (code, err) == (0, "")
        cos_theta, opening = cos_to_the_diagonal(translation), math.hypot(1e-3, 1e-3)
        fringes = 2.0 * opening * cos_theta / 1e6
        if fmt == "json":
            payload = json.loads(out)
            assert payload["cos_theta"] == pytest.approx(cos_theta, rel=1e-12)
            assert payload["v_full_fringe_mps"] == pytest.approx(1e6 / (opening * cos_theta), rel=1e-12)
            last = payload["rows"][-1]["fringe_count"]
        else:
            last = float(out.splitlines()[-1].split(",")[2])
        assert last == pytest.approx(fringes, rel=1e-12, abs=0.0)


# The slow-motion domain of the boost model, on a Fig3bOpen layout with v = 1 m/s.
BOOST_REFUSAL = (
    "segment speed along the beam (-5.0 m/s) cancels or exceeds the particle speed "
    "(1.0 m/s); phase model does not apply\n"
)


class TestSlowMotionDomain:
    """translate and sweep refuse the motions that phase refuses: a segment receding
    at the particle speed or faster."""

    @pytest.mark.parametrize("command", ["phase", "fringes", "translate"])
    def test_translation_beyond_the_particle_speed_refused(self, capsys, tmp_path, command):
        argv = [command, "--scene", moving_open_scene(tmp_path, [-5.0, 0.0, 0.0])]
        assert run(capsys, argv) == (1, "", "matterwave: error: " + BOOST_REFUSAL)

    def test_sweep_refused_at_its_largest_speed(self, capsys, tmp_path):
        argv = ["sweep", "--scene", moving_open_scene(tmp_path, [-5.0, 0.0, 0.0]), "--vmax", "5"]
        message = "matterwave: error: at sweep speed 5.0 m/s: " + BOOST_REFUSAL
        assert run(capsys, argv) == (1, "", message)

    def test_sweep_below_the_particle_speed_answered(self, capsys, tmp_path):
        argv = ["sweep", "--scene", moving_open_scene(tmp_path, [-5.0, 0.0, 0.0]), "--vmax", "0.5"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert json.loads(out)["rows"][-1]["V_mps"] == 0.5

    def test_sweep_at_rest_checks_the_direction_of_the_opening(self, capsys, tmp_path):
        # At rest the sweep runs along the opening, +y, and beam I's closing stub
        # recedes at |V| / sqrt(5).
        argv = ["sweep", "--scene", moving_open_scene(tmp_path, [0.0, 0.0, 0.0]), "--vmax", "5"]
        code, out, err = run(capsys, argv)
        assert_refused(code, out, err)
        assert "at sweep speed 5.0 m/s: segment speed along the beam (-2.236067977499" in err

    @pytest.mark.parametrize("command", ["phase", "translate"])
    def test_fast_translation_along_every_segment_answered(self, capsys, tmp_path, command):
        # Faster than the particles, but no segment recedes: the beams are walked, and
        # the motion is answered.
        code, out, err = run(capsys, [command, "--scene", moving_open_scene(tmp_path, [5.0, 0.0, 0.0])])
        assert (code, err) == (0, "")


def overflow_scene(tmp_path, translation, closed=True):
    """Two beams with the step [-3, 2, 0]: under [1e308, 1e308, 0] its V . dL is
    -3e308 + 2e308, which is -inf + inf in floats."""
    beam_i = [[0, 0, 0], [0, 0, 1], [-3, 2, 1]]
    if not closed:
        beam_i = [[0, 0, 0.5], [-3, 2, 0.5], [-3, 2, 1]]
    scene_file = tmp_path / "overflow.json"
    scene_file.write_text(
        json.dumps(
            {
                "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                "motion": {"translation_mps": translation},
                "geometry": {"path_II_m": [[0, 0, 0], [-3, 2, 0], [-3, 2, 1]], "path_I_m": beam_i},
            }
        )
    )
    return str(scene_file)


class TestOverflowingSpeedAlongTheBeam:
    """Where V . dL overflows, the speed along the beam is taken along the unit gap,
    and the segment is refused as at a finite scale."""

    @pytest.mark.parametrize(
        "command,closed",
        [("phase", True), ("sagnac", True), ("phase", False), ("translate", False)],
    )
    @pytest.mark.parametrize(
        "scale,speed", [(1e3, "-277.35009811261455"), (1e308, "-2.7735009811261455e+307")]
    )
    def test_refused(self, capsys, tmp_path, command, closed, scale, speed):
        argv = [command, "--scene", overflow_scene(tmp_path, [scale, scale, 0], closed)]
        message = (
            f"matterwave: error: segment speed along the beam ({speed} m/s) cancels or exceeds "
            "the particle speed (1.0 m/s); phase model does not apply\n"
        )
        assert run(capsys, argv) == (1, "", message)


def compiled(config) -> tuple[bool, bool]:
    """Whether each beam, II then I, holds its compiled form."""
    return tuple("moments" in vars(path) for path in (config.path_II, config.path_I))


def run_keeping_the_config(capsys, monkeypatch, argv):
    """Run the command and return the config it built from its scene."""
    configs = []

    def kept(doc):
        configs.append(config_from_scene(doc))
        return configs[-1]

    monkeypatch.setattr("matterwave.cli.config_from_scene", kept)
    code, _, err = run(capsys, argv)
    assert (code, err) == (0, "")
    (config,) = configs
    return config


class TestTranslationOnlyChecksCompileNothing:
    """The domain check compiles neither beam: a translation's speed bounds every
    segment's, a rotation's bound reads each beam's extent, and where the bound reaches
    the particle speed the walk reads the reference vertex there too. Only a total that
    sums the moments, as phase's does, compiles them."""

    def test_translate(self, capsys, tmp_path, monkeypatch):
        argv = ["translate", "--scene", moving_open_scene(tmp_path, [0.5, 0.5, 0.0])]
        assert compiled(run_keeping_the_config(capsys, monkeypatch, argv)) == (False, False)

    def test_sweep(self, unit_wave):
        motion = MotionField(translation=Vec3(0.5, 0.5, 0.0))
        config = build_config("Fig3bOpen", unit_wave, motion, opening_m=Vec3(0.0, 1e-4, 0.0))
        sensitivity_sweep(config, 0.0, 0.5, 3)
        assert compiled(config) == (False, False)

    @pytest.mark.parametrize(
        "motion", [{"translation_mps": [0.5, 0.5, 0]}, {"omega_radps": [0, 0, 1]}]
    )
    def test_sagnac(self, capsys, tmp_path, monkeypatch, motion):
        particle = {"speed_mps": 1.0, "wavelength_m": 1e-8}
        argv = ["sagnac", "--scene", write_scene(tmp_path, particle, motion=motion)]
        assert compiled(run_keeping_the_config(capsys, monkeypatch, argv)) == (False, False)

    def test_sagnac_walking_the_beams(self, capsys, tmp_path, monkeypatch):
        # The bound, |U0| + |omega| * reach = 1.41 m/s, reaches v = 1 m/s, so the
        # segments are walked; no point of the 0.1 m square moves faster than 0.71 m/s.
        particle = {"speed_mps": 1.0, "wavelength_m": 1e-8}
        scene_file = write_scene(tmp_path, particle, side_m=0.1, motion={"omega_radps": [0, 0, 5]})
        config = run_keeping_the_config(capsys, monkeypatch, ["sagnac", "--scene", scene_file])
        assert compiled(config) == (False, False)

    def test_translate_walking_the_beams(self, capsys, tmp_path, monkeypatch):
        # |T| = 5 m/s against v = 1 m/s, along the arms: the beams are walked, and answered.
        argv = ["translate", "--scene", moving_open_scene(tmp_path, [5.0, 0.0, 0.0])]
        assert compiled(run_keeping_the_config(capsys, monkeypatch, argv)) == (False, False)

    def test_a_rotating_motion_compiles_both_beams(self, capsys, tmp_path, monkeypatch):
        argv = ["phase", "--scene", open_scene(tmp_path, {"omega_radps": [0.0, 0.0, 1e-3]})]
        assert compiled(run_keeping_the_config(capsys, monkeypatch, argv)) == (True, True)


class TestSweepCommand:
    def test_csv_structure(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--scene", scene(data_dir, "slow_atom_open.json"),
                "--vmax", "2e-4",
                "--steps", "3",
                "--format", "csv",
            ],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "V_mps,phase_rad,fringe_count"
        assert len(lines) == 4  # header + 3 rows
        assert out.endswith("\n")
        assert "\r" not in out
        # every value reparses exactly (shortest round-trip floats)
        for line in lines[1:]:
            v, phase, fringes = (float(tok) for tok in line.split(","))
            assert phase / TWO_PI == pytest.approx(fringes, rel=1e-15, abs=1e-300)

    def test_json_reports_full_fringe_speed(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--scene", scene(data_dir, "slow_atom_open.json"),
                "--vmax", "2e-4",
                "--steps", "21",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["v_full_fringe_mps"] == pytest.approx(1e-4, rel=1e-12)
        lo, hi = payload["bracket_mps"]
        assert lo <= payload["v_full_fringe_mps"] <= hi
        assert len(payload["rows"]) == 21

    def test_fringe_count_column_hits_one(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            [
                "sweep",
                "--scene", scene(data_dir, "slow_atom_open.json"),
                "--vmax", "1e-4",
                "--steps", "2",
                "--format", "csv",
            ],
        )
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, rel=1e-12)

    @EXTREME_TRANSLATIONS
    def test_extreme_translation_direction(self, capsys, tmp_path, translation, cos_theta):
        # The sweep runs along the translation: at V = 1e-4 m/s, cos(theta) fringes.
        argv = ["sweep", "--scene", moving_open_scene(tmp_path, translation), "--vmax", "1e-4"]
        code, out, _ = run(capsys, argv + ["--steps", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["cos_theta"] == pytest.approx(cos_theta, rel=1e-12)
        assert payload["rows"][-1]["fringe_count"] == pytest.approx(cos_theta, rel=1e-12)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_full_fringe_speed_beyond_the_float_range_is_null(self, capsys, tmp_path, fmt):
        # v*lambda / (|D| cos(theta)) = 1 / (1e-3 * 1e-306) overflows: no finite speed
        # gives a fringe.
        motion = {"translation_mps": [1e-306, 1.0, 0.0]}
        path = open_scene(tmp_path, motion, (1e-3, 0.0, 0.0), speed_mps=1000.0, wavelength_m=1e-3)
        argv = ["sweep", "--scene", path, "--vmax", "1", "--steps", "2", "--format", fmt]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert json.loads(out)["v_full_fringe_mps"] is None

    @pytest.mark.parametrize(
        "argv", [["translate"], ["sweep", "--vmax", "1e-3"]], ids=["translate", "sweep"]
    )
    def test_cos_theta_of_parallel_vectors_is_one(self, capsys, tmp_path, argv):
        # The unit vectors of (1e-4, 1e-4, 0) have a dot product of 1.0000000000000002.
        path = open_scene(tmp_path, {"translation_mps": [1e-4, 1e-4, 0.0]}, (1e-4, 1e-4, 0.0))
        code, out, err = run(capsys, argv + ["--scene", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["cos_theta"] == 1.0

    def test_rejects_bad_grid(self, capsys, data_dir):
        code, _, err = run(
            capsys,
            ["sweep", "--scene", scene(data_dir, "slow_atom_open.json"), "--vmax", "0.0"],
        )
        assert code == 1
        assert "error" in err


class TestFringesCommand:
    def test_offset_grid(self, capsys, data_dir):
        code, out, _ = run(
            capsys,
            ["fringes", "--scene", scene(data_dir, "closed_translation.json"), "--steps", "5"],
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 5
        assert rows[0]["offset_rad"] == 0.0
        assert rows[-1]["offset_rad"] == pytest.approx(TWO_PI, rel=1e-15)
        for row in rows:
            assert 0.0 - 1e-12 <= row["normalized_intensity"] <= 1.0 + 1e-12

    def test_single_step_refused(self, capsys, data_dir):
        code, out, err = run(
            capsys,
            ["fringes", "--scene", scene(data_dir, "closed_translation.json"), "--steps", "1"],
        )
        assert (code, out, err) == (1, "", f"matterwave: error: {STEPS_RANGE}, got 1\n")


# The one grid-size rule of a sweep and a fringe scan, stated by experiment._check_steps.
STEPS_RANGE = "steps must be an integer from 2 to 100000"
STEPS_ARGV = {
    "sweep": ["sweep", "--scene", "slow_atom_open.json", "--vmax", "2e-4"],
    "fringes": ["fringes", "--scene", "closed_translation.json"],
}


def steps_argv(data_dir, command: str, steps: str) -> list:
    argv = STEPS_ARGV[command] + ["--steps", steps]
    return [scene(data_dir, arg) if arg.endswith(".json") else arg for arg in argv]


@pytest.mark.parametrize("steps", ["100001", "1000000000000"])
@pytest.mark.parametrize("command", ["sweep", "fringes"])
def test_steps_beyond_the_maximum_refused_at_once(capsys, data_dir, command, steps):
    code, out, err = run(capsys, steps_argv(data_dir, command, steps))
    assert (code, out, err) == (1, "", f"matterwave: error: {STEPS_RANGE}, got {steps}\n")


@pytest.mark.parametrize("steps", ["1", "100001", "1000000000000"])
def test_sweep_and_fringes_refuse_a_steps_count_with_one_text(capsys, data_dir, steps):
    lines = set()
    for command in STEPS_ARGV:
        code, out, err = run(capsys, steps_argv(data_dir, command, steps))
        assert (code, out) == (1, "")
        lines.add(err)
    assert lines == {f"matterwave: error: {STEPS_RANGE}, got {steps}\n"}


@pytest.mark.parametrize("steps", [True, 2.5, 1, 100001])
def test_sensitivity_sweep_refuses_a_steps_count_with_the_same_text(unit_wave, steps):
    config = build_config("Fig3bOpen", unit_wave, MotionField(), opening_m=1e-4)
    with pytest.raises(GeometryError) as info:
        sensitivity_sweep(config, 0.0, 1e-4, steps)
    assert str(info.value) == f"{STEPS_RANGE}, got {steps!r}"


class TestVerifyCommand:
    def test_passes_with_default_seed(self, capsys):
        code, out, _ = run(capsys, ["verify", "--seed", "42"])
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["checks"]) == 10

    def test_failed_check_exits_two_and_reports_its_worst_case(self, capsys, monkeypatch):
        worst_case = {"loop": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "omega_radps": [0.0, 0.0, 1.0]}
        checks = (
            PropertyCheck("curl-doubles-rotation", 50, 1e-8, 1e-6, True),
            PropertyCheck("sagnac-loop-vs-area", 200, 0.25, 1e-10, False, worst_case),
        )
        monkeypatch.setattr("matterwave.cli.verify_suite", lambda seed: VerifyReport(seed, checks))
        code, out, _ = run(capsys, ["verify", "--seed", "7"])
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"][1]["worst_case"] == worst_case
        code, out, _ = run(capsys, ["verify", "--seed", "7", "--format", "csv"])
        assert code == 2
        header, passing, failing = out.splitlines()
        assert header == "check,samples,max_violation,tolerance,passed"
        assert (passing, failing) == (
            "curl-doubles-rotation,50,1e-08,1e-06,true",
            "sagnac-loop-vs-area,200,0.25,1e-10,false",
        )
        assert "worst_case" not in out


def subcommands() -> dict:
    """The CLI parser's subcommands: name to parser."""
    parser = cli._build_parser()
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestCliContract:
    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, err = run(capsys, ["warp"])
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag_exits_one(self, capsys, data_dir):
        code, _, err = run(
            capsys, ["phase", "--scene", scene(data_dir, "slow_atom_open.json"), "--bogus"]
        )
        assert code == 1
        assert "usage" in err.lower()

    def test_no_arguments_prints_usage(self, capsys):
        code, out, err = run(capsys, [])
        assert (code, out) == (1, "")
        assert err.splitlines()[0].startswith("matterwave: error: ")
        assert "usage" in err.lower()

    # Each subcommand's document builder; verify reads no scene and has none.
    BUILDERS = {
        "phase": cli._phase,
        "sagnac": cli._sagnac,
        "translate": cli._translate,
        "sweep": cli._sweep,
        "fringes": cli._fringes,
        "verify": None,
    }

    def test_every_subcommand_is_in_the_table(self):
        assert list(subcommands()) == list(self.BUILDERS)

    @pytest.mark.parametrize("command", list(subcommands()))
    def test_each_command_names_its_own_builder(self, command):
        argv = [command] + (["--scene", "scene.json"] if self.BUILDERS[command] else [])
        argv += ["--vmax", "1"] if command == "sweep" else []
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, "document", None) is self.BUILDERS[command]

    @pytest.mark.parametrize("argv", [["--help"], ["phase", "--help"]], ids=["top", "phase"])
    def test_help_exits_zero_with_usage_on_stdout(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: matterwave")

    def test_out_flag_writes_file(self, capsys, data_dir, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys,
            ["phase", "--scene", scene(data_dir, "slow_atom_open.json"), "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["total_phase_rad"] == pytest.approx(TWO_PI, rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--scene", "{slow_atom}"],
            ["phase", "--scene", "{slow_atom}", "--breakdown"],
            ["sagnac", "--scene", "{earth}"],
            ["translate", "--scene", "{slow_atom}"],
            ["sweep", "--scene", "{slow_atom}", "--vmax", "2e-4", "--steps", "7"],
            ["sweep", "--scene", "{slow_atom}", "--vmax", "2e-4", "--format", "csv"],
            ["fringes", "--scene", "{closed}", "--steps", "5"],
            ["verify", "--seed", "3"],
        ],
    )
    def test_reruns_are_byte_identical(self, capsys, data_dir, argv):
        argv = [
            a.format(
                slow_atom=scene(data_dir, "slow_atom_open.json"),
                earth=scene(data_dir, "earth_rotation_square.json"),
                closed=scene(data_dir, "closed_translation.json"),
            )
            for a in argv
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1) > 0


def modules_loaded_by(code):
    """Modules a fresh ``python -S`` process adds to ``sys.modules`` while running ``code``.

    Measured against the bare interpreter (no site), so that what site loads
    does not count.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        f"import sys; before = set(sys.modules); {code}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.split())


def test_startup_imports_no_code_introspection_modules():
    # Every CLI run pays for what ``import matterwave.cli`` loads. Each module
    # below costs milliseconds at start-up and is not needed: the dataclass
    # machinery alone pulls in all of them.
    added = modules_loaded_by("import matterwave.cli")
    assert "matterwave.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})
    # Only verify needs the randomized checks and the random module they draw from.
    assert added.isdisjoint({"matterwave._selfcheck", "random"})


def test_verify_loads_the_self_check():
    added = modules_loaded_by(
        "import os; from matterwave.cli import run_command; "
        "assert run_command(['verify', '--seed', '0', '--out', os.devnull]) == 0"
    )
    assert "matterwave._selfcheck" in added


class TestCollectorStateKept:
    """run_command leaves the cyclic garbage collector as it finds it."""

    def test_enabled_after_an_answer(self, capsys, data_dir):
        assert gc.isenabled()
        code, _, _ = run(capsys, ["phase", "--scene", scene(data_dir, "slow_atom_open.json")])
        assert code == 0
        assert gc.isenabled()

    def test_enabled_after_a_scene_refusal(self, capsys, tmp_path):
        scene_file = tmp_path / "scene.json"
        scene_file.write_text('{"particle": {"speed_mps": 1.0,')
        assert gc.isenabled()
        code, out, err = run(capsys, ["phase", "--scene", str(scene_file)])
        assert_refused(code, out, err)
        assert "syntax error" in err
        assert gc.isenabled()

    def test_disabled_by_the_caller_stays_disabled(self, capsys, data_dir):
        gc.disable()
        try:
            code, _, _ = run(capsys, ["phase", "--scene", scene(data_dir, "slow_atom_open.json")])
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert code == 0

    def test_freeze_count_unchanged(self, capsys, data_dir):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            code, _, _ = run(capsys, ["phase", "--scene", scene(data_dir, "slow_atom_open.json")])
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        assert code == 0


def staircase_scene(tmp_path, steps):
    """A closed explicit scene of 2 * steps + 2 segments, turning slowly about z."""
    beam_ii = [[i / steps, 0.0, 0.0] for i in range(steps + 1)] + [[1.0, 1.0, 0.0]]
    beam_i = [[0.0, i / steps, 0.0] for i in range(steps + 1)] + [[1.0, 1.0, 0.0]]
    scene_file = tmp_path / "staircase.json"
    scene_file.write_text(
        json.dumps(
            {
                "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                "motion": {"omega_radps": [0.0, 0.0, 0.1]},
                "geometry": {"path_II_m": beam_ii, "path_I_m": beam_i},
            }
        )
    )
    return str(scene_file)


class TestCollectorOffForTheProcess:
    """``main``, the console script, turns the cyclic garbage collector off for its
    one short process."""

    def test_main_runs_the_command_with_the_collector_off(self, monkeypatch):
        # What start-up built is frozen, so the exit collection leaves it out.
        states = []
        monkeypatch.setattr(
            "matterwave.cli.run_command",
            lambda argv: states.append((gc.isenabled(), gc.get_freeze_count() > 0)) or 0,
        )
        monkeypatch.setattr(sys, "argv", ["matterwave", "phase"])
        try:
            with pytest.raises(SystemExit) as done:
                main()
        finally:
            gc.unfreeze()
            gc.enable()
        assert (states, done.value.code) == ([(False, True)], 0)

    def test_a_sagnac_run_starts_no_collection(self, tmp_path):
        # The loop's kept rows, one tuple per segment, would set off collections.
        probe = textwrap.dedent(
            f"""
            import gc, os, sys
            import matterwave.cli
            starts = []
            gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info))
            sys.argv = ["matterwave", "sagnac", "--scene", {staircase_scene(tmp_path, 10_000)!r},
                        "--out", os.devnull]
            try:
                matterwave.cli.main()
            except SystemExit as done:
                print(done.code, len(starts))
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", probe],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.stdout, child.stderr) == ("0 0\n", "")

    def test_the_console_script_freezes_start_up_before_its_command(self):
        # The exit collection walks only the objects outside the permanent generation.
        probe = textwrap.dedent(
            """
            import gc, os, sys
            import matterwave.cli
            run_command = matterwave.cli.run_command
            def probed(argv):
                print(gc.get_freeze_count() > 10 * len(gc.get_objects()))
                return run_command(argv)
            matterwave.cli.run_command = probed
            sys.argv = ["matterwave", "verify", "--out", os.devnull]
            matterwave.cli.main()
            """
        )
        child = subprocess.run(
            [sys.executable, "-c", probe],
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "True\n", "")


def write_scene(tmp_path, particle, side_m=0.01, motion=None):
    scene_file = tmp_path / "scene.json"
    geometry = {"kind": "Fig3aClosed", "side_m": side_m}
    scene_file.write_text(
        json.dumps({"particle": particle, "geometry": geometry, "motion": motion or {}})
    )
    return str(scene_file)


def assert_refused(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("matterwave: error:")


class TestErrorContract:
    """Every input ends in exit 0 with valid output or exit 1 with an error line."""

    @pytest.mark.parametrize(
        "particle",
        [
            {"speed_mps": 1e-300, "wavelength_m": 1e-300},
            {"speed_mps": 1e-200, "mass_kg": 1e-200},
            {"speed_mps": 1e200, "wavelength_m": 1e200},
            {"speed_mps": 1, "wavelength_m": 10**400},
        ],
    )
    def test_wave_outside_float_range_refused(self, capsys, tmp_path, particle):
        assert_refused(*run(capsys, ["phase", "--scene", write_scene(tmp_path, particle)]))

    @pytest.mark.parametrize("command", ["sagnac"])
    def test_sum_beyond_float_range_refused(self, capsys, tmp_path, command):
        # Segment terms of 1e310 overflow to +inf on one side, -inf on the other.
        path = write_scene(
            tmp_path,
            {"speed_mps": 1.0, "wavelength_m": 1.0},
            side_m=1e210,
            motion={"translation_mps": [1e100, 0.0, 0.0]},
        )
        code, out, err = run(capsys, [command, "--scene", path])
        assert_refused(code, out, err)
        assert "overflows the float range" in err

    @pytest.mark.parametrize(
        "command,key", [("phase", "total_phase_rad"), ("fringes", "base_phase_rad")],
        ids=["phase", "fringes"],
    )
    def test_velocity_beyond_the_float_range_answered_as_sagnac(
        self, capsys, tmp_path, command, key
    ):
        # The velocity at beam II's end, (1, 1, 0), is (inf, 1, 0), but the opening
        # is exactly zero: the phase is sagnac's, 4*pi/(v*lambda) * omega . A for
        # the unit square.
        scene_file = tmp_path / "overflow.json"
        scene_file.write_text(json.dumps(OVERFLOWING_VELOCITY_SCENE))
        code, out, err = run(capsys, [command, "--scene", str(scene_file)])
        assert (code, err) == (0, "")
        _, sagnac, _ = run(capsys, ["sagnac", "--scene", str(scene_file)])
        total = json.loads(sagnac)["loop_integral_phase_rad"]
        assert json.loads(out)[key] == total == 1256637061.4359171

    def test_velocity_beyond_the_float_range_breakdown_refused(self, capsys, tmp_path):
        # The same scene's per-segment increments overflow: the total has a finite
        # value, its breakdown has none.
        scene_file = tmp_path / "overflow.json"
        scene_file.write_text(json.dumps(OVERFLOWING_VELOCITY_SCENE))
        message = "matterwave: error: result is not finite (inf); refusing to write it\n"
        argv = ["phase", "--scene", str(scene_file), "--breakdown"]
        assert run(capsys, argv) == (1, "", message)

    def test_closed_translation_beyond_float_range_answered(self, capsys, tmp_path):
        # The same loop: its segment terms overflow, but beams that share start
        # and end have the opening 0, and the phase is exactly 0.
        path = write_scene(
            tmp_path,
            {"speed_mps": 1.0, "wavelength_m": 1.0},
            side_m=1e210,
            motion={"translation_mps": [1e100, 0.0, 0.0]},
        )
        code, out, err = run(capsys, ["phase", "--scene", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["total_phase_rad"] == 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_refused(self, capsys, tmp_path, fmt):
        # Along (1, 1, 0) no segment of the layout recedes: every grid speed is
        # inside the boost domain, and the phase at 1e304 m/s overflows.
        argv = ["sweep", "--scene", moving_open_scene(tmp_path, [1.0, 1.0, 0.0]), "--vmax", "1e304"]
        code, out, err = run(capsys, argv + ["--steps", "2", "--format", fmt])
        message = "matterwave: error: result is not finite (inf); refusing to write it\n"
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_opening_within_the_endpoint_tolerance_refused_with_its_gap(
        self, capsys, tmp_path, fmt
    ):
        # The opening is nonzero, but the beam starts coincide within the tolerance.
        scene_file = tmp_path / "tiny_opening.json"
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "geometry": {"kind": "Fig3bOpen", "opening_m": [0.0, 1e-300, 0.0]},
                }
            )
        )
        code, out, err = run(capsys, ["phase", "--scene", str(scene_file), "--format", fmt])
        assert_refused(code, out, err)
        assert err == (
            "matterwave: error: scene.geometry: Fig3bOpen requires a nonzero opening between "
            "beam starts, gap is 1.000e-300 m, within the tolerance 1.000e-12 m\n"
        )

    @pytest.mark.parametrize(
        "geometry",
        [
            {"kind": "Fig3bOpen", "opening_m": [1.5e308, 1.5e308, 0.0]},
            {"kind": "Fig3cIndependent", "opening_m": [1e308, 0.0, 0.0], "arm_length_m": 1.7e308},
        ],
        ids=["opening", "arm"],
    )
    def test_open_layout_beyond_the_float_range_refused(self, capsys, tmp_path, geometry):
        scene_file = tmp_path / "huge_open.json"
        scene_file.write_text(
            json.dumps({"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": geometry})
        )
        code, out, err = run(capsys, ["phase", "--scene", str(scene_file)])
        assert_refused(code, out, err)
        assert err == (
            f"matterwave: error: scene.geometry: a {geometry['kind']} layout of this opening "
            "and arm length leaves the float range\n"
        )

    @pytest.mark.parametrize(
        "argv", [["phase"], ["translate"], ["sweep", "--vmax", "2"], ["sagnac"]],
        ids=["phase", "translate", "sweep", "sagnac"],
    )
    def test_beam_starts_farther_apart_than_the_float_range_refused(self, capsys, tmp_path, argv):
        scene_file = tmp_path / "far_starts.json"
        geometry = {
            "path_I_m": [[1.7e308, 0.0, 0.0], [0.0, 0.0, 0.0]],
            "path_II_m": [[-1.7e308, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }
        scene_file.write_text(
            json.dumps({"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": geometry})
        )
        code, out, err = run(capsys, argv[:1] + ["--scene", str(scene_file)] + argv[1:])
        assert_refused(code, out, err)
        assert err == (
            "matterwave: error: scene.geometry: x span of the two beams together overflows "
            "the float range\n"
        )

    def test_opening_whose_length_alone_overflows_answered(self, capsys, tmp_path):
        scene_file = tmp_path / "long_opening.json"
        geometry = {
            "path_I_m": [[1.5e308, 1.5e308, 0.0], [0.0, 0.0, 0.0]],
            "path_II_m": [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]],
        }
        motion = {"translation_mps": [1e-300, 0.0, 0.0]}
        scene_file.write_text(
            json.dumps(
                {
                    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
                    "motion": motion,
                    "geometry": geometry,
                }
            )
        )
        code, out, err = run(capsys, ["phase", "--scene", str(scene_file)])
        assert (code, err) == (0, "")
        expected = (TWO_PI / 1e-8) * (1e-300 * 1.5e308)
        assert json.loads(out)["total_phase_rad"] == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "bounds", [["--vmin", "-1e-05", "--vmax", "1e-4"], ["--vmax", "-1e-05"]]
    )
    def test_negative_speed_in_exponent_form_reaches_the_grid_check(
        self, capsys, data_dir, bounds
    ):
        # argparse alone reads -1e-05 as an option and refuses the flag before it.
        argv = ["sweep", "--scene", scene(data_dir, "slow_atom_open.json")] + bounds
        code, out, err = run(capsys, argv)
        assert_refused(code, out, err)
        assert "need 0 <= v_min < v_max" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "bounds,message",
        [
            (["--vmax", "inf"], "need 0 <= v_min < v_max < inf, got 0.0, inf"),
            (["--vmin", "inf", "--vmax", "1e-4"], "need 0 <= v_min < v_max < inf, got inf, 0.0001"),
            (["--vmax", "1e308", "--steps", "3"], "sweep from 0.0 to 1e+308 overflows the float"),
        ],
        ids=["vmax-inf", "vmin-inf", "overflowing-grid"],
    )
    def test_infinite_or_overflowing_sweep_bounds_refused(
        self, capsys, data_dir, bounds, message, fmt
    ):
        # Unchecked, inf * 0 or an overflowed grid speed would reach Vec3 as a NaN.
        argv = ["sweep", "--scene", scene(data_dir, "slow_atom_open.json"), "--format", fmt]
        code, out, err = run(capsys, argv + bounds)
        assert_refused(code, out, err)
        assert message in err

    @pytest.mark.parametrize(
        "text,field",
        [
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "motion": {"omega_radps":'
                ' [0, 0, 1]}, "geometry": {"kind": "Fig2Rotation", "side_m": 0.1}, "motion": {}}',
                "scene.motion",
            ),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8, "speed_mps": 2.0},'
                ' "geometry": {"kind": "Fig2Rotation", "side_m": 0.1}}',
                "scene.particle.speed_mps",
            ),
        ],
        ids=["top-level", "nested"],
    )
    def test_repeated_key_refused(self, capsys, tmp_path, text, field):
        # json keeps a repeated key's last value: the first, here the rotation, was dropped.
        scene_file = tmp_path / "repeated.json"
        scene_file.write_text(text)
        message = f"matterwave: error: {field}: given more than once\n"
        assert run(capsys, ["phase", "--scene", str(scene_file)]) == (1, "", message)

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000, b'{"particle": "\xff"}'],
        ids=["nested-1e5", "not-utf8"],
    )
    def test_unreadable_scene_refused(self, capsys, tmp_path, content):
        scene_file = tmp_path / "scene.json"
        scene_file.write_bytes(content)
        assert_refused(*run(capsys, ["phase", "--scene", str(scene_file)]))

    def test_out_into_missing_directory_refused(self, capsys, data_dir, tmp_path):
        target = tmp_path / "missing" / "result.json"
        argv = ["phase", "--scene", scene(data_dir, "slow_atom_open.json"), "--out", str(target)]
        assert_refused(*run(capsys, argv))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_stdout_on_a_full_device_refused(self, data_dir):
        argv = ["phase", "--scene", scene(data_dir, "slow_atom_open.json")]
        with open("/dev/full", "wb") as full:
            assert_stdout_refused(run_child(argv, full))

    def test_stdout_on_a_pipe_without_reader_refused(self, data_dir):
        argv = ["phase", "--scene", scene(data_dir, "slow_atom_open.json")]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            child = run_child(argv, write_end)
        finally:
            os.close(write_end)
        assert_stdout_refused(child)

    def test_short_write_to_an_unbuffered_stdout_refused(self, tmp_path):
        # About 2 MB of breakdown, far more than a pipe holds: the reader's exit
        # cuts a write short, and the write after it fails.
        n = 20_000
        beam_i = [[0.0, 0.0, 0.0]] + [[1e-3 * i, 1.0, 0.0] for i in range(n)] + [[20.0, 0.0, 0.0]]
        geometry = {"path_I_m": beam_i, "path_II_m": [[0.0, 0.0, 0.0], [20.0, 0.0, 0.0]]}
        scene_file = tmp_path / "long.json"
        scene_file.write_text(json.dumps({
            "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
            "motion": {"omega_radps": [0.0, 0.0, 1e-3]},
            "geometry": geometry,
        }))
        argv = ["phase", "--breakdown", "--scene", str(scene_file)]
        read_end, write_end = os.pipe()
        try:
            child = subprocess.Popen(
                CHILD + argv, stdout=write_end, stderr=subprocess.PIPE,
                env=child_env(unbuffered=True),
            )
        finally:
            os.close(write_end)
        try:
            assert len(os.read(read_end, 1)) == 1
        finally:
            os.close(read_end)
        _, err = child.communicate(timeout=60)
        assert_stdout_refused(subprocess.CompletedProcess(argv, child.returncode, None, err))


SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def child_env(unbuffered=False):
    """The environment of a CLI child: stdout buffered unless ``unbuffered``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


CHILD = [sys.executable, "-m", "matterwave.cli"]


def run_child(argv, stdout):
    """The CLI in a new process with buffered stdout: no PYTHONUNBUFFERED."""
    return subprocess.run(
        CHILD + argv, stdout=stdout, stderr=subprocess.PIPE, env=child_env(), timeout=60
    )


def assert_stdout_refused(child):
    # One error line: neither the write nor the flush at exit ends in a traceback.
    err = child.stderr.decode()
    assert child.returncode == 1
    assert err.startswith("matterwave: error: cannot write output:")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "Exception ignored" not in err


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in JSON output")


# Moderate values get past validation to the numerics; any float may follow.
# Magnitudes near 1e154 (whose squares overflow) and near 1e308 (whose sums
# overflow) reach the narrow overflow bands that arbitrary floats rarely hit.
near_overflow = st.one_of(st.floats(1e153, 1e155), st.floats(1e307, sys.float_info.max))
finite_or_not = st.one_of(
    st.floats(-2.0, 2.0), st.floats(), near_overflow, near_overflow.map(lambda x: -x)
)
vectors = st.lists(finite_or_not, min_size=3, max_size=3)
# Valid waves let the geometry and motion draws reach the kernel and emitters.
valid_waves = st.fixed_dictionaries(
    {"speed_mps": st.floats(1e-3, 1e3), "wavelength_m": st.floats(1e-12, 1e-3)}
)
particles = st.one_of(
    valid_waves,
    st.fixed_dictionaries(
        {"speed_mps": finite_or_not},
        optional={"mass_kg": finite_or_not, "wavelength_m": finite_or_not},
    ),
)
closed_kinds = st.sampled_from(["Fig2Rotation", "Fig3aClosed"])
open_kinds = st.sampled_from(["Fig3bOpen", "Fig3cIndependent", "Fig3dExtracted"])
# Valid geometry lets the motion draws reach the kernel and emitters: a
# positive side, a nonzero opening, explicit paths that share their endpoint.
points = st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
valid_geometries = st.one_of(
    st.fixed_dictionaries({"kind": closed_kinds, "side_m": st.floats(1e-6, 1e3)}),
    st.fixed_dictionaries(
        {
            "kind": open_kinds,
            "opening_m": st.one_of(st.floats(1e-6, 1.0), points.filter(any)),
        },
        optional={"arm_length_m": st.floats(1e-6, 1e3)},
    ),
    st.tuples(
        st.lists(points, min_size=1, max_size=3), st.lists(points, min_size=1, max_size=3), points
    ).map(lambda t: {"path_I_m": t[0] + [t[2]], "path_II_m": t[1] + [t[2]]}),
)
geometries = st.one_of(
    valid_geometries,
    st.fixed_dictionaries({"kind": closed_kinds, "side_m": finite_or_not}),
    st.fixed_dictionaries(
        {"kind": open_kinds},
        optional={"opening_m": st.one_of(finite_or_not, vectors), "arm_length_m": finite_or_not},
    ),
    st.fixed_dictionaries(
        {
            "path_I_m": st.lists(vectors, min_size=2, max_size=4),
            "path_II_m": st.lists(vectors, min_size=2, max_size=4),
        }
    ),
)
motions = st.fixed_dictionaries(
    {}, optional={"translation_mps": vectors, "omega_radps": vectors, "pivot_m": vectors}
)
scene_shapes = st.fixed_dictionaries(
    {"particle": particles, "geometry": geometries, "motion": motions}
).map(lambda doc: json.dumps(doc).encode())
commands = st.one_of(
    st.sampled_from([["phase"], ["phase", "--breakdown"], ["sagnac"], ["translate"]]),
    st.builds(lambda v: ["sweep", "--vmax", repr(v), "--steps", "3"], finite_or_not),
    st.just(["fringes", "--steps", "3"]),
)


@pytest.mark.fuzz
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(
    content=st.one_of(st.binary(max_size=2048), scene_shapes),
    command=commands,
    fmt=st.sampled_from(["json", "csv"]),
)
@example(content=b"[" * 100_000, command=["phase"], fmt="json")
def test_any_scene_gets_an_answer_or_a_refusal(capsys, tmp_path, content, command, fmt):
    scene_file = tmp_path / "fuzz.json"
    scene_file.write_bytes(content)
    argv = command[:1] + ["--scene", str(scene_file)] + command[1:] + ["--format", fmt]
    code, out, err = run(capsys, argv)
    assert code in (0, 1)
    if code == 1:
        assert_refused(code, out, err)
    elif fmt == "json":
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert all(math.isfinite(float(cell)) for cell in _numeric_cells(out))


def _numeric_cells(csv_text):
    for line in csv_text.splitlines()[1:]:
        for cell in line.split(","):
            try:
                float(cell)
            except ValueError:
                continue
            yield cell


# Explicit open beams whose vertices may lie in the +-1e308 band: a gap stays
# finite unless its two ends sit at opposite edges of the band, while a beam's
# span, and its offsets from its reference vertex, can leave the float range.
band_points = st.tuples(points, st.sampled_from([None, 0, 1, 2]), st.sampled_from([1e308, -1e308])).map(
    lambda t: t[0] if t[1] is None else [*t[0][: t[1]], t[2], *t[0][t[1] + 1 :]]  # one axis moved out
)
band_middles = st.lists(band_points, min_size=1, max_size=3)
open_band_beams = st.tuples(band_points, band_points, band_middles, band_middles, band_points).filter(
    lambda t: not _coincide(t[0], t[1])  # open: the starts do not coincide
).map(lambda t: {"path_I_m": [t[0], *t[2], t[4]], "path_II_m": [t[1], *t[3], t[4]]})
open_translation_scenes = st.fixed_dictionaries(
    {
        "particle": st.just({"speed_mps": 1.0, "wavelength_m": 1e-8}),
        "geometry": st.one_of(
            st.fixed_dictionaries(
                {"kind": open_kinds, "opening_m": st.one_of(st.floats(1e-6, 1.0), points.filter(any))},
                optional={"arm_length_m": st.floats(1e-6, 1e3)},
            ),
            open_band_beams,
        ),
        "motion": st.fixed_dictionaries(
            {"translation_mps": st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).filter(any)}
        ),
    }
)


# A translation-only open scene whose beam I is wider along x than the float range,
# though each of its gaps is finite.
WIDE_OPEN_SCENE = {
    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
    "geometry": {
        "path_I_m": [[0, 1, 0], [-1e308, 1, 0], [0, 0.5, 0], [1e308, 0, 0]],
        "path_II_m": [[0, 0, 0], [1e308, 0, 0]],
    },
    "motion": {"translation_mps": [0, 1e-6, 0]},
}


@pytest.mark.parametrize(
    "argv",
    [["phase"], ["fringes", "--steps", "3"], ["translate"], ["sweep", "--vmax", "1e-6"], ["sagnac"]],
    ids=["phase", "fringes", "translate", "sweep", "sagnac"],
)
def test_a_path_wider_than_the_float_range_refused_by_every_command(capsys, tmp_path, argv):
    scene_file = tmp_path / "wide.json"
    scene_file.write_text(json.dumps(WIDE_OPEN_SCENE))
    code, out, err = run(capsys, argv[:1] + ["--scene", str(scene_file)] + argv[1:])
    assert_refused(code, out, err)
    assert err == (
        "matterwave: error: scene.geometry.path_I_m: "
        "x span from vertex 1 to vertex 3 overflows the float range\n"
    )


# A translation-only open scene whose opening is 1 m and whose beams each fit the float
# range, though together they span 2e308 m along x.
WIDE_OPEN_PAIR_SCENE = {
    "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
    "geometry": {
        "path_I_m": [[0, 1, 0], [1e308, 1, 0], [0, 0.5, 0]],
        "path_II_m": [[0, 0, 0], [-1e308, 0, 0], [0, 0.5, 0]],
    },
    "motion": {"translation_mps": [0, 1e-6, 0]},
}


@pytest.mark.parametrize(
    "argv",
    [["phase"], ["fringes", "--steps", "3"], ["translate"], ["sweep", "--vmax", "1e-6"], ["sagnac"]],
    ids=["phase", "fringes", "translate", "sweep", "sagnac"],
)
def test_beams_wider_together_than_the_float_range_refused_by_every_command(capsys, tmp_path, argv):
    scene_file = tmp_path / "wide_pair.json"
    scene_file.write_text(json.dumps(WIDE_OPEN_PAIR_SCENE))
    code, out, err = run(capsys, argv[:1] + ["--scene", str(scene_file)] + argv[1:])
    assert_refused(code, out, err)
    assert err == (
        "matterwave: error: scene.geometry: "
        "x span of the two beams together overflows the float range\n"
    )


def _least_boost_factor(doc) -> float:
    """1 + V . dL / (v |dL|) over the segments of both beams: the boost model holds above 0."""
    config = config_from_scene(parse_scene(json.dumps(doc)))
    velocity = config.motion.translation.as_tuple()
    factors = []
    for path in (config.path_I, config.path_II):
        for a, b in zip(path.vertices, path.vertices[1:]):
            step = [q - p for p, q in zip(a, b)]
            speed = sum(v * d for v, d in zip(velocity, step)) / math.hypot(*step)
            factors.append(1.0 + speed / config.wave.speed_v)
    return min(factors)


@pytest.mark.fuzz
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=open_translation_scenes)
@example(
    doc={
        "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
        "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4},
        "motion": {"translation_mps": [-2.5, 0.0, 0.0]},
    }
)
@example(doc=WIDE_OPEN_SCENE)
def test_phase_translate_and_sweep_share_one_domain(capsys, tmp_path, doc):
    # A translation-only open scene: phase, fringes, translate, and a sweep up to |T|
    # along T all refuse it, or all answer. Within rounding of the boundary, where the
    # sweep's grid speed may differ from |T| by an ulp, the draw is left out.
    try:
        least = _least_boost_factor(doc)
    except MatterWaveError:  # a geometry refused: no layout, or a path wider than floats
        least = math.inf
    assume(abs(least) > 1e-9)
    scene_file = tmp_path / "domain.json"
    scene_file.write_text(json.dumps(doc))
    speed = math.hypot(*doc["motion"]["translation_mps"])
    commands = [["phase"], ["fringes", "--steps", "3"], ["translate"], ["sweep", "--vmax", repr(speed)]]
    codes = {run(capsys, c[:1] + ["--scene", str(scene_file)] + c[1:])[0] for c in commands}
    assert len(codes) == 1


inner_vertices = st.lists(points, min_size=1, max_size=3)
closed_motion_scenes = st.fixed_dictionaries(
    {
        "particle": st.just({"speed_mps": 1.0, "wavelength_m": 1e-8}),
        "geometry": st.one_of(
            st.fixed_dictionaries({"kind": closed_kinds, "side_m": st.floats(1e-3, 2.0)}),
            st.tuples(points, inner_vertices, inner_vertices, points).map(
                lambda t: {"path_II_m": [t[0], *t[1], t[3]], "path_I_m": [t[0], *t[2], t[3]]}
            ),
        ),
        "motion": st.fixed_dictionaries(
            {},
            optional={
                "translation_mps": st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                "omega_radps": st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
                "pivot_m": points,
            },
        ),
    }
)


@pytest.mark.fuzz
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(doc=closed_motion_scenes)
@example(
    doc={
        "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
        "geometry": {"kind": "Fig2Rotation", "side_m": 0.1},
        "motion": {"omega_radps": [0.0, 0.0, 1000.0]},
    }
)
@example(doc=OVERFLOWING_VELOCITY_SCENE)
@example(doc=WIDE_LOOP_SCENE)
@example(doc=coincident_join_scene(10.0))
@example(doc=coincident_join_scene(1.0))
def test_phase_and_sagnac_share_one_domain(capsys, tmp_path, doc):
    # A closed scene: phase and sagnac refuse it with the same line, or both answer.
    scene_file = tmp_path / "closed.json"
    scene_file.write_text(json.dumps(doc))
    phase, sagnac = (run(capsys, [c, "--scene", str(scene_file)]) for c in ("phase", "sagnac"))
    assert phase[0] == sagnac[0]
    if phase[0] == 1:
        assert phase[1:] == sagnac[1:]
