"""Scene parsing, validation errors, and one scene read from two spellings."""

import json
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matterwave import (
    BeamPath,
    ConfigKind,
    GeometryError,
    SceneError,
    Vec3,
    config_from_scene,
    parse_scene,
)

MINIMAL = """
{
  "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
  "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}
}
"""


class TestParseScene:
    def test_minimal_scene(self):
        doc = parse_scene(MINIMAL)
        assert doc.particle["speed_mps"] == 1.0
        assert doc.particle["wavelength_m"] == 1e-8
        assert doc.geometry["kind"] == "Fig3bOpen"
        assert doc.output["format"] == "json"
        wave_product = doc.particle["speed_mps"] * doc.particle["wavelength_m"]
        assert wave_product == 1e-8

    def test_missing_speed_names_field(self):
        with pytest.raises(SceneError, match=r"particle\.speed_mps"):
            parse_scene('{"particle": {"wavelength_m": 1e-8}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}}')

    def test_unknown_geometry_kind(self):
        with pytest.raises(SceneError, match="Fig9"):
            parse_scene('{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind": "Fig9"}}')

    def test_unknown_key_rejected_with_path(self):
        bad = '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8, "speed_kmh": 3.6}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}}'
        with pytest.raises(SceneError, match=r"particle\.speed_kmh"):
            parse_scene(bad)

    @pytest.mark.parametrize(
        "text,field",
        [
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind":'
                ' "Fig3bOpen", "opening_m": 1e-4}, "particle": {"speed_mps": 1.0,'
                ' "wavelength_m": 1e-8}}',
                "scene.particle",
            ),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind":'
                ' "Fig3bOpen", "opening_m": 1e-4, "opening_m": 2e-4}}',
                "scene.geometry.opening_m",
            ),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "motion":'
                ' {"pivot_m": [0, 0, 0], "omega_radps": [0, 0, 1], "pivot_m": [1, 0, 0],'
                ' "omega_radps": [0, 0, 2]}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}}',
                "scene.motion.pivot_m",
            ),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind":'
                ' "Fig3bOpen", "opening_m": 1e-4}, "output": {"format": "csv", "format": "csv"}}',
                "scene.output.format",
            ),
        ],
        ids=["section", "builder-key", "first-repeated-of-two", "same-value"],
    )
    def test_repeated_key_refused_with_its_path(self, text, field):
        with pytest.raises(SceneError, match=f"^{re.escape(field)}: given more than once$"):
            parse_scene(text)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "scene: expected an object, got list"),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind":'
                ' "Fig3bOpen", "opening_m": 1e-4}, "motion": 5}',
                "scene.motion: expected an object, got int",
            ),
            (
                '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind":'
                ' "Fig3bOpen", "opening_m": 1e-4}, "output": {"breakdown": 1}}',
                "scene.output.breakdown: expected true or false, got 1",
            ),
        ],
        ids=["scene-not-an-object", "section-not-an-object", "breakdown-not-a-bool"],
    )
    def test_value_of_the_wrong_type_refused_with_its_path(self, text, message):
        with pytest.raises(SceneError) as refused:
            parse_scene(text)
        assert str(refused.value) == message

    def test_syntax_error_reports_position(self):
        with pytest.raises(SceneError, match=r"line \d+, column \d+"):
            parse_scene('{"particle": ')

    def test_motion_defaults_to_rest(self):
        doc = parse_scene(MINIMAL)
        assert doc.motion == {}
        motion = config_from_scene(doc).motion
        assert motion.translation == Vec3(0.0, 0.0, 0.0)
        assert motion.omega == Vec3(0.0, 0.0, 0.0)

    def test_vector_fields_validated(self):
        bad = '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "motion": {"translation_mps": [1, 2]}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}}'
        with pytest.raises(SceneError, match=r"motion\.translation_mps"):
            parse_scene(bad)

    def test_output_format_checked(self):
        bad = '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}, "output": {"format": "xml"}}'
        with pytest.raises(SceneError, match=r"output\.format"):
            parse_scene(bad)

    def test_particle_needs_mass_or_wavelength(self):
        with pytest.raises(SceneError, match="mass_kg or wavelength_m"):
            parse_scene('{"particle": {"speed_mps": 1.0}, "geometry": {"kind": "Fig3bOpen", "opening_m": 1e-4}}')

    def test_explicit_paths_parsed(self, data_dir):
        doc = parse_scene((data_dir / "explicit_triangle.json").read_text())
        assert isinstance(doc.geometry["path_I_m"], BeamPath)
        assert len(doc.geometry["path_II_m"].vertices) == 3

    def test_explicit_paths_require_both(self):
        bad = '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": {"path_I_m": [[0,0,0],[1,0,0]]}}'
        with pytest.raises(SceneError, match=r"geometry\.path_II_m"):
            parse_scene(bad)

    def test_explicit_and_kind_cannot_mix(self):
        bad = (
            '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},'
            ' "geometry": {"kind": "Fig3bOpen", "path_I_m": [[0,0,0],[1,0,0]],'
            ' "path_II_m": [[0,1,0],[1,0,0]]}}'
        )
        with pytest.raises(SceneError, match=r"geometry\.kind"):
            parse_scene(bad)


def explicit_scene(path_i: str) -> str:
    """Scene text whose beam I is the JSON ``path_i``, written as given."""
    return (
        '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry":'
        ' {"path_II_m": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], "path_I_m": %s}}' % path_i
    )


def walked_points(points: list) -> tuple:
    """Beam path vertices as a per-coordinate walk reads them."""
    return tuple(tuple(float(c) for c in point) for point in points)


finite_coordinates = st.floats(allow_nan=False, allow_infinity=False)


class TestLayoutKeys:
    @pytest.mark.parametrize(
        "geometry,message",
        [
            (
                {"kind": "Fig2Rotation", "side_m": 0.1, "opening_m": 5.0, "arm_length_m": -3},
                "scene.geometry.arm_length_m: Fig2Rotation does not take arm_length_m "
                "(it takes side_m, width_m, height_m)",
            ),
            (
                {"kind": "Fig3bOpen", "opening_m": 1e-4, "side_m": -1, "width_m": 0.2},
                "scene.geometry.side_m: Fig3bOpen does not take side_m "
                "(it takes opening_m, arm_length_m)",
            ),
        ],
    )
    def test_a_key_the_layout_does_not_take_refused_with_its_path(self, geometry, message):
        text = json.dumps({"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8}, "geometry": geometry})
        with pytest.raises(SceneError) as info:
            parse_scene(text)
        assert str(info.value) == message


def built(particle: dict, geometry: dict):
    """The configuration of a scene with these sections, read and built."""
    return config_from_scene(parse_scene(json.dumps({"particle": particle, "geometry": geometry})))


class TestFieldPaths:
    """What reading or building a particle or a builder geometry refuses names its path."""

    WAVE = {"speed_mps": 1.0, "wavelength_m": 1e-8}

    @pytest.mark.parametrize(
        "particle,geometry,message",
        [
            (WAVE, {"kind": "Fig2Rotation", "side_m": -0.1},
             "scene.geometry.side_m must be positive and finite, got -0.1"),
            (WAVE, {"kind": "Fig3aClosed", "width_m": 0, "height_m": 1},
             "scene.geometry.width_m must be positive and finite, got 0"),
            (WAVE, {"kind": "Fig3aClosed", "width_m": 1, "height_m": -1e-3},
             "scene.geometry.height_m must be positive and finite, got -0.001"),
            (WAVE, {"kind": "Fig3bOpen", "opening_m": 1e-4, "arm_length_m": 0.0},
             "scene.geometry.arm_length_m must be positive and finite, got 0.0"),
            (WAVE, {"kind": "Fig3bOpen", "opening_m": -1e-4},
             "scene.geometry.opening_m must be positive and finite, got -0.0001"),
            ({"speed_mps": -1.0, "wavelength_m": 1e-8}, {"kind": "Fig3bOpen", "opening_m": 1e-4},
             "scene.particle.speed_mps must be positive and finite, got -1.0"),
            ({"speed_mps": 1.0, "mass_kg": 0}, {"kind": "Fig3aClosed", "side_m": 0.1},
             "scene.particle.mass_kg must be positive and finite, got 0"),
            ({"speed_mps": 1.0, "wavelength_m": -1e-8}, {"kind": "Fig3aClosed", "side_m": 0.1},
             "scene.particle.wavelength_m must be positive and finite, got -1e-08"),
            (
                {"speed_mps": 1.0, "mass_kg": 1e-26, "wavelength_m": 1e-8},
                {"kind": "Fig3aClosed", "side_m": 0.1},
                "scene.particle: wavelength inconsistent with de Broglie relation: given 1e-08, "
                "speed 1.0, mass 1e-26 (relative mismatch 8.491e-01)",
            ),
            (
                {"speed_mps": 1e-200, "wavelength_m": 1e-200}, {"kind": "Fig3aClosed", "side_m": 0.1},
                "scene.particle: speed_v * wavelength_lambda = 0.0 is outside the normal float range",
            ),
            (WAVE, {"kind": "Fig2Rotation", "side_m": 1, "width_m": 2},
             "scene.geometry: give either side_m or width_m/height_m, not both"),
            (WAVE, {"kind": "Fig2Rotation", "width_m": 2},
             "scene.geometry: Fig2Rotation needs side_m or width_m and height_m"),
            (WAVE, {"kind": "Fig3bOpen"}, "scene.geometry: Fig3bOpen needs opening_m"),
            (WAVE, {"kind": "Fig3bOpen", "opening_m": [0, 0, 0]},
             "scene.geometry: Fig3bOpen requires a nonzero opening between beam starts, "
             "gap is 0.000e+00 m, within the tolerance 1.000e-12 m"),
        ],
        ids=[
            "side", "width", "height", "arm", "scalar-opening", "speed", "mass", "wavelength",
            "de-broglie", "v-lambda", "side-and-width", "no-height", "no-opening", "zero-opening",
        ],
    )
    def test_refusal_names_its_field_path(self, particle, geometry, message):
        with pytest.raises(SceneError) as info:
            built(particle, geometry)
        assert str(info.value) == message


class TestPointParse:
    """A scene's points are read as a BeamPath; its refusals name the field path."""

    @pytest.mark.parametrize(
        "path_i",
        [
            "[[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]",
            "[[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0], [1.0, 0.0, 0.0]]",
            "[[0, 0, 0], [2, 0, 0], [2, 0, 0], [1, 0, 0]]",
        ],
        ids=["coincident", "overflowing-gap", "ints-coincident"],
    )
    def test_explicit_paths_refused_as_beam_paths_refuse_them(self, path_i):
        with pytest.raises(GeometryError) as direct:
            BeamPath(json.loads(path_i))
        with pytest.raises(SceneError) as from_scene:
            parse_scene(explicit_scene(path_i))
        assert str(from_scene.value) == f"scene.geometry.path_I_m: {direct.value}"

    @pytest.mark.parametrize(
        "path_i,message",
        [
            (
                "[[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [-1e308, 0.0, 0.0], [1.0, 0.0, 0.0]]",
                "x span from vertex 1 to vertex 2 overflows the float range",
            ),
            (
                "[[0.0, 0.0, 0.0], [0.0, -1e308, 0.0], [0.0, 1e308, 0.0], [1.0, 0.0, 0.0]]",
                "y span from vertex 1 to vertex 2 overflows the float range",
            ),
            (
                "[[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 0.0, 0.0], [1.0, 0.0, 0.0]]",
                "consecutive vertices 1 and 2 coincide",
            ),
        ],
        ids=["x-gap", "y-gap", "coincident"],
    )
    def test_coordinates_beyond_the_bulk_bound_refused_by_the_walk(self, path_i, message):
        with pytest.raises(SceneError) as info:
            parse_scene(explicit_scene(path_i))
        assert str(info.value) == f"scene.geometry.path_I_m: {message}"

    def test_coordinates_beyond_the_bulk_bound_with_finite_gaps_accepted(self):
        # The magnitudes sum past the float range, but each axis spans 1e308 m.
        path_i = "[[0.0, 0.0, 0.0], [1e308, 0.0, 0.0], [1e308, 1e308, 0.0], [1.0, 0.0, 0.0]]"
        config = config_from_scene(parse_scene(explicit_scene(path_i)))
        assert config.path_I.vertices[2] == (1e308, 1e308, 0.0)
        assert type(config.path_I.vertices) is type(config.path_II.vertices) is tuple

    @given(st.lists(st.lists(finite_coordinates, min_size=3, max_size=3), min_size=2, max_size=20))
    @example([[1.7976931348623157e308, 0.0, 0.0], [1.7976931348623157e308, -0.0, 5e-324]])
    @example([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    def test_float_lists_parse_to_the_walks_triples(self, points):
        # Either both routes refuse, with one message, or they keep the same floats.
        try:
            walked = BeamPath(walked_points(points)).vertices
        except GeometryError as exc:
            with pytest.raises(SceneError) as info:
                parse_scene(explicit_scene(json.dumps(points)))
            assert str(info.value) == f"scene.geometry.path_I_m: {exc}"
            return
        parsed = parse_scene(explicit_scene(json.dumps(points))).geometry["path_I_m"].vertices
        assert [[c.hex() for c in p] for p in parsed] == [[c.hex() for c in p] for p in walked]
        assert all(type(p) is tuple for p in parsed)

    @pytest.mark.parametrize(
        "path_i",
        [
            "[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]",
            "[[0, 1, 0], [0.5, 0.5, 0], [1, 0, 0]]",
            "[[0, 1e308, 0], [0.5, 0.5, 0], [1, 0, 0]]",
        ],
        ids=["bulk", "walked", "walked-beyond-the-bound"],
    )
    def test_points_parse_to_a_beam_path(self, path_i):
        # Checked in bulk or one vertex at a time, the scene holds a BeamPath,
        # which config_from_scene uses as it is.
        doc = parse_scene(explicit_scene(path_i))
        path = doc.geometry["path_I_m"]
        assert type(path) is BeamPath and type(path.vertices) is tuple
        assert {type(c) for p in path.vertices for c in p} == {float}
        assert config_from_scene(doc).path_I is path

    def test_mixed_int_and_float_coordinates_accepted(self):
        doc = parse_scene(explicit_scene("[[0, 0, 0], [1.5, 2, 0], [3, 0.25, 1]]"))
        parsed = doc.geometry["path_I_m"].vertices
        assert parsed == ((0.0, 0.0, 0.0), (1.5, 2.0, 0.0), (3.0, 0.25, 1.0))
        assert {type(c) for p in parsed for c in p} == {float}

    @pytest.mark.parametrize(
        "path_i,message",
        [
            ("[[0.0, 0.0, 0.0], [1.0, true, 0.0]]", ": vertex 1: y must be a number, got True"),
            ('[[0.0, 0.0, 0.0], [1.0, "1", 0.0]]', ": vertex 1: y must be a number, got '1'"),
            ("[[0.0, 0.0, 0.0], [1.0, null, 0.0]]", ": vertex 1: y must be a number, got None"),
            ("[[0.0, 0.0, 0.0], [1.0, NaN, 0.0]]", ": vertex 1: y must be finite, got nan"),
            ("[[0.0, 0.0, 0.0], [1.0, Infinity, 0.0]]", ": vertex 1: y must be finite, got inf"),
            ("[[0.0, 0.0, 0.0], [1.0, -Infinity, 0.0]]", ": vertex 1: y must be finite, got -inf"),
            ("[[0.0, 0.0, 0.0], [1.0, 1e999, 0.0]]", ": vertex 1: y must be finite, got inf"),
            (
                "[[0.0, 0.0, 0.0], [1.0, %d, 0.0]]" % 10**400,
                ": vertex 1: y is beyond the float range",
            ),
            ("[[0.0, 0.0, 0.0], [1.0, 0.0]]", ": vertex 1: expected 3 components, got 2"),
            ("[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]", ": vertex 1: expected 3 components, got 4"),
            ('[[0.0, 0.0, 0.0], {"x": 1.0}]', ": vertex 1: expected 3 components, got {'x': 1.0}"),
            ("[[0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]]", ": vertex 1: expected 3 components, got 1"),
            ("[[0.0, 0.0, 0.0], [1.0, [0.0], 0.0]]", ": vertex 1: y must be a number, got [0.0]"),
            ("[[0.0, 0.0, 0.0]]", ": a beam path needs at least 2 vertices"),
            ("[]", ": a beam path needs at least 2 vertices"),
            ("1.0", ": expected a sequence of vertices, got 1.0"),
            ('"ab"', ": vertex 0: expected 3 components, got 'a'"),
        ],
        ids=[
            "true", "string", "null", "NaN", "Infinity", "-Infinity", "1e999", "10**400",
            "2-element", "4-element", "dict", "nested-point", "nested-coordinate", "one-point",
            "no-point", "number", "path-string",
        ],
    )
    def test_bad_points_refused_with_the_field_path(self, path_i, message):
        with pytest.raises(SceneError) as info:
            parse_scene(explicit_scene(path_i))
        assert str(info.value) == "scene.geometry.path_I_m" + message


def respelled(text: str) -> str:
    """The scene ``text`` spelled another way: sections and keys in reverse order,
    integral floats (but -0.0) as integers, and no whitespace between tokens."""

    def respell(value):
        if isinstance(value, dict):
            return {key: respell(value[key]) for key in reversed(value)}
        if isinstance(value, list):
            return list(map(respell, value))
        if isinstance(value, float) and value.is_integer() and (value or math.copysign(1.0, value) > 0):
            return int(value)
        return value

    return json.dumps(respell(json.loads(text)), separators=(",", ":"))


class TestRoundTrip:
    """A scene is what it says, not how it is spelled."""

    @pytest.mark.parametrize(
        "name",
        [
            "slow_atom_open.json", "earth_rotation_square.json", "closed_translation.json",
            "explicit_triangle.json", "earth_frame_square.json",
        ],
    )
    def test_golden_scene_round_trip(self, data_dir, name):
        text = (data_dir / name).read_text()
        spelling = respelled(text)
        assert spelling != text and re.search(r"[\[:,]-?\d+[,\]}]", spelling)  # an integer
        doc, again = parse_scene(text), parse_scene(spelling)
        assert again == doc
        assert repr(again) == repr(doc)  # same order, and floats where the file has integers
        assert config_from_scene(again) == config_from_scene(doc)


class TestConfigFromScene:
    def test_builder_scene(self, data_dir):
        doc = parse_scene((data_dir / "slow_atom_open.json").read_text())
        config = config_from_scene(doc)
        assert config.kind is ConfigKind.OPEN_LOOP
        assert config.wave.v_lambda == 1e-8

    def test_explicit_closed_inferred(self, data_dir):
        doc = parse_scene((data_dir / "explicit_triangle.json").read_text())
        config = config_from_scene(doc)
        assert config.kind is ConfigKind.CLOSED_LOOP

    def test_explicit_open_inferred(self):
        text = (
            '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},'
            ' "geometry": {"path_I_m": [[0.0001, 0, 0], [0.01, 0, 0]],'
            ' "path_II_m": [[0, 0, 0], [0.005, -0.002, 0], [0.01, 0, 0]]}}'
        )
        config = config_from_scene(parse_scene(text))
        assert config.kind is ConfigKind.OPEN_LOOP

    def test_explicit_starts_one_ulp_apart_far_out_inferred_closed(self):
        # 6.4e6 m out one ulp is 9.3e-10 m, far above ENDPOINT_TOL (1e-12 m).
        x, far_x = 6.4e6, 6.4e6 + math.ulp(6.4e6)
        scene = {
            "particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},
            "geometry": {
                "path_I_m": [[x, 0.0, 0.0], [x, 1e-3, 0.0], [x, 1e-3, 1e-3]],
                "path_II_m": [[far_x, 0.0, 0.0], [x, 0.0, 1e-3], [x, 1e-3, 1e-3]],
            },
        }
        config = config_from_scene(parse_scene(json.dumps(scene)))
        assert config.kind is ConfigKind.CLOSED_LOOP

    def test_mass_scene_gets_de_broglie_wavelength(self, data_dir):
        doc = parse_scene((data_dir / "earth_rotation_square.json").read_text())
        config = config_from_scene(doc)
        assert config.wave.wavelength_lambda == pytest.approx(1.798e-10, rel=1e-3)
