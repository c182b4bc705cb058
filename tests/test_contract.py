"""The library's error contract: a public constructor, or a function that takes
plain numbers, returns a value or raises MatterWaveError, whatever it is given.

Run on more seeds with ``--hypothesis-profile fuzz --hypothesis-seed N``.
"""

import math
import sys
from decimal import Decimal

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from matterwave import (
    BeamPath,
    ConfigKind,
    InterferometerConfig,
    MatterWaveError,
    MotionField,
    ParticleWave,
    Vec3,
    build_config,
    fringe_reading,
    gse_light_phase,
    make_particle_wave,
    parse_scene,
    path_phase,
    rest_phase,
    sensitivity_sweep,
)
from matterwave.experiment import LAYOUT_KINDS
from matterwave.phase import boost_factor

pytestmark = pytest.mark.fuzz

floats = st.one_of(
    st.floats(-2.0, 2.0),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, sys.float_info.max, 5e-324]),
)
ints = st.one_of(st.integers(-3, 3), st.sampled_from([10**400, -(10**400), 2**1024]))
vec3s = st.builds(Vec3, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
# A Decimal converts by its own __float__; a signaling NaN's raises.
decimals = st.sampled_from([Decimal("1.5"), Decimal("-2"), Decimal("sNaN"), Decimal("NaN")])
scalars = st.one_of(floats, ints, st.booleans(), st.text(max_size=3), st.none(), vec3s, decimals)
# Anything a caller might pass: numbers of every kind, non-numbers, sequences.
values = st.one_of(
    scalars,
    st.lists(scalars, max_size=4).map(tuple),
    st.lists(floats, min_size=3, max_size=3),
    st.dictionaries(st.text(max_size=1), scalars, max_size=2),
)
vertices = st.one_of(values, vec3s, st.tuples(values, values, values))
paths = st.one_of(
    values, st.lists(vertices, max_size=4), st.lists(st.tuples(floats, floats, floats), max_size=4)
)

_wave = make_particle_wave(1.0, wavelength=1e-8)
_square = (
    BeamPath(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0))),
    BeamPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0))),
    BeamPath(((0.0, 1e-4, 0.0), (1.0, 1.0, 0.0))),
)
# Valid objects mixed with anything else, so that calls reach past the first check.
motions = st.builds(MotionField, vec3s, vec3s, vec3s)
objects = st.one_of(
    st.sampled_from(_square + (_wave, MotionField()) + tuple(ConfigKind)), motions, values
)
layout_kinds = st.one_of(st.sampled_from(sorted(LAYOUT_KINDS)), values)
lengths = st.one_of(st.floats(1e-6, 1.0), values)


def answered_or_refused(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except MatterWaveError:
        pass


@given(values, values, values)
@example("a", 0, 0)
@example(None, 0, 0)
@example(True, 0.0, 0.0)
@example(Decimal("sNaN"), 0, 0)
def test_vec3(x, y, z):
    answered_or_refused(Vec3, x, y, z)


@given(paths)
@example(None)
@example([(0, 0, 0), "abc"])
@example([(0, 0, 0), {"x": 1, "y": 2, "z": 3}])
def test_beam_path(vertices):
    answered_or_refused(BeamPath, vertices)


@given(values, values, st.one_of(st.none(), values))
@example("1", 1.0, None)
def test_particle_wave(speed, wavelength, mass):
    answered_or_refused(ParticleWave, speed, wavelength, mass)


@given(values, st.one_of(st.none(), values), st.one_of(st.none(), values))
@example("1", None, 1.0)
@example("1", 2, None)
def test_make_particle_wave(speed, mass, wavelength):
    answered_or_refused(make_particle_wave, speed, mass=mass, wavelength=wavelength)


@given(values, values, values)
@example((1e-4, 0, 0), Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.0))
@example(Vec3(0.0, 0.0, 0.0), None, Vec3(0.0, 0.0, 0.0))
def test_motion_field(translation, omega, pivot):
    # A field is refused when it is built, or else it gives a phase.
    answered_or_refused(
        lambda: path_phase(_wave, _square[0], MotionField(translation, omega, pivot))
    )


@given(objects, objects, objects, objects, st.one_of(st.sampled_from(ConfigKind), objects))
@example(None, None, _wave, MotionField(), ConfigKind.CLOSED_LOOP)
@example(_square[0], _square[1], _wave, MotionField(), "ClosedLoop")
def test_interferometer_config(path_i, path_ii, wave, motion, kind):
    answered_or_refused(InterferometerConfig, path_i, path_ii, wave, motion, kind)


@given(values)
@example("a")
def test_fringe_reading(phase):
    answered_or_refused(fringe_reading, phase)


@given(
    layout_kinds,
    st.one_of(st.just(_wave), values),
    st.one_of(motions, values),
    st.fixed_dictionaries(
        {},
        optional={
            "side_m": lengths, "width_m": lengths, "height_m": lengths,
            "opening_m": st.one_of(vec3s, lengths), "arm_length_m": lengths,
        },
    ),
)
@example("Fig2Rotation", _wave, MotionField(), {"side_m": "0.1"})
@example("Fig3aClosed", _wave, MotionField(), {"width_m": "1", "height_m": 1.0})
@example("Fig3bOpen", _wave, MotionField(), {"opening_m": "0.1"})
@example("Fig3bOpen", _wave, MotionField(), {"opening_m": 1e-4, "arm_length_m": "1"})
@example(["Fig2Rotation"], _wave, MotionField(), {"side_m": 1.0})
@example("Fig2Rotation", _wave, MotionField(), {"radius_m": 1.0})
def test_build_config(kind, wave, motion, sizes):
    answered_or_refused(build_config, kind, wave, motion, **sizes)


@given(values)
@example("a")
@example(None)
def test_rest_phase(length):
    answered_or_refused(rest_phase, _wave, length)


@given(values)
@example("a")
def test_boost_factor(speed_parallel):
    answered_or_refused(boost_factor, _wave, speed_parallel)


@given(values)
@example("a")
def test_gse_light_phase(wavelength):
    answered_or_refused(gse_light_phase, wavelength, Vec3(1.0, 0.0, 0.0), Vec3(0.5, 0.0, 0.0))


_open = InterferometerConfig(_square[2], _square[1], _wave, MotionField())
# Step counts stay small: a sweep of 10**400 steps would be answered, in time.
steps = st.one_of(st.integers(-3, 5), st.floats(-3.0, 5.0), st.booleans(), st.text(max_size=2), st.none())


@given(st.one_of(st.floats(0.0, 1.0), values), st.one_of(st.floats(0.0, 1.0), values), steps)
@example("a", 1, 3)
@example(0, 1, "3")
@example(0, 1, 2.5)
def test_sensitivity_sweep(v_min, v_max, steps):
    answered_or_refused(sensitivity_sweep, _open, v_min, v_max, steps)


@given(st.one_of(values, st.binary(max_size=8)))
@example(None)
def test_parse_scene(text):
    answered_or_refused(parse_scene, text)
