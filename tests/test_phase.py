"""Phase laws: per-segment increment, path sums, Sagnac and open-loop cases."""

import gc
import math
import operator
import random
import re
import weakref
from itertools import chain, repeat

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from matterwave import (
    BeamPath,
    BoostDomainError,
    ConfigKind,
    GeometryError,
    HBAR,
    InterferometerConfig,
    MotionField,
    PARTICLE_MASSES_KG,
    Vec3,
    build_config,
    circulation,
    gse_light_phase,
    interference_loop,
    make_particle_wave,
    open_loop_phase,
    path_phase,
    rest_phase,
    sagnac_area_phase,
    segment_phase_increment,
    translation_opening,
    two_path_difference,
)
from matterwave import kinematics
from matterwave.model import _fsum, _velocity, exact_sum
from matterwave.phase import _delta, boost_factor

import exact
from triples import add, cross, dot, field_scaled, scaled, sub, unit

TWO_PI = 2.0 * math.pi


# The paper's derivation of the per-segment law: a segment moving at speed V,
# at angle theta to the beam, compresses the wavelength by the boost factor
# 1 + V*cos(theta)/v, so that its phase is the rest phase times that factor.
def boosted_wavelength(wave, speed_V, cos_theta):
    return wave.wavelength_lambda / boost_factor(wave, speed_V * cos_theta)


def moving_phase(wave, length, speed_V, cos_theta):
    return rest_phase(wave, length) * boost_factor(wave, speed_V * cos_theta)


def unit_square_loop():
    return BeamPath(
        (Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0), Vec3(0, 0, 0))
    )


class TestRestPhase:
    def test_one_wavelength_is_two_pi(self, unit_wave):
        assert rest_phase(unit_wave, 1e-8) == pytest.approx(TWO_PI, rel=1e-15)

    def test_zero_length(self, unit_wave):
        assert rest_phase(unit_wave, 0.0) == 0.0

    def test_centimeter_of_angstrom_wave(self):
        # Oracle: independent arithmetic, 2*pi * 0.01 / 1e-10.
        wave = make_particle_wave(1000.0, wavelength=1e-10)
        assert rest_phase(wave, 0.01) == pytest.approx(6.283185307179587e8, rel=1e-12)

    def test_negative_length_rejected(self, unit_wave):
        with pytest.raises(GeometryError):
            rest_phase(unit_wave, -1.0)


class TestBoostedWavelength:
    def test_no_motion(self, unit_wave):
        assert boosted_wavelength(unit_wave, 0.0, 1.0) == unit_wave.wavelength_lambda

    def test_transverse_motion(self, unit_wave):
        assert boosted_wavelength(unit_wave, 123.0, 0.0) == unit_wave.wavelength_lambda

    def test_one_percent_boost(self):
        # Oracle: independent arithmetic, 1e-10 / 1.01.
        wave = make_particle_wave(1000.0, wavelength=1e-10)
        assert boosted_wavelength(wave, 10.0, 1.0) == pytest.approx(
            9.900990099009901e-11, rel=1e-15
        )

    def test_domain_guard(self):
        wave = make_particle_wave(10.0, wavelength=1e-9)
        with pytest.raises(BoostDomainError):
            boosted_wavelength(wave, 10.0, -1.0)
        with pytest.raises(BoostDomainError):
            boosted_wavelength(wave, 15.0, -1.0)

    def test_nan_speed_refused(self, unit_wave):
        with pytest.raises(BoostDomainError, match=r"\(nan m/s\)"):
            boost_factor(unit_wave, math.nan)


class TestMovingPhase:
    def test_reduces_to_rest_phase_at_zero_speed(self, unit_wave):
        assert moving_phase(unit_wave, 0.005, 0.0, 1.0) == rest_phase(unit_wave, 0.005)

    def test_factor_two_boost(self):
        wave = make_particle_wave(100.0, wavelength=1e-9)
        assert moving_phase(wave, 1e-9, 100.0, 1.0) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_one_percent_case(self):
        # Oracle: independent arithmetic, 1.01 * 2*pi * 1e8.
        wave = make_particle_wave(1000.0, wavelength=1e-10)
        assert moving_phase(wave, 0.01, 10.0, 1.0) == pytest.approx(
            6.346017160251381e8, rel=1e-12
        )

    def test_matches_boosted_wavelength_route(self):
        wave = make_particle_wave(1000.0, wavelength=1e-10)
        via_formula = moving_phase(wave, 0.01, 7.3, 0.42)
        via_wavelength = TWO_PI * 0.01 / boosted_wavelength(wave, 7.3, 0.42)
        assert via_formula == pytest.approx(via_wavelength, rel=1e-12)


class TestSegmentPhaseIncrement:
    def test_hundred_micron_full_fringe(self, unit_wave):
        # v_lambda 1e-8 m^2/s, V = 1e-4 m/s parallel to a 1e-4 m segment:
        # increment is exactly one fringe.
        field = MotionField(translation=Vec3(1e-4, 0, 0))
        increment = segment_phase_increment(unit_wave, Vec3(0, 0, 0), Vec3(1e-4, 0, 0), field)
        assert increment == pytest.approx(TWO_PI, rel=1e-12)

    def test_perpendicular_velocity_contributes_nothing(self, unit_wave):
        field = MotionField(translation=Vec3(0, 1e-4, 0))
        assert segment_phase_increment(unit_wave, Vec3(0, 0, 0), Vec3(1e-4, 0, 0), field) == 0.0

    def test_reversing_segment_flips_sign(self, fast_wave):
        a, b = Vec3(0.1, -0.2, 0.3), Vec3(0.5, 0.1, -0.2)
        field = MotionField(
            translation=Vec3(0.2, 0.1, -0.3), omega=Vec3(0.1, 0.4, 0.8), pivot=Vec3(0.1, 0, 0)
        )
        fwd = segment_phase_increment(fast_wave, a, b, field)
        back = segment_phase_increment(fast_wave, b, a, field)
        assert back == pytest.approx(-fwd, rel=1e-12)

    def test_coincident_endpoints_rejected(self, unit_wave):
        with pytest.raises(GeometryError):
            segment_phase_increment(unit_wave, Vec3(1, 1, 1), Vec3(1, 1, 1), MotionField())

    def test_increment_equals_moving_minus_rest(self, fast_wave, rng):
        for _ in range(50):
            a = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            b = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1) + 2.0)
            field = MotionField(
                translation=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                omega=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                pivot=Vec3(rng.uniform(-1, 1), 0, 0),
            )
            # Rest and moving phases by the independent wavelength route.
            rest = rest_phase(fast_wave, math.dist(b, a))
            v_parallel = dot(_velocity(field, scaled(add(a, b), 0.5)), unit(sub(b, a)))
            moving = rest * boost_factor(fast_wave, v_parallel)
            increment = segment_phase_increment(fast_wave, Vec3(*a), Vec3(*b), field)
            scale = max(abs(rest), abs(moving))
            assert abs((moving - rest) - increment) <= 1e-12 * scale


class TestPathPhase:
    def test_closed_square_uniform_velocity_is_null(self, unit_wave):
        field = MotionField(translation=Vec3(1e-5, 2e-5, 0))
        result = path_phase(unit_wave, unit_square_loop(), field)
        gross = sum(abs(c.phase_rad) for c in result.per_segment)
        assert abs(result.total_phase_rad) <= 1e-9 * gross

    def test_single_segment_equals_increment(self, fast_wave):
        a, b = Vec3(0, 0, 0), Vec3(0.3, 0.4, 0.0)
        field = MotionField(translation=Vec3(0.5, -0.2, 0.1))
        path = BeamPath((a, b))
        single = segment_phase_increment(fast_wave, a, b, field)
        assert path_phase(fast_wave, path, field).total_phase_rad == single

    def test_unit_square_under_rotation(self, unit_wave, rotation_z):
        # Oracle: circulation of a unit-rate rigid rotation around the ccw
        # unit square is 2.0 m^2/s; phase is (2*pi / 1e-8) * 2.0.
        result = path_phase(unit_wave, unit_square_loop(), rotation_z)
        assert result.total_phase_rad == pytest.approx(1.2566370614359171e9, rel=1e-12)

    def test_total_is_sum_of_breakdown(self, fast_wave):
        field = MotionField(translation=Vec3(0.3, 0.3, 0), omega=Vec3(0, 0, 0.5))
        result = path_phase(fast_wave, unit_square_loop(), field)
        assert result.total_phase_rad == pytest.approx(
            math.fsum(c.phase_rad for c in result.per_segment), rel=1e-12, abs=1e-300
        )
        assert [c.segment_index for c in result.per_segment] == [0, 1, 2, 3]


def closed_square_config(wave, motion, side=1.0):
    a = Vec3(0, 0, 0)
    b = Vec3(side, 0, 0)
    c = Vec3(side, side, 0)
    d = Vec3(0, side, 0)
    return InterferometerConfig(
        BeamPath((a, d, c)), BeamPath((a, b, c)), wave, motion, ConfigKind.CLOSED_LOOP
    )


class TestTwoPathDifference:
    def test_closed_translation_null(self, unit_wave):
        config = closed_square_config(unit_wave, MotionField(translation=Vec3(1e-5, -2e-5, 0)))
        result = two_path_difference(config)
        assert abs(result.total_phase_rad) <= 1e-9

    def test_closed_rotation_matches_area_formula(self, fast_wave, rotation_z):
        config = closed_square_config(fast_wave, rotation_z)
        by_difference = two_path_difference(config).total_phase_rad
        by_area = sagnac_area_phase(fast_wave, interference_loop(config), rotation_z)
        assert by_difference == pytest.approx(by_area, rel=1e-10)

    def test_open_config_matches_open_loop_formula(self, unit_wave):
        velocity = Vec3(0, 1e-4, 0)
        config = build_config(
            "Fig3bOpen",
            unit_wave,
            MotionField(translation=velocity),
            opening_m=Vec3(0, 1e-4, 0),
        )
        expected = open_loop_phase(unit_wave, translation_opening(config), velocity)
        assert two_path_difference(config).total_phase_rad == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(TWO_PI, rel=1e-12)

    def test_breakdown_signs_sum_to_total(self, fast_wave, rotation_z):
        config = closed_square_config(fast_wave, rotation_z)
        result = two_path_difference(config)
        assert {c.path_id for c in result.per_segment} == {"I", "II"}
        assert result.total_phase_rad == pytest.approx(
            math.fsum(c.phase_rad for c in result.per_segment), rel=1e-12
        )


class TestBreakdown:
    def test_breakdown_built_when_read_sums_to_total_in_order(self, fast_wave, rng):
        # Beam II's entries first, then beam I's negated, each indexed from 0.
        verts = [Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9)]
        motion = MotionField(
            translation=Vec3(0.3, -0.2, 0.1), omega=Vec3(0.2, 0.5, -0.4), pivot=Vec3(0.1, 0, 0)
        )
        path_i = BeamPath(tuple(verts[:4]))
        path_ii = BeamPath((verts[0],) + tuple(verts[4:]) + (verts[3],))
        config = InterferometerConfig(path_i, path_ii, fast_wave, motion, ConfigKind.CLOSED_LOOP)
        result = two_path_difference(config)
        entries = result.per_segment
        # The entries are walked segment by segment, the total from the compiled
        # moments: each is within its stated bound of the exact phase.
        bound = exact.two_path_bound(config) + exact.breakdown_bound(fast_wave, motion, path_i, path_ii)
        assert abs(math.fsum(c.phase_rad for c in entries) - result.total_phase_rad) <= bound
        assert [(c.path_id, c.segment_index) for c in entries] == (
            [("II", i) for i in range(6)] + [("I", i) for i in range(3)]
        )
        beam_ii = path_phase(fast_wave, config.path_II, motion).per_segment
        beam_i = path_phase(fast_wave, config.path_I, motion).per_segment
        assert [c.phase_rad for c in entries] == (
            [c.phase_rad for c in beam_ii] + [-c.phase_rad for c in beam_i]
        )


# Beam I ends 1e-13 m from beam II's end, within the shared-endpoint tolerance,
# and its last but one vertex is beam II's end: the loop repeats that vertex.
COINCIDENT_JOIN_II = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0))
COINCIDENT_JOIN_I = ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0), (1.0000000000001, 1.0, 0.0))


def closed_config(path_i, path_ii, wave, motion=MotionField()):
    return InterferometerConfig(
        BeamPath(path_i), BeamPath(path_ii), wave, motion, ConfigKind.CLOSED_LOOP
    )


def concatenated_loop(config):
    """The loop as a whole new path: beam II, then beam I backward from its last but one vertex."""
    return BeamPath(config.path_II.vertices + tuple(reversed(config.path_I.vertices))[1:])


class TestInterferenceLoop:
    def test_coincident_join_refused_with_the_loops_vertex_indices(self, unit_wave, rotation_z):
        config = closed_config(COINCIDENT_JOIN_I, COINCIDENT_JOIN_II, unit_wave, rotation_z)
        message = "^consecutive vertices 2 and 3 coincide$"
        with pytest.raises(GeometryError, match=message):
            interference_loop(config)
        with pytest.raises(GeometryError, match=message):
            concatenated_loop(config)

    # Distinct vertices on a small grid; beam I's may include beam II's end,
    # 1e-13 m from its own, which makes the loop repeat a vertex at the join.
    end = (0.0, 0.0, 3.0)
    grid_point = st.tuples(*[st.sampled_from([0.0, 1.0])] * 3)

    @example([(1.0, 1.0, 1.0), end], [(1.0, 0.0, 0.0)], 1e-13)
    @given(
        st.lists(st.one_of(grid_point, st.just(end)), min_size=1, max_size=4, unique=True),
        st.lists(grid_point, min_size=1, max_size=4, unique=True),
        st.sampled_from([0.0, 1e-13]),
    )
    def test_loop_is_the_concatenation_checked_whole(self, middle_i, middle_ii, nudge):
        start = (0.0, 0.0, -1.0)
        path_i = (start, *middle_i, (nudge, 0.0, 3.0))
        path_ii = (start, *middle_ii, self.end)
        try:
            config = closed_config(path_i, path_ii, make_particle_wave(1.0, wavelength=1e-8))
        except GeometryError:
            assume(False)  # a beam repeats a vertex of its own
        try:
            expected = concatenated_loop(config).vertices
        except GeometryError as exc:
            expected = str(exc)
        try:
            loop = interference_loop(config).vertices
        except GeometryError as exc:
            loop = str(exc)
        assert loop == expected


def same_paths(config, motion):
    return InterferometerConfig(config.path_I, config.path_II, config.wave, motion, config.kind)


class TestKeptLoop:
    """The loop is kept on beam II and reused while beam I's vertex tuple is the same."""

    def test_configs_sharing_both_beams_share_the_loop(self, unit_wave, rotation_z):
        config = closed_square_config(unit_wave, MotionField())
        loop = interference_loop(config)
        assert interference_loop(same_paths(config, rotation_z)) is loop
        assert loop == concatenated_loop(config)

    def test_configs_sharing_both_beams_reuse_the_rows(self, fast_wave):
        geometry = closed_square_config(fast_wave, MotionField(), side=0.1)
        kept = []
        for k in range(3):  # a scan: a new motion and config per evaluation
            motion = MotionField(omega=Vec3(0.0, 0.01 * (k + 1), 0.01))
            loop = interference_loop(same_paths(geometry, motion))
            by_loop = (TWO_PI / fast_wave.v_lambda) * circulation(motion, loop)
            by_area = sagnac_area_phase(fast_wave, loop, motion)
            assert by_loop == pytest.approx(by_area, rel=1e-12)
            kept.append(vars(loop)["_midpoints"])
        assert kept[1] is kept[0] and kept[2] is kept[0]

    def test_a_different_beam_i_gets_a_new_correct_loop(self, unit_wave):
        config = closed_square_config(unit_wave, MotionField())
        first = interference_loop(config)
        # A bent beam I, then an equal beam I that is another object.
        for path_i in (
            BeamPath(((0.0, 0.0, 0.0), (0.0, 2.0, 0.0), (1.0, 1.0, 0.0))),
            BeamPath(tuple(map(tuple, config.path_I.vertices))),
        ):
            other = InterferometerConfig(
                path_i, config.path_II, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP
            )
            loop = interference_loop(other)
            assert loop is not first
            assert loop.vertices == concatenated_loop(other).vertices
        again = interference_loop(config)
        assert again.vertices == first.vertices

    def test_refusals_are_not_kept(self, unit_wave, rotation_z):
        config = closed_config(COINCIDENT_JOIN_I, COINCIDENT_JOIN_II, unit_wave, rotation_z)
        open_config = build_config("Fig3bOpen", unit_wave, MotionField(), opening_m=1e-4)
        for _ in range(2):
            with pytest.raises(GeometryError, match="^consecutive vertices 2 and 3 coincide$"):
                interference_loop(config)
            with pytest.raises(GeometryError, match="only closed-loop configurations"):
                interference_loop(open_config)
        assert "_loop" not in vars(config.path_II)
        assert "_loop" not in vars(open_config.path_II)

    def test_equality_hash_and_repr_unchanged(self, unit_wave):
        config = closed_square_config(unit_wave, MotionField())
        loop = interference_loop(config)
        sagnac_area_phase(unit_wave, loop, MotionField())
        circulation(MotionField(), loop)
        for kept in (config.path_II, loop):
            path = BeamPath(tuple(map(tuple, kept.vertices)))  # equal, nothing kept on it
            assert kept == path and not kept != path
            assert (hash(kept), repr(kept)) == (hash(path), repr(path))

    @pytest.mark.parametrize("one_path", [False, True], ids=["two-beams", "one-path-twice"])
    def test_a_dropped_geometry_is_freed_without_the_collector(self, unit_wave, one_path):
        enabled = gc.isenabled()
        gc.disable()
        try:
            path_ii = BeamPath(COINCIDENT_JOIN_II)
            path_i = path_ii if one_path else BeamPath(COINCIDENT_JOIN_I[:3])
            config = InterferometerConfig(
                path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP
            )
            loop = interference_loop(config)
            sagnac_area_phase(unit_wave, loop, MotionField())
            circulation(MotionField(), loop)
            refs = [weakref.ref(obj) for obj in (path_i, path_ii, loop, config)]
            del path_i, path_ii, config, loop
            assert [ref() for ref in refs] == [None] * 4
        finally:
            if enabled:
                gc.enable()

    def test_a_scan_walks_the_shoelace_once(self, fast_wave, monkeypatch):
        sums = []

        def counted_sum(values, quantity):
            sums.append(quantity)
            return exact_sum(values, quantity)

        monkeypatch.setattr(kinematics, "exact_sum", counted_sum)
        geometry = closed_square_config(fast_wave, MotionField(), side=0.1)
        for k in range(50):
            motion = MotionField(omega=Vec3(0.0, 0.0, 0.01 * (k + 1)))
            config = same_paths(geometry, motion)
            loop = interference_loop(config)
            by_area = sagnac_area_phase(fast_wave, loop, motion)
            by_loop = (TWO_PI / fast_wave.v_lambda) * circulation(motion, loop)
            assert by_area == pytest.approx(by_loop, rel=1e-12)
            assert by_area == pytest.approx(two_path_difference(config).total_phase_rad, rel=1e-12)
        # One walk sums three axes; the circulation is summed once per motion.
        assert sums.count("vector area") == 3
        assert sums.count("circulation") == 50


class TestSagnacAreaPhase:
    def test_zero_rotation(self, unit_wave):
        assert sagnac_area_phase(unit_wave, unit_square_loop(), MotionField()) == 0.0

    def test_square_side_tenth_meter(self, unit_wave, rotation_z):
        # Oracle: cross-checked against the two-path difference on the same
        # loop; the frozen value is (4*pi / 1e-8) * 0.01.
        loop = BeamPath(
            (Vec3(0, 0, 0), Vec3(0.1, 0, 0), Vec3(0.1, 0.1, 0), Vec3(0, 0.1, 0), Vec3(0, 0, 0))
        )
        assert sagnac_area_phase(unit_wave, loop, rotation_z) == pytest.approx(
            1.2566370614359172e7, rel=1e-12
        )

    def test_earth_rate_square(self, unit_wave):
        # Oracle: the loop-integral route computed independently below.
        loop = BeamPath(
            (Vec3(0, 0, 0), Vec3(0.1, 0, 0), Vec3(0.1, 0.1, 0), Vec3(0, 0.1, 0), Vec3(0, 0, 0))
        )
        field = MotionField(omega=Vec3(0, 0, 7.2921159e-5))
        value = sagnac_area_phase(unit_wave, loop, field)
        assert value == pytest.approx(916.3543096226128, rel=1e-12)
        by_loop = path_phase(unit_wave, loop, field).total_phase_rad
        assert value == pytest.approx(by_loop, rel=1e-10)

    def test_open_loop_rejected(self, unit_wave):
        with pytest.raises(GeometryError):
            sagnac_area_phase(unit_wave, BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0))), MotionField())

    @pytest.mark.parametrize(
        "corners,omega",
        [
            ([(0, 0, 0), (1e150, 0, 0), (1e150, 1e150, 0)], (0, 0, 1e100)),
            ([(0, 0, 0), (1e150, 0, 0), (1e150, 0, 1e150), (0, 1e150, 1e150)], (1e300,) * 3),
        ],
        ids=["inf", "nan"],  # the area form's product: omega . A overflows, or is inf - inf
    )
    def test_phase_beyond_the_float_range_refused_as_the_circulation_is(
        self, unit_wave, corners, omega
    ):
        loop, field = BeamPath(tuple(corners + corners[:1])), MotionField(omega=Vec3(*omega))
        with pytest.raises(GeometryError, match="^circulation overflows the float range$"):
            circulation(field, loop)
        with pytest.raises(GeometryError, match="^phase overflows the float range$"):
            sagnac_area_phase(unit_wave, loop, field)


class TestOpenLoopPhase:
    def test_hundred_micron_sensitivity_numbers(self, unit_wave):
        # v_lambda 1e-8 m^2/s, opening 100 micrometers, speed 1e-2 cm/s:
        # exactly one fringe.
        phase = open_loop_phase(unit_wave, Vec3(1e-4, 0, 0), Vec3(1e-4, 0, 0))
        assert phase == pytest.approx(TWO_PI, rel=1e-12)

    def test_perpendicular_is_zero(self, unit_wave):
        assert open_loop_phase(unit_wave, Vec3(1e-4, 0, 0), Vec3(0, 1, 0)) == 0.0

    def test_zero_velocity(self, unit_wave):
        assert open_loop_phase(unit_wave, Vec3(1e-4, 0, 0), Vec3(0, 0, 0)) == 0.0

    def test_zero_opening_rejected(self, unit_wave):
        with pytest.raises(GeometryError):
            open_loop_phase(unit_wave, Vec3(0, 0, 0), Vec3(1, 0, 0))

    def test_mass_form_of_the_prefactor(self):
        # With a mass present, 2*pi / v_lambda equals m / hbar, so the phase
        # is (m / hbar) * V . D.
        mass = PARTICLE_MASSES_KG["neutron"]
        wave = make_particle_wave(2200.0, mass=mass)
        d = Vec3(1e-4, 0, 0)
        v = Vec3(1e-3, 0, 0)
        expected = (mass / HBAR) * v.dot(d)
        assert open_loop_phase(wave, d, v) == pytest.approx(expected, rel=1e-12)


class TestGseLightPhase:
    def test_perpendicular(self):
        assert gse_light_phase(1.55e-6, Vec3(0, 1, 0), Vec3(1, 0, 0)) == 0.0

    def test_telecom_wavelength_one_meter(self):
        # Oracle: independent arithmetic with the exact SI speed of light,
        # 4*pi / (2.99792458e8 * 1.55e-6).
        value = gse_light_phase(1.55e-6, Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert value == pytest.approx(0.027043161573570087, rel=1e-12)

    def test_matches_matter_wave_with_half_c_lambda(self):
        lam = 1.55e-6
        c = 2.99792458e8
        wave = make_particle_wave(1.0, wavelength=c * lam / 2.0)
        light = gse_light_phase(lam, Vec3(1, 0, 0), Vec3(1, 0, 0))
        matter = open_loop_phase(wave, Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert light == pytest.approx(matter, rel=1e-12)

    def test_bad_wavelength(self):
        with pytest.raises(GeometryError, match="^wavelength must be positive and finite, got 0.0$"):
            gse_light_phase(0.0, Vec3(1, 0, 0), Vec3(1, 0, 0))


class TestFactorIdentities:
    @pytest.mark.parametrize("name", sorted(PARTICLE_MASSES_KG))
    def test_mass_forms(self, name):
        mass = PARTICLE_MASSES_KG[name]
        wave = make_particle_wave(970.0, mass=mass)
        assert 4 * math.pi / wave.v_lambda == pytest.approx(2 * mass / HBAR, rel=1e-12)
        assert TWO_PI / wave.v_lambda == pytest.approx(mass / HBAR, rel=1e-12)


class TestPhaseProperties:
    def test_sign_antisymmetry_under_path_reversal(self, fast_wave, rng):
        field = MotionField(
            translation=Vec3(0.4, -0.1, 0.2), omega=Vec3(0.3, 0.2, -0.5), pivot=Vec3(0, 0.2, 0)
        )
        for _ in range(25):
            verts = tuple(
                Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(rng.randrange(2, 7))
            )
            path = BeamPath(verts)
            fwd = path_phase(fast_wave, path, field).total_phase_rad
            back = path_phase(fast_wave, path.reversed(), field).total_phase_rad
            assert back == -fwd

    def test_pivot_invariance_closed_loops(self, fast_wave, rng):
        for _ in range(20):
            omega = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            translation = Vec3(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5), 0.0)
            p1 = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            p2 = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            c1 = closed_square_config(fast_wave, MotionField(translation, omega, p1))
            c2 = closed_square_config(fast_wave, MotionField(translation, omega, p2))
            d1 = two_path_difference(c1).total_phase_rad
            d2 = two_path_difference(c2).total_phase_rad
            assert abs(d1 - d2) <= 1e-9

    def test_open_config_is_pivot_sensitive(self, unit_wave):
        """Regression: the same opening with a shifted rotation center moves the phase."""
        opening = Vec3(0, 1e-4, 0)
        base = build_config(
            "Fig3bOpen",
            unit_wave,
            MotionField(omega=Vec3(0, 0, 1e-4), pivot=Vec3(0, 0, 0)),
            opening_m=opening,
            arm_length_m=0.01,
        )
        shifted = build_config(
            "Fig3bOpen",
            unit_wave,
            MotionField(omega=Vec3(0, 0, 1e-4), pivot=Vec3(0.3, -0.2, 0)),
            opening_m=opening,
            arm_length_m=0.01,
        )
        phase_base = two_path_difference(base).total_phase_rad
        phase_shifted = two_path_difference(shifted).total_phase_rad
        # Frozen by the brute-force line-integral oracle in
        # test_pivot_shift_regression_value below.
        assert phase_base != pytest.approx(phase_shifted, abs=1e-9)

    def test_pivot_shift_regression_value(self, unit_wave):
        # Brute-force oracle: dense midpoint quadrature of the velocity line
        # integral along both beams, independent of the segment phase law.
        opening = Vec3(0, 1e-4, 0)
        motion = MotionField(omega=Vec3(0, 0, 1e-4), pivot=Vec3(0.3, -0.2, 0))
        config = build_config(
            "Fig3bOpen", unit_wave, motion, opening_m=opening, arm_length_m=0.01
        )

        def brute_line_integral(path):
            total = 0.0
            t, w, p = (v.as_tuple() for v in (motion.translation, motion.omega, motion.pivot))
            corners = path.vertices
            for a, b in zip(corners, corners[1:]):
                n = 4000
                step = scaled(sub(b, a), 1.0 / n)
                for k in range(n):
                    r = add(a, scaled(step, k + 0.5))
                    total += dot(add(t, cross(w, sub(r, p))), step)
            return total

        oracle = (TWO_PI / unit_wave.v_lambda) * (
            brute_line_integral(config.path_II) - brute_line_integral(config.path_I)
        )
        got = two_path_difference(config).total_phase_rad
        assert got == pytest.approx(oracle, rel=1e-9)
        assert got == pytest.approx(-1.758663567479577, rel=1e-9)

    @given(
        vx=st.floats(-0.5, 0.5),
        vy=st.floats(-0.5, 0.5),
        ox=st.floats(-0.5, 0.5),
        oz=st.floats(-0.5, 0.5),
        alpha=st.floats(-2.0, 2.0),
    )
    def test_joint_linearity_in_motion(self, vx, vy, ox, oz, alpha):
        wave = make_particle_wave(50.0, wavelength=0.1)
        path = BeamPath((Vec3(0, 0, 0), Vec3(0.7, 0.1, 0), Vec3(0.4, 0.8, 0.2)))
        field = MotionField(translation=Vec3(vx, vy, 0.1), omega=Vec3(ox, 0.2, oz))
        base = path_phase(wave, path, field).total_phase_rad
        scaled = path_phase(wave, path, field_scaled(field, alpha)).total_phase_rad
        gross = sum(abs(c.phase_rad) for c in path_phase(wave, path, field).per_segment)
        assert abs(scaled - alpha * base) <= 1e-12 * max(abs(base), gross, 1.0)

    @given(t=st.floats(0.05, 0.95))
    def test_segment_split_additivity(self, t):
        wave = make_particle_wave(50.0, wavelength=0.1)
        a, b = (-0.3, 0.4, 0.1), (0.8, -0.2, 0.5)
        a, mid, b = Vec3(*a), Vec3(*add(a, scaled(sub(b, a), t))), Vec3(*b)
        field = MotionField(
            translation=Vec3(0.3, -0.1, 0.2), omega=Vec3(0.2, 0.5, -0.3), pivot=Vec3(0.1, 0, 0)
        )
        whole = segment_phase_increment(wave, a, b, field)
        parts = (
            segment_phase_increment(wave, a, mid, field)
            + segment_phase_increment(wave, mid, b, field)
        )
        gross = abs(whole) + abs(parts)
        assert abs(whole - parts) <= 1e-12 * max(gross, 1.0)

    def test_boost_domain_violation_propagates(self):
        wave = make_particle_wave(1.0, wavelength=1e-8)
        field = MotionField(translation=Vec3(-2.0, 0, 0))
        with pytest.raises(BoostDomainError):
            segment_phase_increment(wave, Vec3(0, 0, 0), Vec3(1, 0, 0), field)

    @settings(max_examples=100)
    @given(vectors=st.lists(
        st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3), min_size=5, max_size=5
    ))
    def test_segment_increment_matches_the_exact_phase_within_the_bound(self, vectors):
        # Speeds stay far below the particle speed, inside the boost domain.
        wave = make_particle_wave(1e9, wavelength=1e-9)
        a, b, translation, omega, pivot = (Vec3(*xyz) for xyz in vectors)
        assume(a != b)
        field = MotionField(translation=translation, omega=omega, pivot=pivot)
        segment = BeamPath((a, b))
        expected = exact.path_phase(wave, segment, field)
        got = segment_phase_increment(wave, a, b, field)
        assert abs(got - expected) <= exact.path_bound(wave, field, segment)


class TestNonFiniteSums:
    def test_overflowing_increment_refused(self, unit_wave):
        path = BeamPath((Vec3(0, 0, 0), Vec3(1e210, 0, 0)))
        field = MotionField(translation=Vec3(1e100, 0, 0))
        with pytest.raises(GeometryError, match="overflows the float range"):
            path_phase(unit_wave, path, field)

    @pytest.mark.parametrize(
        "step,speed",
        [
            # V . dL is -3e308 + 2e308: -inf + inf, nan in floats.
            ((-3.0, 2.0, 0.0), "-2.7735009811261455e+307"),
            # V . dL is 2e308 - 1.5e308 - 1.5e308: +inf in floats, -1e308 exactly.
            ((2.0, -1.5, -1.5), "-3.4299717028501755e+307"),
        ],
        ids=["nan", "inf-hiding-a-negative"],
    )
    def test_overflowing_speed_along_the_beam_decided_on_the_unit_gap(
        self, unit_wave, step, speed
    ):
        path = BeamPath(((0.0, 0.0, 0.0), step))
        field = MotionField(translation=Vec3(1e308, 1e308, 1e308 if step[2] else 0.0))
        message = re.escape(f"segment speed along the beam ({speed} m/s)")
        with pytest.raises(BoostDomainError, match="^" + message):
            path_phase(unit_wave, path, field)

    def test_velocity_beyond_the_float_range_refused_as_an_overflow(self, unit_wave):
        # U0 = (inf, 1, 0) at the reference vertex (1, 1, 0). The first segment has no
        # x gap, so its speed along the beam is 1e308 - 1e308 = 0 m/s, inside the
        # domain; the phase, U0 . (1, 1, 0) and more, leaves the float range.
        path = BeamPath(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)))
        field = MotionField(Vec3(1e308, 0, 0), Vec3(0, 0, 1), Vec3(0, 1e308, 0))
        with pytest.raises(GeometryError, match="^phase overflows the float range$"):
            path_phase(unit_wave, path, field)

    def test_path_beyond_half_the_float_range_answered(self, unit_wave):
        # 1e308 + 1.7e308 overflows, but no offset from the reference vertex
        # does: the velocity is across the path, and the phase is exactly 0.
        path = BeamPath((Vec3(1e308, 0, 0), Vec3(1.7e308, 0, 0)))
        field = MotionField(translation=Vec3(0, 1, 0))
        result = path_phase(unit_wave, path, field)
        assert result.total_phase_rad == 0.0
        assert result.increments == (("I", (0.0,)),)

    def test_offsets_beyond_the_float_range_refused(self, unit_wave):
        # Each gap is finite, but the start lies 2e308 m from the reference
        # vertex, the end: the compiled form cannot hold the offset.
        path = BeamPath(((-1e308, 0.0, 0.0), (0.0, 0.0, 0.0), (1e308, 0.0, 0.0)))
        field = MotionField(translation=Vec3(1e-10, 0, 0))
        message = "^vertex offsets from the path's reference vertex overflow the float range$"
        with pytest.raises(GeometryError, match=message):
            path_phase(unit_wave, path, field)

    def test_rotating_path_whose_moments_overflow_refused(self, unit_wave):
        path = BeamPath(OVERFLOWING_MOMENTS)
        field = MotionField(omega=Vec3(0, 0, 1e-200))
        with pytest.raises(GeometryError, match="^phase overflows the float range$"):
            path_phase(unit_wave, path, field)

    def test_rotating_path_whose_partial_moment_sum_overflows_answered(self, unit_wave):
        # Each y moment term is finite and so is their sum, but a partial sum
        # of them in path order is not: the sum is taken again, scaled down.
        path = BeamPath(PARTIAL_SUM_OVERFLOW)
        field = MotionField(omega=Vec3(0.0, 1e-300, 0.0))
        assert math.isfinite(path.moments[1])
        got = path_phase(unit_wave, path, field).total_phase_rad
        expected = exact.path_phase(unit_wave, path, field)
        assert abs(got - expected) <= exact.path_bound(unit_wave, field, path)


# Offsets near 1e154 m: the y moment terms a'_i x dL_i are finite, and so is their
# exact sum, but summed in path order a partial sum overflows.
PARTIAL_SUM_OVERFLOW = (
    (1.1691645567758052e154, -4.037842819066272e153, 2.2329672361760183e153),
    (-1.0847224368907774e154, 1.5547112862397673e153, 8.14576882798351e153),
    (-7.7582826405375e153, -6.214922990453302e153, 5.210546645712037e153),
    (-6.399068859662356e153, -6.2596176754434705e153, 1.1323397486421837e154),
    (1.2962118801920977e154, -8.96484080200285e153, 1.040422206870801e154),
    (1.370888635317212e153, -1.1996370297326545e154, 2.223070596166818e153),
)
# Offsets near 1e155 m from the reference vertex: every moment term overflows.
OVERFLOWING_MOMENTS = (
    (0.0, 0.0, 0.0), (1e155, 0.0, 0.0), (1e155, 2e155, 0.0), (-1e155, 2e155, 3e155),
)


class TestCompiledForm:
    def test_second_motion_reuses_the_form_and_equals_fresh_paths(self, fast_wave, rng):
        verts = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(7)]
        path_i, path_ii = BeamPath(tuple(verts[:4])), BeamPath((verts[0], *verts[4:], verts[3]))
        first = MotionField(Vec3(0.1, 0.2, 0.3), Vec3(0.3, -0.1, 0.2), Vec3(0.5, 0, 0))
        second = MotionField(Vec3(-0.2, 0.1, 0.0), Vec3(0.0, 0.4, -0.3), Vec3(0, -1, 2))
        kind = ConfigKind.CLOSED_LOOP
        two_path_difference(InterferometerConfig(path_i, path_ii, fast_wave, first, kind))
        forms = path_i.moments, path_ii.moments
        again = two_path_difference(InterferometerConfig(path_i, path_ii, fast_wave, second, kind))
        assert (path_i.moments, path_ii.moments) == forms
        assert path_i.moments is forms[0] and path_ii.moments is forms[1]
        fresh_i, fresh_ii = BeamPath(tuple(verts[:4])), BeamPath((verts[0], *verts[4:], verts[3]))
        assert "moments" not in vars(fresh_i)
        fresh = two_path_difference(InterferometerConfig(fresh_i, fresh_ii, fast_wave, second, kind))
        assert again.total_phase_rad == fresh.total_phase_rad
        assert again.increments == fresh.increments

    def test_bound_at_the_particle_speed_without_a_violation_answered(self, unit_wave):
        # |U0| = 5 m/s against v = 1 m/s, but along the beam the speed is 0.5 m/s.
        path = BeamPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)))
        field = MotionField(translation=Vec3(0.5, 5.0, 0.0))
        result = path_phase(unit_wave, path, field)
        assert result.total_phase_rad == exact.path_phase(unit_wave, path, field)
        assert result.total_phase_rad == pytest.approx(TWO_PI / unit_wave.v_lambda, rel=1e-15)

    def test_one_violating_segment_refused_with_the_boost_message(self, unit_wave):
        path = BeamPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
        field = MotionField(translation=Vec3(0.0, -2.0, 0.0))
        message = (
            r"^segment speed along the beam \(-2\.0 m/s\) cancels or exceeds the particle "
            r"speed \(1\.0 m/s\); phase model does not apply$"
        )
        with pytest.raises(BoostDomainError, match=message):
            path_phase(unit_wave, path, field)
        config = InterferometerConfig(
            BeamPath(((0.0, 1.0, 0.0), (1.0, 1.0, 0.0))), path, unit_wave, field,
            ConfigKind.OPEN_LOOP,
        )
        with pytest.raises(BoostDomainError, match=message):
            two_path_difference(config)

    def test_zero_rotation_with_overflowing_moments_answered(self, unit_wave):
        path = BeamPath(OVERFLOWING_MOMENTS)
        assert not all(map(math.isfinite, path.moments))
        field = MotionField(translation=Vec3(1e-150, 2e-150, 1e-150), pivot=Vec3(1, 2, 3))
        result = path_phase(unit_wave, path, field)
        bound = exact.path_bound(unit_wave, field, path)
        assert abs(result.total_phase_rad - exact.path_phase(unit_wave, path, field)) <= bound
        bound += exact.breakdown_bound(unit_wave, field, path)
        assert abs(math.fsum(result.increments[0][1]) - result.total_phase_rad) <= bound


def _cross_sum(p, q, dp, dq):
    # Summed by the package's one overflow rule for sums, as the one-pass loop sums.
    return _fsum(list(map(operator.sub, map(operator.mul, p, dq), map(operator.mul, q, dp))))


def one_pass_moments(path):
    """The reference vertex of BeamPath.extent, the path's delta, BeamPath.moments built
    afresh, and the reach of BeamPath.extent."""
    origin, reach = BeamPath.extent.func(path)
    return origin, _delta(path), BeamPath.moments.func(path), reach


def list_of_maps_moments(path):
    """BeamPath.moments and its reach as they were compiled before the one-pass loop:
    per-axis lists of coordinates, offsets and gaps, combined with map."""
    verts = path.vertices
    flip = verts[0] > verts[-1]
    ordered = verts[::-1] if flip else verts
    origin = ox, oy, oz = ordered[-1]
    flat = list(chain.from_iterable(ordered))
    axes = xs, ys, zs = flat[0::3], flat[1::3], flat[2::3]
    extents = [max(max(axis) - o, o - min(axis)) for axis, o in zip(axes, origin)]
    if not all(map(math.isfinite, extents)):
        raise GeometryError(
            "vertex offsets from the path's reference vertex overflow the float range"
        )
    x = list(map(operator.sub, xs, repeat(ox)))
    y = list(map(operator.sub, ys, repeat(oy)))
    z = list(map(operator.sub, zs, repeat(oz)))
    dx, dy, dz = (list(map(operator.sub, axis[1:], axis)) for axis in axes)
    moment = (_cross_sum(y, z, dy, dz), _cross_sum(z, x, dz, dx), _cross_sum(x, y, dx, dy))
    return (
        origin,
        tuple(map(operator.sub, verts[-1], verts[0])),
        tuple(-m for m in moment) if flip else moment,
        math.hypot(*extents),
    )


def compiled(compile_, path):
    """repr of (origin, delta, moment, reach), nan moments included, or the refusal's text."""
    try:
        return repr(tuple(compile_(path)))
    except GeometryError as exc:
        return f"GeometryError: {exc}"


# Moderate components, plus magnitudes whose moment terms overflow to inf and nan.
moment_components = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e200, 1e200))


class TestOnePassCompileMatchesListOfMapsBitForBit:
    @settings(max_examples=200)
    @given(points=st.lists(st.tuples(*[moment_components] * 3), min_size=2, max_size=8))
    @example(points=[(-1e308, 0.0, 0.0), (0.0, 0.0, 0.0), (1e308, 0.0, 0.0)])
    @example(points=[(0.0, 1e308, 0.0), (0.0, 0.0, 0.0), (0.0, -1.5e308, 0.0)])
    @example(points=[(0.0, 0.0, 1e308), (0.0, 0.0, 0.0), (0.0, 0.0, -1e308)])
    @example(points=list(OVERFLOWING_MOMENTS))
    @example(points=[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (-0.0, 0.0, 0.0)])  # equal ends
    @example(points=list(PARTIAL_SUM_OVERFLOW))
    def test_moments(self, points):
        try:
            path = BeamPath(tuple(points))
        except GeometryError:  # coincident or overflowing neighbours
            assume(False)
        # Both orientations: the reference vertex is the larger end vertex.
        for p in (path, path.reversed()):
            assert compiled(one_pass_moments, p) == compiled(list_of_maps_moments, p)
