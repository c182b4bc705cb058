"""Builders, fringe readout, sensitivity sweep, and the verify suite."""

import math

import pytest

from matterwave import (
    ConfigKind,
    GeometryError,
    MotionField,
    Vec3,
    build_config,
    fringe_reading,
    interference_loop,
    make_particle_wave,
    open_loop_phase,
    sagnac_area_phase,
    sensitivity_sweep,
    translation_opening,
    two_path_difference,
    verify_suite,
)

TWO_PI = 2.0 * math.pi


class TestBuildConfig:
    def test_closed_kind_is_null_under_translation(self, unit_wave):
        config = build_config(
            "Fig3aClosed",
            unit_wave,
            MotionField(translation=Vec3(1e-5, 2e-5, 0)),
            side_m=0.05,
        )
        assert config.kind is ConfigKind.CLOSED_LOOP
        result = two_path_difference(config)
        gross = sum(abs(c.phase_rad) for c in result.per_segment)
        assert abs(result.total_phase_rad) <= 1e-9 * max(gross, 1.0)

    def test_rotation_square_matches_area_formula(self, fast_wave):
        motion = MotionField(omega=Vec3(0, 0, 1.0))
        config = build_config("Fig2Rotation", fast_wave, motion, side_m=0.1)
        got = two_path_difference(config).total_phase_rad
        expected = sagnac_area_phase(fast_wave, interference_loop(config), motion)
        assert got == pytest.approx(expected, rel=1e-10)
        assert abs(got) == pytest.approx(
            (4 * math.pi / fast_wave.v_lambda) * 1.0 * 0.01, rel=1e-10
        )

    def test_rectangle_dimensions(self, fast_wave):
        config = build_config(
            "Fig2Rotation", fast_wave, MotionField(), width_m=0.2, height_m=0.05
        )
        loop = interference_loop(config)
        from matterwave import enclosed_area_vector

        area = enclosed_area_vector(loop)
        assert area.z == pytest.approx(0.2 * 0.05, rel=1e-12)

    def test_open_kind_has_requested_opening_magnitude(self, unit_wave):
        config = build_config(
            "Fig3bOpen", unit_wave, MotionField(), opening_m=1e-4
        )
        assert config.kind is ConfigKind.OPEN_LOOP
        assert translation_opening(config).norm() == pytest.approx(1e-4, rel=1e-12)

    def test_vector_opening(self, unit_wave):
        opening = Vec3(3e-5, -4e-5, 0)
        config = build_config("Fig3cIndependent", unit_wave, MotionField(), opening_m=opening)
        assert config.kind is ConfigKind.OPEN_LOOP
        assert translation_opening(config) == opening

    def test_independent_and_extracted_share_geometry(self, unit_wave):
        motion = MotionField(translation=Vec3(2e-5, 3e-5, 0))
        kw = dict(opening_m=Vec3(0, 5e-5, 0), arm_length_m=0.02)
        independent = build_config("Fig3cIndependent", unit_wave, motion, **kw)
        extracted = build_config("Fig3dExtracted", unit_wave, motion, **kw)
        assert independent.path_I == extracted.path_I
        assert independent.path_II == extracted.path_II
        assert (
            two_path_difference(independent).total_phase_rad
            == two_path_difference(extracted).total_phase_rad
        )
        assert independent.kind is extracted.kind is ConfigKind.OPEN_LOOP

    def test_arm_length_cancels(self, unit_wave):
        velocity = Vec3(0, 1e-4, 0)
        motion = MotionField(translation=velocity)
        opening = Vec3(0, 1e-4, 0)
        phases = [
            two_path_difference(
                build_config("Fig3bOpen", unit_wave, motion, opening_m=opening, arm_length_m=arm)
            ).total_phase_rad
            for arm in (0.001, 0.01, 0.1, 1.0)
        ]
        expected = open_loop_phase(unit_wave, opening, velocity)
        for phase in phases:
            assert phase == pytest.approx(expected, rel=1e-9)

    def test_collinear_zero_area_open_config_still_shifts(self, unit_wave):
        # Opening parallel to the arms: everything lies on one line, the
        # enclosed area is zero, yet the translational phase survives.
        opening = Vec3(1e-4, 0, 0)
        velocity = Vec3(1e-4, 0, 0)
        config = build_config(
            "Fig3bOpen", unit_wave, MotionField(translation=velocity), opening_m=opening
        )
        assert all(y == 0.0 and z == 0.0 for _, y, z in config.path_I.vertices)
        assert all(y == 0.0 and z == 0.0 for _, y, z in config.path_II.vertices)
        phase = two_path_difference(config).total_phase_rad
        assert phase == pytest.approx(TWO_PI, rel=1e-9)

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("Fig2Rotation", {}),
            ("Fig2Rotation", dict(side_m=-0.1)),
            ("Fig2Rotation", dict(side_m=0.1, width_m=0.2)),
            ("Fig3bOpen", {}),
            ("Fig3bOpen", dict(opening_m=0.0)),
            ("Fig3bOpen", dict(opening_m=1e-4, arm_length_m=0.0)),
            ("Fig3bOpen", dict(opening_m=-1e-4)),
        ],
    )
    def test_bad_dimensions_rejected(self, unit_wave, kind, kwargs):
        with pytest.raises(GeometryError):
            build_config(kind, unit_wave, MotionField(), **kwargs)

    @pytest.mark.parametrize(
        "kind,kwargs,message",
        [
            ("Fig2Rotation", dict(side_m="0.1"), "side_m must be a number, got '0.1'"),
            ("Fig3aClosed", dict(width_m=True, height_m=1.0), "width_m must be a number, got True"),
            ("Fig3aClosed", dict(width_m=1.0, height_m=10**400), "height_m is beyond the float"),
            ("Fig3bOpen", dict(opening_m="0.1"), "opening_m must be a number, got '0.1'"),
            ("Fig3bOpen", dict(opening_m=1e-4, arm_length_m=None), "arm_length_m must be a number"),
            ("Fig3bOpen", dict(opening_m=math.inf), "opening_m must be finite, got inf"),
            (["Fig2Rotation"], dict(side_m=0.1), r"unknown layout \['Fig2Rotation'\]"),
        ],
        ids=["side", "width", "height", "opening", "arm-length", "infinite-opening", "list-kind"],
    )
    def test_lengths_go_through_the_number_rule(self, unit_wave, kind, kwargs, message):
        with pytest.raises(GeometryError, match=f"^{message}"):
            build_config(kind, unit_wave, MotionField(), **kwargs)

    def test_zero_opening_vector_rejected(self, unit_wave):
        with pytest.raises(GeometryError, match="^opening must be nonzero$"):
            build_config("Fig3bOpen", unit_wave, MotionField(), opening_m=Vec3(0.0, -0.0, 0.0))

    def test_unknown_kind_rejected(self, unit_wave):
        with pytest.raises(GeometryError, match=r"^unknown layout 'Fig9' \(known: Fig2Rotation, "):
            build_config("Fig9", unit_wave, MotionField(), side_m=0.1)


class TestFringeReading:
    def test_constructive(self):
        reading = fringe_reading(0.0)
        assert reading.normalized_intensity == 1.0
        assert reading.fringe_count == 0.0

    def test_destructive(self):
        assert fringe_reading(math.pi).normalized_intensity == 0.0

    def test_full_fringe(self):
        reading = fringe_reading(TWO_PI)
        assert reading.normalized_intensity == pytest.approx(1.0, abs=1e-15)
        assert reading.fringe_count == pytest.approx(1.0, rel=1e-15)

    def test_intensity_stays_normalized(self):
        for k in range(100):
            reading = fringe_reading(0.37 * k - 12.0)
            assert -1e-12 <= reading.normalized_intensity <= 1.0 + 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            fringe_reading(float("nan"))

    @pytest.mark.parametrize(
        "phase,message",
        [("a", "phase must be a number, got 'a'"), (None, "phase must be a number, got None")],
    )
    def test_non_numbers_rejected(self, phase, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            fringe_reading(phase)


def open_template(unit_wave, speed=1e-4):
    return build_config(
        "Fig3bOpen",
        unit_wave,
        MotionField(translation=Vec3(0, speed, 0)),
        opening_m=Vec3(0, 1e-4, 0),
        arm_length_m=0.01,
    )


class TestSensitivitySweep:
    def test_full_fringe_speed(self, unit_wave):
        sweep = sensitivity_sweep(open_template(unit_wave), 0.0, 2e-4, 21)
        assert sweep.v_full_fringe_mps == pytest.approx(1e-4, rel=1e-12)
        assert sweep.cos_theta == pytest.approx(1.0, rel=1e-12)
        lo, hi = sweep.bracket
        assert lo <= sweep.v_full_fringe_mps <= hi

    def test_zero_speed_row_has_zero_phase(self, unit_wave):
        sweep = sensitivity_sweep(open_template(unit_wave), 0.0, 1e-4, 5)
        assert sweep.rows[0].V_mps == 0.0
        assert sweep.rows[0].phase_rad == 0.0

    def test_doubling_opening_halves_full_fringe_speed(self, unit_wave):
        def make(d):
            return build_config(
                "Fig3bOpen",
                unit_wave,
                MotionField(translation=Vec3(0, 1e-4, 0)),
                opening_m=Vec3(0, d, 0),
            )

        v1 = sensitivity_sweep(make(1e-4), 0.0, 1e-3, 11).v_full_fringe_mps
        v2 = sensitivity_sweep(make(2e-4), 0.0, 1e-3, 11).v_full_fringe_mps
        assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)

    def test_rows_are_exactly_linear(self, unit_wave):
        sweep = sensitivity_sweep(open_template(unit_wave), 0.0, 5e-4, 17)
        opening = translation_opening(open_template(unit_wave))
        slope = (TWO_PI / unit_wave.v_lambda) * opening.norm() * sweep.cos_theta
        previous = -1.0
        for row in sweep.rows:
            assert row.V_mps > previous
            previous = row.V_mps
            assert row.phase_rad == pytest.approx(slope * row.V_mps, rel=1e-9, abs=1e-300)
            assert row.fringe_count == pytest.approx(row.phase_rad / TWO_PI, rel=1e-15)

    def test_perpendicular_sweep_has_no_full_fringe_speed(self, unit_wave):
        config = build_config(
            "Fig3bOpen",
            unit_wave,
            MotionField(translation=Vec3(1e-4, 0, 0)),  # along the arms
            opening_m=Vec3(0, 1e-4, 0),                 # perpendicular opening
        )
        sweep = sensitivity_sweep(config, 0.0, 1e-3, 7)
        assert sweep.v_full_fringe_mps is None
        assert all(row.phase_rad == 0.0 for row in sweep.rows)
        assert len(sweep.rows) == 7

    def test_direction_defaults_to_opening(self, unit_wave):
        config = build_config(
            "Fig3bOpen", unit_wave, MotionField(), opening_m=Vec3(0, 1e-4, 0)
        )
        sweep = sensitivity_sweep(config, 0.0, 2e-4, 5)
        assert sweep.cos_theta == pytest.approx(1.0, rel=1e-12)

    def test_bad_grid_rejected(self, unit_wave):
        config = open_template(unit_wave)
        with pytest.raises(GeometryError):
            sensitivity_sweep(config, -1.0, 1.0, 5)
        with pytest.raises(GeometryError):
            sensitivity_sweep(config, 1.0, 1.0, 5)
        with pytest.raises(GeometryError):
            sensitivity_sweep(config, 0.0, 1.0, 1)

    def test_closed_config_rejected(self, unit_wave):
        config = build_config("Fig3aClosed", unit_wave, MotionField(), side_m=0.1)
        with pytest.raises(GeometryError):
            sensitivity_sweep(config, 0.0, 1.0, 5)


class TestVerifySuite:
    def test_default_seed_passes(self):
        report = verify_suite(0)
        assert report.passed
        null_check = next(c for c in report.checks if c.name == "translational-null")
        assert null_check.max_violation <= 1e-9

    def test_deterministic_by_seed(self):
        first = verify_suite(7)
        second = verify_suite(7)
        assert first == second

    def test_different_seeds_differ(self):
        assert verify_suite(1) != verify_suite(2)

    def test_reports_every_expected_property(self):
        names = {c.name for c in verify_suite(0).checks}
        assert names == {
            "translational-null",
            "sagnac-loop-vs-area",
            "curl-doubles-rotation",
            "pivot-invariance-closed",
            "reversal-antisymmetry",
            "split-additivity",
            "motion-linearity",
            "rest-moving-increment-chain",
            "arm-length-invariance",
            "zero-motion-zero-phase",
        }

    def test_sample_counts_recorded(self):
        report = verify_suite(0)
        for check in report.checks:
            assert check.samples >= 20
            assert check.passed
            assert check.worst_case is None
