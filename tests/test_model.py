"""Domain types: construction, invariants, and rejection of bad inputs."""

import math
import operator
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from matterwave import (
    H_PLANCK,
    HBAR,
    PARTICLE_MASSES_KG,
    BeamPath,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    Vec3,
    WaveError,
    make_particle_wave,
    translation_opening,
)
from matterwave.model import _cross, _dot, _scaled, _unit, exact_sum

from triples import field_sum

NEUTRON = PARTICLE_MASSES_KG["neutron"]

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestConstants:
    def test_hbar_is_h_over_two_pi(self):
        assert HBAR == H_PLANCK / (2.0 * math.pi)

    def test_exact_si_values(self):
        assert H_PLANCK == 6.62607015e-34


class TestVec3:
    def test_arithmetic(self):
        # A Vec3 is a record at the public boundary: it offers dot, norm and
        # unit, and the package's vector arithmetic runs on float triples.
        a = Vec3(1.0, 2.0, 3.0)
        b = Vec3(-1.0, 0.5, 2.0)
        assert a.dot(b) == 1.0 * -1.0 + 2.0 * 0.5 + 3.0 * 2.0
        assert a.unit() == Vec3(*_unit(a.as_tuple()))
        for name in ("__add__", "__sub__", "__mul__", "__rmul__", "cross"):
            assert not hasattr(Vec3, name), name
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            2.0 * a

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(GeometryError):
            Vec3(0.0, bad, 0.0)

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("a", "y must be a number, got 'a'"),
            (None, "y must be a number, got None"),
            (True, "y must be a number, got True"),
            (10**400, "y is beyond the float range"),
        ],
        ids=["string", "none", "bool", "huge-int"],
    )
    def test_non_numbers_refused_by_the_number_rule(self, bad, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            Vec3(0.0, bad, 0.0)

    def test_ints_become_floats(self):
        v = Vec3(1, -2, 3)
        assert v.as_tuple() == (1.0, -2.0, 3.0) and {type(c) for c in v.as_tuple()} == {float}

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_norm_of_extreme_components(self, scale):
        # Squares of these components overflow to inf or underflow to 0.
        assert Vec3(scale, scale, 0.0).norm() == pytest.approx(math.sqrt(2.0) * scale, rel=1e-15)
        assert Vec3(0.0, 0.0, -scale).norm() == scale

    def test_unit_of_zero_vector_fails(self):
        with pytest.raises(GeometryError):
            Vec3(0.0, 0.0, 0.0).unit()


class TestTripleArithmetic:
    def test_dot_and_scaled(self):
        a, b = (1.0, 2.0, 3.0), (-1.0, 0.5, 2.0)
        assert _dot(a, b) == 1.0 * -1.0 + 2.0 * 0.5 + 3.0 * 2.0
        assert _scaled(a, 2.0) == (2.0, 4.0, 6.0)

    def test_cross_right_handed(self):
        assert _cross((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == (0.0, 0.0, 1.0)

    # |v| overflows, or is subnormal. Subnormal components keep only a few
    # digits (3e-321 is stored as 607 * 2**-1074), so 0.6 and 0.8 hold to 2e-3.
    @pytest.mark.parametrize(
        "v, expected, rel",
        [
            ((1.5e308, 1.5e308, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0), 1e-15),
            ((-1.7e308, 0.0, 1.7e308), (-math.sqrt(0.5), 0.0, math.sqrt(0.5)), 1e-15),
            ((3e-321, 4e-321, 0.0), (0.6, 0.8, 0.0), 2e-3),
            ((0.0, -5e-324, 0.0), (0.0, -1.0, 0.0), 1e-15),
        ],
    )
    def test_unit_of_extreme_vectors(self, v, expected, rel):
        u = _unit(v)
        assert math.hypot(*u) == pytest.approx(1.0, rel=1e-15)
        assert u == pytest.approx(expected, rel=rel, abs=0.0)

    def test_unit_keeps_normal_range_floats_as_a_plain_division(self, rng):
        for _ in range(200):
            v = tuple(rng.uniform(-1e3, 1e3) for _ in range(3))
            n = math.hypot(*v)
            assert _unit(v) == (v[0] / n, v[1] / n, v[2] / n)


class TestParticleWave:
    def test_neutron_wavelength_from_mass(self):
        # Independent oracle: one-line arithmetic with CODATA-2018 neutron
        # mass and the exact SI Planck constant.
        wave = make_particle_wave(2200.0, mass=NEUTRON)
        expected = 6.62607015e-34 / (1.67492749804e-27 * 2200.0)
        assert wave.wavelength_lambda == pytest.approx(expected, rel=1e-15)
        assert wave.wavelength_lambda == pytest.approx(1.798e-10, rel=1e-3)

    def test_slow_atom_v_lambda(self):
        wave = make_particle_wave(1.0, wavelength=1e-8)
        assert wave.v_lambda == 1e-8
        assert wave.mass is None

    def test_unit_mass_unit_speed_gives_planck(self):
        wave = make_particle_wave(1.0, mass=1.0, wavelength=H_PLANCK)
        assert wave.v_lambda == H_PLANCK

    def test_v_lambda_is_exact_product(self):
        wave = make_particle_wave(3.0, wavelength=2e-9)
        assert wave.v_lambda == 3.0 * 2e-9

    def test_mass_times_v_lambda_is_h(self):
        for name, mass in PARTICLE_MASSES_KG.items():
            wave = make_particle_wave(137.0, mass=mass)
            assert wave.v_lambda * mass == pytest.approx(H_PLANCK, rel=1e-12), name

    def test_consistent_pair_accepted_and_canonicalized(self):
        lam = H_PLANCK / (NEUTRON * 2200.0)
        wave = make_particle_wave(2200.0, mass=NEUTRON, wavelength=lam * (1 + 1e-10))
        assert wave.wavelength_lambda == pytest.approx(lam, rel=1e-15)

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(WaveError):
            make_particle_wave(2200.0, mass=NEUTRON, wavelength=2e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(speed=0.0, wavelength=1e-8),
            dict(speed=-1.0, wavelength=1e-8),
            dict(speed=1.0, wavelength=-1e-8),
            dict(speed=1.0, mass=-1.0),
            dict(speed=1.0),
            dict(speed=float("nan"), wavelength=1e-8),
            dict(speed=1.0, wavelength=float("inf")),
            dict(speed=1.0, mass=float("nan")),
        ],
    )
    def test_bad_inputs_rejected(self, kwargs):
        speed = kwargs.pop("speed")
        with pytest.raises(WaveError):
            make_particle_wave(speed, **kwargs)

    @given(
        speed=st.floats(min_value=1e-3, max_value=1e6),
        mass=st.floats(min_value=1e-30, max_value=1.0),
    )
    def test_de_broglie_consistency_property(self, speed, mass):
        wave = make_particle_wave(speed, mass=mass)
        assert abs(wave.v_lambda * mass - H_PLANCK) / H_PLANCK <= 1e-12

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: ParticleWave("1", 1.0), "speed_v must be a number, got '1'"),
            (lambda: ParticleWave(1.0, None), "wavelength_lambda must be a number, got None"),
            (lambda: ParticleWave(1.0, 1.0, True), "mass must be a number, got True"),
            (lambda: make_particle_wave("1", wavelength=1.0), "speed_v must be a number, got '1'"),
            (lambda: make_particle_wave("1", mass=2), "speed_v must be a number, got '1'"),
            (lambda: make_particle_wave(1.0, mass="2"), "mass must be a number, got '2'"),
            (lambda: make_particle_wave(10**400, mass=1.0), "speed_v is beyond the float range"),
        ],
        ids=["speed", "wavelength", "bool-mass", "make-speed", "make-speed-with-mass", "make-mass",
             "huge-int-speed"],
    )
    def test_non_numbers_refused_as_wave_errors(self, build, message):
        # make_particle_wave checks speed and mass before it multiplies them:
        # "1" * 2 would be the string "11".
        with pytest.raises(WaveError, match=f"^{message}$"):
            build()

    def test_direct_construction_enforces_de_broglie(self):
        with pytest.raises(WaveError):
            ParticleWave(speed_v=2200.0, wavelength_lambda=1e-10, mass=NEUTRON)

    @pytest.mark.parametrize(
        "speed,kwargs",
        [
            (1e-300, dict(wavelength=1e-300)),  # v_lambda underflows to zero
            (1e-160, dict(wavelength=1e-160)),  # v_lambda is subnormal
            (1e200, dict(wavelength=1e200)),  # v_lambda overflows
            (1e-200, dict(mass=1e-200)),  # m*v underflows to zero
            (1e-200, dict(mass=1e-200, wavelength=1.0)),
            (0.0, dict(mass=NEUTRON)),  # m*v is zero
        ],
    )
    def test_v_lambda_outside_normal_floats_rejected(self, speed, kwargs):
        with pytest.raises(WaveError):
            make_particle_wave(speed, **kwargs)

    def test_smallest_normal_v_lambda_accepted(self):
        wave = make_particle_wave(1.0, wavelength=sys.float_info.min)
        assert wave.v_lambda == sys.float_info.min


class TestBeamPath:
    def test_segments_and_endpoints(self):
        path = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)))
        assert len(path.vertices) == 3
        assert path.vertices[0] == (0.0, 0.0, 0.0)
        assert path.vertices[-1] == (1.0, 1.0, 0.0)
        assert not path.closed()
        assert not hasattr(path, "start") and not hasattr(path, "end")

    def test_closed_within_tolerance(self):
        path = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1e-13, 0)))
        assert path.closed()

    def test_too_few_vertices(self):
        with pytest.raises(GeometryError):
            BeamPath((Vec3(0, 0, 0),))

    def test_repeated_vertex_rejected(self):
        with pytest.raises(GeometryError):
            BeamPath((Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(1, 0, 0)))

    def test_reversed(self):
        path = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)))
        assert path.reversed().vertices == tuple(reversed(path.vertices))

    @pytest.mark.parametrize(
        "points",
        [
            [[math.inf, 0, 0], [1, 0, 0]],
            [[0, 0, 0], [1, math.nan, 0], [1, 1, 0]],
            [[0, 0, 0], [1, 0, 0], [1, 1, -math.inf]],
            [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            [[1e308, 0, 0], [-1e308, 0, 0]],
            [[0, 0, 0], [1, 0]],
        ],
        ids=["inf-first", "nan-middle", "inf-last", "coincident", "gap-overflow", "two-components"],
    )
    def test_bad_vertices_rejected(self, points):
        with pytest.raises(GeometryError):
            BeamPath.from_points(points)
        with pytest.raises(GeometryError):
            BeamPath(tuple(tuple(p) for p in points))

    def test_overflowing_gap_between_vec3_vertices_rejected(self):
        with pytest.raises(GeometryError, match="overflows the float range"):
            BeamPath((Vec3(1e308, 0, 0), Vec3(-1e308, 0, 0)))

    def test_vertices_are_float_triples_from_lists_or_vec3(self):
        from_lists = BeamPath.from_points([[0, 0, 0], [1, 2, 3], [0.5, -1, 2]])
        from_vec3 = BeamPath.from_points([Vec3(0, 0, 0), Vec3(1, 2, 3), Vec3(0.5, -1, 2)])
        assert from_lists == from_vec3
        assert from_lists.vertices == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0), (0.5, -1.0, 2.0))
        assert all(type(c) is float for v in from_lists.vertices for c in v)
        from_triples = BeamPath(tuple(map(tuple, from_lists.vertices)))
        assert from_triples == from_lists

    @pytest.mark.parametrize(
        "points,message",
        [
            ([["1", "2", "3"], [1, 2, 4]], "vertex 0: x must be a number, got '1'"),
            ([[0, 0, 0], [1, True, 0]], "vertex 1: y must be a number, got True"),
            ([[0, 0, 0], [1, 2, None]], "vertex 1: z must be a number, got None"),
            ([[0, 0, 0], [1, 2, 3], [10**400, 0, 0]], "vertex 2: x is beyond the float range"),
            ([[0, 0, 0], [1, 0]], "vertex 1: expected 3 components, got 2"),
            ([[0, 0, 0], 1.5], "vertex 1: expected 3 components, got 1.5"),
        ],
        ids=["strings", "bool", "none", "huge-int", "two-components", "not-a-sequence"],
    )
    def test_non_numbers_refused_naming_the_vertex(self, points, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            BeamPath.from_points(points)

    @pytest.mark.parametrize(
        "vertices,message",
        [
            (None, "expected a sequence of vertices, got None"),
            (1.5, "expected a sequence of vertices, got 1.5"),
            ([(0, 0, 0), "abc"], "vertex 1: expected 3 components, got 'abc'"),
            ([(0, 0, 0), {"x": 1, "y": 2, "z": 3}], r"vertex 1: expected 3 components, got \{.*\}"),
            ("abc", "vertex 0: expected 3 components, got 'a'"),
        ],
        ids=["none", "number", "string-vertex", "mapping-vertex", "string-path"],
    )
    def test_what_is_not_a_path_of_vertices_refused(self, vertices, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            BeamPath(vertices)

    @pytest.mark.parametrize(
        "vertices",
        [
            [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]],
            ((0.0, 0.0, 0.0), [1.0, 2.0, 3.0]),
            [(0.0, 0.0, 0.0), Vec3(1.0, 2.0, 3.0)],
            iter([(0, 0, 0), (1, 2, 3)]),
        ],
        ids=["lists", "tuple-and-list", "with-a-vec3", "iterator-of-ints"],
    )
    def test_every_route_stores_a_tuple_of_float_triples(self, vertices):
        path = BeamPath(vertices)
        assert path.vertices == ((0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        assert type(path.vertices) is tuple and {type(v) for v in path.vertices} == {tuple}
        assert {type(c) for v in path.vertices for c in v} == {float}

    def test_numpy_scalars_accepted(self):
        np = pytest.importorskip("numpy")
        path = BeamPath.from_points([[np.float32(0.5), np.int64(2), np.float64(3)], [0, 0, 0]])
        assert path.vertices == ((0.5, 2.0, 3.0), (0.0, 0.0, 0.0))
        assert all(type(c) is float for v in path.vertices for c in v)


def per_axis_refusal(points) -> str | None:
    """The vertex checks as a walk over every axis: the message of the first
    refusal, or None. Written out here to pin BeamPath's faster route to it."""
    for name, axis in zip("xyz", zip(*points)):
        for i, c in enumerate(axis):
            if not math.isfinite(c):
                return f"vertex {i}: {name} must be finite, got {c!r}"
        for i, (a, b) in enumerate(zip(axis, axis[1:])):
            if not math.isfinite(b - a):
                return f"{name} gap from vertex {i} to {i + 1} overflows the float range"
    for i, (a, b) in enumerate(zip(points, points[1:])):
        if a == b:
            return f"consecutive vertices {i} and {i + 1} coincide"
    return None


# Coordinates whose sums and gaps overflow, and repeats that make vertices coincide.
edge_coordinates = st.sampled_from(
    [0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 1.7976931348623157e308, 8e307, math.inf, -math.inf, math.nan]
)


class TestVertexChecks:
    @given(st.lists(st.tuples(edge_coordinates, edge_coordinates, edge_coordinates), min_size=2, max_size=6))
    def test_refusal_is_the_per_axis_walks(self, points):
        points = tuple(points)
        try:
            BeamPath(points)
            message = None
        except GeometryError as exc:
            message = str(exc)
        assert message == per_axis_refusal(points)

    def test_join_refusal_numbers_vertices_in_the_whole_path(self):
        head = BeamPath(((0.0, 0.0, 0.0), (1e308, 0.0, 0.0)))
        tail = BeamPath(((5.0, 0.0, 0.0), (-1e308, 0.0, 0.0), (0.0, 1.0, 0.0)))
        message = "x gap from vertex 1 to 2 overflows the float range"
        with pytest.raises(GeometryError, match=f"^{message}$"):
            head.joined(tail)
        assert per_axis_refusal(head.vertices + tail.vertices[1:]) == message

    def test_joined_path_skips_the_tails_first_vertex(self):
        head = BeamPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0)))
        tail = BeamPath(((1.0, 1e-13, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0)))
        assert head.joined(tail).vertices == ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 0.0))

    def test_reversed_path_is_a_beam_path(self):
        path = BeamPath(((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)))
        back = path.reversed()
        assert isinstance(back, BeamPath) and back.reversed() == path


class TestMotionField:
    def test_sum_preserves_velocity_field(self, rng):
        # Pins the linearity checks' summed field to the sum of the velocities.
        f1 = MotionField(Vec3(0.1, -0.2, 0.3), Vec3(0.5, 0.0, 1.0), Vec3(1.0, 2.0, -1.0))
        f2 = MotionField(Vec3(-0.4, 0.0, 0.1), Vec3(0.0, -0.3, 0.2), Vec3(0.0, 1.0, 0.5))
        from matterwave.model import _velocity

        total = field_sum(f1, f2)
        for _ in range(20):
            r = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = map(operator.add, _velocity(f1, r), _velocity(f2, r))
            combined = _velocity(total, r)
            assert math.dist(combined, tuple(direct)) < 1e-14

    def test_no_field_arithmetic(self):
        # Rigid fields are summed and scaled from their triples where a check needs it.
        assert not hasattr(MotionField, "__add__") and not hasattr(MotionField, "scaled")

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"translation": (1e-4, 0, 0)}, r"translation must be a Vec3, got \(0.0001, 0, 0\)"),
            ({"omega": None}, "omega must be a Vec3, got None"),
            ({"pivot": [0.0, 0.0, 0.0]}, r"pivot must be a Vec3, got \[0.0, 0.0, 0.0\]"),
        ],
        ids=["tuple", "none", "list"],
    )
    def test_a_field_that_is_not_a_vec3_refused_at_construction(self, fields, message):
        with pytest.raises(GeometryError, match=f"^{message}$"):
            MotionField(**fields)


def _square_paths():
    a, b, c, d = Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0)
    return BeamPath((a, d, c)), BeamPath((a, b, c))


class TestInterferometerConfig:
    def test_closed_loop_valid(self, unit_wave):
        path_i, path_ii = _square_paths()
        config = InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)
        assert config.kind is ConfigKind.CLOSED_LOOP

    def test_closed_loop_rejects_separated_starts(self, unit_wave):
        path_i = BeamPath((Vec3(0, 1e-6, 0), Vec3(1, 1, 0)))
        path_ii = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)))
        with pytest.raises(GeometryError):
            InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)

    def test_open_loop_requires_opening(self, unit_wave):
        path_i, path_ii = _square_paths()
        with pytest.raises(GeometryError):
            InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.OPEN_LOOP)

    def test_endpoint_mismatch_rejected(self, unit_wave):
        path_i = BeamPath((Vec3(0, 0, 0), Vec3(1, 1, 0)))
        path_ii = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0)))
        with pytest.raises(GeometryError):
            InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)

    @pytest.mark.parametrize("ulps, refused", [(1, False), (3, False), (5, True)])
    def test_endpoint_tolerance_scales_with_the_coordinates(self, unit_wave, ulps, refused):
        # A 1 mm loop 6.4e6 m out whose beams end some ulps of 6.4e6 (9.3e-10 m)
        # apart: the tolerance is 4 ulps there, where 1e-12 m is below one.
        x = 6.4e6
        far_x = x + ulps * math.ulp(x)
        path_i = BeamPath(((x, 0.0, 0.0), (x, 1e-3, 0.0), (x, 1e-3, 1e-3)))
        path_ii = BeamPath(((x, 0.0, 0.0), (x, 0.0, 1e-3), (far_x, 1e-3, 1e-3)))
        loop = BeamPath(path_i.vertices + ((far_x, 0.0, 0.0),))
        assert loop.closed() is not refused
        if refused:
            gap = f"gap is {ulps * math.ulp(x):.3e} m"
            with pytest.raises(GeometryError, match=f"^beam paths must share their endpoint, {gap}$"):
                InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)
        else:
            InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)

    def test_endpoint_check_symmetric_in_path_order(self, unit_wave):
        path_i, path_ii = _square_paths()
        first = InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)
        swapped = InterferometerConfig(path_ii, path_i, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)
        assert first.kind is swapped.kind

    def test_opening_beyond_the_float_range_refused(self, unit_wave):
        path_i = BeamPath(((1.7e308, 0.0, 0.0), (0.0, 0.0, 0.0)))
        path_ii = BeamPath(((-1.7e308, 0.0, 0.0), (0.0, 0.0, 0.0)))
        message = "^the opening between the beam starts overflows the float range$"
        with pytest.raises(GeometryError, match=message):
            InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.OPEN_LOOP)

    def test_opening_whose_length_alone_overflows_accepted(self, unit_wave):
        path_i = BeamPath(((1.5e308, 1.5e308, 0.0), (0.0, 0.0, 0.0)))
        path_ii = BeamPath(((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)))
        config = InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.OPEN_LOOP)
        assert translation_opening(config) == Vec3(1.5e308, 1.5e308, -1.0)

    @pytest.mark.parametrize(
        "replaced,message",
        [
            ({0: None, 1: None}, "path_I must be a BeamPath, got None"),
            ({2: None}, "wave must be a ParticleWave, got None"),
            ({3: (0, 0, 0)}, r"motion must be a MotionField, got \(0, 0, 0\)"),
            ({4: "ClosedLoop"}, "kind must be a ConfigKind or None, got 'ClosedLoop'"),
        ],
        ids=["paths", "wave", "motion", "kind"],
    )
    def test_fields_of_the_wrong_class_refused(self, unit_wave, replaced, message):
        args = [*_square_paths(), unit_wave, MotionField(), ConfigKind.CLOSED_LOOP]
        for index, value in replaced.items():
            args[index] = value
        with pytest.raises(GeometryError, match=f"^{message}$"):
            InterferometerConfig(*args)

    def test_kind_left_out_is_decided_by_the_starts(self, unit_wave):
        path_i, path_ii = _square_paths()
        closed = InterferometerConfig(path_i, path_ii, unit_wave, MotionField())
        shifted = BeamPath(((0.0, 1e-4, 0.0),) + path_i.vertices[1:])
        opened = InterferometerConfig(shifted, path_ii, unit_wave, MotionField())
        assert (closed.kind, opened.kind) == (ConfigKind.CLOSED_LOOP, ConfigKind.OPEN_LOOP)


class TestExactSum:
    @pytest.mark.parametrize(
        "terms", [[1e308, 1e308, -1e308], [1e308, -1e308, 1e308], [-1e308, 1e308, 1e308]]
    )
    def test_a_finite_total_is_answered_whatever_the_order(self, terms):
        assert exact_sum(terms, "phase") == 1e308

    def test_cancelling_near_the_float_range_stays_exact(self):
        max_ = sys.float_info.max
        assert exact_sum([max_, max_, 1.0, -max_, -max_], "phase") == 1.0
        assert exact_sum([max_, max_, -max_, 0.5 * max_, -max_], "phase") == 0.5 * max_

    @pytest.mark.parametrize(
        "terms", [[1e308, 1e308], [1e308, 1e308, 1e308, -1e308], [math.inf, 1.0], [math.nan]]
    )
    def test_a_total_beyond_the_float_range_refused(self, terms):
        with pytest.raises(GeometryError, match="^phase overflows the float range$"):
            exact_sum(terms, "phase")

    def test_an_overflowing_partial_sum_before_inf_minus_inf_refused(self):
        # The sum scaled down meets inf - inf: a refusal, not a ValueError.
        with pytest.raises(GeometryError, match="^phase overflows the float range$"):
            exact_sum([1e308, 1e308, math.inf, -math.inf], "phase")


class TestOpeningVector:
    """The opening D = start_I - start_II that multiplies V in the phase law."""

    def _open_config(self, unit_wave, start_ii):
        end = Vec3(1.0, 0.5, 0.0)
        path_i = BeamPath((Vec3(0, 0, 0), end))
        path_ii = BeamPath((start_ii, end))
        return InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.OPEN_LOOP)

    def test_definition(self, unit_wave):
        config = self._open_config(unit_wave, Vec3(1e-4, 0, 0))
        assert translation_opening(config) == Vec3(-1e-4, 0.0, 0.0)

    def test_other_direction(self, unit_wave):
        config = self._open_config(unit_wave, Vec3(0, 1e-4, 0))
        assert translation_opening(config) == Vec3(0.0, -1e-4, 0.0)
        assert translation_opening(config).norm() == 1e-4

    def test_closed_loop_has_no_opening(self, unit_wave):
        path_i, path_ii = _square_paths()
        config = InterferometerConfig(path_i, path_ii, unit_wave, MotionField(), ConfigKind.CLOSED_LOOP)
        with pytest.raises(GeometryError):
            translation_opening(config)

    def test_identical_starts_rejected_for_open_kind(self, unit_wave):
        with pytest.raises(GeometryError):
            self._open_config(unit_wave, Vec3(0.0, 0.0, 0.0))
