"""Stated precision bounds, checked against the exact rational oracle (tests/exact.py).

The kernel (``two_path_difference``, ``path_phase``) is held to its bound at
offsets up to 1e7 m from the origin and sides down to 1e-6 m. The oracles
(``circulation``, ``enclosed_area_vector``) are held to theirs, scaled by
the loop's own size, near the origin and at offsets up to 1e7 m with sides
down to 1e-4 m.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import exact
from matterwave import (
    BeamPath,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MotionField,
    Vec3,
    circulation,
    enclosed_area_vector,
    interference_loop,
    make_particle_wave,
    path_phase,
    two_path_difference,
)

# Particle speed far above every apparatus speed drawn below, inside the
# boost domain: |T| + |omega| * |r - pivot| stays under 2e3 + 2 * 4e7 m/s.
WAVE = make_particle_wave(1e9, wavelength=1e-12)
EARTH_RATE = (0.0, 0.0, 7.2921e-5)

unit = st.floats(-1.0, 1.0)
units = st.tuples(unit, unit, unit)
# Zero, or a magnitude far from the subnormal range, where rounding is relative.
rates = st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.floats(-1.0, -1e-6))
speeds = st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))
far = st.floats(-1e7, 1e7)


def fields(pivots):
    return st.builds(
        MotionField,
        translation=st.tuples(speeds, speeds, speeds).map(lambda v: Vec3(*v)),
        omega=st.tuples(rates, rates, rates).map(lambda v: Vec3(*v)),
        pivot=pivots.map(lambda v: Vec3(*v)),
    )


@st.composite
def layouts(draw, centers, sides):
    """(path_I, path_II, closed): corners of a polygon about a centre, split into two beams.

    Beam I runs v_0 .. v_k; beam II runs from v_0 (closed) or from one more
    corner (open) through v_(n-1) .. v_k, so the beams share their end, and
    in a closed layout their start, bit for bit.
    """
    center, side = draw(centers), draw(sides)
    n = draw(st.integers(3, 6))
    corners = [tuple(c + side * u for c, u in zip(center, draw(units))) for _ in range(n + 1)]
    split = draw(st.integers(1, n - 1))
    closed = draw(st.booleans())
    start_ii = corners[0] if closed else corners[n]
    return corners[: split + 1], [start_ii] + corners[split:n][::-1], closed


def config_of(path_i, path_ii, closed, field):
    kind = ConfigKind.CLOSED_LOOP if closed else ConfigKind.OPEN_LOOP
    try:
        return InterferometerConfig(BeamPath(path_i), BeamPath(path_ii), WAVE, field, kind)
    except GeometryError:  # rounding far out made two neighbours or both starts coincide
        assume(False)


# A square of side 1e-4 m 6.4e6 m from the pivot, turning at the Earth rate:
# the setting of the neutron Sagnac measurement.
EARTH_SQUARE = (
    [(6.4e6, 0.0, 0.0), (6.4e6, 1e-4, 0.0), (6.4e6, 1e-4, 1e-4)],
    [(6.4e6, 0.0, 0.0), (6.4e6, 0.0, 1e-4), (6.4e6, 1e-4, 1e-4)],
    True,
)


class TestKernelBound:
    @settings(max_examples=200)
    @example(EARTH_SQUARE, MotionField(omega=Vec3(*EARTH_RATE)))
    @given(
        layouts(st.tuples(far, far, far), st.floats(1e-6, 1e2)),
        fields(st.tuples(far, far, far)),
    )
    def test_phases_far_from_the_origin_within_the_bound(self, layout, field):
        path_i, path_ii, closed = layout
        config = config_of(path_i, path_ii, closed, field)
        got = two_path_difference(config).total_phase_rad
        bound = exact.two_path_bound(config)
        assert abs(got - exact.two_path_difference(config)) <= bound
        single = path_phase(WAVE, config.path_I, field).total_phase_rad
        bound = exact.path_bound(WAVE, field, config.path_I)
        assert abs(single - exact.path_phase(WAVE, config.path_I, field)) <= bound

    @pytest.mark.parametrize("side", [2.0 ** -7, 2.0 ** -13])  # about 1e-2 m and 1.2e-4 m
    def test_offset_invariance(self, side):
        # Corners with few bits: at each offset below 2^24 m the stored loop is
        # the same shape exactly, so its exact phase is the same.
        shape_i = [(0.0, 0.0, 0.0), (0.0, 1.0, 0.25), (1.0, 1.0, 0.0)]
        shape_ii = [(0.0, 0.0, 0.0), (1.5, -0.5, 0.0), (1.0, 1.0, 0.0)]
        offsets = [(0.0, 0.0, 0.0), (600.0, 800.0, 0.0), (3.84e6, 0.0, 5.12e6), (6e6, -8e6, 0.0)]
        field = MotionField(translation=Vec3(0.3, -0.2, 0.1), omega=Vec3(1e-5, 0.0, 7.2921e-5))
        phases, bounds, exacts = [], [], []
        for offset in offsets:
            path_i, path_ii = (
                [tuple(o + side * c for o, c in zip(offset, corner)) for corner in shape]
                for shape in (shape_i, shape_ii)
            )
            config = config_of(path_i, path_ii, True, field)
            phases.append(two_path_difference(config).total_phase_rad)
            bounds.append(exact.two_path_bound(config))
            exacts.append(exact.two_path_difference(config))
        assert len(set(exacts)) == 1
        for phase, bound in zip(phases, bounds):
            assert abs(phase - exacts[0]) <= bound
            assert abs(phase - phases[0]) <= bound + bounds[0]
        assert bounds[-1] <= 1e-12 * abs(exacts[0])


def assert_oracles_within_their_bounds(layout, field):
    path_i, path_ii, _ = layout
    config = config_of(path_i, [path_i[0]] + path_ii[1:], True, field)
    loop = interference_loop(config)
    assert abs(circulation(field, loop) - exact.circulation(loop, field)) <= (
        exact.circulation_bound(loop, field)
    )
    bound = exact.area_bound(loop)
    for got, want in zip(enclosed_area_vector(loop).as_tuple(), exact.vector_area(loop)):
        assert abs(got - want) <= bound


class TestOracleBoundsNearTheOrigin:
    @settings(max_examples=200)
    @given(
        layouts(st.just((0.0, 0.0, 0.0)), st.floats(1e-6, 1e3)),
        fields(st.tuples(unit, unit, unit)),
    )
    def test_circulation_and_vector_area_within_their_bounds(self, layout, field):
        assert_oracles_within_their_bounds(layout, field)


class TestOracleBoundsFarFromTheOrigin:
    @settings(max_examples=200)
    @example(EARTH_SQUARE, MotionField(omega=Vec3(*EARTH_RATE)))
    @given(
        layouts(st.tuples(far, far, far), st.floats(1e-4, 1e2)),
        fields(st.tuples(far, far, far)),
    )
    def test_circulation_and_vector_area_within_their_bounds(self, layout, field):
        assert_oracles_within_their_bounds(layout, field)

    def test_earth_square_bounds_are_tight(self):
        # The bounds scale with the loop, not with its 6.4e6 m distance from the
        # origin: the Earth rate along the loop's normal, +x.
        config = config_of(*EARTH_SQUARE, MotionField(omega=Vec3(*EARTH_RATE[::-1])))
        loop = interference_loop(config)
        area = exact.vector_area(loop)
        assert exact.area_bound(loop) <= 1e-14 * max(map(abs, area))
        assert exact.circulation_bound(loop, config.motion) <= 1e-14 * abs(
            exact.circulation(loop, config.motion)
        )
