"""Velocity-field evaluation, curl, circulation, and vector area."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matterwave import (
    BeamPath,
    GeometryError,
    MotionField,
    Vec3,
    circulation,
    curl_fd,
    enclosed_area_vector,
)
from matterwave.model import _velocity, exact_sum

from triples import add, cross, dot, field_scaled, field_sum, scaled, sub, unit

EARTH_RATE = 7.2921159e-5  # rad/s


def unit_square(ccw=True):
    verts = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0), Vec3(0, 0, 0)]
    if not ccw:
        verts = list(reversed(verts))
    return BeamPath(tuple(verts))


class TestVelocityAt:
    # The model's one field rule, T + omega x (r - pivot), behind the kernel and curl_fd.
    def test_pure_translation(self):
        field = MotionField(translation=Vec3(1.0, 0.0, 0.0))
        for r in ((0.0, 0.0, 0.0), (5.0, -3.0, 2.0), (-1e3, 0.0, 1.0)):
            assert _velocity(field, r) == (1.0, 0.0, 0.0)

    def test_rotation_about_origin(self):
        field = MotionField(omega=Vec3(0, 0, 1))
        assert _velocity(field, (1.0, 0.0, 0.0)) == (0.0, 1.0, 0.0)

    def test_pivot_point_is_stationary(self):
        field = MotionField(omega=Vec3(0, 0, 1), pivot=Vec3(1, 0, 0))
        assert _velocity(field, (1.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


class TestCurlFd:
    def test_rotation_curl_is_twice_omega(self):
        field = MotionField(omega=Vec3(0, 0, 1))
        estimate = curl_fd(field, Vec3(0.3, -0.7, 0.1))
        assert math.dist(estimate.as_tuple(), (0.0, 0.0, 2.0)) <= 1e-6 * 2.0

    def test_translation_curl_is_zero(self):
        field = MotionField(translation=Vec3(3.0, -2.0, 1.0))
        estimate = curl_fd(field, Vec3(1, 2, 3))
        assert estimate.norm() == 0.0

    def test_earth_rate_doubling(self):
        # Oracle: analytic identity, curl of a rigid rotation field is 2*Omega.
        field = MotionField(omega=Vec3(0, 0, EARTH_RATE))
        estimate = curl_fd(field, Vec3(0.2, 0.4, -0.1))
        expected = (0.0, 0.0, 1.45842318e-4)
        assert math.dist(estimate.as_tuple(), expected) <= 1e-6 * math.hypot(*expected)

    def test_random_rigid_fields(self, rng):
        for _ in range(30):
            field = MotionField(
                translation=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                omega=Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
                pivot=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            r = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            expected = scaled(field.omega.as_tuple(), 2.0)
            got = curl_fd(field, r).as_tuple()
            if math.hypot(*expected) > 0:
                assert math.dist(got, expected) <= 1e-6 * math.hypot(*expected)


class TestCirculation:
    def test_unit_square_under_rotation(self):
        # Oracle: Stokes area formula, 2 * Omega . A with A = 1 m^2.
        field = MotionField(omega=Vec3(0, 0, 1))
        assert circulation(field, unit_square()) == pytest.approx(2.0, rel=1e-12)

    def test_translation_circulates_nothing(self):
        field = MotionField(translation=Vec3(0.8, -0.3, 0.2))
        assert circulation(field, unit_square()) == pytest.approx(0.0, abs=1e-15)

    def test_orientation_flips_sign(self):
        field = MotionField(omega=Vec3(0, 0, 1))
        assert circulation(field, unit_square(ccw=False)) == pytest.approx(-2.0, rel=1e-12)

    def test_independent_of_sampling(self):
        # The trapezoid rule is exact for affine fields: splitting every side
        # into equal sub-segments leaves the circulation unchanged.
        field = MotionField(omega=Vec3(0.3, -0.2, 1.1), pivot=Vec3(0.2, 0.1, 0.0))
        base = circulation(field, unit_square())
        corners = unit_square().vertices
        for samples in (2, 5, 17):
            points = [corners[0]]
            for a, b in zip(corners, corners[1:]):
                points += [add(a, scaled(sub(b, a), k / samples)) for k in range(1, samples + 1)]
            again = circulation(field, BeamPath(tuple(points)))
            assert again == pytest.approx(base, rel=1e-12)

    def test_pivot_invariance(self, rng):
        loop = unit_square()
        omega = Vec3(0.4, -1.2, 0.7)
        base = circulation(MotionField(omega=omega), loop)
        for _ in range(10):
            pivot = Vec3(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5))
            shifted = circulation(MotionField(omega=omega, pivot=pivot), loop)
            assert shifted == pytest.approx(base, rel=1e-12)

    def test_additive_and_homogeneous_in_field(self):
        loop = unit_square()
        f1 = MotionField(Vec3(0.1, 0.2, 0.0), Vec3(0.0, 0.3, 0.9), Vec3(0.5, 0.0, 0.0))
        f2 = MotionField(Vec3(-0.2, 0.1, 0.3), Vec3(0.4, 0.0, -0.2), Vec3(0.0, 0.2, 0.1))
        assert circulation(field_sum(f1, f2), loop) == pytest.approx(
            circulation(f1, loop) + circulation(f2, loop), rel=1e-10, abs=1e-15
        )
        assert circulation(field_scaled(f1, 2.5), loop) == pytest.approx(
            2.5 * circulation(f1, loop), rel=1e-12
        )

    def test_open_path_rejected(self):
        field = MotionField(omega=Vec3(0, 0, 1))
        open_path = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0)))
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(GeometryError, match="circulation requires a closed path"):
                circulation(field, open_path)
        assert "_midpoints" not in vars(open_path)

    def test_nan_term_refused(self):
        # Along the ray x = y every trapezoid term is -w*R^2 + w*R^2 with
        # w*R^2 beyond the float range: each term is inf - inf = nan.
        r = 1e200
        loop = BeamPath((Vec3(0, 0, 0), Vec3(r, r, 0), Vec3(2 * r, 2 * r, 0), Vec3(0, 0, 0)))
        for _ in range(2):  # the rows are finite and kept; each sum is refused
            with pytest.raises(GeometryError, match="overflows the float range"):
                circulation(MotionField(omega=Vec3(0, 0, 1)), loop)

    def test_rows_are_built_once_per_loop(self):
        # The first evaluation keeps no rows; the second keeps them for every later one.
        loop = unit_square()
        for _ in range(2):
            circulation(MotionField(omega=Vec3(0, 0, 1)), loop)
        rows = vars(loop)["_midpoints"]
        assert circulation(MotionField(omega=Vec3(0.3, -0.2, 1.1)), loop) == pytest.approx(2.2)
        assert vars(loop)["_midpoints"] is rows
        assert len(rows) == len(loop.vertices) - 1

    def test_a_one_shot_evaluation_keeps_no_rows(self, rng):
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        one_shot, kept = (BeamPath(tuple(points + points[:1])) for _ in range(2))
        field = MotionField(omega=Vec3(0.3, -0.2, 1.1))
        first = circulation(field, one_shot)
        assert vars(one_shot)["_midpoints"] is None
        assert [circulation(field, kept) for _ in range(3)] == [first] * 3
        assert len(vars(kept)["_midpoints"]) == len(kept.vertices) - 1

    def test_kept_rows_give_a_fresh_loops_answer(self, rng):
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        loop = BeamPath(tuple(points + points[:1]))
        for _ in range(2):  # the second evaluation keeps the rows
            circulation(MotionField(omega=Vec3(0.0, 0.0, 1.0)), loop)
        for _ in range(5):
            field = MotionField(omega=Vec3(*(rng.uniform(-2, 2) for _ in range(3))))
            # An equal loop built separately sums its rows as it makes them, to the same bits.
            fresh = circulation(field, BeamPath(tuple(map(tuple, loop.vertices))))
            assert repr(circulation(field, loop)) == repr(fresh)
            assert repr(fresh) == repr(reference_circulation(field, loop))


class TestEnclosedAreaVector:
    def test_unit_square_ccw(self):
        assert enclosed_area_vector(unit_square()) == Vec3(0.0, 0.0, 1.0)

    def test_unit_square_cw(self):
        assert enclosed_area_vector(unit_square(ccw=False)) == Vec3(0.0, 0.0, -1.0)

    def test_back_and_forth_zero_area(self):
        loop = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 0, 0)))
        assert enclosed_area_vector(loop) == Vec3(0.0, 0.0, 0.0)

    def test_translation_invariance(self):
        tri = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.3, 0.9, 0.0))
        loop = BeamPath(tri + (tri[0],))
        offset = (10.0, -7.0, 3.0)
        shifted = BeamPath(tuple(add(v, offset) for v in tri) + (add(tri[0], offset),))
        areas = (enclosed_area_vector(shifted).as_tuple(), enclosed_area_vector(loop).as_tuple())
        assert math.dist(*areas) < 1e-12

    def test_open_path_rejected(self):
        open_path = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0)))
        for _ in range(2):  # a refusal is not kept
            with pytest.raises(GeometryError, match="enclosed area requires a closed path"):
                enclosed_area_vector(open_path)

    def test_kept_area_equals_a_fresh_walk(self, rng):
        points = [(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(40)]
        loop = BeamPath(tuple(points + points[:1]))
        area = enclosed_area_vector(loop)
        assert enclosed_area_vector(loop) is area
        # An equal loop built separately is walked afresh, to the same bits.
        assert enclosed_area_vector(BeamPath(tuple(map(tuple, loop.vertices)))) == area
        assert area == reference_area(loop)

    def test_overflowing_area_refused_on_every_call(self):
        r = 1e200
        loop = BeamPath(((0, 0, 0), (r, 0, 0), (r, r, 0), (-r, r, 0), (0, 0, 0)))
        for _ in range(2):
            with pytest.raises(GeometryError, match="vector area overflows the float range"):
                enclosed_area_vector(loop)


class TestStokesAgreement:
    def test_circulation_equals_twice_omega_dot_area(self, rng):
        """Trapezoid circulation vs shoelace area on random planar polygons."""
        for _ in range(50):
            # random oriented plane
            while True:
                normal = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
                if math.hypot(*normal) > 1e-3:
                    normal = unit(normal)
                    break
            helper = (1.0, 0.0, 0.0) if abs(normal[0]) < 0.9 else (0.0, 1.0, 0.0)
            u = unit(cross(normal, helper))
            w = cross(normal, u)
            n = rng.randrange(3, 10)
            verts = []
            for i in range(n):
                theta = 2 * math.pi * (i + 0.3 * rng.random()) / n
                radius = rng.uniform(0.4, 1.3)
                verts.append(add(scaled(u, radius * math.cos(theta)), scaled(w, radius * math.sin(theta))))
            loop = BeamPath(tuple(verts) + (verts[0],))
            field = MotionField(
                translation=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
                omega=Vec3(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)),
                pivot=Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)),
            )
            lhs = circulation(field, loop)
            rhs = 2.0 * field.omega.dot(enclosed_area_vector(loop))
            scale = max(abs(lhs), abs(rhs), 2.0 * field.omega.norm() * 0.1)
            assert abs(lhs - rhs) <= 1e-10 * scale


# The two oracles written out one vector operation at a time on float triples:
# the area in the order the package first wrote it with Vec3 methods, the
# circulation in the form omega x m that it keeps per segment. A Vec3 refused an
# intermediate beyond the float range; here it reaches a term, which exact_sum refuses.
def reference_circulation(field, loop):
    """The trapezoid about the midpoint o of the loop's first segment: omega x m
    at m = (a - o)/2 + (b - o)/2, dotted with b - a."""
    corners, omega = loop.vertices, field.omega.as_tuple()
    o = add(corners[0], scaled(sub(corners[1], corners[0]), 0.5))
    terms = []
    for a, b in zip(corners, corners[1:]):
        m = add(scaled(sub(a, o), 0.5), scaled(sub(b, o), 0.5))
        terms.append(dot(cross(omega, m), sub(b, a)))
    return exact_sum(terms, "circulation")


def reference_area(loop):
    """The shoelace over the offsets from the midpoint of the loop's first segment."""
    corners = loop.vertices
    o = add(corners[0], scaled(sub(corners[1], corners[0]), 0.5))
    offsets = [sub(c, o) for c in corners]
    crosses = [cross(a, b) for a, b in zip(offsets, offsets[1:])]
    return Vec3(*(0.5 * exact_sum(axis, "vector area") for axis in zip(*crosses)))


def outcome(fn, *args):
    """repr of the result (it tells -0.0 from 0.0), or the error class."""
    try:
        return repr(fn(*args))
    except GeometryError:
        return GeometryError


# Moderate components, plus magnitudes whose products and sums overflow.
components = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e200, 1e200))
triples = st.lists(components, min_size=3, max_size=3)


def closed_loop(points):
    try:
        return BeamPath(tuple(map(tuple, points + points[:1])))
    except GeometryError:  # coincident or overflowing neighbours
        assume(False)


@pytest.mark.fuzz
class TestOraclesMatchVec3RouteBitForBit:
    """The oracles against their triple routes, ``reference_*`` above."""

    @settings(max_examples=100)
    @given(
        points=st.lists(triples, min_size=3, max_size=8),
        motion=st.lists(triples, min_size=3, max_size=3),
    )
    def test_circulation(self, points, motion):
        loop = closed_loop(points)
        field = MotionField(*(Vec3(*xyz) for xyz in motion))
        assert outcome(circulation, field, loop) == outcome(reference_circulation, field, loop)

    @settings(max_examples=100)
    @given(points=st.lists(triples, min_size=3, max_size=8))
    def test_enclosed_area_vector(self, points):
        loop = closed_loop(points)
        assert outcome(enclosed_area_vector, loop) == outcome(reference_area, loop)
