"""Phase laws for interferometers with moving segments.

The per-segment law: a segment of oriented length dL moving with velocity V
shifts the accumulated phase by (2*pi / v*lambda) * (V . dL), where v is the
particle speed and lambda the wavelength at rest. Everything else in this
module is an aggregate or a special case of that law:

  * summing over a closed loop under rigid rotation gives the Sagnac phase
    (4*pi / v*lambda) * (Omega . A),
  * summing over a closed two-path loop under uniform translation gives
    exactly zero,
  * a two-path layout whose starts are separated by an opening D retains
    (2*pi / v*lambda) * (V . D) under uniform translation.

Velocities are sampled at segment midpoints, which makes each per-segment
dot product exact for the rigid (affine) fields in scope. Phases are kept
unwrapped; fringe reduction happens in the experiment module.
"""
from __future__ import annotations

import math
from itertools import islice

from .kinematics import enclosed_area_vector
from .model import (
    C_LIGHT,
    TWO_PI,
    BeamPath,
    BoostDomainError,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    PhaseResult,
    Vec3,
)


def rest_phase(wave: ParticleWave, length: float) -> float:
    """Phase accumulated along a segment at rest: 2*pi * length / lambda."""
    if length < 0.0 or not math.isfinite(length):
        raise GeometryError(f"length must be non-negative, got {length!r}")
    return TWO_PI * length / wave.wavelength_lambda


def boost_factor(wave: ParticleWave, speed_parallel: float) -> float:
    """Wavelength-compression factor 1 + V_parallel / v for a moving segment.

    ``speed_parallel`` is the component of the segment velocity along the
    beam direction (V*cos(theta)). Raises when the factor is not positive:
    the slow-motion model does not cover a segment receding as fast as the
    particles travel.
    """
    factor = 1.0 + speed_parallel / wave.speed_v
    if factor <= 0.0:
        raise BoostDomainError(
            f"segment speed along the beam ({speed_parallel!r} m/s) cancels or exceeds "
            f"the particle speed ({wave.speed_v!r} m/s); phase model does not apply"
        )
    return factor


def _require_cos_theta(cos_theta: float) -> None:
    if abs(cos_theta) > 1.0 or not math.isfinite(cos_theta):
        raise GeometryError(f"cos_theta must lie in [-1, 1], got {cos_theta!r}")


def boosted_wavelength(wave: ParticleWave, speed_V: float, cos_theta: float) -> float:
    """Wavelength seen in a segment moving with speed V at angle theta.

    lambda' = lambda / (1 + V*cos(theta)/v): the particles entering the
    moving segment are faster or slower by the segment's velocity component
    along the beam, and the frequency is unchanged.
    """
    _require_cos_theta(cos_theta)
    return wave.wavelength_lambda / boost_factor(wave, speed_V * cos_theta)


def moving_phase(wave: ParticleWave, length: float, speed_V: float, cos_theta: float) -> float:
    """Phase accumulated along a moving segment: 2*pi*(length/lambda) * boost."""
    _require_cos_theta(cos_theta)
    return rest_phase(wave, length) * boost_factor(wave, speed_V * cos_theta)


def _increments(wave: ParticleWave, vertices, field: MotionField):
    """Phase increment of each segment along the (x, y, z) vertex triples.

    The per-segment law, stated once: the increment of the segment a -> b is
    (2*pi / v*lambda) * (V . dL) with V evaluated at the segment midpoint,
    and the segment's speed along the beam is checked against the domain of
    the boost model. Plain floats in the operation order of ``velocity_at``
    and ``Vec3``, so bit for bit the same; a non-finite increment is left
    to ``exact_sum``.
    """
    (tx, ty, tz), (wx, wy, wz), (px, py, pz) = (
        field.translation.as_tuple(), field.omega.as_tuple(), field.pivot.as_tuple()
    )
    scale = TWO_PI / wave.v_lambda
    ax, ay, az = vertices[0]
    for bx, by, bz in islice(vertices, 1, None):
        dx, dy, dz = bx - ax, by - ay, bz - az
        length = math.sqrt(dx * dx + dy * dy + dz * dz)
        if length == 0.0:
            raise GeometryError(f"segment endpoints coincide: {(ax, ay, az)}")
        rx = 0.5 * (ax + bx) - px
        ry = 0.5 * (ay + by) - py
        rz = 0.5 * (az + bz) - pz
        v_dot_dl = (
            (tx + (wy * rz - wz * ry)) * dx
            + (ty + (wz * rx - wx * rz)) * dy
            + (tz + (wx * ry - wy * rx)) * dz
        )
        boost_factor(wave, v_dot_dl / length)
        yield scale * v_dot_dl
        ax, ay, az = bx, by, bz


def segment_phase_increment(
    wave: ParticleWave, start: Vec3, end: Vec3, field: MotionField
) -> float:
    """Phase increment of the segment start -> end moving with the field.

    The increment is (2*pi / v*lambda) * (V . dL) with V evaluated at the
    segment midpoint. It equals the moving phase minus the rest phase; the
    segment's speed along the beam is checked against the domain of that
    boost model. Swapping start and end flips the increment's sign.
    """
    return next(_increments(wave, (start.as_tuple(), end.as_tuple()), field))


def path_phase(
    wave: ParticleWave,
    path: BeamPath,
    field: MotionField,
    *,
    path_id: str = "I",
) -> PhaseResult:
    """Summed per-segment increments along a beam path, with breakdown.

    Equals (2*pi / v*lambda) times the line integral of V along the path.
    ``path_id`` is only a label recorded in the breakdown entries.
    """
    increments = tuple(_increments(wave, path.vertices, field))
    return PhaseResult.from_increments(((path_id, increments),), wave.v_lambda)


def two_path_difference(config: InterferometerConfig) -> PhaseResult:
    """Phase difference between the two beams: beam II minus beam I.

    The breakdown keeps each increment with the sign it enters the
    difference (beam II positive, beam I negated), so the entries still
    sum to the total.
    """
    wave, motion = config.wave, config.motion
    beam_ii = tuple(_increments(wave, config.path_II.vertices, motion))
    beam_i = tuple(-inc for inc in _increments(wave, config.path_I.vertices, motion))
    return PhaseResult.from_increments((("II", beam_ii), ("I", beam_i)), wave.v_lambda)


def interference_loop(config: InterferometerConfig) -> BeamPath:
    """The closed contour beam II forward then beam I backward.

    The circulation around this contour carries the same sign as
    ``two_path_difference``, which subtracts beam I from beam II.
    """
    if config.kind is not ConfigKind.CLOSED_LOOP:
        raise GeometryError("only closed-loop configurations define an interference loop")
    return config.path_II.joined(config.path_I.reversed())


def sagnac_area_phase(wave: ParticleWave, loop: BeamPath, field: MotionField) -> float:
    """Rotation phase of a closed loop from its signed vector area (see ``area_phase``)."""
    return area_phase(wave, enclosed_area_vector(loop), field)  # rejects an open loop


def area_phase(wave: ParticleWave, area: Vec3, field: MotionField) -> float:
    """Rotation phase from the area form: (4*pi / v*lambda) * (Omega . A).

    A is the signed vector area of the closed loop. Any uniform translation
    part of the field contributes nothing around a closed loop and is
    ignored here by construction.
    """
    return (4.0 * math.pi / wave.v_lambda) * field.omega.dot(area)


def open_loop_phase(wave: ParticleWave, opening_D: Vec3, velocity_V: Vec3) -> float:
    """Translational phase of an open two-beam layout: (2*pi / v*lambda) * (V . D).

    D is the displacement between the two beam starting points, oriented so
    that it matches the beam-II-minus-beam-I difference convention (see
    ``translation_opening``). Only the opening survives: the shared arm
    geometry cancels segment by segment.
    """
    if opening_D.norm() == 0.0:
        raise GeometryError("open-loop phase requires a nonzero opening")
    return (TWO_PI / wave.v_lambda) * velocity_V.dot(opening_D)


def translation_opening(config: InterferometerConfig) -> Vec3:
    """Opening displacement that multiplies V in the open-loop phase law.

    Because the two beams share their endpoint, the two-path difference
    under uniform translation reduces to (2*pi / v*lambda) * V . (start_I -
    start_II); this function returns that surviving vector, which points
    from beam II's start to beam I's start.
    """
    if config.kind is ConfigKind.CLOSED_LOOP:
        raise GeometryError("a closed-loop configuration has no opening")
    return config.path_I.start - config.path_II.start


def gse_light_phase(wavelength: float, segment_V: Vec3, delta_L: Vec3) -> float:
    """Light-wave counterpart for a counter-propagating loop segment.

    A waveguide segment dL moving with velocity V shifts the phase between
    the two counter-propagating beams by (4*pi / c*lambda) * (V . dL); the
    factor is doubled relative to the single-beam matter-wave law because
    both directions around the loop contribute.
    """
    if not (wavelength > 0.0 and math.isfinite(wavelength)):
        raise GeometryError(f"wavelength must be positive, got {wavelength!r}")
    return (4.0 * math.pi / (C_LIGHT * wavelength)) * segment_V.dot(delta_L)
