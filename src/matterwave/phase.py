"""Phase laws for interferometers with moving segments.

The per-segment law: a segment of oriented length dL moving with velocity V
shifts the accumulated phase by (2*pi / v*lambda) * (V . dL), where v is the
particle speed and lambda the wavelength at rest. For a rigid motion, summed
along a beam path, the law is one identity: with V(r) = U0 + omega x (r - r0)
about the path's reference vertex r0,

    sum_i V(m_i) . dL_i = U0 . delta + omega . moment,

where delta is the path's end minus its start and moment the sum of
a'_i x a'_(i+1) over its vertices' offsets a' from r0 (``BeamPath.moments``,
r0 from ``BeamPath.extent``). A path compiles to its moment once; each new
motion then costs O(1).
For two beams, ``two_path_difference`` takes one velocity U, at beam II's
end, and evaluates (2*pi / v*lambda) * [U . D + omega . (M_II - M_I)], D
the opening between the beams. The paper's results are special cases:

  * a closed two-path loop has D = 0: under uniform translation its phase
    is exactly zero, and under rotation M_II - M_I is twice its vector
    area, the Sagnac phase (4*pi / v*lambda) * (Omega . A),
  * a two-path layout whose starts are separated by an opening D retains
    (2*pi / v*lambda) * (V . D) under uniform translation.

Each entry of the per-segment breakdown is V . dL for the segment, which
for the rigid (affine) fields in scope is the same with V at any point of
it.
Phases are kept unwrapped; fringe reduction happens in the experiment
module.
"""
from __future__ import annotations

import math
import operator

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
    _coincide,
    _cross,
    _delta,
    _fsum,
    _number,
    _require_positive,
    _velocity,
    exact_sum,
)


def rest_phase(wave: ParticleWave, length: float) -> float:
    """Phase accumulated along a segment at rest: 2*pi * length / lambda."""
    length = _number(length, "length")
    if length < 0.0:
        raise GeometryError(f"length must be non-negative, got {length!r}")
    return TWO_PI * length / wave.wavelength_lambda


def boost_factor(wave: ParticleWave, speed_parallel: float) -> float:
    """Wavelength-compression factor 1 + V_parallel / v for a moving segment.

    ``speed_parallel`` is the component of the segment velocity along the
    beam direction (V*cos(theta)). Raises when the factor is not positive:
    the slow-motion model does not cover a segment receding as fast as the
    particles travel. A float is taken as given, as the kernel passes it;
    anything else goes through the number rule.
    """
    if type(speed_parallel) is not float:
        speed_parallel = _number(speed_parallel, "speed_parallel")
    factor = 1.0 + speed_parallel / wave.speed_v
    if not factor > 0.0:  # nan too
        raise BoostDomainError(
            f"segment speed along the beam ({speed_parallel!r} m/s) cancels or exceeds "
            f"the particle speed ({wave.speed_v!r} m/s); phase model does not apply"
        )
    return factor


# Relative slack on the boost-domain bound, far above its rounding error.
_BOUND_MARGIN = 1e-9


def _increments(wave: ParticleWave, path: BeamPath, field: MotionField, check=False) -> list[float]:
    """Phase increment of each segment of the path, walked in the path's local frame.

    The per-segment law, stated once: the segment a -> b moves with
    V = U0 + omega x m at its midpoint m, in offsets from the path's
    reference vertex, and its increment is (2*pi / v*lambda) * (V . dL),
    with dL = b - a taken between the stored vertices. For a rigid field
    V . dL is the same with V at a, as computed here, since
    (omega x dL) . dL = 0. With ``check``, each segment's speed along the
    beam, V . dL / |dL|, is checked against the domain of the boost model;
    where V . dL overflows, the speed is summed as V . (dL / |dL|) instead.
    A non-finite increment is left to the caller.
    """
    origin = ox, oy, oz = path.extent[0]
    ux, uy, uz = _velocity(field, origin)
    wx, wy, wz = field.omega.as_tuple()
    scale = TWO_PI / wave.v_lambda
    increments = []
    append = increments.append
    ax, ay, az = path.vertices[0]
    for bx, by, bz in path.vertices[1:]:
        dx, dy, dz = bx - ax, by - ay, bz - az
        rx, ry, rz = ax - ox, ay - oy, az - oz
        vx, vy, vz = ux + (wy * rz - wz * ry), uy + (wz * rx - wx * rz), uz + (wx * ry - wy * rx)
        v_dot_dl = vx * dx + vy * dy + vz * dz
        if check:
            length = math.hypot(dx, dy, dz)
            if math.isfinite(v_dot_dl):
                speed = v_dot_dl / length
            else:  # a product overflowed: V . (dL / |dL|), whose axes with no gap add nothing
                speed = _fsum([v * (d / length) for v, d in zip((vx, vy, vz), (dx, dy, dz)) if d])
            boost_factor(wave, speed)
        append(scale * v_dot_dl)
        ax, ay, az = bx, by, bz
    return increments


def _check_domain(wave: ParticleWave, paths, field: MotionField) -> None:
    """Refuse the field where it takes a segment of any of ``paths`` outside the boost
    domain. With rotation, |U0| + |omega| * reach, U0 the velocity at a path's reference
    vertex, bounds the speed of every point of the path, read from its extent; without,
    |T| bounds it. Neither compiles the path. Unless the bound is below v, the segments
    are walked and the first one outside raises."""
    rate = math.hypot(*field.omega.as_tuple())
    for path in paths:
        if rate:
            origin, reach = path.extent
            bound = math.hypot(*_velocity(field, origin)) + rate * reach
        else:
            bound = math.hypot(*field.translation.as_tuple())
        if not bound * (1.0 + _BOUND_MARGIN) < wave.speed_v:
            _increments(wave, path, field, check=True)


def _terms(scale: float, u, d, omega, path: BeamPath) -> list[float]:
    """The rigid identity's terms, scaled: scale * u_j * d_j and scale * omega_j * moment_j
    per axis, moment the path's. An exact-zero factor drops its term, whose other factor may
    have overflowed; so without rotation the path is not compiled, and omega stands in."""
    moment = path.moments if any(omega) else omega
    return [scale * (a * b) for a, b in zip(u + omega, d + moment) if a and b]


def segment_phase_increment(
    wave: ParticleWave, start: Vec3, end: Vec3, field: MotionField
) -> float:
    """Phase increment of the segment start -> end moving with the field.

    The increment is (2*pi / v*lambda) * (V . dL) with V evaluated at the
    segment midpoint. It equals the moving phase minus the rest phase; the
    segment's speed along the beam is checked against the domain of that
    boost model. Swapping start and end flips the increment's sign.
    """
    return path_phase(wave, BeamPath((start, end)), field).total_phase_rad


def path_phase(wave: ParticleWave, path: BeamPath, field: MotionField) -> PhaseResult:
    """Phase along a beam path, with breakdown, whose entries are labelled "I".

    Equals (2*pi / v*lambda) times the line integral of V along the path.
    """
    _check_domain(wave, (path,), field)
    u0 = _velocity(field, path.extent[0])
    terms = _terms(TWO_PI / wave.v_lambda, u0, _delta(path), field.omega.as_tuple(), path)
    total = exact_sum(terms, "phase")
    return PhaseResult(total, wave.v_lambda, lambda: (("I", tuple(_increments(wave, path, field))),))


def two_path_difference(config: InterferometerConfig) -> PhaseResult:
    """Phase difference between the two beams: beam II minus beam I.

    A path's U0 . delta takes the velocity at either end vertex alike, since
    (omega x delta) . delta = 0; both beams take U, the velocity at beam II's
    end. Their translational part is then U . (delta_II - delta_I), with
    delta_II - delta_I = (start_I - start_II) - (end_I - end_II) formed before
    it meets U, less (omega x (end_I - end_II)) . delta_I for beam I's end:
    the opening phase, exactly zero for beams that share start and end, and
    free of the cancellation between two long beams' phases. The breakdown
    keeps each increment with the sign it enters the difference (beam II
    positive, beam I negated).
    """
    wave, motion, path_ii, path_i = config.wave, config.motion, config.path_II, config.path_I
    _check_domain(wave, (path_ii, path_i), motion)
    omega, pair = motion.omega.as_tuple(), config._pair
    scale = TWO_PI / wave.v_lambda
    u = _velocity(motion, path_ii.vertices[-1])
    terms = _terms(scale, u, pair.delta_difference, omega, path_ii)
    terms += _terms(-scale, _cross(omega, pair.end_gap), pair.delta_I, omega, path_i)
    total = exact_sum(terms, "phase")

    def walk():
        return (
            ("II", tuple(_increments(wave, path_ii, motion))),
            ("I", tuple(map(operator.neg, _increments(wave, path_i, motion)))),
        )

    return PhaseResult(total, wave.v_lambda, walk)


def interference_loop(config: InterferometerConfig) -> BeamPath:
    """The closed contour beam II forward then beam I backward.

    The circulation around this contour carries the same sign as
    ``two_path_difference``, which subtracts beam I from beam II. The loop is
    the config's pair record's, built on its first call and kept there: each
    config returns the loop of its own beams.
    """
    if config.kind is not ConfigKind.CLOSED_LOOP:
        raise GeometryError("only closed-loop configurations define an interference loop")
    return config._pair.loop


def sagnac_area_phase(wave: ParticleWave, loop: BeamPath, field: MotionField) -> float:
    """Rotation phase of a closed loop from the area form: (4*pi / v*lambda) * (Omega . A).

    A is the loop's signed vector area, ``enclosed_area_vector(loop)``, which
    refuses an open loop and is kept on the loop. Any uniform translation part
    of the field contributes nothing around a closed loop and is ignored here
    by construction. A phase beyond the float range is refused as a summed one is.
    """
    phase = (4.0 * math.pi / wave.v_lambda) * field.omega.dot(enclosed_area_vector(loop))
    return exact_sum([phase], "phase")


def open_loop_phase(wave: ParticleWave, opening_D: Vec3, velocity_V: Vec3) -> float:
    """Translational phase of an open two-beam layout: (2*pi / v*lambda) * (V . D).

    D is the displacement between the two beam starting points, oriented so
    that it matches the beam-II-minus-beam-I difference convention (see
    ``translation_opening``). Only the opening survives: the shared arm
    geometry cancels segment by segment.
    """
    if _coincide(opening_D.as_tuple(), (0.0, 0.0, 0.0)):
        raise GeometryError("open-loop phase requires a nonzero opening")
    return (TWO_PI / wave.v_lambda) * velocity_V.dot(opening_D)


def translation_opening(config: InterferometerConfig) -> Vec3:
    """Opening displacement that multiplies V in the open-loop phase law.

    Because the two beams share their endpoint, the two-path difference
    under uniform translation reduces to (2*pi / v*lambda) * V . (start_I -
    start_II); this function returns that surviving vector, which points
    from beam II's start to beam I's start, built once per pair of beams.
    """
    if config.kind is ConfigKind.CLOSED_LOOP:
        raise GeometryError("a closed-loop configuration has no opening")
    return config._pair.opening_vector


def gse_light_phase(wavelength: float, segment_V: Vec3, delta_L: Vec3) -> float:
    """Light-wave counterpart for a counter-propagating loop segment.

    A waveguide segment dL moving with velocity V shifts the phase between
    the two counter-propagating beams by (4*pi / c*lambda) * (V . dL); the
    factor is doubled relative to the single-beam matter-wave law because
    both directions around the loop contribute.
    """
    wavelength = _require_positive("wavelength", wavelength, GeometryError)
    return (4.0 * math.pi / (C_LIGHT * wavelength)) * segment_V.dot(delta_L)
