"""Experiment archetypes, fringe observables, sensitivity analysis, self-checks.

The builders produce the canonical configurations: a rectangular two-arm
loop for rotation sensing or translational null tests, and an open layout
of two parallel arms whose starting points are separated by an opening.
``verify_suite`` runs the randomized cross-checks that tie the per-segment
phase law to its independent oracles (circulation, vector area, curl).
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .kinematics import _velocity, circulation, curl_fd
from .model import (
    BeamPath,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    Vec3,
    make_particle_wave,
)
from .phase import (
    TWO_PI,
    boost_factor,
    interference_loop,
    open_loop_phase,
    path_phase,
    rest_phase,
    sagnac_area_phase,
    segment_phase_increment,
    translation_opening,
    two_path_difference,
)

DEFAULT_ARM_LENGTH = 0.01  # m


# The layouts ``build_config`` and scene files accept, by name, with the
# kind of interferometer each one builds.
LAYOUT_KINDS = {
    "Fig2Rotation": ConfigKind.CLOSED_LOOP,
    "Fig3aClosed": ConfigKind.CLOSED_LOOP,
    "Fig3bOpen": ConfigKind.OPEN_LOOP,
    "Fig3cIndependent": ConfigKind.OPEN_LOOP,
    "Fig3dExtracted": ConfigKind.OPEN_LOOP,
}


def _rectangle_paths(width: float, height: float) -> tuple[BeamPath, BeamPath]:
    a = Vec3(0.0, 0.0, 0.0)
    b = Vec3(width, 0.0, 0.0)
    c = Vec3(width, height, 0.0)
    d = Vec3(0.0, height, 0.0)
    # Beam I runs up then across, beam II across then up. With this labeling,
    # the interference loop (II forward, I backward) is counterclockwise and
    # a rotation about +z yields a positive two-path difference.
    return BeamPath((a, d, c)), BeamPath((a, b, c))


def _open_paths(opening: Vec3, arm_length: float) -> tuple[BeamPath, BeamPath]:
    # Beam II starts at the origin; beam I starts displaced by the opening.
    # Both run parallel arms along +x and merge at a common endpoint through
    # short closing stubs. Putting the displaced start on beam I makes
    # two_path_difference (II minus I) equal +(2*pi/v*lambda) V . opening.
    stub = opening.norm()
    arm = Vec3(arm_length, 0.0, 0.0)
    merge = arm + Vec3(stub, 0.0, 0.0) + opening * 0.5
    path_ii = BeamPath((Vec3(0.0, 0.0, 0.0), arm, merge))
    path_i = BeamPath((opening, opening + arm, merge))
    return path_i, path_ii


def build_config(
    kind: str,
    wave: ParticleWave,
    motion: MotionField,
    *,
    side_m: float | None = None,
    width_m: float | None = None,
    height_m: float | None = None,
    opening_m: Vec3 | float | None = None,
    arm_length_m: float = DEFAULT_ARM_LENGTH,
) -> InterferometerConfig:
    """Build one of the canonical interferometer configurations.

    ``kind`` is a name in ``LAYOUT_KINDS``. Rectangular loop kinds take
    ``side_m`` (square) or ``width_m`` and ``height_m``. Open kinds take
    ``opening_m``, either a vector or a positive scalar meaning an opening
    along +y, perpendicular to the arms, plus an optional
    ``arm_length_m``; the reported phase provably does not depend on the
    arm length.
    """
    if kind not in LAYOUT_KINDS:
        raise ValueError(f"unknown layout {kind!r} (known: {', '.join(LAYOUT_KINDS)})")
    if LAYOUT_KINDS[kind] is ConfigKind.CLOSED_LOOP:
        if side_m is not None:
            if width_m is not None or height_m is not None:
                raise GeometryError("give either side_m or width_m/height_m, not both")
            width_m = height_m = side_m
        if width_m is None or height_m is None:
            raise GeometryError(f"{kind} needs side_m or width_m and height_m")
        if not (width_m > 0.0 and height_m > 0.0):
            raise GeometryError("rectangle dimensions must be positive")
        path_i, path_ii = _rectangle_paths(width_m, height_m)
        return InterferometerConfig(path_i, path_ii, wave, motion, ConfigKind.CLOSED_LOOP)

    if opening_m is None:
        raise GeometryError(f"{kind} needs opening_m")
    if not isinstance(opening_m, Vec3) and not opening_m > 0.0:
        raise GeometryError(f"a scalar opening_m must be positive, got {opening_m!r}")
    opening = Vec3(0.0, float(opening_m), 0.0) if not isinstance(opening_m, Vec3) else opening_m
    if opening.norm() == 0.0:
        raise GeometryError("opening must be nonzero")
    if not (arm_length_m > 0.0):
        raise GeometryError(f"arm_length_m must be positive, got {arm_length_m!r}")
    path_i, path_ii = _open_paths(opening, arm_length_m)
    return InterferometerConfig(path_i, path_ii, wave, motion, ConfigKind.OPEN_LOOP)


class FringeReading(NamedTuple):
    """Ideal two-beam readout of a phase: unit-contrast cosine fringe."""

    phase_rad: float
    normalized_intensity: float
    fringe_count: float


def fringe_reading(phase: float) -> FringeReading:
    """Intensity (1 + cos(phase))/2 and fringe count phase/(2*pi)."""
    if not math.isfinite(phase):
        raise GeometryError(f"phase must be finite, got {phase!r}")
    return FringeReading(
        phase_rad=phase,
        normalized_intensity=0.5 * (1.0 + math.cos(phase)),
        fringe_count=phase / TWO_PI,
    )


class SweepRow(NamedTuple):
    V_mps: float
    phase_rad: float
    fringe_count: float


class SweepResult(NamedTuple):
    """Phase versus apparatus speed for an open configuration.

    ``v_full_fringe_mps`` is the speed producing one full fringe,
    v_lambda / (D * |cos(theta)|); it is None when the swept velocity is
    perpendicular to the opening. ``bracket`` is the pair of adjacent grid
    speeds whose fringe counts straddle 1.0 when the grid reaches it.
    """

    rows: tuple[SweepRow, ...]
    v_full_fringe_mps: float | None
    bracket: tuple[float, float] | None
    opening_m: Vec3
    cos_theta: float
    v_lambda: float


def sensitivity_sweep(
    config: InterferometerConfig, v_min: float, v_max: float, steps: int
) -> SweepResult:
    """Evaluate the open-loop phase over a grid of speeds.

    The sweep direction is the unit vector of the configuration's
    translation; when the configuration is at rest the direction defaults
    to the opening itself (cos(theta) = 1).
    """
    if not (0.0 <= v_min < v_max):
        raise GeometryError(f"need 0 <= v_min < v_max, got {v_min!r}, {v_max!r}")
    if steps < 2:
        raise GeometryError(f"need at least 2 steps, got {steps}")
    opening = translation_opening(config)
    translation = config.motion.translation
    direction = translation.unit() if translation.norm() > 0.0 else opening.unit()
    cos_theta = direction.dot(opening.unit())

    wave = config.wave
    rows = []
    for i in range(steps):
        v = v_min + (v_max - v_min) * i / (steps - 1)
        phase = open_loop_phase(wave, opening, direction * v)
        rows.append(SweepRow(V_mps=v, phase_rad=phase, fringe_count=phase / TWO_PI))

    v_full_fringe = None
    if cos_theta != 0.0:
        # A product that underflows to zero leaves a speed beyond the float range.
        denominator = opening.norm() * abs(cos_theta)
        v_full_fringe = wave.v_lambda / denominator if denominator > 0.0 else math.inf

    bracket = None
    for lo, hi in zip(rows, rows[1:]):
        if abs(lo.fringe_count) <= 1.0 <= abs(hi.fringe_count):
            bracket = (lo.V_mps, hi.V_mps)
            break

    return SweepResult(
        rows=tuple(rows),
        v_full_fringe_mps=v_full_fringe,
        bracket=bracket,
        opening_m=opening,
        cos_theta=cos_theta,
        v_lambda=wave.v_lambda,
    )


# ---------------------------------------------------------------------------
# Randomized self-verification
# ---------------------------------------------------------------------------


class PropertyCheck(NamedTuple):
    name: str
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    worst_case: dict | None = None


class VerifyReport(NamedTuple):
    seed: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# The generators and checks below work on (x, y, z) float triples; a Vec3 is
# built only where a public function takes one. A seed's report depends on the
# order of the draws and of the float operations, so both are kept as they are.
def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _scaled(v, factor: float) -> tuple[float, float, float]:
    return (v[0] * factor, v[1] * factor, v[2] * factor)


def _unit(v) -> tuple[float, float, float]:
    n = math.hypot(*v)
    return (v[0] / n, v[1] / n, v[2] / n)


def _unit_vec(rng: random.Random) -> tuple[float, float, float]:
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if math.hypot(*v) > 1e-3:
            return _unit(v)


def _random_vec(rng: random.Random, scale: float = 1.0) -> tuple[float, float, float]:
    return (rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _field(translation, omega, pivot) -> MotionField:
    return MotionField(Vec3(*translation), Vec3(*omega), Vec3(*pivot))


def _random_field(rng: random.Random) -> MotionField:
    """Rigid field with translation, rotation rate and pivot each in the unit box."""
    return _field(_random_vec(rng), _random_vec(rng), _random_vec(rng))


def _random_wave(rng: random.Random) -> ParticleWave:
    # Particle speed comfortably above every apparatus speed the generators
    # below can produce, so the wavelength-compression factor stays positive.
    return make_particle_wave(
        rng.uniform(25.0, 60.0), wavelength=rng.uniform(0.01, 0.2)
    )


def _random_planar_polygon(rng: random.Random, n_vertices: int) -> tuple[BeamPath, tuple]:
    """Star-shaped planar polygon with a random orientation; returns path and normal.

    Jittered angular spacing keeps every edge nondegenerate and the signed
    area bounded away from zero.
    """
    normal = _unit_vec(rng)
    u = _unit(_cross(normal, (1.0, 0.0, 0.0) if abs(normal[0]) < 0.9 else (0.0, 1.0, 0.0)))
    w = _cross(normal, u)
    (cx, cy, cz), (ux, uy, uz), (wx, wy, wz) = _random_vec(rng, 0.5), u, w
    verts = []
    for i in range(n_vertices):
        theta = TWO_PI * (i + 0.2 * rng.random()) / n_vertices
        radius = rng.uniform(0.3, 1.2)
        p, q = radius * math.cos(theta), radius * math.sin(theta)
        verts.append((cx + ux * p + wx * q, cy + uy * p + wy * q, cz + uz * p + wz * q))
    verts.append(verts[0])
    return BeamPath(tuple(verts)), normal


def _random_closed_config(
    rng: random.Random, wave: ParticleWave, motion: MotionField
) -> InterferometerConfig:
    """Random closed two-path configuration: a polygon with vertices anywhere in the
    unit box (it may self-intersect), split at a random vertex."""
    n = rng.randrange(4, 10)
    while True:
        verts = [_random_vec(rng) for _ in range(n)]
        if min(math.dist(verts[i - 1], verts[i]) for i in range(n)) > 0.05:
            break
    split = rng.randrange(1, n - 1)
    # Finite vertices more than 0.05 apart around the loop pass BeamPath's checks.
    path_i = BeamPath._checked(tuple(verts[: split + 1]))
    path_ii = BeamPath._checked((verts[0],) + tuple(verts[split:][::-1]))
    return InterferometerConfig(path_i, path_ii, wave, motion, ConfigKind.CLOSED_LOOP)


def _path_dict(path: BeamPath) -> list[list[float]]:
    return [list(v) for v in path.vertices]


def _run_check(name, samples, tolerance, body) -> PropertyCheck:
    """Run a sampled property; body(i) returns (violation, instance_dict)."""
    max_violation = 0.0
    worst: dict | None = None
    for i in range(samples):
        violation, instance = body(i)
        if violation > max_violation:
            max_violation = violation
            worst = instance
    passed = max_violation <= tolerance
    return PropertyCheck(
        name=name,
        samples=samples,
        max_violation=max_violation,
        tolerance=tolerance,
        passed=passed,
        worst_case=None if passed else worst,
    )


def verify_suite(seed: int = 0) -> VerifyReport:
    """Deterministic randomized cross-check of the phase engine.

    Each check reports its sample count and the worst violation observed;
    the offending instance is serialized when a check fails. The same seed
    always reproduces the same report.
    """
    rng = random.Random(seed)
    checks: list[PropertyCheck] = []

    def translational_null(_i):
        wave = _random_wave(rng)
        motion = MotionField(translation=Vec3(*_scaled(_unit_vec(rng), rng.uniform(0.0, 1.0))))
        config = _random_closed_config(rng, wave, motion)
        result = two_path_difference(config)
        gross = math.fsum(abs(p) for _, incs in result.increments for p in incs)
        if gross == 0.0:
            return 0.0, {}
        return abs(result.total_phase_rad) / gross, {
            "path_I": _path_dict(config.path_I),
            "path_II": _path_dict(config.path_II),
            "translation_mps": list(motion.translation.as_tuple()),
        }

    checks.append(_run_check("translational-null", 100, 1e-9, translational_null))

    def sagnac_agreement(_i):
        wave = _random_wave(rng)
        loop, normal = _random_planar_polygon(rng, rng.randrange(3, 13))
        while True:
            axis = _unit_vec(rng)
            if abs(_dot(axis, normal)) >= 0.1:  # keep Omega . A away from cancellation
                break
        field = _field(
            _random_vec(rng, 0.5), _scaled(axis, rng.uniform(0.3, 2.0)), _random_vec(rng)
        )
        loop_integral = (TWO_PI / wave.v_lambda) * circulation(field, loop)
        area_form = sagnac_area_phase(wave, loop, field)
        denom = max(abs(loop_integral), abs(area_form))
        if denom == 0.0:
            return 0.0, {}
        return abs(loop_integral - area_form) / denom, {
            "loop": _path_dict(loop),
            "omega_radps": list(field.omega.as_tuple()),
        }

    checks.append(_run_check("sagnac-loop-vs-area", 200, 1e-10, sagnac_agreement))

    def curl_identity(_i):
        field = _field(
            _random_vec(rng), _scaled(_unit_vec(rng), rng.uniform(0.1, 2.0)), _random_vec(rng)
        )
        r = _random_vec(rng)
        expected = _scaled(field.omega.as_tuple(), 2.0)
        estimate = curl_fd(field, Vec3(*r)).as_tuple()
        return math.dist(estimate, expected) / math.hypot(*expected), {
            "omega_radps": list(field.omega.as_tuple()),
            "at_m": list(r),
        }

    checks.append(_run_check("curl-doubles-rotation", 50, 1e-6, curl_identity))

    def pivot_invariance(_i):
        wave = _random_wave(rng)
        omega = _scaled(_unit_vec(rng), rng.uniform(0.1, 2.0))
        translation = _random_vec(rng, 0.5)
        base = _random_closed_config(rng, wave, _field(translation, omega, _random_vec(rng)))
        shifted = InterferometerConfig(
            base.path_I,
            base.path_II,
            base.wave,
            _field(translation, omega, _random_vec(rng)),
            base.kind,
        )
        delta = abs(
            two_path_difference(base).total_phase_rad
            - two_path_difference(shifted).total_phase_rad
        )
        return delta, {
            "path_I": _path_dict(base.path_I),
            "path_II": _path_dict(base.path_II),
            "pivots_m": [
                list(base.motion.pivot.as_tuple()),
                list(shifted.motion.pivot.as_tuple()),
            ],
        }

    checks.append(_run_check("pivot-invariance-closed", 50, 1e-9, pivot_invariance))

    def reversal_antisymmetry(_i):
        wave = _random_wave(rng)
        field = _random_field(rng)
        path = BeamPath(tuple(_random_vec(rng) for _ in range(rng.randrange(2, 6))))
        forward = path_phase(wave, path, field).total_phase_rad
        backward = path_phase(wave, path.reversed(), field).total_phase_rad
        scale = max(abs(forward), abs(backward), 1e-300)
        return abs(forward + backward) / scale, {"path": _path_dict(path)}

    checks.append(_run_check("reversal-antisymmetry", 50, 1e-12, reversal_antisymmetry))

    def split_additivity(_i):
        wave = _random_wave(rng)
        field = _random_field(rng)
        a = _random_vec(rng)
        b = _random_vec(rng)
        if math.dist(b, a) < 0.05:
            return 0.0, {}
        t = rng.uniform(0.2, 0.8)
        start, mid, end = (Vec3(*v) for v in (a, [p + (q - p) * t for p, q in zip(a, b)], b))
        whole = segment_phase_increment(wave, start, end, field)
        parts = (
            segment_phase_increment(wave, start, mid, field)
            + segment_phase_increment(wave, mid, end, field)
        )
        # Compare against the segment's gross phase scale; the signed value
        # can cancel to zero when V is nearly perpendicular to the segment.
        speed = math.hypot(*_velocity(field, [(p + q) * 0.5 for p, q in zip(a, b)]))
        gross = (TWO_PI / wave.v_lambda) * speed * math.dist(b, a)
        scale = max(abs(whole), abs(parts), gross, 1e-300)
        return abs(whole - parts) / scale, {"segment": [list(a), list(b)], "split_at": t}

    checks.append(_run_check("split-additivity", 100, 1e-12, split_additivity))

    def motion_linearity(_i):
        wave = _random_wave(rng)
        f1 = _random_field(rng)
        f2 = _random_field(rng)
        path = BeamPath(tuple(_random_vec(rng) for _ in range(4)))
        combined = path_phase(wave, path, f1 + f2)
        separate = (
            path_phase(wave, path, f1).total_phase_rad
            + path_phase(wave, path, f2).total_phase_rad
        )
        alpha = rng.uniform(-2.0, 2.0)
        scaled = path_phase(wave, path, f1.scaled(alpha)).total_phase_rad
        direct = alpha * path_phase(wave, path, f1).total_phase_rad
        # Totals may cancel across segments; measure against the gross scale.
        gross = math.fsum(abs(p) for _, incs in combined.increments for p in incs)
        scale = max(abs(combined.total_phase_rad), abs(separate), abs(scaled), abs(direct),
                    gross, 1e-300)
        violation = max(abs(combined.total_phase_rad - separate), abs(scaled - direct)) / scale
        return violation, {"path": _path_dict(path), "alpha": alpha}

    checks.append(_run_check("motion-linearity", 50, 1e-12, motion_linearity))

    def consistency_chain(_i):
        wave = _random_wave(rng)
        field = _field(_random_vec(rng, 0.3), _random_vec(rng, 0.3), _random_vec(rng))
        a, b = _random_vec(rng), _random_vec(rng)
        if math.dist(b, a) < 0.05:
            return 0.0, {}
        # The rest and moving phases go through lambda and the boost factor,
        # a route independent of the increment's (2*pi / v*lambda) * (V . dL).
        delta = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        rest = rest_phase(wave, math.hypot(*delta))
        velocity = _velocity(field, [(p + q) * 0.5 for p, q in zip(a, b)])
        moving = rest * boost_factor(wave, _dot(velocity, _unit(delta)))
        increment = segment_phase_increment(wave, Vec3(*a), Vec3(*b), field)
        scale = max(abs(rest), abs(moving))
        diff = abs((moving - rest) - increment)
        return diff / scale, {"segment": [list(a), list(b)]}

    checks.append(_run_check("rest-moving-increment-chain", 100, 1e-12, consistency_chain))

    def arm_length_invariance(_i):
        wave = _random_wave(rng)
        along = _scaled(_unit_vec(rng), rng.uniform(0.01, 0.1))
        while True:
            direction = _unit_vec(rng)
            if abs(_dot(direction, _unit(along))) >= 0.1:  # keep V . D resolvable
                break
        opening, velocity = Vec3(*along), Vec3(*_scaled(direction, rng.uniform(0.1, 1.0)))
        motion = MotionField(translation=velocity)
        phases = []
        for arm in (0.05, 0.5, 5.0):
            config = build_config(
                "Fig3bOpen", wave, motion, opening_m=opening, arm_length_m=arm
            )
            phases.append(two_path_difference(config).total_phase_rad)
        expected = open_loop_phase(wave, opening, velocity)
        scale = max(abs(expected), 1e-300)
        violation = max(abs(p - expected) for p in phases) / scale
        return violation, {
            "opening_m": list(along),
            "velocity_mps": list(velocity.as_tuple()),
        }

    checks.append(_run_check("arm-length-invariance", 25, 1e-9, arm_length_invariance))

    def zero_motion(_i):
        wave = _random_wave(rng)
        config = _random_closed_config(rng, wave, MotionField())
        total = abs(two_path_difference(config).total_phase_rad)
        sagnac = abs(sagnac_area_phase(wave, interference_loop(config), config.motion))
        return max(total, sagnac), {"path_I": _path_dict(config.path_I)}

    checks.append(_run_check("zero-motion-zero-phase", 20, 0.0, zero_motion))

    return VerifyReport(seed=seed, checks=tuple(checks))
