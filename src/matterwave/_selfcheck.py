"""The randomized checks behind ``experiment.verify_suite``.

``verify_suite`` imports this module when it runs, so a process that does not
verify never compiles it.
"""
from __future__ import annotations

import math
import operator
import random

from .experiment import PropertyCheck, VerifyReport, build_config
from .kinematics import circulation, curl_fd
from .model import (
    BeamPath,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    Vec3,
    _cross,
    _dot,
    _scaled,
    _unit,
    _velocity,
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
    two_path_difference,
)


# The generators and checks below work on (x, y, z) float triples; a Vec3 is
# built only where a public function takes one. A seed's report depends on the
# order of the draws and of the float operations, so both are kept as they are.
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


def _random_planar_polygon(rng: random.Random, n_vertices: int) -> tuple[tuple, tuple]:
    """Star-shaped planar polygon with a random orientation; returns vertices and normal.

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
    return tuple(verts), normal


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
    path_i = BeamPath(verts[: split + 1])
    path_ii = BeamPath([verts[0]] + verts[split:][::-1])
    return InterferometerConfig(path_i, path_ii, wave, motion)


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


def run_suite(seed: int) -> VerifyReport:
    """The body of ``experiment.verify_suite``; see there."""
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
        verts, normal = _random_planar_polygon(rng, rng.randrange(3, 13))
        while True:
            axis = _unit_vec(rng)
            if abs(_dot(axis, normal)) >= 0.1:  # keep Omega . A away from cancellation
                break
        field = _field(
            _random_vec(rng, 0.5), _scaled(axis, rng.uniform(0.3, 2.0)), _random_vec(rng)
        )
        # The oracles read the split's own loop (the polygon's vertices, in order), as sagnac does.
        mid = len(verts) // 2
        split = InterferometerConfig(
            BeamPath(verts[mid:][::-1]), BeamPath(verts[: mid + 1]), wave, field
        )
        loop = interference_loop(split)
        loop_integral = (TWO_PI / wave.v_lambda) * circulation(field, loop)
        area_form = sagnac_area_phase(wave, loop, field)
        kernel = two_path_difference(split).total_phase_rad
        violation = 0.0
        for a, b in ((loop_integral, area_form), (kernel, area_form)):
            denom = max(abs(a), abs(b))
            if denom > 0.0:
                violation = max(violation, abs(a - b) / denom)
        return violation, {
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
        t1, w1, p1 = _random_vec(rng), _random_vec(rng), _random_vec(rng)
        t2, w2, p2 = _random_vec(rng), _random_vec(rng), _random_vec(rng)
        f1, f2 = _field(t1, w1, p1), _field(t2, w2, p2)
        path = BeamPath(tuple(_random_vec(rng) for _ in range(4)))
        # The sum of two rigid fields is rigid: each pivot folds into the
        # uniform part, T - omega x pivot, and the rates add.
        u1, u2 = map(operator.sub, t1, _cross(w1, p1)), map(operator.sub, t2, _cross(w2, p2))
        summed = _field(map(operator.add, u1, u2), map(operator.add, w1, w2), (0.0, 0.0, 0.0))
        combined = path_phase(wave, path, summed)
        separate = (
            path_phase(wave, path, f1).total_phase_rad
            + path_phase(wave, path, f2).total_phase_rad
        )
        alpha = rng.uniform(-2.0, 2.0)
        rescaled = _field(_scaled(t1, alpha), _scaled(w1, alpha), p1)
        scaled = path_phase(wave, path, rescaled).total_phase_rad
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
