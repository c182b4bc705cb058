"""Exact rational oracle for phases of stored float vertices, and the stated bounds.

With float inputs, the line integral sum_i V(m_i) . dL_i of a rigid field
V(r) = T + omega x (r - pivot) along a polyline, m_i the midpoint of segment
i, is a rational number in those inputs: ``fractions.Fraction`` computes it
exactly. Only the prefactor 2*pi / v*lambda is irrational; it is applied
once, as the float the package uses. The oracle works in global coordinates
from the midpoint law and shares no arithmetic with the kernel (moments
about a reference vertex), the trapezoid circulation or the shoelace area.

The ``*_bound`` functions give the error bounds the README states, as
absolute values in the unit of the quantity they bound.
"""
from __future__ import annotations

import math
from fractions import Fraction

EPS = 2.0 ** -52
TWO_PI = 2.0 * math.pi


def _exact(v) -> tuple[Fraction, Fraction, Fraction]:
    return tuple(map(Fraction, v))


def _field(field):
    return (_exact(field.translation.as_tuple()), _exact(field.omega.as_tuple()),
            _exact(field.pivot.as_tuple()))


def line_integral(vertices, field) -> Fraction:
    """sum_i V(m_i) . (b_i - a_i) over the segments a_i -> b_i, exactly (m^2/s)."""
    (tx, ty, tz), (wx, wy, wz), (px, py, pz) = _field(field)
    points = [_exact(v) for v in vertices]
    total = Fraction(0)
    for (ax, ay, az), (bx, by, bz) in zip(points, points[1:]):
        rx, ry, rz = (ax + bx) / 2 - px, (ay + by) / 2 - py, (az + bz) / 2 - pz
        total += (
            (tx + wy * rz - wz * ry) * (bx - ax)
            + (ty + wz * rx - wx * rz) * (by - ay)
            + (tz + wx * ry - wy * rx) * (bz - az)
        )
    return total


def _phase(wave, integral: Fraction) -> float:
    return float(Fraction(TWO_PI / wave.v_lambda) * integral)


def path_phase(wave, path, field) -> float:
    """The phase of a beam path, rounded once from the exact value."""
    return _phase(wave, line_integral(path.vertices, field))


def two_path_difference(config) -> float:
    """Beam II minus beam I, rounded once from the exact value."""
    return _phase(
        config.wave,
        line_integral(config.path_II.vertices, config.motion)
        - line_integral(config.path_I.vertices, config.motion),
    )


def circulation(loop, field) -> float:
    return float(line_integral(loop.vertices, field))


def vector_area(loop) -> tuple[float, float, float]:
    """Half the sum of r_i x r_(i+1), exactly, each component rounded once."""
    points = [_exact(v) for v in loop.vertices]
    x = y = z = Fraction(0)
    for (ax, ay, az), (bx, by, bz) in zip(points, points[1:]):
        x += ay * bz - az * by
        y += az * bx - ax * bz
        z += ax * by - ay * bx
    return (float(x / 2), float(y / 2), float(z / 2))


# ---------------------------------------------------------------------------
# The stated bounds (README, "Precision"), evaluated in plain floats: they
# are scales, not results, so their own rounding does not matter.
# ---------------------------------------------------------------------------


def _norm(v) -> float:
    return math.hypot(*v)


def _speed(field, point) -> float:
    """|T| + |omega| * |point - pivot|: bounds the speed of the field at ``point``."""
    reach = _norm([c - p for c, p in zip(point, field.pivot.as_tuple())])
    return _norm(field.translation.as_tuple()) + _norm(field.omega.as_tuple()) * reach


def _rotation_scale(field, path) -> float:
    """|omega| * sum_i (|a'_i| + |a'_(i+1)|) * |dL_i|, a' the offsets from the path's
    reference vertex, the larger end vertex in tuple order."""
    omega = _norm(field.omega.as_tuple())
    if not omega:  # no rotation: the moments do not enter, however large
        return 0.0
    verts = path.vertices
    r0 = max(verts[0], verts[-1])
    offsets = [_norm([c - o for c, o in zip(v, r0)]) for v in verts]
    lengths = [_norm([b - a for a, b in zip(p, q)]) for p, q in zip(verts, verts[1:])]
    return omega * math.fsum(
        (p + q) * d for p, q, d in zip(offsets, offsets[1:], lengths)
    )


def _bound(wave, scale: float) -> float:
    return 16.0 * EPS * (TWO_PI / wave.v_lambda) * scale


def path_bound(wave, field, path) -> float:
    """Bound on ``path_phase``: U * |delta| + the rotation scale, U the speed bound at r0."""
    verts = path.vertices
    delta = _norm([e - s for s, e in zip(verts[0], verts[-1])])
    return _bound(wave, _speed(field, max(verts[0], verts[-1])) * delta + _rotation_scale(field, path))


def two_path_bound(config) -> float:
    """Bound on ``two_path_difference``: U * |D| + |omega| * |gap| * |delta_I| + the
    rotation scales of both beams, U the speed bound at beam II's end, gap = end_I -
    end_II and D = (start_I - start_II) - gap, the opening."""
    field, path_i, path_ii = config.motion, config.path_I, config.path_II
    gap = [a - b for a, b in zip(path_i.vertices[-1], path_ii.vertices[-1])]
    opening = [a - b - g for a, b, g in zip(path_i.vertices[0], path_ii.vertices[0], gap)]
    delta_i = _norm([e - s for s, e in zip(path_i.vertices[0], path_i.vertices[-1])])
    scale = (
        _speed(field, path_ii.vertices[-1]) * _norm(opening)
        + _norm(field.omega.as_tuple()) * _norm(gap) * delta_i
        + _rotation_scale(field, path_i)
        + _rotation_scale(field, path_ii)
    )
    return _bound(config.wave, scale)


def breakdown_bound(wave, field, *paths) -> float:
    """Bound on the sum of the per-segment breakdown of the given beams: U * length +
    the rotation scale per beam, U the speed bound at each beam's reference vertex."""
    scale = 0.0
    for path in paths:
        verts = path.vertices
        length = math.fsum(_norm([b - a for a, b in zip(p, q)]) for p, q in zip(verts, verts[1:]))
        scale += _speed(field, max(verts[0], verts[-1])) * length + _rotation_scale(field, path)
    return _bound(wave, scale)


def _loop_offsets(loop) -> list[float]:
    """|v - o| for each vertex v, o the midpoint of the loop's first segment, the point
    the oracles take offsets from."""
    a, b = loop.vertices[:2]
    o = [p + (q - p) * 0.5 for p, q in zip(a, b)]
    return [_norm([c - m for c, m in zip(v, o)]) for v in loop.vertices]


def circulation_bound(loop, field) -> float:
    """16 eps * |omega| * sum_i max(|a_i - o|, |b_i - o|) * |b_i - a_i| (m^2/s), on a loop
    that closes bit for bit."""
    verts, offsets = loop.vertices, _loop_offsets(loop)
    return 16.0 * EPS * _norm(field.omega.as_tuple()) * math.fsum(
        max(p, q) * _norm([y - x for x, y in zip(a, b)])
        for p, q, a, b in zip(offsets, offsets[1:], verts, verts[1:])
    )


def area_bound(loop) -> float:
    """4 eps * sum_i |a_i - o| |a_(i+1) - o|, per component (m^2)."""
    offsets = _loop_offsets(loop)
    return 4.0 * EPS * math.fsum(p * q for p, q in zip(offsets, offsets[1:]))


def sagnac_bound(config, loop, phase: float) -> float:
    """Bound on the distance of either of sagnac's forms on the interference loop from the
    two-path phase ``phase``: the kernel's bound; the oracles' bounds as phases, and 8 eps
    of the phase for the roundings that make a phase of them; and k * |gap| * (U + |omega|
    * |c - end_II|), gap = end_I - end_II, U the speed bound at beam II's end and c beam I's
    last but one vertex, for the loop's join, which goes from beam II's end straight to c."""
    field, k = config.motion, TWO_PI / config.wave.v_lambda
    end_ii, (c, end_i) = config.path_II.vertices[-1], config.path_I.vertices[-2:]
    omega = _norm(field.omega.as_tuple())
    oracles = max(circulation_bound(loop, field), 2.0 * omega * math.sqrt(3.0) * area_bound(loop))
    gap = _norm([a - b for a, b in zip(end_i, end_ii)])
    join = gap * (_speed(field, end_ii) + omega * _norm([a - b for a, b in zip(c, end_ii)]))
    return two_path_bound(config) + k * (oracles + join) + 8.0 * EPS * abs(phase)
