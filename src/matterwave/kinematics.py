"""Rigid-motion velocity fields: evaluation, numerical curl, circulation, area.

These operations are the independent numerical oracles the phase engine is
cross-checked against. All of them are pure functions of immutable inputs.
"""
from __future__ import annotations

from itertools import islice

from .model import BeamPath, GeometryError, MotionField, Vec3, _velocity, exact_sum

DEFAULT_FD_STEP = 1e-6  # m; balances truncation vs cancellation at float64


def velocity_at(field: MotionField, r: Vec3) -> Vec3:
    """Velocity of the apparatus point at position r, in m/s."""
    return Vec3(*_velocity(field, r.as_tuple()))


def curl_fd(field: MotionField, r: Vec3) -> Vec3:
    """Central-difference curl of the velocity field at r, in 1/s, with step DEFAULT_FD_STEP.

    For any rigid field the exact curl is 2*omega everywhere; the central
    difference reproduces it to rounding error because the field is affine
    in position.
    """
    h = DEFAULT_FD_STEP
    x, y, z = r.as_tuple()
    # partials[j] = dV/dx_j
    partials = []
    for dx, dy, dz in ((h, 0.0, 0.0), (0.0, h, 0.0), (0.0, 0.0, h)):
        vp = _velocity(field, (x + dx, y + dy, z + dz))
        vm = _velocity(field, (x - dx, y - dy, z - dz))
        partials.append([(p - m) * (0.5 / h) for p, m in zip(vp, vm)])
    (_, dx_y, dx_z), (dy_x, _, dy_z), (dz_x, dz_y, _) = partials
    return Vec3(dy_z - dz_y, dz_x - dx_z, dx_y - dy_x)


def _loop_point(loop: BeamPath) -> tuple[float, float, float]:
    """The midpoint of the loop's first segment, which the oracles take offsets from: on
    the loop, so offsets are as small as the loop, and not the vertex the kernel takes."""
    return tuple(a + (b - a) * 0.5 for a, b in zip(*loop.vertices[:2]))


def circulation(field: MotionField, loop: BeamPath) -> float:
    """Closed-loop line integral of V along the path, in m^2/s.

    About the point o of ``_loop_point``, V(r) = V(o) + omega x (r - o), whose
    constant part integrates to zero on a closed loop. The trapezoid rule, exact
    for fields affine in position, integrates the rest on each segment a -> b:
    omega x (a - o) and omega x (b - o), averaged, dotted with b - a.
    """
    if not loop.closed():
        raise GeometryError("circulation requires a closed path")
    wx, wy, wz = field.omega.as_tuple()
    ox, oy, oz = _loop_point(loop)
    terms = []
    ax, ay, az = loop.vertices[0]
    rx, ry, rz = ax - ox, ay - oy, az - oz
    vax, vay, vaz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
    for bx, by, bz in islice(loop.vertices, 1, None):
        rx, ry, rz = bx - ox, by - oy, bz - oz
        vbx, vby, vbz = wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx
        terms.append((vax + vbx) * 0.5 * (bx - ax) + (vay + vby) * 0.5 * (by - ay)
                     + (vaz + vbz) * 0.5 * (bz - az))
        ax, ay, az, vax, vay, vaz = bx, by, bz, vbx, vby, vbz
    return exact_sum(terms, "circulation")


def enclosed_area_vector(loop: BeamPath) -> Vec3:
    """Signed vector area of a closed polyline: half the sum of a'_i x a'_(i+1).

    The offsets a' are taken from the point of ``_loop_point``; on a closed
    loop the sum is the same about any point. Orientation follows the
    right-hand rule. For non-planar loops this is the standard projected-area
    generalization; for self-intersecting loops it is the algebraic,
    winding-weighted area. Each axis is summed exactly. The area is kept on the
    loop, so a scan over motions walks it once; a refusal is not kept.
    """
    area = vars(loop).get("_area")
    if area is not None:
        return area
    if not loop.closed():
        raise GeometryError("enclosed area requires a closed path")
    ox, oy, oz = _loop_point(loop)
    terms = tx, ty, tz = [], [], []
    append_x, append_y, append_z = tx.append, ty.append, tz.append
    ax, ay, az = loop.vertices[0]
    ax, ay, az = ax - ox, ay - oy, az - oz
    for bx, by, bz in loop.vertices[1:]:
        bx, by, bz = bx - ox, by - oy, bz - oz
        append_x(ay * bz - az * by)
        append_y(az * bx - ax * bz)
        append_z(ax * by - ay * bx)
        ax, ay, az = bx, by, bz
    area = vars(loop)["_area"] = Vec3(*(0.5 * exact_sum(axis, "vector area") for axis in terms))
    return area
