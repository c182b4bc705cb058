"""Rigid-motion velocity fields: evaluation, numerical curl, circulation, area.

These operations are the independent numerical oracles the phase engine is
cross-checked against. All of them are pure functions of immutable inputs.
"""
from __future__ import annotations

from itertools import islice

from .model import BeamPath, GeometryError, MotionField, Vec3, exact_sum

DEFAULT_FD_STEP = 1e-6  # m; balances truncation vs cancellation at float64


def velocity_at(field: MotionField, r: Vec3) -> Vec3:
    """Velocity of the apparatus point at position r, in m/s."""
    return field.translation + field.omega.cross(r - field.pivot)


def curl_fd(field: MotionField, r: Vec3) -> Vec3:
    """Central-difference curl of the velocity field at r, in 1/s, with step DEFAULT_FD_STEP.

    For any rigid field the exact curl is 2*omega everywhere; the central
    difference reproduces it to rounding error because the field is affine
    in position.
    """
    h = DEFAULT_FD_STEP
    axes = (Vec3(h, 0.0, 0.0), Vec3(0.0, h, 0.0), Vec3(0.0, 0.0, h))
    # partial[j] = dV/dx_j as a Vec3
    partials = []
    for step in axes:
        vp = velocity_at(field, r + step)
        vm = velocity_at(field, r - step)
        partials.append((vp - vm) * (0.5 / h))
    d_dx, d_dy, d_dz = partials
    return Vec3(
        d_dy.z - d_dz.y,
        d_dz.x - d_dx.z,
        d_dx.y - d_dy.x,
    )


def circulation(field: MotionField, loop: BeamPath) -> float:
    """Closed-loop line integral of V along the path, in m^2/s.

    Uses the trapezoid rule on each straight segment, which is exact for
    velocity fields affine in position, as every rigid field is. On plain
    floats in the operation order of ``velocity_at`` and ``Vec3``: the
    velocity at a and at a + dl, averaged, dotted with dl.
    """
    if not loop.closed():
        raise GeometryError("circulation requires a closed path")
    (tx, ty, tz), (wx, wy, wz), (px, py, pz) = (
        field.translation.as_tuple(), field.omega.as_tuple(), field.pivot.as_tuple()
    )
    terms = []
    for (ax, ay, az), (bx, by, bz) in zip(loop.vertices, islice(loop.vertices, 1, None)):
        dx, dy, dz = bx - ax, by - ay, bz - az
        rx, ry, rz = ax - px, ay - py, az - pz
        vax = tx + (wy * rz - wz * ry)
        vay = ty + (wz * rx - wx * rz)
        vaz = tz + (wx * ry - wy * rx)
        rx, ry, rz = (ax + dx) - px, (ay + dy) - py, (az + dz) - pz
        vbx = tx + (wy * rz - wz * ry)
        vby = ty + (wz * rx - wx * rz)
        vbz = tz + (wx * ry - wy * rx)
        terms.append(
            (vax + vbx) * 0.5 * dx + (vay + vby) * 0.5 * dy + (vaz + vbz) * 0.5 * dz
        )
    return exact_sum(terms, "circulation")


def enclosed_area_vector(loop: BeamPath) -> Vec3:
    """Signed vector area of a closed polyline: half the sum of r_i x r_{i+1}.

    Orientation follows the right-hand rule. For non-planar loops this is
    the standard projected-area generalization; for self-intersecting loops
    it is the algebraic, winding-weighted area. Each axis is summed exactly.
    """
    if not loop.closed():
        raise GeometryError("enclosed area requires a closed path")
    terms = tx, ty, tz = [], [], []
    append_x, append_y, append_z = tx.append, ty.append, tz.append
    ax, ay, az = loop.vertices[0]
    for bx, by, bz in loop.vertices[1:]:
        append_x(ay * bz - az * by)
        append_y(az * bx - ax * bz)
        append_z(ax * by - ay * bx)
        ax, ay, az = bx, by, bz
    return Vec3(*(0.5 * exact_sum(axis, "vector area") for axis in terms))
