"""Rigid-motion velocity fields: evaluation, numerical curl, circulation, area.

These operations are the independent numerical oracles the phase engine is
cross-checked against. All of them are pure functions of immutable inputs.
"""
from __future__ import annotations

import math

from .model import BeamPath, GeometryError, MotionField, Vec3, exact_sum

DEFAULT_FD_STEP = 1e-6  # m; balances truncation vs cancellation at float64


def velocity_at(field: MotionField, r: Vec3) -> Vec3:
    """Velocity of the apparatus point at position r, in m/s."""
    return field.translation + field.omega.cross(r - field.pivot)


def curl_fd(field: MotionField, r: Vec3, fd_step: float = DEFAULT_FD_STEP) -> Vec3:
    """Central-difference curl of the velocity field at r, in 1/s.

    For any rigid field the exact curl is 2*omega everywhere; the central
    difference reproduces it to rounding error because the field is affine
    in position.
    """
    if not (fd_step > 0.0 and math.isfinite(fd_step)):
        raise GeometryError(f"fd_step must be positive, got {fd_step!r}")
    h = fd_step
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
    velocity fields affine in position, as every rigid field is.
    """
    if not loop.closed():
        raise GeometryError("circulation requires a closed path")
    terms = []
    for a, b in zip(loop.vertices, loop.vertices[1:]):
        dl = b - a
        v_avg = (velocity_at(field, a) + velocity_at(field, a + dl)) * 0.5
        terms.append(v_avg.dot(dl))
    return exact_sum(terms, "circulation")


def enclosed_area_vector(loop: BeamPath) -> Vec3:
    """Signed vector area of a closed polyline: half the sum of r_i x r_{i+1}.

    Orientation follows the right-hand rule. For non-planar loops this is
    the standard projected-area generalization; for self-intersecting loops
    it is the algebraic, winding-weighted area.
    """
    if not loop.closed():
        raise GeometryError("enclosed area requires a closed path")
    v = loop.vertices
    crosses = [v[i].cross(v[i + 1]).as_tuple() for i in range(len(v) - 1)]
    x, y, z = (0.5 * exact_sum(axis, "vector area") for axis in zip(*crosses))
    return Vec3(x, y, z)
