"""Vector arithmetic on (x, y, z) float triples for the tests' reference routes.

Written out here, apart from the package's own, in the operation order of the
``Vec3`` methods these routes were first written with: each route gives the
floats it gave then. ``field_sum`` and ``field_scaled`` build the rigid fields
a linearity check compares, in the operation order of the ``MotionField``
methods they replace.
"""

import math

from matterwave import MotionField, Vec3


def add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def scaled(a, factor):
    return (a[0] * factor, a[1] * factor, a[2] * factor)


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def unit(a):
    n = math.hypot(*a)
    return (a[0] / n, a[1] / n, a[2] / n)


def field_sum(f1, f2):
    """The rigid field f1 + f2: each pivot folds into the uniform part,
    T - omega x pivot, and the rates add."""
    (t1, w1, p1), (t2, w2, p2) = (
        (f.translation.as_tuple(), f.omega.as_tuple(), f.pivot.as_tuple()) for f in (f1, f2)
    )
    base1, base2 = sub(t1, cross(w1, p1)), sub(t2, cross(w2, p2))
    return MotionField(Vec3(*add(base1, base2)), Vec3(*add(w1, w2)))


def field_scaled(field, factor):
    """The rigid field ``factor`` * field, about the same pivot."""
    return MotionField(
        Vec3(*scaled(field.translation.as_tuple(), factor)),
        Vec3(*scaled(field.omega.as_tuple(), factor)),
        field.pivot,
    )
