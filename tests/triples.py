"""Vector arithmetic on (x, y, z) float triples for the tests' reference routes.

Written out here, apart from the package's own, in the operation order of the
``Vec3`` methods these routes were first written with: each route gives the
floats it gave then.
"""

import math


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
