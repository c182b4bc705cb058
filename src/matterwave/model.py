"""Core domain types, unit conventions, and physical constants.

Everything is strict SI (m, s, kg, rad); no unit conversion happens inside
the engine. All types are immutable after construction and safe to share
between concurrent tasks.
"""
from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Iterable, Mapping
from enum import Enum
from functools import cached_property
from itertools import chain, count
from typing import NamedTuple

# Physical constants (exact SI values where defined exact).
H_PLANCK = 6.62607015e-34      # J*s, exact by SI definition
C_LIGHT = 2.99792458e8         # m/s, exact by SI definition
TWO_PI = 2.0 * math.pi

# Geometric coincidence tolerance. Far below any physical scale in use,
# so ideal-geometry checks never bite on real configurations.
ENDPOINT_TOL = 1e-12  # m

# Relative mismatch allowed between a user-supplied wavelength and the
# de Broglie wavelength implied by mass and speed.
WAVE_CONSISTENCY_RTOL = 1e-9


class MatterWaveError(Exception):
    """Base class for every error raised by this package."""


class WaveError(MatterWaveError):
    """Invalid particle-wave parameters."""


class GeometryError(MatterWaveError):
    """Degenerate or inconsistent geometry."""


class BoostDomainError(MatterWaveError):
    """Segment speed drives the wavelength-compression factor to zero or below.

    The slow-segment model assumes the segment speed component along the
    beam stays above -v; outside that regime the formulas do not apply and
    the engine fails loudly instead of extrapolating.
    """


def _number(value, name: str, error: type = GeometryError) -> float:
    """``value`` as a finite float, or an ``error`` (GeometryError unless given) naming ``name``.

    A number is anything float() converts by its own __float__ (numpy scalars
    too), except a bool; a str converts only by parsing, and None not at all.
    A __float__ that raises, as a signaling Decimal NaN's does, is no number.
    """
    if type(value) is bool or not hasattr(type(value), "__float__"):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise error(f"{name} is beyond the float range") from None
    except (TypeError, ValueError):  # a __float__ that raises, or returns no float
        raise error(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be finite, got {value!r}")
    return number


def _endpoint_tol(p, q) -> float:
    """The distance within which the float triples p and q coincide: ENDPOINT_TOL, or
    4 ulps of their largest coordinate where that is more (beyond about 2e3 m)."""
    return max(ENDPOINT_TOL, 4.0 * math.ulp(max(map(abs, p + q))))


def _coincide(p, q) -> bool:
    """Whether the float triples p and q are one point, within ``_endpoint_tol``."""
    return math.dist(p, q) <= _endpoint_tol(p, q)


def _require_positive(name: str, value, error: type = WaveError) -> float:
    """``value`` as a positive finite float, or an ``error`` (WaveError unless given)
    that names ``name``."""
    number = _number(value, name, error)
    if not number > 0.0:
        raise error(f"{name} must be positive and finite, got {value!r}")
    return number


def _fsum(values: list) -> float:
    """math.fsum of the values, whatever their order; inf or nan where the sum is not finite.

    Where a partial sum overflows, the values are summed again divided by a power
    of two (exact for normal values) and the sum scaled back.
    """
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum of finite values beyond the float range
        scale = 2.0 ** (len(values).bit_length() + 2)  # then no partial sum of v / scale overflows
        return _fsum([v / scale for v in values]) * scale  # inf where the total overflows
    except ValueError:  # inf - inf
        return math.nan


def exact_sum(values: list, quantity: str) -> float:
    """``_fsum`` of the values; a sum beyond the float range is a GeometryError."""
    total = _fsum(values)
    if not math.isfinite(total):  # also an inf or nan term
        raise GeometryError(f"{quantity} overflows the float range")
    return total


_set = object.__setattr__  # how a constructor stores a field past the refusal below


class _Value:
    """The value behaviour of the classes below, over the attributes named in
    ``_fields``: equality with an instance of the same class, a hash, a keyword
    repr, and a refusal to assign or delete after construction."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # ``_key`` is the tuple of field values, read in one call.
        get = operator.attrgetter(*cls._fields)
        cls._key = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        items = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({items})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vec3(_Value):
    """Immutable 3-vector. Units depend on context (m, m/s, or rad/s)."""

    _fields = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)
        self.__post_init__()

    def __post_init__(self) -> None:
        # Floats whose sum is finite are finite, and are kept as given.
        if type(self.x) is type(self.y) is type(self.z) is float and math.isfinite(
            self.x + self.y + self.z
        ):
            return
        for name in self._fields:
            _set(self, name, _number(getattr(self, name), name))

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.hypot(self.x, self.y, self.z)  # no overflow or underflow of squares

    def unit(self) -> "Vec3":
        return Vec3(*_unit(self.as_tuple()))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


# The package's vector arithmetic, on (x, y, z) float triples; a Vec3 is only
# what a user hands in or gets out. Results depend on the order of the float
# operations, which each function fixes.
def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> tuple[float, float, float]:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _scaled(v, factor: float) -> tuple[float, float, float]:
    return (v[0] * factor, v[1] * factor, v[2] * factor)


def _unit(v) -> tuple[float, float, float]:
    """v / |v|. Where |v| overflows or is subnormal, v is first divided by its largest
    component magnitude, so that the direction keeps its digits."""
    n = math.hypot(*v)
    if not sys.float_info.min <= n < math.inf:
        m = max(map(abs, v))
        if m == 0.0:
            raise GeometryError("cannot normalize a zero vector")
        v = (v[0] / m, v[1] / m, v[2] / m)
        n = math.hypot(*v)
    return (v[0] / n, v[1] / n, v[2] / n)


def _cos_between(a, b) -> float:
    """cos of the angle between the nonzero a and b: _unit(a) . _unit(b), whose rounding
    can leave [-1, 1], held to it."""
    return max(-1.0, min(1.0, _dot(_unit(a), _unit(b))))


class ParticleWave(_Value):
    """Particle species and wave parameters.

    ``v_lambda`` is the product of particle speed and wavelength, the single
    combination every phase formula depends on. When a mass is recorded,
    the wavelength satisfies the de Broglie relation lambda = h/(m*v), so
    v_lambda = h/m.
    """

    _fields = ("speed_v", "wavelength_lambda", "mass", "v_lambda")  # m/s, m, kg, m^2/s

    def __init__(self, speed_v: float, wavelength_lambda: float, mass: float | None = None) -> None:
        _set(self, "speed_v", speed_v)
        _set(self, "wavelength_lambda", wavelength_lambda)
        _set(self, "mass", mass)
        self.__post_init__()

    def __post_init__(self) -> None:
        _set(self, "speed_v", _require_positive("speed_v", self.speed_v))
        if self.mass is not None:
            _set(self, "mass", _require_positive("mass", self.mass))
        wavelength = _require_positive("wavelength_lambda", self.wavelength_lambda)
        _set(self, "wavelength_lambda", wavelength)
        v_lambda = self.speed_v * self.wavelength_lambda
        # Every phase divides by v_lambda: a product that underflows to zero
        # or a subnormal, or overflows, has no usable reciprocal.
        if not (sys.float_info.min <= v_lambda < math.inf):
            raise WaveError(
                f"speed_v * wavelength_lambda = {v_lambda!r} is outside the normal float range"
            )
        if self.mass is not None:
            # |lambda - h/(m*v)| / (h/(m*v)), written without dividing by
            # m*v, which can underflow to zero.
            rel = abs(v_lambda * self.mass - H_PLANCK) / H_PLANCK
            if not rel <= WAVE_CONSISTENCY_RTOL:
                raise WaveError(
                    "wavelength inconsistent with de Broglie relation: "
                    f"given {self.wavelength_lambda!r}, speed {self.speed_v!r}, "
                    f"mass {self.mass!r} (relative mismatch {rel:.3e})"
                )
        _set(self, "v_lambda", v_lambda)


def make_particle_wave(
    speed_v: float,
    *,
    mass: float | None = None,
    wavelength: float | None = None,
) -> ParticleWave:
    """Build a ParticleWave from speed plus mass and/or wavelength.

    If the wavelength is omitted it is computed from the de Broglie
    relation h/(mass*speed). If both mass and wavelength are given they
    must agree to 1e-9 relative; the stored wavelength is then recomputed
    from the mass so the de Broglie relation holds exactly as stored.
    ParticleWave validates every value.
    """
    if mass is None and wavelength is None:
        raise WaveError("at least one of mass or wavelength is required")
    if mass is not None:
        if wavelength is not None:
            ParticleWave(speed_v, wavelength, mass)  # raises unless the pair agrees
        speed_v = _require_positive("speed_v", speed_v)
        momentum = _require_positive("mass", mass) * speed_v
        # A momentum that underflows to zero leaves an infinite wavelength for
        # ParticleWave to reject.
        wavelength = H_PLANCK / momentum if momentum > 0.0 else math.inf
    return ParticleWave(speed_v=speed_v, wavelength_lambda=wavelength, mass=mass)


def _triple(point, index: int) -> tuple[float, float, float]:
    """Vertex ``index`` as an (x, y, z) float triple, from a Vec3 or any 3 numbers.

    Three floats are kept as given; other coordinates go through ``_number``.
    A str or a mapping, though iterable, is not a vertex.
    """
    if isinstance(point, Vec3):
        return (point.x, point.y, point.z)
    if isinstance(point, (str, bytes, Mapping)) or not isinstance(point, Iterable):
        raise GeometryError(f"vertex {index}: expected 3 components, got {point!r}")
    xyz = tuple(point)
    if len(xyz) != 3:
        raise GeometryError(f"vertex {index}: expected 3 components, got {len(xyz)}")
    if type(xyz[0]) is type(xyz[1]) is type(xyz[2]) is float:
        return xyz
    return tuple(_number(c, f"vertex {index}: {name}") for c, name in zip(xyz, "xyz"))


def _check_vertices(verts: tuple) -> tuple[tuple[float, float], ...]:
    """Refuse non-finite coordinates, an axis whose span leaves the float range and repeated
    consecutive vertices of float triples; return their box, each axis's (min, max).

    A finite span bounds every gap and every offset between two vertices: each is
    the rounding of a difference no larger than the span's, and rounding keeps order.
    """
    box = []
    for name, axis in zip("xyz", zip(*verts)):
        if not math.isfinite(sum(axis)):  # an inf or nan coordinate, or a sum that overflows
            for i, c in enumerate(axis):
                if not math.isfinite(c):
                    raise GeometryError(f"vertex {i}: {name} must be finite, got {c!r}")
        low, high = min(axis), max(axis)
        if high - low == math.inf:
            i, j = sorted((axis.index(low), axis.index(high)))
            raise GeometryError(f"{name} span from vertex {i} to vertex {j} overflows the float range")
        box.append((low, high))
    # Differences of finite floats vanish only between equal floats.
    same = list(map(operator.eq, verts, verts[1:]))
    if True in same:
        i = same.index(True)
        raise GeometryError(f"consecutive vertices {i} and {i + 1} coincide")
    return tuple(box)


class BeamPath(_Value):
    """Oriented polyline traversed start to end; segment i is vertices[i] -> vertices[i + 1].

    Vertices are (x, y, z) float triples; the constructor also takes Vec3
    objects or any 3-sequences of numbers, and checks every vertex once.
    ``box``, set then, is each axis's (min, max); a path built from checked
    ones may keep a wider box that holds them.
    """

    _fields = ("vertices",)

    def __init__(self, vertices) -> None:
        _set(self, "vertices", vertices)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not isinstance(self.vertices, Iterable):
            raise GeometryError(f"expected a sequence of vertices, got {self.vertices!r}")
        verts = tuple(self.vertices)
        # Lists or tuples of three floats are checked by type in bulk; anything
        # else is read one vertex at a time, naming what it refuses.
        if (
            set(map(type, verts)) <= {list, tuple}
            and set(map(len, verts)) == {3}
            and set(map(type, chain.from_iterable(verts))) == {float}
        ):
            verts = tuple(map(tuple, verts))
        else:
            verts = tuple(map(_triple, verts, count()))
        if len(verts) < 2:
            raise GeometryError("a beam path needs at least 2 vertices")
        _set(self, "box", _check_vertices(verts))
        _set(self, "vertices", verts)

    @cached_property
    def extent(self) -> tuple[tuple[float, float, float], float]:
        """The reference vertex, the larger end vertex in tuple order, and a reach no vertex
        lies farther from it than: the half-diagonal of the box's offsets from it."""
        origin = max(self.vertices[-1], self.vertices[0])
        return origin, math.hypot(*(max(high - o, o - low) for (low, high), o in zip(self.box, origin)))

    @cached_property
    def moments(self) -> tuple[float, float, float]:
        """The sum of a'_i x a'_(i+1) over the vertex offsets a' from the reference vertex,
        inf or nan where it overflows, built on first use and kept. It is summed along the
        orientation that ends at the reference vertex (see ``extent``): a path and its
        reverse share both, so reversal negates a phase exactly."""
        verts = self.vertices
        ox, oy, oz = self.extent[0]
        flip = verts[0] > verts[-1]
        ordered = verts[::-1] if flip else verts
        # a'_i x a'_(i+1) = a'_i x dL_i, with dL_i taken between the stored
        # vertices: each term's rounding scales with its segment, not the path.
        terms = tx, ty, tz = [], [], []
        append_x, append_y, append_z = tx.append, ty.append, tz.append
        ax, ay, az = ordered[0]
        for bx, by, bz in ordered[1:]:
            x, y, z = ax - ox, ay - oy, az - oz
            dx, dy, dz = bx - ax, by - ay, bz - az
            append_x(y * dz - z * dy)
            append_y(z * dx - x * dz)
            append_z(x * dy - y * dx)
            ax, ay, az = bx, by, bz
        moment = tuple(map(_fsum, terms))  # each term rounded, the sum exact
        return tuple(-m for m in moment) if flip else moment

    @classmethod
    def from_points(cls, points) -> "BeamPath":
        return cls(tuple(points))

    def closed(self) -> bool:
        return _coincide(self.vertices[0], self.vertices[-1])

    def reversed(self) -> "BeamPath":
        # Reversed, the vertices keep their box and their neighbours: every check still holds.
        return BeamPath._checked(self.vertices[::-1], self.box)

    @classmethod
    def _checked(cls, verts: tuple, box: tuple) -> "BeamPath":
        """A path of float triples known to pass ``__post_init__``, in a box that holds them."""
        path = object.__new__(cls)
        _set(path, "vertices", verts)
        _set(path, "box", box)
        return path


_ZERO = Vec3(0.0, 0.0, 0.0)


def _require_types(value: _Value, classes: tuple) -> None:
    """Refuse a field of ``value`` that is not an instance of its class in ``classes``."""
    for name, field, cls in zip(value._fields, value._key, classes):
        if not isinstance(field, cls):
            raise GeometryError(f"{name} must be a {cls.__name__}, got {field!r}")


class MotionField(_Value):
    """Rigid-motion velocity field V(r) = translation + omega x (r - pivot)."""

    _fields = ("translation", "omega", "pivot")  # m/s, rad/s, m

    def __init__(self, translation: Vec3 = _ZERO, omega: Vec3 = _ZERO, pivot: Vec3 = _ZERO) -> None:
        _set(self, "translation", translation)
        _set(self, "omega", omega)
        _set(self, "pivot", pivot)
        if not type(translation) is type(omega) is type(pivot) is Vec3:
            _require_types(self, (Vec3, Vec3, Vec3))


def _velocity(field: MotionField, r) -> tuple[float, float, float]:
    """The field's velocity T + omega x (r - pivot) at the float triple r, as a triple."""
    (tx, ty, tz), (wx, wy, wz), (px, py, pz) = (
        field.translation.as_tuple(), field.omega.as_tuple(), field.pivot.as_tuple()
    )
    rx, ry, rz = r[0] - px, r[1] - py, r[2] - pz
    return (tx + (wy * rz - wz * ry), ty + (wz * rx - wx * rz), tz + (wx * ry - wy * rx))


class ConfigKind(Enum):
    """Interferometer archetypes.

    CLOSED_LOOP: both beams share start and end (Mach-Zehnder style loop).
    OPEN_LOOP: beam starts separated by an opening, common endpoint. Two
    independent sources and two beams extracted from one wide beam are
    both open loops: they share this phase model.
    """

    CLOSED_LOOP = "ClosedLoop"
    OPEN_LOOP = "OpenLoop"


def _delta(path: BeamPath) -> tuple[float, float, float]:
    """The path's end minus its start."""
    (ax, ay, az), (bx, by, bz) = path.vertices[0], path.vertices[-1]
    return (bx - ax, by - ay, bz - az)


class _Pair:
    """What beams I and II decide together, kept on beam II while beam I's vertex tuple and box
    are the ones it was made from (``BeamPath._checked`` can pair a tuple with a wider box). It
    never holds beam I: when both beams are one path, that would be a reference cycle. Making
    it is every check of the pair, in order: the shared end, the kind from the beam starts, a
    given ``kind`` against that one, the joint box. A refused pair keeps nothing."""

    def __init__(self, path_i: BeamPath, path_ii: BeamPath, kind: ConfigKind | None) -> None:
        verts_i, verts_ii = self.vertices_I, self.vertices_II = path_i.vertices, path_ii.vertices
        if not _coincide(verts_i[-1], verts_ii[-1]):
            end_gap = math.dist(verts_i[-1], verts_ii[-1])
            raise GeometryError(f"beam paths must share their endpoint, gap is {end_gap:.3e} m")
        start_ii, start_i = verts_ii[0], verts_i[0]
        self.kind = ConfigKind.CLOSED_LOOP if _coincide(start_ii, start_i) else ConfigKind.OPEN_LOOP
        if kind is not self.kind and kind is not None:
            raise GeometryError(
                f"kind must be {self.kind} for beam starts {math.dist(start_ii, start_i):.3e} m "
                f"apart (tolerance {_endpoint_tol(start_ii, start_i):.3e} m), got {kind!r}"
            )
        # The joint box's span on an axis is one beam's own, which fits, or one beam's high end
        # less the other's low end; where it fits, so does every offset between two vertices.
        for name, (low_i, high_i), (low_ii, high_ii) in zip("xyz", path_i.box, path_ii.box):
            if high_i - low_ii == math.inf or high_ii - low_i == math.inf:
                raise GeometryError(f"{name} span of the two beams together overflows the float range")
        self.box_I, self.box_II = path_i.box, path_ii.box
        self.end_gap = tuple(map(operator.sub, verts_i[-1], verts_ii[-1]))
        opening = map(operator.sub, verts_i[0], verts_ii[0])
        self.delta_difference = tuple(map(operator.sub, opening, self.end_gap))  # delta_II - delta_I
        self.delta_I = _delta(path_i)

    @cached_property
    def opening_vector(self) -> Vec3:
        return Vec3(*map(operator.sub, self.vertices_I[0], self.vertices_II[0]))

    @cached_property
    def loop(self) -> BeamPath:
        """The closed contour beam II forward then beam I backward, in the joint box: beam I
        from its last but one vertex, or from the one before where that repeats beam II's
        end, a segment of zero length. Every check of it is the pair's."""
        start = -3 if self.vertices_I[-2] == self.vertices_II[-1] else -2
        box = tuple((min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(self.box_II, self.box_I))
        return BeamPath._checked(self.vertices_II + self.vertices_I[start::-1], box)


class InterferometerConfig(_Value):
    """Two beam paths, the wave they carry, and the motion of the apparatus. The beam starts
    decide ``kind``: closed where they coincide, else open; a kind that is given must agree."""

    _fields = ("path_I", "path_II", "wave", "motion", "kind")

    def __init__(
        self, path_I: BeamPath, path_II: BeamPath, wave: ParticleWave, motion: MotionField,
        kind: ConfigKind | None = None,
    ) -> None:
        _set(self, "path_I", path_I)
        _set(self, "path_II", path_II)
        _set(self, "wave", wave)
        _set(self, "motion", motion)
        _set(self, "kind", kind)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not (
            type(self.path_I) is type(self.path_II) is BeamPath
            and type(self.wave) is ParticleWave
            and type(self.motion) is MotionField
        ):
            _require_types(self, (BeamPath, BeamPath, ParticleWave, MotionField))
        pair, path_i = vars(self.path_II).get("_pair"), self.path_I
        known = pair is not None and pair.vertices_I is path_i.vertices and pair.box_I is path_i.box
        if not known or (self.kind is not None and self.kind is not pair.kind):
            # A known pair given another kind is refused by a new record, before it is stored.
            pair = vars(self.path_II)["_pair"] = _Pair(path_i, self.path_II, self.kind)
        _set(self, "kind", pair.kind)
        _set(self, "_pair", pair)


class SegmentContribution(NamedTuple):
    """Signed phase contribution of one segment as it enters a total."""

    segment_index: int
    path_id: str
    phase_rad: float


class PhaseResult(_Value):
    """Phase difference in radians, with a per-segment breakdown built when read.

    ``walk`` returns, per beam in breakdown order, its label and the signed
    increments with which its segments enter the total; ``increments`` is
    that result, computed on first read and kept. The increments sum to
    ``total_phase_rad`` within the kernel's stated error bound, not bit for
    bit. Phases are unwrapped full radians, never reduced mod 2*pi.
    """

    _fields = ("total_phase_rad", "v_lambda")  # walk is left out of ==, hash and repr

    def __init__(self, total_phase_rad: float, v_lambda: float, walk: Callable[[], tuple]) -> None:
        _set(self, "total_phase_rad", total_phase_rad)
        _set(self, "v_lambda", v_lambda)
        _set(self, "walk", walk)

    @cached_property
    def increments(self) -> tuple[tuple[str, tuple[float, ...]], ...]:
        return self.walk()

    @property
    def per_segment(self) -> tuple[SegmentContribution, ...]:
        """The breakdown, one entry per segment, built when read."""
        return tuple(
            SegmentContribution(segment_index=index, path_id=path_id, phase_rad=phase)
            for path_id, incs in self.increments
            for index, phase in enumerate(incs)
        )
