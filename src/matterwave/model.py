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
HBAR = H_PLANCK / (2.0 * math.pi)
C_LIGHT = 2.99792458e8         # m/s, exact by SI definition
TWO_PI = 2.0 * math.pi

# CODATA-2018 particle masses, kg.
PARTICLE_MASSES_KG = {
    "electron": 9.1093837015e-31,
    "proton": 1.67262192369e-27,
    "neutron": 1.67492749804e-27,
}

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
    """
    if type(value) is bool or not hasattr(type(value), "__float__"):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        raise error(f"{name} is beyond the float range") from None
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


def _require_positive(name: str, value) -> float:
    """``value`` as a positive finite float, or a WaveError that names ``name``."""
    number = _number(value, name, WaveError)
    if not number > 0.0:
        raise WaveError(f"{name} must be positive and finite, got {value!r}")
    return number


def exact_sum(values: list, quantity: str) -> float:
    """math.fsum of the values; a sum beyond the float range is a GeometryError.

    Where a partial sum overflows, the values are summed again divided by a power
    of two (exact for normal values) and the sum scaled back, whatever their order.
    """
    try:
        total = math.fsum(values)
    except OverflowError:  # a partial sum beyond the float range, though each value is finite
        scale = 2.0 ** (len(values).bit_length() + 2)  # then no partial sum of v / scale overflows
        total = math.fsum(v / scale for v in values) * scale  # inf where the total overflows
    except ValueError:  # inf - inf
        total = math.nan
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


def _check_vertices(verts: tuple, first: int = 0) -> None:
    """Refuse non-finite coordinates, overflowing gaps and repeated consecutive
    vertices of float triples; messages number the vertices from ``first``."""
    # Coordinate magnitudes that sum to at most half the float range are finite,
    # and so is every gap between two of them. Only a larger sum (or an inf or
    # nan coordinate) walks the axes, to find what to refuse, if anything.
    if not sum(map(abs, chain.from_iterable(verts))) <= sys.float_info.max / 2.0:
        for name, axis in zip("xyz", zip(*verts)):
            gaps = list(map(operator.sub, axis[1:], axis))
            # A finite first coordinate and finite gaps make every coordinate finite.
            if math.isfinite(axis[0]) and all(map(math.isfinite, gaps)):
                continue
            for i, c in enumerate(axis):
                if not math.isfinite(c):
                    raise GeometryError(f"vertex {first + i}: {name} must be finite, got {c!r}")
            i = first + next(i for i, gap in enumerate(gaps) if not math.isfinite(gap))
            raise GeometryError(f"{name} gap from vertex {i} to {i + 1} overflows the float range")
    # Differences of finite floats vanish only between equal floats.
    same = list(map(operator.eq, verts, verts[1:]))
    if True in same:
        i = first + same.index(True)
        raise GeometryError(f"consecutive vertices {i} and {i + 1} coincide")


class PathMoments(NamedTuple):
    """A beam path compiled for rigid motion.

    In offsets a' = a - origin from the reference vertex, a rigid field reads
    V(r) = U0 + omega x (r - origin), and its line integral along the path is
    U0 . delta + omega . moment, whatever the motion.
    """

    origin: tuple[float, float, float]  # the reference vertex r0
    delta: tuple[float, float, float]   # end - start
    moment: tuple[float, float, float]  # sum of a'_i x a'_(i+1); nan where it overflows
    reach: float                        # half-diagonal of the offsets' bounding box


class BeamPath(_Value):
    """Oriented polyline traversed start to end; segment i is vertices[i] -> vertices[i + 1].

    Vertices are (x, y, z) float triples; the constructor also takes Vec3
    objects or any 3-sequences of numbers, and checks every vertex once.
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
        _check_vertices(verts)
        _set(self, "vertices", verts)

    @cached_property
    def moments(self) -> PathMoments:
        """The path compiled for rigid motion, built on first use and kept.

        The reference vertex is the larger end vertex in tuple order, and the
        moment is summed along the orientation that ends there: a path and its
        reverse share both, so reversal negates a phase exactly. Offsets from
        the reference vertex that leave the float range are refused.
        """
        verts = self.vertices
        flip = verts[0] > verts[-1]
        ordered = verts[::-1] if flip else verts
        origin = ox, oy, oz = ordered[-1]
        # a'_i x a'_(i+1) = a'_i x dL_i, with dL_i taken between the stored
        # vertices: each term's rounding scales with its segment, not the path.
        terms = tx, ty, tz = [], [], []
        append_x, append_y, append_z = tx.append, ty.append, tz.append
        mx = my = mz = 0.0  # the largest offset magnitude per axis; the last offset is 0
        ax, ay, az = ordered[0]
        for bx, by, bz in ordered[1:]:
            x, y, z = ax - ox, ay - oy, az - oz
            dx, dy, dz = bx - ax, by - ay, bz - az
            append_x(y * dz - z * dy)
            append_y(z * dx - x * dz)
            append_z(x * dy - y * dx)
            if abs(x) > mx:
                mx = abs(x)
            if abs(y) > my:
                my = abs(y)
            if abs(z) > mz:
                mz = abs(z)
            ax, ay, az = bx, by, bz
        if math.inf in (mx, my, mz):
            raise GeometryError(
                "vertex offsets from the path's reference vertex overflow the float range"
            )
        moment = []
        for axis in terms:  # each term rounded, the sum exact; nan beyond the float range
            try:
                moment.append(math.fsum(axis))
            except (OverflowError, ValueError):  # overflowed partial sum, or inf - inf
                moment.append(math.nan)
        return PathMoments(
            origin,
            tuple(map(operator.sub, verts[-1], verts[0])),
            tuple(-m for m in moment) if flip else tuple(moment),
            math.hypot(mx, my, mz),
        )

    @classmethod
    def from_points(cls, points) -> "BeamPath":
        return cls(tuple(points))

    def closed(self) -> bool:
        return _coincide(self.vertices[0], self.vertices[-1])

    def reversed(self) -> "BeamPath":
        # Reversal keeps every check true: gaps change sign, neighbours stay neighbours.
        return BeamPath._checked(self.vertices[::-1])

    def joined(self, tail: "BeamPath") -> "BeamPath":
        """This path, then ``tail`` after its first vertex, which stands where this path ends.

        Both paths are checked already, so only the segment joining them is;
        a refusal numbers its vertices as a check of the whole path would.
        """
        _check_vertices((self.vertices[-1], tail.vertices[1]), first=len(self.vertices) - 1)
        return BeamPath._checked(self.vertices + tail.vertices[1:])

    @classmethod
    def _checked(cls, verts: tuple) -> "BeamPath":
        """A path of float triples known to pass ``__post_init__``, built without it."""
        path = object.__new__(cls)
        _set(path, "vertices", verts)
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


class InterferometerConfig(_Value):
    """Two beam paths, the wave they carry, and the motion of the apparatus. Left out,
    ``kind`` is decided by the beam starts: closed where they coincide, else open."""

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
        verts_i, verts_ii = self.path_I.vertices, self.path_II.vertices
        if not _coincide(verts_i[-1], verts_ii[-1]):
            end_gap = math.dist(verts_i[-1], verts_ii[-1])
            raise GeometryError(f"beam paths must share their endpoint, gap is {end_gap:.3e} m")
        start_ii, start_i = verts_ii[0], verts_i[0]
        start_gap, closed = math.dist(start_ii, start_i), _coincide(start_ii, start_i)
        if self.kind is None:
            _set(self, "kind", ConfigKind.CLOSED_LOOP if closed else ConfigKind.OPEN_LOOP)
        if self.kind is ConfigKind.CLOSED_LOOP:
            if not closed:
                raise GeometryError(
                    f"closed-loop beams must share their start, gap is {start_gap:.3e} m"
                )
        elif self.kind is not ConfigKind.OPEN_LOOP:
            raise GeometryError(f"kind must be a ConfigKind or None, got {self.kind!r}")
        elif closed:
            raise GeometryError(
                f"{self.kind.value} requires a nonzero opening between beam starts, gap is "
                f"{start_gap:.3e} m, within the tolerance {_endpoint_tol(start_ii, start_i):.3e} m"
            )
        # An opening whose length alone overflows still has a phase; one whose
        # components do not has none.
        elif start_gap == math.inf and not all(
            map(math.isfinite, map(operator.sub, start_i, start_ii))
        ):
            raise GeometryError("the opening between the beam starts overflows the float range")


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
