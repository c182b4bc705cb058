"""Scene files: a JSON description of one interferometer run.

Keys carry their SI unit as a suffix (speed_mps, wavelength_m, omega_radps)
so a scene is unambiguous without a units library. Unknown keys are
rejected, and every validation error names the offending field path.

Schema (JSON syntax)::

    {
      "particle": {"speed_mps": 1.0, "mass_kg": ..., "wavelength_m": ...},
      "motion":   {"translation_mps": [x,y,z], "omega_radps": [x,y,z],
                   "pivot_m": [x,y,z]},
      "geometry": {"kind": "Fig2Rotation" | "Fig3aClosed" | "Fig3bOpen" |
                           "Fig3cIndependent" | "Fig3dExtracted",
                   "side_m": ..., "width_m": ..., "height_m": ...,
                   "opening_m": d | [x,y,z], "arm_length_m": ...}
               or {"path_I_m": [[x,y,z], ...], "path_II_m": [[x,y,z], ...]},
      "output":   {"format": "csv" | "json", "breakdown": true | false}
    }

``particle`` needs ``speed_mps`` plus at least one of ``mass_kg`` /
``wavelength_m``. ``motion`` and ``output`` are optional and default to an
apparatus at rest and JSON output without breakdown. Explicit-path
geometry infers the configuration kind from the endpoints: coincident
starts make a closed loop, separated starts an open one.
"""
from __future__ import annotations

import json
from functools import partial
from typing import NamedTuple

from .experiment import LAYOUT_KINDS, build_config
from .model import (
    BeamPath,
    GeometryError,
    InterferometerConfig,
    MatterWaveError,
    MotionField,
    Vec3,
    make_particle_wave,
)
from .model import _number as _model_number

OUTPUT_FORMATS = ("csv", "json")


class SceneError(MatterWaveError):
    """Malformed scene text or schema violation; message names the field path."""


# The model states what a number, a vector and a beam path are; these readers
# add the shape a scene writes them in, and the field path to what they refuse.
def _number(value, path: str) -> float:
    try:
        return _model_number(value, path)
    except GeometryError as exc:
        raise SceneError(str(exc)) from None


def _vec3(value, path: str) -> Vec3:
    if not isinstance(value, list) or len(value) != 3:
        raise SceneError(f"{path}: expected [x, y, z]")
    try:
        return Vec3(*value)
    except GeometryError as exc:
        raise SceneError(f"{path}: {exc}") from None


def _points(value, path: str) -> BeamPath:
    if not isinstance(value, list) or len(value) < 2:
        raise SceneError(f"{path}: expected a list of at least 2 [x, y, z] points")
    try:
        return BeamPath(value)
    except GeometryError as exc:
        raise SceneError(f"{path}: {exc}") from None


def _opening(value, path: str) -> Vec3 | float:
    return _vec3(value, path) if isinstance(value, list) else _number(value, path)


def _choice(names):
    """Reader of one name out of ``names``."""

    def read(value, path: str) -> str:
        if not isinstance(value, str) or value not in names:
            raise SceneError(f"{path}: expected one of {', '.join(names)}, got {value!r}")
        return value
    return read


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SceneError(f"{path}: expected true or false, got {value!r}")
    return value


# One table per section, walked by parse, serialize and build alike: scene key
# -> (reader, default[, name]). The default is the JSON value read for an absent
# key (None: leave it out; _REQUIRED: refuse). The name is the keyword the value
# is passed on as; builder keys are build_config's own. Order is output order.
_REQUIRED = object()
_PARTICLE = {
    "speed_mps": (_number, _REQUIRED, "speed_v"),
    "mass_kg": (_number, None, "mass"),
    "wavelength_m": (_number, None, "wavelength"),
}
_MOTION = {
    "translation_mps": (_vec3, None, "translation"),
    "omega_radps": (_vec3, None, "omega"),
    "pivot_m": (_vec3, None, "pivot"),
}
_BUILDER = {
    "kind": (_choice(LAYOUT_KINDS), _REQUIRED),
    "side_m": (_number, None),
    "width_m": (_number, None),
    "height_m": (_number, None),
    "arm_length_m": (_number, None),
    "opening_m": (_opening, None),
}
_EXPLICIT = {"path_I_m": (_points, _REQUIRED), "path_II_m": (_points, _REQUIRED)}
_OUTPUT = {"format": (_choice(OUTPUT_FORMATS), "json"), "breakdown": (_bool, False)}


def _read_section(table: dict, obj, path: str) -> dict:
    """Validated values of one section, keyed by scene key in table order."""
    if not isinstance(obj, dict):
        raise SceneError(f"{path}: expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in table:
            raise SceneError(f"{path}.{key}: unknown key (allowed: {', '.join(table)})")
    values = {}
    for key, (read, default, *_) in table.items():
        if key in obj:
            values[key] = read(obj[key], f"{path}.{key}")
        elif default is _REQUIRED:
            raise SceneError(f"{path}.{key}: required field is missing")
        elif default is not None:
            values[key] = read(default, f"{path}.{key}")
    return values


def _renamed(values: dict, table: dict) -> dict:
    """Section values keyed by the names their table passes them on as."""
    return {table[key][2]: value for key, value in values.items()}


def _particle(value, path: str) -> dict:
    particle = _read_section(_PARTICLE, value, path)
    if len(particle) == 1:  # the speed alone fixes no wavelength
        raise SceneError(f"{path}: needs {' or '.join(list(_PARTICLE)[1:])}")
    return particle


def _motion(value, path: str) -> MotionField:
    return MotionField(**_renamed(_read_section(_MOTION, value, path), _MOTION))


def _geometry(value, path: str) -> dict:
    explicit = isinstance(value, dict) and any(key in value for key in _EXPLICIT)
    return _read_section(_EXPLICIT if explicit else _BUILDER, value, path)


_SCENE = {
    "particle": (_particle, _REQUIRED),
    "motion": (_motion, {}),
    "geometry": (_geometry, _REQUIRED),
    "output": (partial(_read_section, _OUTPUT), {}),
}


class SceneDocument(NamedTuple):
    """A validated scene, sections in file order; all but motion map key -> value.
    An explicit geometry holds its two checked ``BeamPath`` objects."""

    particle: dict
    motion: MotionField
    geometry: dict
    output: dict


def parse_scene(text: str) -> SceneDocument:
    """Parse and validate a scene document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting beyond the recursion limit, or an integer literal too long for int().
        raise SceneError(f"unreadable scene: {exc}") from None
    return SceneDocument(**_read_section(_SCENE, raw, "scene"))


def _plain(value) -> dict | list:
    """JSON form of the scene values json cannot write itself: motion, paths and Vec3."""
    if isinstance(value, MotionField):
        return {key: getattr(value, name) for key, (*_, name) in _MOTION.items()}
    if isinstance(value, BeamPath):
        return list(map(list, value.vertices))
    return list(value.as_tuple())


def serialize_scene(doc: SceneDocument) -> str:
    """Canonical JSON for a scene document; parse(serialize(doc)) == doc."""
    return json.dumps(doc._asdict(), indent=2, default=_plain) + "\n"


def config_from_scene(doc: SceneDocument) -> InterferometerConfig:
    """Realize the scene as a validated interferometer configuration."""
    wave = make_particle_wave(**_renamed(doc.particle, _PARTICLE))
    if doc.geometry.keys() == _EXPLICIT.keys():  # the beam starts decide the kind
        path_i, path_ii = (doc.geometry[key] for key in _EXPLICIT)
        return InterferometerConfig(path_i, path_ii, wave, doc.motion)
    return build_config(wave=wave, motion=doc.motion, **doc.geometry)
