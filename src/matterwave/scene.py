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
import sys
from dataclasses import dataclass

from .experiment import LAYOUT_KINDS, build_config
from .model import (
    ENDPOINT_TOL,
    BeamPath,
    ConfigKind,
    InterferometerConfig,
    MatterWaveError,
    MotionField,
    Vec3,
    make_particle_wave,
)

OUTPUT_FORMATS = ("csv", "json")


class SceneError(MatterWaveError):
    """Malformed scene text or schema violation; message names the field path."""


@dataclass(frozen=True)
class ParticleSpec:
    speed_mps: float
    mass_kg: float | None = None
    wavelength_m: float | None = None


@dataclass(frozen=True)
class GeometrySpec:
    """Either a builder kind with its dimensions or two explicit paths."""

    kind: str | None = None
    side_m: float | None = None
    width_m: float | None = None
    height_m: float | None = None
    opening_m: Vec3 | float | None = None
    arm_length_m: float | None = None
    path_I_m: tuple[Vec3, ...] | None = None
    path_II_m: tuple[Vec3, ...] | None = None


@dataclass(frozen=True)
class OutputSpec:
    format: str = "json"
    breakdown: bool = False


@dataclass(frozen=True)
class SceneDocument:
    particle: ParticleSpec
    geometry: GeometrySpec
    motion: MotionField = MotionField()
    output: OutputSpec = OutputSpec()


def _expect_object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SceneError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(f"{path}: expected a number, got {value!r}")
    # A comparison, unlike float(), also bounds integers beyond the float range.
    if not abs(value) <= sys.float_info.max:
        raise SceneError(f"{path}: must be finite, got {value!r}")
    return float(value)


def _expect_vec3(value, path: str) -> Vec3:
    if not isinstance(value, list) or len(value) != 3:
        raise SceneError(f"{path}: expected [x, y, z]")
    return Vec3(*(_expect_number(c, f"{path}[{i}]") for i, c in enumerate(value)))


def _expect_bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise SceneError(f"{path}: expected true or false, got {value!r}")
    return value


def _reject_unknown(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SceneError(f"{path}.{key}: unknown key (allowed: {', '.join(allowed)})")


def _parse_particle(obj, path: str) -> ParticleSpec:
    obj = _expect_object(obj, path)
    keys = ("speed_mps", "mass_kg", "wavelength_m")
    _reject_unknown(obj, keys, path)
    if "speed_mps" not in obj:
        raise SceneError(f"{path}.speed_mps: required field is missing")
    numbers = {key: _expect_number(obj[key], f"{path}.{key}") for key in keys if key in obj}
    if numbers.keys() == {"speed_mps"}:
        raise SceneError(f"{path}: needs mass_kg or wavelength_m")
    return ParticleSpec(**numbers)


# Scene key of each MotionField field.
_MOTION_KEYS = {"translation": "translation_mps", "omega": "omega_radps", "pivot": "pivot_m"}


def _parse_motion(obj, path: str) -> MotionField:
    obj = _expect_object(obj, path)
    _reject_unknown(obj, tuple(_MOTION_KEYS.values()), path)
    kwargs = {}
    for name, key in _MOTION_KEYS.items():
        if key in obj:
            kwargs[name] = _expect_vec3(obj[key], f"{path}.{key}")
    return MotionField(**kwargs)


def _parse_path(value, path: str) -> tuple[Vec3, ...]:
    if not isinstance(value, list) or len(value) < 2:
        raise SceneError(f"{path}: expected a list of at least 2 [x, y, z] points")
    return tuple(_expect_vec3(p, f"{path}[{i}]") for i, p in enumerate(value))


_BUILDER_KEYS = ("kind", "side_m", "width_m", "height_m", "opening_m", "arm_length_m")
_EXPLICIT_KEYS = ("path_I_m", "path_II_m")


def _parse_geometry(obj, path: str) -> GeometrySpec:
    obj = _expect_object(obj, path)
    explicit = any(k in obj for k in _EXPLICIT_KEYS)
    if explicit:
        _reject_unknown(obj, _EXPLICIT_KEYS, path)
        for key in _EXPLICIT_KEYS:
            if key not in obj:
                raise SceneError(f"{path}.{key}: required field is missing")
        return GeometrySpec(
            path_I_m=_parse_path(obj["path_I_m"], f"{path}.path_I_m"),
            path_II_m=_parse_path(obj["path_II_m"], f"{path}.path_II_m"),
        )
    _reject_unknown(obj, _BUILDER_KEYS, path)
    if "kind" not in obj:
        raise SceneError(f"{path}.kind: required field is missing")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in LAYOUT_KINDS:
        known = ", ".join(LAYOUT_KINDS)
        raise SceneError(f"{path}.kind: unknown geometry kind {kind!r} (known: {known})")
    dims = {}
    for key in ("side_m", "width_m", "height_m", "arm_length_m"):
        if key in obj:
            dims[key] = _expect_number(obj[key], f"{path}.{key}")
    if "opening_m" in obj:
        value = obj["opening_m"]
        if isinstance(value, list):
            dims["opening_m"] = _expect_vec3(value, f"{path}.opening_m")
        else:
            dims["opening_m"] = _expect_number(value, f"{path}.opening_m")
    return GeometrySpec(kind=kind, **dims)


def _parse_output(obj, path: str) -> OutputSpec:
    obj = _expect_object(obj, path)
    _reject_unknown(obj, ("format", "breakdown"), path)
    fmt = obj.get("format", "json")
    if fmt not in OUTPUT_FORMATS:
        raise SceneError(f"{path}.format: expected one of {OUTPUT_FORMATS}, got {fmt!r}")
    breakdown = _expect_bool(obj["breakdown"], f"{path}.breakdown") if "breakdown" in obj else False
    return OutputSpec(format=fmt, breakdown=breakdown)


def parse_scene(text: str) -> SceneDocument:
    """Parse and validate a scene document from JSON text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting beyond the decoder's recursion limit, or an integer
        # literal longer than int() accepts.
        raise SceneError(f"unreadable scene: {exc}") from None
    raw = _expect_object(raw, "scene")
    _reject_unknown(raw, ("particle", "motion", "geometry", "output"), "scene")
    for key in ("particle", "geometry"):
        if key not in raw:
            raise SceneError(f"scene.{key}: required section is missing")
    return SceneDocument(
        particle=_parse_particle(raw["particle"], "particle"),
        geometry=_parse_geometry(raw["geometry"], "geometry"),
        motion=_parse_motion(raw["motion"], "motion") if "motion" in raw else MotionField(),
        output=_parse_output(raw["output"], "output") if "output" in raw else OutputSpec(),
    )


def serialize_scene(doc: SceneDocument) -> str:
    """Canonical JSON for a scene document; parse(serialize(doc)) == doc."""
    particle: dict = {"speed_mps": doc.particle.speed_mps}
    if doc.particle.mass_kg is not None:
        particle["mass_kg"] = doc.particle.mass_kg
    if doc.particle.wavelength_m is not None:
        particle["wavelength_m"] = doc.particle.wavelength_m

    motion = {key: list(getattr(doc.motion, name).as_tuple()) for name, key in _MOTION_KEYS.items()}

    geometry: dict = {}
    g = doc.geometry
    if g.path_I_m is not None:
        geometry["path_I_m"] = [list(p.as_tuple()) for p in g.path_I_m]
        geometry["path_II_m"] = [list(p.as_tuple()) for p in g.path_II_m]
    else:
        geometry["kind"] = g.kind
        for key in ("side_m", "width_m", "height_m", "arm_length_m"):
            value = getattr(g, key)
            if value is not None:
                geometry[key] = value
        if g.opening_m is not None:
            geometry["opening_m"] = (
                list(g.opening_m.as_tuple()) if isinstance(g.opening_m, Vec3) else g.opening_m
            )

    payload = {
        "particle": particle,
        "motion": motion,
        "geometry": geometry,
        "output": {"format": doc.output.format, "breakdown": doc.output.breakdown},
    }
    return json.dumps(payload, indent=2) + "\n"


def config_from_scene(doc: SceneDocument) -> InterferometerConfig:
    """Realize the scene as a validated interferometer configuration."""
    wave = make_particle_wave(
        doc.particle.speed_mps,
        mass=doc.particle.mass_kg,
        wavelength=doc.particle.wavelength_m,
    )
    g = doc.geometry
    if g.path_I_m is not None:
        path_i = BeamPath(g.path_I_m)
        path_ii = BeamPath(g.path_II_m)
        start_gap = (path_ii.start - path_i.start).norm()
        kind = ConfigKind.CLOSED_LOOP if start_gap <= ENDPOINT_TOL else ConfigKind.OPEN_LOOP
        return InterferometerConfig(path_i, path_ii, wave, doc.motion, kind)
    dims = {
        key: getattr(g, key)
        for key in ("side_m", "width_m", "height_m", "opening_m", "arm_length_m")
        if getattr(g, key) is not None
    }
    return build_config(g.kind, wave, doc.motion, **dims)
