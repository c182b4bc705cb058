"""Seeded inputs for the matterwave benchmark.

Everything here is a pure function of the workload seed: the same seed
writes byte-identical files. Nothing in this module imports matterwave; the
program under test only ever sees the files and argument lists built here.

A *case* is one operation the benchmark repeats. CLI cases carry the argv
given to ``python -m matterwave.cli``; lib-scan cases are (geometry, motion)
pairs evaluated inside one scan child.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import reference

NEUTRON_KG = 1.67492749804e-27
EARTH_RADIUS_M = 6.4e6
EARTH_OMEGA_RADPS = 7.2921e-5
EARTH_SIDES_M = (1e-2, 1e-3, 1e-4)
GOLDEN_SCENES = (
    "closed_translation.json",
    "earth_rotation_square.json",
    "explicit_triangle.json",
    "slow_atom_open.json",
)
SMALL_SEGMENTS = 1_000
LARGE_SEGMENTS = 100_000
# Multiple of the one-fringe speed used as --vmax; keeps every sweep grid
# point away from a fringe count of exactly 1 so the bracket is unambiguous.
SWEEP_VMAX_FRINGES = 2.37

# Operations that fail at the seed commit. They stay in the workload so that
# the fix shows up as a lower failure count (see ROADMAP items C and D).
DEFECT_C = "ROADMAP C: loop far from the origin loses precision"
DEFECT_D = "ROADMAP D: error contract"


@dataclass
class Case:
    """One repeatable CLI operation and what a correct run of it looks like."""

    name: str
    argv: list[str]
    op: str                          # subcommand checked against the reference, or "refuse"
    fmt: str = "json"
    scene: str | None = None         # scene file the reference reads
    breakdown: bool = False
    segments: int = 0                # beam-path segments the operation carries
    kind: str | None = None          # "closed" or "open" geometry; None for verify and refusals
    known_defect: str | None = None  # why this case fails at the seed commit
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _cross(a, b):
    return [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]


def _random_unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        if math.sqrt(sum(c * c for c in v)) > 1e-3:
            return _unit(v)


def _basis(normal):
    helper = [1.0, 0.0, 0.0] if abs(normal[0]) < 0.9 else [0.0, 1.0, 0.0]
    u = _unit(_cross(normal, helper))
    return u, _cross(normal, u)


def _random_vec(rng, scale):
    return [rng.uniform(-scale, scale) for _ in range(3)]


def _particle(rng):
    if rng.random() < 0.5:
        return {"speed_mps": rng.uniform(500.0, 3000.0), "mass_kg": NEUTRON_KG}
    return {"speed_mps": rng.uniform(50.0, 500.0), "wavelength_m": rng.uniform(1e-10, 1e-8)}


def closed_paths(rng, n_segments):
    """Star-shaped planar loop of n_segments edges split into two beam paths.

    Returns (path_I, path_II, normal). The interference loop (II forward,
    I backward) runs counterclockwise about ``normal``.
    """
    normal = _random_unit(rng)
    u, w = _basis(normal)
    center = _random_vec(rng, 0.5)
    radius = rng.uniform(0.05, 0.2)
    pts = []
    for i in range(n_segments):
        theta = 2.0 * math.pi * (i + 0.3 * rng.random()) / n_segments
        r = radius * (1.0 + 0.1 * rng.random())
        c, s = r * math.cos(theta), r * math.sin(theta)
        pts.append([center[k] + c * u[k] + s * w[k] for k in range(3)])
    half = n_segments // 2
    path_ii = pts[: half + 1]
    path_i = [pts[0]] + pts[half:][::-1]
    return path_i, path_ii, normal


def open_paths(rng, n_segments):
    """Two wiggly beams from starts separated by an opening to one endpoint."""
    normal = _random_unit(rng)
    u, w = _basis(normal)
    start_ii = _random_vec(rng, 0.5)
    opening = rng.uniform(1e-3, 1e-2)
    start_i = [start_ii[k] + opening * w[k] for k in range(3)]
    length = rng.uniform(0.1, 0.3)
    end = [start_ii[k] + length * u[k] + 0.5 * opening * w[k] for k in range(3)]
    half = n_segments // 2

    def beam(start, n):
        pts = [list(start)]
        for j in range(1, n):
            t = j / n
            wiggle = 1e-3 * math.sin(math.pi * t) * rng.uniform(-1.0, 1.0)
            pts.append([start[k] + t * (end[k] - start[k]) + wiggle * normal[k] for k in range(3)])
        pts.append(list(end))
        return pts

    return beam(start_i, n_segments - half), beam(start_ii, half), w


def rigid_motion(rng, normal):
    """Translation, rotation with a firm component along ``normal``, pivot."""
    spin = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 1.0)
    wobble = _random_vec(rng, 0.2)
    omega = [spin * normal[k] + wobble[k] for k in range(3)]
    return {
        "translation_mps": _random_vec(rng, 0.2),
        "omega_radps": omega,
        "pivot_m": _random_vec(rng, 1.0),
    }


def explicit_scene(rng, n_segments, closed):
    make = closed_paths if closed else open_paths
    path_i, path_ii, normal = make(rng, n_segments)
    return {
        "particle": _particle(rng),
        "motion": rigid_motion(rng, normal),
        "geometry": {"path_I_m": path_i, "path_II_m": path_ii},
    }


def earth_scene(rng, side):
    """Square loop in the local horizontal plane 6.4e6 m from the pivot."""
    lat = math.radians(rng.uniform(20.0, 70.0))
    lon = rng.uniform(0.0, 2.0 * math.pi)
    up = [math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat)]
    east = _unit(_cross([0.0, 0.0, 1.0], up))
    north = _cross(up, east)
    center = [EARTH_RADIUS_M * c for c in up]

    def corner(a, b):
        return [center[k] + 0.5 * side * (a * east[k] + b * north[k]) for k in range(3)]

    a, b, c, d = corner(-1, -1), corner(1, -1), corner(1, 1), corner(-1, 1)
    return {
        "particle": {"speed_mps": 2200.0, "mass_kg": NEUTRON_KG},
        "motion": {"omega_radps": [0.0, 0.0, EARTH_OMEGA_RADPS], "pivot_m": [0.0, 0.0, 0.0]},
        "geometry": {"path_I_m": [a, d, c], "path_II_m": [a, b, c]},
    }


def write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(obj))


def sweep_vmax(scene) -> float:
    """A --vmax that reaches SWEEP_VMAX_FRINGES fringes on an open scene."""
    return float(f"{SWEEP_VMAX_FRINGES * reference.one_fringe_speed(scene):.6g}")


# ---------------------------------------------------------------------------
# CLI case lists
# ---------------------------------------------------------------------------


def _scene_cases(label, path, scene) -> list[Case]:
    """Every subcommand that applies to the scene, in JSON and in CSV."""
    geom = reference.Geometry(*reference.scene_paths(scene))
    closed = geom.closed
    sweep = {"vmin": 0.0, "vmax": sweep_vmax(scene), "steps": 21} if not closed else {}
    ops = [("phase", [], {}), ("phase", ["--breakdown"], {})]
    if closed:
        ops += [("sagnac", [], {})]
    else:
        ops += [("translate", [], {}), ("sweep", ["--vmax", repr(sweep.get("vmax"))], sweep)]
    ops += [("fringes", [], {"steps": 9})]
    cases = []
    for fmt in ("json", "csv"):
        for op, args, extra in ops:
            breakdown = "--breakdown" in args or scene.get("output", {}).get("breakdown", False)
            suffix = "-breakdown" if "--breakdown" in args else ""
            cases.append(
                Case(
                    name=f"{label}:{op}{suffix}:{fmt}",
                    argv=[op, "--scene", path, "--format", fmt] + args,
                    op=op,
                    fmt=fmt,
                    scene=path,
                    breakdown=breakdown and op == "phase",
                    segments=geom.segments,
                    kind="closed" if closed else "open",
                    extra=extra,
                )
            )
    return cases


def _refusal(name, argv, known_defect=None) -> Case:
    return Case(name=name, argv=argv, op="refuse", known_defect=known_defect)


def _interleave(groups: list[list[Case]]) -> list[Case]:
    """Merge groups so every stretch of the cycle holds each group in proportion."""
    keyed = []
    for g in groups:
        for i, case in enumerate(g):
            keyed.append(((i + 0.5) / len(g), -len(g), case))
    keyed.sort(key=lambda k: (k[0], k[1]))
    return [k[2] for k in keyed]


def cli_small_cases(seed: int, tmp: str, golden_dir: str) -> list[Case]:
    rng = random.Random(f"cli-small:{seed}")
    scenes = []
    for name in GOLDEN_SCENES:
        path = os.path.join(golden_dir, name)
        with open(path, encoding="utf-8") as fh:
            scenes.append((f"golden/{name[:-5]}", path, json.load(fh)))
    for closed in (True, False):
        scene = explicit_scene(rng, SMALL_SEGMENTS, closed)
        label = f"gen1e3/{'closed' if closed else 'open'}"
        path = os.path.join(tmp, f"small_{'closed' if closed else 'open'}.json")
        write_json(path, scene)
        scenes.append((label, path, scene))
    normal = [c for label, path, scene in scenes for c in _scene_cases(label, path, scene)]

    earth = []
    for side in EARTH_SIDES_M:
        scene = earth_scene(rng, side)
        path = os.path.join(tmp, f"earth_{side:g}.json")
        write_json(path, scene)
        for op in ("phase", "sagnac"):
            earth.append(
                Case(
                    name=f"earth/side={side:g}:{op}:json",
                    argv=[op, "--scene", path, "--format", "json"],
                    op=op,
                    scene=path,
                    segments=4,
                    kind="closed",
                    known_defect=DEFECT_C,
                )
            )

    verify = []
    seeds = [42] + [rng.randrange(1_000_000) for _ in range(5)]
    for k in seeds:
        for fmt in ("json", "csv"):
            verify.append(
                Case(
                    name=f"verify/seed={k}:{fmt}",
                    argv=["verify", "--seed", str(k), "--format", fmt],
                    op="verify",
                    fmt=fmt,
                    extra={"seed": k},
                )
            )

    refusals = _refusal_cases(tmp, golden_dir)
    return _interleave([normal, verify, refusals, earth])


def _refusal_cases(tmp: str, golden_dir: str) -> list[Case]:
    closed = os.path.join(golden_dir, "closed_translation.json")
    open_ = os.path.join(golden_dir, "slow_atom_open.json")
    files = {
        "malformed.json": b'{"particle": {"speed_mps": 1.0,',
        "unknown_key.json": (
            b'{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-08},'
            b' "geometry": {"kind": "Fig3bOpen", "opening_m": 0.0001}, "colour": "blue"}'
        ),
        "not_utf8.json": (
            b'{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-08},'
            b' "geometry": {"kind": "Fig3bOpen", "opening_m": 0.0001}, "\xff\xfe": 1}'
        ),
        "nested.json": b"[" * 100_000,
        "tiny_v_lambda.json": (
            b'{"particle": {"speed_mps": 1e-300, "wavelength_m": 1e-300},'
            b' "motion": {"translation_mps": [0.0, 0.0001, 0.0]},'
            b' "geometry": {"kind": "Fig3bOpen", "opening_m": 0.0001}}'
        ),
    }
    for name, data in files.items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(data)

    def scene(name):
        return os.path.join(tmp, name)

    return [
        _refusal("refuse/translate-closed", ["translate", "--scene", closed]),
        _refusal("refuse/sagnac-open", ["sagnac", "--scene", open_]),
        _refusal("refuse/malformed-json", ["phase", "--scene", scene("malformed.json")]),
        _refusal("refuse/unknown-key", ["phase", "--scene", scene("unknown_key.json")]),
        _refusal("refuse/not-utf8", ["phase", "--scene", scene("not_utf8.json")], DEFECT_D),
        _refusal("refuse/nested-1e5", ["phase", "--scene", scene("nested.json")], DEFECT_D),
        _refusal(
            "refuse/v-lambda-underflow", ["phase", "--scene", scene("tiny_v_lambda.json")], DEFECT_D
        ),
        _refusal(
            "refuse/out-missing-dir",
            ["phase", "--scene", open_, "--out", os.path.join(tmp, "missing", "x.json")],
            DEFECT_D,
        ),
        _refusal(
            "refuse/sweep-overflow",
            ["sweep", "--scene", open_, "--vmax", "1e304", "--steps", "2"],
            DEFECT_D,
        ),
    ]


def cli_large_cases(seed: int, tmp: str) -> list[Case]:
    rng = random.Random(f"cli-large:{seed}")
    cases = []
    for closed in (True, False):
        kind = "closed" if closed else "open"
        scene = explicit_scene(rng, LARGE_SEGMENTS, closed)
        path = os.path.join(tmp, f"large_{kind}.json")
        write_json(path, scene)
        # The breakdown goes out as JSON on one scene and as CSV on the other,
        # which keeps the cycle to six operations of about 5 s each.
        ops = [
            ("phase", "json", False),
            ("phase", "json" if closed else "csv", True),
            ("sagnac" if closed else "translate", "json", False),
        ]
        for op, fmt, breakdown in ops:
            argv = [op, "--scene", path, "--format", fmt] + (["--breakdown"] if breakdown else [])
            cases.append(
                Case(
                    name=f"gen1e5/{kind}:{op}{'-breakdown' if breakdown else ''}:{fmt}",
                    argv=argv,
                    op=op,
                    fmt=fmt,
                    scene=path,
                    breakdown=breakdown,
                    segments=LARGE_SEGMENTS,
                    kind=kind,
                )
            )
    return cases


# ---------------------------------------------------------------------------
# lib-scan
# ---------------------------------------------------------------------------

LIB_GEOMETRIES = ("closed", "open")
LIB_MOTIONS = 512


def lib_scan_input(seed: int) -> dict:
    """Geometries of SMALL_SEGMENTS segments and, per geometry, a motion list."""
    rng = random.Random(f"lib-scan:{seed}")
    geometries = []
    for kind in LIB_GEOMETRIES:
        make = closed_paths if kind == "closed" else open_paths
        path_i, path_ii, normal = make(rng, SMALL_SEGMENTS)
        motions = [rigid_motion(rng, normal) for _ in range(LIB_MOTIONS)]
        geometries.append(
            {
                "kind": kind,
                "particle": _particle(rng),
                "path_I_m": path_i,
                "path_II_m": path_ii,
                "motions": [
                    [m["translation_mps"], m["omega_radps"], m["pivot_m"]] for m in motions
                ],
            }
        )
    return {"geometries": geometries}
