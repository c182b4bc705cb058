"""Experiment archetypes, fringe observables, sensitivity analysis, self-checks.

The builders produce the canonical configurations: a rectangular two-arm
loop for rotation sensing or translational null tests, and an open layout
of two parallel arms whose starting points are separated by an opening.
``verify_suite`` runs the randomized cross-checks that tie the per-segment
phase law to its independent oracles (circulation, vector area, curl). The
checks live in ``_selfcheck``, which ``verify_suite`` imports when it runs,
so that no other command pays to compile them.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .model import (
    ENDPOINT_TOL,
    BeamPath,
    BoostDomainError,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    Vec3,
    _coincide,
    _cos_between,
    _dot,
    _number,
    _require_positive,
    _scaled,
    _unit,
)
from .phase import TWO_PI, _check_domain, translation_opening

DEFAULT_ARM_LENGTH = 0.01  # m
# The most grid points a sweep or a fringe scan takes: every one is a row held in
# memory until the document is written.
_MAX_STEPS = 100_000


# The layouts ``build_config`` and scene files accept, by name, with the
# kind of interferometer each one builds.
LAYOUT_KINDS = {
    "Fig2Rotation": ConfigKind.CLOSED_LOOP,
    "Fig3aClosed": ConfigKind.CLOSED_LOOP,
    "Fig3bOpen": ConfigKind.OPEN_LOOP,
    "Fig3cIndependent": ConfigKind.OPEN_LOOP,
    "Fig3dExtracted": ConfigKind.OPEN_LOOP,
}
# The builder keys each kind of layout takes.
_LAYOUT_KEYS = {
    ConfigKind.CLOSED_LOOP: ("side_m", "width_m", "height_m"),
    ConfigKind.OPEN_LOOP: ("opening_m", "arm_length_m"),
}


def _check_layout_key(kind: str, key: str) -> None:
    """Refuse a builder key that the layout ``kind``, a name in LAYOUT_KINDS, does not take."""
    takes = _LAYOUT_KEYS[LAYOUT_KINDS[kind]]
    if key not in takes:
        raise GeometryError(f"{kind} does not take {key} (it takes {', '.join(takes)})")


def _check_steps(steps) -> None:
    """Refuse a grid of ``steps`` points, a sweep's or a fringe scan's, unless ``steps``
    is an integer from 2 to _MAX_STEPS."""
    if type(steps) is bool or not isinstance(steps, int) or not 2 <= steps <= _MAX_STEPS:
        raise GeometryError(f"steps must be an integer from 2 to {_MAX_STEPS}, got {steps!r}")


def _rectangle_paths(width: float, height: float) -> tuple[BeamPath, BeamPath]:
    a, b, c, d = (0.0, 0.0, 0.0), (width, 0.0, 0.0), (width, height, 0.0), (0.0, height, 0.0)
    # Beam I runs up then across, beam II across then up. With this labeling,
    # the interference loop (II forward, I backward) is counterclockwise and
    # a rotation about +z yields a positive two-path difference.
    return BeamPath((a, d, c)), BeamPath((a, b, c))


def _open_paths(kind: str, opening, arm_length: float) -> tuple[BeamPath, BeamPath]:
    # Beam II starts at the origin; beam I starts displaced by the opening.
    # Both run parallel arms along +x and merge at a common endpoint through
    # short closing stubs. Putting the displaced start on beam I makes
    # two_path_difference (II minus I) equal +(2*pi/v*lambda) V . opening.
    ox, oy, oz = opening
    arm = (arm_length, 0.0, 0.0)
    # The additions of 0.0 are part of the layout: they turn a -0.0 into 0.0.
    opening_arm = (ox + arm_length, oy + 0.0, oz + 0.0)
    merge = (arm_length + math.hypot(*opening) + ox * 0.5, 0.0 + oy * 0.5, 0.0 + oz * 0.5)
    if not all(map(math.isfinite, arm + opening_arm + merge)):
        raise GeometryError(f"a {kind} layout of this opening and arm length leaves the float range")
    return BeamPath((opening, opening_arm, merge)), BeamPath(((0.0, 0.0, 0.0), arm, merge))


def build_config(
    kind: str, wave: ParticleWave, motion: MotionField, **sizes
) -> InterferometerConfig:
    """Build one of the canonical interferometer configurations.

    ``kind`` is a name in ``LAYOUT_KINDS``. Rectangular loop kinds take
    ``side_m`` (square) or ``width_m`` and ``height_m``. Open kinds take
    ``opening_m``, either a vector or a positive scalar meaning an opening
    along +y, perpendicular to the arms, plus an optional
    ``arm_length_m`` (DEFAULT_ARM_LENGTH when left out); the reported phase
    provably does not depend on the arm length. A size given as None is left
    out; a key the layout does not take is refused. Every length must be a
    positive finite number.
    """
    if not isinstance(kind, str) or kind not in LAYOUT_KINDS:
        raise GeometryError(f"unknown layout {kind!r} (known: {', '.join(LAYOUT_KINDS)})")
    sizes = {key: value for key, value in sizes.items() if value is not None}
    for key in sizes:
        _check_layout_key(kind, key)
    for key, value in sizes.items():
        if key != "opening_m" or not isinstance(value, Vec3):
            sizes[key] = _require_positive(key, value, GeometryError)
    if LAYOUT_KINDS[kind] is ConfigKind.CLOSED_LOOP:
        if "side_m" in sizes:
            if len(sizes) > 1:
                raise GeometryError("give either side_m or width_m/height_m, not both")
            sizes["width_m"] = sizes["height_m"] = sizes["side_m"]
        elif len(sizes) < 2:
            raise GeometryError(f"{kind} needs side_m or width_m and height_m")
        path_i, path_ii = _rectangle_paths(sizes["width_m"], sizes["height_m"])
        return InterferometerConfig(path_i, path_ii, wave, motion)

    if "opening_m" not in sizes:
        raise GeometryError(f"{kind} needs opening_m")
    opening = sizes["opening_m"]
    opening = opening.as_tuple() if isinstance(opening, Vec3) else (0.0, opening, 0.0)
    # The config's comparison of the beam starts; an opening it refuses is within ENDPOINT_TOL.
    if _coincide(opening, (0.0, 0.0, 0.0)):
        raise GeometryError(
            f"{kind} requires a nonzero opening between beam starts, gap is "
            f"{math.hypot(*opening):.3e} m, within the tolerance {ENDPOINT_TOL:.3e} m"
        )
    path_i, path_ii = _open_paths(kind, opening, sizes.get("arm_length_m", DEFAULT_ARM_LENGTH))
    return InterferometerConfig(path_i, path_ii, wave, motion)


class FringeReading(NamedTuple):
    """Ideal two-beam readout of a phase: unit-contrast cosine fringe."""

    phase_rad: float
    normalized_intensity: float
    fringe_count: float


def fringe_reading(phase: float) -> FringeReading:
    """Intensity (1 + cos(phase))/2 and fringe count phase/(2*pi)."""
    phase = _number(phase, "phase")
    return FringeReading(
        phase_rad=phase,
        normalized_intensity=0.5 * (1.0 + math.cos(phase)),
        fringe_count=phase / TWO_PI,
    )


class SweepRow(NamedTuple):
    V_mps: float
    phase_rad: float
    fringe_count: float


class SweepResult(NamedTuple):
    """Phase versus apparatus speed for an open configuration.

    ``v_full_fringe_mps`` is the speed producing one full fringe,
    v_lambda / (D * |cos(theta)|); it is None when no finite speed gives
    one: the swept velocity is perpendicular to the opening, or that speed
    lies beyond the float range. ``cos_theta`` lies in [-1, 1]. ``bracket``
    is the pair of adjacent grid speeds whose fringe counts straddle 1.0
    when the grid reaches it.
    """

    rows: tuple[SweepRow, ...]
    v_full_fringe_mps: float | None
    bracket: tuple[float, float] | None
    opening_m: Vec3
    cos_theta: float
    v_lambda: float


def sensitivity_sweep(
    config: InterferometerConfig, v_min: float, v_max: float, steps: int
) -> SweepResult:
    """Evaluate the open-loop phase over a grid of speeds.

    The sweep direction is the unit vector of the configuration's
    translation; when the configuration is at rest the direction defaults
    to the opening itself (cos(theta) = 1). ``steps`` runs from 2 to 100,000.
    A sweep whose largest speed takes a segment of either beam outside the
    boost domain is refused; along one direction, every faster speed would
    be refused too.
    """
    # A float bound, inf and nan included, is held to the range below as given;
    # any other through the number rule first.
    v_min, v_max = (
        v if isinstance(v, float) else _number(v, name)
        for v, name in ((v_min, "v_min"), (v_max, "v_max"))
    )
    if not (0.0 <= v_min < v_max < math.inf):
        raise GeometryError(f"need 0 <= v_min < v_max < inf, got {v_min!r}, {v_max!r}")
    _check_steps(steps)
    opening = translation_opening(config)
    translation = config.motion.translation
    along = translation.as_tuple() if translation.norm() > 0.0 else opening.as_tuple()
    direction, cos_theta = _unit(along), _cos_between(along, opening.as_tuple())

    wave = config.wave
    # The speeds rise with the index: where the last one is finite, so is every one.
    if not math.isfinite(v_min + (v_max - v_min) * (steps - 1) / (steps - 1)):
        raise GeometryError(f"a sweep from {v_min!r} to {v_max!r} overflows the float range")
    # The float operations of open_loop_phase, without its opening test: the config made it.
    scale, d = TWO_PI / wave.v_lambda, opening.as_tuple()
    rows = []
    for i in range(steps):
        v = v_min + (v_max - v_min) * i / (steps - 1)
        phase = scale * _dot(_scaled(direction, v), d)
        rows.append(SweepRow(v, phase, phase / TWO_PI))
    fastest = MotionField(Vec3(*_scaled(direction, rows[-1].V_mps)))
    try:
        _check_domain(wave, (config.path_II, config.path_I), fastest)
    except BoostDomainError as exc:
        raise BoostDomainError(f"at sweep speed {rows[-1].V_mps!r} m/s: {exc}") from None

    # No finite speed gives one fringe where the sweep is perpendicular to the opening,
    # the product underflows to zero or the quotient overflows.
    denominator = opening.norm() * abs(cos_theta)
    v_full_fringe = wave.v_lambda / denominator if denominator > 0.0 else math.inf

    bracket = None
    for lo, hi in zip(rows, rows[1:]):
        if abs(lo.fringe_count) <= 1.0 <= abs(hi.fringe_count):
            bracket = (lo.V_mps, hi.V_mps)
            break

    return SweepResult(
        rows=tuple(rows),
        v_full_fringe_mps=v_full_fringe if v_full_fringe < math.inf else None,
        bracket=bracket,
        opening_m=opening,
        cos_theta=cos_theta,
        v_lambda=wave.v_lambda,
    )


# ---------------------------------------------------------------------------
# Randomized self-verification
# ---------------------------------------------------------------------------


class PropertyCheck(NamedTuple):
    name: str
    samples: int
    max_violation: float
    tolerance: float
    passed: bool
    worst_case: dict | None = None


class VerifyReport(NamedTuple):
    seed: int
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_suite(seed: int = 0) -> VerifyReport:
    """Deterministic randomized cross-check of the phase engine.

    Each check reports its sample count and the worst violation observed;
    the offending instance is serialized when a check fails. The same seed
    always reproduces the same report.
    """
    from ._selfcheck import run_suite

    return run_suite(seed)
