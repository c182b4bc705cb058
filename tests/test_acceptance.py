"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single ``ACn PASS`` line after its assertions; run with
``pytest tests/test_acceptance.py -v -s`` to see them. Runtime bounds are
asserted with wall-clock measurements.
"""

import json
import math
import random
import time

import pytest

from matterwave import (
    BeamPath,
    ConfigKind,
    H_PLANCK,
    InterferometerConfig,
    MotionField,
    Vec3,
    build_config,
    circulation,
    curl_fd,
    enclosed_area_vector,
    make_particle_wave,
    open_loop_phase,
    parse_scene,
    sagnac_area_phase,
    segment_phase_increment,
    sensitivity_sweep,
    two_path_difference,
    verify_suite,
)
from matterwave.cli import run_command
from matterwave.phase import path_phase

from codata import HBAR, PARTICLE_MASSES_KG
from test_scene import respelled
from triples import add, cross, dot, field_scaled, field_sum, scaled, sub, unit

TWO_PI = 2.0 * math.pi

NEUTRON_KG = PARTICLE_MASSES_KG["neutron"]


def _unit(rng):
    while True:
        v = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if math.hypot(*v) > 1e-3:
            return unit(v)


def _box(rng, scale=1.0):
    return (rng.uniform(-scale, scale), rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _field(translation, omega, pivot):
    return MotionField(Vec3(*translation), Vec3(*omega), Vec3(*pivot))


def test_ac1_full_fringe_sensitivity(data_dir):
    started = time.perf_counter()
    scene = parse_scene((data_dir / "slow_atom_open.json").read_text())
    assert scene.particle["speed_mps"] * scene.particle["wavelength_m"] == 1e-8

    wave = make_particle_wave(1.0, wavelength=1e-8)
    opening = Vec3(0.0, 1e-4, 0.0)       # D = 100 micrometers
    velocity = Vec3(0.0, 1e-4, 0.0)      # V = 1e-2 cm/s, parallel (cos theta = 1)
    phase = open_loop_phase(wave, opening, velocity)
    assert abs(phase - TWO_PI) <= 1e-12 * TWO_PI

    config = build_config(
        "Fig3bOpen", wave, MotionField(translation=velocity), opening_m=opening
    )
    assert abs(two_path_difference(config).total_phase_rad - TWO_PI) <= 1e-12 * TWO_PI

    sweep = sensitivity_sweep(config, 0.0, 2e-4, 21)
    assert sweep.v_full_fringe_mps == pytest.approx(1.0e-4, rel=1e-12)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"AC1 PASS: one fringe at V = 1e-4 m/s with D = 100 um ({elapsed:.3f} s)")


def test_ac2_sagnac_cross_check():
    started = time.perf_counter()
    rng = random.Random(2202)
    wave = make_particle_wave(50.0, wavelength=0.1)
    for _ in range(200):
        normal = _unit(rng)
        helper = (1.0, 0.0, 0.0) if abs(normal[0]) < 0.9 else (0.0, 1.0, 0.0)
        u = unit(cross(normal, helper))
        w = cross(normal, u)
        center = _box(rng, 0.5)
        n = rng.randrange(3, 13)
        verts = []
        for i in range(n):
            theta = TWO_PI * (i + 0.2 * rng.random()) / n
            radius = rng.uniform(0.3, 1.2)
            verts.append(
                add(add(center, scaled(u, radius * math.cos(theta))), scaled(w, radius * math.sin(theta)))
            )
        loop = BeamPath(tuple(verts) + (verts[0],))
        while True:
            axis = _unit(rng)
            if abs(dot(axis, normal)) >= 0.1:  # keep Omega . A resolvable in float64
                break
        field = _field(_box(rng, 0.5), scaled(axis, rng.uniform(0.3, 2.0)), _box(rng))
        loop_integral_phase = (TWO_PI / wave.v_lambda) * circulation(field, loop)
        area_phase = sagnac_area_phase(wave, loop, field)
        denom = max(abs(loop_integral_phase), abs(area_phase))
        assert abs(loop_integral_phase - area_phase) <= 1e-10 * denom

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"AC2 PASS: 200 random planar loops, loop integral vs area formula ({elapsed:.3f} s)")


def test_ac3_translational_null():
    started = time.perf_counter()
    rng = random.Random(2203)
    wave = make_particle_wave(50.0, wavelength=0.1)
    for _ in range(100):
        n = rng.randrange(4, 10)
        while True:
            verts = [_box(rng) for _ in range(n)]
            verts.append(verts[0])
            if min(math.dist(verts[i + 1], verts[i]) for i in range(n)) > 0.05:
                break
        split = rng.randrange(1, n - 1)
        path_i = BeamPath(tuple(verts[: split + 1]))
        path_ii = BeamPath((verts[0],) + tuple(reversed(verts[split:-1])))
        config = InterferometerConfig(
            path_i,
            path_ii,
            wave,
            MotionField(translation=Vec3(*scaled(_unit(rng), rng.uniform(0.0, 1.0)))),
            ConfigKind.CLOSED_LOOP,
        )
        result = two_path_difference(config)
        gross = math.fsum(abs(c.phase_rad) for c in result.per_segment)
        assert abs(result.total_phase_rad) <= 1e-9 * max(gross, 1e-300)

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"AC3 PASS: 100 random closed configs stay null under translation ({elapsed:.3f} s)")


def test_ac4_factor_identities():
    wave = make_particle_wave(2200.0, mass=NEUTRON_KG)

    # Area-form prefactor: 4*pi / v_lambda = 2 m / hbar.
    assert abs(4 * math.pi / wave.v_lambda - 2 * NEUTRON_KG / HBAR) <= (
        1e-12 * (2 * NEUTRON_KG / HBAR)
    )
    # Open-loop prefactor in mass form: 2*pi / v_lambda = m / hbar. A plain-h
    # variant m/h differs from it by exactly 2*pi and cannot hold alongside
    # the identity above; the third assertion pins that factor.
    assert abs(TWO_PI / wave.v_lambda - NEUTRON_KG / HBAR) <= 1e-12 * (NEUTRON_KG / HBAR)
    assert (TWO_PI / wave.v_lambda) / (NEUTRON_KG / H_PLANCK) == pytest.approx(
        TWO_PI, rel=1e-12
    )

    # De Broglie wavelength of a 2200 m/s neutron; oracle is the one-line
    # hand calculation h / (m v) = 1.79820e-10 m.
    assert wave.wavelength_lambda == pytest.approx(1.798e-10, rel=1e-3)

    print("AC4 PASS: mass-form prefactors and the 2200 m/s neutron wavelength")


def test_ac5_curl_oracle_and_zero_area_loop():
    rng = random.Random(2205)
    for _ in range(50):
        field = _field(_box(rng), scaled(_unit(rng), rng.uniform(0.05, 2.0)), _box(rng))
        expected = scaled(field.omega.as_tuple(), 2.0)
        got = curl_fd(field, Vec3(*_box(rng))).as_tuple()
        assert math.dist(got, expected) <= 1e-6 * math.hypot(*expected)

    wave = make_particle_wave(1.0, wavelength=1e-8)
    back_and_forth = BeamPath((Vec3(0, 0, 0), Vec3(0.01, 0, 0), Vec3(0, 0, 0)))
    assert enclosed_area_vector(back_and_forth) == Vec3(0.0, 0.0, 0.0)
    spin = MotionField(omega=Vec3(0, 0, 1e-4))
    assert sagnac_area_phase(wave, back_and_forth, spin) == 0.0
    assert path_phase(wave, back_and_forth, spin).total_phase_rad == pytest.approx(
        0.0, abs=1e-9
    )

    opening = Vec3(1e-4, 0, 0)
    velocity = Vec3(1e-4, 0, 0)
    assert open_loop_phase(wave, opening, velocity) == pytest.approx(TWO_PI, rel=1e-12)

    print("AC5 PASS: curl doubles the rotation rate; zero-area loop separates the two effects")


def test_ac6_property_suites_and_determinism():
    started = time.perf_counter()
    rng = random.Random(2206)
    wave = make_particle_wave(50.0, wavelength=0.1)

    # Sign antisymmetry under path reversal.
    field = MotionField(
        translation=Vec3(0.3, -0.2, 0.1), omega=Vec3(0.4, 0.1, -0.6), pivot=Vec3(0.2, 0, 0)
    )
    for _ in range(50):
        path = BeamPath(tuple(_box(rng) for _ in range(rng.randrange(2, 7))))
        assert (
            path_phase(wave, path.reversed(), field).total_phase_rad
            == -path_phase(wave, path, field).total_phase_rad
        )

    # Segment-split additivity at 1e-12 relative to the gross scale.
    for _ in range(50):
        a, b = _box(rng), _box(rng)
        if math.dist(b, a) < 0.05:
            continue
        a, mid, b = (Vec3(*v) for v in (a, add(a, scaled(sub(b, a), rng.uniform(0.1, 0.9))), b))
        whole = segment_phase_increment(wave, a, b, field)
        parts = (
            segment_phase_increment(wave, a, mid, field)
            + segment_phase_increment(wave, mid, b, field)
        )
        gross = (TWO_PI / wave.v_lambda) * 10.0  # generous per-segment phase bound
        assert abs(whole - parts) <= 1e-12 * gross

    # Pivot invariance for closed loops at 1e-9 rad.
    square_i = BeamPath((Vec3(0, 0, 0), Vec3(0, 1, 0), Vec3(1, 1, 0)))
    square_ii = BeamPath((Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0)))
    for _ in range(30):
        omega = _box(rng)
        translation = _box(rng, 0.5)
        phases = [
            two_path_difference(
                InterferometerConfig(
                    square_i,
                    square_ii,
                    wave,
                    _field(translation, omega, _box(rng)),
                    ConfigKind.CLOSED_LOOP,
                )
            ).total_phase_rad
            for _ in range(2)
        ]
        assert abs(phases[0] - phases[1]) <= 1e-9

    # Joint linearity in (V, Omega).
    path = BeamPath((Vec3(0, 0, 0), Vec3(0.8, 0.1, 0), Vec3(0.3, 0.9, 0.2)))
    for _ in range(30):
        f1 = _field(_box(rng), _box(rng), _box(rng))
        f2 = _field(_box(rng), _box(rng), _box(rng))
        alpha = rng.uniform(-2, 2)
        combined = path_phase(wave, path, field_sum(f1, f2)).total_phase_rad
        separate = (
            path_phase(wave, path, f1).total_phase_rad
            + path_phase(wave, path, f2).total_phase_rad
        )
        rescaled = path_phase(wave, path, field_scaled(f1, alpha)).total_phase_rad
        direct = alpha * path_phase(wave, path, f1).total_phase_rad
        gross = (TWO_PI / wave.v_lambda) * 30.0
        assert abs(combined - separate) <= 1e-12 * gross
        assert abs(rescaled - direct) <= 1e-12 * gross

    # Arm-length invariance of the open-layout phase.
    slow = make_particle_wave(1.0, wavelength=1e-8)
    opening = Vec3(0, 1e-4, 0)
    velocity = Vec3(0, 1e-4, 0)
    reference = open_loop_phase(slow, opening, velocity)
    for arm in (0.001, 0.02, 0.3, 4.0):
        config = build_config(
            "Fig3bOpen", slow, MotionField(translation=velocity),
            opening_m=opening, arm_length_m=arm,
        )
        assert two_path_difference(config).total_phase_rad == pytest.approx(
            reference, rel=1e-9
        )

    # Full verify run: green and deterministic by seed.
    first = verify_suite(seed=42)
    second = verify_suite(seed=42)
    assert first.passed
    assert first == second

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"AC6 PASS: property suites and seeded verify determinism ({elapsed:.3f} s)")


GOLDEN_SCENES = (
    "slow_atom_open.json",
    "earth_rotation_square.json",
    "closed_translation.json",
    "explicit_triangle.json",
)


def test_ac7_io_round_trip_and_byte_identical_cli(data_dir, capsys):
    for name in GOLDEN_SCENES:
        text = (data_dir / name).read_text()
        assert parse_scene(respelled(text)) == parse_scene(text)

    slow_atom = str(data_dir / "slow_atom_open.json")
    earth = str(data_dir / "earth_rotation_square.json")
    closed = str(data_dir / "closed_translation.json")
    commands = [
        ["phase", "--scene", slow_atom, "--breakdown"],
        ["phase", "--scene", closed, "--format", "csv"],
        ["sagnac", "--scene", earth],
        ["translate", "--scene", slow_atom],
        ["sweep", "--scene", slow_atom, "--vmax", "2e-4", "--steps", "11"],
        ["sweep", "--scene", slow_atom, "--vmax", "2e-4", "--steps", "5", "--format", "csv"],
        ["fringes", "--scene", closed, "--steps", "7"],
        ["verify", "--seed", "11"],
    ]
    for argv in commands:
        assert run_command(argv) == 0
        first = capsys.readouterr().out
        assert run_command(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        assert first.encode() == second.encode()

    # translate on the canonical scene prints the documented value
    assert run_command(["translate", "--scene", slow_atom]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["phase_rad"] == pytest.approx(6.283185307, rel=1e-9)

    print("AC7 PASS: golden scenes read alike in two spellings; every subcommand reruns byte-identical")
