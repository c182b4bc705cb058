"""Golden CLI output: stdout bytes of each subcommand on the golden scenes.

The files under ``tests/data/golden`` hold the exact stdout of each case
below. A refactor that changes any byte fails here; a deliberate change of
output regenerates them with ``PYTHONPATH=src python tests/test_golden.py``
and says so in the change log.
"""

import io
import sys
from pathlib import Path

import pytest

from matterwave.cli import run_command

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = DATA_DIR / "golden"

OPEN_SCENES = ("slow_atom_open",)
CLOSED_SCENES = ("closed_translation", "earth_rotation_square", "explicit_triangle")

# Subcommands that apply to each layout: sagnac needs a closed loop,
# translate and sweep an opening.
COMMON = {
    "phase": ["phase"],
    "phase-breakdown": ["phase", "--breakdown"],
    "fringes": ["fringes", "--steps", "7"],
}
CLOSED_ONLY = {"sagnac": ["sagnac"]}
OPEN_ONLY = {
    "translate": ["translate"],
    "sweep": ["sweep", "--vmax", "2e-4", "--steps", "11"],
}
# A square of side 1e-3 m in the local horizontal plane 6.4e6 m from the
# Earth's axis, as perfbench/inputs.py's earth_scene builds it: the setting of
# Werner, Staudenmann and Colella, PRL 42, 1103 (1979).
EARTH_FRAME_SCENES = ("earth_frame_square",)
EARTH_FRAME_ONLY = {"phase": ["phase"], "sagnac": ["sagnac"]}
# Seed 0 is CI's self-check default, 11 the first golden report, 42 the seed
# of every verify that perfbench's cli-small workload runs.
VERIFY_SEEDS = (0, 11, 42)


def golden_cases() -> list[tuple[str, list[str]]]:
    """(golden file name, CLI argv) for every case."""
    cases = []
    for stem in OPEN_SCENES + CLOSED_SCENES + EARTH_FRAME_SCENES:
        if stem in EARTH_FRAME_SCENES:
            commands = EARTH_FRAME_ONLY
        else:
            commands = dict(COMMON, **(OPEN_ONLY if stem in OPEN_SCENES else CLOSED_ONLY))
        for label, argv in commands.items():
            for fmt in ("json", "csv"):
                scene = ["--scene", str(DATA_DIR / f"{stem}.json")]
                argv_fmt = argv[:1] + scene + argv[1:] + ["--format", fmt]
                cases.append((f"{stem}.{label}.{fmt}", argv_fmt))
    for seed in VERIFY_SEEDS:
        for fmt in ("json", "csv"):
            argv = ["verify", "--seed", str(seed), "--format", fmt]
            cases.append((f"verify-seed{seed}.{fmt}", argv))
    return cases


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[name for name, _ in golden_cases()])
def test_stdout_matches_golden(capsys, name, argv):
    assert run_command(argv) == 0
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[name for name, _ in golden_cases()])
def test_text_stdout_gets_the_golden_text(monkeypatch, name, argv):
    # A stdout with no bytes layer below it, such as io.StringIO, is written as text.
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_command(argv) == 0
    assert stdout.getvalue().encode() == (GOLDEN_DIR / name).read_bytes()


def test_every_golden_file_has_a_case():
    names = {name for name, _ in golden_cases()}
    assert {p.name for p in GOLDEN_DIR.iterdir()} == names


if __name__ == "__main__":
    import contextlib

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_command(argv)
        if code != 0:
            sys.exit(f"{name}: exit code {code}")
        (GOLDEN_DIR / name).write_bytes(buffer.getvalue().encode())
        print(f"wrote {name}")
