import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from matterwave import MotionField, Vec3, make_particle_wave

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# The fuzz rule: draws that follow --hypothesis-seed, with no example database,
# so that each seed is reproducible on its own.
settings.register_profile(
    "fuzz", parent=settings.get_profile("ci"), derandomize=False, database=None
)
settings.load_profile("ci")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def unit_wave():
    """Wave with v_lambda exactly 1e-8 m^2/s, the canonical slow-atom value."""
    return make_particle_wave(1.0, wavelength=1e-8)


@pytest.fixture
def fast_wave():
    """Wave fast enough that O(1 m/s) apparatus speeds stay in the model domain."""
    return make_particle_wave(50.0, wavelength=0.1)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def rotation_z():
    return MotionField(omega=Vec3(0.0, 0.0, 1.0))
