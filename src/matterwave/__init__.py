"""Phase simulation for matter-wave interferometers with moving segments.

The package computes the phase difference between two beam paths when the
apparatus translates, rotates, or both, from the per-segment law
(2*pi / v*lambda) * (V . dL), and cross-checks the rotational (Sagnac) and
open-loop translational consequences against independent numerical oracles.
The public names are the ones imported below.
"""
from .experiment import (
    FringeReading,
    PropertyCheck,
    SweepResult,
    SweepRow,
    VerifyReport,
    build_config,
    fringe_reading,
    sensitivity_sweep,
    verify_suite,
)
from .kinematics import (
    circulation,
    curl_fd,
    enclosed_area_vector,
    velocity_at,
)
from .model import (
    C_LIGHT,
    H_PLANCK,
    HBAR,
    PARTICLE_MASSES_KG,
    BeamPath,
    BoostDomainError,
    ConfigKind,
    GeometryError,
    InterferometerConfig,
    MatterWaveError,
    MotionField,
    ParticleWave,
    PhaseResult,
    SegmentContribution,
    Vec3,
    WaveError,
    make_particle_wave,
)
from .phase import (
    gse_light_phase,
    interference_loop,
    open_loop_phase,
    path_phase,
    rest_phase,
    sagnac_area_phase,
    segment_phase_increment,
    translation_opening,
    two_path_difference,
)
from .scene import (
    SceneDocument,
    SceneError,
    config_from_scene,
    parse_scene,
    serialize_scene,
)

__version__ = "0.1.0"
