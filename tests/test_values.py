"""Value semantics of the package's immutable classes.

Each class is built positionally and by keyword, with its defaults, and is
held to its equality, hash, exact repr and refusal to assign. The expected
repr strings are the ones these classes have always printed. The last class
of tests checks the ``__post_init__`` hook every validating constructor calls
through the class, which instrumentation may wrap.
"""
import json

import pytest

from matterwave import (
    BeamPath,
    ConfigKind,
    FringeReading,
    GeometryError,
    InterferometerConfig,
    MotionField,
    ParticleWave,
    PhaseResult,
    PropertyCheck,
    SceneDocument,
    SegmentContribution,
    SweepResult,
    SweepRow,
    Vec3,
    VerifyReport,
    WaveError,
    build_config,
    config_from_scene,
    make_particle_wave,
    parse_scene,
    verify_suite,
)

from codata import PARTICLE_MASSES_KG

SQUARE_I = ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0))
SQUARE_II = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0))
ROW = SweepRow(0.5, 1.0, 0.25)
CHECK = PropertyCheck("curl", 3, 0.0, 1e-9, True)


def walk():
    return ()


def value_cases():
    """(class, positional args, keyword args, expected repr) per class.

    The keyword form leaves out every argument that has a default, and the
    positional form passes that default explicitly: the two must be equal.
    """
    wave = ParticleWave(2.0, 5e-9)
    motion = MotionField(Vec3(0.0, 0.0, 0.0), Vec3(0.0, 0.0, 0.5), Vec3(0.0, 0.0, 0.0))
    path_i, path_ii = BeamPath(SQUARE_I), BeamPath(SQUARE_II)
    rotation = (
        "MotionField(translation=Vec3(x=0.0, y=0.0, z=0.0), "
        "omega=Vec3(x=0.0, y=0.0, z=0.5), pivot=Vec3(x=0.0, y=0.0, z=0.0))"
    )
    rest = (
        "MotionField(translation=Vec3(x=0.0, y=0.0, z=0.0), "
        "omega=Vec3(x=0.0, y=0.0, z=0.0), pivot=Vec3(x=0.0, y=0.0, z=0.0))"
    )
    check = (
        "PropertyCheck(name='curl', samples=3, max_violation=0.0, tolerance=1e-09, "
        "passed=True, worst_case=None)"
    )
    return [
        (Vec3, (1.0, -2.5, 3), dict(x=1.0, y=-2.5, z=3.0), "Vec3(x=1.0, y=-2.5, z=3.0)"),
        (
            ParticleWave,
            (2.0, 5e-9, None),
            dict(speed_v=2.0, wavelength_lambda=5e-9),
            "ParticleWave(speed_v=2.0, wavelength_lambda=5e-09, mass=None, v_lambda=1e-08)",
        ),
        (
            BeamPath,
            (SQUARE_I,),
            dict(vertices=SQUARE_I),
            "BeamPath(vertices=((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)))",
        ),
        (MotionField, (Vec3(0, 0, 0), Vec3(0, 0, 0), Vec3(0, 0, 0)), dict(), rest),
        (MotionField, (Vec3(0, 0, 0), Vec3(0, 0, 0.5)), dict(omega=Vec3(0, 0, 0.5)), rotation),
        (
            InterferometerConfig,
            (path_i, path_ii, wave, motion, ConfigKind.CLOSED_LOOP),
            dict(path_I=path_i, path_II=path_ii, wave=wave, motion=motion, kind=ConfigKind.CLOSED_LOOP),
            "InterferometerConfig(path_I=BeamPath(vertices=((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), "
            "(1.0, 1.0, 0.0))), path_II=BeamPath(vertices=((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "
            "(1.0, 1.0, 0.0))), wave=ParticleWave(speed_v=2.0, wavelength_lambda=5e-09, "
            f"mass=None, v_lambda=1e-08), motion={rotation}, "
            "kind=<ConfigKind.CLOSED_LOOP: 'ClosedLoop'>)",
        ),
        (
            SegmentContribution,
            (3, "I", -0.5),
            dict(segment_index=3, path_id="I", phase_rad=-0.5),
            "SegmentContribution(segment_index=3, path_id='I', phase_rad=-0.5)",
        ),
        (
            PhaseResult,
            (0.25, 1e-8, walk),
            dict(total_phase_rad=0.25, v_lambda=1e-8, walk=walk),
            "PhaseResult(total_phase_rad=0.25, v_lambda=1e-08)",
        ),
        (
            FringeReading,
            (1.0, 0.5, 0.25),
            dict(phase_rad=1.0, normalized_intensity=0.5, fringe_count=0.25),
            "FringeReading(phase_rad=1.0, normalized_intensity=0.5, fringe_count=0.25)",
        ),
        (
            SweepRow,
            (0.5, 1.0, 0.25),
            dict(V_mps=0.5, phase_rad=1.0, fringe_count=0.25),
            "SweepRow(V_mps=0.5, phase_rad=1.0, fringe_count=0.25)",
        ),
        (
            SweepResult,
            ((ROW,), 2.0, (0.0, 1.0), Vec3(0.0, 1e-4, 0.0), 1.0, 1e-8),
            dict(
                rows=(ROW,),
                v_full_fringe_mps=2.0,
                bracket=(0.0, 1.0),
                opening_m=Vec3(0.0, 1e-4, 0.0),
                cos_theta=1.0,
                v_lambda=1e-8,
            ),
            "SweepResult(rows=(SweepRow(V_mps=0.5, phase_rad=1.0, fringe_count=0.25),), "
            "v_full_fringe_mps=2.0, bracket=(0.0, 1.0), opening_m=Vec3(x=0.0, y=0.0001, z=0.0), "
            "cos_theta=1.0, v_lambda=1e-08)",
        ),
        (
            PropertyCheck,
            ("curl", 3, 0.0, 1e-9, True, None),
            dict(name="curl", samples=3, max_violation=0.0, tolerance=1e-9, passed=True),
            check,
        ),
        (
            VerifyReport,
            (7, (CHECK,)),
            dict(seed=7, checks=(CHECK,)),
            f"VerifyReport(seed=7, checks=({check},))",
        ),
        (
            SceneDocument,
            ({"speed_mps": 1.0}, MotionField(), {"kind": "Fig3aClosed"}, {"format": "json"}),
            dict(
                particle={"speed_mps": 1.0},
                motion=MotionField(),
                geometry={"kind": "Fig3aClosed"},
                output={"format": "json"},
            ),
            f"SceneDocument(particle={{'speed_mps': 1.0}}, motion={rest}, "
            "geometry={'kind': 'Fig3aClosed'}, output={'format': 'json'})",
        ),
    ]


CASES = value_cases()
IDS = [f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(CASES)]
# Every field of each class, in order; a field outside equality is left out.
FIELDS = {
    Vec3: ("x", "y", "z"),
    ParticleWave: ("speed_v", "wavelength_lambda", "mass", "v_lambda"),
    BeamPath: ("vertices",),
    MotionField: ("translation", "omega", "pivot"),
    InterferometerConfig: ("path_I", "path_II", "wave", "motion", "kind"),
    PhaseResult: ("total_phase_rad", "v_lambda"),
    SegmentContribution: ("segment_index", "path_id", "phase_rad"),
    FringeReading: ("phase_rad", "normalized_intensity", "fringe_count"),
    SweepRow: ("V_mps", "phase_rad", "fringe_count"),
    SweepResult: ("rows", "v_full_fringe_mps", "bracket", "opening_m", "cos_theta", "v_lambda"),
    PropertyCheck: ("name", "samples", "max_violation", "tolerance", "passed", "worst_case"),
    VerifyReport: ("seed", "checks"),
    SceneDocument: ("particle", "motion", "geometry", "output"),
}


def fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls,args,kwargs,text", CASES, ids=IDS)
class TestValueSemantics:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, text):
        assert cls(*args) == cls(**kwargs)
        assert fields(cls(*args)) == fields(cls(**kwargs))

    def test_repr(self, cls, args, kwargs, text):
        assert repr(cls(*args)) == text
        assert repr(cls(**kwargs)) == text

    def test_hash_is_the_hash_of_the_fields(self, cls, args, kwargs, text):
        obj = cls(*args)
        if cls is SceneDocument:  # its sections are dicts
            with pytest.raises(TypeError):
                hash(obj)
            return
        assert hash(obj) == hash(cls(**kwargs)) == hash(fields(obj))

    def test_assignment_and_deletion_refused(self, cls, args, kwargs, text):
        obj = cls(*args)
        name = FIELDS[cls][0]
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.unknown = 0.0
        assert fields(obj) == fields(cls(*args))


class TestEquality:
    def test_a_changed_field_is_unequal(self):
        assert Vec3(1.0, 2.0, 3.0) != Vec3(1.0, 2.0, 3.5)
        assert MotionField() != MotionField(pivot=Vec3(0.0, 0.0, 1.0))
        assert ParticleWave(2.0, 5e-9) != ParticleWave(2.0, 5e-9, 6.62607015e-34 / 1e-8)
        assert BeamPath(SQUARE_I) != BeamPath(SQUARE_II)

    def test_other_classes_with_the_same_values_are_unequal(self):
        assert Vec3(1.0, 2.0, 3.0) != (1.0, 2.0, 3.0)
        assert BeamPath(SQUARE_I) != SQUARE_I
        assert PhaseResult(0.25, 1e-8, walk) != (0.25, 1e-8)

    def test_phase_result_walk_is_outside_equality_and_hash(self):
        a = PhaseResult(0.25, 1e-8, walk)
        b = PhaseResult(0.25, 1e-8, lambda: (("I", (1.0,)),))
        assert a == b
        assert hash(a) == hash(b)
        assert b.increments == (("I", (1.0,)),)

    @pytest.mark.parametrize("obj", [Vec3(1.0, 2.0, 3.0), MotionField()], ids=["Vec3", "MotionField"])
    def test_vectors_and_motions_are_not_tuples(self, obj):
        # json would write a tuple itself; the scene writer's hook needs to see these.
        assert not isinstance(obj, tuple)
        with pytest.raises(TypeError):
            json.dumps(obj)

    def test_validation_still_runs(self):
        assert Vec3(1, 2, 3).as_tuple() == (1.0, 2.0, 3.0)
        assert type(Vec3(1, 2, 3).x) is float
        with pytest.raises(GeometryError, match="finite"):
            Vec3(float("nan"), 0.0, 0.0)
        with pytest.raises(WaveError, match="positive"):
            ParticleWave(-1.0, 1e-9)
        with pytest.raises(GeometryError, match="at least 2"):
            BeamPath(((0.0, 0.0, 0.0),))
        path_i, path_ii = BeamPath(SQUARE_I), BeamPath(SQUARE_II[:2])
        with pytest.raises(GeometryError, match="share their endpoint"):
            InterferometerConfig(path_i, path_ii, ParticleWave(2.0, 5e-9), MotionField(), ConfigKind.CLOSED_LOOP)


BUILDER_SCENE = (
    '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},'
    ' "motion": {"omega_radps": [0.0, 0.0, 0.5]},'
    ' "geometry": {"kind": "Fig3aClosed", "side_m": 0.01}}'
)
EXPLICIT_SCENE = (
    '{"particle": {"speed_mps": 1.0, "wavelength_m": 1e-8},'
    ' "motion": {"translation_mps": [0.1, 0.0, 0.0], "omega_radps": [0.0, 0.0, 0.5]},'
    ' "geometry": {"path_I_m": [[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],'
    ' "path_II_m": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]}}'
)


@pytest.fixture
def constructed(monkeypatch):
    """The objects whose ``__post_init__`` ran, by class, once each class's hook is wrapped."""
    seen = {}
    for cls in (Vec3, ParticleWave, BeamPath, InterferometerConfig):
        def hook(self, original=cls.__post_init__, name=cls.__name__):
            seen.setdefault(name, []).append(self)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", hook)
    return seen


def seen_as(constructed, name, obj) -> bool:
    return any(o is obj for o in constructed.get(name, ()))


class TestPostInitHook:
    """Wrapping ``cls.__post_init__`` sees every validating construction."""

    def test_builder_scene(self, constructed):
        config = config_from_scene(parse_scene(BUILDER_SCENE))
        assert seen_as(constructed, "InterferometerConfig", config)
        assert seen_as(constructed, "ParticleWave", config.wave)
        assert seen_as(constructed, "BeamPath", config.path_I)
        assert seen_as(constructed, "BeamPath", config.path_II)
        assert seen_as(constructed, "Vec3", config.motion.omega)

    def test_explicit_scene(self, constructed):
        doc = parse_scene(EXPLICIT_SCENE)
        config = config_from_scene(doc)
        assert seen_as(constructed, "InterferometerConfig", config)
        assert seen_as(constructed, "ParticleWave", config.wave)
        # Explicit paths go through BeamPath's one validating constructor,
        # which keeps the scene reader's proven float triples; the kind is
        # inferred from the beams' starts as float triples. The only Vec3 are
        # the motion's, as read from the scene.
        assert seen_as(constructed, "BeamPath", config.path_I)
        assert seen_as(constructed, "BeamPath", config.path_II)
        (translation, omega), motion = constructed["Vec3"], config.motion
        assert translation is motion.translation and omega is motion.omega

    def test_build_config(self, constructed):
        wave = make_particle_wave(1000.0, mass=PARTICLE_MASSES_KG["neutron"])
        config = build_config("Fig3bOpen", wave, MotionField(), opening_m=1e-3)
        assert seen_as(constructed, "InterferometerConfig", config)
        assert seen_as(constructed, "ParticleWave", wave)
        assert seen_as(constructed, "BeamPath", config.path_I)
        assert seen_as(constructed, "BeamPath", config.path_II)
        # The layout is built on float triples: no Vec3 for its vertices or opening.
        assert "Vec3" not in constructed

    def test_verify_builds_vec3_only_at_the_public_boundary(self, constructed):
        # The generators and checks work on float triples; a Vec3 is built
        # only where a public function takes one (21,502 per seed when every
        # generator built them).
        assert verify_suite(42).passed
        assert len(constructed["Vec3"]) <= 6000
