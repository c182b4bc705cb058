"""Spans around matterwave's layer entry points, and per-layer aggregation.

``install`` wraps the public entry points of each module (layer) in place,
including every name another matterwave module bound with ``from ...
import``, so calls made through the CLI reach the wrappers too. Per-segment
helpers (``velocity_at``, ``segment_phase_increment``, ``Vec3`` methods)
are left alone: a span per segment would swamp the work it measures.

A span is ``[name, start_ns, end_ns, parent, op, attrs, error]``. Spans stay
in memory and are written out when the traced process ends.
"""
from __future__ import annotations

import functools
import sys
import time

LAYERS = ("startup", "model", "kinematics", "phase", "experiment", "scene", "cli")

# Module-level functions wrapped per layer. Class constructors are traced
# through their __post_init__ (see CLASS_ENTRY_POINTS).
ENTRY_POINTS = {
    "model": ("make_particle_wave",),
    "kinematics": ("circulation", "enclosed_area_vector", "curl_fd"),
    "phase": (
        "two_path_difference",
        "path_phase",
        "interference_loop",
        "sagnac_area_phase",
        "open_loop_phase",
        "translation_opening",
    ),
    "experiment": ("verify_suite", "sensitivity_sweep", "build_config", "fringe_reading"),
    "scene": ("parse_scene", "config_from_scene"),
    "cli": ("run_command", "emit_results"),
}
CLASS_ENTRY_POINTS = {"model": ("BeamPath", "InterferometerConfig", "ParticleWave")}


def _config_segments(config) -> int:
    return len(config.path_I.vertices) + len(config.path_II.vertices) - 2


# Work counts recorded on a span: f(args, result) -> {count: value}.
ATTRS = {
    "scene.parse_scene": lambda args, result: {"bytes": len(args[0])},
    "scene.config_from_scene": lambda args, result: {"vertices": _config_segments(result) + 2},
    "phase.two_path_difference": lambda args, result: {"segments": _config_segments(args[0])},
    "kinematics.circulation": lambda args, result: {"segments": len(args[1].vertices) - 1},
    "kinematics.enclosed_area_vector": lambda args, result: {"segments": len(args[0].vertices) - 1},
    "cli.emit_results": lambda args, result: {"bytes": len(result)},
}


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0

    def wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else None, self.op, {}, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if attrs_of is not None:
                span[5] = attrs_of(args, result)
            return result

        return traced


def _matterwave_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "matterwave" and m]


def install(recorder: Recorder) -> None:
    """Wrap every entry point, rebinding each module's imported name too."""
    import matterwave.cli  # noqa: F401  (load every layer before patching)

    wrappers = {}
    for layer, names in ENTRY_POINTS.items():
        module = sys.modules[f"matterwave.{layer}"]
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = recorder.wrap(f"{layer}.{name}", fn)
    for module in _matterwave_modules():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    for layer, classes in CLASS_ENTRY_POINTS.items():
        module = sys.modules[f"matterwave.{layer}"]
        for cls_name in classes:
            cls = getattr(module, cls_name)
            cls.__post_init__ = recorder.wrap(f"{layer}.{cls_name}", cls.__post_init__)


class Vec3Counter:
    """Counts Vec3 objects built inside phase.two_path_difference calls."""

    def __init__(self):
        self.vec3 = 0
        self.segments = 0
        self.active = False

    def install(self) -> None:
        import matterwave.cli  # noqa: F401

        from matterwave import model, phase

        original_post_init = model.Vec3.__post_init__
        original_two_path = phase.two_path_difference
        counter = self

        def counting_post_init(vec):
            if counter.active:
                counter.vec3 += 1
            original_post_init(vec)

        def counting_two_path(config):
            counter.active = True
            try:
                return original_two_path(config)
            finally:
                counter.active = False
                counter.segments += _config_segments(config)

        model.Vec3.__post_init__ = counting_post_init
        for module in _matterwave_modules():
            for attr, value in list(vars(module).items()):
                if value is original_two_path:
                    setattr(module, attr, counting_two_path)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


PER_LAYER = {
    "startup.interpreter_ms": "ms",
    "startup.import_ms": "ms",
    "scene.parse_ms": "ms",
    "scene.parse_ns_per_byte": "ns/B",
    "scene.config_us_per_vertex": "us/vertex",
    "phase.two_path_us_per_segment": "us/segment",
    "phase.calls": "count",
    "phase.segments": "count",
    "kinematics.circulation_us_per_segment": "us/segment",
    "kinematics.area_us_per_segment": "us/segment",
    "phase.interference_loop_ms": "ms",
    "experiment.verify_ms": "ms",
    "experiment.sweep_ms": "ms",
    "cli.emit_ms": "ms",
    "cli.emit_bytes": "B",
    "cli.emit_ns_per_byte": "ns/B",
    "model.vec3_per_segment": "count",
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.unexplained_ms": "ms",
}


def layer_metrics(op_spans, interpreter_ms, import_ms, startup_per_op, untraced_ms, traced_ms, vec3):
    """Per-layer metrics from the spans of each traced operation.

    op_spans: one span list per traced operation. interpreter_ms, import_ms:
    median wall time of a bare interpreter and of importing matterwave.
    startup_per_op: whether each operation starts its own interpreter (CLI)
    or runs in a process already set up (lib-scan). untraced_ms, traced_ms:
    wall time of the same operations without and with tracing. vec3:
    (Vec3 objects, segments) from the counting pass.
    """
    n_ops = len(op_spans)
    by_name: dict[str, list] = {}
    self_ns = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    for spans in op_spans:
        for span, own in zip(spans, self_times(spans)):
            layer = span[0].split(".")[0]
            by_name.setdefault(span[0], []).append(span)
            self_ns[layer] += own
            errors[layer] += span[6]

    def spans_of(name):
        return by_name.get(name, [])

    def mean_ms(name):
        s = spans_of(name)
        return sum(x[2] - x[1] for x in s) / len(s) / 1e6 if s else 0.0

    def per_unit(name, unit, scale):
        s = spans_of(name)
        units = sum(x[5].get(unit, 0) for x in s)
        return sum(x[2] - x[1] for x in s) / units / scale if units else 0.0

    def count(name, unit):
        s = spans_of(name)
        return sum(x[5].get(unit, 0) for x in s)

    emits = spans_of("cli.emit_results")
    m = {
        "startup.interpreter_ms": interpreter_ms,
        "startup.import_ms": import_ms,
        "scene.parse_ms": mean_ms("scene.parse_scene"),
        "scene.parse_ns_per_byte": per_unit("scene.parse_scene", "bytes", 1.0),
        "scene.config_us_per_vertex": per_unit("scene.config_from_scene", "vertices", 1e3),
        "phase.two_path_us_per_segment": per_unit("phase.two_path_difference", "segments", 1e3),
        "phase.calls": len(spans_of("phase.two_path_difference")) / n_ops,
        "phase.segments": count("phase.two_path_difference", "segments") / n_ops,
        "kinematics.circulation_us_per_segment": per_unit("kinematics.circulation", "segments", 1e3),
        "kinematics.area_us_per_segment": per_unit("kinematics.enclosed_area_vector", "segments", 1e3),
        "phase.interference_loop_ms": mean_ms("phase.interference_loop"),
        "experiment.verify_ms": mean_ms("experiment.verify_suite"),
        "experiment.sweep_ms": mean_ms("experiment.sensitivity_sweep"),
        "cli.emit_ms": mean_ms("cli.emit_results"),
        "cli.emit_bytes": count("cli.emit_results", "bytes") / len(emits) if emits else 0.0,
        "cli.emit_ns_per_byte": per_unit("cli.emit_results", "bytes", 1.0),
        "model.vec3_per_segment": vec3[0] / vec3[1] if vec3[1] else 0.0,
    }
    startup_ms = interpreter_ms + import_ms if startup_per_op else 0.0
    self_ms = {layer: self_ns[layer] / n_ops / 1e6 for layer in LAYERS}
    self_ms["startup"] = startup_ms
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
        m[f"{layer}.errors"] = errors[layer]
    untraced_mean = sum(untraced_ms) / len(untraced_ms)
    m["trace.overhead_ratio"] = (sum(traced_ms) - sum(untraced_ms)) / sum(untraced_ms)
    # Size of the remainder; accounting_line prints its sign.
    m["trace.unexplained_ms"] = abs(untraced_mean - sum(self_ms.values()))
    return m


def accounting_line(m, untraced_ms, traced_ms) -> str:
    """How layer self times plus startup add up to the untraced operation time."""
    layers = " + ".join(f"{layer} {m[f'{layer}.self_ms']:.4g}" for layer in LAYERS)
    untraced_mean = sum(untraced_ms) / len(untraced_ms)
    traced_mean = sum(traced_ms) / len(traced_ms)
    remainder = untraced_mean - sum(m[f"{layer}.self_ms"] for layer in LAYERS)
    meaning = "time outside every span" if remainder >= 0 else "self times overcount"
    return (
        f"accounting (ms per op): untraced {untraced_mean:.4g} = {layers} "
        f"+ unexplained {remainder:.4g} ({meaning}); traced {traced_mean:.4g} "
        f"(trace.overhead_ratio {m['trace.overhead_ratio']:.3g})"
    )
