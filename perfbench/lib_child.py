"""The lib-scan child: one geometry set, many rigid motions, in process.

Usage: python perfbench/lib_child.py <input.json> <results.json> <setup|run|trace> <count>

Set-up imports matterwave and builds every beam path once. Each operation
then builds one new MotionField and a new InterferometerConfig that reuses
the paths, and evaluates ``two_path_difference``; closed geometries add
``circulation`` over ``interference_loop`` and ``sagnac_area_phase``, open
ones ``open_loop_phase(translation_opening(...))``. Operations run in whole
cycles over the geometries, ``count`` operations in all.

``setup`` exits once set-up is done. ``run`` writes per-operation times and
results. ``trace`` times half the operations without tracing, repeats the
same operations with spans recorded, then counts Vec3 objects on one
operation.
"""
import json
import sys
import time

import calib

clock = time.perf_counter_ns


class Geometry:
    def __init__(self, mw, spec):
        self.closed = spec["kind"] == "closed"
        self.kind = mw.ConfigKind.CLOSED_LOOP if self.closed else mw.ConfigKind.OPEN_LOOP
        self.path_I = mw.BeamPath.from_points(spec["path_I_m"])
        self.path_II = mw.BeamPath.from_points(spec["path_II_m"])
        p = spec["particle"]
        self.wave = mw.make_particle_wave(
            p["speed_mps"], mass=p.get("mass_kg"), wavelength=p.get("wavelength_m")
        )
        self.motions = spec["motions"]


def operation(mw, geom, motion_spec):
    """One new motion on an already built geometry; returns the numbers."""
    t, w, p = motion_spec
    motion = mw.MotionField(translation=mw.Vec3(*t), omega=mw.Vec3(*w), pivot=mw.Vec3(*p))
    config = mw.InterferometerConfig(geom.path_I, geom.path_II, geom.wave, motion, geom.kind)
    results = [mw.two_path_difference(config).total_phase_rad]
    if geom.closed:
        loop = mw.interference_loop(config)
        results.append(mw.circulation(motion, loop))
        results.append(mw.sagnac_area_phase(geom.wave, loop, motion))
    else:
        opening = mw.translation_opening(config)
        results.append(mw.open_loop_phase(geom.wave, opening, motion.translation))
    return results


def op_index(i, geoms):
    g = i % len(geoms)
    return g, (i // len(geoms)) % len(geoms[g].motions)


def timed_pass(mw, geoms, count, recorder=None):
    """Run exactly ``count`` operations.

    Each operation is recorded as [geometry, motion, ns, compute slowdown,
    results]; its time at reference speed is ns / slowdown. The calibration
    after one operation is the one before the next.
    """
    ops = []
    before = calib.compute_slowdown()
    for i in range(count):
        g, j = op_index(i, geoms)
        if recorder is not None:
            recorder.op = i
        t0 = clock()
        results = operation(mw, geoms[g], geoms[g].motions[j])
        elapsed = clock() - t0
        after = calib.compute_slowdown()
        ops.append([g, j, elapsed, 0.5 * (before + after), results])
        before = after
    return ops


def main(argv):
    input_path, results_path, mode, count = argv[0], argv[1], argv[2], int(argv[3])
    timed = mode != "setup"  # set-up is timed from outside, calibration would add to it
    before = calib.compute_slowdown() if timed else 0.0
    t0 = clock()
    import matterwave as mw

    import_ns = clock() - t0
    if timed:
        import_ns /= 0.5 * (before + calib.compute_slowdown())
    with open(input_path) as fh:
        geoms = [Geometry(mw, spec) for spec in json.load(fh)["geometries"]]
    if not timed:
        return 0
    timed_pass(mw, geoms, len(geoms))  # warm-up cycle, not reported
    record = {"import_ns": import_ns}
    if mode == "run":
        record["ops"] = timed_pass(mw, geoms, count)
    else:
        import tracer

        half = max(1, count // (2 * len(geoms))) * len(geoms)
        untraced = timed_pass(mw, geoms, half)
        recorder = tracer.Recorder()
        tracer.install(recorder)
        traced = timed_pass(mw, geoms, half, recorder=recorder)
        spans = list(recorder.spans)
        counter = tracer.Vec3Counter()
        counter.install()
        g, j = op_index(0, geoms)
        operation(mw, geoms[g], geoms[g].motions[j])
        record.update(
            ops=untraced, traced=traced, spans=spans, vec3=[counter.vec3, counter.segments]
        )
    with open(results_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
