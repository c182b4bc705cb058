"""Independent numpy reference for matterwave outputs, and the output checks.

The reference evaluates the paper's per-segment law
``dphi = (2*pi / v*lambda) * (V . dL)`` for a rigid motion
``V(r) = T + w x (r - p)`` relative to the first vertex ``r0`` of beam I,
with the pivot folded into ``U0 = T + w x (r0 - p)``. The uniform part is
summed through the telescoped displacement ``end - start`` of each beam, so
a closed loop's translational phase is zero by construction, and the
rotational part ``(w x m) . dL`` uses coordinates relative to ``r0``, so a
loop far from the origin keeps its precision. The shoelace area, ``V . D``
and the sweep and fringe formulas are evaluated the same way. Nothing here
imports matterwave.

Every check returns ``None`` when the output is correct, or a one-line
reason when it is not.
"""
from __future__ import annotations

import json
import math

import numpy as np

H_PLANCK = 6.62607015e-34
TWO_PI = 2.0 * math.pi
RTOL = 1e-9            # tolerance, as a share of the reference phase
EPS = 4.0 * 2.0 ** -52  # rounding slack on quantities derived from a phase


# ---------------------------------------------------------------------------
# Scene interpretation
# ---------------------------------------------------------------------------


def _vec(value, default=(0.0, 0.0, 0.0)):
    return np.array(value if value is not None else default, dtype=float)


def scene_paths(scene):
    """Beam paths (I, II) of a scene as (n, 3) arrays, figure kinds included."""
    g = scene["geometry"]
    if "path_I_m" in g:
        return _vec(g["path_I_m"]), _vec(g["path_II_m"])
    kind = g["kind"]
    if kind in ("Fig2Rotation", "Fig3aClosed"):
        w = g.get("side_m", g.get("width_m"))
        h = g.get("side_m", g.get("height_m"))
        a, b, c, d = [0.0, 0.0, 0.0], [w, 0.0, 0.0], [w, h, 0.0], [0.0, h, 0.0]
        return _vec([a, d, c]), _vec([a, b, c])
    opening = g["opening_m"]
    D = _vec(opening) if isinstance(opening, list) else _vec([0.0, opening, 0.0])
    arm = _vec([g.get("arm_length_m", 0.01), 0.0, 0.0])
    merge = arm + _vec([float(np.linalg.norm(D)), 0.0, 0.0]) + 0.5 * D
    return _vec([D, D + arm, merge]), _vec([[0.0, 0.0, 0.0], arm, merge])


def scene_v_lambda(scene) -> float:
    p = scene["particle"]
    if "mass_kg" in p:
        return H_PLANCK / p["mass_kg"]
    return p["speed_mps"] * p["wavelength_m"]


def scene_motion(scene):
    m = scene.get("motion", {})
    return _vec(m.get("translation_mps")), _vec(m.get("omega_radps")), _vec(m.get("pivot_m"))


def _fsum(values) -> float:
    return math.fsum(np.asarray(values).tolist())


def _norm(v) -> float:
    return float(np.linalg.norm(v))


class Geometry:
    """Two beam paths in coordinates relative to beam I's first vertex."""

    def __init__(self, path_i, path_ii):
        self.path_i = np.asarray(path_i, dtype=float)
        self.path_ii = np.asarray(path_ii, dtype=float)
        self.r0 = self.path_i[0]
        self.rel_i = self.path_i - self.r0
        self.rel_ii = self.path_ii - self.r0
        self.closed = bool(np.array_equal(self.path_i[0], self.path_ii[0]))
        # Moment of each segment: m x dL with m the midpoint, so that the
        # rotational term (w x m) . dL equals w . (m x dL).
        self.moment_i = self._moments(self.rel_i)
        self.moment_ii = self._moments(self.rel_ii)
        self.dl_i = np.diff(self.rel_i, axis=0)
        self.dl_ii = np.diff(self.rel_ii, axis=0)
        # Displacement of II minus that of I, telescoped: exactly zero when
        # the beams share both ends.
        self.delta = (self.rel_ii[-1] - self.rel_ii[0]) - (self.rel_i[-1] - self.rel_i[0])
        self.segments = len(self.path_i) + len(self.path_ii) - 2
        if self.closed:
            loop = np.concatenate([self.rel_ii, self.rel_i[::-1][1:]])
            self.loop_moment = self._moments(loop)
            cross = np.cross(loop[:-1], loop[1:])
            self.area = 0.5 * np.array([_fsum(cross[:, k]) for k in range(3)])
            self.loop_dl = np.diff(loop, axis=0)

    @staticmethod
    def _moments(rel):
        a, b = rel[:-1], rel[1:]
        return np.cross(0.5 * (a + b), b - a)

    def u0(self, T, W, P):
        return T + np.cross(W, self.r0 - P)


class PhaseRef:
    """Reference two-path phase of one geometry under one rigid motion."""

    def __init__(self, geom: Geometry, v_lambda, T, W, P):
        k = TWO_PI / v_lambda
        u0 = geom.u0(T, W, P)
        rot_ii = geom.moment_ii @ W
        rot_i = geom.moment_i @ W
        self.terms = k * np.concatenate([geom.dl_ii @ u0 + rot_ii, -(geom.dl_i @ u0 + rot_i)])
        self.total = k * (float(u0 @ geom.delta) + _fsum(rot_ii) - _fsum(rot_i))
        self.gross = _fsum(np.abs(self.terms))
        zero_by_construction = geom.closed and not W.any()
        self.scale = self.gross if zero_by_construction else abs(self.total)
        self.n_ii = len(geom.dl_ii)


def loop_circulation(geom: Geometry, W) -> float:
    """Loop integral of V around II forward, I backward (m^2/s)."""
    return _fsum(geom.loop_moment @ W)


def open_opening(geom: Geometry):
    """D = start_I - start_II, the opening that multiplies V."""
    return geom.path_i[0] - geom.path_ii[0]


def one_fringe_speed(scene) -> float:
    """One-fringe speed v_lambda / (|D| |cos theta|) of an open scene."""
    path_i, path_ii = scene_paths(scene)
    D = path_i[0] - path_ii[0]
    T = scene_motion(scene)[0]
    direction = T / _norm(T) if T.any() else D / _norm(D)
    return scene_v_lambda(scene) / (_norm(D) * abs(float(direction @ D) / _norm(D)))


# ---------------------------------------------------------------------------
# Parsing program output
# ---------------------------------------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite CSV number {cell!r}")
    return value


TEXT_COLUMNS = {"quantity", "check", "passed"}


def parse_csv(text: str):
    """Header and rows; every cell outside TEXT_COLUMNS must be a finite number."""
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"CSV row has {len(cells)} cells, header {len(header)}")
        rows.append([c if h in TEXT_COLUMNS else finite(c) for h, c in zip(header, cells)])
    return header, rows


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _close(got, ref, tol) -> bool:
    return isinstance(got, (int, float)) and not isinstance(got, bool) and abs(got - ref) <= tol


def _phase_tol(scale, ref) -> float:
    return RTOL * scale + EPS * abs(ref)


def _expect(name, got, ref, tol):
    if not _close(got, ref, tol):
        return f"{name}={got!r}, reference {ref!r} (tolerance {tol:.3g})"
    return None


def _expect_vec(name, got, ref, rtol=RTOL):
    ref = [float(c) for c in ref]
    if not isinstance(got, list) or len(got) != 3:
        return f"{name} is not a 3-vector: {got!r}"
    tol = rtol * math.sqrt(sum(c * c for c in ref)) + EPS * max(abs(c) for c in ref)
    for i, (g, r) in enumerate(zip(got, ref)):
        if not _close(g, r, tol):
            return f"{name}[{i}]={g!r}, reference {r!r} (tolerance {tol:.3g})"
    return None


def _first(*reasons):
    for reason in reasons:
        if reason:
            return reason
    return None


def check_phase(values: dict, breakdown, ref: PhaseRef, v_lambda):
    """values: scalar quantities; breakdown: list of (path_id, index, phase) or None."""
    tol = _phase_tol(ref.scale, ref.total)
    reason = _first(
        _expect("total_phase_rad", values.get("total_phase_rad"), ref.total, tol),
        _expect("fringe_count", values.get("fringe_count"), ref.total / TWO_PI, tol / TWO_PI),
        _expect("v_lambda_m2ps", values.get("v_lambda_m2ps"), v_lambda, RTOL * v_lambda),
    )
    if reason or breakdown is None:
        return reason
    n = len(ref.terms)
    if len(breakdown) != n:
        return f"breakdown has {len(breakdown)} entries, expected {n}"
    labels = [(p, i) for p, i, _ in breakdown]
    expected = [("II", i) for i in range(ref.n_ii)] + [("I", i) for i in range(n - ref.n_ii)]
    if labels != expected:
        return "breakdown entries are not beam II then beam I in segment order"
    got = np.array([v for _, _, v in breakdown], dtype=float)
    err = np.abs(got - ref.terms)
    bad = np.nonzero(err > RTOL * ref.scale + EPS * np.abs(ref.terms))[0]
    if len(bad):
        j = int(bad[0])
        return f"breakdown entry {j} = {got[j]!r}, reference {ref.terms[j]!r}"
    return None


def phase_values(fmt, text):
    """Scalars and breakdown of a `phase` output."""
    if fmt == "json":
        doc = parse_json(text)
        rows = doc.pop("per_segment", None)
        breakdown = None
        if rows is not None:
            breakdown = [(r["path_id"], r["segment_index"], r["phase_rad"]) for r in rows]
        return doc, breakdown
    header, rows = parse_csv(text)
    if header != ["quantity", "value"]:
        raise ValueError(f"unexpected CSV header {header}")
    values, breakdown = {}, []
    for name, value in rows:
        if name.startswith("per_segment."):
            _, path_id, index = name.split(".")
            breakdown.append((path_id, int(index), value))
        else:
            values[name] = value
    return values, breakdown or None


def check_sagnac(values, geom: Geometry, v_lambda, T, W, P):
    k = TWO_PI / v_lambda
    li_ref = k * loop_circulation(geom, W)
    af_ref = 2.0 * k * float(W @ geom.area)
    if W.any():
        scale = abs(li_ref)
    else:
        terms = np.abs(geom.loop_dl @ geom.u0(T, W, P) + geom.loop_moment @ W)
        scale = k * _fsum(terms)
    li, af = values.get("loop_integral_phase_rad"), values.get("area_formula_phase_rad")
    reason = _first(
        _expect("loop_integral_phase_rad", li, li_ref, _phase_tol(scale, li_ref)),
        _expect("area_formula_phase_rad", af, af_ref, _phase_tol(scale, af_ref)),
        _expect("v_lambda_m2ps", values.get("v_lambda_m2ps"), v_lambda, RTOL * v_lambda),
    )
    if reason:
        return reason
    rd = values.get("relative_difference")
    if W.any():
        rd_ref = abs(li_ref - af_ref) / max(abs(li_ref), abs(af_ref))
    else:
        # Both phases are zero up to rounding; their ratio is not defined by
        # the reference, so hold the output to its own two numbers.
        denom = max(abs(li), abs(af))
        rd_ref = abs(li - af) / denom if denom > 0.0 else 0.0
    reason = _expect("relative_difference", rd, rd_ref, RTOL)
    if reason is None and "enclosed_area_m2" in values:
        reason = _expect_vec("enclosed_area_m2", values["enclosed_area_m2"], geom.area)
    return reason


def check_translate(values, geom: Geometry, v_lambda, T):
    D = open_opening(geom)
    k = TWO_PI / v_lambda
    ref = k * float(T @ D)
    scale = k * _norm(T) * _norm(D)
    tol = _phase_tol(scale, ref)
    cos_ref = float(T @ D) / (_norm(T) * _norm(D)) if T.any() else None
    reason = _first(
        _expect("phase_rad", values.get("phase_rad"), ref, tol),
        _expect("fringe_count", values.get("fringe_count"), ref / TWO_PI, tol / TWO_PI),
        _expect("opening_magnitude_m", values.get("opening_magnitude_m"), _norm(D), RTOL * _norm(D)),
        _expect("v_lambda_m2ps", values.get("v_lambda_m2ps"), v_lambda, RTOL * v_lambda),
    )
    if reason:
        return reason
    if cos_ref is None:
        if values.get("cos_theta") is not None:
            return f"cos_theta={values['cos_theta']!r} for an apparatus at rest"
    else:
        reason = _expect("cos_theta", values.get("cos_theta"), cos_ref, RTOL)
    if reason is None and "opening_m" in values:
        reason = _first(
            _expect_vec("opening_m", values["opening_m"], D),
            _expect_vec("translation_mps", values["translation_mps"], T) if T.any() else None,
        )
    return reason


def check_sweep(doc, rows, geom: Geometry, v_lambda, T, vmin, vmax, steps):
    D = open_opening(geom)
    direction = T / _norm(T) if T.any() else D / _norm(D)
    cos_ref = float(direction @ D) / _norm(D)
    k = TWO_PI / v_lambda
    if len(rows) != steps:
        return f"sweep has {len(rows)} rows, expected {steps}"
    fringes = []
    for i, (v, phase, fringe) in enumerate(rows):
        v_ref = vmin + (vmax - vmin) * i / (steps - 1)
        phase_ref = k * v_ref * float(direction @ D)
        tol = _phase_tol(k * v_ref * _norm(D), phase_ref)
        fringes.append(phase_ref / TWO_PI)
        reason = _first(
            _expect(f"rows[{i}].V_mps", v, v_ref, EPS * v_ref),
            _expect(f"rows[{i}].phase_rad", phase, phase_ref, tol),
            _expect(f"rows[{i}].fringe_count", fringe, phase_ref / TWO_PI, tol / TWO_PI),
        )
        if reason:
            return reason
    if doc is None:
        return None
    v_full = v_lambda / (_norm(D) * abs(cos_ref))
    bracket = None
    for i in range(steps - 1):
        if abs(fringes[i]) <= 1.0 <= abs(fringes[i + 1]):
            bracket = [rows[i][0], rows[i + 1][0]]
            break
    reason = _first(
        _expect("v_full_fringe_mps", doc.get("v_full_fringe_mps"), v_full, RTOL * v_full),
        _expect("cos_theta", doc.get("cos_theta"), cos_ref, RTOL),
        _expect("v_lambda_m2ps", doc.get("v_lambda_m2ps"), v_lambda, RTOL * v_lambda),
        _expect_vec("opening_m", doc.get("opening_m"), D),
    )
    if reason is None and doc.get("bracket_mps") != bracket:
        reason = f"bracket_mps={doc.get('bracket_mps')!r}, reference {bracket!r}"
    return reason


def check_fringes(base, rows, ref: PhaseRef, steps):
    tol_base = _phase_tol(ref.scale, ref.total)
    if base is not None:
        reason = _expect("base_phase_rad", base, ref.total, tol_base)
        if reason:
            return reason
    if len(rows) != steps:
        return f"fringes has {len(rows)} rows, expected {steps}"
    for i, (offset, phase, intensity, fringe) in enumerate(rows):
        off_ref = TWO_PI * i / (steps - 1)
        phase_ref = ref.total + off_ref
        tol = tol_base + EPS * abs(phase_ref)
        reason = _first(
            _expect(f"rows[{i}].offset_rad", offset, off_ref, EPS * off_ref),
            _expect(f"rows[{i}].phase_rad", phase, phase_ref, tol),
            _expect(
                f"rows[{i}].normalized_intensity",
                intensity,
                0.5 * (1.0 + math.cos(phase_ref)),
                0.5 * tol + EPS,
            ),
            _expect(f"rows[{i}].fringe_count", fringe, phase_ref / TWO_PI, tol / TWO_PI),
        )
        if reason:
            return reason
    return None


VERIFY_CHECKS = 10


def check_verify(fmt, text, seed):
    if fmt == "json":
        doc = parse_json(text)
        if doc.get("seed") != seed or doc.get("passed") is not True:
            return f"verify report seed={doc.get('seed')!r} passed={doc.get('passed')!r}"
        checks = [(c["name"], c["max_violation"], c["tolerance"], c["passed"]) for c in doc["checks"]]
    else:
        header, rows = parse_csv(text)
        if header != ["check", "samples", "max_violation", "tolerance", "passed"]:
            return f"unexpected CSV header {header}"
        checks = [(r[0], r[2], r[3], r[4] == "true") for r in rows]
    if len(checks) != VERIFY_CHECKS:
        return f"verify ran {len(checks)} checks, expected {VERIFY_CHECKS}"
    for name, violation, tolerance, passed in checks:
        if not passed or not violation <= tolerance:
            return f"verify check {name} failed: {violation!r} > {tolerance!r}"
    return None


# ---------------------------------------------------------------------------
# CLI case checks
# ---------------------------------------------------------------------------


class SceneRef:
    """Reference data for one scene file, computed once per run."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            self.scene = json.load(fh)
        self.geom = Geometry(*scene_paths(self.scene))
        self.v_lambda = scene_v_lambda(self.scene)
        self.T, self.W, self.P = scene_motion(self.scene)
        self.phase = PhaseRef(self.geom, self.v_lambda, self.T, self.W, self.P)


def check_refusal(exit_code, stderr: bytes):
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1 (refusal)"
    if b"Traceback" in stderr:
        return "refusal printed a Python traceback"
    if not stderr.startswith(b"matterwave: error:"):
        return f"stderr does not start with 'matterwave: error:': {stderr[:60]!r}"
    return None


def check_case(case, exit_code, stdout: bytes, stderr: bytes, scenes: dict):
    """Check one CLI operation's outcome against the reference."""
    if case.op == "refuse":
        return check_refusal(exit_code, stderr)
    if exit_code != 0:
        last = stderr.strip().splitlines()[-1:] or [b""]
        return f"exit code {exit_code}: {last[0][:120]!r}"
    if b"Traceback" in stderr:
        return "printed a Python traceback"
    try:
        text = stdout.decode("utf-8")
        if case.op == "verify":
            return check_verify(case.fmt, text, case.extra["seed"])
        if case.scene not in scenes:
            scenes[case.scene] = SceneRef(case.scene)
        ref = scenes[case.scene]
        if case.op == "phase":
            values, breakdown = phase_values(case.fmt, text)
            if case.breakdown and breakdown is None:
                return "breakdown requested but missing"
            return check_phase(values, breakdown, ref.phase, ref.v_lambda)
        if case.op in ("sagnac", "translate"):
            if case.fmt == "json":
                values = parse_json(text)
            else:
                header, rows = parse_csv(text)
                values = {name: value for name, value in rows}
            if case.op == "sagnac":
                return check_sagnac(values, ref.geom, ref.v_lambda, ref.T, ref.W, ref.P)
            return check_translate(values, ref.geom, ref.v_lambda, ref.T)
        if case.op == "sweep":
            x = case.extra
            if case.fmt == "json":
                doc = parse_json(text)
                rows = [(r["V_mps"], r["phase_rad"], r["fringe_count"]) for r in doc["rows"]]
            else:
                doc = None
                header, rows = parse_csv(text)
            return check_sweep(doc, rows, ref.geom, ref.v_lambda, ref.T, x["vmin"], x["vmax"], x["steps"])
        if case.op == "fringes":
            if case.fmt == "json":
                doc = parse_json(text)
                base = doc["base_phase_rad"]
                rows = [
                    (r["offset_rad"], r["phase_rad"], r["normalized_intensity"], r["fringe_count"])
                    for r in doc["rows"]
                ]
            else:
                base = None
                header, rows = parse_csv(text)
            return check_fringes(base, rows, ref.phase, case.extra["steps"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparseable output: {type(exc).__name__}: {exc}"
    return f"no check for operation {case.op!r}"


# ---------------------------------------------------------------------------
# lib-scan checks
# ---------------------------------------------------------------------------


class LibRef:
    """Reference for the lib-scan geometries; one instance per run."""

    def __init__(self, data: dict):
        self.geoms = []
        for g in data["geometries"]:
            geom = Geometry(g["path_I_m"], g["path_II_m"])
            self.geoms.append((geom, scene_v_lambda(g), g["motions"]))

    def check(self, g: int, j: int, results: list):
        geom, v_lambda, motions = self.geoms[g]
        T, W, P = (np.array(v, dtype=float) for v in motions[j])
        ref = PhaseRef(geom, v_lambda, T, W, P)
        reason = _expect("two_path_difference", results[0], ref.total, _phase_tol(ref.scale, ref.total))
        if reason or len(results) != (3 if geom.closed else 2):
            return reason or f"{len(results)} results"
        k = TWO_PI / v_lambda
        if geom.closed:
            circ = loop_circulation(geom, W)
            area_phase = 2.0 * k * float(W @ geom.area)
            return _first(
                _expect("circulation", results[1], circ, _phase_tol(abs(circ), circ)),
                _expect("sagnac_area_phase", results[2], area_phase, _phase_tol(abs(area_phase), area_phase)),
            )
        D = open_opening(geom)
        ref_open = k * float(T @ D)
        return _expect(
            "open_loop_phase", results[1], ref_open, _phase_tol(k * _norm(T) * _norm(D), ref_open)
        )
