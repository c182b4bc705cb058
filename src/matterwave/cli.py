"""Command-line surface: scene in, numbers out.

Subcommands::

    phase      two-beam phase difference of the scene
    sagnac     rotation phase by loop integral and by area formula, compared
    translate  open-loop translational phase of the scene
    sweep      phase versus speed grid with the one-fringe speed
    fringes    fringe readings over a phase-offset grid around the scene phase
    verify     randomized self-check suite, deterministic by seed

Results go to stdout unless ``--out`` names a file. Exit codes: 0 success,
1 input error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import errno
import gc
import json
import math
import os
import sys
from itertools import chain, count, filterfalse

from .experiment import fringe_reading, sensitivity_sweep, verify_suite
from .kinematics import circulation, enclosed_area_vector
from .model import MatterWaveError, MotionField, _cos_between
from .phase import (
    TWO_PI,
    _check_domain,
    interference_loop,
    open_loop_phase,
    sagnac_area_phase,
    translation_opening,
    two_path_difference,
)
from .scene import OUTPUT_FORMATS, SceneError, config_from_scene, parse_scene

PROG = "matterwave"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Replace argparse's sys.exit(2) with a catchable error so run_command
    # can keep the documented exit-code contract.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}")


def _not_finite(value) -> MatterWaveError:
    return MatterWaveError(f"result is not finite ({value}); refusing to write it")


def _csv_cell(value) -> str:
    if not isinstance(value, float):
        return str(value)
    if not math.isfinite(value):
        raise _not_finite(value)
    return repr(value)


# The template of one per-segment entry of a beam, filled with (segment index,
# increment): a JSON entry as json.dumps(..., indent=2) lays it out inside the
# payload, and a CSV row. A "%" in the beam's label is escaped.
def _json_entry(path_id) -> str:
    label = json.dumps(path_id).replace("%", "%%")  # quoted and escaped as JSON
    return (
        '    {\n      "path_id": ' + label
        + ',\n      "segment_index": %d,\n      "phase_rad": %r\n    }'
    )


def _csv_entry(path_id) -> str:
    return f"per_segment.{path_id}.".replace("%", "%%") + "%d,%r"


def _entries(entry, sep: str, beams) -> list[str]:
    """Each beam's entries, ``entry(label)`` filled once per segment, joined by ``sep``.

    One format operation over the repeated template per beam spares an
    intermediate string per segment.
    """
    return [
        sep.join([entry(path_id)] * len(incs)) % tuple(chain.from_iterable(zip(count(), incs)))
        for path_id, incs in beams
        if incs
    ]


def _json_list(beams) -> str:
    """The breakdown as a JSON list; a function of its own, so that the joined
    entries are freed before the document that holds the list is built."""
    entries = ",\n".join(_entries(_json_entry, ",\n", beams))
    return f"[\n{entries}\n  ]" if entries else "[]"


def emit_results(doc: dict, fmt: str, per_segment=None, table=None) -> bytes:
    """Serialize a payload to JSON or CSV bytes (LF line endings, '.' decimals).

    JSON is ``doc`` as json.dumps(indent=2) writes it. CSV is ``table`` (rows,
    header first) when given; else the records under ``doc["rows"]``, one row
    each; else one ``quantity,value`` row per number in ``doc``.
    ``per_segment``, the (label, increments) of each beam, appends the
    breakdown, written from a fixed template: the bytes json.dumps(indent=2)
    and the CSV cells would give. A number that is not finite has no JSON
    form, so output holding one is refused in both formats.
    """
    beams = per_segment or ()
    bad = next(filterfalse(math.isfinite, chain.from_iterable(incs for _, incs in beams)), None)
    if bad is not None:
        raise _not_finite(bad)
    if fmt == "json":
        try:
            text = json.dumps(doc, indent=2, allow_nan=False)
        except ValueError as exc:  # raised only for a float that is inf or nan
            raise _not_finite(exc) from None
        if per_segment is not None:  # the list goes in before the payload's closing brace
            text = f'{text[:-2]},\n  "per_segment": {_json_list(beams)}\n}}'
    elif fmt == "csv":
        if table is None:
            records = doc["rows"] if "rows" in doc else [
                {"quantity": k, "value": v} for k, v in doc.items() if isinstance(v, (int, float))
            ]
            table = [list(records[0])] + [list(record.values()) for record in records]
        lines = [",".join(map(_csv_cell, row)) for row in table]
        lines.extend(_entries(_csv_entry, "\n", beams))
        text = "\n".join(lines)
    else:
        raise MatterWaveError(f"unknown output format {fmt!r}")
    return (text + "\n").encode()


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="moving-segment interferometer phase calculator")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name: str, help_text: str, scene: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if scene:
            p.add_argument("--scene", required=True, help="scene file (JSON)")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
        return p

    p = add("phase", "two-beam phase difference of the scene")
    p.add_argument("--breakdown", action="store_true", help="include per-segment contributions")

    add("sagnac", "rotation phase: loop integral vs area formula")
    add("translate", "open-loop translational phase")

    p = add("sweep", "phase versus apparatus speed")
    p.add_argument("--vmin", type=float, default=0.0, help="lowest speed, m/s")
    p.add_argument("--vmax", type=float, required=True, help="highest speed, m/s")
    p.add_argument("--steps", type=int, default=21)

    p = add("fringes", "fringe readings over a phase-offset grid")
    p.add_argument("--steps", type=int, default=9)

    p = add("verify", "randomized self-check suite", scene=False)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_config(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneError(f"cannot read scene file {path!r}: {exc}") from exc
    # The scene is JSON lists and float triples, free of reference cycles: a
    # cyclic collection while it is built would only walk it.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        doc = parse_scene(text)
        return doc, config_from_scene(doc)
    finally:
        if was_enabled:
            gc.enable()


def _write_stdout(data: bytes) -> None:
    """Write the bytes to stdout, all of them: an unbuffered stdout may take part of a
    write, and its text layer would drop the rest without a word."""
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text stream with no bytes below it, such as io.StringIO
        sys.stdout.write(data.decode())
        sys.stdout.flush()
        return
    sys.stdout.flush()
    view = memoryview(data)
    while view:
        written = buffer.write(view)
        if not written:  # None: a non-blocking stdout would block
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        view = view[written:]
    buffer.flush()


def _write(data: bytes, out: str | None) -> None:
    if out is None:
        try:
            _write_stdout(data)
        except OSError as exc:
            # What is still buffered would fail again at exit: send it to the null device.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise MatterWaveError(f"cannot write output: {exc}") from exc
        return
    try:
        with open(out, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise MatterWaveError(f"cannot write output file {out!r}: {exc}") from exc


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _attach_negative_numbers(argv: list[str]) -> list[str]:
    """Join a negative number to the long option before it: ``--vmin=-1e-05``.

    argparse takes a token such as ``-1e-05`` for an option, because its
    negative-number pattern has no exponent form; joined, it is the value.
    """
    joined: list[str] = []
    for token in argv:
        previous = joined[-1] if joined else ""
        long_option = previous.startswith("--") and "=" not in previous
        if long_option and token.startswith("-") and _is_number(token):
            joined[-1] = f"{previous}={token}"
        else:
            joined.append(token)
    return joined


def run_command(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_negative_numbers(argv))
    except _UsageError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    if args.command is None:
        sys.stderr.write(parser.format_usage())
        return 1

    try:
        if args.command == "verify":
            report = verify_suite(seed=args.seed)
            checks = [c._asdict() for c in report.checks]
            doc = {"seed": report.seed, "passed": report.passed, "checks": checks}
            table = [["check", "samples", "max_violation", "tolerance", "passed"]] + [
                [c.name, c.samples, c.max_violation, c.tolerance, str(c.passed).lower()]
                for c in report.checks
            ]
            _write(emit_results(doc, args.format or "json", table=table), args.out)
            return 0 if report.passed else 2

        scene, config = _load_config(args.scene)
        fmt = args.format or scene.output["format"]

        per_segment = None
        if args.command == "phase":
            result = two_path_difference(config)
            doc = {
                "total_phase_rad": result.total_phase_rad,
                "fringe_count": result.total_phase_rad / TWO_PI,
                "v_lambda_m2ps": result.v_lambda,
            }
            if args.breakdown or scene.output["breakdown"]:
                per_segment = result.increments
        elif args.command == "sagnac":
            loop = interference_loop(config)
            loop_integral = (TWO_PI / config.wave.v_lambda) * circulation(config.motion, loop)
            area_form = sagnac_area_phase(config.wave, loop, config.motion)
            area = enclosed_area_vector(loop)  # kept on the loop: no second walk
            denom = max(abs(loop_integral), abs(area_form))
            doc = {
                "loop_integral_phase_rad": loop_integral,
                "area_formula_phase_rad": area_form,
                "relative_difference": (
                    abs(loop_integral - area_form) / denom if denom > 0.0 else 0.0
                ),
                "enclosed_area_m2": list(area.as_tuple()),
                "v_lambda_m2ps": config.wave.v_lambda,
            }
        elif args.command == "translate":
            opening = translation_opening(config)
            velocity = config.motion.translation
            _check_domain(config.wave, (config.path_II, config.path_I), MotionField(velocity))
            phase = open_loop_phase(config.wave, opening, velocity)
            cos_theta = (
                _cos_between(velocity.as_tuple(), opening.as_tuple())
                if velocity.norm() > 0.0
                else None
            )
            doc = {
                "phase_rad": phase,
                "fringe_count": phase / TWO_PI,
                "opening_m": list(opening.as_tuple()),
                "opening_magnitude_m": opening.norm(),
                "translation_mps": list(velocity.as_tuple()),
                "cos_theta": cos_theta,
                "v_lambda_m2ps": config.wave.v_lambda,
            }
        elif args.command == "sweep":
            sweep = sensitivity_sweep(config, args.vmin, args.vmax, args.steps)
            doc = {
                "rows": [r._asdict() for r in sweep.rows],
                "v_full_fringe_mps": sweep.v_full_fringe_mps,
                "bracket_mps": list(sweep.bracket) if sweep.bracket else None,
                "opening_m": list(sweep.opening_m.as_tuple()),
                "cos_theta": sweep.cos_theta,
                "v_lambda_m2ps": sweep.v_lambda,
            }
        else:  # fringes
            if args.steps < 2:
                raise MatterWaveError(f"--steps must be at least 2, got {args.steps}")
            base = two_path_difference(config).total_phase_rad
            rows = []
            for i in range(args.steps):
                offset = TWO_PI * i / (args.steps - 1)
                rows.append({"offset_rad": offset, **fringe_reading(base + offset)._asdict()})
            doc = {"base_phase_rad": base, "rows": rows}
        _write(emit_results(doc, fmt, per_segment), args.out)
        return 0
    except MatterWaveError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
