"""Command-line surface: scene in, numbers out.

Subcommands; each one that reads a scene names the function that builds its document::

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

from .experiment import (
    FringeReading, SweepRow, _check_steps, fringe_reading, sensitivity_sweep, verify_suite
)
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
    # Replace argparse's sys.exit(2) with a catchable error so run_command can keep the
    # documented exit-code contract. Its one refusal writer ends the usage text's last line.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _json_row(header) -> str:
    """The template of one grid row, filled with its cells: the JSON object of the header's keys."""
    keys = ",\n".join(f'      {json.dumps(key).replace("%", "%%")}: %r' for key in header)
    return f"    {{\n{keys}\n    }}"


# The template of one per-segment entry of a beam, filled with (segment index,
# increment): a JSON entry, the grid's row template with the beam's label
# written in, and a CSV row. A "%" in the beam's label is escaped.
def _json_entry(path_id) -> str:
    label = json.dumps(path_id).replace("%", "%%")  # quoted and escaped as JSON
    return _json_row(("path_id", "segment_index", "phase_rad")).replace("%r", label, 1)


def _csv_entry(path_id) -> str:
    return f"per_segment.{path_id}.".replace("%", "%%") + "%d,%r"


def _entries(entry, sep: str, lists):
    """Each list's entries, ``entry(label)`` filled once per entry, joined by ``sep``;
    ``lists`` yields (label, entry count, the values of each entry).

    One format operation over the repeated template per list spares an
    intermediate string per entry.
    """
    return (
        sep.join([entry(label)] * n) % tuple(chain.from_iterable(values))
        for label, n, values in lists
        if n
    )


def _json_list(entry, lists) -> str:
    """The entries as a JSON list; a function of its own, so that the joined
    entries are freed before the document that holds the list is built."""
    entries = ",\n".join(_entries(entry, ",\n", lists))
    return f"[\n{entries}\n  ]" if entries else "[]"


def _floats(value):
    """The floats that ``value`` holds, walked through lists, tuples and dicts."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return chain.from_iterable(map(_floats, value))
    return (value,) if isinstance(value, float) else ()


def emit_results(doc: dict, fmt: str) -> bytes:
    """Serialize a document to JSON or CSV bytes (LF line endings, '.' decimals).

    Two entries are lists, written from a template: a grid, ``doc["rows"] =
    (header, rows)`` of distinct names and rows of one cell per name, and a
    breakdown, ``doc["per_segment"]``, the (label, increments) of each beam.
    JSON is ``doc`` as json.dumps(indent=2) writes it, each list where its key
    stands: a grid's rows as objects keyed by the header, the breakdown as one
    path_id, segment_index, phase_rad object per increment. CSV is the grid,
    header first, or else one ``quantity,value`` row per number in ``doc``, then
    one row per increment. A number that is not finite has no JSON form: every
    float ``doc`` holds is checked before any text is built, for both formats.
    """
    header, rows = doc.get("rows", ((), ()))
    beams = doc.get("per_segment", ())
    segments = [(label, len(incs), zip(count(), incs)) for label, incs in beams]
    lists = {"rows": (_json_row, [(header, len(rows), rows)]), "per_segment": (_json_entry, segments)}
    spliced = dict.fromkeys(lists.keys() & doc)  # each list's place, null until it is written
    cells = filter(float.__instancecheck__, chain.from_iterable(rows))  # names and counts pass
    numbers = chain(_floats({**doc, **spliced}), cells, *(incs for _, incs in beams))
    bad = next(filterfalse(math.isfinite, numbers), None)
    if bad is not None:
        raise MatterWaveError(f"result is not finite ({bad}); refusing to write it")
    if fmt == "json":
        text = json.dumps({**doc, **spliced}, indent=2, allow_nan=False)
        text += "\n"  # the last line's end, so that the longest string is not copied for it
        for key in spliced:  # each list goes in where its key stands
            head, _, tail = text.partition(f'\n  "{key}": null')
            text = f'{head}\n  "{key}": {_json_list(*lists[key])}{tail}'
    elif fmt == "csv":
        if not header:
            numbers = [(k, v) for k, v in doc.items() if isinstance(v, (int, float))]
            header, rows = ("quantity", "value"), numbers
        lines = [",".join(map(str, row)) for row in chain([header], rows)]
        lines.extend(_entries(_csv_entry, "\n", segments))
        lines.append("")  # the last line's end
        text = "\n".join(lines)
    else:
        raise MatterWaveError(f"unknown output format {fmt!r}")
    return text.encode()


def _phase(args, scene, config) -> dict:
    result = two_path_difference(config)
    doc = {
        "total_phase_rad": result.total_phase_rad,
        "fringe_count": result.total_phase_rad / TWO_PI,
        "v_lambda_m2ps": result.v_lambda,
    }
    if args.breakdown or scene.output["breakdown"]:
        doc["per_segment"] = result.increments
    return doc


def _sagnac(args, scene, config) -> dict:
    loop = interference_loop(config)
    _check_domain(config.wave, (config.path_II, config.path_I), config.motion)
    loop_integral = (TWO_PI / config.wave.v_lambda) * circulation(config.motion, loop)
    area_form = sagnac_area_phase(config.wave, loop, config.motion)
    area = enclosed_area_vector(loop)  # kept on the loop: no second walk
    denom = max(abs(loop_integral), abs(area_form))
    return {
        "loop_integral_phase_rad": loop_integral,
        "area_formula_phase_rad": area_form,
        "relative_difference": (
            abs(loop_integral - area_form) / denom if denom > 0.0 else 0.0
        ),
        "enclosed_area_m2": list(area.as_tuple()),
        "v_lambda_m2ps": config.wave.v_lambda,
    }


def _translate(args, scene, config) -> dict:
    opening = translation_opening(config)
    velocity = config.motion.translation
    _check_domain(config.wave, (config.path_II, config.path_I), MotionField(velocity))
    phase = open_loop_phase(config.wave, opening, velocity)
    cos_theta = (
        _cos_between(velocity.as_tuple(), opening.as_tuple())
        if velocity.norm() > 0.0
        else None
    )
    return {
        "phase_rad": phase,
        "fringe_count": phase / TWO_PI,
        "opening_m": list(opening.as_tuple()),
        "opening_magnitude_m": opening.norm(),
        "translation_mps": list(velocity.as_tuple()),
        "cos_theta": cos_theta,
        "v_lambda_m2ps": config.wave.v_lambda,
    }


def _sweep(args, scene, config) -> dict:
    sweep = sensitivity_sweep(config, args.vmin, args.vmax, args.steps)
    return {
        "rows": (SweepRow._fields, sweep.rows),
        "v_full_fringe_mps": sweep.v_full_fringe_mps,
        "bracket_mps": list(sweep.bracket) if sweep.bracket else None,
        "opening_m": list(sweep.opening_m.as_tuple()),
        "cos_theta": sweep.cos_theta,
        "v_lambda_m2ps": sweep.v_lambda,
    }


def _fringes(args, scene, config) -> dict:
    _check_steps(args.steps)
    base = two_path_difference(config).total_phase_rad
    offsets = (TWO_PI * i / (args.steps - 1) for i in range(args.steps))
    rows = [(offset, *fringe_reading(base + offset)) for offset in offsets]
    return {"base_phase_rad": base, "rows": (("offset_rad", *FringeReading._fields), rows)}


def _build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description="moving-segment interferometer phase calculator")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def add(name: str, help_text: str, document=None) -> argparse.ArgumentParser:
        """A subcommand; one with a ``document`` builder reads ``--scene``."""
        p = sub.add_parser(name, help=help_text)
        if document is not None:
            p.add_argument("--scene", required=True, help="scene file (JSON)")
            p.set_defaults(document=document)
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", choices=OUTPUT_FORMATS, default=None)
        return p

    p = add("phase", "two-beam phase difference of the scene", _phase)
    p.add_argument("--breakdown", action="store_true", help="include per-segment contributions")

    add("sagnac", "rotation phase: loop integral vs area formula", _sagnac)
    add("translate", "open-loop translational phase", _translate)

    p = add("sweep", "phase versus apparatus speed", _sweep)
    p.add_argument("--vmin", type=float, default=0.0, help="lowest speed, m/s")
    p.add_argument("--vmax", type=float, required=True, help="highest speed, m/s")
    p.add_argument("--steps", type=int, default=21)

    p = add("fringes", "fringe readings over a phase-offset grid", _fringes)
    p.add_argument("--steps", type=int, default=9)

    p = add("verify", "randomized self-check suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


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
    try:
        args = _build_parser().parse_args(_attach_negative_numbers(argv))
        if args.command == "verify":
            report = verify_suite(seed=args.seed)
            checks = [c._asdict() for c in report.checks]
            doc = {"seed": report.seed, "passed": report.passed, "checks": checks}
            if args.format == "csv":  # a grid of the columns that CSV can hold
                header = ("check", "samples", "max_violation", "tolerance", "passed")
                doc = {"rows": (header, [(*c[:4], str(c.passed).lower()) for c in report.checks])}
            _write(emit_results(doc, args.format or "json"), args.out)
            return 0 if report.passed else 2

        try:
            with open(args.scene, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SceneError(f"cannot read scene file {args.scene!r}: {exc}") from exc
        scene = parse_scene(text)
        doc = args.document(args, scene, config_from_scene(scene))
        _write(emit_results(doc, args.format or scene.output["format"]), args.out)
        return 0
    except (_UsageError, MatterWaveError) as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 1
    except SystemExit as exc:  # --help, from parse_args
        return int(exc.code or 0)


def main() -> None:
    # One short process with no growing reference cycles: a collection would only walk
    # the scene and the beams. Finalization still makes one full collection; frozen,
    # what start-up and the imports built is left out of it. run_command, which tests
    # and libraries call, leaves the collector as it finds it.
    gc.disable()
    gc.freeze()
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
