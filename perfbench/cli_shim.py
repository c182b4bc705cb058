"""Run one matterwave CLI command with spans or Vec3 counts recorded.

Usage: python perfbench/cli_shim.py <record.json> <trace|count> <op-id> -- <cli args>

Behaves like ``python -m matterwave.cli <cli args>``: same stdout, stderr
and exit code, an uncaught exception included. The record is written when
the command ends: ``{"import_ns": ..., "spans": [...]}`` in trace mode,
``{"import_ns": ..., "vec3": ..., "segments": ...}`` in count mode.
"""
import json
import sys
import time

import tracer


def main(argv: list[str]) -> int:
    record_path, mode, op = argv[0], argv[1], int(argv[2])
    cli_args = argv[4:]
    start = time.perf_counter_ns()
    import matterwave.cli as cli

    record = {"import_ns": time.perf_counter_ns() - start}
    if mode == "trace":
        recorder = tracer.Recorder()
        recorder.op = op
        tracer.install(recorder)
        record["spans"] = recorder.spans
    else:
        counter = tracer.Vec3Counter()
        counter.install()
    try:
        return cli.run_command(cli_args)
    finally:
        sys.stdout.flush()
        if mode == "count":
            record.update(vec3=counter.vec3, segments=counter.segments)
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
