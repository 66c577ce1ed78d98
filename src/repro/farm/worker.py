"""``python -m repro.farm.worker`` — one fleet worker process.

The worker speaks the newline-framed JSON protocol of
:mod:`repro.farm.protocol` over its stdio pipes: it announces itself
with a ``hello`` frame (name, pid, and a RunManifest dict — the
per-shard provenance the campaign manifest merges), then loops reading
``job`` frames, executing the pickled spec in-process, and answering
each with exactly one ``result`` (or ``error``) frame.  EOF on stdin or
a ``shutdown`` frame ends the loop cleanly; a torn or garbage job frame
ends it with exit code 3 — a desynchronised worker must die rather than
guess, because the parent's failure handling (requeue the in-flight
spec) is only correct if an unanswered job is never silently executed
twice.

Fault injection (tests and the CI ``farm-smoke`` job only): the
``REPRO_FARM_FAULT`` environment variable — read here, in the entry
point, like every other environment read in this codebase — arms one
deliberate failure, e.g. ``w1:die@2`` ("worker w1, on its 2nd job:
SIGKILL yourself before answering").  Actions: ``die`` (hard exit
mid-job, the SIGKILL stand-in), ``truncate`` (write half a result
frame, then exit — a torn frame on the wire), ``drop`` (execute but
never answer, then exit — a lost protocol message).  Each models a
failure the campaign must survive with a bit-identical table.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import IO, Any, Dict, Optional

from repro.experiments.parallel import RunSpec
from repro.farm import transport
from repro.farm.protocol import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_JOB,
    FRAME_RESULT,
    FRAME_SHUTDOWN,
    ProtocolError,
    make_frame,
    pack,
    unpack,
)
from repro.obs.manifest import RunManifest

#: environment variable arming one deliberate failure (tests/CI only)
ENV_FAULT = "REPRO_FARM_FAULT"

#: exit codes: clean, job-frame protocol violation
EXIT_OK = 0
EXIT_PROTOCOL = 3

FAULT_ACTIONS = ("die", "truncate", "drop")


@dataclass(frozen=True)
class Fault:
    """One armed failure: on job number ``job`` (1-based), ``action``."""

    action: str
    job: int
    worker: Optional[str] = None  # None: any worker matches

    def matches(self, worker: str, job: int) -> bool:
        if self.worker is not None and self.worker != worker:
            return False
        return self.job == job


def parse_fault(raw: str) -> Optional[Fault]:
    """Parse ``[worker:]action@N``; ``None`` for empty/garbage specs.

    Garbage is ignored rather than fatal: a stray variable must never
    change production behaviour, only tests arm real faults.
    """
    text = raw.strip()
    if not text:
        return None
    worker: Optional[str] = None
    if ":" in text:
        worker, text = text.split(":", 1)
    action, _, number = text.partition("@")
    if action not in FAULT_ACTIONS or not number.isdigit():
        return None
    return Fault(action=action, job=int(number), worker=worker or None)


def _inject(
    fault: Fault, out_stream: IO[bytes], result_frame: Dict[str, Any]
) -> int:
    """Perform the armed failure instead of answering normally."""
    if fault.action == "die":
        os._exit(9)
    if fault.action == "truncate":
        from repro.farm.protocol import encode_frame

        line = encode_frame(result_frame)
        out_stream.write(line[: max(1, len(line) // 2)])
        out_stream.flush()
        os._exit(EXIT_OK)
    # "drop": the result is computed but never sent; exiting cleanly
    # leaves the parent an EOF, the detectable shape of a lost message
    return EXIT_OK


def serve(
    in_stream: IO[bytes],
    out_stream: IO[bytes],
    name: str,
    fault: Optional[Fault] = None,
) -> int:
    """The worker loop; returns the process exit code."""
    hello = make_frame(
        FRAME_HELLO,
        worker=name,
        pid=os.getpid(),
        manifest=RunManifest.collect(farm_worker=name).to_dict(),
    )
    if not transport.write_frame(out_stream, hello):
        return EXIT_OK  # parent is already gone
    executed = 0
    while True:
        try:
            frame = transport.read_frame(in_stream)
        except ProtocolError:
            return EXIT_PROTOCOL
        if frame is None or frame["type"] == FRAME_SHUTDOWN:
            return EXIT_OK
        if frame["type"] != FRAME_JOB:
            return EXIT_PROTOCOL
        seq = frame["seq"]
        try:
            spec = unpack(frame["spec"])
            if not isinstance(spec, RunSpec):
                raise ProtocolError(
                    f"job {seq} payload is not a RunSpec"
                )
        except ProtocolError:
            return EXIT_PROTOCOL
        started = time.perf_counter()
        try:
            value = spec.execute()
        except BaseException as error:  # ships to the parent, re-raised
            answer = make_frame(
                FRAME_ERROR,
                seq=seq,
                error=repr(error),
                traceback=traceback.format_exc(),
            )
            try:
                answer["exc"] = pack(error)
            except Exception:
                pass  # unpicklable exception: repr/traceback only
            if not transport.write_frame(out_stream, answer):
                return EXIT_OK
            continue
        executed += 1
        answer = make_frame(
            FRAME_RESULT,
            seq=seq,
            value=pack(value),
            wall_seconds=time.perf_counter() - started,
        )
        if fault is not None and fault.matches(name, executed):
            return _inject(fault, out_stream, answer)
        if not transport.write_frame(out_stream, answer):
            return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``python -m repro.farm.worker``."""
    parser = argparse.ArgumentParser(
        prog="repro.farm.worker",
        description="one fleet worker (spawned by SubprocessFleetBackend)",
    )
    parser.add_argument(
        "--name", default="w?", help="worker label for provenance"
    )
    args = parser.parse_args(argv)
    fault = parse_fault(os.environ.get(ENV_FAULT, ""))
    in_stream, out_stream = transport.stdio()
    return serve(in_stream, out_stream, args.name, fault=fault)


if __name__ == "__main__":
    sys.exit(main())
