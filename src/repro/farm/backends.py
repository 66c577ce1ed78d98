"""Worker backends: three ways to execute a dispatched spec.

A backend owns a set of numbered workers and exposes the four-verb
interface the campaign driver needs — ``start``, ``dispatch``,
``collect``, ``close`` — plus per-worker labels and provenance
manifests.  The contract:

* ``dispatch(worker, spec)`` hands one spec to one idle worker and
  returns immediately;
* ``collect()`` blocks until *something* happens anywhere in the fleet
  and returns either a :class:`CompletedJob` or a
  :class:`WorkerFailure`; every dispatched spec eventually produces
  exactly one of the two (a worker that dies answers through failure);
* a spec's *executed value* must be byte-for-byte what the serial path
  would compute — backends move pickles around, they never transform
  them;
* a worker function that raises is a campaign **error**, not a worker
  failure: the exception propagates to the caller exactly as the
  multiprocessing pool path propagates it today.

Backends:

:class:`SerialBackend`
    executes dispatched specs in-process, one per ``collect`` call, in
    dispatch order.  The always-available reference implementation and
    the engine the hypothesis scheduling properties run on.
:class:`LocalPoolBackend`
    one pool process per worker, specs submitted with ``apply_async``
    and completions awaited on a queue its callbacks feed.  Raises
    :class:`~repro.farm.transport.BackendUnavailable` from ``start``
    where pools cannot exist, so a caller can fall back to serial.
:class:`SubprocessFleetBackend`
    N independent ``python -m repro.farm.worker`` processes speaking
    the newline-framed JSON protocol over unbuffered pipes — the
    stand-in for a future SSH fleet.  Death detection is stream-shaped:
    EOF, a torn line, a garbage line, a sequence-number mismatch or a
    closed stdin all declare the worker dead.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from queue import SimpleQueue
from typing import Any, Deque, Dict, Optional, Union

from repro.errors import ReproError
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


class FarmError(ReproError):
    """A campaign could not complete (e.g. every worker died)."""


class FarmWorkerError(FarmError):
    """A spec's function raised in a worker and could not be re-raised
    as its original exception type; carries the remote traceback."""

    def __init__(self, worker: str, error: str, remote_traceback: str):
        super().__init__(
            f"worker {worker}: spec raised {error}\n{remote_traceback}"
        )
        self.worker = worker
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class CompletedJob:
    """One finished execution: who ran it, what came back, how long."""

    worker: int
    spec: RunSpec
    value: Any
    wall_seconds: float


@dataclass(frozen=True)
class WorkerFailure:
    """One worker is gone; its in-flight spec (if any) needs requeueing."""

    worker: int
    reason: str


CollectEvent = Union[CompletedJob, WorkerFailure]


class WorkerBackend(ABC):
    """The campaign driver's view of a worker fleet (see module docs)."""

    kind: str = "abstract"

    @abstractmethod
    def start(self, workers: int) -> None:
        """Bring up ``workers`` workers (idempotently closeable)."""

    @abstractmethod
    def dispatch(self, worker: int, spec: RunSpec) -> None:
        """Hand ``spec`` to an idle worker; returns immediately."""

    @abstractmethod
    def collect(self) -> CollectEvent:
        """Block until one completion or one failure, fleet-wide."""

    @abstractmethod
    def close(self) -> None:
        """Tear the fleet down (idempotent)."""

    def label(self, worker: int) -> str:
        """Stable human-readable worker name for provenance."""
        return f"w{worker}"

    def manifests(self) -> Dict[str, Dict[str, Any]]:
        """Per-worker provenance manifests, keyed by label."""
        return {}


class SerialBackend(WorkerBackend):
    """In-process execution; dispatches complete in FIFO order."""

    kind = "serial"

    def __init__(self) -> None:
        self._queue: Deque[tuple] = deque()

    def start(self, workers: int) -> None:
        self._queue.clear()

    def dispatch(self, worker: int, spec: RunSpec) -> None:
        self._queue.append((worker, spec))

    def collect(self) -> CollectEvent:
        if not self._queue:
            raise FarmError("serial backend: collect with nothing dispatched")
        worker, spec = self._queue.popleft()
        started = time.perf_counter()
        value = spec.execute()  # errors propagate, as on the serial path
        return CompletedJob(
            worker=worker,
            spec=spec,
            value=value,
            wall_seconds=time.perf_counter() - started,
        )

    def close(self) -> None:
        self._queue.clear()


def _pool_execute(spec: RunSpec) -> tuple:
    """Pool worker: module-level, so it pickles by reference."""
    started = time.perf_counter()
    value = spec.execute()
    return value, time.perf_counter() - started


class LocalPoolBackend(WorkerBackend):
    """One multiprocessing pool process per farm worker."""

    kind = "local"

    def __init__(self) -> None:
        self._pool: Optional[Any] = None
        self._outstanding: Dict[int, tuple] = {}
        #: workers whose job finished, fed by the pool's result thread
        self._finished: "SimpleQueue[int]" = SimpleQueue()

    def start(self, workers: int) -> None:
        self._pool = transport.create_pool(workers)

    def dispatch(self, worker: int, spec: RunSpec) -> None:
        assert self._pool is not None, "start() before dispatch()"
        if worker in self._outstanding:
            raise FarmError(f"worker {worker} already has a job in flight")

        def finished(_result: Any) -> None:
            self._finished.put(worker)

        # a raising spec must wake collect() too, or it blocks forever
        self._outstanding[worker] = (
            spec,
            self._pool.apply_async(
                _pool_execute,
                (spec,),
                callback=finished,
                error_callback=finished,
            ),
        )

    def collect(self) -> CollectEvent:
        if not self._outstanding:
            raise FarmError("pool backend: collect with nothing dispatched")
        # a dead worker raises WorkerLost; the campaign's close() retires
        # the pool
        worker = transport.pool_wait(
            self._pool,
            lambda timeout: self._finished.get(timeout=timeout),
            lambda: [spec.key for spec, _ in self._outstanding.values()],
        )
        spec, handle = self._outstanding.pop(worker)
        value, wall = handle.get()  # worker errors re-raise here
        return CompletedJob(
            worker=worker,
            spec=spec,
            value=value,
            wall_seconds=wall,
        )

    def close(self) -> None:
        if self._pool is not None:
            transport.retire_pool(self._pool)
            self._pool = None
        self._outstanding.clear()
        self._finished = SimpleQueue()


class SubprocessFleetBackend(WorkerBackend):
    """N worker subprocesses over the newline-framed JSON protocol."""

    kind = "fleet"

    def __init__(
        self, extra_env: Optional[Dict[str, str]] = None
    ) -> None:
        self._extra_env = extra_env
        self._procs: Dict[int, Any] = {}
        self._inflight: Dict[int, tuple] = {}  # worker -> (seq, spec)
        self._failed: Deque[WorkerFailure] = deque()
        self._dead: Dict[int, str] = {}
        self._manifests: Dict[str, Dict[str, Any]] = {}
        self._seq = 0

    def start(self, workers: int) -> None:
        for index in range(workers):
            self._procs[index] = transport.spawn_worker(
                self.label(index), extra_env=self._extra_env
            )

    def manifests(self) -> Dict[str, Dict[str, Any]]:
        return dict(self._manifests)

    def _fail(self, worker: int, reason: str) -> WorkerFailure:
        """Declare a worker dead and reap its process."""
        self._dead[worker] = reason
        process = self._procs.pop(worker, None)
        if process is not None:
            transport.reap(process)
        failure = WorkerFailure(worker=worker, reason=reason)
        return failure

    def dispatch(self, worker: int, spec: RunSpec) -> None:
        if worker in self._inflight:
            raise FarmError(f"worker {worker} already has a job in flight")
        if worker in self._dead:
            raise FarmError(f"worker {worker} is dead; cannot dispatch")
        self._seq += 1
        self._inflight[worker] = (self._seq, spec)
        process = self._procs[worker]
        frame = make_frame(FRAME_JOB, seq=self._seq, spec=pack(spec))
        if not transport.write_frame(process.stdin, frame):
            # the death surfaces through collect() like any other, so
            # the campaign's single requeue path handles it
            self._failed.append(
                self._fail(worker, "stdin pipe closed at dispatch")
            )

    def collect(self) -> CollectEvent:
        while True:
            if self._failed:
                return self._failed.popleft()
            streams = {
                process.stdout: worker
                for worker, process in self._procs.items()
            }
            if not streams:
                raise FarmError("fleet backend: no live workers to collect")
            for stream in transport.wait_readable(list(streams)):
                worker = streams[stream]
                event = self._read_event(worker, stream)
                if event is not None:
                    return event

    def _read_event(
        self, worker: int, stream: Any
    ) -> Optional[CollectEvent]:
        """One frame from one worker -> an event, or None to keep going."""
        try:
            frame = transport.read_frame(stream)
        except ProtocolError as error:
            return self._fail(worker, f"torn/garbage frame: {error}")
        if frame is None:
            return self._fail(worker, "worker stream ended (EOF)")
        if frame["type"] == FRAME_HELLO:
            self._manifests[frame["worker"]] = frame["manifest"]
            return None
        pending = self._inflight.get(worker)
        if pending is None:
            return self._fail(
                worker, f"unsolicited {frame['type']} frame"
            )
        seq, spec = pending
        if frame.get("seq") != seq:
            return self._fail(
                worker,
                f"out-of-sync frame: expected seq {seq}, "
                f"got {frame.get('seq')!r}",
            )
        del self._inflight[worker]
        if frame["type"] == FRAME_ERROR:
            self.close()
            packed = frame.get("exc")
            if isinstance(packed, str):
                try:
                    raise unpack(packed)  # the original exception type
                except ProtocolError:
                    pass
            raise FarmWorkerError(
                self.label(worker), frame["error"], frame["traceback"]
            )
        if frame["type"] != FRAME_RESULT:
            return self._fail(
                worker, f"unexpected {frame['type']} frame mid-job"
            )
        try:
            value = unpack(frame["value"])
        except ProtocolError as error:
            return self._fail(worker, f"undecodable result: {error}")
        return CompletedJob(
            worker=worker,
            spec=spec,
            value=value,
            wall_seconds=float(frame["wall_seconds"]),
        )

    def close(self) -> None:
        for worker, process in list(self._procs.items()):
            transport.write_frame(
                process.stdin, make_frame(FRAME_SHUTDOWN)
            )
            transport.reap(process)
            del self._procs[worker]
        self._inflight.clear()
        self._failed.clear()
