"""The farm's only process-spawning and byte-moving module.

Everything that crosses a process boundary on behalf of the farm flows
through here — reprolint rule REP014 forbids direct file opens,
``subprocess`` calls and ``multiprocessing`` constructors anywhere else
under ``repro.farm``, mirroring how REP013 confines result-store file
I/O to :mod:`repro.store.journal`.  Keeping the boundary in one module
keeps the failure model auditable: every way a worker can die or a
frame can tear is handled in the functions below, and the rest of the
farm reasons only in terms of frames, completions and failures.

Mechanics:

* fleet workers are spawned with **unbuffered** pipes (``bufsize=0``),
  so :func:`wait_readable` (a ``select`` over the raw descriptors) is
  truthful — no frame can hide in a Python-side buffer while the
  selector sleeps;
* :func:`read_frame` returns ``None`` at EOF and raises
  :class:`~repro.farm.protocol.ProtocolError` for a torn or garbage
  line; the backend maps both to a dead worker whose in-flight spec is
  requeued;
* :func:`write_frame` reports a closed pipe as ``False`` instead of
  raising, so dispatch can record the failure and let the collect loop
  handle it like any other death;
* :func:`create_pool` is the one constructor of multiprocessing pools
  (the ``LocalPoolBackend`` path), raising
  :class:`BackendUnavailable` in sandboxes that forbid the semaphores
  multiprocessing needs;
* the default executor's pool (:func:`_kept_pool`) is kept for the life
  of the process in one private slot: started by the first plan that
  needs it, reused by every later plan of the same size, and retired —
  terminated and joined — before any other pool is forked, when a plan
  abandons it, and at interpreter exit.  So there is at most one live
  local pool per process, and nothing forks beside a pool's handler
  threads.
"""

from __future__ import annotations

import atexit
import os
import select
import subprocess
import sys
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.farm.protocol import decode_frame, encode_frame

#: module run as the fleet worker entry point
WORKER_MODULE = "repro.farm.worker"


class BackendUnavailable(ReproError):
    """The requested backend cannot start in this environment."""


def _repro_root() -> str:
    """Directory to prepend to a worker's PYTHONPATH (``src``)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def worker_command(name: str) -> List[str]:
    """The argv a fleet worker is spawned with."""
    return [sys.executable, "-u", "-m", WORKER_MODULE, "--name", name]


def spawn_worker(
    name: str, extra_env: Optional[Dict[str, str]] = None
) -> "subprocess.Popen[bytes]":
    """Start one fleet worker with unbuffered stdin/stdout pipes.

    The child inherits this process's environment (so test/CI fault
    injection via ``REPRO_FARM_FAULT`` reaches it) with the parent's
    ``repro`` package location prepended to ``PYTHONPATH``; stderr
    passes through for diagnosability.
    """
    env = dict(os.environ)
    root = _repro_root()
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        root + os.pathsep + existing if existing else root
    )
    if extra_env:
        env.update(extra_env)
    try:
        return subprocess.Popen(
            worker_command(name),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,
            bufsize=0,
            env=env,
        )
    except OSError as error:
        raise BackendUnavailable(
            f"cannot spawn fleet worker {name!r}: {error}"
        ) from error


def write_frame(stream: IO[bytes], frame: Dict[str, Any]) -> bool:
    """Send one frame; ``False`` means the peer's pipe is gone."""
    try:
        stream.write(encode_frame(frame))
        stream.flush()
    except (BrokenPipeError, OSError, ValueError):
        # ValueError: write to a closed file object
        return False
    return True


def read_frame(stream: IO[bytes]) -> Optional[Dict[str, Any]]:
    """Receive one frame; ``None`` at EOF, ProtocolError on a torn line.

    A line cut by a crashed writer arrives without its newline and is
    reported as torn rather than parsed — exactly the journal's
    crash-recovery rule, applied to a live stream.
    """
    line = stream.readline()
    if not line:
        return None
    return decode_frame(line)


def wait_readable(
    streams: Sequence[IO[bytes]], timeout: Optional[float] = None
) -> List[IO[bytes]]:
    """Block until at least one stream has bytes (or EOF) to read."""
    if not streams:
        return []
    ready, _, _ = select.select(list(streams), [], [], timeout)
    return list(ready)


def stdio() -> Tuple[IO[bytes], IO[bytes]]:
    """The worker side of the pipes: binary stdin/stdout."""
    return sys.stdin.buffer, sys.stdout.buffer


def reap(
    process: "subprocess.Popen[bytes]", timeout: float = 5.0
) -> Optional[int]:
    """Shut a worker process down, escalating politely.

    Closes its stdin (the worker's read loop exits at EOF), waits, and
    kills if it lingers; returns the exit code when one was collected.
    """
    for pipe in (process.stdin, process.stdout):
        if pipe is not None:
            try:
                pipe.close()
            except OSError:
                pass
    try:
        return process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        try:
            return process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            return None


def create_pool(processes: int) -> Any:
    """The one constructor of local multiprocessing pools.

    Retires the kept pool first, so a pool is never forked beside
    another one's handler threads.  Raises :class:`BackendUnavailable`
    where pools cannot exist (some sandboxes forbid the required
    semaphores), so callers can fall back to the serial backend,
    mirroring the execution engine's own pool-to-serial fallback.
    """
    import multiprocessing

    _retire_kept_pool()
    try:
        return multiprocessing.Pool(processes=processes)
    except (OSError, ImportError) as error:
        raise BackendUnavailable(
            f"multiprocessing pool unavailable: {error}"
        ) from error


#: the default executor's pool and its size, or ``None`` (module docs)
_kept: Optional[Tuple[int, Any]] = None


def _kept_pool(processes: int) -> Any:
    """The process's one kept pool of ``processes`` workers.

    Reused when the size matches; otherwise the old pool is retired and
    a new one forked (raising :class:`BackendUnavailable` like
    :func:`create_pool`).  Its workers see this process's code and
    module state as of that fork.
    """
    global _kept
    if _kept is None or _kept[0] != processes:
        pool = create_pool(processes)
        # exit handlers run last-in first-out: registered after
        # multiprocessing's, this closes the pool before that one kills
        # its workers and leaves it "running" for Pool.__del__ to warn
        atexit.unregister(_retire_kept_pool)
        atexit.register(_retire_kept_pool)
        _kept = (processes, pool)
    return _kept[1]


def _retire_kept_pool() -> None:
    """Terminate and join the kept pool, if there is one."""
    global _kept
    if _kept is not None:
        pool = _kept[1]
        _kept = None
        pool.terminate()
        pool.join()
