"""The farm's only process-spawning and byte-moving module.

Everything that crosses a process boundary on behalf of the farm flows
through here, so every way a worker can die or a frame can tear is
handled in the functions below, and the rest of the farm reasons only
in terms of frames, completions and failures.

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
  multiprocessing needs.  It notes the pool's worker pids, and
  :func:`pool_wait` fails closed on them: a pool replaces a worker that
  died but never the job it held, so a wait that times out checks the
  pids and raises :class:`WorkerLost` naming the unfinished specs
  instead of blocking forever;
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
import queue
import select
import subprocess
import sys
import weakref
from typing import IO, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.farm.protocol import decode_frame, encode_frame

#: module run as the fleet worker entry point
WORKER_MODULE = "repro.farm.worker"


#: seconds a pool wait blocks between checks of the pool's workers
POOL_POLL_SECONDS = 0.5


class BackendUnavailable(ReproError):
    """The requested backend cannot start in this environment."""


class WorkerLost(ReproError):
    """A local pool worker died; the specs it held will never finish."""


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
    before = {child.pid for child in multiprocessing.active_children()}
    try:
        pool = multiprocessing.Pool(processes=processes)
    except (OSError, ImportError) as error:
        raise BackendUnavailable(
            f"multiprocessing pool unavailable: {error}"
        ) from error
    _worker_pids[pool] = frozenset(
        child.pid
        for child in multiprocessing.active_children()
        if child.pid not in before
    )
    return pool


#: the workers each live pool of :func:`create_pool` started with
_worker_pids: "weakref.WeakKeyDictionary[Any, frozenset]" = (
    weakref.WeakKeyDictionary()
)


def pool_wait(
    pool: Any, get: Callable[[float], Any], unfinished: Callable[[], List[Any]]
) -> Any:
    """``get(timeout)`` from ``pool`` until it answers; fail closed.

    ``get`` is a timed blocking read (``IMapIterator.next``,
    ``SimpleQueue.get``).  Each time it times out, the pool's workers
    are checked; once one has died, :class:`WorkerLost` names it and the
    keys ``unfinished()`` returns, at most one per worker.  The caller
    retires the pool.
    """
    import multiprocessing

    while True:
        try:
            return get(POOL_POLL_SECONDS)
        except (multiprocessing.TimeoutError, queue.Empty):
            lost = _lost_workers(pool)
            if lost:
                jobs = len(_worker_pids[pool])
                keys = ", ".join(map(repr, unfinished()[:jobs]))
                raise WorkerLost(
                    f"local pool worker(s) {lost} died; unfinished "
                    f"spec(s): {keys}"
                ) from None


def _lost_workers(pool: Any) -> List[int]:
    """Pids of ``pool``'s workers that have exited (a pool of
    :func:`create_pool` never retires a healthy one).

    ``active_children()`` alone still lists a worker that the pool's
    handler thread is reaping at that moment, so a pid that no longer
    exists counts as exited too.
    """
    import multiprocessing

    alive = {child.pid for child in multiprocessing.active_children()}
    return sorted(
        pid for pid in _worker_pids.get(pool, ())
        if pid not in alive or not _pid_exists(pid)
    )


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def pool_results(
    pool: Any, results: Any, keys: Sequence[Any], key_of: Callable[[Any], Any]
) -> Iterator[Any]:
    """The items of ``pool``'s ``imap``-family ``results``, failing
    closed (:func:`pool_wait`) if a worker dies; ``keys`` are the
    submitted jobs' keys in submission order, ``key_of`` an item's."""
    # jobs start in submission order, so the first unfinished keys hold
    # every job in flight
    pending = dict.fromkeys(keys)
    while pending:
        try:
            item = pool_wait(pool, results.next, lambda: list(pending))
        except StopIteration:
            return
        del pending[key_of(item)]
        yield item


#: the default executor's pool and its size, or ``None`` (module docs)
_kept: Optional[Tuple[int, Any]] = None


def _kept_pool(processes: int) -> Any:
    """The process's one kept pool of ``processes`` workers.

    Reused when the size matches and no worker of it has died;
    otherwise the old pool is retired and a new one forked (raising :class:`BackendUnavailable` like
    :func:`create_pool`).  Its workers see this process's code and
    module state as of that fork.
    """
    global _kept
    if _kept is not None and _lost_workers(_kept[1]):
        # the pool replaced the worker, but a wait would miss its pid
        _retire_kept_pool()
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
        retire_pool(pool)


def retire_pool(pool: Any) -> None:
    """Terminate and join ``pool``.

    An idle worker waits for its next job holding the job queue's read
    lock, and ``terminate()`` takes that lock before it stops anything:
    a worker killed while idle would hang it, as would one killed while
    it held the result queue's write lock.  Which worker holds a lock
    cannot be seen, and handing one back from under a live worker lets
    two of them use the queue at once.  So once a worker is lost the
    pool stops replacing workers and every worker is killed; a lock
    that is then still held after a second (the pool's task thread
    holds the write lock only for one short send) was held by a dead
    worker, and is handed back.
    """
    if _lost_workers(pool):
        from multiprocessing.pool import TERMINATE

        pool._worker_handler._state = TERMINATE
        pool._change_notifier.put(None)
        pool._worker_handler.join()
        for worker in pool._pool:
            worker.kill()
            worker.join()
        for lock in (pool._inqueue._rlock, pool._outqueue._wlock):
            lock.acquire(timeout=1.0)
            lock.release()
    pool.terminate()
    pool.join()
