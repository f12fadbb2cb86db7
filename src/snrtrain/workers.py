"""Worker processes that render training epochs and decode test
conditions beside the parent.

runner(corpus, pool, parts) gives the runner of a job in `parts` parts. The
parent counts as one, so min(CPUs, parts) - 1 workers are forked, holding
corpus, pool and two _EpochSlots; the pool is kept for later calls with the
same parts, pool object and utterance objects, of which the parent keeps
only weak references. While it lives, the parent's and each worker's
OpenBLAS are pinned to one thread, and a worker exits when the parent ends.
runner.submit(doing, fn, *args) has a worker call fn(corpus, pool, slots,
*args) and returns a task: result() gives what fn returned, discard() waits
for it, and a dead worker raises ComputeError("a worker died <doing>") and
stops the pool. With zero workers (one CPU, one part, no OpenBLAS thread
setter, since unpinned workers lose to serial, or a call inside a
multiprocessing child) a task is deferred: result() runs it in the calling
process and discard() drops it unrun.
Only this module imports multiprocessing, concurrent.futures, mmap or
ctypes; all but mmap on first use.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import mmap
import os
import weakref
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ComputeError
from .features import FEATURE_DIM, num_frames


class _EpochSlots:
    """Two anonymous shared memory maps, each sized for one epoch of a
    corpus: its float32 feature matrices end to end in corpus order."""

    def __init__(self, corpus):
        self.layout = []  # (utterance id, first value, frames)
        size = 0
        for u in corpus:
            # no frames for an utterance shorter than one: its render raises
            frames = num_frames(len(u.waveform), u.waveform.sample_rate_hz)
            self.layout.append((u.utt_id, size, frames))
            size += frames * FEATURE_DIM
        self.size = size
        self.maps = [mmap.mmap(-1, max(1, 4 * size)) for _ in range(2)]

    def features(self, slot: int, writeable: bool = False) -> dict:
        """Each utterance id's (frames, FEATURE_DIM) view into the slot."""
        values = np.ndarray((self.size,), np.float32, buffer=self.maps[slot])
        values.flags.writeable = writeable
        return {utt_id: values[start : start + frames * FEATURE_DIM].reshape(
                    frames, FEATURE_DIM)
                for utt_id, start, frames in self.layout}

    def release(self, slot: int) -> None:
        """Free the slot's memory in every process; its data is gone."""
        self.maps[slot].madvise(mmap.MADV_REMOVE)


class _Deferred(functools.partial):
    """A task of a runner with no workers, run when its result is asked."""

    def result(self):
        return self()

    def discard(self) -> None:
        pass


class _Task(NamedTuple):
    """A task running on a worker."""

    doing: str
    future: object

    def result(self):
        with _worker_death(self.doing):
            return self.future.result()

    def discard(self) -> None:
        self.future.exception()  # waits for the task, raising nothing


class _Serial(NamedTuple):
    corpus: object
    pool: object
    slots: _EpochSlots
    count: int = 1

    def submit(self, doing: str, fn, *args) -> _Deferred:
        return _Deferred(fn, self.corpus, self.pool, self.slots, *args)


class _Forked(NamedTuple):
    executor: object  # a fork-context ProcessPoolExecutor of count - 1 workers
    count: int
    refs: tuple  # a weakref to the pool and to each utterance they hold
    slots: _EpochSlots
    restore_blas: object  # sets the parent's OpenBLAS threads back

    def hold(self, corpus, pool) -> bool:
        held = (pool, *corpus)
        return len(self.refs) == len(held) and \
            all(ref() is x for ref, x in zip(self.refs, held))

    def submit(self, doing: str, fn, *args) -> _Task:
        with _worker_death(doing):
            return _Task(doing, self.executor.submit(_call, fn, *args))


_forked = None  # the live _Forked runner, see runner
# (corpus, pool, slots): in the parent only while it forks, in a worker always
_fork_data = None


@functools.cache
def _openblas():
    """(get_num_threads, set_num_threads) of numpy's OpenBLAS, or None."""
    import ctypes
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for suffix in ("64_", ""):
            getter = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            setter = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


def runner(corpus, pool, parts: int):
    """A _Forked runner of min(CPUs, parts) - 1 workers or a _Serial one."""
    global _forked, _fork_data
    import multiprocessing
    count = min(len(os.sched_getaffinity(0)), parts)
    if count < 2 or _openblas() is None or multiprocessing.parent_process():
        return _Serial(corpus, pool, _EpochSlots(corpus))
    if _forked is not None and _forked.count == count and _forked.hold(corpus, pool):
        return _forked
    stop()
    from concurrent.futures import ProcessPoolExecutor
    getter, setter = _openblas()
    _forked = _Forked(
        ProcessPoolExecutor(count - 1, multiprocessing.get_context("fork"),
                            initializer=_start_worker),
        count, tuple(map(weakref.ref, (pool, *corpus))), _EpochSlots(corpus),
        functools.partial(setter, getter()))
    setter(1)
    # only weak references are kept: with the fork context the first submit
    # forks every worker, and each takes corpus and pool from _fork_data
    _fork_data = (corpus, pool, _forked.slots)
    try:
        _Task("starting", _forked.executor.submit(int)).result()
    finally:
        _fork_data = None
    return _forked


def stop() -> None:
    """End the workers, if any, and set the parent's OpenBLAS threads back."""
    global _forked
    if _forked is not None:
        forked, _forked = _forked, None
        forked.executor.shutdown()
        forked.restore_blas()


# an executor still alive at interpreter teardown prints an ignored exception
atexit.register(stop)


@contextlib.contextmanager
def _worker_death(doing: str):
    """Turn a dead worker into a ComputeError naming what it was doing; the
    workers are stopped, so the next call forks fresh ones."""
    from concurrent.futures.process import BrokenProcessPool
    try:
        yield
    except BrokenProcessPool:
        stop()
        raise ComputeError(f"a worker died {doing}") from None


def _start_worker() -> None:
    """Pin OpenBLAS to one thread and exit when the parent process ends,
    however it ends."""
    import multiprocessing.connection
    import threading

    _openblas()[1](1)

    def exit_with_parent():
        multiprocessing.connection.wait([multiprocessing.parent_process().sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _call(fn, *args):
    return fn(*_fork_data, *args)
