"""Thread budget for batch-lane replay of compiled training programs.

A compiled training program (:class:`repro.nn.compile.GraphProgram`) can
split its batch-separable instructions into contiguous batch slices
("lanes") and run them on persistent helper threads; numpy releases the
GIL inside those kernels, so the lanes use otherwise idle cores.  This
module decides how many cores training may use and owns the helpers:

* **BLAS cap.**  :func:`cap_blas_threads` limits OpenBLAS to one thread
  (once per process, the first time training compiles a program).  The
  model's GEMMs are small per-sample products that a second BLAS thread
  does not speed up, but its spinning competes with the lanes and with
  concurrent trainers.  An explicit ``OPENBLAS_NUM_THREADS`` or
  ``OMP_NUM_THREADS`` in the environment is left alone.
* **Grant rule.**  :meth:`LaneBudget.grant` hands out a helper only while
  the threads replaying training plus the busy helpers are fewer than
  the cores this process may run on (``os.sched_getaffinity``).  Two
  concurrent trainers on two cores therefore both stay single-lane.
  Lanes never change values, so a grant may be taken per step.
* **Sharing.**  :func:`share` lets the caller and its helpers claim a
  region's batch chunks from one counter, so a helper that starts late
  never holds the caller back.

The process-wide budget is :data:`BUDGET`; tests build their own
:class:`LaneBudget` with an explicit core count.
"""

from __future__ import annotations

import ctypes
import itertools
import os
import queue
import threading
from contextlib import contextmanager
from typing import Iterator, List, Optional

__all__ = [
    "BUDGET",
    "LaneBudget",
    "MAX_LANES",
    "available_cores",
    "cap_blas_threads",
    "share",
]

#: Most lanes one program is split into: two, the only count measured
#: (on 2-CPU hosts).  Raise it once the end-to-end benchmark has runs on
#: a host with more cores that show a third lane pays.
MAX_LANES = 2

_BLAS_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads64_",
)

# thread-safety: written once under _CAP_LOCK by cap_blas_threads.
_CAP_LOCK = threading.Lock()
_capped: List[bool] = []


def available_cores() -> int:
    """Cores this process may run on (its CPU affinity set)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def cap_blas_threads() -> bool:
    """Cap every loaded OpenBLAS to one thread (once per process).

    Returns True when a cap was applied by this or an earlier call.
    Finds the libraries numpy loaded through ``/proc/self/maps`` and
    calls their ``*_set_num_threads`` entry point through ctypes; where
    neither exists (another BLAS, another OS) nothing changes.
    """
    with _CAP_LOCK:
        if _capped:
            return _capped[0]
        applied = False
        if not (os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")):
            try:
                with open("/proc/self/maps") as maps:
                    libs = {line.split()[-1] for line in maps if "openblas" in line}
            except OSError:
                libs = set()
            for lib in sorted(libs):
                try:
                    handle = ctypes.CDLL(lib)
                except OSError:
                    continue
                for symbol in _BLAS_SETTERS:
                    setter = getattr(handle, symbol, None)
                    if setter is not None:
                        setter.argtypes = [ctypes.c_int]
                        setter.restype = None
                        setter(1)
                        applied = True
                        break
        _capped.append(applied)
        return applied


class _Helper:
    """One persistent daemon thread running submitted callables in order.

    An idle helper sleeps on its queue and costs nothing.  Work arrives
    through :func:`share`, which catches and reports every task's
    errors itself.
    """

    def __init__(self) -> None:
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="repro-lane", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._queue.get()()

    def submit(self, work) -> None:
        self._queue.put(work)


class _Claims:
    """One :func:`share` call: tasks claimed in order from a counter."""

    def __init__(self, tasks) -> None:
        self.tasks = tasks
        # thread-safety: next() on itertools.count is atomic under the
        # GIL; ``left`` and ``errors`` change only under ``lock``.
        self.claims = itertools.count()
        self.lock = threading.Lock()
        self.left = len(tasks)
        self.finished = threading.Event()
        self.errors: List[BaseException] = []

    def work(self) -> None:
        tasks = self.tasks
        for i in self.claims:
            if i >= len(tasks):
                return
            failed = None
            try:
                tasks[i]()
            except BaseException as error:  # re-raised by share()
                failed = error
            with self.lock:
                if failed is not None:
                    self.errors.append(failed)
                self.left -= 1
                if not self.left:
                    self.finished.set()


def share(tasks, helpers) -> None:
    """Run every task once, the caller and ``helpers`` claiming them in
    list order.

    The caller works too and then waits only for tasks a helper already
    claimed, so a helper that has not woken up yet (or whose core the
    machine gave to someone else) never holds the caller back; it finds
    nothing left when it runs.  The first error any task raised is
    re-raised here, after every claimed task finished.
    """
    if not helpers or len(tasks) < 2:
        for task in tasks:
            task()
        return
    claims = _Claims(tasks)
    for helper in helpers[: len(tasks) - 1]:
        helper.submit(claims.work)
    claims.work()
    claims.finished.wait()
    if claims.errors:
        raise claims.errors[0]


class LaneBudget:
    """Process-wide accounting of training threads and lane helpers.

    ``cores`` defaults to :func:`available_cores`.  Threads replaying
    training register through :meth:`training`; each step asks
    :meth:`grant` for helpers and hands them back with :meth:`release`.
    """

    def __init__(self, cores: Optional[int] = None) -> None:
        self.cores = int(cores) if cores is not None else available_cores()
        # thread-safety: the counters and the idle list change only
        # under this lock.
        self._lock = threading.Lock()
        self._trainers = 0
        self._busy = 0
        self._idle: List[_Helper] = []

    def default_lanes(self) -> int:
        """Lanes a lone trainer would be granted on this budget."""
        return max(1, min(self.cores, MAX_LANES))

    @contextmanager
    def training(self) -> Iterator[None]:
        """Count the calling thread as replaying training while inside."""
        with self._lock:
            self._trainers += 1
        try:
            yield
        finally:
            with self._lock:
                self._trainers -= 1

    def grant(self, lanes: int) -> List[_Helper]:
        """Up to ``lanes - 1`` helpers, within the core budget.

        The caller itself runs one lane, so a grant of ``k`` helpers
        means ``k + 1`` lanes.  A trainer that has not registered through
        :meth:`training` counts as one anyway.
        """
        wanted = min(int(lanes), MAX_LANES) - 1
        if wanted <= 0:
            return []
        with self._lock:
            spare = self.cores - max(self._trainers, 1) - self._busy
            count = max(0, min(wanted, spare))
            helpers = [self._idle.pop() for _ in range(min(count, len(self._idle)))]
            self._busy += count
        while len(helpers) < count:
            helpers.append(_Helper())
        return helpers

    def release(self, helpers: List[_Helper]) -> None:
        if not helpers:
            return
        with self._lock:
            self._busy -= len(helpers)
            self._idle.extend(helpers)


#: The budget every training thread of this process shares.
BUDGET = LaneBudget()
