"""Experiment harness: run (method x seed) grids and collect records.

This is the machinery behind every figure/table bench: the paper runs each
experiment "with five different random seeds and independently collected
initial datasets" and reports medians and interquartile ranges.

The seed grid optionally routes through a
:class:`repro.engine.EvaluationEngine`: every seed then gets an
engine-backed simulator sharing one persistent cache and worker pool, and
``parallel_seeds > 1`` runs seeds concurrently on threads (the heavy
synthesis work happens in the engine's worker processes; per-seed budget
accounting stays independent, so records are bit-identical to serial
execution in any case).  Parallel waves additionally share a
:class:`repro.core.replicas.ReplicaRoundPool`: same-shaped model-based
cells train their first round as one stacked multi-replica program,
equivalent to per-cell training within floating-point reassociation
(``REPRO_STACKED_REPLICAS=0`` restores strictly bit-identical per-cell
training; checkpointed cells always train per-cell).

The public entry point is :meth:`repro.api.Session.run`: it describes the
grid as a :class:`repro.api.ExperimentSpec`, owns the engine lifecycle and
resolves methods by name from the registry.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from ..circuits.task import CircuitTask
from ..obs import trace
from .optimizer import SearchAlgorithm
from .results import RunRecord
from .simulator import BudgetExhausted, CircuitSimulator

if TYPE_CHECKING:  # runtime import would cycle: repro.engine imports repro.opt
    from ..engine.service import EvaluationEngine

__all__ = ["GridObserver", "RunInterrupted"]

AlgorithmFactory = Callable[[int], SearchAlgorithm]


class RunInterrupted(RuntimeError):
    """A run was asked to stop at a simulator query boundary.

    Raised by a :class:`GridObserver` (e.g. when
    :meth:`repro.api.RunHandle.interrupt` was called); never caught by
    the algorithms themselves — they only handle
    :class:`~repro.opt.simulator.BudgetExhausted` — so it unwinds the
    whole seed cleanly.  Everything evaluated before the interrupt is
    already recorded (history appends happen before the observer runs),
    which is what makes interrupted runs resumable.
    """


class GridObserver:
    """Hook points :func:`_run_seed_grid` offers around each (method, seed).

    The no-op base class; :mod:`repro.api` subclasses it to stream typed
    run events, write run directories incrementally and implement
    interrupt/resume.  With ``parallel_seeds > 1`` the per-seed hooks are
    called concurrently from the seed threads — implementations must be
    thread-safe across *different* (method, seed) cells (one cell is
    always driven by a single thread).
    """

    def check_interrupt(self) -> None:
        """Raise :class:`RunInterrupted` to stop before the next seed."""

    def completed_record(self, method: str, seed: int) -> Optional[RunRecord]:
        """A previously finished record for this cell (skips the run)."""
        return None

    def before_seed(self, method: str, seed: int, simulator: CircuitSimulator) -> int:
        """Prepare a fresh simulator (e.g. warm-cache replay priming).

        Returns how many recorded evaluations were primed for replay.
        """
        return 0

    def on_seed_started(self, method: str, seed: int, replayed: int) -> None:
        """The seed's algorithm is about to run."""

    def on_evaluation(
        self,
        method: str,
        seed: int,
        evaluation,
        simulator: CircuitSimulator,
    ) -> None:
        """One new evaluation was appended to the seed's history.

        Called at the simulator query boundary (see
        :attr:`~repro.opt.simulator.CircuitSimulator.on_evaluation`); may
        raise :class:`RunInterrupted` to abort the run here.
        """

    def on_training(self, method: str, seed: int, info: dict) -> None:
        """A model-based method finished one retraining round.

        ``info`` is the plain dict the method handed to
        :attr:`~repro.opt.simulator.CircuitSimulator.on_training`
        (round index, epochs run/skipped, last losses, compiled-step
        counters, compile fallback reason).  Purely observational —
        never raises into the run.
        """

    def on_seed_finished(
        self, method: str, seed: int, record: RunRecord, resumed: bool
    ) -> None:
        """The cell completed (``resumed`` = served from a prior record)."""


def _make_simulator(
    task: CircuitTask, budget: int, engine: Optional["EvaluationEngine"]
) -> CircuitSimulator:
    """One fresh oracle for one run.

    ``engine`` is a :class:`repro.engine.EvaluationEngine` (shared
    persistent cache + synthesis worker pool) or ``None`` for a plain
    serial :class:`CircuitSimulator`.
    """
    if engine is None:
        return CircuitSimulator(task, budget=budget)
    return engine.simulator(task, budget=budget)


def _run_seed_grid(
    factory: AlgorithmFactory,
    task: CircuitTask,
    budget: int,
    seeds: Sequence[int],
    method_name: Optional[str] = None,
    engine: Optional["EvaluationEngine"] = None,
    parallel_seeds: int = 1,
    observer: Optional[GridObserver] = None,
) -> List[RunRecord]:
    """The engine room behind :meth:`repro.api.Session.run`: one
    algorithm across seeds, one fresh simulator per run.

    ``factory(seed)`` builds the algorithm instance (so per-seed
    configuration like initial-dataset sizes can vary, as in the paper's
    grouped-budget curves).  ``engine`` is a shared
    :class:`repro.engine.EvaluationEngine` or ``None`` (plain serial
    simulators); ``parallel_seeds`` runs that many seeds concurrently on
    threads when an engine carries the synthesis work.

    ``observer`` (a :class:`GridObserver`) adds job-lifecycle semantics
    without touching any method: a per-seed completion ledger (finished
    cells are served from their stored record, not re-run), warm-cache
    replay priming, per-evaluation streaming via the simulator-boundary
    hook, and interruption (:class:`RunInterrupted` propagates out of
    this function once in-flight seeds reach a query boundary).
    """
    if observer is not None and method_name is None:
        raise ValueError("an observed grid needs an explicit method_name")

    def _run_one(seed: int, pool_handle=None) -> RunRecord:
        # The span context-manager form guarantees the seed span closes
        # even when RunInterrupted (or anything else) unwinds the seed
        # thread mid-run; fresh threads parent to the tracer's default
        # context (the experiment root span).
        with trace.span("seed") as span:
            if method_name is not None:
                span.set_attr("method", method_name)
            span.set_attr("seed", seed)
            try:
                return _run_seed(seed, pool_handle)
            finally:
                if pool_handle is not None:
                    # Every registered cell must arrive or withdraw, or
                    # the wave's rendezvous never releases; withdrawing
                    # an already-consumed handle is a no-op.
                    pool_handle.withdraw()

    def _run_seed(seed: int, pool_handle=None) -> RunRecord:
        if observer is not None:
            observer.check_interrupt()
            done = observer.completed_record(method_name, seed)
            if done is not None:
                observer.on_seed_finished(method_name, seed, done, resumed=True)
                return done
        algorithm = factory(seed)
        simulator = _make_simulator(task, budget, engine)
        if pool_handle is not None:
            simulator.replica_pool = pool_handle
        if observer is not None:
            replayed = observer.before_seed(method_name, seed, simulator)
            observer.on_seed_started(method_name, seed, replayed)
            simulator.on_evaluation = lambda evaluation: observer.on_evaluation(
                method_name, seed, evaluation, simulator
            )
            simulator.on_training = lambda info: observer.on_training(
                method_name, seed, info
            )
            # Checked at the start of *every* query (cache hits too), so
            # an interrupt cannot stall behind a hit-only stretch.
            simulator.check_abort = observer.check_interrupt
        rng = np.random.default_rng(seed)
        try:
            algorithm.run(simulator, rng)
        except BudgetExhausted:
            pass  # normal termination for budget-driven algorithms
        record = RunRecord.from_simulator(
            method_name or algorithm.method_name, seed, simulator
        )
        if observer is not None:
            observer.on_seed_finished(method_name, seed, record, resumed=False)
        return record

    seeds = list(seeds)
    if parallel_seeds > 1 and len(seeds) > 1:
        # Seeds run in waves of exactly the worker count, one fresh
        # ReplicaRoundPool per wave: every wave member is guaranteed its
        # own live thread, so the pool's rendezvous (first training
        # round trains same-shaped cells as one stacked multi-replica
        # program) can never deadlock on thread reuse.  Results are
        # identical to the plain map — cells are independent.
        from ..core.replicas import ReplicaRoundPool, use_stacked_replicas

        workers = min(parallel_seeds, len(seeds))
        pooling = use_stacked_replicas()
        records: List[RunRecord] = []
        for start in range(0, len(seeds), workers):
            wave = seeds[start:start + workers]
            if pooling and len(wave) > 1:
                wave_pool = ReplicaRoundPool()
                handles = [wave_pool.handle(seed) for seed in wave]
            else:
                handles = [None] * len(wave)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                records.extend(pool.map(_run_one, wave, handles))
        return records
    return [_run_one(seed) for seed in seeds]
