"""The evaluation engine and its drop-in simulator facade.

:class:`EvaluationEngine` owns the shared pieces — one persistent
:class:`~repro.engine.cache.EvaluationCache`, one
:class:`~repro.engine.pool.SynthesisPool`, one aggregate
:class:`~repro.engine.telemetry.EngineTelemetry` — and hands out
:class:`EngineSimulator` instances, one per (task, budget, run).

:class:`EngineSimulator` subclasses the plain
:class:`~repro.opt.simulator.CircuitSimulator`, so every existing caller
(Algorithm 1, all baselines, the runner, the benches) works unchanged.
Only the execution backend differs:

* single ``query`` misses are served through the persistent cache before
  falling back to synthesis;
* ``query_plan``/``query_many`` batches classify the whole batch first
  (run-memo hits, in-batch duplicates, budget refusals) and then
  synthesize the *unique new* graphs in one submission — by default one
  vectorized :mod:`repro.synth.batched` pass over the whole population
  (optionally chunked across pool workers), with telemetry splitting
  synthesis time into ``synthesis_vectorized`` / ``synthesis_scalar``.

Budget accounting is **identical** to serial execution by construction:
the classification pass walks designs in submission order and assigns
``sim_index`` before any parallel work starts, so ``history``,
``num_simulations`` and ``best_cost_curve`` are bit-identical whether a
batch ran on 1 or 16 workers, cold or against a warm disk cache.  A
persistent-cache hit still charges the run's budget — the cache
eliminates physical synthesis work, never paper-semantics accounting.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..circuits.task import CircuitTask
from ..obs import trace
from ..opt.simulator import CircuitSimulator, Evaluation
from ..prefix.graph import PrefixGraph
from ..synth.cost import cost_from_metrics
from .cache import EvaluationCache, default_cache_dir, task_fingerprint
from .pool import SynthesisPool
from .telemetry import EngineTelemetry, stage_all


def _graph_tag(graph: PrefixGraph) -> str:
    """Short printable graph identity for span attributes."""
    return graph.key().hex()[:16]

__all__ = ["EvaluationEngine", "EngineSimulator"]

Metrics = Tuple[float, float]  # (area_um2, delay_ns)


class EvaluationEngine:
    """Shared cache + worker pool + telemetry behind any number of runs.

    Parameters
    ----------
    cache:
        An :class:`EvaluationCache` to share; built from ``cache_dir``
        (default ``$REPRO_CACHE_DIR``; unset = memory-only) when omitted.
    pool:
        A :class:`SynthesisPool` to share; built from ``workers``
        (default ``$REPRO_ENGINE_WORKERS``, i.e. 1 = serial) when omitted.
    """

    def __init__(
        self,
        cache: Optional[EvaluationCache] = None,
        pool: Optional[SynthesisPool] = None,
        cache_dir: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> None:
        if cache is None:
            cache = EvaluationCache(
                cache_dir=cache_dir if cache_dir is not None else default_cache_dir()
            )
        self.cache = cache
        self.pool = pool if pool is not None else SynthesisPool(workers)
        self.telemetry = EngineTelemetry()
        # In-flight synthesis registry: parallel seed threads that miss
        # the cache on the same design wait for the first thread's result
        # instead of synthesizing it again.
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[Tuple[str, bytes], threading.Event] = {}

    # ------------------------------------------------------------------
    def simulator(
        self, task: CircuitTask, budget: Optional[int] = None
    ) -> "EngineSimulator":
        """A fresh engine-backed simulator for one run.

        When ``$REPRO_ENGINE_SOCKET`` names a live evaluation daemon
        (:mod:`repro.serve`), the simulator transparently routes its
        synthesis through it — budget accounting, history and records
        stay client-side and bit-identical either way, and the facade
        falls back to this in-process engine if the daemon goes away.
        """
        if os.environ.get("REPRO_ENGINE_SOCKET", "").strip():
            # Lazy import: repro.serve.client subclasses EngineSimulator,
            # so a top-level import would be a cycle.
            from ..serve.client import maybe_remote_simulator

            remote = maybe_remote_simulator(self, task, budget)
            if remote is not None:
                return remote
        return EngineSimulator(task, budget=budget, engine=self)

    def evaluate(
        self,
        task: CircuitTask,
        graphs: Sequence[PrefixGraph],
        telemetry: Optional[EngineTelemetry] = None,
        fingerprint: Optional[str] = None,
    ) -> List[Tuple[float, float, float]]:
        """(cost, area, delay) for each graph, cache-first, pool-backed.

        ``graphs`` must already be legalized and unique; callers own
        dedup and budget accounting.  Results preserve input order.
        ``fingerprint`` lets long-lived callers (EngineSimulator) skip
        re-hashing the task configuration on every call.
        """
        if not graphs:
            return []
        sinks = [self.telemetry] + ([telemetry] if telemetry is not None else [])
        if fingerprint is None:
            fingerprint = task_fingerprint(task)

        with trace.span("engine_evaluate") as span:
            span.set_attr("batch", len(graphs))
            return self._evaluate(task, graphs, sinks, fingerprint, span)

    def _evaluate(
        self,
        task: CircuitTask,
        graphs: Sequence[PrefixGraph],
        sinks: List[EngineTelemetry],
        fingerprint: str,
        span,
    ) -> List[Tuple[float, float, float]]:
        """:meth:`evaluate`'s body, under an ``engine_evaluate`` span
        (the shared no-op span when tracing is off)."""
        metrics: List[Optional[Metrics]] = [None] * len(graphs)
        misses: List[int] = []
        lookup_start = time.perf_counter()
        for i, graph in enumerate(graphs):
            hit = self.cache.get_with_origin(fingerprint, graph.key())
            if hit is not None:
                metrics[i], origin = hit
                counter = "memory_hits" if origin == "memory" else "disk_hits"
                span.add_counter(counter)
                for sink in sinks:
                    sink.add(counter)
            else:
                misses.append(i)
        lookup_elapsed = time.perf_counter() - lookup_start
        for sink in sinks:
            sink.observe_latency("cache_lookup", lookup_elapsed)
        span.set_attr(
            "outcome",
            "hit" if not misses
            else ("miss" if len(misses) == len(graphs) else "partial"),
        )

        if misses:
            # Claim each missing key or find the thread already working on
            # it; only claimed keys are synthesized here, waited keys are
            # read from the cache once their owner finishes.
            owned: List[int] = []
            waited: List[Tuple[int, threading.Event]] = []
            with self._inflight_lock:
                for i in misses:
                    flight_key = (fingerprint, graphs[i].key())
                    event = self._inflight.get(flight_key)
                    if event is None:
                        self._inflight[flight_key] = threading.Event()
                        owned.append(i)
                    else:
                        waited.append((i, event))

            if owned:
                try:
                    # Re-check the cache under our claim: another thread
                    # may have finished a design between our miss scan
                    # and the claim (TOCTOU) — don't synthesize it twice.
                    still_owned: List[int] = []
                    for i in owned:
                        hit = self.cache.get(fingerprint, graphs[i].key())
                        if hit is not None:
                            metrics[i] = hit
                            span.add_counter("inflight_hits")
                            for sink in sinks:
                                sink.add("inflight_hits")
                        else:
                            still_owned.append(i)
                    if still_owned:
                        batch_graphs = [graphs[i] for i in still_owned]
                        mode = self.pool.execution_mode(len(batch_graphs))
                        detail = (
                            "synthesis_vectorized"
                            if mode == "vectorized"
                            else "synthesis_scalar"
                        )
                        with stage_all(sinks, "synthesis"):
                            with stage_all(sinks, detail):
                                fresh = self.pool.synthesize_batch(
                                    task, batch_graphs
                                )
                        # Counted after the batch returns, so a raised
                        # synthesis doesn't skew hit-rate/throughput.
                        span.add_counter("synth_calls", len(still_owned))
                        for sink in sinks:
                            sink.add("synth_calls", len(still_owned))
                            sink.add("batches")
                            sink.add("batch_designs", len(still_owned))
                            if mode == "vectorized":
                                sink.add("vector_batches")
                                sink.add("vector_designs", len(still_owned))
                        for i, measured in zip(still_owned, fresh):
                            self.cache.put(fingerprint, graphs[i].key(), measured)
                            metrics[i] = measured
                finally:
                    # Release waiters even if synthesis raised; they retry.
                    with self._inflight_lock:
                        for i in owned:
                            event = self._inflight.pop(
                                (fingerprint, graphs[i].key()), None
                            )
                            if event is not None:
                                event.set()

            for i, event in waited:
                event.wait()
                metrics[i] = self._await_or_claim(
                    task, fingerprint, graphs[i], sinks
                )

        out: List[Tuple[float, float, float]] = []
        for m in metrics:
            assert m is not None
            area_um2, delay_ns = m
            out.append(
                (cost_from_metrics(area_um2, delay_ns, task.delay_weight), area_um2, delay_ns)
            )
        return out

    def _await_or_claim(
        self,
        task: CircuitTask,
        fingerprint: str,
        graph: PrefixGraph,
        sinks: List[EngineTelemetry],
    ) -> Metrics:
        """Resolve one design another thread was synthesizing.

        Normally the owner's result is in the cache by the time the
        waiter wakes.  If it is not (the owner's synthesis raised, or a
        memory-only cache evicted the entry), exactly one waiter reclaims
        the in-flight slot and synthesizes; the rest keep waiting on the
        new claimant instead of stampeding into duplicate work.
        """
        while True:
            hit = self.cache.get(fingerprint, graph.key())
            if hit is not None:
                for sink in sinks:
                    sink.add("inflight_hits")
                return hit
            flight_key = (fingerprint, graph.key())
            with self._inflight_lock:
                event = self._inflight.get(flight_key)
                if event is None:
                    self._inflight[flight_key] = threading.Event()
            if event is not None:
                event.wait()
                continue  # re-check the cache, then claim if still absent
            try:
                # Same TOCTOU guard as the batch path: re-check under the
                # claim before paying for synthesis.
                hit = self.cache.get(fingerprint, graph.key())
                if hit is not None:
                    for sink in sinks:
                        sink.add("inflight_hits")
                    return hit
                with stage_all(sinks, "synthesis"):
                    with stage_all(sinks, "synthesis_scalar"):
                        metrics = self.pool.synthesize_batch(task, [graph])[0]
                for sink in sinks:
                    sink.add("synth_calls")
                self.cache.put(fingerprint, graph.key(), metrics)
                return metrics
            finally:
                with self._inflight_lock:
                    claimed = self._inflight.pop(flight_key, None)
                    if claimed is not None:
                        claimed.set()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "EvaluationEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EvaluationEngine(cache={self.cache!r}, pool={self.pool!r})"


class EngineSimulator(CircuitSimulator):
    """`CircuitSimulator`-compatible facade over an :class:`EvaluationEngine`.

    Exposes a per-run ``telemetry`` attribute that
    :meth:`repro.opt.results.RunRecord.from_simulator` snapshots into the
    run record.
    """

    def __init__(
        self,
        task: CircuitTask,
        budget: Optional[int] = None,
        engine: Optional[EvaluationEngine] = None,
    ) -> None:
        super().__init__(task, budget=budget)
        self.engine = engine if engine is not None else EvaluationEngine()
        self.telemetry = EngineTelemetry()
        self._fingerprint = task_fingerprint(task)

    # ------------------------------------------------------------------
    def _evaluate_graphs(
        self, graphs: List[PrefixGraph]
    ) -> List[Tuple[float, float, float]]:
        """The single point where graphs meet the engine.

        Both the scalar ``query`` path and the batched ``query_plan``
        path funnel through here with unique, legalized graphs; all
        accounting (budget, memo, sim_index) happens in the callers.
        :class:`repro.serve.client.RemoteEngineSimulator` overrides
        exactly this method, which is what makes remote runs
        bit-identical by construction.
        """
        return self.engine.evaluate(
            self.task,
            graphs,
            self.telemetry,
            fingerprint=self._fingerprint,
        )

    def _synthesize(self, graph: PrefixGraph) -> Tuple[float, float, float]:
        """Single-design hook: persistent cache first, then the pool."""
        return self._evaluate_graphs([graph])[0]

    def query(self, design) -> Evaluation:
        self.telemetry.add("queries")
        graph = self.canonicalize(design)
        run_hit = graph.key() in self._cache
        if run_hit:
            self.telemetry.add("run_hits")
        if not trace.active():
            return super().query(graph)
        with trace.span("evaluate") as span:
            span.set_attr("graph", _graph_tag(graph))
            span.set_attr("run_hit", run_hit)
            span.add_counter("queries")
            return super().query(graph)

    def query_plan(self, designs) -> List[Optional[Evaluation]]:
        """Batched planner with serial-identical semantics (see module doc).

        Classifies every design in submission order — run-memo hit,
        duplicate of a design scheduled earlier in this batch, budget
        refusal, or new — then synthesizes all new unique graphs in one
        parallel submission and materializes the plan.
        """
        designs = list(designs)
        if self.check_abort is not None:
            self.check_abort()
        self.telemetry.add("queries", len(designs))

        with trace.span("evaluate_batch") as batch_span:
            return self._query_plan(designs, batch_span)

    def _query_plan(self, designs, batch_span) -> List[Optional[Evaluation]]:
        """:meth:`query_plan`'s body, under an ``evaluate_batch`` span."""
        HIT, PENDING, REFUSED = 0, 1, 2
        slots: List[Tuple[int, object]] = []
        scheduled: List[PrefixGraph] = []
        scheduled_keys = set()
        for design in designs:
            graph = self.canonicalize(design)
            key = graph.key()
            cached = self._cache.get(key)
            if cached is not None:
                self.telemetry.add("run_hits")
                slots.append((HIT, cached))
                continue
            if key in scheduled_keys:
                slots.append((PENDING, key))
                continue
            if self.budget is not None and (
                self.num_simulations + len(scheduled) >= self.budget
            ):
                self.telemetry.add("budget_refusals")
                slots.append((REFUSED, None))
                continue
            scheduled_keys.add(key)
            scheduled.append(graph)
            slots.append((PENDING, key))

        if trace.active():
            batch_span.set_attr("batch", len(designs))
            batch_span.set_attr("scheduled", len(scheduled))
            batch_span.set_attr(
                "run_hits", sum(1 for kind, _ in slots if kind == HIT)
            )
            batch_span.set_attr(
                "refused", sum(1 for kind, _ in slots if kind == REFUSED)
            )

        for graph, (cost, area_um2, delay_ns) in zip(
            scheduled,
            self._evaluate_graphs(scheduled),
        ):
            evaluation = Evaluation(
                graph=graph,
                cost=cost,
                area_um2=area_um2,
                delay_ns=delay_ns,
                sim_index=self.num_simulations + 1,
            )
            self._cache[graph.key()] = evaluation
            self.history.append(evaluation)
            # Same simulator-boundary hook the scalar `query` fires: the
            # streaming run API checkpoints/interrupts here.  If it
            # raises mid-batch, every evaluation appended so far is
            # already recorded; the batch's later designs simply rerun
            # on resume (synthesis is deterministic, so bit-identically).
            if self.on_evaluation is not None:
                self.on_evaluation(evaluation)

        plan: List[Optional[Evaluation]] = []
        for kind, payload in slots:
            if kind == REFUSED:
                plan.append(None)
            elif kind == HIT:
                plan.append(payload)  # type: ignore[arg-type]
            else:
                plan.append(self._cache[payload])  # type: ignore[index]
        return plan
