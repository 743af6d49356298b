"""Throughput, hit-rate and per-stage timing counters for the engine.

One :class:`EngineTelemetry` instance is a thread-safe bag of counters and
stage timers.  The engine keeps a global aggregate across every simulator
it backs; each :class:`~repro.engine.service.EngineSimulator` additionally
owns a per-run instance whose snapshot lands in
:class:`~repro.opt.results.RunRecord.telemetry`, so every figure/table
bench can report cache hit-rates and synthesis throughput alongside the
paper's sample-efficiency numbers.

Since the :mod:`repro.obs` subsystem landed, the counters are cells in a
:class:`~repro.obs.metrics.MetricsRegistry` (exposed as ``.metrics``):
attribute reads, ``add()`` and ``as_dict()`` are unchanged in shape, but
the registry additionally keeps per-stage latency *histograms* (one
observation per timed call) and guards every snapshot with a single
registry-wide lock, so ``as_dict()`` — including its derived
``hit_rate``/``synth_throughput`` ratios — is computed from one atomic
snapshot.  The :func:`stage`/:func:`stage_all` helpers also emit
:mod:`repro.obs.trace` spans (marked ``attrs.stage``) whose durations
are *imposed* from the same single wall-clock measurement that feeds
``stage_seconds``, so a trace-derived report reproduces the engine's
stage totals exactly.

This module only imports the stdlib-only :mod:`repro.obs` cores (no
engine/core imports), so the rest of the codebase — core, baselines —
can record stage timings without creating import cycles.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from ..obs import trace
from ..obs.metrics import MetricsRegistry

__all__ = [
    "EngineTelemetry",
    "KNOWN_HISTOGRAMS",
    "KNOWN_SPANS",
    "KNOWN_STAGES",
    "stage",
    "stage_all",
    "snapshot_delta",
]

#: ratio fields of :meth:`EngineTelemetry.as_dict` — meaningless to
#: difference, so :func:`snapshot_delta` drops them.
_DERIVED_KEYS = ("hit_rate", "synth_throughput")

#: shared attrs dict for stage spans (Span copies it; never mutated) —
#: a module constant so the tracing-off path allocates nothing.
#: thread-safe: written once at import time, read-only afterwards.
_STAGE_ATTRS = {"stage": True}

#: The canonical stage vocabulary.  :func:`stage`/:func:`stage_all`/
#: ``EngineTelemetry.time`` names must come from this set (plus the
#: dynamic ``train_kernel:<op>`` family from REPRO_PROFILE=1) — a typo'd
#: stage would silently create a fresh ``stage_seconds`` series, so the
#: static checker (``python -m repro check``) resolves every literal
#: stage name against this frozenset.
KNOWN_STAGES = frozenset(
    {
        "synthesis",
        "synthesis_vectorized",
        "synthesis_scalar",
        "train",
        "acquisition",
        "variation",
        "proposal",
        "decode",
        "latent_search",
    }
)

#: The canonical trace-span vocabulary (stage spans reuse KNOWN_STAGES).
#: Same discipline as KNOWN_STAGES: report tooling groups by these names,
#: so new span call sites register here and the checker enforces it.
KNOWN_SPANS = frozenset(
    {
        "experiment",
        "seed",
        "finalize",
        "engine_evaluate",
        "evaluate",
        "evaluate_batch",
        "gather",
        "synthesize",
        "synthesize_chunk",
        "cache_load",
        "cache_refresh",
        "serve_job",
        "serve_evaluate",
        "bench",
    }
)

#: Named latency histograms fed through ``observe_latency`` (per-stage
#: ``stage_latency:<stage>`` histograms are derived, not listed).
KNOWN_HISTOGRAMS = frozenset(
    {"cache_lookup", "train_step_replay", "train_step_eager", "train_loop_replay"}
)


def snapshot_delta(before: Dict, after: Dict) -> Dict:
    """The counter increments between two ``as_dict`` snapshots.

    Returns only the keys that changed (nested stage dicts included), so
    the deltas attached to streaming
    :class:`~repro.api.events.EvaluationDone` events stay compact: a
    scalar cache-hit query shows ``{"queries": 1, "memory_hits": 1}``, a
    scalar synthesis shows its ``synth_calls`` and stage seconds, and a
    batched submission's whole-batch counters arrive with its first
    evaluation (the engine records batch work before announcing any of
    it).  Derived ratios (``hit_rate``, ``synth_throughput``) are
    dropped — they are not additive.  ``before`` may be empty (the first
    event's delta is the snapshot itself).
    """
    delta: Dict = {}
    for key, value in after.items():
        if key in _DERIVED_KEYS:
            continue
        if isinstance(value, dict):
            prev = before.get(key, {})
            sub = {
                name: amount - prev.get(name, 0)
                for name, amount in value.items()
                if amount - prev.get(name, 0) != 0
            }
            if sub:
                delta[key] = sub
        else:
            diff = value - before.get(key, 0)
            if diff != 0:
                delta[key] = diff
    return delta


class EngineTelemetry:
    """Counters for one engine (or one engine-backed run).

    Counter semantics
    -----------------
    ``queries``
        Designs submitted through ``query``/``query_plan``/``query_many``.
    ``run_hits``
        Served from the per-run memo (same design queried twice in a run).
    ``memory_hits`` / ``disk_hits``
        Served from the shared persistent cache (RAM front / loaded from
        the on-disk store).  Both still charge the run's budget — the
        cache removes *physical synthesis work*, never accounting.
    ``inflight_hits``
        Served by waiting on another thread's concurrent synthesis of the
        same design (parallel seeds).  Not a cache hit: the work happened,
        just once, elsewhere.
    ``synth_calls``
        Designs that actually went through the physical-synthesis flow.
    ``budget_refusals``
        Batch entries skipped because the budget was exhausted.
    ``batches`` / ``batch_designs``
        Parallel batch submissions and their total size.
    ``vector_batches`` / ``vector_designs``
        Batch submissions (and their total size) that went through the
        vectorized population fast path (:mod:`repro.synth.batched`)
        instead of per-graph scalar synthesis.  Stage timers mirror the
        split: ``synthesis`` is total synthesis wall-clock, with
        ``synthesis_vectorized`` / ``synthesis_scalar`` attributing it to
        the two execution paths.
    ``train_*``
        Neural-training engine counters (CircuitVAE / latent-BO rounds):
        epochs trained vs restored from checkpoints, and the
        compiled-step compile/replay/fusion/fallback counts from
        :mod:`repro.nn.compile` (``train_fused_kernels`` counts ops
        folded into fused chains across compiles).
    ``loop_replays`` / ``stacked_replicas``
        Recorded-loop segments replayed (:mod:`repro.nn.loop`) and
        training rounds that ran as one replica of a stacked
        multi-model program (:mod:`repro.core.replicas`).
    ``stacked_failures``
        Training rounds whose stacked multi-replica training raised, so
        the round trained solo (the reason is logged once per wave).
    ``train_lane_steps`` / ``train_lane_rounds`` / ``train_lane_rejects``
        Recorded-loop steps replayed on more than one batch lane
        (:mod:`repro.nn.lanes`), training rounds with at least one such
        step, and lane counts kept single-lane because their split
        failed its bitwise probe.
    """

    _COUNTERS = (
        "queries",
        "run_hits",
        "memory_hits",
        "disk_hits",
        "inflight_hits",
        "synth_calls",
        "budget_refusals",
        "batches",
        "batch_designs",
        "vector_batches",
        "vector_designs",
        "train_epochs",
        "train_epochs_skipped",
        "train_compiles",
        "train_replays",
        "train_fused_kernels",
        "train_fallbacks",
        "loop_replays",
        "stacked_replicas",
        "stacked_failures",
        "train_lane_steps",
        "train_lane_rounds",
        "train_lane_rejects",
    )

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        #: every instrument shares the registry lock, so multi-counter
        #: snapshots (and the derived ratios computed from them) are
        #: atomic with respect to concurrent ``add`` calls.
        self._lock = self.metrics.lock
        self._counter_cells = {
            name: self.metrics.counter(name) for name in self._COUNTERS
        }
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}

    def __getattr__(self, name: str):
        # counters read straight from their registry cells; everything
        # else is a real attribute (this only fires on misses).
        cells = self.__dict__.get("_counter_cells")
        if cells is not None and name in cells:
            return cells[name].value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    def add(self, counter: str, amount: int = 1) -> None:
        """Atomically bump one of the named counters."""
        cell = self._counter_cells.get(counter)
        if cell is None:
            raise KeyError(f"unknown telemetry counter {counter!r}")
        cell.add(amount)

    def add_stage_time(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
            self.stage_calls[name] = self.stage_calls.get(name, 0) + calls
            if calls == 1:
                # single timed call -> one latency observation
                self.metrics.histogram("stage_latency:" + name).observe(seconds)

    def observe_latency(self, name: str, seconds: float) -> None:
        """One latency observation into a named registry histogram
        (cache lookups, train-step replays, ...)."""
        self.metrics.histogram(name).observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager charging wall-clock to stage ``name``."""
        with stage(self, name):
            yield

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Persistent-cache hits (memory + disk, excluding run memos)."""
        with self._lock:
            return self._counter_cells["memory_hits"].value + self._counter_cells["disk_hits"].value

    def hit_rate(self) -> float:
        """Fraction of charged evaluations served without synthesis."""
        with self._lock:
            hits = self._counter_cells["memory_hits"].value + self._counter_cells["disk_hits"].value
            charged = hits + self._counter_cells["synth_calls"].value
            return hits / charged if charged else 0.0

    def synth_throughput(self) -> float:
        """Physical synthesis calls per second of synthesis wall-clock."""
        with self._lock:
            seconds = self.stage_seconds.get("synthesis", 0.0)
            calls = self._counter_cells["synth_calls"].value
            return calls / seconds if seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (the shape stored in RunRecord).

        The whole payload — derived ratios included — is computed from
        values read under one lock acquisition, so the ratios can never
        disagree with the counters in the same snapshot.
        """
        with self._lock:
            payload: Dict[str, object] = {
                name: self._counter_cells[name].value for name in self._COUNTERS
            }
            payload["stage_seconds"] = dict(self.stage_seconds)
            payload["stage_calls"] = dict(self.stage_calls)
            synthesis_seconds = self.stage_seconds.get("synthesis", 0.0)
        cache_hits = payload["memory_hits"] + payload["disk_hits"]  # type: ignore[operator]
        payload["cache_hits"] = cache_hits
        charged = cache_hits + payload["synth_calls"]  # type: ignore[operator]
        payload["hit_rate"] = cache_hits / charged if charged else 0.0  # type: ignore[operator]
        payload["synth_throughput"] = (
            payload["synth_calls"] / synthesis_seconds if synthesis_seconds > 0 else 0.0  # type: ignore[operator]
        )
        return payload

    def merge(self, other: "EngineTelemetry") -> None:
        """Fold another telemetry instance into this one (counters,
        stage timers and the registry's latency histograms)."""
        self.metrics.merge(other.metrics)
        with other._lock:
            stage_seconds = dict(other.stage_seconds)
            stage_calls = dict(other.stage_calls)
        with self._lock:
            for name, seconds in stage_seconds.items():
                self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + seconds
                self.stage_calls[name] = (
                    self.stage_calls.get(name, 0) + stage_calls.get(name, 0)
                )

    def __repr__(self) -> str:
        return (
            f"EngineTelemetry(queries={self.queries}, hits={self.cache_hits}, "
            f"synth={self.synth_calls}, hit_rate={self.hit_rate():.2f})"
        )


@contextmanager
def stage(telemetry: Optional[EngineTelemetry], name: str) -> Iterator[None]:
    """Time a named stage, or do nothing when ``telemetry`` is None.

    Algorithms call ``stage(getattr(simulator, "telemetry", None), "train")``
    so the same code runs unchanged against the plain serial simulator.
    When tracing is active the stage also becomes a span whose duration
    is imposed from the same measurement charged to ``stage_seconds``.
    """
    if telemetry is None:
        yield
        return
    span = trace.span(name, _STAGE_ATTRS)
    span.__enter__()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        telemetry.add_stage_time(name, elapsed)
        span.finish(elapsed=elapsed)


@contextmanager
def stage_all(telemetries, name: str) -> Iterator[None]:
    """Charge one wall-clock measurement to several telemetry sinks.

    ``None`` entries are skipped (same convention as :func:`stage`), so
    mixed sink lists — e.g. an engine aggregate plus an optional per-run
    instance — work without the caller filtering.
    """
    span = trace.span(name, _STAGE_ATTRS)
    span.__enter__()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for telemetry in telemetries:
            if telemetry is not None:
                telemetry.add_stage_time(name, elapsed)
        span.finish(elapsed=elapsed)
