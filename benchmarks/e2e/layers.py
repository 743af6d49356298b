"""Per-layer attribution for the end-to-end benchmark, timed from outside.

The benchmark wraps public functions and methods of each ``repro``
module with timers it owns.  Nothing in the program changes: wrappers
are installed on the loaded modules after set-up and removed before the
correctness checks.  Spans are kept in memory (one tuple per call) and
written out when the run ends.

A span records its layer, target, start and end, the span that caused
it (the innermost wrapped call active on the same thread) and the
thread.  A call into a layer that is already active on the same thread
(``query_many`` -> ``query_plan``) is not recorded again, so a layer's
busy time is the sum of its outermost calls; work on several seed
threads is summed.  Worker processes are not wrapped: ``engine.pool``
time is what the parent spends waiting on them.

Counts that the program already keeps come from the run's
``RunRecord.telemetry``; times come from the wrappers.  A target that no
longer exists is reported as missing and its layer reads zero, so the
benchmark keeps running across refactors, while the cross-check on
``core.training`` catches a wrapper that stopped seeing the work.
"""

import functools
import importlib
import json
import os
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Tuple

__all__ = ["LAYERS", "Recorder", "layer_metrics", "metric_unit", "per_layer_names"]


def _arg(args, kwargs, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _designs(index: int, name: str):
    """A probe counting the designs a call was handed."""
    def after(state, args, kwargs, result) -> Dict[str, float]:
        graphs = _arg(args, kwargs, index, name)
        return {"designs": len(graphs) if graphs is not None else 0}
    return None, after


def _pool_mode(args, kwargs) -> str:
    """Which backend ``SynthesisPool.synthesize_batch`` is about to use.

    Mirrors the pool's routing from its public state: ``chunked`` is a
    vectorized batch split across worker processes.
    """
    pool, graphs = args[0], _arg(args, kwargs, 2, "graphs")
    mode = pool.execution_mode(len(graphs))
    if mode == "vectorized" and pool.parallel and len(graphs) >= 2 * pool.workers:
        return "chunked"
    return mode


def _before_decode(args, kwargs):
    simulator = _arg(args, kwargs, 2, "simulator")
    return simulator, simulator.num_simulations


def _after_decode(state, args, kwargs, result) -> Dict[str, float]:
    simulator, before = state
    designs, _evaluations = result
    return {"decoded": len(designs), "new": simulator.num_simulations - before}


def _after_save(state, args, kwargs, result) -> Dict[str, float]:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


#: layer -> [(module, "function" | "Class.method")].
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "core.training": [("repro.core.training", "train_model")],
    "core.replicas": [("repro.core.replicas", "train_replicas")],
    "nn.compile": [
        ("repro.nn.compile", "compile_train_step"),
        # where tracing, scheduling and verification happen (lazily, on
        # the first step of each input signature)
        ("repro.nn.compile", "CompiledTrainStep._compile"),
    ],
    "nn.loop": [
        ("repro.nn.loop", "CompiledTrainLoop.begin"),
        ("repro.nn.loop", "_LoopSession.run"),
    ],
    "nn.serialize": [
        ("repro.nn.serialize", "save_state"),
        ("repro.nn.serialize", "load_state"),
    ],
    "api.rundir": [
        ("repro.api.rundir", "RunCellWriter.append"),
        ("repro.api.rundir", "RunCellWriter.finish"),
        ("repro.api.rundir", "RunDirectory.write_final_records"),
    ],
    "core.algorithm": [("repro.core.algorithm", "build_initial_dataset")],
    "core.search": [
        ("repro.core.search", "initialize_latents"),
        ("repro.core.search", "latent_gradient_search"),
    ],
    "core.vae": [("repro.core.vae", "CircuitVAEModel.sample_designs")],
    "opt.simulator": [
        ("repro.opt.simulator", "CircuitSimulator.query"),
        ("repro.opt.simulator", "CircuitSimulator.query_plan"),
        ("repro.opt.simulator", "CircuitSimulator.query_many"),
        ("repro.engine.service", "EngineSimulator.query"),
        ("repro.engine.service", "EngineSimulator.query_plan"),
    ],
    "opt.variation": [
        ("repro.opt.variation", "mutate"),
        ("repro.opt.variation", "crossover"),
        ("repro.opt.variation", "random_population"),
    ],
    "engine.service": [("repro.engine.service", "EvaluationEngine.evaluate")],
    "engine.cache": [
        ("repro.engine.cache", "EvaluationCache.get_with_origin"),
        ("repro.engine.cache", "EvaluationCache.get"),
        ("repro.engine.cache", "EvaluationCache.put"),
    ],
    "engine.pool": [("repro.engine.pool", "SynthesisPool.synthesize_batch")],
    "synth.incremental": [("repro.synth.incremental", "synthesize_population")],
    "synth.batched": [
        ("repro.synth.batched", "synthesize_many"),
        # the packed sizing/STA and result kernels, which the
        # incremental path runs too
        ("repro.synth.batched", "_size_gates_batched"),
        ("repro.synth.batched", "_extract_results"),
    ],
    "synth.scalar": [("repro.synth.physical", "synthesize")],
}

#: targets timed only for a derived metric, not reported as a layer.
_AUX: Dict[str, List[Tuple[str, str]]] = {
    "core.replicas.handle": [("repro.core.replicas", "ReplicaPoolHandle.train")],
    "core.search.decode_and_query": [("repro.core.search", "decode_and_query")],
}

#: per-call measurements beyond time, summed per layer: target ->
#: (before(args, kwargs) -> state, or None;
#:  after(state, args, kwargs, result) -> {name: number}).
_PROBES = {
    "EvaluationEngine.evaluate": _designs(2, "graphs"),
    "SynthesisPool.synthesize_batch": (
        _pool_mode,
        lambda mode, args, kwargs, result: {f"mode_counts.{mode}": 1},
    ),
    "synthesize_many": _designs(0, "graphs"),
    "_size_gates_batched": (None, lambda s, args, k, r: {"designs": args[0].B}),
    "decode_and_query": (_before_decode, _after_decode),
    "save_state": (None, _after_save),
}

MODES = ("vectorized", "chunked", "pooled", "serial")


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []  # (id, parent, layer, target, t0, t1, tid)
        self.probes: Dict[str, Dict[str, float]] = {}
        self.missing: List[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self._next_id = 0
        self.active = False

    # ------------------------------------------------------------------
    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, target: str, fn):
        recorder = self
        before, after = _PROBES.get(target, (None, None))

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            if not recorder.active or any(entry[1] == layer for entry in stack):
                return fn(*args, **kwargs)
            with recorder._lock:
                span_id = recorder._next_id
                recorder._next_id += 1
            parent = stack[-1][0] if stack else -1
            state = before(args, kwargs) if before is not None else None
            stack.append((span_id, layer))
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with recorder._lock:
                    recorder.spans.append(
                        (span_id, parent, layer, target, t0, t1,
                         threading.get_ident())
                    )
            extra = after(state, args, kwargs, result) if after is not None else {}
            with recorder._lock:
                totals = recorder.probes.setdefault(layer, {})
                for name, amount in extra.items():
                    totals[name] = totals.get(name, 0) + amount
            return result

        return timed

    def install(self) -> None:
        """Wrap every target; rebind names other modules imported."""
        for layer, targets in list(LAYERS.items()) + list(_AUX.items()):
            for module_name, path in targets:
                where = f"{module_name}.{path}"
                try:
                    module = importlib.import_module(module_name)
                    owner = module
                    *outer, attr = path.split(".")
                    for name in outer:
                        owner = getattr(owner, name)
                    original = owner.__dict__[attr] if outer else getattr(module, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(where)
                    continue
                wrapper = self._wrap(layer, path, original)
                self._rebind(owner, attr, original, wrapper)
                if not outer:
                    # ``from .x import f`` bound f elsewhere too.
                    for name, other in list(sys.modules.items()):
                        if name.startswith("repro") and other is not module:
                            for key, value in list(vars(other).items()):
                                if value is original:
                                    self._rebind(other, key, original, wrapper)
        self.active = True

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w") as handle:
            for span_id, parent, layer, target, t0, t1, tid in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "layer": layer,
                    "target": target, "t0": t0, "t1": t1, "thread": tid,
                }) + "\n")


def _quantile_ms(durations: List[float], q: float) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    cuts = statistics.quantiles(durations, n=10, method="inclusive")
    return cuts[int(q * 10) - 1] * 1e3


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names: List[str] = []
    for layer in LAYERS:
        names += [f"{layer}.{s}" for s in ("calls", "busy_s", "p50_ms", "p90_ms")]
        names += [f"{layer}.{extra}" for extra, _unit in _EXTRAS.get(layer, ())]
    return names + ["obs.bench_trace_overhead"]


#: layer -> [(metric, unit)] beyond calls / busy_s / p50_ms / p90_ms.
_EXTRAS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "core.training": (("epochs", "count"), ("epoch_ms", "ms"), ("share", "ratio"),
                      ("stage_train_s", "s")),
    "core.replicas": (("wait_s", "s"), ("engaged", "count")),
    "nn.compile": (("step_replays", "count"), ("fallback_ratio", "ratio")),
    "nn.loop": (("replays", "count"),),
    "nn.serialize": (("save_calls", "count"), ("bytes", "B")),
    "api.rundir": (("appends", "count"),),
    "core.algorithm": (("initial_dataset_s", "s"), ("initial_dataset_queries", "count")),
    "core.search": (("new_design_ratio", "ratio"),),
    "core.vae": (("decode_s", "s"),),
    "opt.simulator": (("queries", "count"), ("run_hit_ratio", "ratio"),
                      ("budget_refusals", "count"), ("designs_per_batch", "count")),
    "engine.service": (("designs_per_call", "count"),),
    "engine.cache": (("hit_rate", "ratio"),),
    "engine.pool": tuple((f"mode_counts.{m}", "count") for m in MODES)
    + (("broken", "count"),),
    "synth.incremental": (("evals", "count"), ("cone_hits", "count"),
                          ("fallback_ratio", "ratio")),
    "synth.batched": (("us_per_design", "us"),),
}

_UNITS = {"calls": "count", "busy_s": "s", "p50_ms": "ms", "p90_ms": "ms"}


def metric_unit(name: str) -> str:
    if name == "obs.bench_trace_overhead":
        return "ratio"
    for layer, extras in _EXTRAS.items():
        for extra, unit in extras:
            if name == f"{layer}.{extra}":
                return unit
    return _UNITS[name.rsplit(".", 1)[-1]]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    recorder: Recorder,
    telemetry: Dict,
    wall_s: float,
    seed_threads: int,
    pool_broken: bool,
) -> Dict[str, float]:
    """Per-layer numbers from the spans plus the run's own counters."""
    by_layer: Dict[str, List[float]] = {}
    by_id = {}
    for span in recorder.spans:
        span_id, parent, layer, _target, t0, t1, _tid = span
        by_layer.setdefault(layer, []).append(t1 - t0)
        by_id[span_id] = (parent, layer)

    out: Dict[str, float] = {}
    for layer in LAYERS:
        durations = by_layer.get(layer, [])
        out[f"{layer}.calls"] = len(durations)
        out[f"{layer}.busy_s"] = sum(durations)
        out[f"{layer}.p50_ms"] = _quantile_ms(durations, 0.5)
        out[f"{layer}.p90_ms"] = _quantile_ms(durations, 0.9)

    def busy(layer: str) -> float:
        return sum(by_layer.get(layer, []))

    def under(span_parent: int, ancestor_layer: str) -> bool:
        while span_parent != -1:
            span_parent, layer = by_id[span_parent]
            if layer == ancestor_layer:
                return True
        return False

    count = telemetry.get
    stages = telemetry.get("stage_seconds", {})
    train_busy = out["core.training.busy_s"]
    epochs = count("train_epochs", 0)
    out["core.training.epochs"] = epochs
    out["core.training.epoch_ms"] = _ratio(train_busy * 1e3, epochs)
    out["core.training.share"] = _ratio(train_busy, wall_s * seed_threads)
    out["core.training.stage_train_s"] = stages.get("train", 0.0)

    out["core.replicas.wait_s"] = max(
        busy("core.replicas.handle") - out["core.replicas.busy_s"], 0.0
    )
    out["core.replicas.engaged"] = count("stacked_replicas", 0)

    replays, fallbacks = count("train_replays", 0), count("train_fallbacks", 0)
    out["nn.compile.step_replays"] = replays
    out["nn.compile.fallback_ratio"] = _ratio(fallbacks, replays + fallbacks)
    out["nn.loop.replays"] = count("loop_replays", 0)

    def probed(layer: str, name: str) -> float:
        return recorder.probes.get(layer, {}).get(name, 0)

    def calls_of(target: str) -> int:
        return sum(1 for span in recorder.spans if span[3] == target)

    out["nn.serialize.save_calls"] = calls_of("save_state")
    out["nn.serialize.bytes"] = probed("nn.serialize", "bytes")
    out["api.rundir.appends"] = calls_of("RunCellWriter.append")

    out["core.algorithm.initial_dataset_s"] = out["core.algorithm.busy_s"]
    out["core.algorithm.initial_dataset_queries"] = sum(
        1 for span in recorder.spans
        if span[2] == "opt.simulator" and under(span[1], "core.algorithm")
    )

    out["core.search.new_design_ratio"] = _ratio(
        probed("core.search.decode_and_query", "new"),
        probed("core.search.decode_and_query", "decoded"),
    )
    out["core.vae.decode_s"] = out["core.vae.busy_s"]

    queries = count("queries", 0)
    out["opt.simulator.queries"] = queries
    out["opt.simulator.run_hit_ratio"] = _ratio(count("run_hits", 0), queries)
    out["opt.simulator.budget_refusals"] = count("budget_refusals", 0)
    out["opt.simulator.designs_per_batch"] = _ratio(
        count("batch_designs", 0), count("batches", 0)
    )

    out["engine.service.designs_per_call"] = _ratio(
        probed("engine.service", "designs"), out["engine.service.calls"]
    )
    out["engine.cache.hit_rate"] = count("hit_rate", 0.0)
    for mode in MODES:
        out[f"engine.pool.mode_counts.{mode}"] = probed(
            "engine.pool", f"mode_counts.{mode}"
        )
    out["engine.pool.broken"] = int(pool_broken)

    evals, full = count("incremental_evals", 0), count("full_fallbacks", 0)
    out["synth.incremental.evals"] = evals
    out["synth.incremental.cone_hits"] = count("cone_hits", 0)
    out["synth.incremental.fallback_ratio"] = _ratio(full, evals + full)
    out["synth.batched.us_per_design"] = _ratio(
        out["synth.batched.busy_s"] * 1e6, probed("synth.batched", "designs")
    )
    return out
