"""Joint training of the VAE and cost predictor (paper Sec. 4.1, Eq. 3).

The loss is

    L = sum_i w_i(D) * [ BCE(x_i | z_i) + beta * KL(q(z|x_i) || N(0,I)) ]
        + lambda * w_i(D) * (f_pi(z_i) - c_i)^2

with beta = 0.01, lambda = 10.0, k = 1e-3 in all the paper's experiments,
optimized with Adam.  The per-datapoint weights w_i implement weighted
retraining (Eq. 2); minibatches are drawn *by weight* with replacement,
which is the estimator Tripp et al. use and equals the weighted objective
in expectation.  Costs are standardized before entering the cost head so
lambda's scale is task-independent.

Execution engine
----------------
The step graph never changes shape within a call, so by default the
forward+backward+optimizer step runs through the traced graph executor
(:mod:`repro.nn.compile`): one eager trace, then buffer-reusing fused
replay — numerically equivalent to the eager tape (which remains the
reference; per-epoch losses agree to well below 1e-10) and >= 2x faster
on the CNN-VAE configuration (gated by
``benchmarks/bench_vae_training.py``).  Set ``REPRO_COMPILED_TRAIN=0``
to force the eager tape; anything the compiler cannot trace also falls
back to eager automatically.  Both engines consume the *same* rng
stream (minibatch indices, then reparameterization noise), so switching
engines never desynchronizes an algorithm's randomness.

Checkpointing
-------------
Pass ``checkpoint_dir`` (the run-directory integration does, per
``(method, seed)`` cell) and every ``config.checkpoint_every`` epochs —
plus at completion — the model parameters, optimizer moments, rng state
and loss traces are written atomically under a per-call ``tag``.  A
re-entrant call with the same tag and a matching fingerprint restores
everything and skips the completed epochs, which is how
:meth:`repro.api.Session.resume` avoids re-training interrupted runs.
"""

from __future__ import annotations

import json
import os
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..nn.loop import CompiledTrainLoop, use_compiled_loop
from ..obs import trace
from ..utils.io import atomic_write_json
from .dataset import CircuitDataset
from .vae import CircuitVAEModel

__all__ = [
    "TrainConfig",
    "TrainStats",
    "train_model",
    "train_replicas",
    "report_training_round",
]


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (paper defaults)."""

    beta: float = 0.01  # KL weight (beta-VAE)
    lam: float = 10.0  # cost-prediction loss weight (lambda)
    epochs: int = 20
    batch_size: int = 64
    lr: float = 1e-3
    grad_clip: float = 5.0
    reweight: bool = True  # Eq. 2 on; False reproduces the Fig. 4 ablation
    checkpoint_every: int = 5  # epochs between durable checkpoints (if any)


@dataclass
class TrainStats:
    """Per-epoch loss traces plus execution-engine counters."""

    total: List[float] = field(default_factory=list)
    reconstruction: List[float] = field(default_factory=list)
    kl: List[float] = field(default_factory=list)
    cost: List[float] = field(default_factory=list)
    #: True when the compiled graph executor ran the steps.
    compiled: bool = False
    #: epochs restored from a checkpoint instead of re-trained.
    epochs_skipped: int = 0
    #: compile/replay/fusion counter *deltas* from this call
    #: (:class:`repro.nn.CompileStats` keys), empty when eager.
    compile_counters: Dict[str, int] = field(default_factory=dict)
    #: wall-clock of each compiled-step replay in this call (seconds);
    #: empty when every step ran eager.
    replay_seconds: List[float] = field(default_factory=list)
    #: wall-clock of each eager (fallback) step in this call (seconds);
    #: the eager twin of ``replay_seconds``, so latency telemetry sees
    #: both engines (``train_step_eager`` histogram).
    eager_seconds: List[float] = field(default_factory=list)
    #: wall-clock of each recorded-loop segment replay in this call
    #: (seconds); empty unless the recorded loop ran
    #: (``train_loop_replay`` histogram, ``loop_replays`` counter).
    loop_seconds: List[float] = field(default_factory=list)
    #: True when this round trained as one replica of a stacked
    #: multi-model program (:func:`repro.core.replicas.train_replicas`).
    stacked: bool = False
    #: True when this round's stacked multi-replica training raised and
    #: the round trained solo instead (``stacked_failures`` counter).
    stacked_failed: bool = False
    #: the most batch lanes any recorded-loop step of this call ran with
    #: (1: single-lane; see :mod:`repro.nn.lanes`).
    lanes: int = 1
    #: per-kernel replay-second *deltas* (``fwd:<op>`` / ``bwd:<op>``)
    #: from this call; populated only under ``REPRO_PROFILE=1``.
    kernel_seconds: Dict[str, float] = field(default_factory=dict)
    #: why this call left a compiled engine, as ``"loop: <reason>"``
    #: (recorded loop -> per-step replay) and/or ``"step: <reason>"``
    #: (compiled step -> eager tape), joined by ``"; "``; the reasons are
    #: the :class:`repro.nn.CompileUnsupported` messages.  None when
    #: nothing fell back.
    fallback_reason: Optional[str] = None

    def note_fallback(self, engine: str, exc: Exception) -> None:
        """Record that ``engine`` fell back because of ``exc``."""
        reason = f"{engine}: {exc}"
        self.fallback_reason = (
            reason if self.fallback_reason is None
            else f"{self.fallback_reason}; {reason}"
        )

    def last(self) -> Dict[str, float]:
        return {
            "total": self.total[-1],
            "reconstruction": self.reconstruction[-1],
            "kl": self.kl[-1],
            "cost": self.cost[-1],
        }

    @property
    def epochs_run(self) -> int:
        return len(self.total) - self.epochs_skipped


#: The compiled-train fast path's contract, machine-checked by
#: ``python -m repro check``: :func:`_use_compiled_train` reads the kill
#: switch below, the eager reference is ``model.training_losses`` (the
#: define-by-run tape every fallback — and the compiler's own verify
#: pass — runs), and ``benchmarks/bench_vae_training.py`` gates the
#: speedup while asserting loss-curve equivalence against that tape.
FAST_PATH_CONTRACT = {
    "kill_switch": "REPRO_COMPILED_TRAIN",
    "reference": "training_losses",
    "bench": "bench_vae_training.py",
}


def _use_compiled_train() -> bool:
    return os.environ.get("REPRO_COMPILED_TRAIN", "1") != "0"


def _compiled_step_for(
    model: CircuitVAEModel, optimizer: nn.Optimizer, config: TrainConfig
) -> nn.CompiledTrainStep:
    """The model's compiled step, cached on the optimizer across rounds.

    Keyed per live model through a ``WeakKeyDictionary`` — a
    garbage-collected model's entries die with it, so a new model whose
    ``id()`` happens to be recycled can never inherit a stale compiled
    step — then by everything that changes the traced graph or the
    update rule (epochs do not); shape changes are handled inside the
    step's own signature cache.
    """
    cache = getattr(optimizer, "_compiled_train_steps", None)
    if cache is None:
        cache = weakref.WeakKeyDictionary()
        optimizer._compiled_train_steps = cache
    per_model = cache.get(model)
    if per_model is None:
        per_model = {}
        cache[model] = per_model
    key = (config.beta, config.lam, config.grad_clip)
    step = per_model.get(key)
    if step is None:
        # The step must not strongly reference the model (a WeakKey
        # entry whose value holds its key is immortal), so the trace
        # closure goes through a weakref.  Only tracing calls it; an
        # already-compiled program replays without touching the model.
        model_ref = weakref.ref(model)

        def step_fn(x_pad, target_grid, eps, cost_targets):
            live = model_ref()
            if live is None:
                raise nn.CompileUnsupported("model was garbage-collected")
            return live.training_losses(
                x_pad, target_grid, eps, cost_targets,
                beta=config.beta, lam=config.lam,
            )

        step = nn.compile_train_step(
            step_fn, model.parameters(), optimizer=optimizer,
            grad_clip=config.grad_clip,
        )
        per_model[key] = step
    return step


def _compiled_loop_for(step: nn.CompiledTrainStep) -> CompiledTrainLoop:
    """The step's recorded loop, cached on the step itself."""
    loop = getattr(step, "_train_loop", None)
    if loop is None:
        loop = CompiledTrainLoop(step)
        step._train_loop = loop
    return loop


def _loop_segment_epochs(epoch: int, config: TrainConfig, checkpoint_dir) -> int:
    """Epochs from ``epoch`` to the next durable-checkpoint boundary.

    Without checkpointing the whole remaining run is one segment;
    otherwise segments end exactly where ``train_model`` writes
    checkpoints, so the rng stream and parameter state at every save
    point are bit-identical to per-step execution.
    """
    if checkpoint_dir is None or config.checkpoint_every <= 0:
        return config.epochs - epoch
    every = config.checkpoint_every
    boundary = ((epoch // every) + 1) * every
    return min(boundary, config.epochs) - epoch


# ----------------------------------------------------------------------
# Durable training checkpoints
# ----------------------------------------------------------------------
def _checkpoint_paths(checkpoint_dir: str, tag: str):
    return (
        os.path.join(checkpoint_dir, f"{tag}.npz"),
        os.path.join(checkpoint_dir, f"{tag}.json"),
    )


def _fingerprint(
    model: CircuitVAEModel,
    dataset: CircuitDataset,
    config: TrainConfig,
    optimizer: nn.Optimizer,
) -> Dict:
    """What must match for a checkpoint to be resumable into this call."""
    return {
        "dataset_size": len(dataset),
        "epochs": config.epochs,
        "batch_size": config.batch_size,
        "lr": config.lr,
        "beta": config.beta,
        "lam": config.lam,
        "grad_clip": config.grad_clip,
        "reweight": config.reweight,
        "parameters": model.num_parameters(),
        "optimizer": type(optimizer).__name__,
    }


def _save_checkpoint(
    checkpoint_dir: str,
    tag: str,
    epoch: int,
    model: CircuitVAEModel,
    optimizer: nn.Optimizer,
    rng: np.random.Generator,
    stats: TrainStats,
    fingerprint: Dict,
) -> None:
    """Atomically persist epoch ``epoch``'s state under ``tag``.

    Each file is written atomically, but the pair is not one
    transaction: a crash between the npz and the json would leave an
    epoch-N archive next to epoch-(N-k) metadata.  The archive therefore
    embeds its own epoch (``checkpoint:epoch``); the loader refuses any
    pair whose epochs disagree, so a torn checkpoint is simply ignored
    (the round retrains from scratch, deterministically) instead of
    silently mixing generations.
    """
    npz_path, meta_path = _checkpoint_paths(checkpoint_dir, tag)
    state: Dict[str, np.ndarray] = {
        "checkpoint:epoch": np.asarray(epoch, dtype=np.int64)
    }
    for name, value in model.state_dict().items():
        state[f"param:{name}"] = value
    for name, value in optimizer.state_dict().items():
        state[f"opt:{name}"] = value
    nn.save_state(state, npz_path)
    atomic_write_json(
        meta_path,
        {
            "tag": tag,
            "epoch": epoch,
            "fingerprint": fingerprint,
            "rng_state": rng.bit_generator.state,
            "cost_normalizer": [model.cost_mean, model.cost_std],
            "losses": {
                "total": stats.total,
                "reconstruction": stats.reconstruction,
                "kl": stats.kl,
                "cost": stats.cost,
            },
        },
        indent=2,
    )


def _load_checkpoint(
    checkpoint_dir: str,
    tag: str,
    model: CircuitVAEModel,
    optimizer: nn.Optimizer,
    rng: np.random.Generator,
    stats: TrainStats,
    fingerprint: Dict,
) -> int:
    """Restore the newest matching checkpoint; returns the start epoch.

    A missing, unreadable, fingerprint-mismatched or *torn* checkpoint
    (npz and json from different generations — a crash landed between
    the two writes) is ignored and training starts from epoch 0, which
    keeps resumed runs bit-identical: the whole round re-trains
    deterministically rather than mixing state from two generations.
    """
    npz_path, meta_path = _checkpoint_paths(checkpoint_dir, tag)
    if not (os.path.exists(npz_path) and os.path.exists(meta_path)):
        return 0
    try:
        with open(meta_path) as handle:
            meta = json.load(handle)
        if meta.get("fingerprint") != fingerprint:
            return 0
        state = nn.load_state(npz_path)
        if int(np.asarray(state.get("checkpoint:epoch", -1))) != int(meta["epoch"]):
            return 0  # torn pair: archive and metadata disagree
        # Read every field up front, then restore transactionally: a
        # checkpoint that passes the gates but still fails to apply
        # (renamed/reshaped parameters, missing meta keys) must leave
        # the model and optimizer exactly as they were so the round can
        # retrain from scratch, per this function's contract.
        params = {
            name[len("param:"):]: value
            for name, value in state.items()
            if name.startswith("param:")
        }
        opt_state = {
            name[len("opt:"):]: value
            for name, value in state.items()
            if name.startswith("opt:")
        }
        rng_state = meta["rng_state"]
        mean, std = meta["cost_normalizer"]
        losses = {
            name: list(meta["losses"][name])
            for name in ("total", "reconstruction", "kl", "cost")
        }
        epoch = int(meta["epoch"])
        model_snapshot = model.state_dict()
        optimizer_snapshot = optimizer.state_dict()
        try:
            model.load_state_dict(params)
            optimizer.load_state_dict(opt_state)
        except Exception:
            model.load_state_dict(model_snapshot)
            optimizer.load_state_dict(optimizer_snapshot)
            return 0
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
        return 0
    rng.bit_generator.state = rng_state
    model.cost_mean, model.cost_std = float(mean), float(std)
    for name, values in losses.items():
        getattr(stats, name).extend(values)
    stats.epochs_skipped = epoch
    return stats.epochs_skipped


# ----------------------------------------------------------------------
def train_model(
    model: CircuitVAEModel,
    dataset: CircuitDataset,
    rng: np.random.Generator,
    config: Optional[TrainConfig] = None,
    optimizer: Optional[nn.Adam] = None,
    checkpoint_dir: Optional[str] = None,
    checkpoint_tag: str = "train",
    replica_pool=None,
) -> TrainStats:
    """Fit the model on the current dataset; returns loss traces.

    Pass the same ``optimizer`` across acquisition rounds to keep Adam
    moments warm (the paper retrains by continuing optimization on the
    grown dataset rather than from scratch).

    With ``checkpoint_dir``, progress is durably checkpointed every
    ``config.checkpoint_every`` epochs under ``checkpoint_tag`` (one tag
    per acquisition round), and a repeated call resumes from the newest
    matching checkpoint — restoring parameters, optimizer moments and
    the rng state exactly, so a resumed run is bit-identical to an
    uninterrupted one.

    ``replica_pool`` (a :class:`repro.core.replicas.ReplicaRoundPool`
    handle, installed by the seed-grid runner) lets identically shaped
    first-round cells train as one stacked multi-replica program; a
    checkpointed cell withdraws immediately so durable resume semantics
    stay per-cell.
    """
    config = config or TrainConfig()
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    optimizer = optimizer or nn.Adam(model.parameters(), lr=config.lr)

    stacked_failed = False
    if replica_pool is not None:
        if checkpoint_dir is not None:
            replica_pool.withdraw()
        else:
            pooled = replica_pool.train(model, dataset, rng, config, optimizer)
            if pooled is not None:
                return pooled
            stacked_failed = replica_pool.failure is not None

    mean, std = dataset.cost_normalizer()
    model.set_cost_normalizer(mean, std)
    targets = model.standardize_costs(dataset.costs)

    stats = TrainStats(stacked_failed=stacked_failed)
    fingerprint = None
    start_epoch = 0
    if checkpoint_dir is not None:
        fingerprint = _fingerprint(model, dataset, config, optimizer)
        start_epoch = _load_checkpoint(
            checkpoint_dir, checkpoint_tag, model, optimizer, rng, stats, fingerprint
        )

    compiled_step = step_obj = None
    counters_before: Dict[str, int] = {}
    kernels_before: Dict[str, float] = {}
    if _use_compiled_train():
        step_obj = compiled_step = _compiled_step_for(model, optimizer, config)
        counters_before = step_obj.stats.as_dict()
        kernels_before = step_obj.kernel_seconds()

    latent_dim = model.config.latent_dim
    batch = min(config.batch_size, len(dataset))
    batches_per_epoch = max(1, len(dataset) // config.batch_size)
    # The dataset is fixed for the whole call, so hoist the Eq.-2 weight
    # computation (a sort per call instead of per step) and pre-stack the
    # grids once; ``rng.choice`` below matches dataset.sample_indices
    # draw-for-draw, keeping the rng stream identical to the per-step
    # form.
    sample_p = dataset.weights() if config.reweight else dataset.uniform_weights()
    all_grids = dataset.grids()
    model.train()

    # Recorded-loop engine: replay whole checkpoint segments through the
    # step's own program (REPRO_COMPILED_LOOP=0 forces per-step replay;
    # anything the loop cannot prove bit-identical also falls back).
    session = None
    if compiled_step is not None and use_compiled_loop():
        try:
            session = _compiled_loop_for(compiled_step).begin(
                all_grids, targets, sample_p, batch, model._pad_grids, latent_dim
            )
        except nn.CompileUnsupported as exc:
            session = None
            stats.note_fallback("loop", exc)
    segment_rows = None
    segment_next = 0

    for epoch in range(start_epoch, config.epochs):
        if session is not None and segment_rows is None:
            seg_epochs = _loop_segment_epochs(epoch, config, checkpoint_dir)
            seg_start = time.perf_counter()
            segment_rows = session.run(seg_epochs * batches_per_epoch, rng)
            stats.loop_seconds.append(time.perf_counter() - seg_start)
            stats.lanes = max(stats.lanes, session.lanes_used)
            segment_next = 0
        epoch_total = epoch_rec = epoch_kl = epoch_cost = 0.0
        for _batch in range(batches_per_epoch):
            if segment_rows is not None:
                row = segment_rows[segment_next]
                segment_next += 1
                values = {
                    "loss": float(row[0]),
                    "reconstruction": float(row[1]),
                    "kl": float(row[2]),
                    "cost": float(row[3]),
                }
                epoch_total += values["loss"]
                epoch_rec += values["reconstruction"]
                epoch_kl += values["kl"]
                epoch_cost += values["cost"]
                continue
            idx = rng.choice(len(dataset), size=batch, replace=True, p=sample_p)
            grids = all_grids[idx]
            batch_targets = targets[idx]
            x_pad = model._pad_grids(grids)
            eps = rng.standard_normal((grids.shape[0], latent_dim))

            values = None
            if compiled_step is not None:
                try:
                    step_start = time.perf_counter()
                    values = compiled_step(x_pad, grids, eps, batch_targets)
                    stats.replay_seconds.append(time.perf_counter() - step_start)
                except nn.CompileUnsupported as exc:
                    # Permanent fallback for this call: the eager tape is
                    # always correct, and retrying the trace every step
                    # would only burn time.
                    compiled_step = None
                    stats.note_fallback("step", exc)
            if values is None:
                step_start = time.perf_counter()
                outs = model.training_losses(
                    nn.Tensor(x_pad),
                    nn.Tensor(grids),
                    nn.Tensor(eps),
                    nn.Tensor(batch_targets),
                    beta=config.beta,
                    lam=config.lam,
                )
                optimizer.zero_grad()
                outs["loss"].backward()
                nn.clip_grad_norm(model.parameters(), config.grad_clip)
                optimizer.step()
                values = {name: tensor.item() for name, tensor in outs.items()}
                stats.eager_seconds.append(time.perf_counter() - step_start)

            epoch_total += values["loss"]
            epoch_rec += values["reconstruction"]
            epoch_kl += values["kl"]
            epoch_cost += values["cost"]
        stats.total.append(epoch_total / batches_per_epoch)
        stats.reconstruction.append(epoch_rec / batches_per_epoch)
        stats.kl.append(epoch_kl / batches_per_epoch)
        stats.cost.append(epoch_cost / batches_per_epoch)
        if segment_rows is not None and segment_next >= len(segment_rows):
            segment_rows = None

        done = epoch + 1
        if checkpoint_dir is not None and config.checkpoint_every > 0:
            if done % config.checkpoint_every == 0 or done == config.epochs:
                _save_checkpoint(
                    checkpoint_dir, checkpoint_tag, done, model, optimizer,
                    rng, stats, fingerprint,
                )
    model.eval()

    if step_obj is not None:
        # Counters are reported even after a fallback — that is how the
        # train_fallbacks telemetry (and the TrainingRoundFinished
        # event) can ever show one.
        stats.compiled = compiled_step is not None
        after = step_obj.stats.as_dict()
        stats.compile_counters = {
            name: after[name] - counters_before.get(name, 0)
            for name in after
            if after[name] - counters_before.get(name, 0) != 0
        }
        kernels_after = step_obj.kernel_seconds()
        stats.kernel_seconds = {
            label: kernels_after[label] - kernels_before.get(label, 0.0)
            for label in kernels_after
            if kernels_after[label] - kernels_before.get(label, 0.0) > 0.0
        }
    return stats


def train_replicas(models, datasets, rngs, config=None, optimizers=None):
    """Train K same-architecture models as one stacked program.

    Thin indirection over :func:`repro.core.replicas.train_replicas`
    (imported lazily — replicas builds on this module's
    :func:`train_model` for its serial reference path).
    """
    from .replicas import train_replicas as _impl

    return _impl(models, datasets, rngs, config=config, optimizers=optimizers)


def report_training_round(simulator, stats: TrainStats, round_index: int) -> None:
    """Surface one ``train_model`` round through the engine plumbing.

    Folds the round's epoch and compiled-step counters into the
    simulator's per-run :class:`~repro.engine.telemetry.EngineTelemetry`
    (when engine-backed) and fires the simulator's ``on_training`` hook,
    which the streaming run API turns into a
    :class:`~repro.api.events.TrainingRoundFinished` event.  No-ops
    gracefully against a bare simulator with neither.
    """
    telemetry = getattr(simulator, "telemetry", None)
    if telemetry is not None:
        telemetry.add("train_epochs", stats.epochs_run)
        telemetry.add("train_epochs_skipped", stats.epochs_skipped)
        counters = stats.compile_counters
        telemetry.add("train_compiles", counters.get("traces", 0))
        telemetry.add("train_replays", counters.get("replays", 0))
        telemetry.add("train_fused_kernels", counters.get("fused_ops", 0))
        telemetry.add("train_fallbacks", counters.get("fallbacks", 0))
        telemetry.add("loop_replays", len(stats.loop_seconds))
        telemetry.add("train_lane_steps", counters.get("lane_steps", 0))
        telemetry.add("train_lane_rejects", counters.get("lane_rejects", 0))
        if stats.lanes > 1:
            telemetry.add("train_lane_rounds", 1)
        if stats.stacked:
            telemetry.add("stacked_replicas", 1)
        if stats.stacked_failed:
            telemetry.add("stacked_failures", 1)
        for seconds in stats.replay_seconds:
            telemetry.observe_latency("train_step_replay", seconds)
        for seconds in stats.eager_seconds:
            telemetry.observe_latency("train_step_eager", seconds)
        for seconds in stats.loop_seconds:
            telemetry.observe_latency("train_loop_replay", seconds)
        # REPRO_PROFILE=1 only: fold the round's per-kernel replay
        # seconds into the stage timers and emit matching
        # imposed-duration spans, so trace-derived stage totals keep
        # reproducing ``stage_seconds`` even for the kernel breakdown.
        for label, seconds in sorted(stats.kernel_seconds.items()):
            name = "train_kernel:" + label
            telemetry.add_stage_time(name, seconds)
            span = trace.start_span(name, attrs={"stage": True})
            span.set_attr("round", round_index)
            span.finish(elapsed=seconds)
    notify = getattr(simulator, "on_training", None)
    if notify is not None:
        notify(
            {
                "round": round_index,
                "epochs": stats.epochs_run,
                "epochs_skipped": stats.epochs_skipped,
                "compiled": stats.compiled,
                "lanes": stats.lanes,
                "losses": stats.last() if stats.total else {},
                "counters": dict(stats.compile_counters),
                "fallback_reason": stats.fallback_reason,
            }
        )
