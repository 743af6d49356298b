"""Stacked multi-replica VAE training (vmap over the seed grid).

The paper's seed/replica grid retrains K architecturally identical
models on independent data — embarrassingly parallel work the serial
path pays for K times over in Python dispatch.  :func:`train_replicas`
lifts ONE replica's compiled train-step program onto a leading replica
axis (:class:`repro.nn.vmap.StackedTrainStep`): parameters, gradients
and the Adam moments live in ``(K, sum-of-param-sizes)`` flat state,
every step replays one batched program, and each replica keeps its own
rng stream, cost normalizer and Eq.-2 sampling weights — draw-for-draw
identical to training that replica alone.

Equivalence contract
--------------------
Serial :func:`repro.core.training.train_model` per replica is the
reference.  Before any state is touched, the first stacked step is
verified per-replica against each replica's own solo program on probe
data drawn from *copies* of the rng streams; any mismatch (or any
structural guard failing, or ``REPRO_STACKED_REPLICAS=0``) falls back
to the serial reference wholesale — same stream consumption, bit-
identical results.  ``benchmarks/bench_loop_compile.py`` gates the
stacked speedup and asserts per-replica loss curves against the eager
reference within 1e-10.

:class:`ReplicaRoundPool` adapts the seed-grid runner's thread-per-seed
execution to this batched entry point: cells rendezvous per round,
group by training-shape fingerprint, and a deterministic leader trains
every group member's round in one stacked program.
"""

from __future__ import annotations

import copy
import os
import threading
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn.vmap import StackedTrainStep
from .dataset import CircuitDataset
from .training import TrainConfig, TrainStats, _compiled_step_for, train_model
from .vae import CircuitVAEModel

__all__ = ["train_replicas", "use_stacked_replicas", "ReplicaRoundPool"]

#: Machine-checked fast-path contract (``python -m repro check``): the
#: kill switch below forces the serial reference path — per-replica
#: :func:`train_model` calls — and ``benchmarks/bench_loop_compile.py``
#: gates the K-stacked speedup and loss-curve equivalence.
FAST_PATH_CONTRACT = {
    "kill_switch": "REPRO_STACKED_REPLICAS",
    "reference": "train_model",
    "bench": "bench_loop_compile.py",
}


def use_stacked_replicas() -> bool:
    return os.environ.get("REPRO_STACKED_REPLICAS", "1") != "0"


def _train_serial(models, datasets, rngs, config, optimizers) -> List[TrainStats]:
    """The reference path: each replica through plain train_model."""
    return [
        train_model(model, dataset, rng, config, optimizer)
        for model, dataset, rng, optimizer in zip(models, datasets, rngs, optimizers)
    ]


def train_replicas(
    models: Sequence[CircuitVAEModel],
    datasets: Sequence[CircuitDataset],
    rngs: Sequence[np.random.Generator],
    config: Optional[TrainConfig] = None,
    optimizers: Optional[Sequence[nn.Adam]] = None,
) -> List[TrainStats]:
    """Train K same-architecture models as one stacked program.

    Replica ``i`` trains on ``datasets[i]`` drawing from ``rngs[i]``,
    exactly as ``train_model(models[i], datasets[i], rngs[i], config,
    optimizers[i])`` would — the serial form IS the fallback whenever
    stacking is disabled, structurally unsupported, or fails its
    first-step verification.  Checkpointing is not supported here (the
    runner keeps checkpointed cells on the per-cell serial path).
    """
    config = config or TrainConfig()
    count = len(models)
    if not (len(datasets) == len(rngs) == count):
        raise ValueError("models, datasets and rngs must have equal length")
    if optimizers is None:
        optimizers = [nn.Adam(m.parameters(), lr=config.lr) for m in models]
    elif len(optimizers) != count:
        raise ValueError("need one optimizer per model")
    for dataset in datasets:
        if len(dataset) == 0:
            raise ValueError("cannot train on an empty dataset")

    if count < 2 or not use_stacked_replicas() or not _stackable(
        models, datasets, optimizers, config
    ):
        return _train_serial(models, datasets, rngs, config, optimizers)
    try:
        session = _StackedSession(models, datasets, rngs, config, optimizers)
    except nn.CompileUnsupported:
        return _train_serial(models, datasets, rngs, config, optimizers)
    return session.train()


def _stackable(models, datasets, optimizers, config) -> bool:
    """Cheap structural guards; False routes to the serial reference."""
    shapes = [tuple(p.data.shape) for p in models[0].parameters()]
    sizes = {len(d) for d in datasets}
    if len(sizes) != 1:
        return False
    for model in models[1:]:
        if [tuple(p.data.shape) for p in model.parameters()] != shapes:
            return False
        if model.config != models[0].config:
            return False
    head = optimizers[0]
    if type(head) is not nn.Adam:
        return False
    for opt in optimizers:
        if type(opt) is not nn.Adam or opt.weight_decay != 0.0:
            return False
        if (opt.lr, opt.beta1, opt.beta2, opt.eps) != (
            head.lr, head.beta1, head.beta2, head.eps,
        ):
            return False
        if opt._step_count != head._step_count:
            return False
        if len(opt.params) != len(head.params):
            return False
    return True


class _StackedSession:
    """One stacked multi-replica training call, fully prepared.

    The constructor compiles/lifts the program and verifies the first
    stacked step without consuming any replica's rng stream or mutating
    any state, so a :class:`~repro.nn.CompileUnsupported` here leaves
    the serial fallback a clean, bit-identical path.
    """

    def __init__(self, models, datasets, rngs, config, optimizers) -> None:
        self.models = list(models)
        self.datasets = list(datasets)
        self.rngs = list(rngs)
        self.config = config
        self.optimizers = list(optimizers)
        self.count = len(self.models)

        # Per-replica data products (mirrors train_model's hoisting;
        # setting the normalizer here is idempotent with the serial
        # fallback, which re-sets the identical values).
        self.targets = []
        for model, dataset in zip(self.models, self.datasets):
            mean, std = dataset.cost_normalizer()
            model.set_cost_normalizer(mean, std)
            self.targets.append(model.standardize_costs(dataset.costs))
        self.sample_p = [
            d.weights() if config.reweight else d.uniform_weights()
            for d in self.datasets
        ]
        self.cdfs = []
        for p in self.sample_p:
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            self.cdfs.append(cdf)
        self.all_grids = [d.grids() for d in self.datasets]
        self.batch = min(config.batch_size, len(self.datasets[0]))
        self.batches_per_epoch = max(1, len(self.datasets[0]) // config.batch_size)
        self.latent_dim = self.models[0].config.latent_dim

        # Compile the template program from replica 0 on a deterministic
        # probe batch (no rng consumed), then lift it with its parameter
        # and gradient storage bound straight onto the flat state — the
        # replay reads params from (and writes grads into) the same
        # memory the flat Adam update touches, no per-step copies.
        probe = self._probe_arrays(0)
        step0 = _compiled_step_for(self.models[0], self.optimizers[0], config)
        program = step0.program_for(probe)
        param_views, grad_views = self._build_flat_state(program)
        self.stacked = StackedTrainStep(program, self.count, param_views, grad_views)
        self._bind_replica_params(program)
        self._verify(probe[0].shape, program)

    # -- wiring --------------------------------------------------------
    def _probe_arrays(self, k: int) -> Tuple[np.ndarray, ...]:
        """A deterministic example batch for replica ``k`` (no rng)."""
        idx = np.arange(self.batch) % len(self.datasets[k])
        grids = self.all_grids[k][idx]
        x_pad = self.models[k]._pad_grids(grids)
        eps = np.zeros((self.batch, self.latent_dim))
        return (x_pad, grids, eps, self.targets[k][idx])

    def _bind_replica_params(self, program) -> None:
        """Map each template param slot to every replica's tensor."""
        base_params = self.optimizers[0].params
        index_of = {id(p): i for i, p in enumerate(base_params)}
        self.slots = []  # (nid, [replica-k tensor ...], param index)
        seen = set()
        for nid, tensor in self.stacked.param_entries:
            idx = index_of.get(id(tensor))
            if idx is None:
                raise nn.CompileUnsupported(
                    "traced parameter is not owned by the optimizer"
                )
            if self.stacked.param_grads.get(nid) is None:
                raise nn.CompileUnsupported(
                    "a parameter receives no gradient; stacking would "
                    "desynchronize the optimizer state"
                )
            replicas = [opt.params[idx] for opt in self.optimizers]
            for replica in replicas:
                if replica.data.shape != tensor.data.shape:
                    raise nn.CompileUnsupported("replica parameter shape mismatch")
            self.slots.append((nid, replicas, idx))
            seen.add(idx)
        if len(seen) != len(base_params):
            raise nn.CompileUnsupported(
                "program does not cover every optimizer parameter"
            )

    def _build_flat_state(self, program):
        """(K, sum-of-sizes) flat parameter/moment/grad state + offsets.

        Returns per-node *views* into ``flat_p`` / ``flat_g`` (splitting
        each row's contiguous slice back to the parameter shape) for the
        stacked program to adopt as its parameter and gradient storage,
        in the same node order :class:`StackedTrainStep` enumerates.
        """
        k = self.count
        plan_kinds = program.plan.kinds
        entries = [
            (nid, tensor)
            for nid, tensor in program._trace.param_nodes.items()
            if nid in plan_kinds
        ]
        self.offsets = []
        total = 0
        for nid, tensor in entries:
            size = int(tensor.data.size)
            self.offsets.append((total, total + size))
            total += size
        self.flat_p = np.empty((k, total))
        self.flat_m = np.empty((k, total))
        self.flat_v = np.empty((k, total))
        self.flat_g = np.empty((k, total))
        self.scratch1 = np.empty((k, total))
        self.scratch2 = np.empty((k, total))
        param_views, grad_views = {}, {}
        for (a, b), (nid, tensor) in zip(self.offsets, entries):
            shape = (k,) + tuple(tensor.data.shape)
            for flat, views in ((self.flat_p, param_views), (self.flat_g, grad_views)):
                view = flat[:, a:b].reshape(shape)
                if view.base is None:
                    raise nn.CompileUnsupported("flat state slice is not a view")
                views[nid] = view
        return param_views, grad_views

    def _gather_state(self) -> None:
        for (a, b), (nid, replicas, idx) in zip(self.offsets, self.slots):
            for row, (tensor, opt) in enumerate(zip(replicas, self.optimizers)):
                self.flat_p[row, a:b] = tensor.data.ravel()
                self.flat_m[row, a:b] = opt._m[idx].ravel()
                self.flat_v[row, a:b] = opt._v[idx].ravel()

    def _scatter_back(self, steps: int) -> None:
        """Write the trained flat state back into every replica."""
        for (a, b), (nid, replicas, idx) in zip(self.offsets, self.slots):
            for row, (tensor, opt) in enumerate(zip(replicas, self.optimizers)):
                shape = tensor.data.shape
                tensor.data[...] = self.flat_p[row, a:b].reshape(shape)
                opt._m[idx][...] = self.flat_m[row, a:b].reshape(shape)
                opt._v[idx][...] = self.flat_v[row, a:b].reshape(shape)
                tensor.grad = None
        for opt in self.optimizers:
            opt._step_count += steps

    # -- the stacked update rule (solo-matching associations) ----------
    def _clip_and_step(self) -> None:
        config = self.config
        flat_g = self.flat_g
        # Per-replica global-norm clip: square once, then reduce each
        # parameter's contiguous slice separately and accumulate through
        # Python floats — the same per-parameter pairwise sums (and the
        # same float association) as nn.clip_grad_norm.
        sq = self.scratch1
        np.multiply(flat_g, flat_g, out=sq)
        for row in range(self.count):
            total = 0.0
            row_sq = sq[row]
            for a, b in self.offsets:
                total += float(np.add.reduce(row_sq[a:b]))
            total = float(np.sqrt(total))
            if total > config.grad_clip and total > 0.0:
                flat_g[row] *= config.grad_clip / total
        # Adam with shared scalar state, ufunc-for-ufunc the sequence
        # nn.Adam.step applies per parameter (weight_decay is 0 by guard).
        opt = self.optimizers[0]
        count = opt._step_count + self._steps_done + 1
        bias1 = 1.0 - opt.beta1 ** count
        bias2 = 1.0 - opt.beta2 ** count
        m, v, s1, s2 = self.flat_m, self.flat_v, self.scratch1, self.scratch2
        np.multiply(flat_g, 1.0 - opt.beta1, out=s2)
        m *= opt.beta1
        m += s2
        np.multiply(flat_g, 1.0 - opt.beta2, out=s2)
        np.multiply(s2, flat_g, out=s2)
        v *= opt.beta2
        v += s2
        np.divide(m, bias1, out=s1)
        np.divide(v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += opt.eps
        np.multiply(s1, opt.lr, out=s1)
        np.divide(s1, s2, out=s1)
        self.flat_p -= s1
        self._steps_done += 1

    # -- verification --------------------------------------------------
    def _verify(self, pad_shape, program) -> None:
        """First stacked step vs every replica's solo program.

        Uses probe data drawn from *copies* of the rng streams and
        compares outputs and parameter gradients; any drift beyond fp
        reassociation noise rejects the session before state is touched.
        """
        k = self.count
        inputs = self._alloc_inputs(pad_shape)
        probe_rngs = [copy.deepcopy(rng) for rng in self.rngs]
        per_replica = []
        for row in range(k):
            arrays = self._draw_step(probe_rngs[row], row)
            per_replica.append(arrays)
            for buf, arr in zip(inputs, arrays):
                buf[row] = arr
        # Stacked run on the replicas' CURRENT parameters (the probe
        # batches are already in the program's bound input buffers).
        self._gather_state()
        outputs = self.stacked.run()
        for row in range(k):
            step = _compiled_step_for(
                self.models[row], self.optimizers[row], self.config
            )
            solo = step.program_for(per_replica[row])
            solo_out = solo.run(per_replica[row])
            for name, stacked_value in outputs.items():
                if not np.allclose(
                    solo_out[name], stacked_value[row], rtol=1e-10, atol=1e-12
                ):
                    raise nn.CompileUnsupported(
                        f"stacked output {name!r} diverges from solo replay"
                    )
            for (a, b), (nid, replicas, idx) in zip(self.offsets, self.slots):
                solo_grad = None
                for tensor, grad_buf in solo._param_grad_binds:
                    if tensor is replicas[row]:
                        solo_grad = grad_buf
                        break
                if solo_grad is None or not np.allclose(
                    solo_grad.ravel(), self.flat_g[row, a:b],
                    rtol=1e-10, atol=1e-12,
                ):
                    raise nn.CompileUnsupported(
                        "stacked parameter gradient diverges from solo replay"
                    )
            for p in self.models[row].parameters():
                p.grad = None
        self._inputs = inputs

    # -- execution -----------------------------------------------------
    def _alloc_inputs(self, pad_shape) -> List[np.ndarray]:
        """The stacked program's own input buffers, bound in place.

        The session writes each step's batch directly into the program's
        ``input_storage`` (position order: x_pad, grids, eps, targets)
        and calls :meth:`StackedTrainStep.run` with no arguments, so the
        replay never copies inputs.  The padded-grid buffer is zeroed
        once; per step only the interior ``[:n, :n]`` window changes.
        """
        storage = self.stacked.input_storage
        if sorted(storage) != [0, 1, 2, 3]:
            raise nn.CompileUnsupported(
                "stacked program does not consume all four step inputs"
            )
        storage[0][...] = 0.0
        return [storage[i] for i in range(4)]

    def _draw_step(self, rng, row) -> Tuple[np.ndarray, ...]:
        """One replica's batch, consuming its stream exactly like
        train_model (choice-uniforms then reparameterization noise)."""
        u = rng.random(self.batch)
        idx = self.cdfs[row].searchsorted(u, side="right")
        grids = self.all_grids[row][idx]
        x_pad = self.models[row]._pad_grids(grids)
        eps = rng.standard_normal((self.batch, self.latent_dim))
        return (x_pad, grids, eps, self.targets[row][idx])

    def train(self) -> List[TrainStats]:
        config = self.config
        k, batch = self.count, self.batch
        n = self.models[0].config.n
        inputs = self._inputs
        x_pad, grids_buf, eps_buf, targets_buf = inputs
        self._steps_done = 0
        for model in self.models:
            model.train()
        self._gather_state()

        steps = config.epochs * self.batches_per_epoch
        losses = np.empty((steps, k, 4))
        out_names = ("loss", "reconstruction", "kl", "cost")
        for s in range(steps):
            for row in range(k):
                rng = self.rngs[row]
                u = rng.random(batch)
                idx = self.cdfs[row].searchsorted(u, side="right")
                np.take(self.all_grids[row], idx, axis=0, out=grids_buf[row])
                x_pad[row, :, 0, :n, :n] = grids_buf[row]
                eps_buf[row] = rng.standard_normal((batch, self.latent_dim))
                np.take(self.targets[row], idx, out=targets_buf[row])
            outputs = self.stacked.run()
            for column, name in enumerate(out_names):
                losses[s, :, column] = outputs[name]
            self._clip_and_step()

        self._scatter_back(steps)
        results = []
        per_epoch = losses.reshape(
            config.epochs, self.batches_per_epoch, k, 4
        ).mean(axis=1)
        for row, model in enumerate(self.models):
            stats = TrainStats(compiled=True, stacked=True)
            stats.total = [float(x) for x in per_epoch[:, row, 0]]
            stats.reconstruction = [float(x) for x in per_epoch[:, row, 1]]
            stats.kl = [float(x) for x in per_epoch[:, row, 2]]
            stats.cost = [float(x) for x in per_epoch[:, row, 3]]
            model.eval()
            results.append(stats)
        return results


# ----------------------------------------------------------------------
# Seed-grid rendezvous
# ----------------------------------------------------------------------
class ReplicaRoundPool:
    """Groups concurrent seed cells' training rounds into stacked calls.

    The runner registers one handle per cell in a wave (every cell is
    guaranteed its own thread).  On a cell's FIRST ``train_model`` call
    the handle arrives at a rendezvous; once every registered cell has
    either arrived or withdrawn (checkpointed cells withdraw — durable
    resume stays per-cell), arrivals are grouped by training-shape
    fingerprint and one thread trains each group in cell-id order
    through :func:`train_replicas` while the rest wait.  Singleton
    groups and later rounds return ``None`` — the cell trains solo,
    identically to a pool-less run.  Grouping depends only on the wave's
    membership, never on thread timing, so results stay deterministic.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ready = threading.Event()
        self._cells: Dict[int, Dict] = {}
        self._pending = 0
        self._trained = False
        self._results: Dict[int, Optional[TrainStats]] = {}
        #: why a cell's stacked round failed (it then trains solo)
        self._failures: Dict[int, str] = {}

    def handle(self, cell_id: int) -> "ReplicaPoolHandle":
        with self._lock:
            self._cells[cell_id] = {"state": "registered"}
            self._pending += 1
        return ReplicaPoolHandle(self, cell_id)

    # -- handle callbacks ----------------------------------------------
    def _withdraw(self, cell_id: int) -> None:
        with self._lock:
            cell = self._cells.get(cell_id)
            if cell is None or cell["state"] != "registered":
                return
            cell["state"] = "withdrawn"
            self._pending -= 1
            if self._pending == 0:
                self._ready.set()

    def _arrive(self, cell_id: int, model, dataset, rng, config, optimizer):
        with self._lock:
            cell = self._cells.get(cell_id)
            if cell is None or cell["state"] != "registered":
                return None
            cell.update(
                state="arrived",
                model=model,
                dataset=dataset,
                rng=rng,
                config=config,
                optimizer=optimizer,
            )
            self._pending -= 1
            if self._pending == 0:
                self._ready.set()
        self._ready.wait()
        self._train_groups()
        return self._results.get(cell_id)

    def _train_groups(self) -> None:
        """Leader election + stacked training, exactly once per pool."""
        with self._lock:
            if self._trained:
                return
            self._trained = True
            arrived = sorted(
                cid
                for cid, cell in self._cells.items()
                if cell["state"] == "arrived"
            )
            groups: Dict[Tuple, List[int]] = {}
            for cid in arrived:
                cell = self._cells[cid]
                key = (
                    len(cell["dataset"]),
                    cell["config"],
                    tuple(p.data.shape for p in cell["model"].parameters()),
                )
                groups.setdefault(key, []).append(cid)
            for members in groups.values():
                if len(members) < 2:
                    for cid in members:
                        self._results[cid] = None
                    continue
                cells = [self._cells[cid] for cid in members]
                try:
                    stats = train_replicas(
                        [c["model"] for c in cells],
                        [c["dataset"] for c in cells],
                        [c["rng"] for c in cells],
                        config=cells[0]["config"],
                        optimizers=[c["optimizer"] for c in cells],
                    )
                except Exception as error:
                    # Never take the whole wave down: members train solo,
                    # and each counts a stacked_failures round.
                    reason = f"{type(error).__name__}: {error}"
                    if not self._failures:
                        warnings.warn(
                            f"stacked replica training failed ({reason}); "
                            f"{len(members)} cells train solo",
                            RuntimeWarning,
                            stacklevel=2,
                        )
                    for cid in members:
                        self._results[cid] = None
                        self._failures[cid] = reason
                    continue
                for cid, stat in zip(members, stats):
                    self._results[cid] = stat


class ReplicaPoolHandle:
    """One cell's one-shot ticket into a :class:`ReplicaRoundPool`."""

    def __init__(self, pool: ReplicaRoundPool, cell_id: int) -> None:
        self._pool = pool
        self._cell_id = cell_id
        self._used = False

    @property
    def failure(self) -> Optional[str]:
        """Why this cell's stacked round failed, or None."""
        return self._pool._failures.get(self._cell_id)

    def withdraw(self) -> None:
        """Leave the rendezvous (checkpointed cells, cell teardown)."""
        self._used = True
        self._pool._withdraw(self._cell_id)

    def train(self, model, dataset, rng, config, optimizer) -> Optional[TrainStats]:
        """First call joins the rendezvous; later calls train solo."""
        if self._used:
            return None
        self._used = True
        return self._pool._arrive(
            self._cell_id, model, dataset, rng, config, optimizer
        )
