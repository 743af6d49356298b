"""Recorded training loops: replay a whole checkpoint segment per entry.

:mod:`repro.nn.compile` removed the per-op Python dispatch from one
training step; this module removes the per-step Python glue from the
epoch loop.  :func:`compile_train_loop` wraps a
:class:`~repro.nn.compile.CompiledTrainStep` and replays ``S`` steps (one
checkpoint segment) per Python entry:

* **Pre-drawn randomness** — the per-step ``rng.choice`` (minibatch
  indices by Eq.-2 weight) and ``rng.standard_normal`` (reparameterization
  noise) calls are replayed draw-for-draw against a hoisted weight CDF,
  two generator calls per step in the original order, so the stream
  position after a segment is bit-identical to the per-step path and
  checkpoints taken at segment boundaries restore exactly.
* **Flat parameter/moment state** — parameters, Adam moments and
  gradients are rebased onto contiguous flat buffers (``p.data`` and the
  optimizer's ``_m``/``_v`` entries become views), so gradient clipping
  and the Adam update run as one short ufunc sequence instead of one per
  parameter.  The flat forms compute the exact same floating-point
  expressions (contiguous-slice sums, elementwise ufuncs over
  concatenated buffers), so updates stay bit-identical to
  :meth:`repro.nn.optim.Adam.step` / :func:`repro.nn.optim.clip_grad_norm`.
* **Dataset-level im2col** — the first convolution consumes the padded
  grid batch; its unfolded patches are precomputed once for the whole
  dataset and gathered per step straight into the kernel's persistent
  ``im2col`` workspace (a pure element copy, bitwise equal to unfolding
  the batch), skipping the pad-and-window copies entirely.
* **Per-step loss rows** — each step's four losses land in a
  preallocated ``(S, 4)`` array; the caller folds them into
  ``TrainStats`` in the original Python order, keeping loss traces
  bit-identical.
* **Batch lanes** — each step asks the :mod:`repro.nn.lanes` budget for
  helper threads and, when granted, replays the program's
  :class:`~repro.nn.compile.LanePlan` (with the gathered convolution
  split too); lanes never change values.

**Equivalence contract**: the recorded loop must be *bitwise identical*
to calling the compiled step once per step (the same
:class:`~repro.nn.compile.GraphProgram` replays, fed identical inputs,
followed by value-identical flat updates).  Every session begins with a
mechanical self-check — one probe step through the loop's substituted
instructions and flat gather, compared bitwise against
``GraphProgram.run`` — and any mismatch (or any structure the loop does
not understand) raises :class:`~repro.nn.compile.CompileUnsupported`, in
which case the caller falls back wholesale to the per-step engine.  Set
``REPRO_COMPILED_LOOP=0`` to force per-step execution; the per-step
compiled path (built by :func:`~repro.nn.compile.compile_train_step`) is
this fast path's reference.
"""

from __future__ import annotations

import math
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .compile import (
    CompiledTrainStep,
    CompileUnsupported,
    LanePlan,
    _ALL,
    _Im2Col,
    _LaneSpec,
    compile_train_step,
)
from .lanes import BUDGET, MAX_LANES, LaneBudget
from .optim import Adam

__all__ = [
    "CompiledTrainLoop",
    "compile_train_loop",
    "use_compiled_loop",
    "FAST_PATH_CONTRACT",
]

#: The recorded-loop fast path's contract, machine-checked by
#: ``python -m repro check``: :func:`use_compiled_loop` reads the kill
#: switch, the reference engine is the per-step compiled step built by
#: :func:`~repro.nn.compile.compile_train_step` (replaying the *same*
#: program once per step — the opt-out path is bit-identical), and
#: ``benchmarks/bench_loop_compile.py`` gates the speedup while
#: asserting that bit-identity.
FAST_PATH_CONTRACT = {
    "kill_switch": "REPRO_COMPILED_LOOP",
    "reference": "compile_train_step",
    "bench": "bench_loop_compile.py",
}

#: Upper bound on steps pre-drawn per replay chunk (bounds the segment's
#: eps/index staging memory; chunking never changes the rng stream —
#: the two draws per step happen in the original order either way).
_MAX_CHUNK_STEPS = 4096

#: Skip the dataset-level im2col when the unfolded dataset would exceed
#: this many bytes; the loop then pads per step into a persistent buffer
#: (still bit-identical, slightly slower).
_MAX_COLS_BYTES = 64 * 1024 * 1024


def use_compiled_loop() -> bool:
    """``REPRO_COMPILED_LOOP=0`` forces per-step execution (kill switch)."""
    return os.environ.get("REPRO_COMPILED_LOOP", "1") != "0"


def compile_train_loop(
    step_fn: Callable,
    params: Sequence,
    optimizer=None,
    grad_clip: Optional[float] = None,
) -> "CompiledTrainLoop":
    """Build a recorded loop around a freshly compiled train step.

    The step is traced by :func:`~repro.nn.compile.compile_train_step`
    exactly as the per-step engine would; the loop replays that step's
    program, so both engines share one program cache and produce
    bit-identical values.
    """
    step = compile_train_step(
        step_fn, params, optimizer=optimizer, grad_clip=grad_clip
    )
    return CompiledTrainLoop(step)


class CompiledTrainLoop:
    """Segment replayer for one :class:`CompiledTrainStep`.

    Sessions are opened per training call (:meth:`begin`) and replay
    whole checkpoint segments; per-signature loop state (flat buffers,
    substituted instructions) is cached across calls like the step's own
    program cache.
    """

    def __init__(self, step: CompiledTrainStep) -> None:
        self.step = step
        self._states: Dict[Tuple, "_LoopState"] = {}
        #: segments replayed through this loop (tests/telemetry).
        self.segments_replayed = 0

    def begin(
        self,
        all_grids: np.ndarray,
        targets: np.ndarray,
        sample_p: np.ndarray,
        batch: int,
        pad: Callable[[np.ndarray], np.ndarray],
        noise_dim: int,
        lanes: Optional[int] = None,
        budget: Optional[LaneBudget] = None,
    ) -> "_LoopSession":
        """Open a recording session for one ``train_model`` call.

        ``lanes`` caps the batch lanes a step may split into (default:
        what ``budget`` would grant a lone trainer); ``budget`` is the
        :class:`~repro.nn.lanes.LaneBudget` steps take helpers from
        (default: the process-wide one).  Lanes never change values.

        Raises :class:`CompileUnsupported` when the step cannot compile
        or the loop cannot prove itself bitwise-equal to it.
        """
        budget = budget if budget is not None else BUDGET
        if lanes is None:
            lanes = budget.default_lanes()
        count = len(all_grids)
        if count == 0 or batch <= 0:
            raise CompileUnsupported("recorded loop needs a non-empty dataset")
        sample_p = np.asarray(sample_p, dtype=np.float64)
        if (
            sample_p.ndim != 1
            or sample_p.shape[0] != count
            or np.any(sample_p < 0)
            or abs(math.fsum(sample_p) - 1.0) > math.sqrt(np.finfo(np.float64).eps)
        ):
            # Let the per-step path surface rng.choice's own error.
            raise CompileUnsupported("sampling weights rejected by the loop")

        # Deterministic probe inputs: no rng consumption before training.
        ex_idx = np.arange(batch) % count
        ex_grids = np.ascontiguousarray(all_grids[ex_idx], dtype=np.float64)
        ex_targets = np.ascontiguousarray(targets[ex_idx], dtype=np.float64)
        ex_eps = np.zeros((batch, noise_dim), dtype=np.float64)
        ex_x = np.asarray(pad(ex_grids), dtype=np.float64)
        arrays = (ex_x, ex_grids, ex_eps, ex_targets)

        program = self.step.program_for(arrays)
        key = self.step.signature(arrays)
        state = self._states.get(key)
        if state is None:
            state = _LoopState(self.step, program)
            self._states[key] = state
        state.resync()

        # rng.choice(count, size=batch, replace=True, p=w) internally
        # cumsums + renormalizes the weights and searchsorts uniforms;
        # hoisting the CDF replays it draw-for-draw.
        cdf = np.cumsum(sample_p)
        cdf /= cdf[-1]

        cols_ds = state.build_dataset_cols(all_grids, pad)
        session = _LoopSession(
            state, all_grids, targets, cdf, batch, pad, noise_dim, cols_ds,
            loop=self, budget=budget,
        )
        lanes = min(lanes, MAX_LANES, program.batch)
        state.selfcheck(arrays, session, ex_idx, lanes)
        session.plan = state.lane_plans.get((lanes, cols_ds is not None))
        return session


class _LoopState:
    """Per-signature loop machinery: flat state + substituted program."""

    def __init__(self, step: CompiledTrainStep, program) -> None:
        self.step = step
        self.program = program
        optimizer = step.optimizer
        if type(optimizer) is not Adam:
            raise CompileUnsupported("recorded loop requires a plain Adam optimizer")
        if optimizer.weight_decay:
            raise CompileUnsupported("recorded loop does not fold weight decay")
        if len(optimizer.params) != len(step.params) or any(
            a is not b for a, b in zip(optimizer.params, step.params)
        ):
            raise CompileUnsupported("optimizer and step parameter lists differ")
        self.optimizer = optimizer
        self.params = list(step.params)
        self.grad_clip = step.grad_clip

        grad_map = {id(t): buf for t, buf in program._param_grad_binds}
        self.grad_bufs: List[np.ndarray] = []
        for p in self.params:
            buf = grad_map.get(id(p))
            if buf is None:
                raise CompileUnsupported("a parameter receives no compiled gradient")
            if p.data.dtype != np.float64:
                raise CompileUnsupported("recorded loop requires float64 parameters")
            self.grad_bufs.append(buf)

        outputs = program._outputs
        for name in ("loss", "reconstruction", "kl", "cost"):
            if name not in outputs:
                raise CompileUnsupported(f"step outputs lack {name!r}")
        self.out_ids = tuple(
            outputs[name] for name in ("loss", "reconstruction", "kl", "cost")
        )

        binds = dict((position, nid) for nid, position in program._input_binds)
        if sorted(binds) != [0, 1, 2, 3]:
            raise CompileUnsupported("step inputs pruned; loop binding unsafe")
        self.x_nid = binds[0]
        self.g_nid = binds[1]
        self.e_nid = binds[2]
        self.t_nid = binds[3]

        # Flat parameter/gradient/moment layout in optimizer order.
        sizes = [p.data.size for p in self.params]
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
        self.slices = [
            (int(offsets[i]), int(offsets[i + 1])) for i in range(len(sizes))
        ]
        total = int(offsets[-1])
        self.flat_p = np.empty(total)
        self.flat_m = np.empty(total)
        self.flat_v = np.empty(total)
        self.flat_g = np.empty(total)
        self.flat_sq = np.empty(total)
        self.flat_s1 = np.empty(total)
        self.flat_s2 = np.empty(total)
        self._p_views: List[np.ndarray] = []
        self._g_views: List[np.ndarray] = []

        self._find_lead_conv()
        self._rebased = False
        #: loop lane plans by (lanes, gather), and why others were refused
        self.lane_plans: Dict[Tuple[int, bool], LanePlan] = {}
        self.lane_rejects: Dict[Tuple[int, bool], str] = {}

    # -- flat-state rebasing -------------------------------------------
    def resync(self) -> None:
        """(Re)base parameters and Adam moments onto the flat buffers.

        Cheap when already based (identity checks only); anything that
        rebound ``p.data`` (a fresh process, an exotic caller) triggers a
        rebuild from the current values.
        """
        if self._rebased and all(
            p.data is view for p, view in zip(self.params, self._p_views)
        ):
            return
        optimizer = self.optimizer
        self._p_views = []
        self._g_views = []
        for i, (p, (a, b)) in enumerate(zip(self.params, self.slices)):
            self.flat_p[a:b] = p.data.ravel()
            self.flat_m[a:b] = optimizer._m[i].ravel()
            self.flat_v[a:b] = optimizer._v[i].ravel()
            shape = p.data.shape
            p_view = self.flat_p[a:b].reshape(shape)
            g_view = self.flat_g[a:b].reshape(shape)
            p.data = p_view
            p.grad = g_view
            optimizer._m[i] = self.flat_m[a:b].reshape(shape)
            optimizer._v[i] = self.flat_v[a:b].reshape(shape)
            self._p_views.append(p_view)
            self._g_views.append(g_view)
        self._bind_lead_conv_weight()
        self._rebased = True

    # -- leading-convolution gather ------------------------------------
    def _find_lead_conv(self) -> None:
        """Detect the padded-grid convolution eligible for dataset im2col."""
        program = self.program
        trace = program._trace
        plan = program.plan
        self.conv_nid = None
        #: single-lane (forward, backward) steps, by gather mode
        self.serial = {False: program._serial, True: program._serial}
        x_shape = trace.nodes[self.x_nid].shape
        self.pad_buf = np.zeros(x_shape)
        consumers = [
            nid
            for nid in plan.sched
            if self.x_nid in trace.nodes[nid].parents
        ]
        if len(consumers) != 1:
            return
        nid = consumers[0]
        node = trace.nodes[nid]
        if (
            node.op != "conv2d"
            or node.parents[0] != self.x_nid
            or node.parents[1] not in trace.param_nodes
        ):
            return
        kern = program._fwd_kernels.get(nid)
        if kern is None or not kern.unfold.cols.flags.c_contiguous:
            return
        self.conv_nid = nid
        self.conv_kern = kern
        self.conv_w = trace.param_nodes[node.parents[1]]
        self.cur_idx: List[Optional[np.ndarray]] = [None]
        self.cur_cols: List[Optional[np.ndarray]] = [None]
        self._w2d: List[Optional[np.ndarray]] = [None]
        unfold = kern.unfold
        out_mat = kern.out_mat
        cur_idx, cur_cols, w2d = self.cur_idx, self.cur_cols, self._w2d

        def gathered_conv_rows(r):
            cols, cols_mat, out = unfold.cols[r], unfold.cols_mat[r], out_mat[r]

            def run_gathered_rows() -> None:
                np.take(cur_cols[0], cur_idx[0][r], axis=0, out=cols)
                np.matmul(w2d[0], cols_mat, out=out)

            return run_gathered_rows

        slot = list(plan.sched).index(nid)
        instrs = list(program._forward)
        instrs[slot] = gathered_conv_rows(_ALL)
        self.fwd_instrs_gather = instrs
        self.serial[True] = (LanePlan.serial(instrs), program._serial[1])
        self.conv_slot = slot
        self.gather_spec = _LaneSpec(rows=gathered_conv_rows, work=kern.work)

    def _bind_lead_conv_weight(self) -> None:
        if self.conv_nid is not None:
            rows = self.conv_kern.w_rows
            self._w2d[0] = self.conv_w.data.reshape(rows, -1)

    def build_dataset_cols(
        self, all_grids: np.ndarray, pad: Callable
    ) -> Optional[np.ndarray]:
        """Unfold the whole padded dataset for the leading convolution."""
        if self.conv_nid is None:
            return None
        unfold = self.conv_kern.unfold
        count = len(all_grids)
        _, channels, kh, kw, oh, ow = unfold.cols.shape
        if count * channels * kh * kw * oh * ow * 8 > _MAX_COLS_BYTES:
            return None
        cols_ds = np.empty((count, channels, kh, kw, oh, ow))
        chunk = 1024
        for i in range(0, count, chunk):
            block = np.asarray(
                pad(np.asarray(all_grids[i : i + chunk], dtype=np.float64)),
                dtype=np.float64,
            )
            im = _Im2Col(
                block.shape, unfold.kh, unfold.kw, unfold.stride, unfold.padding
            )
            im(block)
            cols_ds[i : i + chunk] = im.cols
        return cols_ds

    # -- replay internals ----------------------------------------------
    def bind_step_buffers(self, batch: int, grid_shape, gather: bool) -> Tuple:
        storage = self.program._storage
        g_buf = np.empty((batch,) + grid_shape)
        t_buf = np.empty((batch,))
        storage[self.g_nid] = g_buf
        storage[self.t_nid] = t_buf
        if not gather:
            storage[self.x_nid] = self.pad_buf
        return g_buf, t_buf

    def flat_update(self) -> None:
        """Gather grads, clip, Adam — bit-identical to the per-param forms."""
        flat_g = self.flat_g
        for view, buf in zip(self._g_views, self.grad_bufs):
            np.copyto(view, buf)
        clip = self.grad_clip
        if clip is not None:
            np.multiply(flat_g, flat_g, out=self.flat_sq)
            sq = self.flat_sq
            total = 0.0
            for a, b in self.slices:
                total += float(np.add.reduce(sq[a:b]))
            total = float(np.sqrt(total))
            if total > clip and total > 0.0:
                flat_g *= clip / total
        optimizer = self.optimizer
        optimizer._step_count += 1
        bias1 = 1.0 - optimizer.beta1 ** optimizer._step_count
        bias2 = 1.0 - optimizer.beta2 ** optimizer._step_count
        s1, s2 = self.flat_s1, self.flat_s2
        np.multiply(flat_g, 1.0 - optimizer.beta1, out=s2)
        self.flat_m *= optimizer.beta1
        self.flat_m += s2
        np.multiply(flat_g, 1.0 - optimizer.beta2, out=s2)
        np.multiply(s2, flat_g, out=s2)
        self.flat_v *= optimizer.beta2
        self.flat_v += s2
        np.divide(self.flat_m, bias1, out=s1)
        np.divide(self.flat_v, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += optimizer.eps
        np.multiply(s1, optimizer.lr, out=s1)
        np.divide(s1, s2, out=s1)
        self.flat_p -= s1

    # -- lane plans ----------------------------------------------------
    def _lane_plan(self, lanes: int, gather: bool) -> LanePlan:
        """The program's lane plan with the loop's forward substitutions."""
        program = self.program
        if not gather:
            return program.build_lane_plan(lanes)
        specs = list(program._fwd_specs)
        specs[self.conv_slot] = self.gather_spec
        return program.build_lane_plan(
            lanes, forward=list(zip(self.fwd_instrs_gather, specs))
        )

    # -- the bitwise probe ---------------------------------------------
    def _probe_step(self, arrays, session: "_LoopSession", ex_idx, plan) -> Tuple:
        """One step through the loop's instructions (or ``plan``, lanes
        run in turn); returns its outputs and gathered flat gradient."""
        program = self.program
        storage = program._storage
        gather = session.cols_ds is not None
        g_buf, t_buf = self.bind_step_buffers(
            len(arrays[1]), arrays[1].shape[1:], gather
        )
        np.copyto(g_buf, arrays[1])
        np.copyto(t_buf, arrays[3])
        storage[self.e_nid] = arrays[2]
        if gather:
            self.cur_idx[0] = np.asarray(ex_idx, dtype=np.intp)
            self.cur_cols[0] = session.cols_ds
        else:
            session.fill_pad(self.pad_buf, arrays[1])
        forward, backward = (
            self.serial[gather] if plan is None else (plan.forward, plan.backward)
        )
        LanePlan.run(forward, ())
        outputs = [np.array(storage[nid]) for nid in self.out_ids]
        LanePlan.run(backward, ())
        for view, buf in zip(self._g_views, self.grad_bufs):
            np.copyto(view, buf)
        return outputs, self.flat_g.copy()

    def selfcheck(
        self, arrays: Tuple[np.ndarray, ...], session: "_LoopSession", ex_idx,
        lanes: int = 1,
    ) -> None:
        """One probe step, loop instructions vs ``GraphProgram.run``.

        Compares the four outputs and the gathered flat gradient bitwise;
        touches no optimizer state and consumes no rng.  The ``lanes``
        plan, when this state has not probed it yet, is checked the same
        way (once, after :meth:`GraphProgram.poison` so a stale read
        shows); a mismatch keeps it off without failing the loop.
        """
        program = self.program
        mine, mine_g = self._probe_step(arrays, session, ex_idx, None)
        reference = program.run(arrays)
        names = ("loss", "reconstruction", "kl", "cost")
        ref = [np.array(reference[name]) for name in names]
        for view, buf in zip(self._g_views, self.grad_bufs):
            np.copyto(view, buf)
        ref_g = self.flat_g.copy()

        def same(outputs, flat_g) -> bool:
            return all(np.array_equal(a, b) for a, b in zip(outputs, ref)) and (
                np.array_equal(flat_g, ref_g)
            )

        ok = same(mine, mine_g)
        key = (lanes, session.cols_ds is not None)
        if ok and lanes > 1 and key not in self.lane_plans and key not in self.lane_rejects:
            reason = program.probe_lanes(arrays, lanes)
            if reason is None:
                plan = self._lane_plan(*key)
                program.poison(arrays)
                if same(*self._probe_step(arrays, session, ex_idx, plan)):
                    self.lane_plans[key] = plan
                else:
                    reason = "a split loop step differs from the per-step program"
                    self.step.stats.lane_rejects += 1
            if reason is not None:
                self.lane_rejects[key] = reason
        # program.run pointed .grad back at its own buffers; restore the
        # flat views so callers observe the clipped gradients.
        for p, view in zip(self.params, self._g_views):
            p.grad = view
        if not ok:
            raise CompileUnsupported(
                "recorded loop diverged from the per-step program"
            )


class _LoopSession:
    """One ``train_model`` call's recording context."""

    def __init__(
        self,
        state: _LoopState,
        all_grids: np.ndarray,
        targets: np.ndarray,
        cdf: np.ndarray,
        batch: int,
        pad: Callable,
        noise_dim: int,
        cols_ds: Optional[np.ndarray],
        loop: Optional["CompiledTrainLoop"] = None,
        budget: Optional[LaneBudget] = None,
    ) -> None:
        self.state = state
        self.loop = loop
        self.budget = budget if budget is not None else BUDGET
        #: the probed lane plan this session may use (None: single-lane)
        self.plan: Optional[LanePlan] = None
        #: the most lanes any step of this session ran with
        self.lanes_used = 1
        self.all_grids = np.asarray(all_grids, dtype=np.float64)
        self.targets = np.asarray(targets, dtype=np.float64)
        self.cdf = cdf
        self.batch = batch
        self.noise_dim = noise_dim
        self.cols_ds = cols_ds
        self._interior = None

    def fill_pad(self, pad_buf: np.ndarray, grids: np.ndarray) -> None:
        # Mirror CircuitVAEModel._pad_grids: grids land in the top-left
        # interior of a zeroed (B, 1, m, m) buffer.
        n = grids.shape[-1]
        pad_buf[:, 0, :n, :n] = grids

    def run(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        """Replay ``steps`` training steps; returns per-step ``(S, 4)`` losses.

        Consumes exactly two generator draws per step (indices then
        noise), in the per-step order.  Each step takes helpers from the
        lane budget (see :mod:`repro.nn.lanes`) and runs split when it
        got some; the values do not depend on it.
        """
        with self.budget.training():
            return self._run(steps, rng)

    def _run(self, steps: int, rng: np.random.Generator) -> np.ndarray:
        state = self.state
        state.resync()
        program = state.program
        storage = program._storage
        gather = self.cols_ds is not None
        batch = self.batch
        g_buf, t_buf = state.bind_step_buffers(
            batch, self.all_grids.shape[1:], gather
        )
        # Parameters bind once: their storage slots hold the stable flat
        # views that the Adam update writes through.
        for nid, tensor in program._param_binds:
            storage[nid] = tensor.data
        if gather:
            state.cur_cols[0] = self.cols_ds
        serial = state.serial[gather]
        out_loss, out_rec, out_kl, out_cost = state.out_ids
        cdf = self.cdf
        all_grids, targets = self.all_grids, self.targets
        e_nid = state.e_nid
        losses = np.empty((steps, 4))
        flat_update = state.flat_update
        fill_pad = self.fill_pad
        pad_buf = state.pad_buf
        budget, plan = self.budget, self.plan
        lane_steps = 0

        done = 0
        chunk_cap = max(
            64, min(_MAX_CHUNK_STEPS, 4_194_304 // max(1, batch * self.noise_dim))
        )
        while done < steps:
            chunk = min(steps - done, chunk_cap)
            idx_chunk = np.empty((chunk, batch), dtype=np.intp)
            eps_chunk = np.empty((chunk, batch, self.noise_dim))
            for s in range(chunk):
                u = rng.random(batch)
                idx_chunk[s] = cdf.searchsorted(u, side="right")
                eps_chunk[s] = rng.standard_normal((batch, self.noise_dim))
            for s in range(chunk):
                idx = idx_chunk[s]
                np.take(all_grids, idx, axis=0, out=g_buf)
                np.take(targets, idx, axis=0, out=t_buf)
                storage[e_nid] = eps_chunk[s]
                if gather:
                    state.cur_idx[0] = idx
                else:
                    fill_pad(pad_buf, g_buf)
                helpers = budget.grant(plan.lanes) if plan is not None else []
                try:
                    forward, backward = (
                        (plan.forward, plan.backward) if helpers else serial
                    )
                    LanePlan.run(forward, helpers)
                    row = losses[done + s]
                    row[0] = storage[out_loss]
                    row[1] = storage[out_rec]
                    row[2] = storage[out_kl]
                    row[3] = storage[out_cost]
                    LanePlan.run(backward, helpers)
                finally:
                    budget.release(helpers)
                if helpers:
                    lane_steps += 1
                    self.lanes_used = max(self.lanes_used, len(helpers) + 1)
                flat_update()
            done += chunk
        self.state.step.stats.lane_steps += lane_steps
        self.state.step.stats.replays += steps
        if self.loop is not None:
            self.loop.segments_replayed += 1
        return losses
