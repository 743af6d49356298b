"""Trace-then-replay compiler for :mod:`repro.nn` training steps.

The eager tape re-dispatches every op through Python on every training
step even though the step's graph never changes shape.  This module
traces ONE step into the explicit :class:`~repro.nn.graph.Node` IR and
compiles it into a :class:`GraphProgram`:

* **Topological schedule** — the op list in recorded order, pruned to
  the ancestors of the requested outputs; the backward schedule
  replicates the eager engine's DFS order exactly, so gradient
  accumulation associates identically and results stay bit-for-bit
  equal to eager.
* **Liveness-analyzed buffer arena** — every intermediate gets a
  preallocated numpy buffer written with ``out=`` kernels; values not
  needed by any VJP are placed in a shared arena where buffers are
  reused across liveness-disjoint intermediates, and *all* buffers are
  reused across steps (zero allocations in the steady-state forward
  pass).
* **Fused elementwise chains** — single-consumer runs of same-shape
  elementwise ops whose intermediates are dead in backward (e.g. the
  VAE reparameterization's ``mul -> exp -> mul -> add``) collapse onto
  one scratch buffer and execute as a single in-place pass.
* **Fast kernels** — convolutions replay through matmul-based kernels
  with persistent im2col workspaces (the batched GEMM numpy's einsum
  performs internally, called directly), and the backward pass reuses
  the forward's unfolded patches instead of re-unfolding.
* **Shape-guarded replay** — programs are cached per input-shape
  signature; a new shape triggers a fresh trace, never a wrong replay.
* **Batch lanes** — batch-separable instructions also get a form that
  runs on a slice of the batch; a :class:`LanePlan` groups them into
  regions that helper threads from :mod:`repro.nn.lanes` share, while
  every reduction over the batch stays whole and in order, so a split
  replay is bitwise equal to the single-lane one (checked at build
  time by :meth:`GraphProgram.probe_lanes`).

**Equivalence contract**: a compiled step must be *numerically
equivalent* to the eager step.  The compiler enforces this mechanically:
at compile time the program runs once on the traced arrays and its
outputs and parameter gradients are compared against the eager engine's
(`verify`); any mismatch raises :class:`CompileUnsupported` and the
caller falls back to eager.  Traces that use closure-based ops
(``Tensor._make``) or mixed dtypes are likewise rejected up front.

The traced function must route **all per-step data through its declared
inputs** — any tensor it creates internally is captured as a trace-time
constant (that is what makes replay cheap, and the verify pass will not
catch a violation that only manifests on later batches).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .graph import OPS, Node, Trace
from .lanes import BUDGET, MAX_LANES, cap_blas_threads, share
from .optim import Optimizer, clip_grad_norm
from .tensor import Tensor, _unbroadcast

__all__ = [
    "CompileUnsupported",
    "CompileStats",
    "GraphProgram",
    "ProgramPlan",
    "CompiledTrainStep",
    "compile_train_step",
    "ir_verify_enabled",
    "profile_enabled",
]


def ir_verify_enabled() -> bool:
    """``REPRO_IR_VERIFY=1``: run the IR verifier on every compile.

    Like :func:`profile_enabled`, this is consulted at *compile* time
    only — steady-state replay never pays for verification.  Findings
    reject the program (``CompileUnsupported``), so training falls back
    to the always-correct eager tape instead of replaying a program the
    verifier could not prove safe.
    """
    return os.environ.get("REPRO_IR_VERIFY", "0").strip() not in ("", "0")


def profile_enabled() -> bool:
    """``REPRO_PROFILE=1``: per-kernel replay timings (see GraphProgram).

    Checked once per program *build*, not per replay, so flipping the
    variable mid-run only affects programs compiled afterwards.
    """
    return os.environ.get("REPRO_PROFILE", "0").strip() not in ("", "0")


def _profiled(instr: Callable, label: str, totals: Dict[str, float]) -> Callable:
    """Wrap one replay instruction with a cumulative perf_counter timer."""

    def run_profiled() -> None:
        start = time.perf_counter()
        instr()
        totals[label] = totals.get(label, 0.0) + (time.perf_counter() - start)

    return run_profiled


class CompileUnsupported(RuntimeError):
    """The traced step cannot be compiled (caller should run eager)."""


@dataclass
class CompileStats:
    """Counters one :class:`CompiledTrainStep` accumulates.

    ``traces`` counts compilations (one per new input-shape signature),
    ``replays`` counts steps served by a cached program, ``fallbacks``
    counts steps that ran eager because compilation was rejected,
    ``lane_steps`` / ``lane_rejects`` count split replays and lane
    counts whose split failed its bitwise probe.  The rest describe the
    most recently built program.
    """

    traces: int = 0
    replays: int = 0
    fallbacks: int = 0
    fused_chains: int = 0
    fused_ops: int = 0
    buffers: int = 0
    arena_slots: int = 0
    arena_reused: int = 0
    fast_kernels: int = 0
    nodes: int = 0
    lane_steps: int = 0
    lane_rejects: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ProgramPlan:
    """The structured scheduling/storage decisions of one program.

    :class:`GraphProgram` retains this alongside the closed-over replay
    instructions so the IR verifier (:mod:`repro.check.ir`) can prove
    the plan sound — def-before-use, no live-slot overwrite, backward
    topological order, fused-chain legality — without re-deriving it
    from the closures.  Everything here is plain data (ints, tuples,
    dicts keyed by node id); ``buffer_token`` maps each materialized
    alias root to the identity of its backing array, so two roots
    sharing storage share a token.  Tests mutate copies of this to
    inject IR bugs and assert the verifier catches them.
    """

    sched: List[int] = field(default_factory=list)
    grad_sched: List[int] = field(default_factory=list)
    kinds: Dict[int, str] = field(default_factory=dict)
    ops: Dict[int, str] = field(default_factory=dict)
    parents: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    shapes: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    requires_grad: Dict[int, bool] = field(default_factory=dict)
    view: Dict[int, bool] = field(default_factory=dict)
    elementwise: Dict[int, bool] = field(default_factory=dict)
    has_kernel: Dict[int, bool] = field(default_factory=dict)
    root: Dict[int, int] = field(default_factory=dict)
    buffer_token: Dict[int, int] = field(default_factory=dict)
    pinned_roots: set = field(default_factory=set)
    needed_val: set = field(default_factory=set)
    fused_links: List[Tuple[int, int]] = field(default_factory=list)
    outputs: Dict[str, int] = field(default_factory=dict)
    loss_id: int = -1

    def copy(self) -> "ProgramPlan":
        """A deep-enough copy for corruption-injection tests."""
        return ProgramPlan(
            sched=list(self.sched),
            grad_sched=list(self.grad_sched),
            kinds=dict(self.kinds),
            ops=dict(self.ops),
            parents=dict(self.parents),
            shapes=dict(self.shapes),
            requires_grad=dict(self.requires_grad),
            view=dict(self.view),
            elementwise=dict(self.elementwise),
            has_kernel=dict(self.has_kernel),
            root=dict(self.root),
            buffer_token=dict(self.buffer_token),
            pinned_roots=set(self.pinned_roots),
            needed_val=set(self.needed_val),
            fused_links=list(self.fused_links),
            outputs=dict(self.outputs),
            loss_id=self.loss_id,
        )


# ----------------------------------------------------------------------
# Fast convolution kernels (persistent workspaces, matmul-based)
# ----------------------------------------------------------------------
# Each kernel's work is written once, as ``lane(r)``: the computation on
# batch rows ``r`` (a slice), bound to views of the full-batch
# workspaces.  The single-lane kernel is the lane over every row.
# Per-sample results do not depend on which rows run together, so a
# split replay is bitwise equal to it; whatever reduces over the batch
# lives in a separate serial method.

#: Every row of the batch (unlike ``slice(None)`` it also indexes 0-d
#: arrays, which single-lane gradient sites meet).
_ALL = Ellipsis


def _rows(r, batch: int) -> int:
    if r is _ALL:
        return batch
    lo, hi, _ = r.indices(batch)
    return hi - lo


class _Col2Im:
    """Adjoint of im2col as one flat ``bincount`` scatter-add.

    The destination index of every patch element is static, so it is
    precomputed once; each call is a single vectorized scatter-sum —
    2-5x faster than the reference loop of strided adds (whose
    per-``(u, v)`` numpy dispatch dominates at CNN-VAE sizes) and equal
    to it up to summation order.
    """

    def __init__(self, cols6: np.ndarray, padded_shape, stride: int) -> None:
        batch, channels, kh, kw, oh, ow = cols6.shape
        hp, wp = padded_shape[2], padded_shape[3]
        self.shape = (batch, channels, hp, wp)
        plane = hp * wp
        per_patch = np.empty((kh, kw, oh, ow), dtype=np.intp)
        for u in range(kh):
            for v in range(kw):
                rows = u + stride * np.arange(oh)
                cols_ = v + stride * np.arange(ow)
                per_patch[u, v] = rows[:, None] * wp + cols_[None, :]
        offsets = (np.arange(batch * channels) * plane)[:, None]
        self.index = (per_patch.reshape(1, -1) + offsets).ravel()
        self.cols6 = cols6
        self._all_rows = self.lane(_ALL)

    def __call__(self) -> np.ndarray:
        return self._all_rows()

    def lane(self, r: slice) -> Callable[[], np.ndarray]:
        """Fold rows ``r`` of the persistent workspace.  A bin only sums
        its own sample's patch elements, in the same order whatever the
        rows, so lanes are bitwise equal to the full fold."""
        batch = self.shape[0]
        rows = _rows(r, batch)
        index = self.index[: rows * (self.index.size // batch)]
        weights = self.cols6[r].reshape(-1)  # a view: cols6 is contiguous
        shape = (rows,) + self.shape[1:]
        size = int(np.prod(shape))

        def fold_rows() -> np.ndarray:
            return np.bincount(index, weights=weights, minlength=size).reshape(shape)

        return fold_rows


class _Im2Col:
    """Persistent unfold workspace: x (B,C,H,W) -> cols (B, C*kh*kw, L).

    The strided window view into the (persistent) padded buffer is built
    once; each call is one interior copy plus one gather copy.
    """

    def __init__(self, x_shape, kh, kw, stride, padding):
        batch, channels, height, width = x_shape
        self.stride, self.padding = stride, padding
        hp, wp = height + 2 * padding, width + 2 * padding
        self.oh = (hp - kh) // stride + 1
        self.ow = (wp - kw) // stride + 1
        self.pad_buf = np.zeros((batch, channels, hp, wp)) if padding else None
        self.cols = np.empty((batch, channels, kh, kw, self.oh, self.ow))
        self.cols_mat = self.cols.reshape(batch, channels * kh * kw, self.oh * self.ow)
        self.kh, self.kw = kh, kw
        self._window_src = None
        self._windows = None
        self._interior = None
        if padding:
            self._interior = self.pad_buf[:, :, padding:-padding, padding:-padding]
            self._windows = self._windows_of(self.pad_buf)

    def _windows_of(self, xp: np.ndarray) -> np.ndarray:
        windows = sliding_window_view(xp, (self.kh, self.kw), axis=(2, 3))
        windows = windows[:, :, :: self.stride, :: self.stride, :, :]
        return windows.transpose(0, 1, 4, 5, 2, 3)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.padding:
            np.copyto(self._interior, x)
        elif x is not self._window_src:
            # Unpadded inputs are caller-owned arrays; rebind lazily (the
            # compiled executor feeds the same buffer every step).
            self._windows = self._windows_of(x)
            self._window_src = x
        np.copyto(self.cols, self._windows)
        return self.cols_mat

    def lane(self, r: slice) -> Callable[[np.ndarray], np.ndarray]:
        """Unfold rows ``r``: ``x`` holds just those rows."""
        cols, cols_mat = self.cols[r], self.cols_mat[r]
        if self.padding:
            interior, windows = self._interior[r], self._windows[r]

            def unfold_rows(x: np.ndarray) -> np.ndarray:
                np.copyto(interior, x)
                np.copyto(cols, windows)
                return cols_mat

        else:

            def unfold_rows(x: np.ndarray) -> np.ndarray:
                np.copyto(cols, self._windows_of(x))
                return cols_mat

        return unfold_rows


class _BatchGemmT:
    """``sum_b A[b] @ B[b].T`` — the weight-gradient contraction
    (``bol,bkl->ok`` / ``bil,bkl->ik``).

    Two static strategies, chosen by shape at build time (deterministic,
    so replays across processes stay identical):

    * long contraction (L >= 32): batched matmul into a small (B, R, C)
      workspace, then a batch sum — avoids transposing the large cols
      operand entirely;
    * short contraction: transpose both operands into contiguous
      workspaces and issue one 2-D GEMM (what einsum does internally).

    Both differ from einsum only in summation association (~1 ulp),
    which the program-level verify pass bounds.  ``lane`` does the
    batch-separable first half (products or transposes) for some rows;
    :meth:`reduce` the batch reduction.
    """

    def __init__(self, a_shape, b_shape):
        batch, rows, length = a_shape
        _, cols, _ = b_shape
        self.out = np.empty((rows, cols))
        self.batched = length >= 32
        #: rough cost of :meth:`reduce` (elements summed, or MACs / 4)
        self.reduce_work = rows * cols * batch * (1 if self.batched else length // 4)
        if self.batched:
            self.prod = np.empty((batch, rows, cols))
        else:
            self.a_t = np.empty((rows, batch, length))
            self.a_2d = self.a_t.reshape(rows, batch * length)
            self.b_t = np.empty((cols, batch, length))
            self.b_2d = self.b_t.reshape(cols, batch * length)

    def lane(self, r: slice) -> Callable[[np.ndarray, np.ndarray], None]:
        if self.batched:
            prod = self.prod[r]

            def products(a: np.ndarray, b: np.ndarray) -> None:
                np.matmul(a, b.transpose(0, 2, 1), out=prod)

            return products
        a_t, b_t = self.a_t[:, r], self.b_t[:, r]

        def transposes(a: np.ndarray, b: np.ndarray) -> None:
            np.copyto(a_t, a.transpose(1, 0, 2))
            np.copyto(b_t, b.transpose(1, 0, 2))

        return transposes

    def reduce(self) -> np.ndarray:
        if self.batched:
            return np.sum(self.prod, axis=0, out=self.out)
        return np.matmul(self.a_2d, self.b_2d.T, out=self.out)


class _Conv2dForward:
    """conv2d replay kernel: im2col once + broadcast matmul into ``out``."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.unfold = _Im2Col(x_shape, w_shape[2], w_shape[3], stride, padding)
        batch = x_shape[0]
        self.out_mat = out_buf.reshape(batch, w_shape[0], -1)
        self.w_rows = w_shape[0]
        self.work = self.unfold.cols.size + out_buf.size

    def lane(self, r: slice) -> Callable:
        # All rows keep the unfold's lazy window binding for unpadded
        # inputs.
        unfold = self.unfold if r is _ALL else self.unfold.lane(r)
        out = self.out_mat[r]
        w_rows = self.w_rows

        def conv_rows(x: np.ndarray, w: np.ndarray) -> None:
            np.matmul(w.reshape(w_rows, -1), unfold(x), out=out)

        return conv_rows


class _Conv2dBackward:
    """conv2d VJP reusing the forward's unfolded patches."""

    def __init__(self, forward: _Conv2dForward, node: Node, x_shape, w_shape, need_dx):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        self.forward = forward
        self.w_shape = w_shape
        self.x_shape = x_shape
        self.need_dx = need_dx
        batch = x_shape[0]
        length = forward.unfold.oh * forward.unfold.ow
        g_shape = (batch, w_shape[0], length)
        self.g_shape = g_shape
        self.gemm_dw = _BatchGemmT(g_shape, forward.unfold.cols_mat.shape)
        self.work = forward.unfold.cols.size * (2 if need_dx else 1)
        # The flip-kernel correlation needs a non-negative flipped
        # padding (kh - 1 - padding); otherwise fall back to col2im.
        self.dx_as_conv = need_dx and stride == 1 and w_shape[2] - 1 - padding >= 0
        if self.dx_as_conv:
            # Stride-1 dx is a correlation of g with the spatially
            # flipped, channel-swapped kernel: unfold the (small) output
            # gradient once and issue one matmul — no scatter-add at
            # all.  (Verified ~1 ulp from the reference col2im path.)
            kh, kw = w_shape[2], w_shape[3]
            g_shape4 = (batch, w_shape[0], forward.unfold.oh, forward.unfold.ow)
            self.dx_unfold = _Im2Col(g_shape4, kh, kw, 1, kh - 1 - padding)
            self.w_flip = np.empty((x_shape[1], w_shape[0] * kh * kw))
            self.w_flip_4d = self.w_flip.reshape(
                x_shape[1], w_shape[0], kh, kw
            )
            self.dx_buf = np.empty((batch, x_shape[1], x_shape[2] * x_shape[3]))
        elif need_dx:
            self.pad = padding
            self.dcols = np.empty_like(forward.unfold.cols)
            self.dcols_mat = self.dcols.reshape(forward.unfold.cols_mat.shape)
            pad_shape = (
                batch,
                x_shape[1],
                x_shape[2] + 2 * padding,
                x_shape[3] + 2 * padding,
            )
            self.fold = _Col2Im(self.dcols, pad_shape, stride)

    def prepare(self, w) -> None:
        """The flipped kernel the stride-1 dx correlation reads (serial,
        before any lane)."""
        if self.dx_as_conv:
            np.copyto(self.w_flip_4d, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))

    def lane(self, r: slice) -> Callable:
        """dW's batch-separable half and dx of rows ``r``; returns the dx
        rows (or None)."""
        rows = _rows(r, self.x_shape[0])
        g_shape = (rows,) + self.g_shape[1:]
        x_shape = (rows,) + self.x_shape[1:]
        dw_rows = self.gemm_dw.lane(r)
        cols_mat = self.forward.unfold.cols_mat[r]
        w_shape = self.w_shape
        if self.dx_as_conv:
            dx_unfold = self.dx_unfold.lane(r)
            dx_buf, w_flip = self.dx_buf[r], self.w_flip
        elif self.need_dx:
            dcols_mat, fold, pad = self.dcols_mat[r], self.fold.lane(r), self.pad

        def grads_rows(g, x, w):
            g_mat = g.reshape(g_shape)
            dw_rows(g_mat, cols_mat)
            if self.dx_as_conv:
                np.matmul(w_flip, dx_unfold(g), out=dx_buf)
                return dx_buf.reshape(x_shape)
            if self.need_dx:
                np.matmul(w.reshape(w_shape[0], -1).T, g_mat, out=dcols_mat)
                folded = fold()
                return folded[:, :, pad:-pad, pad:-pad] if pad else folded
            return None

        return grads_rows

    def weight_grad(self) -> np.ndarray:
        """dW once every row ran: the batch sum (or the one GEMM)."""
        return self.gemm_dw.reduce().reshape(self.w_shape)


class _ConvT2dForward:
    """conv_transpose2d replay kernel: matmul + persistent col2im."""

    def __init__(self, node: Node, x_shape, w_shape, out_buf):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        _, out_ch, kh, kw = w_shape
        self.padding = padding
        self.x_mat_shape = (batch, in_ch, height * width)
        self.cols = np.empty((batch, out_ch, kh, kw, height, width))
        self.cols_mat = self.cols.reshape(batch, out_ch * kh * kw, height * width)
        out_h, out_w = out_buf.shape[2], out_buf.shape[3]
        pad_shape = (batch, out_ch, out_h + 2 * padding, out_w + 2 * padding)
        self.fold = _Col2Im(self.cols, pad_shape, stride)
        self.out_buf = out_buf
        self.in_ch = in_ch
        self.work = self.cols.size + out_buf.size

    def lane(self, r: slice) -> Callable:
        x_mat_shape = (_rows(r, self.x_mat_shape[0]),) + self.x_mat_shape[1:]
        cols_mat, fold, out = self.cols_mat[r], self.fold.lane(r), self.out_buf[r]
        in_ch, pad = self.in_ch, self.padding

        def conv_t_rows(x: np.ndarray, w: np.ndarray) -> None:
            np.matmul(w.reshape(in_ch, -1).T, x.reshape(x_mat_shape), out=cols_mat)
            folded = fold()
            np.copyto(out, folded[:, :, pad:-pad, pad:-pad] if pad else folded)

        return conv_t_rows


class _ConvT2dBackward:
    """conv_transpose2d VJP: unfold the output gradient, two matmuls."""

    def __init__(self, node: Node, x_shape, w_shape, g_shape, need_dx):
        stride, padding = node.attrs["stride"], node.attrs["padding"]
        batch, in_ch, height, width = x_shape
        kh, kw = w_shape[2], w_shape[3]
        self.unfold = _Im2Col(g_shape, kh, kw, stride, padding)
        self.x_shape, self.w_shape = x_shape, w_shape
        # The output is (H - 1) * s - 2p + k wide, so unfolding it with
        # the same k, s, p yields exactly H x W windows: the unfolded
        # gradient needs no crop (the reference kernel's crop is whole).
        self.gcols_mat = self.unfold.cols_mat
        self.in_ch = in_ch
        self.x_mat_shape = (batch, in_ch, height * width)
        self.gemm_dw = _BatchGemmT(self.x_mat_shape, self.gcols_mat.shape)
        self.need_dx = need_dx
        self.work = self.unfold.cols.size * (2 if need_dx else 1)
        if need_dx:
            self.dx = np.empty(self.x_mat_shape)

    def lane(self, r: slice) -> Callable:
        """dW's batch-separable half and dx of rows ``r``; returns the dx
        rows (or None)."""
        rows = _rows(r, self.x_shape[0])
        x_mat_shape = (rows,) + self.x_mat_shape[1:]
        x_shape = (rows,) + self.x_shape[1:]
        unfold = self.unfold.lane(r)
        gcols_mat = self.gcols_mat[r]
        dw_rows = self.gemm_dw.lane(r)
        dx = self.dx[r] if self.need_dx else None
        in_ch = self.in_ch

        def grads_rows(g, x, w):
            unfold(g)
            dw_rows(x.reshape(x_mat_shape), gcols_mat)
            if dx is None:
                return None
            np.matmul(w.reshape(in_ch, -1), gcols_mat, out=dx)
            return dx.reshape(x_shape)

        return grads_rows

    def weight_grad(self) -> np.ndarray:
        """dW once every row ran: the batch sum (or the one GEMM)."""
        return self.gemm_dw.reduce().reshape(self.w_shape)


# ----------------------------------------------------------------------
# Batch lanes
# ----------------------------------------------------------------------
#: Regions whose lanes share less work than this (in array elements)
#: run unsplit: below it the handshake with the helper costs more than
#: the second core saves.  Measured on a 2-CPU host (three elementwise
#: ops per region, two lanes vs one): 64K elements ran at 0.85-0.90x,
#: 128K at 1.36-1.66x.  The VAE step's regions are either above 1.3M or
#: below 14K elements, so its plan does not depend on the exact value.
_MIN_REGION_WORK = 1 << 17


@dataclass
class _LaneSpec:
    """How one instruction runs inside a lane region.

    ``rows(r)`` builds the instruction's work on batch rows ``r`` (a
    slice); ``before`` runs once before the lanes start (views, weight
    flips: nothing that reads batch rows), ``after`` once after every
    lane finished (batch reductions).  ``work`` sizes the region and
    ``after_work`` the ``after`` step.  ``touches`` names the nodes whose
    gradient buffers ``after`` reads or writes among other ``after``
    steps: steps sharing a node keep their order, others may run on
    different lanes.
    """

    rows: Optional[Callable[[slice], Callable[[], None]]] = None
    before: Optional[Callable[[], None]] = None
    after: Optional[Callable[[], None]] = None
    work: int = 0
    after_work: int = 0
    touches: Tuple[int, ...] = ()


def _lane_bounds(batch: int, lanes: int) -> List[Tuple[int, int]]:
    return [(batch * i // lanes, batch * (i + 1) // lanes) for i in range(lanes)]


def _gemm_rows_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Is ``a @ b`` on row slices bitwise equal to the whole product?

    BLAS may pick its GEMM kernel by the row count (seen for a short
    transposed right operand), which changes the summation order.
    Checked for every lane count on example operands; a kernel choice,
    not the values, decides the outcome.
    """
    batch = a.shape[0]
    full = np.matmul(a, b)
    for lanes in range(2, min(MAX_LANES, batch) + 1):
        for lo, hi in _lane_bounds(batch, lanes):
            if not np.array_equal(np.matmul(a[lo:hi], b), full[lo:hi]):
                return False
    return True


def _chain(fns: List[Callable[[], None]]) -> Callable[[], None]:
    def run_lane() -> None:
        for fn in fns:
            fn()

    return run_lane


class _Region:
    """Consecutive lane-splittable instructions behind one barrier.

    ``run(helpers)`` runs the ``before`` steps, then shares the batch
    chunks between the caller and the helpers (:func:`repro.nn.lanes.share`),
    then the ``after`` steps the same way: steps that touch a common
    gradient buffer form one task in instruction order, largest task
    first.  With no helpers everything runs on the calling thread, in
    order (the build-time probe does this; values are the same).
    """

    def __init__(self, specs: List[_LaneSpec], bounds: List[Tuple[int, int]]) -> None:
        self.before = [s.before for s in specs if s.before is not None]
        self.chunks = [
            _chain([s.rows(slice(lo, hi)) for s in specs if s.rows is not None])
            for lo, hi in bounds
        ]
        self.after = self._groups([s for s in specs if s.after is not None])

    @staticmethod
    def _groups(specs: List[_LaneSpec]) -> List[Callable[[], None]]:
        # Union the steps that share a node, largest group first.
        group_of: Dict[int, int] = {}
        groups: List[List[int]] = []
        for i, spec in enumerate(specs):
            joined = sorted({group_of[n] for n in spec.touches if n in group_of})
            if joined:
                home = joined[0]
                for other in joined[1:]:
                    groups[home].extend(groups[other])
                    for j in groups[other]:
                        for n in specs[j].touches:
                            group_of[n] = home
                    groups[other] = []
            else:
                home = len(groups)
                groups.append([])
            groups[home].append(i)
            for n in spec.touches:
                group_of[n] = home
        groups = sorted(
            (g for g in groups if g), key=lambda g: -sum(specs[i].after_work for i in g)
        )
        return [_chain([specs[i].after for i in sorted(g)]) for g in groups]

    def run(self, helpers) -> None:
        for fn in self.before:
            fn()
        share(self.chunks, helpers)
        share(self.after, helpers)


class LanePlan:
    """A program's forward and backward schedules regrouped for lanes.

    Each schedule is a list of ``(instr, region)`` steps: a serial
    instruction (``region`` None) or a :class:`_Region`.  Regions too
    small to pay for their barrier keep their original instructions.
    """

    def __init__(self, forward, backward, batch: int, lanes: int) -> None:
        bounds = _lane_bounds(batch, lanes)
        self.lanes = lanes
        self.forward = self._group(forward, bounds)
        self.backward = self._group(backward, bounds)

    @staticmethod
    def _group(steps, bounds):
        grouped: List[Tuple[Optional[Callable], Optional[_Region]]] = []
        pending: List[Tuple[Callable, _LaneSpec]] = []

        def flush() -> None:
            specs = [spec for _, spec in pending]
            if any(s.rows is not None for s in specs) and sum(
                s.work for s in specs
            ) >= _MIN_REGION_WORK:
                grouped.append((None, _Region(specs, bounds)))
            else:
                grouped.extend((instr, None) for instr, _ in pending)
            pending.clear()

        for instr, spec in steps:
            if spec is None:
                flush()
                grouped.append((instr, None))
            else:
                pending.append((instr, spec))
        flush()
        return grouped

    @staticmethod
    def serial(instrs: Sequence[Callable[[], None]]) -> List[Tuple[Callable, None]]:
        """Plain instructions as single-lane steps for :meth:`run`."""
        return [(instr, None) for instr in instrs]

    @staticmethod
    def run(steps, helpers) -> None:
        for instr, region in steps:
            if region is None:
                instr()
            else:
                region.run(helpers)


# ----------------------------------------------------------------------
# The compiled program
# ----------------------------------------------------------------------
class GraphProgram:
    """One traced step, scheduled onto preallocated storage.

    Built from a :class:`~repro.nn.graph.Trace` plus the ids of the loss
    node and the named output nodes.  ``run(inputs)`` executes the
    forward schedule, then the backward schedule (accumulating into the
    bound parameters' ``.grad`` buffers), and returns the output arrays.
    The caller owns gradient clipping and the optimizer step.
    """

    def __init__(
        self,
        trace: Trace,
        outputs: Dict[str, int],
        loss_id: int,
        params: Sequence[Tensor],
        stats: Optional[CompileStats] = None,
    ) -> None:
        self.stats = stats if stats is not None else CompileStats()
        self._trace = trace
        self._outputs = dict(outputs)
        self._loss_id = loss_id
        self._params = list(params)
        nodes = trace.nodes
        if any(n.dtype != np.float64 for n in nodes):
            raise CompileUnsupported("compiled training supports float64 graphs only")

        # -- 1. prune to ancestors of the outputs ----------------------
        keep = set()
        stack = list(self._outputs.values())
        while stack:
            nid = stack.pop()
            if nid in keep:
                continue
            keep.add(nid)
            stack.extend(nodes[nid].parents)
        self._keep = keep
        sched = [n.id for n in nodes if n.id in keep and n.kind == "op"]
        pos = {nid: i for i, nid in enumerate(sched)}

        # -- 2. backward schedule: replicate the eager DFS exactly -----
        order: List[int] = []
        visited = set()
        dfs: List[Tuple[int, bool]] = [(loss_id, False)]
        while dfs:
            nid, processed = dfs.pop()
            if processed:
                order.append(nid)
                continue
            if nid in visited:
                continue
            visited.add(nid)
            dfs.append((nid, True))
            node = nodes[nid]
            if node.kind == "op" and node.requires_grad:
                for parent in node.parents:
                    if parent not in visited:
                        dfs.append((parent, False))
        received = {loss_id}
        grad_sched: List[int] = []
        for nid in reversed(order):
            if nid not in received:
                continue
            node = nodes[nid]
            if node.kind == "op" and node.requires_grad:
                grad_sched.append(nid)
                for parent in node.parents:
                    if nodes[parent].requires_grad:
                        received.add(parent)
        self._grad_sched = grad_sched

        # -- 3. which values does the backward pass read? --------------
        # Two compiled-executor refinements over the registry metadata:
        # relu backward multiplies by a boolean mask cached at forward
        # time (so its input need not survive), and the conv2d VJP
        # reuses the forward's unfolded patches (so only the weight — a
        # param leaf — is read).  Both keep large activations out of the
        # pinned set, which is what lets whole conv->bias->relu blocks
        # fuse onto scratch buffers.
        self._relu_masks: Dict[int, np.ndarray] = {}
        needed_val = set(self._outputs.values())
        for nid in grad_sched:
            node = nodes[nid]
            op = OPS[node.op]
            if node.op == "relu":
                self._relu_masks[nid] = np.empty(node.shape, dtype=bool)
                continue
            if node.op == "conv2d":
                needed_val.add(node.parents[1])
                continue
            if op.needs_out:
                needed_val.add(nid)
            if op.needs_inputs:
                needed_val.update(node.parents)

        # -- 4. alias roots (views share their base's storage) ---------
        root: Dict[int, int] = {}
        for nid in sorted(keep):
            node = nodes[nid]
            if node.kind == "op" and OPS[node.op].view:
                root[nid] = root[node.parents[0]]
            else:
                root[nid] = nid
        consumers: Dict[int, List[int]] = {nid: [] for nid in keep}
        for nid in sched:
            for parent in nodes[nid].parents:
                consumers[parent].append(nid)
        last_use: Dict[int, int] = {}
        for nid in sched:
            last_use[root[nid]] = max(last_use.get(root[nid], -1), pos[nid])
            for parent in nodes[nid].parents:
                last_use[root[parent]] = max(last_use.get(root[parent], -1), pos[nid])
        pinned_roots = {root[nid] for nid in needed_val}

        # -- 5. fused elementwise chains -------------------------------
        # j -> k fuses when j is elementwise with an out= kernel, k is
        # its only consumer, shapes match, and j's value is dead in
        # backward: then j writes into a chain scratch that k reads and
        # overwrites in place — the chain runs as one buffer-resident
        # pass with no intermediate materialization.
        fuse_next: Dict[int, int] = {}
        fused_parent_of: Dict[int, int] = {}
        for nid in sched:
            node = nodes[nid]
            op = OPS[node.op]
            # A chain *start* only needs an out=-writing kernel (convs
            # and matmuls start chains into their bias adds); members
            # after the start must be elementwise for in-place safety.
            startable = op.kernel is not None or node.op in (
                "conv2d",
                "conv_transpose2d",
            )
            if not startable or op.view:
                continue
            if root[nid] in pinned_roots or nid in self._outputs.values():
                continue
            cons = consumers[nid]
            if len(cons) != 1:
                continue
            consumer = cons[0]
            cop = OPS[nodes[consumer].op]
            if not (cop.elementwise and cop.kernel is not None):
                continue
            if nodes[consumer].shape != node.shape:
                continue
            if consumer in fused_parent_of:
                continue  # one in-place operand per consumer
            fuse_next[nid] = consumer
            fused_parent_of[consumer] = nid
        # Group the links into chains sharing one scratch each.
        scratch_of: Dict[int, np.ndarray] = {}
        for nid in sched:
            if nid in fuse_next and nid not in fused_parent_of:
                scratch = np.empty(nodes[nid].shape)
                chain = [nid]
                walk = nid
                while walk in fuse_next and fuse_next[walk] in fuse_next:
                    walk = fuse_next[walk]
                    chain.append(walk)
                for member in chain:
                    scratch_of[member] = scratch
                self.stats.fused_chains += 1
                self.stats.fused_ops += len(chain) + 1  # + the chain head
        fused_intermediates = set(scratch_of)

        # -- 6. storage: dedicated / arena / scratch -------------------
        buffers: Dict[int, np.ndarray] = {}
        free_slots: Dict[Tuple[Tuple[int, ...], str], List[Tuple[int, np.ndarray]]] = {}
        for nid in sched:
            node = nodes[nid]
            if OPS[node.op].view or root[nid] != nid:
                continue
            if nid in fused_intermediates:
                buffers[nid] = scratch_of[nid]
                continue
            if nid in pinned_roots:
                buffers[nid] = np.empty(node.shape)
                self.stats.buffers += 1
                continue
            key = (node.shape, node.dtype.str)
            pool = free_slots.setdefault(key, [])
            taken = None
            for i, (free_at, buf) in enumerate(pool):
                if free_at <= pos[nid]:
                    taken = pool.pop(i)[1]
                    self.stats.arena_reused += 1
                    break
            if taken is None:
                taken = np.empty(node.shape)
                self.stats.arena_slots += 1
            buffers[nid] = taken
            pool.append((last_use[root[nid]] + 1, taken))
        self.stats.nodes = len(sched)

        # Retain the scheduling/storage decisions as plain data so the
        # IR verifier (repro.check.ir) can prove them sound without
        # reverse-engineering the replay closures.
        self.plan = ProgramPlan(
            sched=list(sched),
            grad_sched=list(grad_sched),
            kinds={nid: nodes[nid].kind for nid in keep},
            ops={
                nid: nodes[nid].op
                for nid in keep
                if nodes[nid].kind == "op"
            },
            parents={nid: tuple(nodes[nid].parents) for nid in keep},
            shapes={nid: nodes[nid].shape for nid in keep},
            requires_grad={nid: nodes[nid].requires_grad for nid in keep},
            view={
                nid: bool(OPS[nodes[nid].op].view)
                for nid in keep
                if nodes[nid].kind == "op"
            },
            elementwise={
                nid: bool(OPS[nodes[nid].op].elementwise)
                for nid in keep
                if nodes[nid].kind == "op"
            },
            has_kernel={
                nid: OPS[nodes[nid].op].kernel is not None
                for nid in keep
                if nodes[nid].kind == "op"
            },
            root=dict(root),
            buffer_token={nid: id(buf) for nid, buf in buffers.items()},
            pinned_roots=set(pinned_roots),
            needed_val=set(needed_val),
            fused_links=sorted(fuse_next.items()),
            outputs=dict(self._outputs),
            loss_id=loss_id,
        )

        # -- 7. forward instructions -----------------------------------
        self._storage: List[Optional[np.ndarray]] = [None] * len(nodes)
        self._input_binds: List[Tuple[int, int]] = []  # (node id, input position)
        self._param_binds: List[Tuple[int, Tensor]] = []
        for nid, position in trace.input_nodes.items():
            if nid in keep:
                self._input_binds.append((nid, position))
        for nid, tensor in trace.param_nodes.items():
            if nid in keep:
                self._param_binds.append((nid, tensor))
        for nid, value in trace.constants.items():
            if nid in keep:
                self._storage[nid] = value

        # Batch-major values: row b depends only on row b of the inputs.
        # Instructions producing them can run on batch slices (lanes).
        leads = {nodes[nid].shape[:1] for nid, _ in self._input_binds}
        self._batch = leads.pop()[0] if len(leads) == 1 and () not in leads else 0
        self._bm: Dict[int, bool] = {nid: False for nid in keep}
        if self._batch:
            for nid, _ in self._input_binds:
                self._bm[nid] = True
            for nid in sched:
                self._bm[nid] = self._row_separable(nodes[nid])

        self._forward: List[Callable] = []
        self._fwd_specs: List[Optional[_LaneSpec]] = []
        self._fwd_kernels: Dict[int, Callable] = {}
        self._bwd_kernels: Dict[int, Callable] = {}
        for nid in sched:
            node = nodes[nid]
            instr, spec = self._build_forward_instr(node, OPS[node.op], buffers.get(nid))
            self._forward.append(instr)
            self._fwd_specs.append(spec)

        # -- 8. backward instructions ----------------------------------
        grads: Dict[int, np.ndarray] = {}
        for nid in received:
            if nid == loss_id:
                grads[nid] = np.ones(nodes[nid].shape)
            else:
                grads[nid] = np.empty(nodes[nid].shape)
        self._grads = grads
        self._param_grad_binds = [
            (tensor, grads[nid])
            for nid, tensor in trace.param_nodes.items()
            if nid in received
        ]
        first_write = set(received) - {loss_id}
        self._backward: List[Callable] = []
        self._bwd_specs: List[Optional[_LaneSpec]] = []
        self._bwd_sites: Dict[int, List[Tuple]] = {}
        self._bwd_conv_specs: Dict[int, _LaneSpec] = {}
        for nid in grad_sched:
            node = nodes[nid]
            sites = []
            for slot, parent in enumerate(node.parents):
                if parent not in received:
                    continue
                sites.append(
                    (slot, parent, parent in first_write, nodes[parent].shape)
                )
                first_write.discard(parent)
            instr = self._build_backward_instr(node, sites)
            self._backward.append(instr)
            self._bwd_specs.append(self._backward_lane_spec(node, sites, instr))
        #: accepted lane plans by lane count, and why the others were not
        self._lane_plans: Dict[int, LanePlan] = {}
        self.lane_rejects: Dict[int, str] = {}

        # -- 9. optional per-kernel profiling (REPRO_PROFILE=1) --------
        # Cumulative replay seconds per op label; fused-chain members
        # still run one instruction each (writing into shared scratch),
        # so per-node labels attribute fused work to its actual kernels.
        self.kernel_seconds: Dict[str, float] = {}
        if profile_enabled():
            # Per-kernel timings describe the single-lane schedule.
            self._fwd_specs = self._bwd_specs = None
            totals = self.kernel_seconds
            self._forward = [
                _profiled(instr, "fwd:" + nodes[nid].op, totals)
                for instr, nid in zip(self._forward, sched)
            ]
            self._backward = [
                _profiled(instr, "bwd:" + nodes[nid].op, totals)
                for instr, nid in zip(self._backward, grad_sched)
            ]
        self._serial = (LanePlan.serial(self._forward), LanePlan.serial(self._backward))

    # ------------------------------------------------------------------
    def _build_forward_instr(
        self, node: Node, op, buf: Optional[np.ndarray]
    ) -> Tuple[Callable, Optional[_LaneSpec]]:
        """The node's forward instruction and its lane form (None when
        it cannot run in lanes).

        An instruction that computes values is its rows form over every
        row, ``rows(_ALL)``: split and single-lane replays run the same
        kernels.
        """
        storage = self._storage
        parents = node.parents
        attrs = node.attrs
        nid = node.id
        if op.view or buf is None:
            forward = op.forward

            def run_view() -> None:
                storage[nid] = forward(
                    tuple(storage[p] for p in parents), attrs
                )

            # A view computes no values: it can run before the lanes.
            pure = op.view and self._pure_view(node)
            return run_view, (_LaneSpec(before=run_view) if pure else None)
        storage[nid] = buf
        read = [self._reader(p) for p in parents]
        fast = self._build_fast_kernel(node, buf)
        mask = self._relu_masks.get(nid)
        if fast is not None:
            self.stats.fast_kernels += 1
            self._fwd_kernels[nid] = fast
            work = fast.work

            def rows(r):
                lane = fast.lane(r)
                x, w = read
                return lambda: lane(x(r), w(r))

        elif mask is not None:
            # Cache the sign mask for the backward pass while computing
            # x * (x > 0) — identical values, and the input no longer
            # needs to outlive the forward pass.
            work = buf.size

            def rows(r):
                m, out = mask[r], buf[r]

                def run_relu() -> None:
                    x = read[0](r)
                    np.greater(x, 0, out=m)
                    np.multiply(x, m, out=out)

                return run_relu

        elif op.kernel is not None:
            kernel = op.kernel
            work = buf.size

            def rows(r):
                out = buf[r]
                return lambda: kernel(tuple(f(r) for f in read), attrs, out)

        else:
            forward = op.forward
            work = buf.size

            def rows(r):
                out = buf[r]
                return lambda: np.copyto(out, forward(tuple(f(r) for f in read), attrs))

        spec = _LaneSpec(rows=rows, work=work) if self._splits(node) else None
        return rows(_ALL), spec

    def _build_fast_kernel(self, node: Node, buf: np.ndarray) -> Optional[Callable]:
        """Specialized conv kernels (and their VJPs) with workspaces."""
        if node.op not in ("conv2d", "conv_transpose2d"):
            return None
        nodes = self._trace.nodes
        x_shape = nodes[node.parents[0]].shape
        w_shape = nodes[node.parents[1]].shape
        need_dx = nodes[node.parents[0]].requires_grad
        if node.op == "conv2d":
            forward = _Conv2dForward(node, x_shape, w_shape, buf)
            if node.id in set(self._grad_sched):
                self._bwd_kernels[node.id] = _Conv2dBackward(
                    forward, node, x_shape, w_shape, need_dx
                )
        else:
            forward = _ConvT2dForward(node, x_shape, w_shape, buf)
            if node.id in set(self._grad_sched):
                self._bwd_kernels[node.id] = _ConvT2dBackward(
                    node, x_shape, w_shape, node.shape, need_dx
                )
        return forward

    # -- specialized backward sites ------------------------------------
    # For the hot ops, the per-parent gradient is computed by ufuncs
    # writing straight into the parent's grad buffer (first write) or a
    # persistent scratch (accumulation) — zero allocations per step.
    # Each maker returns ``compute_into(out_buffer, rows)`` or None, where
    # ``rows`` selects the batch rows (``_ALL`` outside lanes); the
    # formulas match the registry VJPs operation-for-operation so the
    # values stay identical to eager.
    @staticmethod
    def _reduce_maker(g, pshape, negate: bool) -> Optional[Callable]:
        """A single-``np.sum`` form of ``_unbroadcast`` into ``out``.

        Only the single-stage cases are handled (leading broadcast axes
        *or* kept-1 axes, not both); they cover every bias gradient in
        practice.  ``sum`` then ``negate`` is bit-identical to negating
        first — float negation is exact.  Reductions never run in lanes.
        """
        gshape = g.shape
        extra = len(gshape) - len(pshape)
        lead = tuple(range(extra))
        axes = tuple(
            i for i, s in enumerate(pshape) if s == 1 and gshape[extra + i] != 1
        )
        if extra and not axes:
            def reduce_lead(o, r):
                np.add.reduce(g, axis=lead, out=o)
                if negate:
                    np.negative(o, out=o)

            return reduce_lead
        if axes and not extra:
            def reduce_keep(o, r):
                np.add.reduce(g, axis=axes, keepdims=True, out=o)
                if negate:
                    np.negative(o, out=o)

            return reduce_keep
        return None

    @staticmethod
    def _is_basic_index(idx) -> bool:
        if isinstance(idx, tuple):
            return all(GraphProgram._is_basic_index(i) for i in idx)
        return isinstance(idx, (int, np.integer, slice, type(None), type(Ellipsis)))

    def _reader(self, nid: int) -> Callable[[object], np.ndarray]:
        """``rows -> value``: batch-major values are sliced, others whole.

        ``_ALL`` reads the stored array itself, not a view of it (the
        unfold of an unpadded conv input rebinds its window view only
        when the input array changes).
        """
        S = self._storage
        if self._bm.get(nid):
            return lambda r: S[nid] if r is _ALL else S[nid][r]
        return lambda r: S[nid]

    def _bwd_site_maker(self, node: Node, slot: int, pshape) -> Optional[Callable]:
        g = self._grads[node.id]
        parents = node.parents
        name = node.op
        reduced = pshape != node.shape
        if name == "add":
            if reduced:
                return self._reduce_maker(g, pshape, negate=False)
            return lambda o, r: np.copyto(o, g[r])
        if name == "sub":
            if reduced:
                return self._reduce_maker(g, pshape, negate=slot == 1)
            if slot == 0:
                return lambda o, r: np.copyto(o, g[r])
            return lambda o, r: np.negative(g[r], out=o)
        # Shape-changing ops produce parent-shaped gradients directly.
        if name == "sum":
            axis, keepdims = node.attrs["axis"], node.attrs["keepdims"]
            expanded = g
            if axis is not None and not keepdims:
                expanded = np.expand_dims(g, axis=axis)
            return lambda o, r: np.copyto(o, expanded[r])
        if name == "reshape":
            view = g.reshape(pshape)
            return lambda o, r: np.copyto(o, view[r])
        if name == "transpose":
            view = g.transpose(node.attrs["inverse"])
            return lambda o, r: np.copyto(o, view[r])
        if name == "getitem":
            idx = node.attrs["idx"]
            if not self._is_basic_index(idx):
                return None

            def getitem_bwd(o, r):
                # Basic slicing has no duplicate indices, so the
                # reference np.add.at over zeros is a plain assignment.
                # (Split getitems keep axis 0 whole, so idx applies to
                # the lane's rows as it does to the batch.)
                o.fill(0.0)
                o[idx] = g[r]

            return getitem_bwd
        if name == "matmul":
            a_nd = len(self._trace.nodes[parents[0]].shape)
            b_nd = len(self._trace.nodes[parents[1]].shape)
            if a_nd < 2 or b_nd < 2:
                return None
            if slot == 0:
                read_b = self._reader(parents[1])
                return lambda o, r: np.matmul(
                    g[r], np.swapaxes(read_b(r), -1, -2), out=o
                )
            read_a = self._reader(parents[0])
            return lambda o, r: np.matmul(
                np.swapaxes(read_a(r), -1, -2), g[r], out=o
            )
        # Elementwise makers below require an unreduced (same-shape) site.
        if reduced:
            return None
        read = [self._reader(p) for p in parents]
        if name == "abs":
            tmp = np.empty(node.shape)

            def abs_bwd(o, r):
                t = tmp[r]
                np.sign(read[0](r), out=t)
                np.multiply(g[r], t, out=o)

            return abs_bwd
        if name == "neg":
            return lambda o, r: np.negative(g[r], out=o)
        if name == "mul":
            other = read[1 - slot]
            return lambda o, r: np.multiply(g[r], other(r), out=o)
        if name == "div":
            if slot == 0:
                return lambda o, r: np.divide(g[r], read[1](r), out=o)
            tmp = np.empty(node.shape)
            tmp2 = np.empty(self._trace.nodes[parents[1]].shape)

            def div_b(o, r):
                t, t2, b = tmp[r], tmp2[r], read[1](r)
                np.negative(g[r], out=t)
                np.multiply(t, read[0](r), out=t)
                np.multiply(b, b, out=t2)
                np.divide(t, t2, out=o)

            return div_b
        own = self._reader(node.id)
        if name == "exp":
            return lambda o, r: np.multiply(g[r], own(r), out=o)
        if name == "relu":
            mask = self._relu_masks.get(node.id)
            if mask is None:
                return None
            return lambda o, r: np.multiply(g[r], mask[r], out=o)
        if name == "sigmoid":
            tmp = np.empty(node.shape)
            tmp2 = np.empty(node.shape)

            def sigmoid_bwd(o, r):
                t, t2, y = tmp[r], tmp2[r], own(r)
                np.multiply(g[r], y, out=t)
                np.subtract(1.0, y, out=t2)
                np.multiply(t, t2, out=o)

            return sigmoid_bwd
        if name == "tanh":
            tmp = np.empty(node.shape)

            def tanh_bwd(o, r):
                t, y = tmp[r], own(r)
                np.multiply(y, y, out=t)
                np.subtract(1.0, t, out=t)
                np.multiply(g[r], t, out=o)

            return tanh_bwd
        if name == "softplus":
            from .graph import stable_sigmoid

            tmp = np.empty(node.shape)

            def softplus_bwd(o, r):
                t = tmp[r]
                stable_sigmoid(read[0](r), out=t)
                np.multiply(g[r], t, out=o)

            return softplus_bwd
        if name == "sqrt":
            tmp = np.empty(node.shape)

            def sqrt_bwd(o, r):
                t = tmp[r]
                np.multiply(g[r], 0.5, out=t)
                np.divide(t, own(r), out=o)

            return sqrt_bwd
        if name == "pow":
            exponent = node.attrs["exponent"]
            tmp = np.empty(node.shape)
            tmp2 = np.empty(node.shape)

            def pow_bwd(o, r):
                t, t2 = tmp[r], tmp2[r]
                np.power(read[0](r), exponent - 1, out=t)
                np.multiply(g[r], exponent, out=t2)
                np.multiply(t2, t, out=o)

            return pow_bwd
        return None

    @staticmethod
    def _site_runner(compute, target, tmp, r) -> Callable[[], None]:
        """One site on rows ``r``: write (first) or accumulate via ``tmp``."""
        out = target[r]
        if tmp is None:
            return lambda: compute(out, r)
        scratch = tmp[r]

        def accumulate() -> None:
            compute(scratch, r)
            np.add(out, scratch, out=out)

        return accumulate

    def _build_specialized_bwd(self, node: Node, sites) -> Optional[Callable]:
        op = OPS[node.op]
        # One reference VJP evaluation on the traced example values gates
        # specialization: shapes must match the parents exactly (no
        # unbroadcast reduction) for the direct-write forms to apply.
        values = self._trace.values
        try:
            example = op.vjp(
                np.ones(node.shape),
                values[node.id],
                tuple(values[p] for p in node.parents),
                node.attrs,
                tuple(True for _ in node.parents),
            )
        except Exception:
            return None
        plan = []
        grads = self._grads
        for slot, parent, first, pshape in sites:
            if example[slot] is None:
                return None
            # add/sub handle the unbroadcast reduction themselves; every
            # other maker requires the raw VJP shape to match the parent.
            if node.op not in ("add", "sub") and np.shape(example[slot]) != pshape:
                return None
            compute = self._bwd_site_maker(node, slot, pshape)
            if compute is None:
                return None
            tmp = None if first else np.empty(pshape)
            plan.append((compute, parent, grads[parent], tmp, pshape))
        if not plan:
            return None
        self._bwd_sites[node.id] = plan
        runners = [
            self._site_runner(compute, target, tmp, _ALL)
            for compute, _, target, tmp, _ in plan
        ]

        def run_specialized() -> None:
            for runner in runners:
                runner()

        return run_specialized

    def _build_backward_instr(self, node: Node, sites) -> Callable:
        storage = self._storage
        grads = self._grads
        nid = node.id
        parents = node.parents
        attrs = node.attrs
        fast = self._bwd_kernels.get(nid)
        if fast is not None:
            # The lane form over every row, between its serial parts.
            spec = self._conv_backward_lane_spec(node, sites, fast)
            self._bwd_conv_specs[nid] = spec
            return _chain(
                [f for f in (spec.before, spec.rows(_ALL), spec.after) if f is not None]
            )
        specialized = self._build_specialized_bwd(node, sites)
        if specialized is not None:
            return specialized
        op = OPS[node.op]
        vjp = op.vjp
        needed = tuple(
            self._trace.nodes[p].requires_grad for p in parents
        )

        def run_bwd() -> None:
            vjps = vjp(
                grads[nid],
                storage[nid],
                tuple(storage[p] for p in parents),
                attrs,
                needed,
            )
            for slot, parent, first, pshape in sites:
                pg = vjps[slot]
                if pg.shape != pshape:
                    pg = _unbroadcast(np.asarray(pg), pshape)
                if first:
                    np.copyto(grads[parent], pg)
                else:
                    grads[parent] += pg

        return run_bwd

    # -- lane specs ----------------------------------------------------
    def _row_separable(self, node: Node) -> bool:
        """Is ``node`` batch-major: row b a function of input rows b?

        Conservative by construction: conv and FC forward (batch-major
        input, non-batch weight), elementwise ops whose other operands
        broadcast along the batch axis, reshapes and transposes that
        keep axis 0, getitems and sums that leave axis 0 whole.
        """
        batch = self._batch
        shape = node.shape
        if not shape or shape[0] != batch:
            return False
        nodes = self._trace.nodes
        flags = [self._bm[p] for p in node.parents]
        if not any(flags):
            return False
        pshapes = [nodes[p].shape for p in node.parents]
        name, attrs = node.op, node.attrs
        if OPS[name].elementwise:
            return all(
                len(s) == len(shape) if bm else len(s) < len(shape) or s[0] == 1
                for s, bm in zip(pshapes, flags)
            )
        if name in ("conv2d", "conv_transpose2d"):
            return flags == [True, False]
        if name == "matmul":
            return (
                flags == [True, False]
                and len(pshapes[0]) == len(shape) >= 2
                and len(pshapes[1]) == 2
            )
        if name == "reshape":
            return True
        if name == "transpose":
            axes = attrs.get("axes")
            return axes is not None and tuple(axes)[0] == 0
        if name == "getitem":
            idx = attrs["idx"]
            return (
                isinstance(idx, tuple)
                and bool(idx)
                and isinstance(idx[0], slice)
                and idx[0] == slice(None)
                and self._is_basic_index(idx)
            )
        if name == "sum":
            axis = attrs["axis"]
            if axis is None:
                return False
            ndim = len(pshapes[0])
            axes = axis if isinstance(axis, tuple) else (axis,)
            return all(a % ndim != 0 for a in axes)
        return False

    def _pure_view(self, node: Node) -> bool:
        """Does this view instruction read no data that this step writes?

        Views of inputs, params and constants read values fixed for the
        whole step.  Of a value computed in this step only a numpy view
        qualifies: transposes, getitems with basic indices (an advanced
        index copies the rows it reads), and reshapes of a contiguous
        program buffer.
        """
        nodes = self._trace.nodes
        root = self.plan.root[node.id]
        if nodes[root].kind != "op":
            return True
        if node.op == "getitem" and not self._is_basic_index(node.attrs["idx"]):
            return False
        parent = node.parents[0]
        if parent == root:
            return True
        return node.op in ("getitem", "transpose") and self._pure_view(nodes[parent])

    def _splits(self, node: Node) -> bool:
        """May this batch-major value be computed on row slices?"""
        if not self._bm[node.id]:
            return False
        if node.op == "matmul":
            values = self._trace.values
            return _gemm_rows_agree(values[node.parents[0]], values[node.parents[1]])
        return True

    def _backward_lane_spec(self, node: Node, sites, instr) -> Optional[_LaneSpec]:
        nid = node.id
        bm = self._bm
        if not bm[nid]:
            if any(bm[p] for p in node.parents):
                return None
            # Reads and writes no batch rows: runs after the lanes.
            return _LaneSpec(
                after=instr,
                after_work=self._grads[nid].size,
                touches=(nid,) + tuple(site[1] for site in sites),
            )
        conv = self._bwd_conv_specs.get(nid)
        if conv is not None:
            return conv
        plan = self._bwd_sites.get(nid)
        if plan is None:
            return None
        if node.op == "matmul":
            # dx = g @ b^T on rows; g is not traced, any values will do.
            g = np.random.default_rng(0).standard_normal(node.shape)
            b = self._trace.values[node.parents[1]]
            if not _gemm_rows_agree(g, np.swapaxes(b, -1, -2)):
                return None
        rows_sites, late, late_parents = [], [], []
        for compute, parent, target, tmp, pshape in plan:
            if not bm[parent]:
                # A batch reduction (bias, weight): whole, after the lanes.
                late.append(self._site_runner(compute, target, tmp, _ALL))
                late_parents.append(parent)
            elif node.op in ("add", "sub") and pshape != node.shape:
                return None
            else:
                rows_sites.append((compute, target, tmp))
        size = self._grads[nid].size
        if node.op == "matmul":
            size *= self._trace.nodes[node.parents[0]].shape[-1] // 4
        late_spec = dict(
            after=_chain(late) if late else None,
            after_work=size * len(late),
            touches=tuple(late_parents),
        )
        if not rows_sites:
            return _LaneSpec(**late_spec)

        def site_rows(r):
            return _chain(
                [self._site_runner(c, target, tmp, r) for c, target, tmp in rows_sites]
            )

        return _LaneSpec(rows=site_rows, work=size * len(rows_sites), **late_spec)

    def _conv_backward_lane_spec(self, node: Node, sites, fast) -> _LaneSpec:
        """dx and the per-sample dW products in lanes; the dW batch sum
        (or short-contraction GEMM) after them."""
        S, grads = self._storage, self._grads
        nid = node.id
        px, pw = node.parents
        g = grads[nid]
        dx_sites = [(grads[p], first) for slot, p, first, _ in sites if slot == 0]
        dw_sites = [(grads[p], first) for slot, p, first, _ in sites if slot == 1]
        read_x = self._reader(px)

        def conv_rows(r):
            lane = fast.lane(r)
            g_rows = g[r]
            targets = [(target[r], first) for target, first in dx_sites]

            def run_conv_rows() -> None:
                dx = lane(g_rows, read_x(r), S[pw])
                for target, first in targets:
                    if first:
                        np.copyto(target, dx)
                    else:
                        np.add(target, dx, out=target)

            return run_conv_rows

        def weight_grad() -> None:
            dw = fast.weight_grad()
            for target, first in dw_sites:
                if first:
                    np.copyto(target, dw)
                else:
                    target += dw

        flips = getattr(fast, "dx_as_conv", False)
        return _LaneSpec(
            rows=conv_rows,
            before=(lambda: fast.prepare(S[pw])) if flips else None,
            after=weight_grad,
            work=fast.work,
            after_work=fast.gemm_dw.reduce_work,
            touches=tuple(p for slot, p, _, _ in sites if slot == 1),
        )

    # -- lane plans ----------------------------------------------------
    @property
    def batch(self) -> int:
        """The batch size lanes split (0 when the inputs do not share one)."""
        return self._batch

    def build_lane_plan(
        self, lanes: int, forward: Optional[Sequence[Tuple[Callable, Optional[_LaneSpec]]]] = None
    ) -> LanePlan:
        """An unprobed :class:`LanePlan` for ``lanes`` lanes.

        ``forward`` replaces the forward ``(instr, spec)`` steps (the
        recorded loop substitutes its gathered leading convolution).
        Raises :class:`CompileUnsupported` when the program cannot split.
        """
        if self._fwd_specs is None:
            raise CompileUnsupported("kernel profiling (REPRO_PROFILE=1) runs single-lane")
        if lanes > MAX_LANES:
            raise CompileUnsupported(f"{lanes} lanes exceed the cap of {MAX_LANES}")
        if not 2 <= lanes <= self._batch:
            raise CompileUnsupported(f"{lanes} lanes need a batch of at least {lanes}")
        if forward is None:
            forward = list(zip(self._forward, self._fwd_specs))
        return LanePlan(
            forward, list(zip(self._backward, self._bwd_specs)), self._batch, lanes
        )

    def probe_lanes(self, inputs: Sequence[np.ndarray], lanes: int) -> Optional[str]:
        """Build the ``lanes``-lane plan and check it bitwise (cached).

        Runs the program unsplit on ``inputs``, then on NaN inputs
        (:meth:`poison`), then split on ``inputs``; every output and
        parameter gradient must be ``array_equal``.  Returns None on
        success, else the reason the program stays single-lane at this
        lane count (also kept in :attr:`lane_rejects`; a split that
        differed also counts in ``stats.lane_rejects``).
        """
        if lanes in self._lane_plans:
            return None
        if lanes in self.lane_rejects:
            return self.lane_rejects[lanes]
        try:
            plan = self.build_lane_plan(lanes)
        except CompileUnsupported as error:
            self.lane_rejects[lanes] = str(error)
            return self.lane_rejects[lanes]
        reference = {k: np.array(v) for k, v in self.run(inputs).items()}
        grads = [np.array(buf) for _, buf in self._param_grad_binds]
        self.poison(inputs)
        # Lanes run one after another here; row-disjoint lanes give the
        # same values on helper threads.
        split = self._replay(inputs, plan, ())
        if not all(np.array_equal(split[k], v) for k, v in reference.items()):
            reason = "a split output differs from the single-lane program"
        elif not all(
            np.array_equal(buf, ref)
            for (_, buf), ref in zip(self._param_grad_binds, grads)
        ):
            reason = "a split parameter gradient differs from the single-lane program"
        else:
            self._lane_plans[lanes] = plan
            return None
        self.lane_rejects[lanes] = reason
        self.stats.lane_rejects += 1
        return reason

    def poison(self, inputs: Sequence[np.ndarray]) -> None:
        """Replay on NaN inputs shaped like ``inputs``.

        Afterwards every buffer that depends on the inputs holds NaN, so
        a split replay that read a value before its region wrote it (a
        stale read) differs from the reference instead of repeating the
        previous replay's equal values.
        """
        with np.errstate(all="ignore"):
            self.run([np.full_like(a, np.nan) for a in inputs])

    # ------------------------------------------------------------------
    def run(self, inputs: Sequence[np.ndarray]) -> Dict[str, np.ndarray]:
        """One forward+backward replay; parameter grads land in ``.grad``."""
        return self._replay(inputs, None, ())

    def _replay(self, inputs, plan: Optional[LanePlan], helpers) -> Dict[str, np.ndarray]:
        """:meth:`run` through ``plan`` (single-lane when None), its
        regions fanned out over ``helpers`` (lanes in turn when empty)."""
        storage = self._storage
        for nid, position in self._input_binds:
            storage[nid] = inputs[position]
        for nid, tensor in self._param_binds:
            storage[nid] = tensor.data
        forward, backward = self._serial if plan is None else (plan.forward, plan.backward)
        LanePlan.run(forward, helpers)
        for tensor, grad_buf in self._param_grad_binds:
            tensor.grad = grad_buf
        LanePlan.run(backward, helpers)
        return {name: storage[nid] for name, nid in self._outputs.items()}

    def verify(self, inputs: Sequence[np.ndarray], traced: Dict[str, Tensor]) -> None:
        """Enforce the equivalence contract against the eager engine.

        Runs the program on the traced arrays and compares every output
        and every parameter gradient against an eager forward/backward
        of the same step.  Bitwise equality is expected; anything beyond
        1e-12 relative is a compiler bug and rejects the program.
        """
        got = self.run(inputs)
        for name, tensor in traced.items():
            if not np.allclose(got[name], tensor.data, rtol=1e-12, atol=1e-14):
                raise CompileUnsupported(
                    f"compiled output {name!r} diverges from eager"
                )
        for p in self._params:
            p.grad = None
        traced["loss"].backward()
        for tensor, grad_buf in self._param_grad_binds:
            eager = tensor.grad
            if eager is None or not np.allclose(
                eager, grad_buf, rtol=1e-12, atol=1e-14
            ):
                raise CompileUnsupported(
                    "compiled parameter gradient diverges from eager"
                )
        for p in self._params:
            p.grad = None


# ----------------------------------------------------------------------
# The compiled train step
# ----------------------------------------------------------------------
class CompiledTrainStep:
    """Trace-once, replay-many wrapper around one training step.

    ``step_fn(*input_tensors)`` must return a dict of scalar tensors
    including ``"loss"`` (the objective to differentiate) and must route
    all per-step data through its inputs.  Calling the instance with the
    step's numpy arrays runs forward + backward through the compiled
    program, clips gradients, steps the optimizer, and returns the
    outputs as floats — numerically equivalent to running the same
    ``step_fn`` eagerly followed by ``loss.backward()`` / clip / step.

    Programs are cached per input-shape signature (shape-guarded
    replay); if a trace cannot be compiled, :class:`CompileUnsupported`
    propagates and the caller is expected to fall back to eager (and may
    keep calling — the failure is cached so the trace is not retried).
    """

    def __init__(
        self,
        step_fn: Callable[..., Dict[str, Tensor]],
        params: Sequence[Tensor],
        optimizer: Optional[Optimizer] = None,
        grad_clip: Optional[float] = None,
    ) -> None:
        self.step_fn = step_fn
        self.params = list(params)
        self.optimizer = optimizer
        self.grad_clip = grad_clip
        self.stats = CompileStats()
        self._programs: Dict[Tuple, Optional[GraphProgram]] = {}

    def signature(self, arrays: Sequence[np.ndarray]) -> Tuple:
        return tuple((a.shape, a.dtype.str) for a in arrays)

    def kernel_seconds(self) -> Dict[str, float]:
        """Cumulative per-kernel replay seconds across all programs.

        Empty unless the programs were built with ``REPRO_PROFILE=1``
        (see :func:`profile_enabled`); labels are ``fwd:<op>`` /
        ``bwd:<op>`` summed over every shape-specialized program.
        """
        totals: Dict[str, float] = {}
        for program in self._programs.values():
            if program is None:
                continue
            for label, seconds in program.kernel_seconds.items():
                totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def program_for(self, arrays: Sequence[np.ndarray]) -> GraphProgram:
        """The cached :class:`GraphProgram` for these input shapes.

        Compiles (and verifies) on first use, exactly as :meth:`__call__`
        would; raises :class:`CompileUnsupported` when the trace was (or
        is now) rejected.  This is the hook the recorded-loop layer
        (:mod:`repro.nn.loop`) uses to share one program — and therefore
        bitwise-identical replay values — with the per-step path.
        """
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
        key = self.signature(arrays)
        if key not in self._programs:
            try:
                self._programs[key] = self._compile(arrays)
            except CompileUnsupported:
                self._programs[key] = None
                self.stats.fallbacks += 1
                raise
            except Exception as error:
                # Anything unexpected during trace/build/verify must not
                # take training down — the eager tape is always correct.
                self._programs[key] = None
                self.stats.fallbacks += 1
                raise CompileUnsupported(
                    f"compiler error ({type(error).__name__}: {error}); "
                    "falling back to eager"
                ) from error
        program = self._programs[key]
        if program is None:
            self.stats.fallbacks += 1
            raise CompileUnsupported("trace previously rejected for this signature")
        return program

    def __call__(self, *arrays: np.ndarray) -> Dict[str, float]:
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
        program = self.program_for(arrays)
        self.stats.replays += 1
        outputs = program.run(arrays)
        if self.grad_clip is not None:
            clip_grad_norm(self.params, self.grad_clip)
        if self.optimizer is not None:
            self.optimizer.step()
        return {name: float(value) for name, value in outputs.items()}

    def _compile(self, arrays: Tuple[np.ndarray, ...]) -> GraphProgram:
        cap_blas_threads()
        input_tensors = [Tensor(a) for a in arrays]
        with Trace(params=self.params, inputs=input_tensors) as trace:
            outputs = self.step_fn(*input_tensors)
        if not isinstance(outputs, dict) or "loss" not in outputs:
            raise CompileUnsupported("step_fn must return a dict with a 'loss' key")
        if trace.unsupported:
            raise CompileUnsupported(
                f"trace used non-IR ops: {trace.unsupported[:3]}"
            )
        for name, tensor in outputs.items():
            if not isinstance(tensor, Tensor) or tensor.data.size != 1:
                raise CompileUnsupported(f"output {name!r} is not a scalar tensor")
        loss = outputs["loss"]
        if not loss.requires_grad:
            raise CompileUnsupported("loss does not require grad")
        node_ids = {
            name: trace.tensor_nodes[id(tensor)] for name, tensor in outputs.items()
        }
        program = GraphProgram(
            trace,
            node_ids,
            trace.tensor_nodes[id(loss)],
            self.params,
            stats=self.stats,
        )
        program.verify(arrays, outputs)
        # Build-time lane probe on the traced arrays: the split a trainer
        # of this process would replay must be bitwise equal to the
        # single-lane program, or it is never used.
        lanes = min(BUDGET.default_lanes(), program.batch)
        if lanes > 1:
            program.probe_lanes(arrays, lanes)
            for p in self.params:
                p.grad = None
        if ir_verify_enabled():
            # Optional static pass (REPRO_IR_VERIFY=1): prove the plan
            # sound before caching it for replay.  Imported lazily —
            # repro.check sits above nn in the layering and must not
            # load on the replay path.
            from ..check.ir import verify_program

            ir_findings = verify_program(program)
            if ir_findings:
                first = ir_findings[0]
                raise CompileUnsupported(
                    f"IR verifier rejected the program: {len(ir_findings)} "
                    f"finding(s), first [{first.rule}] {first.message}"
                )
        trace.release()  # drop example values/pins; run() needs only the tables
        self.stats.traces += 1
        return program


def compile_train_step(
    step_fn: Callable[..., Dict[str, Tensor]],
    params: Sequence[Tensor],
    optimizer: Optional[Optimizer] = None,
    grad_clip: Optional[float] = None,
) -> CompiledTrainStep:
    """Build a :class:`CompiledTrainStep` (convenience constructor)."""
    return CompiledTrainStep(step_fn, params, optimizer=optimizer, grad_clip=grad_clip)
