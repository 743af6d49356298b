"""Legalization of raw prefix-graph grids (paper Sec. 5.1).

CircuitVAE's decoder emits an arbitrary Bernoulli grid; the paper legalizes
it "by inserting missing parents of existing nodes" before synthesis, and
treats legalization as part of the objective function so the cost predictor
learns legalization-equivalent values.  The same routine backs the GA's
mutation operator and the RL environment's action application.

The algorithm processes rows from the most significant downward.  For a
node (i, j), its upper parent (i, k) is within row ``i`` by construction
(``k`` = next present column), and its lower parent (k-1, j) lives in a
*lower-index* row, which has not been scanned yet — so each insertion is
seen later and recursively completed.  A single top-down sweep therefore
yields a legal graph.

:func:`legalize_many` runs the same sweep over a whole batch of grids at
once (population variation, decoder samples); :func:`legalize_grid` is
the reference it must equal bit for bit, and the faster path for a single
grid.
"""

from __future__ import annotations

import numpy as np

from .graph import PrefixGraph

__all__ = ["legalize", "legalize_grid", "legalize_many", "prune_redundant"]


def legalize_grid(grid: np.ndarray) -> np.ndarray:
    """Return a legal boolean grid containing ``grid``'s nodes.

    Forces the diagonal and output column, then inserts missing lower
    parents top-down.  The output satisfies ``PrefixGraph.is_legal``.
    """
    grid = np.asarray(grid)
    n = grid.shape[0]
    if grid.ndim != 2 or grid.shape[1] != n:
        raise ValueError(f"grid must be square, got {grid.shape}")
    out = np.zeros((n, n), dtype=bool)
    tri = np.tril(np.ones((n, n), dtype=bool))
    out[tri] = grid.astype(bool)[tri]
    np.fill_diagonal(out, True)
    out[:, 0] = True
    for i in range(n - 1, 0, -1):
        present = np.nonzero(out[i][: i + 1])[0]
        for j, k in zip(present[:-1], present[1:]):
            out[k - 1, j] = True
    return out


def legalize_many(grids: np.ndarray) -> np.ndarray:
    """Legalize a ``(B, n, n)`` batch; equal to stacking :func:`legalize_grid`.

    The same top-down sweep, one row index at a time across the whole
    batch: a reversed running minimum finds every present cell's next
    present column (its upper parent), and one fancy-index write sets
    all the lower parents.  Writes land in rows below the current one, so
    the sweep sees them later exactly as the per-grid loop does.  A batch
    of one goes through :func:`legalize_grid`, which is faster alone.
    """
    grids = np.asarray(grids)
    if grids.ndim != 3 or grids.shape[1] != grids.shape[2]:
        raise ValueError(f"grids must be (B, n, n), got {grids.shape}")
    if grids.shape[0] == 1:
        return legalize_grid(grids[0])[None]
    n = grids.shape[1]
    out = grids.astype(bool) & np.tri(n, dtype=bool)
    diag = np.arange(n)
    out[:, diag, diag] = True
    out[:, :, 0] = True
    for i in range(n - 1, 0, -1):
        row = out[:, i, : i + 1]
        # column index where present, i + 1 (past the row) where absent;
        # nxt[:, j] is the smallest present column in j+1..i.
        cols = np.where(row, diag[: i + 1], i + 1)
        nxt = np.minimum.accumulate(cols[:, :0:-1], axis=1)[:, ::-1]
        b, j = np.nonzero(row[:, :i])
        out[b, nxt[b, j] - 1, j] = True
    return out


def legalize(grid: np.ndarray) -> PrefixGraph:
    """Legalize a raw grid and wrap it as a :class:`PrefixGraph`."""
    return PrefixGraph(legalize_grid(grid), validate=False)


def prune_redundant(graph: PrefixGraph) -> PrefixGraph:
    """Remove internal nodes that no output transitively depends on.

    Legal graphs can contain dead spans (present but unused by any column-0
    output).  Synthesis would waste area on them; this pass computes the
    transitive fan-in of the outputs and drops everything else.  The result
    is still legal: parents of needed nodes are needed.
    """
    needed = set()
    stack = [(i, 0) for i in range(graph.n)]
    while stack:
        node = stack.pop()
        if node in needed:
            continue
        needed.add(node)
        if node[0] != node[1]:
            upper, lower = graph.parents(*node)
            stack.append(upper)
            stack.append(lower)
    grid = np.zeros_like(graph.grid)
    for i, j in needed:
        grid[i, j] = True
    pruned = PrefixGraph(grid, validate=False)
    if not pruned.is_legal():  # pragma: no cover - defensive
        raise AssertionError("pruning broke legality")
    return pruned
