"""Encodings of prefix graphs for the learned models and the GA.

Two views of the same circuit:

* **Grid tensor** — the full ``N x N`` float matrix the paper's CNN VAE
  autoencodes (Sec. 5.1, "N-bit prefix graphs are represented with an
  N x N matrix as in [PrefixRL]").
* **Free bitvector** — only the cells that are actual degrees of freedom:
  strictly-lower-triangle cells excluding the output column (column 0) and
  the diagonal, both of which are structurally forced.  This is the
  representation the genetic algorithm mutates ("directly optimizing a
  bitvector representation of the circuit", Sec. 5.2).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np

from .graph import PrefixGraph
from .legalize import legalize, legalize_many

__all__ = [
    "free_cells",
    "num_free_cells",
    "graph_to_bits",
    "bits_to_graph",
    "grids_to_bits",
    "bits_to_grids",
    "bits_to_graphs",
    "graph_to_grid",
    "grid_to_graph",
    "random_graph",
    "unique_random_graphs",
]


@lru_cache(maxsize=None)
def _free_index(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(rows, cols)`` of :func:`free_cells`, cached per width."""
    rows, cols = np.tril_indices(n, -1)
    free = cols > 0
    rows, cols = rows[free], cols[free]
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def free_cells(n: int) -> List[Tuple[int, int]]:
    """Cells (i, j) with 0 < j < i: the mutable positions of an n-bit grid."""
    rows, cols = _free_index(n)
    return list(zip(rows.tolist(), cols.tolist()))


def num_free_cells(n: int) -> int:
    """(n-1)(n-2)/2 — the GA's chromosome length."""
    return (n - 1) * (n - 2) // 2


def graph_to_bits(graph: PrefixGraph) -> np.ndarray:
    """Extract the free-cell bitvector (bool array) from a graph."""
    return graph.grid[_free_index(graph.n)]


def bits_to_graph(bits: np.ndarray, n: int) -> PrefixGraph:
    """Legalize a free-cell bitvector into a :class:`PrefixGraph`.

    Legalization may switch *on* cells that are 0 in ``bits`` (missing
    parents are inserted), so this map is surjective onto legal graphs but
    not injective.
    """
    return bits_to_graphs(np.asarray(bits).reshape(1, -1), n)[0]


def grids_to_bits(grids: np.ndarray) -> np.ndarray:
    """``(B, L)`` free-cell bitvectors of a ``(B, n, n)`` grid stack (one gather)."""
    rows, cols = _free_index(grids.shape[-1])
    return grids[:, rows, cols]


def bits_to_grids(bits: np.ndarray, n: int) -> np.ndarray:
    """Legal ``(B, n, n)`` grids of ``(B, L)`` bitvectors, one legalization pass.

    Row ``b`` equals ``bits_to_graph(bits[b], n).grid``.
    """
    bits = np.asarray(bits, dtype=bool)
    rows, cols = _free_index(n)
    if bits.ndim != 2 or bits.shape[1] != rows.shape[0]:
        raise ValueError(f"expected (B, {rows.shape[0]}) bits for n={n}, got {bits.shape}")
    grids = np.zeros((bits.shape[0], n, n), dtype=bool)
    grids[:, rows, cols] = bits
    return legalize_many(grids)


def bits_to_graphs(bits: np.ndarray, n: int) -> List[PrefixGraph]:
    """Population form of :func:`bits_to_graph`: equal graph for graph."""
    return [PrefixGraph(grid, validate=False) for grid in bits_to_grids(bits, n)]


def graph_to_grid(graph: PrefixGraph) -> np.ndarray:
    """Full N x N float32-compatible (0/1) matrix for the VAE."""
    return graph.grid.astype(np.float64)


def grid_to_graph(grid: np.ndarray, threshold: float = 0.5) -> PrefixGraph:
    """Threshold a real-valued decoder grid and legalize it."""
    return legalize(np.asarray(grid) > threshold)


def random_graph(n: int, rng: np.random.Generator, density: float = 0.2) -> PrefixGraph:
    """A random legal graph: Bernoulli(density) free cells, legalized.

    Used to seed initial datasets and as the reference distribution in
    tests.  ``density`` controls how far from ripple-carry the samples sit.
    """
    bits = rng.random(num_free_cells(n)) < density
    return bits_to_graph(bits, n)


def unique_random_graphs(
    n: int,
    count: int,
    rng: np.random.Generator,
    density_low: float = 0.1,
    density_high: float = 0.6,
) -> list:
    """``count`` random legal graphs with pairwise-distinct canonical keys.

    Rejection-samples :func:`random_graph` at densities drawn uniformly
    from [density_low, density_high] until ``count`` distinct circuits
    (by :meth:`~repro.prefix.graph.PrefixGraph.key`) are collected — the
    workload generator used by the engine tests and throughput benches,
    where batches must contain no duplicate synthesis work.  Raises
    ``ValueError`` instead of spinning forever when the space is too
    small (tiny ``n``, e.g. n=2 has exactly one legal graph).
    """
    graphs, seen = [], set()
    budget = max(1000, 200 * count)
    attempts = 0
    while len(graphs) < count:
        if attempts >= budget:
            raise ValueError(
                f"could not sample {count} distinct legal graphs for n={n} "
                f"in {budget} attempts (found {len(graphs)}); the design "
                f"space is likely smaller than count"
            )
        attempts += 1
        density = density_low + (density_high - density_low) * rng.random()
        graph = random_graph(n, rng, density)
        if graph.key() not in seen:
            seen.add(graph.key())
            graphs.append(graph)
    return graphs
