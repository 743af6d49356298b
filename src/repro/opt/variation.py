"""Variation operators on circuit encodings.

Shared by the genetic-algorithm baseline, the initial-dataset builder
(the paper seeds CircuitVAE with "the first few generations of GA"), and
the random-search baseline.  All operators work on the free-cell
bitvector encoding and legalize their results, so they always produce
valid circuits.

Each operator draws its random numbers through one helper
(:func:`crossover_mask`, :func:`mutation_flips`), shared by the
single-graph form and the population form.  No draw depends on a
legalized result, so a population form draws every child's numbers in
the per-graph order first and then legalizes the whole batch in one
:func:`~repro.prefix.legalize.legalize_many` pass: the children and the
rng position afterwards equal those of the per-graph loop.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..prefix.encoding import (
    bits_to_graph,
    bits_to_graphs,
    graph_to_bits,
    grids_to_bits,
    num_free_cells,
)
from ..prefix.graph import PrefixGraph
from ..prefix.metrics import stacked_grids

__all__ = [
    "crossover",
    "crossover_mask",
    "mutate",
    "mutate_many",
    "mutation_flips",
    "random_population",
]


def mutation_flips(length: int, rng: np.random.Generator, rate: float) -> np.ndarray:
    """The cells one mutation flips: each with probability ``rate``, at least one."""
    flips = rng.random(length) < rate
    if not flips.any():
        flips[rng.integers(length)] = True
    return flips


def crossover_mask(length: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform-crossover mask: True takes the cell from the first parent."""
    return rng.random(length) < 0.5


def mutate(graph: PrefixGraph, rng: np.random.Generator, rate: float = 0.02) -> PrefixGraph:
    """Flip each free cell independently with probability ``rate``.

    At least one flip is forced so mutation never degenerates to identity
    (the legalized *result* may still coincide with the input when the
    flipped cell was structurally implied).
    """
    bits = graph_to_bits(graph)
    return bits_to_graph(bits ^ mutation_flips(bits.shape[0], rng, rate), graph.n)


def mutate_many(
    graphs: Sequence[PrefixGraph], rng: np.random.Generator, rate: float = 0.02
) -> List[PrefixGraph]:
    """``[mutate(g, rng, rate) for g in graphs]`` with one legalization pass."""
    if not graphs:
        return []
    bits = grids_to_bits(stacked_grids(graphs))
    flips = np.stack([mutation_flips(bits.shape[1], rng, rate) for _ in graphs])
    return bits_to_graphs(bits ^ flips, graphs[0].n)


def crossover(
    parent_a: PrefixGraph, parent_b: PrefixGraph, rng: np.random.Generator
) -> PrefixGraph:
    """Uniform crossover of two same-width circuits' bitvectors."""
    if parent_a.n != parent_b.n:
        raise ValueError("parents must share a bitwidth")
    bits_a = graph_to_bits(parent_a)
    bits_b = graph_to_bits(parent_b)
    mask = crossover_mask(bits_a.shape[0], rng)
    return bits_to_graph(np.where(mask, bits_a, bits_b), parent_a.n)


def random_population(
    n: int, size: int, rng: np.random.Generator, density_range=(0.05, 0.5)
) -> List[PrefixGraph]:
    """Random legal circuits with varied densities (exploration seeds)."""
    if size <= 0:
        return []
    lo, hi = density_range
    length = num_free_cells(n)
    bits = np.empty((size, length), dtype=bool)
    for row in bits:
        density = rng.uniform(lo, hi)
        row[:] = rng.random(length) < density
    return bits_to_graphs(bits, n)
