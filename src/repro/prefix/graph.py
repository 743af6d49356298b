"""Prefix-graph representation of parallel prefix circuits.

Following the paper (Sec. 3 and 5.1) and PrefixRL, an ``N``-bit parallel
prefix circuit is represented as a lower-triangular ``N x N`` boolean grid.
Cell ``(i, j)`` with ``i >= j`` set to True means the circuit computes the
span ``[i:j]`` — the combined generate/propagate (or XOR, for gray-to-binary
conversion) of input bits ``j..i``.

Structural invariants of a *legal* graph:

* every diagonal cell ``(i, i)`` is present (the inputs themselves),
* every output cell ``(i, 0)`` is present (the circuit must produce all
  prefix outputs),
* for every non-diagonal node ``(i, j)``, its **lower parent** exists: with
  ``k`` the smallest set column index greater than ``j`` in row ``i`` (the
  **upper parent** is ``(i, k)``), the cell ``(k - 1, j)`` must be present.

The decomposition ``span[i:j] = span[i:k] . span[k-1:j]`` with the *nearest*
upper parent is the same convention PrefixRL uses, which makes each legal
grid denote exactly one circuit.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

__all__ = ["PrefixGraph", "Span"]

Span = Tuple[int, int]
T = TypeVar("T")


@lru_cache(maxsize=None)
def _lower_triangle(n: int) -> np.ndarray:
    """Read-only ``(n, n)`` mask of the cells on or below the diagonal."""
    tri = np.tri(n, dtype=bool)
    tri.flags.writeable = False
    return tri


class PrefixGraph:
    """An immutable-by-convention prefix graph over an ``N x N`` grid.

    Parameters
    ----------
    grid:
        Boolean array of shape (n, n).  Entries above the diagonal are
        ignored and forced to False; the diagonal and output column are
        forced to True (they are structurally required, see module docs).
    validate:
        If True (default), raise ``ValueError`` when the grid is not legal.
        Pass False to hold a raw (possibly illegal) grid, e.g. before
        legalization.
    """

    __slots__ = ("grid", "n", "_key")

    def __init__(self, grid: np.ndarray, validate: bool = True):
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
            raise ValueError(f"grid must be square, got shape {grid.shape}")
        n = grid.shape[0]
        if n < 1:
            raise ValueError("grid must be at least 1x1")
        clean = grid.astype(bool) & _lower_triangle(n)
        np.fill_diagonal(clean, True)
        clean[:, 0] = True
        self.grid: np.ndarray = clean
        self.n: int = n
        self._key: Optional[bytes] = None
        if validate and not self.is_legal():
            raise ValueError("grid is not a legal prefix graph; legalize() it first")

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def nodes(self) -> List[Span]:
        """All present spans (i, j), row-major."""
        rows, cols = np.nonzero(self.grid)
        return list(zip(rows.tolist(), cols.tolist()))

    def internal_nodes(self) -> List[Span]:
        """Present spans excluding the diagonal (the actual operators)."""
        return [(i, j) for i, j in self.nodes() if i != j]

    def node_count(self) -> int:
        """Number of prefix operators (non-diagonal present cells)."""
        return int(self.grid.sum()) - self.n

    def upper_parent(self, i: int, j: int) -> Span:
        """The nearest present span (i, k) with k > j in row ``i``."""
        if i == j:
            raise ValueError(f"({i},{i}) is an input, it has no parents")
        row = self.grid[i]
        for k in range(j + 1, i + 1):
            if row[k]:
                return (i, k)
        raise AssertionError("diagonal is always present; unreachable")

    def lower_parent(self, i: int, j: int) -> Span:
        """The span (k-1, j) completing the decomposition of (i, j)."""
        _, k = self.upper_parent(i, j)
        return (k - 1, j)

    def parents(self, i: int, j: int) -> Tuple[Span, Span]:
        """(upper, lower) parents of a non-diagonal node."""
        upper = self.upper_parent(i, j)
        return upper, (upper[1] - 1, j)

    def is_legal(self) -> bool:
        """Check the lower-parent invariant for every present node."""
        for i in range(1, self.n):
            row = self.grid[i]
            present = np.nonzero(row[: i + 1])[0]
            # present is sorted ascending; consecutive pairs (j, k) are
            # (node, its upper parent's column).
            for j, k in zip(present[:-1], present[1:]):
                if not self.grid[k - 1, j]:
                    return False
        return True

    def levels(self) -> Dict[Span, int]:
        """Logic level of each present span (inputs at level 0)."""
        level: Dict[Span, int] = {}
        for i in range(self.n):
            level[(i, i)] = 0
        for i in range(1, self.n):
            present = np.nonzero(self.grid[i][: i + 1])[0]
            # Process right-to-left so the upper parent (same row, larger j)
            # is already resolved.
            for idx in range(len(present) - 2, -1, -1):
                j, k = int(present[idx]), int(present[idx + 1])
                upper = level[(i, k)]
                lower = level.get((k - 1, j))
                if lower is None:
                    raise ValueError(f"illegal graph: missing lower parent ({k-1},{j})")
                level[(i, j)] = max(upper, lower) + 1
        return level

    def depth(self) -> int:
        """Maximum logic level over all outputs (critical logical depth)."""
        return max(self.levels().values())

    def fanouts(self) -> Dict[Span, int]:
        """Number of child nodes consuming each span's result."""
        fanout: Dict[Span, int] = {node: 0 for node in self.nodes()}
        for i, j in self.internal_nodes():
            upper, lower = self.parents(i, j)
            fanout[upper] += 1
            fanout[lower] += 1
        return fanout

    def topological_order(self) -> List[Span]:
        """Present spans sorted by level then position (evaluation order)."""
        level = self.levels()
        return sorted(level, key=lambda node: (level[node], node))

    def evaluate(
        self,
        leaf_values: Sequence[T],
        combine: Callable[[T, T], T],
    ) -> Dict[Span, T]:
        """Evaluate the prefix computation bottom-up.

        ``leaf_values[i]`` is the value of span (i, i); ``combine(upper,
        lower)`` merges span [i:k] with span [k-1:j].  Returns values for
        every present span.  This powers functional verification for both
        adders (g/p pairs) and gray-to-binary converters (XOR).
        """
        if len(leaf_values) != self.n:
            raise ValueError(f"need {self.n} leaf values, got {len(leaf_values)}")
        values: Dict[Span, T] = {(i, i): leaf_values[i] for i in range(self.n)}
        for node in self.topological_order():
            if node[0] == node[1]:
                continue
            upper, lower = self.parents(*node)
            values[node] = combine(values[upper], values[lower])
        return values

    # ------------------------------------------------------------------
    # Identity / copies
    # ------------------------------------------------------------------
    def key(self) -> bytes:
        """Canonical hashable identity (packed grid bits)."""
        if self._key is None:
            self._key = np.packbits(self.grid).tobytes()
        return self._key

    def copy(self) -> "PrefixGraph":
        return PrefixGraph(self.grid.copy(), validate=False)

    def with_node(self, i: int, j: int, present: bool) -> np.ndarray:
        """Return a raw grid copy with cell (i, j) toggled to ``present``.

        The result is *not* legalized; callers (GA mutation, the RL
        environment) pass it through :func:`repro.prefix.legalize.legalize`.
        """
        if not (0 <= j <= i < self.n):
            raise IndexError(f"cell ({i},{j}) outside lower triangle of n={self.n}")
        grid = self.grid.copy()
        grid[i, j] = present
        return grid

    def __eq__(self, other) -> bool:
        return isinstance(other, PrefixGraph) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"PrefixGraph(n={self.n}, nodes={self.node_count()}, depth={self.depth()})"
