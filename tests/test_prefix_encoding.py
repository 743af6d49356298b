"""Tests for graph encodings (repro.prefix.encoding)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix import (
    bits_to_graph,
    bits_to_graphs,
    bits_to_grids,
    free_cells,
    graph_to_bits,
    grids_to_bits,
    graph_to_grid,
    grid_to_graph,
    num_free_cells,
    random_graph,
    sklansky,
)


class TestFreeCells:
    def test_count_formula(self):
        for n in (2, 3, 4, 8, 16):
            assert len(free_cells(n)) == num_free_cells(n) == (n - 1) * (n - 2) // 2

    def test_cells_exclude_forced_positions(self):
        for i, j in free_cells(10):
            assert 0 < j < i

    def test_row_major_order(self):
        for n in (1, 2, 3, 8, 17):
            assert free_cells(n) == [
                (i, j) for i in range(2, n) for j in range(1, i)
            ]

    def test_returns_a_fresh_list(self):
        cells = free_cells(6)
        cells.clear()
        assert len(free_cells(6)) == num_free_cells(6)


class TestPopulationCodec:
    """The population forms against the per-graph ones, graph for graph."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(1, 20),
        batch=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
            min_size=1, max_size=10,
        ),
    )
    def test_property_matches_per_graph_codec(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        bits = np.stack([rng.random(num_free_cells(n)) < d for d in batch])
        expected = [bits_to_graph(row, n) for row in bits]
        assert bits_to_graphs(bits, n) == expected
        grids = bits_to_grids(bits, n)
        np.testing.assert_array_equal(grids, np.stack([g.grid for g in expected]))
        np.testing.assert_array_equal(
            grids_to_bits(grids), np.stack([graph_to_bits(g) for g in expected])
        )

    def test_bits_shape_validated(self):
        with pytest.raises(ValueError):
            bits_to_grids(np.zeros((2, 5), dtype=bool), 16)
        with pytest.raises(ValueError):
            bits_to_grids(np.zeros(num_free_cells(8), dtype=bool), 8)


class TestRoundtrips:
    def test_legal_graph_roundtrips_through_bits(self):
        g = sklansky(16)
        assert bits_to_graph(graph_to_bits(g), 16) == g

    def test_bits_length_validated(self):
        with pytest.raises(ValueError):
            bits_to_graph(np.zeros(5, dtype=bool), 16)

    def test_grid_roundtrip(self):
        g = sklansky(8)
        grid = graph_to_grid(g)
        assert grid.dtype == np.float64
        assert grid_to_graph(grid) == g

    def test_grid_thresholding(self):
        g = sklansky(8)
        noisy = graph_to_grid(g) * 0.8 + 0.1  # 1 -> 0.9, 0 -> 0.1
        assert grid_to_graph(noisy, threshold=0.5) == g

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), n=st.integers(3, 16), density=st.floats(0, 1))
    def test_property_random_graphs_roundtrip(self, seed, n, density):
        rng = np.random.default_rng(seed)
        g = random_graph(n, rng, density)
        assert g.is_legal()
        assert bits_to_graph(graph_to_bits(g), n) == g


class TestRandomGraph:
    def test_density_zero_gives_ripple(self):
        rng = np.random.default_rng(0)
        g = random_graph(8, rng, density=0.0)
        assert g.node_count() == 7

    def test_density_controls_size(self):
        rng = np.random.default_rng(1)
        sparse = np.mean([random_graph(12, rng, 0.05).node_count() for _ in range(20)])
        dense = np.mean([random_graph(12, rng, 0.6).node_count() for _ in range(20)])
        assert dense > sparse
