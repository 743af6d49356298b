"""Tests + property tests for legalization (repro.prefix.legalize)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.prefix import (
    PrefixGraph,
    check_adder,
    kogge_stone,
    STRUCTURES,
    legalize,
    legalize_grid,
    legalize_many,
    prune_redundant,
    sklansky,
)


def random_raw_grid(n, rng, density):
    grid = rng.random((n, n)) < density
    return grid


class TestLegalize:
    def test_output_is_legal(self):
        rng = np.random.default_rng(0)
        for density in (0.0, 0.1, 0.5, 1.0):
            g = legalize(random_raw_grid(10, rng, density))
            assert g.is_legal()

    def test_idempotent_on_legal_graphs(self):
        for make in (sklansky, kogge_stone):
            g = make(16)
            again = legalize(g.grid)
            assert again == g

    def test_preserves_existing_nodes(self):
        rng = np.random.default_rng(1)
        raw = random_raw_grid(8, rng, 0.3)
        g = legalize(raw)
        tri = np.tril(np.ones((8, 8), dtype=bool), k=-1)
        assert np.all(g.grid[tri] >= raw[tri])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            legalize_grid(np.zeros((3, 5)))

    def test_empty_grid_becomes_ripple(self):
        g = legalize(np.zeros((6, 6)))
        assert g.node_count() == 5  # ripple-carry: only column 0

    def test_full_grid_is_legal(self):
        g = legalize(np.ones((8, 8)))
        assert g.is_legal()
        # Full lower triangle is a legal "maximal" graph.
        assert g.node_count() == 8 * 7 // 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 14), density=st.floats(0.0, 1.0))
    def test_property_legal_and_functional(self, seed, n, density):
        """Any legalized grid is legal AND computes correct sums."""
        rng = np.random.default_rng(seed)
        g = legalize(random_raw_grid(n, rng, density))
        assert g.is_legal()
        assert check_adder(g, rng, trials=16)


#: a density per grid: the all-off and all-on extremes, or anything between.
densities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


class TestLegalizeMany:
    """The batched sweep against stacked per-grid legalization."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(1, 24),
        batch=st.lists(densities, min_size=1, max_size=12),
    )
    def test_property_equals_stacked_legalize_grid(self, seed, n, batch):
        """Raw grids, junk above the diagonal included, any batch size."""
        rng = np.random.default_rng(seed)
        grids = np.stack([random_raw_grid(n, rng, d) for d in batch])
        expected = np.stack([legalize_grid(grid) for grid in grids])
        out = legalize_many(grids)
        assert out.dtype == bool
        np.testing.assert_array_equal(out, expected)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(1, 24),
        batch=st.lists(densities, min_size=1, max_size=12),
    )
    def test_property_legal_grids_come_back_unchanged(self, seed, n, batch):
        rng = np.random.default_rng(seed)
        legal = np.stack(
            [legalize_grid(random_raw_grid(n, rng, d)) for d in batch]
            + [make(n).grid for make in STRUCTURES.values()]
        )
        np.testing.assert_array_equal(legalize_many(legal), legal)

    def test_accepts_real_valued_grids(self):
        """Nonzero means present, as in legalize_grid."""
        rng = np.random.default_rng(4)
        grids = rng.random((5, 9, 9)) * (rng.random((5, 9, 9)) < 0.3)
        np.testing.assert_array_equal(
            legalize_many(grids), np.stack([legalize_grid(g) for g in grids])
        )

    def test_rejects_non_batched_input(self):
        with pytest.raises(ValueError):
            legalize_many(np.zeros((4, 4)))
        with pytest.raises(ValueError):
            legalize_many(np.zeros((2, 3, 4)))


class TestPrune:
    def test_prune_never_adds(self):
        rng = np.random.default_rng(2)
        g = legalize(random_raw_grid(12, rng, 0.5))
        p = prune_redundant(g)
        assert p.node_count() <= g.node_count()
        assert np.all(g.grid >= p.grid)

    def test_prune_preserves_function(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = legalize(random_raw_grid(10, rng, rng.random()))
            p = prune_redundant(g)
            assert p.is_legal()
            assert check_adder(p, rng, trials=32)

    def test_prune_is_identity_on_lean_structures(self):
        # Sklansky has no dead nodes: every span feeds an output.
        g = sklansky(16)
        assert prune_redundant(g) == g
