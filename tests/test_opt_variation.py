"""Tests + property tests for variation operators (repro.opt.variation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.opt.variation import crossover, mutate, mutate_many, random_population
from repro.prefix import bits_to_graph, check_adder, num_free_cells, random_graph, sklansky


class TestMutate:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), rate=st.floats(0.001, 0.5))
    def test_property_children_are_legal_and_functional(self, seed, rate):
        rng = np.random.default_rng(seed)
        parent = random_graph(10, rng, 0.3)
        child = mutate(parent, rng, rate)
        assert child.is_legal()
        assert check_adder(child, rng, trials=8)

    def test_forces_at_least_one_flip(self):
        rng = np.random.default_rng(0)
        parent = sklansky(8)
        # Even at rate 0 a flip is forced (result may legalize back, but
        # usually differs).
        children = [mutate(parent, rng, rate=0.0) for _ in range(20)]
        assert any(c != parent for c in children)


class TestCrossover:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_children_are_legal(self, seed):
        rng = np.random.default_rng(seed)
        a = random_graph(10, rng, 0.25)
        b = random_graph(10, rng, 0.45)
        child = crossover(a, b, rng)
        assert child.is_legal()

    def test_width_mismatch_raises(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            crossover(sklansky(8), sklansky(16), rng)

    def test_identical_parents_reproduce(self):
        rng = np.random.default_rng(2)
        a = sklansky(8)
        assert crossover(a, a, rng) == a


class TestRandomPopulation:
    def test_size_and_legality(self):
        rng = np.random.default_rng(3)
        pop = random_population(12, 10, rng)
        assert len(pop) == 10
        assert all(g.is_legal() for g in pop)

    def test_densities_vary(self):
        rng = np.random.default_rng(4)
        pop = random_population(12, 30, rng, density_range=(0.0, 0.8))
        counts = {g.node_count() for g in pop}
        assert len(counts) > 5


class TestPopulationForms:
    """Population operators against their per-graph forms, draw for draw."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(3, 20),
        size=st.integers(0, 12),
        rate=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    def test_property_mutate_many_equals_per_graph(self, seed, n, size, rate):
        parents = random_population(n, size, np.random.default_rng(seed))
        ours, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        children = mutate_many(parents, ours, rate)
        assert children == [mutate(g, ref, rate) for g in parents]
        assert ours.bit_generator.state == ref.bit_generator.state

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(1, 20),
        size=st.integers(0, 12),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted),
    )
    def test_property_random_population_equals_per_graph(self, seed, n, size, bounds):
        lo, hi = bounds
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        population = random_population(n, size, ours, density_range=(lo, hi))
        expected = []
        for _ in range(size):
            density = ref.uniform(lo, hi)
            expected.append(bits_to_graph(ref.random(num_free_cells(n)) < density, n))
        assert population == expected
        assert ours.bit_generator.state == ref.bit_generator.state
