"""Tests for the genetic-algorithm baseline (repro.baselines.ga)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GAConfig, GeneticAlgorithm
from repro.circuits import adder_task
from repro.opt import CircuitSimulator, RunRecord
from repro.opt.variation import crossover, mutate, random_population


def per_child_generation(config, population, fitness, rng):
    """The reference: breed one child at a time through the single-graph
    operators, each legalizing its own result."""

    def tournament():
        contenders = rng.integers(0, len(population), size=config.tournament_size)
        return population[int(min(contenders, key=lambda i: fitness[i]))]

    elite_idx = np.argsort(fitness)[: config.elite_count]
    children = [population[int(i)] for i in elite_idx]
    while len(children) < config.population_size:
        parent_a = tournament()
        if rng.random() < config.crossover_prob:
            parent_b = tournament()
            child = crossover(parent_a, parent_b, rng)
        else:
            child = parent_a
        children.append(mutate(child, rng, rate=config.mutation_rate))
    return children


class PerChildGA(GeneticAlgorithm):
    """The GA with the reference generation in place of :meth:`breed`."""

    def breed(self, population, fitness, rng):
        return per_child_generation(self.config, population, fitness, rng)


class TestConfig:
    def test_elite_validation(self):
        with pytest.raises(ValueError):
            GeneticAlgorithm(GAConfig(population_size=4, elite_count=4))


class TestRun:
    def test_exhausts_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=60)
        GeneticAlgorithm(GAConfig(population_size=12)).run(sim, np.random.default_rng(0))
        assert sim.num_simulations == 60

    def test_improves_over_first_generation(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=120)
        ga = GeneticAlgorithm(GAConfig(population_size=12))
        best = ga.run(sim, np.random.default_rng(1))
        first_gen_best = min(e.cost for e in sim.history[:12])
        assert best.cost <= first_gen_best
        assert ga.generation > 1

    def test_classics_seeded(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=20)
        GeneticAlgorithm(GAConfig(population_size=10)).run(sim, np.random.default_rng(2))
        from repro.prefix import sklansky

        assert any(e.graph == sklansky(8) for e in sim.history)

    def test_no_classics_option(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=15)
        GeneticAlgorithm(
            GAConfig(population_size=10, seed_with_classics=False)
        ).run(sim, np.random.default_rng(3))
        from repro.prefix import sklansky, kogge_stone

        graphs = {e.graph for e in sim.history[:10]}
        assert not {sklansky(8), kogge_stone(8)} <= graphs

    def test_reproducible(self):
        def run(seed):
            sim = CircuitSimulator(adder_task(8, 0.66), budget=40)
            GeneticAlgorithm(GAConfig(population_size=8)).run(sim, np.random.default_rng(seed))
            return [e.cost for e in sim.history]

        assert run(5) == run(5)


class TestPopulationBreeding:
    """One batched legalization pass per generation, bit-identical to
    breeding child by child."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10 ** 6),
        n=st.integers(3, 16),
        size=st.integers(2, 20),
        elites=st.integers(0, 3),
        tournament=st.integers(1, 4),
        crossover_prob=st.sampled_from([0.0, 0.7, 1.0]),
        rate=st.sampled_from([0.0, 0.02, 0.3]),
        ties=st.booleans(),
    )
    def test_property_generation_equals_per_child_loop(
        self, seed, n, size, elites, tournament, crossover_prob, rate, ties
    ):
        config = GAConfig(
            population_size=size,
            tournament_size=tournament,
            crossover_prob=crossover_prob,
            mutation_rate=rate,
            elite_count=min(elites, size - 1),
        )
        setup = np.random.default_rng(seed)
        population = random_population(n, size, setup)
        fitness = setup.integers(0, 3, size) if ties else setup.random(size)
        fitness = fitness.astype(np.float64)
        ours, ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        for _ in range(2):
            children = GeneticAlgorithm(config).breed(population, fitness, ours)
            expected = per_child_generation(config, population, fitness, ref)
            assert [g.key() for g in children] == [g.key() for g in expected]
            assert children[: config.elite_count] == expected[: config.elite_count]
            assert ours.bit_generator.state == ref.bit_generator.state
            population = children

    @pytest.mark.parametrize("n, size, budget, seed", [(8, 12, 100, 0), (16, 16, 64, 1)])
    def test_run_records_equal_per_child_run(self, n, size, budget, seed):
        def record(ga_cls):
            sim = CircuitSimulator(adder_task(n, 0.66), budget=budget)
            ga = ga_cls(GAConfig(population_size=size))
            rng = np.random.default_rng(seed)
            ga.run(sim, rng)
            return RunRecord.from_simulator("GA", seed, sim), ga.generation, rng

        ours, generations, rng = record(GeneticAlgorithm)
        ref, ref_generations, ref_rng = record(PerChildGA)
        assert generations == ref_generations > 1
        np.testing.assert_array_equal(ours.costs, ref.costs)
        np.testing.assert_array_equal(ours.areas, ref.areas)
        np.testing.assert_array_equal(ours.delays, ref.delays)
        assert ours.best_graph == ref.best_graph
        assert rng.bit_generator.state == ref_rng.bit_generator.state
