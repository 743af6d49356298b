"""Tests for the CircuitVAE outer loop (repro.core.algorithm)."""

import numpy as np
import pytest

from repro.circuits import adder_task
from repro.core import (
    CircuitVAEConfig,
    CircuitVAEOptimizer,
    SearchConfig,
    TrainConfig,
    build_initial_dataset,
)
from repro.opt import CircuitSimulator


def small_config(**overrides):
    base = dict(
        latent_dim=6,
        base_channels=4,
        hidden_dim=32,
        initial_samples=24,
        first_round_epochs=8,
        train=TrainConfig(epochs=4, batch_size=16),
        search=SearchConfig(num_parallel=8, num_steps=20, capture_every=10),
    )
    base.update(overrides)
    return CircuitVAEConfig(**base)


class TestInitialDataset:
    def test_contains_classics_and_respects_size(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=100)
        ds = build_initial_dataset(sim, 30, np.random.default_rng(0))
        assert len(ds) == 30
        from repro.prefix import sklansky

        assert sklansky(8) in ds

    def test_stops_at_budget(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=10)
        ds = build_initial_dataset(sim, 50, np.random.default_rng(1))
        assert len(ds) == 10
        assert sim.exhausted()


def per_graph_initial_dataset(simulator, size, rng, dataset=None):
    """The seed phase as it was: one query per seed graph."""
    from repro.core import CircuitDataset
    from repro.opt import BudgetExhausted
    from repro.opt.variation import mutate, random_population
    from repro.prefix.structures import STRUCTURES

    dataset = dataset or CircuitDataset()
    n = simulator.task.n
    seeds = [builder(n) for builder in STRUCTURES.values()]
    seeds += random_population(n, max(size // 4, 4), rng)
    try:
        for graph in seeds:
            dataset.add_evaluations([simulator.query(graph)])
            if len(dataset) >= size:
                break
        while len(dataset) < size:
            idx = rng.choice(len(dataset), p=dataset.weights())
            child = mutate(dataset.graphs[idx], rng, rate=0.03)
            dataset.add_evaluations([simulator.query(child)])
    except BudgetExhausted:
        pass
    return dataset


class TestInitialDatasetBatchedSeeds:
    """The batched seed phase must reproduce the per-graph records."""

    @staticmethod
    def records(sim, ds, rng):
        history = [(e.graph.key(), e.cost, e.area_um2, e.delay_ns) for e in sim.history]
        return history, [g.key() for g in ds.graphs], ds.costs_list, rng.random()

    @pytest.mark.parametrize(
        "size, budget, prefill",
        [
            (1, 100, 0),  # the first seed alone
            (3, 100, 0),  # stops inside the classical structures
            (12, 100, 0),  # runs into the random seeds
            (30, 100, 0),  # seeds, then the mutation phase
            (30, 5, 0),  # budget runs out among the seeds
            (30, 100, 2),  # a pre-filled dataset already holds seeds
            (4, 100, 6),  # pre-filled past the size: one seed still queried
        ],
    )
    @pytest.mark.parametrize("engine", [False, True])
    def test_matches_per_graph_path(self, size, budget, prefill, engine):
        from repro.core import CircuitDataset
        from repro.engine import EvaluationEngine
        from repro.prefix.structures import STRUCTURES

        task = adder_task(8, 0.66)
        runs = []
        for build in (build_initial_dataset, per_graph_initial_dataset):
            with EvaluationEngine() as backend:
                sim = (
                    backend.simulator(task, budget=budget)
                    if engine
                    else CircuitSimulator(task, budget=budget)
                )
                ds = CircuitDataset()
                for builder in list(STRUCTURES.values())[:prefill]:
                    ds.add(builder(8), 0.0)
                rng = np.random.default_rng(7)
                ds = build(sim, size, rng, dataset=ds)
                runs.append(self.records(sim, ds, rng))
        assert runs[0] == runs[1]


class TestOptimizer:
    def test_full_run_exhausts_budget_and_improves(self):
        task = adder_task(8, 0.66)
        sim = CircuitSimulator(task, budget=80)
        optimizer = CircuitVAEOptimizer(small_config())
        best = optimizer.run(sim, np.random.default_rng(2))
        assert sim.num_simulations == 80
        # Must improve on the best classical seed.
        from repro.prefix import STRUCTURES

        classic_best = min(task.cost(task.synthesize(b(8))) for b in STRUCTURES.values())
        assert best.cost <= classic_best

    def test_traces_recorded(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=60)
        optimizer = CircuitVAEOptimizer(small_config())
        optimizer.run(sim, np.random.default_rng(3))
        assert optimizer.traces  # at least one search round happened
        assert optimizer.dataset is not None and len(optimizer.dataset) > 0

    def test_seeded_runs_are_reproducible(self):
        def run(seed):
            sim = CircuitSimulator(adder_task(8, 0.66), budget=50)
            CircuitVAEOptimizer(small_config()).run(sim, np.random.default_rng(seed))
            return [e.cost for e in sim.history]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_budget_smaller_than_initial_dataset(self):
        sim = CircuitSimulator(adder_task(8, 0.66), budget=5)
        best = CircuitVAEOptimizer(small_config()).run(sim, np.random.default_rng(4))
        assert sim.num_simulations == 5
        assert best.cost > 0

    def test_method_name(self):
        assert CircuitVAEOptimizer().method_name == "CircuitVAE"
