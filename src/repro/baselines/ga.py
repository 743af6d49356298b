"""Genetic algorithm baseline (paper Sec. 5.2).

"We also compared against a genetic algorithm ('GA') directly optimizing a
bitvector representation of the circuit."  The GA works on the free-cell
bitvector encoding (see :mod:`repro.prefix.encoding`): tournament
selection, uniform crossover, per-bit mutation, elitism, with every child
legalized before synthesis.  The first generations of this GA also serve
as CircuitVAE's initial dataset, exactly as in the paper.

A generation is bred in two phases (:meth:`GeneticAlgorithm.breed`):
every child's random numbers are drawn first, in the per-child order,
then the crossover children and the mutated children are each legalized
in one batched pass.  The result equals breeding child by child with
:func:`~repro.opt.variation.crossover` and
:func:`~repro.opt.variation.mutate`, draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..engine.telemetry import stage
from ..opt.optimizer import SearchAlgorithm
from ..opt.simulator import BudgetExhausted, CircuitSimulator, Evaluation
from ..opt.variation import crossover_mask, mutation_flips, random_population
from ..prefix.encoding import bits_to_graphs, bits_to_grids, grids_to_bits
from ..prefix.graph import PrefixGraph
from ..prefix.metrics import stacked_grids
from ..prefix.structures import STRUCTURES

__all__ = ["GAConfig", "GeneticAlgorithm"]


@dataclass(frozen=True)
class GAConfig:
    """Genetic-algorithm hyperparameters."""

    population_size: int = 32
    tournament_size: int = 3
    crossover_prob: float = 0.7
    mutation_rate: float = 0.02
    elite_count: int = 2
    seed_with_classics: bool = True


class GeneticAlgorithm(SearchAlgorithm):
    """Steady generational GA over circuit bitvectors."""

    method_name = "GA"

    def __init__(self, config: Optional[GAConfig] = None):
        self.config = config or GAConfig()
        if self.config.elite_count >= self.config.population_size:
            raise ValueError("elite_count must be smaller than the population")
        self.generation: int = 0

    # ------------------------------------------------------------------
    def _initial_population(
        self, n: int, rng: np.random.Generator
    ) -> List[PrefixGraph]:
        config = self.config
        population: List[PrefixGraph] = []
        if config.seed_with_classics:
            population.extend(builder(n) for builder in STRUCTURES.values())
        fill = config.population_size - len(population)
        if fill > 0:
            population.extend(random_population(n, fill, rng))
        return population[: config.population_size]

    def _tournament(self, fitness: np.ndarray, rng: np.random.Generator) -> int:
        """Index of the fittest of ``tournament_size`` uniform draws."""
        contenders = rng.integers(0, len(fitness), size=self.config.tournament_size)
        return int(min(contenders, key=lambda i: fitness[i]))

    def breed(
        self,
        population: List[PrefixGraph],
        fitness: np.ndarray,
        rng: np.random.Generator,
    ) -> List[PrefixGraph]:
        """The next generation: the elites, then tournament-bred children.

        Draw phase, per child in order: first tournament, crossover coin,
        and on crossover a second tournament and the crossover mask; then
        the mutation flips.  Legalize phase: the crossover children in one
        pass (mutation reads their legalized bits), then every mutated
        child in one pass.
        """
        config = self.config
        n = population[0].n
        elite_idx = np.argsort(fitness)[: config.elite_count]
        count = config.population_size - len(elite_idx)
        bits = grids_to_bits(stacked_grids(population))
        length = bits.shape[1]
        first = np.empty(count, dtype=np.int64)
        second = np.full(count, -1, dtype=np.int64)
        masks = np.zeros((count, length), dtype=bool)
        flips = np.empty((count, length), dtype=bool)
        for c in range(count):
            first[c] = self._tournament(fitness, rng)
            if rng.random() < config.crossover_prob:
                second[c] = self._tournament(fitness, rng)
                masks[c] = crossover_mask(length, rng)
            flips[c] = mutation_flips(length, rng, config.mutation_rate)
        child_bits = bits[first]
        crossed = second >= 0
        if crossed.any():
            mixed = np.where(masks[crossed], child_bits[crossed], bits[second[crossed]])
            child_bits[crossed] = grids_to_bits(bits_to_grids(mixed, n))
        children = [population[int(i)] for i in elite_idx]
        return children + bits_to_graphs(child_bits ^ flips, n)

    # ------------------------------------------------------------------
    def run(self, simulator: CircuitSimulator, rng: np.random.Generator) -> Evaluation:
        telemetry = simulator.telemetry
        population = self._initial_population(simulator.task.n, rng)
        # Whole generations go through one query_many round-trip, so an
        # engine-backed simulator deduplicates and synthesizes each one
        # in a single vectorized pass.
        evaluations = simulator.query_many(population)
        if not evaluations:
            return simulator.best()
        population = [e.graph for e in evaluations]
        fitness = np.array([e.cost for e in evaluations])

        while not simulator.exhausted():
            self.generation += 1
            with stage(telemetry, "variation"):
                children = self.breed(population, fitness, rng)
            evaluations = simulator.query_many(children)
            if not evaluations:
                break
            # Cache hits return instantly, so some children may be stale
            # duplicates; the next generation's fitness covers whatever
            # actually got evaluated.
            population = [e.graph for e in evaluations]
            fitness = np.array([e.cost for e in evaluations])
        return simulator.best()
