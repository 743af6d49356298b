"""``repro.opt`` — simulator facade, budgets, run records, experiment harness."""

from .optimizer import SearchAlgorithm
from .pareto import dominates, hypervolume_2d, pareto_evaluations, pareto_front
from .results import (
    RunRecord,
    aggregate_curves,
    best_cost_at,
    median_iqr,
    sims_to_reach,
    vae_speedup,
)
from .records_io import (
    append_evaluations,
    load_evaluations,
    load_records,
    save_records,
)
from .runner import GridObserver, RunInterrupted
from .simulator import BudgetExhausted, CircuitSimulator, Evaluation

__all__ = [
    "SearchAlgorithm",
    "dominates",
    "pareto_front",
    "pareto_evaluations",
    "hypervolume_2d",
    "CircuitSimulator",
    "Evaluation",
    "BudgetExhausted",
    "RunRecord",
    "best_cost_at",
    "sims_to_reach",
    "aggregate_curves",
    "median_iqr",
    "vae_speedup",
    "GridObserver",
    "RunInterrupted",
    "save_records",
    "load_records",
    "append_evaluations",
    "load_evaluations",
]
