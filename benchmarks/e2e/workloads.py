"""The end-to-end benchmark's workloads: fixed-budget Algorithm-1 runs.

Every workload is one :class:`~repro.api.ExperimentSpec` on the adder
task (nangate45, omega = 0.66) with paper-default method configs, run
through the public API (``ExperimentSpec`` -> ``Session.from_spec`` ->
``Session.run``).  Each repeat's ``base_seed`` comes from the
benchmark's ``--seed`` (:func:`repeat_seed`) and the experiment seeds
from that the harness way (``ExperimentSpec.seed_list``), so one
``--seed`` always gives the same runs.

Each definition records why the workload exists (which layer it
stresses, which it bypasses) and the baseline measured when it was
defined.  Baselines are single runs on a 2-CPU x86 virtual machine
shared with other tenants: first the figures the workload was sized
from, then per-repeat figures of this benchmark (``step_ms`` is wall
time per inner-loop step, see :func:`inner_steps`).

This module imports nothing from ``repro`` at import time, so the
benchmark's parent process stays light; :func:`build_spec` imports the
API lazily, inside the timed set-up of a repeat.
"""

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["Workload", "WORKLOADS", "build_spec", "inner_steps", "repeat_seed"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    method: str
    n: int
    budget: int
    num_seeds: int
    workers: int
    parallel_seeds: int
    #: run through a durable run directory (``Session.run(out_dir=...)``),
    #: the way ``python -m repro run --out-dir`` does.
    durable: bool
    params: Dict[str, Any] = field(default_factory=dict)
    #: the workload whose records must be bit-identical to this one's
    #: for the same seed (same method, task and budget; only the
    #: execution backend differs).
    same_records_as: str = ""


WORKLOADS: Dict[str, Workload] = {
    # Training is most of the work: the compiled step and recorded loop,
    # the conv kernels, and the durable per-epoch checkpoints and
    # per-simulation history appends.  This is where kernel, checkpoint
    # and initial-dataset work shows.
    # Baseline: 14.0 s wall, training 12.8 s (91%), about 1.6 s of it
    # checkpoint writes (the same run in memory: 12.1-13.2 s).
    # This benchmark: 5.9-14.2 s wall over 13 seeds, because the number
    # of acquisition rounds (3 to 7 here, 10 seen) and with it the number
    # of training steps (130 to 330) depends on the seed; 37-46 ms per
    # training step; 48.4 ms median over ten seeds with steal removed.
    "vae16": Workload(
        name="vae16",
        why="CircuitVAE 16-bit, budget 256, durable run dir: training, "
        "compiled step/loop, conv kernels and checkpoints dominate",
        method="CircuitVAE",
        n=16,
        budget=256,
        num_seeds=1,
        workers=1,
        parallel_seeds=1,
        durable=True,
    ),
    # The only workload where stacked replica training (core.replicas /
    # nn.vmap, stacked_replicas=2) runs and where seed threads contend.
    # In memory, so it is the no-change side for checkpoint work.
    # Baseline: 19.9-21.6 s wall, against 18.5 s for the same two seeds
    # run one after the other.  Known divergence: under stacking, seed 0
    # ended at best cost 5.416 against 5.372 when the same seed ran
    # alone.  Only each seed's first training round stacks; the pool
    # hands later rounds to solo training, so core.replicas.calls is 1.
    # This benchmark: 13.1-27.0 s wall, 48-60 ms per training step of
    # the two seeds together; 58.4 ms median with steal removed.
    "vae16-x2": Workload(
        name="vae16-x2",
        why="CircuitVAE 16-bit, 2 seeds on 2 threads in memory: stacked "
        "replica training and seed-thread contention, no checkpoints",
        method="CircuitVAE",
        n=16,
        budget=256,
        num_seeds=2,
        workers=1,
        parallel_seeds=2,
        durable=False,
    ),
    # Synthesis dominates (about 82%; 1803 of 2000 designs through
    # synth.incremental) and opt.variation is about 17%.  No nn code
    # runs, so it is the no-change side for every training change.
    # Not in BENCHMARK.json: this single-threaded, interpreter-heavy run
    # follows the host's speed most closely (8.5-15.7 s over ten seeds
    # in one 20-minute window, a spread of 0.30 against the 0.25 bound),
    # and its layers stay measured on vae16 and ga32-pool.  Run it by
    # hand next to ga32-pool to check that their records are identical.
    # Baseline: 8.7-13.1 s wall; REPRO_INCREMENTAL_EVAL=0 measured
    # 12.59 s against 12.42 s with it on (single runs).  This benchmark:
    # 11.2-15.2 s wall, 32 generations, 351-476 ms per generation.
    "ga32": Workload(
        name="ga32",
        why="GA pop 64, 32-bit, budget 2000, one process: incremental and "
        "batched synthesis plus variation, no nn code",
        method="GA",
        n=32,
        budget=2000,
        num_seeds=1,
        workers=1,
        parallel_seeds=1,
        durable=False,
        params={"population_size": 64},
        same_records_as="ga32-pool",
    ),
    # The only workload where engine.pool runs: vectorized chunks in
    # worker processes, incremental synthesis bypassed.  Variation is
    # about a third of its wall time.  No nn code runs, so it is the
    # no-change side for every training change.  Same records as ga32
    # (bit-identical by construction).
    # Baseline: 7.1-8.1 s wall.  This benchmark: 6.9-8.1 s wall
    # (216-253 ms per generation), 10.6-11.8 s during bursts of load
    # from other tenants of the machine; 251.8 ms per generation median
    # over ten seeds with steal removed.
    "ga32-pool": Workload(
        name="ga32-pool",
        why="GA pop 64, 32-bit, budget 2000, 2 synthesis worker processes: "
        "engine.pool chunked vectorized synthesis and variation, no nn code",
        method="GA",
        n=32,
        budget=2000,
        num_seeds=1,
        workers=2,
        parallel_seeds=1,
        durable=False,
        params={"population_size": 64},
        same_records_as="ga32",
    ),
}


def build_spec(workload: Workload, seed: int):
    """The workload's :class:`~repro.api.ExperimentSpec` for ``seed``."""
    from repro.api import EngineSpec, ExperimentSpec, MethodSpec, TaskSpec

    return ExperimentSpec(
        name=f"e2e-{workload.name}",
        task=TaskSpec(circuit_type="adder", n=workload.n, delay_weight=0.66,
                      library="nangate45"),
        methods=(MethodSpec(workload.method, params=dict(workload.params)),),
        budget=workload.budget,
        num_seeds=workload.num_seeds,
        base_seed=seed,
        engine=EngineSpec(
            workers=workload.workers, parallel_seeds=workload.parallel_seeds
        ),
    )


def inner_steps(workload: Workload, telemetry: dict) -> int:
    """Steps of the method's inner loop one run took, from its telemetry.

    CircuitVAE: training minibatch steps, compiled or eager -- training
    is about 90% of its wall time, and how many steps a fixed budget
    needs depends on the seed.  GA: generations.
    """
    if workload.method == "CircuitVAE":
        return telemetry["train_replays"] + telemetry["train_fallbacks"]
    return telemetry["stage_calls"].get("variation", 0)


def repeat_seed(seed: int, index: int) -> int:
    """The experiment base seed of repeat ``index`` of a ``--seed`` run.

    Each ``--seed`` owns a stream of experiment seeds, so repeats within
    one run average over seeds; a seed recurs only in another run.
    """
    return seed * 1000 + index
