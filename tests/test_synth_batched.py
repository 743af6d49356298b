"""Bit-identity tests for the vectorized batched synthesis fast path.

The contract of :mod:`repro.synth.batched` is exact equality with the
scalar per-graph flow on **every** ``PhysicalResult`` field — not
approximate equality.  The engine's caching and the paper's budget
accounting both rely on the two paths being interchangeable.
"""

from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import unique_random_graphs as unique_graphs

from repro.circuits import (
    CircuitTask,
    adder_task,
    gray_to_binary_task,
    lzd_task,
    realistic_adder_task,
)
from repro.engine import EvaluationEngine, SynthesisPool
from repro.opt.variation import mutate
from repro.prefix import (
    STRUCTURES,
    bits_to_graph,
    brent_kung,
    kogge_stone,
    num_free_cells,
    random_graph,
    sklansky,
)
from repro.prefix.legalize import legalize
from repro.synth import SynthesisOptions, scaled_library, synthesize_many


def assert_results_identical(task, graphs):
    scalar = [task.synthesize(graph) for graph in graphs]
    batched = task.evaluate_many(graphs)
    assert len(scalar) == len(batched)
    for i, (a, b) in enumerate(zip(scalar, batched)):
        assert a.area_um2 == b.area_um2, i
        assert a.delay_ns == b.delay_ns, i
        assert a.num_gates == b.num_gates, i
        assert a.num_buffers == b.num_buffers, i
        assert a.wirelength_um == b.wirelength_um, i
        assert a.cell_counts == b.cell_counts, i
        assert a.critical_output == b.critical_output, i


def mutant_population(n, total, seed=42, flips=(1, 3)):
    """Classic parents + legalized bit-flip mutants: the GA/BO shape."""
    bases = [sklansky(n), brent_kung(n), kogge_stone(n)]
    rng = np.random.default_rng(seed)
    graphs = list(bases[: min(3, total)])
    seen = {g.key() for g in graphs}
    while len(graphs) < total:
        base = graphs[int(rng.integers(0, len(bases)))]
        grid = base.grid.copy()
        for _ in range(int(rng.integers(*flips))):
            i = int(rng.integers(2, n))
            j = int(rng.integers(1, i))
            grid[i, j] ^= True
        graph = legalize(grid)
        if graph.key() not in seen:
            seen.add(graph.key())
            graphs.append(graph)
    return graphs


def all_graphs(n):
    """Every legal graph of a tiny width (one at n=2, two at n=3)."""
    graphs = {}
    for bits in product([False, True], repeat=num_free_cells(n)):
        graph = bits_to_graph(np.array(bits, dtype=bool), n)
        graphs[graph.key()] = graph
    return list(graphs.values())


def flow_task(circuit_type, n, **options):
    return CircuitTask(
        name=f"{circuit_type}{n}",
        n=n,
        delay_weight=0.66,
        circuit_type=circuit_type,
        options=SynthesisOptions(**options),
    )


class TestBitIdentity:
    # n=4 has only 7 unique legal designs, so its population is smaller.
    @pytest.mark.parametrize(
        "n,count,population",
        [
            pytest.param(4, 6, unique_graphs, id="4-6"),
            pytest.param(8, 8, unique_graphs, id="8-8"),
            pytest.param(12, 8, unique_graphs, id="12-8"),
            pytest.param(8, 10, mutant_population, id="mutant-8"),
            pytest.param(16, 10, mutant_population, id="mutant-16"),
            pytest.param(16, 8, unique_graphs, id="random-16"),
        ],
    )
    def test_adder_population(self, n, count, population):
        assert_results_identical(adder_task(n, 0.66), population(n, count))

    def test_gray_population(self):
        assert_results_identical(gray_to_binary_task(n=8), unique_graphs(8, 8))

    def test_lzd_population(self):
        assert_results_identical(lzd_task(n=8), unique_graphs(8, 8))

    def test_scaled_library(self):
        task = adder_task(8, 0.5, library=scaled_library("8nm"))
        assert_results_identical(task, unique_graphs(8, 6))

    def test_datapath_io_timing(self):
        # Per-bit arrivals/margins change the critical endpoint choice.
        assert_results_identical(realistic_adder_task(8, 0.6), unique_graphs(8, 6))

    def test_andor_mapping_style(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(mapping_style="andor")
        )
        assert_results_identical(task, unique_graphs(8, 6))

    @pytest.mark.parametrize("max_fanout", [2, 3])
    def test_flow_options_fanout(self, max_fanout):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(max_fanout=max_fanout)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    @pytest.mark.parametrize("passes", [0, 1, 2])
    def test_flow_options_sizing_passes(self, passes):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(sizing_passes=passes)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    def test_no_area_recovery(self):
        task = replace(
            adder_task(8, 0.66), options=SynthesisOptions(area_recovery=False)
        )
        assert_results_identical(task, unique_graphs(8, 6))

    def test_dense_graphs_with_multi_level_buffering(self):
        # Dense 24-bit graphs push fanouts past max_fanout^2 so buffer
        # trees get more than one level, the trickiest ordering case.
        from repro.prefix import unique_random_graphs

        graphs = unique_random_graphs(
            24, 4, np.random.default_rng(11), density_low=0.7, density_high=0.95
        )
        assert_results_identical(adder_task(24, 0.66), graphs)

    def test_single_graph_and_duplicate_free_structures(self):
        task = adder_task(8, 0.66)
        assert_results_identical(task, [sklansky(8)])

    @pytest.mark.parametrize("circuit_type", ["adder", "gray", "lzd"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_widths(self, circuit_type, n):
        task = flow_task(circuit_type, n)
        assert_results_identical(task, all_graphs(n))
        for graph in all_graphs(n):
            assert_results_identical(task, [graph])

    @pytest.mark.parametrize("circuit_type", ["adder", "gray", "lzd"])
    @pytest.mark.parametrize("style", ["aoi", "andor"])
    @pytest.mark.parametrize("max_fanout", [2, 4])
    @pytest.mark.parametrize("passes", [0, 6])
    def test_batch_of_one(self, circuit_type, style, max_fanout, passes):
        # A single graph takes the same vectorized path as a population.
        task = flow_task(
            circuit_type, 16, mapping_style=style, max_fanout=max_fanout,
            sizing_passes=passes,
        )
        for graph in (sklansky(16), brent_kung(16)):
            assert_results_identical(task, [graph])

    # Populations that share most of their structure with a few classic
    # parents, the shape GA and BO acquisitions produce.
    @pytest.mark.parametrize(
        "make_task,n,count",
        [
            pytest.param(lambda: gray_to_binary_task(n=8), 8, 8, id="gray"),
            pytest.param(lambda: lzd_task(n=8), 8, 8, id="lzd"),
            pytest.param(
                lambda: adder_task(8, 0.5, library=scaled_library("8nm")), 8, 8,
                id="scaled-library",
            ),
            pytest.param(
                lambda: realistic_adder_task(8, 0.6), 8, 8, id="datapath-io"
            ),
            pytest.param(
                lambda: flow_task("adder", 8, mapping_style="andor"), 8, 8,
                id="andor",
            ),
            # Tight limits on 12-bit mutants grow buffer trees deeper than
            # max_fanout**2 sinks, which the builder handles per graph.
            pytest.param(
                lambda: flow_task("adder", 12, max_fanout=2), 12, 6, id="fanout-2"
            ),
            pytest.param(
                lambda: flow_task("adder", 12, max_fanout=3), 12, 6, id="fanout-3"
            ),
            pytest.param(
                lambda: flow_task("adder", 8, sizing_passes=0), 8, 6,
                id="sizing-passes-0",
            ),
        ],
    )
    def test_mutant_population(self, make_task, n, count):
        assert_results_identical(make_task(), mutant_population(n, count))

    def test_empty_batch(self):
        assert adder_task(8, 0.66).evaluate_many([]) == []


@st.composite
def shared_populations(draw):
    """Legal graphs with controlled sharing: classic structures, their
    mutated descendants (children of children too) and random graphs."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    classics = [build(n) for build in STRUCTURES.values()]
    graphs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["classic", "mutant", "random"]))
        if kind == "mutant" and n > 2:
            parent = draw(st.sampled_from(classics + graphs))
            graphs.append(mutate(parent, rng, rate=draw(st.floats(0.01, 0.3))))
        elif kind == "random":
            graphs.append(random_graph(n, rng, density=draw(st.floats(0.0, 1.0))))
        else:
            graphs.append(draw(st.sampled_from(classics)))
    return graphs


class TestDifferentialFuzz:
    @settings(max_examples=50, deadline=None)
    @given(
        graphs=shared_populations(),
        circuit_type=st.sampled_from(["adder", "gray", "lzd"]),
        style=st.sampled_from(["aoi", "andor"]),
        max_fanout=st.integers(2, 5),
        passes=st.sampled_from([0, 1, 6]),
    )
    def test_population_matches_scalar_flow(
        self, graphs, circuit_type, style, max_fanout, passes
    ):
        task = flow_task(
            circuit_type, graphs[0].n, mapping_style=style,
            max_fanout=max_fanout, sizing_passes=passes,
        )
        assert_results_identical(task, graphs)


class TestTaskValidation:
    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width"):
            adder_task(8, 0.66).evaluate_many([sklansky(16)])

    def test_mixed_width_population_rejected(self):
        with pytest.raises(ValueError, match="width"):
            adder_task(8, 0.66).evaluate_many([sklansky(8), sklansky(16)])

    def test_unknown_circuit_type_rejected(self):
        task = adder_task(8, 0.66)
        with pytest.raises(ValueError, match="circuit type"):
            synthesize_many(unique_graphs(8, 2), task.library, "mystery")


class TestEngineRouting:
    @staticmethod
    def scalar_metrics(task, graphs):
        results = [task.synthesize(g) for g in graphs]
        return [(r.area_um2, r.delay_ns) for r in results]

    def test_pool_vectorized_matches_scalar(self):
        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 6)
        pool = SynthesisPool(workers=1)
        assert pool.execution_mode(len(graphs)) == "vectorized"
        assert pool.synthesize_batch(task, graphs) == self.scalar_metrics(task, graphs)

    def test_pool_chunked_across_workers_matches_scalar(self):
        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 8)
        with SynthesisPool(workers=2) as pool:
            assert pool.synthesize_batch(task, graphs) == self.scalar_metrics(
                task, graphs
            )

    def test_single_design_stays_scalar(self):
        pool = SynthesisPool(workers=1)
        assert pool.execution_mode(1) == "serial"

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_VECTORIZED_EVAL", "0")
        pool = SynthesisPool(workers=1)
        assert pool.execution_mode(64) == "serial"

    def test_engine_population_query_bit_identical(self):
        # End to end: EngineSimulator batches (vectorized) vs the plain
        # serial simulator must agree on every evaluation field.
        from repro.opt import CircuitSimulator

        task = adder_task(16, 0.66)
        graphs = unique_graphs(16, 10)
        serial = CircuitSimulator(task, budget=None).query_many(graphs)
        with EvaluationEngine() as engine:
            batched = engine.simulator(task).query_many(graphs)
        for a, b in zip(serial, batched):
            assert a.cost == b.cost
            assert a.area_um2 == b.area_um2
            assert a.delay_ns == b.delay_ns
            assert a.sim_index == b.sim_index

    def test_population_charged_to_vectorized_stage(self):
        # An in-process batch of >= 2 designs is one vectorized pass, and
        # telemetry charges it to the synthesis_vectorized stage.
        task = adder_task(16, 0.66)
        graphs = mutant_population(16, 8)
        with EvaluationEngine() as engine:
            simulator = engine.simulator(task)
            evaluations = simulator.query_many(graphs)
            telemetry = simulator.telemetry.as_dict()
        assert telemetry["vector_batches"] == 1
        assert telemetry["vector_designs"] == len(graphs)
        stages = telemetry["stage_seconds"]
        assert stages["synthesis_vectorized"] > 0
        assert "synthesis_scalar" not in stages
        reference = [task.synthesize(g) for g in graphs]
        for evaluation, result in zip(evaluations, reference):
            assert evaluation.area_um2 == result.area_um2
            assert evaluation.delay_ns == result.delay_ns
