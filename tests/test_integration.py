"""Cross-module integration tests: the full paper pipeline at tiny scale.

The runner-pipeline tests describe their grids as declarative
:class:`repro.api.ExperimentSpec` values and execute them through
:class:`repro.api.Session`.
"""

import numpy as np
import pytest

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec
from repro.circuits import gray_to_binary_task, realistic_adder_task
from repro.core import CircuitVAEConfig, CircuitVAEOptimizer, SearchConfig, TrainConfig
from repro.opt import CircuitSimulator, aggregate_curves, vae_speedup
from repro.synth import CommercialTool, scaled_library

#: The tiny CircuitVAE both the spec-driven and direct tests run.
VAE_PARAMS = dict(
    latent_dim=6, base_channels=4, hidden_dim=32, initial_samples=20,
    first_round_epochs=8, train=dict(epochs=4, batch_size=16),
    search=dict(num_parallel=8, num_steps=20, capture_every=10),
)


def vae_factory(_seed):
    return CircuitVAEOptimizer(
        CircuitVAEConfig(
            latent_dim=6, base_channels=4, hidden_dim=32, initial_samples=20,
            first_round_epochs=8, train=TrainConfig(epochs=4, batch_size=16),
            search=SearchConfig(num_parallel=8, num_steps=20, capture_every=10),
        )
    )


def run_spec(spec):
    with Session() as session:
        return session.run(spec)


class TestRunnerPipeline:
    def test_session_produces_records(self):
        spec = ExperimentSpec(
            name="vae-tiny",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(MethodSpec("CircuitVAE", params=VAE_PARAMS),),
            budget=50,
            seeds=(0, 1),
        )
        records = run_spec(spec).records["CircuitVAE"]
        assert len(records) == 2
        assert all(r.num_simulations == 50 for r in records)
        assert all(r.method == "CircuitVAE" for r in records)
        assert records[0].costs.tolist() != records[1].costs.tolist()

    def test_multi_method_spec_pairs_seeds(self):
        spec = ExperimentSpec(
            name="pairing",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(
                MethodSpec("GA", params={"population_size": 10}),
                MethodSpec("Random"),
            ),
            budget=40,
            num_seeds=2,
        )
        results = run_spec(spec).records
        assert set(results) == {"GA", "Random"}
        assert results["GA"][0].seed == results["Random"][0].seed

    def test_aggregate_and_speedup_pipeline(self):
        spec = ExperimentSpec(
            name="speedup",
            task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
            methods=(
                MethodSpec("CircuitVAE", params=VAE_PARAMS),
                MethodSpec("GA", params={"population_size": 10}),
            ),
            budget=60,
            seeds=(0, 1),
        )
        records = run_spec(spec).records
        agg = aggregate_curves(records["CircuitVAE"], budgets=[20, 40, 60])
        assert np.all(np.diff(agg["median"]) <= 1e-12)  # monotone improvement
        speedups = vae_speedup(records["CircuitVAE"], records["GA"])
        assert len(speedups) == 2
        assert all(s > 0 for s in speedups)


class TestGrayPipeline:
    def test_vae_on_gray_task(self):
        """Sec. 5.5: the identical machinery optimizes a different circuit
        type by swapping the cell mapping."""
        task = gray_to_binary_task(n=8)
        sim = CircuitSimulator(task, budget=50)
        best = vae_factory(0).run(sim, np.random.default_rng(0))
        assert best.graph.n == 8
        from repro.prefix import check_gray_to_binary

        assert check_gray_to_binary(best.graph, np.random.default_rng(1))


class TestRealisticPipeline:
    def test_search_then_commercial_eval(self):
        """Sec. 5.4: search with the open flow, evaluate with the
        commercial tool — the domain gap must not destroy the design."""
        task = realistic_adder_task(n=8, delay_weight=0.6)
        sim = CircuitSimulator(task, budget=40)
        best = vae_factory(0).run(sim, np.random.default_rng(2))
        tool = CommercialTool(scaled_library("8nm"), task.io_timing)
        commercial = tool.evaluate(best.graph)
        assert commercial.area_um2 > 0 and commercial.delay_ns > 0
        # The commercial flow is differently tuned, so metrics differ.
        assert commercial.delay_ns != pytest.approx(best.delay_ns, rel=1e-9)


class TestSeedIndependence:
    def test_methods_share_simulator_semantics(self):
        """All methods must count simulations identically (unique designs)."""
        for method in (
            MethodSpec("Random"),
            MethodSpec("GA", params={"population_size": 8}),
        ):
            spec = ExperimentSpec(
                name="seed-independence",
                task=TaskSpec(circuit_type="adder", n=8, delay_weight=0.66),
                methods=(method,),
                budget=30,
                seeds=(3,),
            )
            records = run_spec(spec).records[method.display_name]
            assert records[0].num_simulations == 30
