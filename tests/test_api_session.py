"""End-to-end tests for Session.run and the python -m repro CLI."""

import os

import numpy as np
import pytest

from repro.api import ExperimentSpec, MethodSpec, Session, TaskSpec, load_spec
from repro.api.cli import bench_presets, main
from repro.baselines import GAConfig, GeneticAlgorithm, RandomSearch
from repro.circuits import adder_task
from repro.opt import load_records
from repro.opt.runner import _run_seed_grid

TINY_SPEC_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "examples", "specs", "tiny.json",
)


def assert_bit_identical(record, reference):
    assert record.method == reference.method
    assert record.task_name == reference.task_name
    assert record.seed == reference.seed
    np.testing.assert_array_equal(record.costs, reference.costs)
    np.testing.assert_array_equal(record.areas, reference.areas)
    np.testing.assert_array_equal(record.delays, reference.delays)
    assert record.best_graph == reference.best_graph


def direct_reference_records(spec):
    """The same grid, hand-assembled through the bare seed-grid runner
    against a plain serial simulator (no engine, no spec)."""
    factories = {
        "GA": lambda seed: GeneticAlgorithm(GAConfig(population_size=8)),
        "Random": lambda seed: RandomSearch(),
    }
    task = adder_task(spec.task.n, spec.task.delay_weight)
    return {
        name: _run_seed_grid(
            factory, task, spec.budget, spec.seed_list(), method_name=name
        )
        for name, factory in factories.items()
    }


class TestSessionRun:
    # A 4-bit task: tiny, but the design space holds only 7 unique legal
    # graphs, so budgets must stay below that.
    def spec(self):
        return ExperimentSpec(
            name="session-e2e",
            task=TaskSpec(circuit_type="adder", n=4, delay_weight=0.66),
            methods=(
                MethodSpec("GA", params={"population_size": 8}),
                MethodSpec("Random"),
            ),
            budget=6,
            num_seeds=2,
            curve_points=3,
        )

    def test_records_bit_identical_to_direct_seed_grid(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        reference = direct_reference_records(spec)
        assert set(result.records) == set(reference)
        for name in reference:
            assert len(result.records[name]) == len(reference[name])
            for record, ref in zip(result.records[name], reference[name]):
                assert_bit_identical(record, ref)

    def test_result_bundles_curves_and_telemetry(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        assert result.budgets() == [2, 4, 6]
        curves = result.curves()
        assert set(curves) == {"GA", "Random"}
        assert curves["GA"]["median"].shape == (3,)
        # result telemetry is the sum of the per-record snapshots, so it
        # includes the per-run-only counters (queries, run_hits) too
        assert result.telemetry["synth_calls"] > 0
        assert result.telemetry["queries"] > 0
        assert result.records["GA"][0].telemetry is not None
        assert result.records["GA"][0].telemetry["queries"] > 0
        assert result.telemetry["queries"] == sum(
            r.telemetry["queries"] for rs in result.records.values() for r in rs
        )
        assert set(result.best_costs()) == {"GA", "Random"}

    def test_result_save_round_trips(self, tmp_path):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        path = str(tmp_path / "records.json")
        result.save(path)
        loaded = load_records(path)
        assert len(loaded) == len(result.all_records())
        for restored, original in zip(loaded, result.all_records()):
            assert_bit_identical(restored, original)

    def test_methods_share_the_session_cache(self):
        spec = self.spec()
        with Session() as session:
            result = session.run(spec)
        # 2 methods x 2 seeds all explore the same 6-design space: the
        # engine synthesizes each unique design exactly once.
        assert result.telemetry["synth_calls"] == spec.budget

    def test_telemetry_is_per_run_on_a_reused_session(self):
        spec = self.spec()
        with Session() as session:
            first = session.run(spec)
            second = session.run(spec)
        assert first.telemetry["synth_calls"] == spec.budget
        # the second run is served entirely from the session cache: its
        # delta shows zero synthesis, not the cumulative total.
        assert second.telemetry["synth_calls"] == 0
        assert second.telemetry["memory_hits"] > 0

    def test_parallel_seeds_identical(self):
        spec = self.spec()
        with Session() as serial_session:
            serial = serial_session.run(spec)
        with Session(parallel_seeds=2) as parallel_session:
            parallel = parallel_session.run(spec)
        for name in serial.records:
            for a, b in zip(serial.records[name], parallel.records[name]):
                assert_bit_identical(a, b)


class TestCLI:
    def test_run_tiny_spec_bit_identical(self, tmp_path, capsys):
        # The acceptance path: python -m repro run examples/specs/tiny.json
        out = str(tmp_path / "rec.jsonl")
        assert main(["run", TINY_SPEC_PATH, "--out", out]) == 0
        assert "records written" in capsys.readouterr().out

        spec = load_spec(TINY_SPEC_PATH)
        reference = direct_reference_records(spec)
        loaded = load_records(out)
        by_method = {}
        for record in loaded:
            by_method.setdefault(record.method, []).append(record)
        assert set(by_method) == set(reference)
        for name in reference:
            for record, ref in zip(by_method[name], reference[name]):
                assert_bit_identical(record, ref)

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        output = capsys.readouterr().out
        for name in ("CircuitVAE", "GA", "RL", "BO", "Random"):
            assert name in output
        assert "population_size" in output

    def test_methods_json(self, capsys):
        import json

        assert main(["methods", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["GA"]["config"] == "GAConfig"

    def test_bench_list_and_tiny(self, tmp_path, capsys):
        assert main(["bench", "--list"]) == 0
        assert "tiny" in capsys.readouterr().out
        out = str(tmp_path / "bench.json")
        assert main(["bench", "tiny", "--out", out]) == 0
        capsys.readouterr()
        assert len(load_records(out)) == 4  # 2 methods x 2 seeds

    def test_bench_presets_validate(self):
        for name, spec in bench_presets().items():
            assert isinstance(spec, ExperimentSpec)
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_checked_in_tiny_json_matches_tiny_preset(self):
        # CI smoke, SKILL.md and the bit-identity tests all assume these
        # two describe the same experiment — keep them pinned together.
        assert load_spec(TINY_SPEC_PATH) == bench_presets()["tiny"]

    def test_invalid_flag_values_get_friendly_errors(self, capsys):
        assert main(["run", TINY_SPEC_PATH, "--workers", "0"]) == 2
        assert "workers" in capsys.readouterr().err
        assert main(["bench", "tiny", "--parallel-seeds", "0"]) == 2
        assert "parallel_seeds" in capsys.readouterr().err

    def test_bad_inputs_exit_nonzero(self, tmp_path, capsys):
        assert main(["bench", "no-such-preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "unknown_key": 1}')
        assert main(["run", str(bad)]) == 2
        assert "unknown" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "missing.json")]) == 2
