"""End-to-end tests for the streaming run lifecycle.

Covers the acceptance criteria of the job-system API: submit -> events
-> checkpoint -> interrupt -> resume, with resumed records bit-identical
to an uninterrupted run for every registered method and zero new
synthesis for already-recorded evaluations.
"""

import os

import numpy as np
import pytest

from repro.api import (
    Checkpointed,
    EvaluationDone,
    ExperimentFinished,
    ExperimentStarted,
    ExperimentSpec,
    MethodSpec,
    RunDirectory,
    SeedFinished,
    SeedStarted,
    Session,
    TaskSpec,
)
from repro.api.cli import main
from repro.opt import RunInterrupted, load_records


def assert_bit_identical(record, reference):
    """Everything paper-semantics must match exactly; telemetry may not
    (a resumed run replays recorded evaluations from the cache)."""
    assert record.method == reference.method
    assert record.task_name == reference.task_name
    assert record.seed == reference.seed
    np.testing.assert_array_equal(record.costs, reference.costs)
    np.testing.assert_array_equal(record.areas, reference.areas)
    np.testing.assert_array_equal(record.delays, reference.delays)
    assert record.best_graph == reference.best_graph


def tiny_spec(name="lifecycle", **overrides):
    base = dict(
        name=name,
        task=TaskSpec(circuit_type="adder", n=4, delay_weight=0.66),
        methods=(
            MethodSpec("GA", params={"population_size": 8}),
            MethodSpec("Random"),
        ),
        budget=6,
        num_seeds=2,
        curve_points=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def stop_after_checkpoints(count):
    """A synchronous on_event observer that interrupts deterministically
    after the ``count``-th Checkpointed event."""
    seen = {"n": 0}

    def observer(event):
        if isinstance(event, Checkpointed):
            seen["n"] += 1
            if seen["n"] >= count:
                raise RunInterrupted(f"test stop after checkpoint {count}")

    return observer


class TestEventStream:
    def test_stream_shape_and_contents(self):
        spec = tiny_spec()
        with Session() as session:
            handle = session.submit(spec)
            events = list(handle.events())
            result = handle.result()

        assert isinstance(events[0], ExperimentStarted)
        assert isinstance(events[-1], ExperimentFinished)
        assert events[0].methods == ("GA", "Random")
        assert tuple(events[0].seeds) == tuple(spec.seed_list())
        assert events[-1].status == "finished"

        started = [e for e in events if isinstance(e, SeedStarted)]
        finished = [e for e in events if isinstance(e, SeedFinished)]
        cells = {(m.display_name, s) for m in spec.methods for s in spec.seed_list()}
        assert {(e.method, e.seed) for e in started} == cells
        assert {(e.method, e.seed) for e in finished} == cells
        assert all(e.replayed == 0 for e in started)
        assert not any(e.resumed for e in finished)

        evaluations = [e for e in events if isinstance(e, EvaluationDone)]
        total_sims = sum(
            r.num_simulations for rs in result.records.values() for r in rs
        )
        assert len(evaluations) == total_sims
        # per-cell: sim_index counts up, best_cost is the running minimum
        for method, seed in cells:
            cell = [e for e in evaluations if (e.method, e.seed) == (method, seed)]
            assert [e.sim_index for e in cell] == list(range(1, len(cell) + 1))
            running = np.minimum.accumulate([e.cost for e in cell])
            np.testing.assert_array_equal([e.best_cost for e in cell], running)
        # engine-backed runs attach per-query telemetry deltas
        assert all(e.telemetry_delta is not None for e in evaluations)
        assert sum(
            e.telemetry_delta.get("synth_calls", 0) for e in evaluations
        ) == result.telemetry["synth_calls"]
        # in-memory run: no checkpoints
        assert not any(isinstance(e, Checkpointed) for e in events)

    def test_streamed_records_match_blocking_run(self):
        spec = tiny_spec()
        with Session() as session:
            reference = session.run(spec)
        with Session() as session:
            result = session.submit(spec).result()
        for name in reference.records:
            for a, b in zip(reference.records[name], result.records[name]):
                assert_bit_identical(b, a)


class TestRunDirectory:
    def test_layout_and_durability(self, tmp_path):
        spec = tiny_spec()
        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(spec, out_dir=out)
            events = list(handle.events())
            result = handle.result()

        run_dir = RunDirectory.open(out)
        assert run_dir.status == "finished"
        assert run_dir.spec() == spec
        assert result.run_dir == run_dir.path

        # one Checkpointed per evaluation, each after its line is durable
        checkpoints = [e for e in events if isinstance(e, Checkpointed)]
        evaluations = [e for e in events if isinstance(e, EvaluationDone)]
        assert len(checkpoints) == len(evaluations)

        for method_spec in spec.methods:
            name = method_spec.display_name
            for seed, record in zip(spec.seed_list(), result.records[name]):
                history = run_dir.load_history(name, seed)
                assert len(history) == record.num_simulations
                np.testing.assert_array_equal(
                    [e.cost for e in history], record.costs
                )
                ledgered = run_dir.completed_record(name, seed)
                assert_bit_identical(ledgered, record)

        reloaded = load_records(run_dir.records_path())
        assert len(reloaded) == len(result.all_records())
        for restored, original in zip(reloaded, result.all_records()):
            assert_bit_identical(restored, original)

    def test_refuses_existing_run_directory(self, tmp_path):
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(), out_dir=out)
            with pytest.raises(ValueError, match="already holds a run"):
                session.submit(tiny_spec(), out_dir=out)

    def test_progress_reports_cell_states(self, tmp_path):
        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(
                tiny_spec(), out_dir=out, on_event=stop_after_checkpoints(3)
            )
            with pytest.raises(RunInterrupted):
                handle.result()
        rows = RunDirectory.open(out).progress()
        states = {(r["method"], r["seed"]): r["state"] for r in rows}
        assert len(states) == 4
        assert "partial" in states.values() or "done" in states.values()
        assert "pending" in states.values()  # later cells never started


# ----------------------------------------------------------------------
# The acceptance criterion: interrupted-then-resumed == uninterrupted,
# bit-identically, for every registered method, with zero new synthesis
# for already-recorded evaluations.
# ----------------------------------------------------------------------
def _tiny_vae_params(initial_samples=12):
    return dict(
        latent_dim=6,
        base_channels=4,
        hidden_dim=32,
        initial_samples=initial_samples,
        first_round_epochs=4,
        train=dict(epochs=2, batch_size=16),
        search=dict(num_parallel=6, num_steps=10, capture_every=5),
    )


# method name -> (MethodSpec, TaskSpec, budget, checkpoints before stop)
RESUME_CASES = {
    "GA": (
        MethodSpec("GA", params=dict(population_size=8)),
        TaskSpec(circuit_type="adder", n=4),
        6,
        2,
    ),
    "Random": (MethodSpec("Random"), TaskSpec(circuit_type="adder", n=4), 6, 2),
    "RL": (
        MethodSpec(
            "RL",
            params=dict(
                episode_length=6, base_channels=4, hidden_dim=16,
                batch_size=8, replay_capacity=64,
            ),
        ),
        TaskSpec(circuit_type="adder", n=4),
        6,
        2,
    ),
    "CircuitVAE": (
        MethodSpec("CircuitVAE", params=_tiny_vae_params()),
        TaskSpec(circuit_type="adder", n=8),
        24,
        14,
    ),
    "BO": (
        MethodSpec(
            "BO",
            params=dict(
                vae=_tiny_vae_params(initial_samples=10),
                batch_per_round=6, candidate_pool=24, gp_max_points=24,
            ),
        ),
        TaskSpec(circuit_type="adder", n=8),
        20,
        12,
    ),
}


class TestInterruptResume:
    @pytest.mark.parametrize("name", sorted(RESUME_CASES))
    def test_resume_bit_identical_with_zero_resynthesis(self, name, tmp_path):
        method_spec, task_spec, budget, stop_at = RESUME_CASES[name]
        spec = ExperimentSpec(
            name=f"resume-{name}",
            task=task_spec,
            methods=(method_spec,),
            budget=budget,
            seeds=(0,),
            curve_points=1,
        )
        with Session() as session:
            reference = session.run(spec).records[name][0]

        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(
                spec, out_dir=out, on_event=stop_after_checkpoints(stop_at)
            )
            with pytest.raises(RunInterrupted, match="resume"):
                handle.result()
            assert handle.status == "interrupted"

        run_dir = RunDirectory.open(out)
        assert run_dir.status == "interrupted"
        recorded = len(run_dir.load_history(name, 0))
        assert recorded == stop_at  # the synchronous stop is exact
        assert recorded < reference.num_simulations  # genuinely partial
        assert run_dir.completed_record(name, 0) is None

        # Resume in a *fresh* session (empty engine cache): everything
        # recorded must come back via replay priming, not residual state.
        with Session() as session:
            handle = session.resume(out)
            replayed = [
                e.replayed for e in handle.events() if isinstance(e, SeedStarted)
            ]
            result = handle.result()

        assert replayed == [recorded]
        record = result.records[name][0]
        assert_bit_identical(record, reference)
        assert RunDirectory.open(out).status == "finished"

        # Zero new synthesis for already-recorded evaluations: the
        # replayed prefix is served from the primed cache.
        telemetry = record.telemetry
        assert telemetry["synth_calls"] == record.num_simulations - recorded
        assert telemetry["memory_hits"] + telemetry["disk_hits"] >= recorded

        # The persisted final records are identical too.
        (reloaded,) = load_records(run_dir.records_path())
        assert_bit_identical(reloaded, reference)

    def test_resume_mixed_grid_with_parallel_seeds(self, tmp_path):
        # Several methods x seeds interrupted mid-grid: resume must skip
        # ledgered cells, replay the partial one and run pending ones.
        spec = tiny_spec(name="resume-grid")
        with Session() as session:
            reference = session.run(spec)

        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(
                spec, out_dir=out, on_event=stop_after_checkpoints(8)
            )
            with pytest.raises(RunInterrupted):
                handle.result()

        with Session(parallel_seeds=2) as session:
            result = session.resume(out).result()

        for method in reference.records:
            for a, b in zip(reference.records[method], result.records[method]):
                assert_bit_identical(b, a)

    def test_resume_of_finished_run_is_a_noop(self, tmp_path):
        spec = tiny_spec(name="resume-noop")
        out = str(tmp_path / "run")
        with Session() as session:
            reference = session.run(spec, out_dir=out)
        with Session() as session:
            handle = session.resume(out)
            events = list(handle.events())
            result = handle.result()
            # every cell served from the ledger; engine did nothing
            assert session.telemetry_snapshot()["synth_calls"] == 0
        finished = [e for e in events if isinstance(e, SeedFinished)]
        assert finished and all(e.resumed for e in finished)
        assert not any(isinstance(e, SeedStarted) for e in events)
        for method in reference.records:
            for a, b in zip(reference.records[method], result.records[method]):
                assert_bit_identical(b, a)


class TestInterruptBoundaries:
    def test_interrupt_lands_on_cache_hit_queries(self):
        # A method cycling through already-evaluated designs fires no
        # on_evaluation events; the abort hook at query entry must still
        # stop it at the next boundary.
        from repro.circuits import adder_task
        from repro.opt import CircuitSimulator
        from repro.prefix import sklansky

        simulator = CircuitSimulator(adder_task(4, 0.66), budget=5)
        simulator.query(sklansky(4))

        def abort():
            raise RunInterrupted("stop requested")

        simulator.check_abort = abort
        with pytest.raises(RunInterrupted):
            simulator.query(sklansky(4))  # a pure run-memo hit

    def test_on_event_interrupt_flags_the_whole_run(self, tmp_path):
        # RunInterrupted raised by the synchronous observer must set the
        # handle's interrupt flag so sibling parallel seeds stop too —
        # and the triggering event must still reach the async stream.
        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(
                tiny_spec(name="flag"), out_dir=out,
                on_event=stop_after_checkpoints(2),
            )
            events = list(handle.events())
            with pytest.raises(RunInterrupted):
                handle.result()
            assert handle._interrupt.is_set()
        checkpoints = [e for e in events if isinstance(e, Checkpointed)]
        assert len(checkpoints) == 2  # the stopping checkpoint included
        assert isinstance(events[-1], ExperimentFinished)
        assert events[-1].status == "interrupted"

    def test_live_run_directory_refuses_concurrent_execution(self, tmp_path):
        # Two executors appending to the same cell trails would lose
        # evaluations; the advisory lock refuses the second one.
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(name="locked"), out_dir=out)
        run_dir = RunDirectory.open(out)
        run_dir.acquire_lock()  # simulate another live executor (our pid)
        try:
            with Session() as session:
                with pytest.raises(ValueError, match="live process"):
                    session.resume(out)
        finally:
            run_dir.release_lock()
        # a stale lock (dead pid) is stolen: resume proceeds, but the
        # steal is announced with a warning naming the dead pid
        import json as _json

        dead_pid = 2 ** 22 + 12345  # unlikely-live pid
        with open(run_dir._lock_path(), "w") as handle:
            _json.dump({"pid": dead_pid}, handle)
        with pytest.warns(RuntimeWarning, match=f"stale advisory lock.*{dead_pid}"):
            with Session() as session:
                session.resume(out).result()
        assert not os.path.exists(run_dir._lock_path())  # released on settle


class TestCLILifecycle:
    def test_run_out_dir_status_and_resume(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-lifecycle"), spec_path)

        assert main(["run", spec_path, "--out-dir", out, "--progress"]) == 0
        output = capsys.readouterr().out
        assert "run directory" in output
        assert "best" in output  # --progress printed per-seed lines

        assert main(["status", out]) == 0
        status_out = capsys.readouterr().out
        assert "finished" in status_out
        assert "done" in status_out
        assert "GA" in status_out and "Random" in status_out

        # resuming a finished run from the CLI is a clean no-op
        assert main(["run", "--resume", out]) == 0
        capsys.readouterr()

    def test_run_quiet_by_default(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-quiet"), spec_path)
        assert main(["run", spec_path, "--out-dir", out]) == 0
        output = capsys.readouterr().out
        assert "] sim " not in output  # no per-evaluation progress lines

    def test_cli_validation_errors(self, tmp_path, capsys):
        assert main(["run"]) == 2
        assert "spec file" in capsys.readouterr().err
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "not a run directory" in capsys.readouterr().err
        out = str(tmp_path / "run")
        with Session() as session:
            session.run(tiny_spec(name="cli-err"), out_dir=out)
        spec_path = str(tmp_path / "spec.json")
        from repro.api import save_spec

        save_spec(tiny_spec(name="cli-err"), spec_path)
        assert main(["run", spec_path, "--resume", out]) == 2
        assert "drop the spec argument" in capsys.readouterr().err
        # reusing a directory that already holds a run: friendly
        # one-liner, not a traceback
        assert main(["run", spec_path, "--out-dir", out]) == 2
        assert "already holds a run" in capsys.readouterr().err


class TestTrainingCheckpointsInRunDir:
    """Durable CircuitVAE runs checkpoint training epochs per cell, and
    resume restores them instead of re-training (PR-5 satellite)."""

    def _vae_spec(self, name):
        return ExperimentSpec(
            name=name,
            task=TaskSpec(circuit_type="adder", n=8),
            methods=(MethodSpec("CircuitVAE", params=_tiny_vae_params()),),
            budget=24,
            seeds=(0,),
            curve_points=1,
        )

    def test_durable_run_writes_train_checkpoints_and_events(self, tmp_path):
        from repro.api import TrainingRoundFinished

        spec = self._vae_spec("train-ckpt")
        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(spec, out_dir=out)
            events = list(handle.events())
            handle.result()
        train_dir = os.path.join(
            RunDirectory.open(out).cell_dir("CircuitVAE", 0), "train"
        )
        files = sorted(os.listdir(train_dir))
        assert "round000.npz" in files and "round000.json" in files
        rounds = [e for e in events if isinstance(e, TrainingRoundFinished)]
        assert rounds and rounds[0].round == 0
        assert rounds[0].epochs > 0 and rounds[0].epochs_skipped == 0
        assert all(set(r.losses) == {"total", "reconstruction", "kl", "cost"}
                   for r in rounds)

    def test_compile_fallback_reason_reaches_the_event(self, monkeypatch):
        from repro import nn
        from repro.api import TrainingRoundFinished
        from repro.nn.loop import CompiledTrainLoop

        def broken_begin(self, *args, **kwargs):
            raise nn.CompileUnsupported("forced by test")

        monkeypatch.setenv("REPRO_COMPILED_TRAIN", "1")
        monkeypatch.setenv("REPRO_COMPILED_LOOP", "1")
        monkeypatch.setattr(CompiledTrainLoop, "begin", broken_begin)
        with Session() as session:
            handle = session.submit(self._vae_spec("train-fallback"))
            events = list(handle.events())
            handle.result()
        rounds = [e for e in events if isinstance(e, TrainingRoundFinished)]
        assert rounds
        assert all(r.fallback_reason == "loop: forced by test" for r in rounds)

    def test_resume_skips_completed_training_epochs(self, tmp_path):
        spec = self._vae_spec("train-ckpt-resume")
        with Session() as session:
            reference = session.run(spec).records["CircuitVAE"][0]
        ref_epochs = reference.telemetry["train_epochs"]
        assert ref_epochs > 0
        assert reference.telemetry["train_epochs_skipped"] == 0

        out = str(tmp_path / "run")
        with Session() as session:
            handle = session.submit(
                spec, out_dir=out, on_event=stop_after_checkpoints(16)
            )
            with pytest.raises(RunInterrupted):
                handle.result()

        with Session() as session:
            result = session.resume(out).result()
        record = result.records["CircuitVAE"][0]
        assert_bit_identical(record, reference)
        # The resumed attempt restored at least the first round's epochs
        # from the interrupted attempt's checkpoints instead of
        # re-training them.
        assert record.telemetry["train_epochs_skipped"] > 0
        assert record.telemetry["train_epochs"] < ref_epochs
        assert (
            record.telemetry["train_epochs"]
            + record.telemetry["train_epochs_skipped"]
            >= ref_epochs
        )
