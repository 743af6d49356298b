"""Tests for the evaluation daemon + remote simulator (repro.serve).

The daemon runs on a background thread with its own event loop over a
real unix-domain socket; clients connect exactly as a separate process
would.  ``capture_engine_spans`` stays off (the default) because these
embedded daemons share the process with client-side tracers.
"""

import threading
import time
import warnings

import numpy as np
import pytest

from helpers import unique_random_graphs as unique_graphs

from repro.baselines import GAConfig, GeneticAlgorithm
from repro.circuits import adder_task
from repro.engine import EngineSimulator, EvaluationEngine
from repro.obs import trace
from repro.opt import BudgetExhausted, RunRecord
from repro.serve import protocol as wire
from repro.serve.client import (
    RemoteEngineSimulator,
    RemoteEvaluationError,
    ServeClient,
    ServeUnavailable,
)
from repro.serve.daemon import EvalDaemon


@pytest.fixture
def task():
    return adder_task(8, 0.66)


@pytest.fixture
def daemon(tmp_path):
    """A live daemon on a tmp socket; drained and joined at teardown."""
    instance = EvalDaemon(
        str(tmp_path / "s.sock"), engine=EvaluationEngine(), quantum=2
    )
    thread = instance.run_in_thread()
    yield instance
    instance.begin_drain()
    thread.join(timeout=15)
    assert not thread.is_alive(), "daemon failed to drain"


def ga_record(simulator, seed, label="GA"):
    """Run one GA seed to budget exhaustion and snapshot its record."""
    try:
        GeneticAlgorithm(GAConfig(population_size=8)).run(
            simulator, np.random.default_rng(seed)
        )
    except BudgetExhausted:
        pass
    return RunRecord.from_simulator(label, seed, simulator)


def assert_records_identical(record, reference):
    assert record.seed == reference.seed
    np.testing.assert_array_equal(record.costs, reference.costs)
    np.testing.assert_array_equal(record.areas, reference.areas)
    np.testing.assert_array_equal(record.delays, reference.delays)
    assert record.best_graph == reference.best_graph


class TestRemoteBitIdentity:
    def test_single_client_matches_in_process(self, daemon, task):
        reference = ga_record(
            EngineSimulator(task, budget=12, engine=EvaluationEngine()), seed=0
        )
        client = ServeClient(daemon.socket_path, client_name="t1")
        remote = RemoteEngineSimulator(task, budget=12, client=client)
        record = ga_record(remote, seed=0)
        assert_records_identical(record, reference)
        assert remote.remote  # never fell back
        # the daemon did the synthesis; the client-side engine did none
        assert remote.engine.telemetry.synth_calls == 0
        assert remote.telemetry.synth_calls > 0  # folded counter deltas
        client.close()

    def test_two_concurrent_clients_match_serial_runs(self, daemon, task):
        references = {
            seed: ga_record(
                EngineSimulator(task, budget=12, engine=EvaluationEngine()),
                seed=seed,
            )
            for seed in (0, 1)
        }
        results, errors = {}, []

        def run(seed):
            try:
                client = ServeClient(
                    daemon.socket_path, client_name=f"tenant{seed}"
                )
                remote = RemoteEngineSimulator(task, budget=12, client=client)
                results[seed] = ga_record(remote, seed=seed)
                assert remote.remote
                client.close()
            except Exception as error:  # surfaced in the main thread
                errors.append(error)

        threads = [threading.Thread(target=run, args=(s,)) for s in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        for seed in (0, 1):
            assert_records_identical(results[seed], references[seed])


class TestFairShareScheduling:
    def test_schedule_trace_interleaves_tenants(self, daemon, task):
        # Tenant "bulk" submits a 12-graph population; tenant "quick"
        # submits 2 graphs right after.  With quantum=2 the scheduler
        # must not let bulk's whole batch run before quick's job.
        graphs = unique_graphs(8, 14)
        bulk_graphs, quick_graphs = graphs[:12], graphs[12:]
        payload = wire.task_to_dict(task)
        bulk = ServeClient(daemon.socket_path, client_name="bulk")
        quick = ServeClient(daemon.socket_path, client_name="quick")

        done = {}

        def run(name, client, batch):
            done[name] = client.evaluate(
                payload, "", wire.graphs_to_wire(batch)
            )

        bulk_thread = threading.Thread(
            target=run, args=("bulk", bulk, bulk_graphs)
        )
        quick_thread = threading.Thread(
            target=run, args=("quick", quick, quick_graphs)
        )
        bulk_thread.start()
        quick_thread.start()
        bulk_thread.join(timeout=120)
        quick_thread.join(timeout=120)
        assert len(done["bulk"].metrics) == 12
        assert len(done["quick"].metrics) == 2

        schedule = bulk.stats().schedule
        by_tenant = [s["tenant"] for s in schedule]
        assert "quick" in by_tenant and "bulk" in by_tenant
        # fairness, observably: quick's slice ran before bulk finished
        assert by_tenant.index("quick") < max(
            i for i, t in enumerate(by_tenant) if t == "bulk"
        )
        # and no slice exceeded the deficit the quantum allows
        assert all(s["count"] <= 12 for s in schedule)
        assert sum(s["count"] for s in schedule if s["tenant"] == "bulk") == 12
        bulk.close()
        quick.close()


class TestDrainAndFallback:
    def test_drain_finishes_queued_work_then_refuses(self, tmp_path, task):
        daemon = EvalDaemon(
            str(tmp_path / "d.sock"), engine=EvaluationEngine(), quantum=4
        )
        thread = daemon.run_in_thread()
        graphs = unique_graphs(8, 3)
        payload = wire.task_to_dict(task)
        client = ServeClient(daemon.socket_path, client_name="t1")

        # Submit, then immediately ask for shutdown: the queued job must
        # still complete and deliver.
        reply = client.request(
            wire.SubmitBatch(
                id="job-a", tenant="t1", task=payload,
                graphs=wire.graphs_to_wire(graphs),
            )
        )
        assert isinstance(reply, wire.Accepted)
        stopper = ServeClient(daemon.socket_path, client_name="stopper")
        stopper.shutdown()
        stopper.close()

        # new work is refused with the draining code (submitted before
        # the poll below: once job-a is delivered the daemon may exit)
        refused = client.request(
            wire.SubmitBatch(
                id="job-b", tenant="t1", task=payload,
                graphs=wire.graphs_to_wire(graphs),
            )
        )
        assert isinstance(refused, wire.ErrorReply)
        assert refused.code == "draining"

        result = None
        for _ in range(2000):
            answer = client.request(wire.Poll(id="job-a"))
            if isinstance(answer, wire.BatchResult):
                result = answer
                break
            assert isinstance(answer, wire.Pending)
        assert result is not None and len(result.metrics) == 3
        client.close()
        thread.join(timeout=15)
        assert not thread.is_alive()

    def test_mid_run_fallback_is_warned_and_identical(self, tmp_path, task):
        daemon = EvalDaemon(
            str(tmp_path / "f.sock"), engine=EvaluationEngine(), quantum=8
        )
        thread = daemon.run_in_thread()
        # the reference mirrors the remote run exactly: the same warm-up
        # pair first, then the GA, all against one budget of 12
        serial = EngineSimulator(task, budget=12, engine=EvaluationEngine())
        serial.query_plan(unique_graphs(8, 14, seed=3)[:2])
        reference = ga_record(serial, seed=3)
        client = ServeClient(daemon.socket_path, client_name="t1")
        remote = RemoteEngineSimulator(task, budget=12, client=client)
        # a first remote round proves the daemon path was actually used
        first = remote.query_plan(unique_graphs(8, 14, seed=3)[:2])
        assert all(e is not None for e in first)
        daemon.begin_drain()
        thread.join(timeout=15)
        assert not thread.is_alive()

        with pytest.warns(RuntimeWarning, match="falling back"):
            record = ga_record(remote, seed=3)
        assert not remote.remote
        # The run completed on the in-process engine; because budget
        # accounting never left the client, the record is still exactly
        # the serial reference.
        assert_records_identical(record, reference)
        client.close()


class TestJobLifecycle:
    def test_timeout_fails_the_job(self, daemon, task):
        client = ServeClient(daemon.socket_path, client_name="t1")
        with pytest.raises(RemoteEvaluationError, match="timeout"):
            client.evaluate(
                wire.task_to_dict(task),
                "",
                wire.graphs_to_wire(unique_graphs(8, 2)),
                timeout=0.0,
            )
        client.close()

    def test_cancel_unknown_job_is_an_error(self, daemon):
        client = ServeClient(daemon.socket_path, client_name="t1")
        answer = client.request(wire.Cancel(id="ghost"))
        assert isinstance(answer, wire.ErrorReply)
        assert answer.code == "unknown_job"
        client.close()

    def test_cancel_submitted_job(self, daemon, task):
        client = ServeClient(daemon.socket_path, client_name="t1")
        accepted = client.request(
            wire.SubmitBatch(
                id="doomed", tenant="t1", task=wire.task_to_dict(task),
                graphs=wire.graphs_to_wire(unique_graphs(8, 6)),
            )
        )
        assert isinstance(accepted, wire.Accepted)
        cancelled = client.request(wire.Cancel(id="doomed"))
        assert isinstance(cancelled, wire.Cancelled)
        # The job may have raced to completion before the cancel landed;
        # either terminal answer is fine, the daemon just must keep
        # serving coherently.
        answer = client.request(wire.Poll(id="doomed"))
        assert isinstance(answer, (wire.BatchResult, wire.ErrorReply))
        if isinstance(answer, wire.ErrorReply):
            assert answer.code == "cancelled"
        assert isinstance(client.stats(), wire.StatsReply)
        client.close()

    def test_fingerprint_mismatch_is_rejected(self, daemon, task):
        client = ServeClient(daemon.socket_path, client_name="t1")
        reply = client.request(
            wire.SubmitBatch(
                id="bad", tenant="t1", task=wire.task_to_dict(task),
                fingerprint="deadbeef",
                graphs=wire.graphs_to_wire(unique_graphs(8, 1)),
            )
        )
        assert isinstance(reply, wire.ErrorReply)
        assert reply.code == "bad_request"
        assert "fingerprint mismatch" in reply.message
        client.close()

    def test_duplicate_job_id_is_rejected(self, daemon, task):
        client = ServeClient(daemon.socket_path, client_name="t1")
        payload = wire.task_to_dict(task)
        graphs = wire.graphs_to_wire(unique_graphs(8, 1))
        first = client.request(
            wire.SubmitBatch(id="dup", tenant="t1", task=payload, graphs=graphs)
        )
        assert isinstance(first, wire.Accepted)
        second = client.request(
            wire.SubmitBatch(id="dup", tenant="t1", task=payload, graphs=graphs)
        )
        assert isinstance(second, wire.ErrorReply)
        assert second.code == "bad_request"
        # Collect the accepted job: an undelivered result would hold the
        # daemon's shutdown for its whole linger.
        deadline = time.monotonic() + 10.0
        reply = client.request(wire.Poll(id="dup"))
        while isinstance(reply, wire.Pending) and time.monotonic() < deadline:
            time.sleep(0.005)
            reply = client.request(wire.Poll(id="dup"))
        assert isinstance(reply, wire.BatchResult)
        client.close()

    def test_bad_line_gets_error_not_disconnect(self, daemon):
        client = ServeClient(daemon.socket_path, client_name="t1")
        with client._lock:
            client._sock.sendall(b'{"v": 1, "type": "nope"}\n')
            line = client._reader.readline()
        reply = wire.decode(line)
        assert isinstance(reply, wire.ErrorReply)
        # the connection survived: a normal request still works
        assert isinstance(client.stats(), wire.StatsReply)
        client.close()


class TestSpanThreading:
    def test_daemon_spans_land_in_client_trace(self, daemon, task):
        client = ServeClient(daemon.socket_path, client_name="t1")
        remote = RemoteEngineSimulator(task, budget=8, client=client)
        tracer = trace.Tracer(collect=True)
        with tracer.activate():
            with tracer.span("experiment", default=True) as root:
                remote.query_plan(unique_graphs(8, 3))
        spans = tracer.drain()
        names = {s["name"] for s in spans}
        assert {"serve_job", "serve_evaluate", "experiment"} <= names
        by_id = {s["span_id"]: s for s in spans}
        job = next(s for s in spans if s["name"] == "serve_job")
        # one coherent tree: daemon spans share the client's trace id and
        # chain through serve_job up into the client's own span stack
        assert job["trace_id"] == tracer.trace_id
        assert job["parent_id"] in by_id
        evaluate = next(s for s in spans if s["name"] == "serve_evaluate")
        assert evaluate["parent_id"] == job["span_id"]
        client.close()


class TestTransparentAttach:
    def test_engine_simulator_attaches_via_env(self, daemon, task, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_SOCKET", daemon.socket_path)
        engine = EvaluationEngine()
        simulator = engine.simulator(task, budget=6)
        assert isinstance(simulator, RemoteEngineSimulator)
        assert simulator.engine is engine  # fallback engine is the caller's
        simulator.client.close()

    def test_unreachable_socket_warns_and_falls_back(self, tmp_path, task, monkeypatch):
        monkeypatch.setenv(
            "REPRO_ENGINE_SOCKET", str(tmp_path / "nobody-home.sock")
        )
        engine = EvaluationEngine()
        with pytest.warns(RuntimeWarning, match="in-process engine"):
            simulator = engine.simulator(task, budget=6)
        assert type(simulator) is EngineSimulator

    def test_unset_env_means_plain_simulator(self, task, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE_SOCKET", raising=False)
        simulator = EvaluationEngine().simulator(task, budget=6)
        assert type(simulator) is EngineSimulator
