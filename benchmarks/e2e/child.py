"""One repeat of one workload, in a fresh interpreter.

Run by ``run.py``; not meant to be called by hand.  Times set-up
(import of ``repro``, ``Session`` construction, spec resolution) and the
run (submit to result), checks the run's outputs, and writes one JSON
result to ``--out``.  With ``--trace 1`` it also wraps the layers
(:mod:`layers`), writes the spans next to the result and reports the
per-layer metrics.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time


def _environment() -> dict:
    """Interpreter, numpy and OpenBLAS as this process loaded them."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def cpu_ticks() -> tuple:
    """(busy, stolen) clock ticks of this machine's CPUs so far.

    Steal is time the hypervisor gave another guest while one of this
    machine's CPUs had work; it reads zero off a virtual machine or
    where ``/proc/stat`` is missing.
    """
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


def fingerprint(records) -> str:
    """Hash of every record's ordered costs/areas/delays and best graph.

    Records keep each simulation's cost, area and delay in query order
    but not each simulation's graph, so the best graph's key stands in
    for the graph keys.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(f"{record.method}/{record.seed}/".encode())
        for values in (record.costs, record.areas, record.delays):
            digest.update(values.astype("<f8").tobytes())
        digest.update(record.best_graph.key())
    return digest.hexdigest()


def check_records(records, task, budget: int) -> list:
    """Correctness failures of a finished run (empty when correct)."""
    import numpy

    from repro.prefix.verify import check_adder

    failures = []
    for record in records:
        where = f"{record.method} seed {record.seed}"
        if record.num_simulations != budget:
            failures.append(
                f"{where}: spent {record.num_simulations} of budget {budget}"
            )
        graph = record.best_graph
        if graph is None or not graph.is_legal():
            failures.append(f"{where}: best graph missing or illegal")
            continue
        if not check_adder(graph, numpy.random.default_rng(0)):
            failures.append(f"{where}: best graph does not add")
        cost = task.cost(task.synthesize(graph))
        if cost != record.best_cost():
            failures.append(
                f"{where}: scalar re-synthesis cost {cost!r} != recorded "
                f"{record.best_cost()!r}"
            )
    return failures


def _close(measured: float, reference: float) -> bool:
    return abs(measured - reference) <= 0.01 * reference + 0.01


def cross_check(per_layer: dict, result, durable: bool) -> list:
    """The wrapped ``train_model`` time must match the run's own train
    stage timer, and, for durable runs, the trace's stage totals."""
    failures = []
    stage_train = per_layer["core.training.stage_train_s"]
    busy = per_layer["core.training.busy_s"]
    if not _close(busy, stage_train):
        failures.append(
            f"core.training.busy_s {busy:.4f} s disagrees with "
            f"stage_seconds['train'] {stage_train:.4f} s"
        )
    if durable:
        from repro.obs.report import stage_totals
        from repro.obs.sink import read_trace

        traced = stage_totals(read_trace(result.trace_path)).get("train", 0.0)
        if not _close(busy, traced):
            failures.append(
                f"core.training.busy_s {busy:.4f} s disagrees with the "
                f"trace's stage total {traced:.4f} s"
            )
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory")
    parser.add_argument("--out", required=True, help="result JSON path")
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.api as api

    from workloads import WORKLOADS, build_spec, inner_steps

    workload = WORKLOADS[args.workload]
    spec = build_spec(workload, args.seed)
    with api.Session.from_spec(spec.engine) as session:
        task = spec.task.to_task()
        for method in spec.methods:
            api.build_config(method.method, method.params, n=task.n)
        setup_s = time.perf_counter() - start

        # A bare Session() ignores EngineSpec.workers/parallel_seeds;
        # time only the configuration the workload asks for.
        if (session.engine.pool.workers, session.parallel_seeds) != (
            workload.workers, workload.parallel_seeds
        ):
            raise RuntimeError(
                f"session runs workers={session.engine.pool.workers} "
                f"parallel_seeds={session.parallel_seeds}, workload asks "
                f"for {workload.workers}/{workload.parallel_seeds}"
            )
        out = {"setup_s": setup_s}
        if args.setup_only:
            _write(args.out, out)
            return 0

        recorder = None
        if args.trace:
            from layers import Recorder

            recorder = Recorder()
            recorder.install()
        out_dir = os.path.join(args.work, "run") if workload.durable else None
        busy0, steal0 = cpu_ticks()
        submitted = time.perf_counter()
        result = session.run(spec, out_dir=out_dir)
        wall_s = time.perf_counter() - submitted
        busy1, steal1 = cpu_ticks()
        pool = session.engine.pool
        pool_broken = pool.workers > 1 and not pool.parallel
    if recorder is not None:
        recorder.uninstall()

    records = result.all_records()
    failures = check_records(records, task, spec.budget)
    out.update(
        wall_s=wall_s,
        steal_share=(steal1 - steal0) / max(busy1 - busy0 + steal1 - steal0, 1),
        sims=sum(r.num_simulations for r in records),
        steps=[inner_steps(workload, r.telemetry) for r in records],
        best_cost=result.best_costs()[spec.methods[0].display_name],
        seeds=[r.seed for r in records],
        fingerprint=fingerprint(records),
        environment=_environment(),
    )
    if recorder is not None:
        from layers import layer_metrics

        per_layer = layer_metrics(
            recorder, result.telemetry, wall_s, workload.parallel_seeds, pool_broken
        )
        failures += cross_check(per_layer, result, workload.durable)
        recorder.write(os.path.join(args.work, "spans.jsonl"))
        out.update(per_layer=per_layer, missing_targets=recorder.missing)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out.update(peak_rss_mb=(self_kb + workers_kb) / 1024.0, failures=failures)
    _write(args.out, out)
    return 0


def _write(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle)


if __name__ == "__main__":
    sys.exit(main())
