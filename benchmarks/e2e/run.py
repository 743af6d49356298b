"""End-to-end benchmark: fixed-budget Algorithm-1 runs, timed from outside.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload vae16 --seed 0 --seconds 30 --trace 0

The workloads are defined, with the reason for each, in
:mod:`workloads`.  Each repeat runs in a fresh interpreter
(:mod:`child`) against ``src/`` of the checkout, with every ``REPRO_*``
variable removed, so a repeat measures what a user of
``python -m repro run`` waits for: import, set-up and a cold run with an
in-memory cache.

``--trace 0`` runs repeats for ``--seconds`` (at least one; a repeat
starts only if the last one's duration still fits).  Repeat ``i`` runs
experiment base seed ``1000 * seed + i``, so a run's repeats average
over seeds.  The end-to-end metrics:

``step_ms``
    Host milliseconds from submit to result per step of the method's
    inner loop (one training minibatch for CircuitVAE, one generation
    for GA; see :func:`workloads.inner_steps`), with a repeat's steps
    summed over its seeds; the median over repeats.  How many rounds,
    and so training steps, a fixed-budget CircuitVAE run needs depends
    on the seed (3 to 10 rounds for ``vae16``); per step, the wall time
    stays put from seed to seed.  On a virtual machine the hypervisor
    can give a share of the busy CPUs' time to other guests (steal in
    ``/proc/stat``; up to 43% of it on the machine this was
    sized on); the wall time is scaled by the share that was not
    stolen during the run, so the figure follows the program, not the
    neighbours.  The raw wall time and the steal share are printed.
``setup_s``
    Import of ``repro``, ``Session`` construction and spec resolution.
    Taken in every repeat and in extra set-up-only processes, so at
    least five samples make up the median.
``best_cost``
    Median over the first repeat's seeds of the best cost at the full
    budget (deterministic per ``--seed``).
``peak_rss_mb``
    Peak resident memory of the run's process plus the largest
    synthesis worker's.

``wall_s``, ``sims_per_s``, ``steal_share`` and ``fail_rate`` are
printed too, with their sample counts, but are not gated: wall time
follows the seed's step count (see ``step_ms``), and a failed run
already shows as ``failed`` in the result line.

``--trace 1`` runs one untraced and one traced repeat of the first seed
and reports the per-layer metrics of :mod:`layers`, plus
``obs.bench_trace_overhead``: the traced wall time over the untraced,
minus 1.

Every repeat is checked: each seed spends exactly its budget, each
best graph is legal, adds correctly and re-synthesizes through the
scalar ``CircuitTask.synthesize`` to its recorded cost, and the records'
fingerprint matches every earlier repeat of the same seed in this
checkout, including the workload whose records must be identical
(``ga32`` and ``ga32-pool``).  The traced repeat also cross-checks the
wrapped ``train_model`` time against the run's own train stage timer
and, for durable runs, against the stage totals of its ``trace.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Scratch files, spans and a
results log go to ``.e2e_bench/`` at the repository root.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from layers import metric_unit, per_layer_names  # noqa: E402
from workloads import WORKLOADS, repeat_seed  # noqa: E402

#: (name, unit): the gated end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (
    ("step_ms", "ms"),
    ("setup_s", "s"),
    ("best_cost", "cost"),
    ("peak_rss_mb", "MB"),
)
MIN_SETUP_SAMPLES = 5
#: a run must end well inside the 180 s every invocation is allowed.
DEADLINE_S = 170.0


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(workload: str, seed: int, work: str, trace: bool, setup_only: bool,
               timeout: float):
    """One repeat in a fresh interpreter; its result dict, or None."""
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "result.json")
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--trace", str(int(trace)), "--work", work, "--out", out]
    if setup_only:
        command.append("--setup-only")
    # A session of its own, so a timed-out repeat is killed together
    # with its synthesis worker processes.
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(),
                            stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"repeat timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        # Also reaps any worker a crashed repeat left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not os.path.exists(out):
        print(f"repeat exited with code {code}", file=sys.stderr)
        return None
    with open(out) as handle:
        return json.load(handle)


def _check_fingerprint(ledger: str, workload, seed: int, fp: str) -> list:
    """Compare against every earlier repeat of this seed, then record."""
    family = {workload.name, workload.same_records_as} - {""}
    failures = []
    if os.path.exists(ledger):
        with open(ledger) as handle:
            for line in handle:
                entry = json.loads(line)
                if entry["workload"] in family and entry["seed"] == seed and \
                        entry["fingerprint"] != fp:
                    failures.append(
                        f"records fingerprint differs from {entry['workload']} "
                        f"seed {seed}"
                    )
    with open(ledger, "a") as handle:
        handle.write(json.dumps(
            {"workload": workload.name, "seed": seed, "fingerprint": fp}) + "\n")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench_dir = os.path.join(ROOT, ".e2e_bench")
    work_root = os.path.join(bench_dir, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    started = time.monotonic()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    attempted = failed = 0
    repeats, failures = [], []
    ledger = os.path.join(bench_dir, "fingerprints.jsonl")
    try:
        while True:
            # Untraced repeats walk the seed's stream of experiment seeds;
            # a traced run repeats the first one, traced the second time.
            traced = bool(args.trace) and attempted == 1
            seed = repeat_seed(args.seed, 0 if args.trace else attempted)
            work = os.path.join(work_root, f"repeat{attempted}")
            attempted += 1
            began = time.monotonic()
            result = _run_child(workload.name, seed, work, traced, False,
                                remaining())
            took = time.monotonic() - began
            if result is None:
                failed += 1
                failures.append(f"repeat of seed {seed} raised or timed out")
            else:
                result["traced"] = traced
                problems = result["failures"] + _check_fingerprint(
                    ledger, workload, seed, result["fingerprint"])
                if problems:
                    failed += 1
                    failures += problems
                repeats.append(result)
                if traced:
                    shutil.copy(os.path.join(work, "spans.jsonl"), os.path.join(
                        bench_dir, f"spans-{workload.name}-{args.seed}.jsonl"))
            if args.trace:
                if attempted == 2:
                    break
            elif time.monotonic() - started + took > args.seconds:
                break
            if remaining() < took:
                break

        setups = [r["setup_s"] for r in repeats]
        # A traced run reports per-layer metrics only: no set-up probes.
        while not args.trace and len(setups) < MIN_SETUP_SAMPLES and remaining() > 10:
            probe = _run_child(workload.name, repeat_seed(args.seed, 0),
                               os.path.join(work_root, f"setup{len(setups)}"),
                               False, True, remaining())
            if probe is None:
                break
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    untraced = [r for r in repeats if not r["traced"]]
    if not untraced:
        for failure in failures:
            print(f"FAILED: {failure}", file=sys.stderr)
        return 1
    walls = [r["wall_s"] for r in untraced]
    steps = [sum(r["steps"]) for r in untraced]
    steals = [r["steal_share"] for r in untraced]
    values = {
        "step_ms": statistics.median(
            [1e3 * w * (1 - f) / max(n, 1) for w, f, n in zip(walls, steals, steps)]
        ),
        "setup_s": statistics.median(setups),
        "best_cost": untraced[0]["best_cost"],
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in untraced]),
    }
    timed = f"median of {len(untraced)}"
    info = {
        "wall_s": (statistics.median(walls), "s", timed),
        "sims_per_s": (
            statistics.median([r["sims"] / r["wall_s"] for r in untraced]), "1/s", timed
        ),
        "steps": (statistics.median(steps), "count", timed),
        "steal_share": (statistics.median(steals), "ratio", timed),
        "fail_rate": (failed / attempted, "ratio", f"{failed} of {attempted}"),
    }
    environment = dict(untraced[0]["environment"], git_sha=_git_sha())
    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} timed "
          f"repeat(s) on experiment seeds {[r['seeds'] for r in untraced]}, "
          f"{len(setups)} set-up sample(s)")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {values[name]:12.6g} {unit}")
    for name, (value, unit, note) in info.items():
        print(f"  {name:<14} {value:12.6g} {unit}  ({note}, not gated)")
    print("  environment " + json.dumps(environment, sort_keys=True))
    for failure in failures:
        print(f"  FAILED: {failure}")

    if args.trace:
        traced_runs = [r for r in repeats if r["traced"]]
        if not traced_runs:
            print("traced repeat failed", file=sys.stderr)
            return 1
        per_layer = dict(traced_runs[0]["per_layer"])
        per_layer["obs.bench_trace_overhead"] = (
            traced_runs[0]["wall_s"] / untraced[0]["wall_s"] - 1.0
        )
        if traced_runs[0]["missing_targets"]:
            print("  missing wrap targets: "
                  + ", ".join(traced_runs[0]["missing_targets"]))
        metrics = {name: {"value": per_layer[name], "unit": metric_unit(name)}
                   for name in per_layer_names()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    with open(os.path.join(bench_dir, "results.jsonl"), "a") as handle:
        handle.write(json.dumps(dict(line, workload=workload.name, seed=args.seed,
                                     trace=args.trace, environment=environment,
                                     wall_s=walls, seeds=[r["seeds"] for r in untraced],
                                     steps=[r["steps"] for r in untraced])) + "\n")
    print(json.dumps(line))
    return 0


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; never report an enclosing repo
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
