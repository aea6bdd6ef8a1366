"""Benchmark of training throughput and simulation latency.

Run from the repository root:

    python3 bench/run.py --workload train-wide --seed 1 --seconds 20 --trace 0

Workloads: ``train-wide``, ``train-encoder``, ``simulate`` (see README.md).
One process, one caller, a closed loop: each job starts when the previous one
has returned.  BLAS keeps its own thread settings.  With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics from a traced section and
the tracing overhead.  Earlier lines give the machine facts and each job's
own rate.  Run records and span dumps go to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_ROUNDS = 2  # the determinism check compares a round with the first


def import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "symplectic_ml"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import symplectic_ml
    if Path(symplectic_ml.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: symplectic_ml imported from {symplectic_ml.__file__}, not {pkg}")


def machine_facts():
    import numpy
    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.25 only prints its configuration
        deps = {}
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_rounds(workload, seconds, min_rounds, setups):
    """Whole rounds until ``seconds`` have passed, each after a set-up whose
    time is appended to ``setups``; returns (job seconds, rates) per round.
    Set-ups spread over the run sample the machine as the rounds do."""
    rounds = []
    t0 = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - t0 < seconds:
        s0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - s0)
        workload.job_seconds = 0.0
        rates, payload = workload.round()
        rounds.append((workload.job_seconds, rates))
        workload.check_round(payload)
    return rounds


def traced_run(workload, tracer, seconds):
    """A warm-up round, then untraced and traced rounds in turn until
    ``seconds`` have passed; the traced ones record every span, and so does
    one traced set-up.  Returns (untraced rounds, set-up times, metrics)."""
    from spans import layer_metrics

    setups = []
    run_rounds(workload, 0, 1, setups)
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        plain += run_rounds(workload, 0, 1, setups)
        tracer.install()
        try:
            if not traced:
                tracer.active = True
                workload.setup()
                tracer.active = False
            workload.tracing = True
            traced += run_rounds(workload, 0, 1, setups)
        finally:
            workload.tracing = False
            tracer.active = False
            tracer.uninstall()
    metrics = layer_metrics(tracer.table(), len(traced), workload.commands,
                            workload.checkpoint_commands, workload.checkpoint_bytes)
    overhead = statistics.median(r[0] for r in traced) / statistics.median(
        r[0] for r in plain) - 1.0
    metrics["tracing_overhead_pct"] = ("%", 100.0 * overhead)
    return plain, setups, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-wide", "train-encoder", "simulate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own smoke tests")
    args = parser.parse_args(argv)

    import_package()
    from spans import Tracer
    from workloads import FULL, TINY, WORKLOADS, Ledger, rate_metrics

    facts = machine_facts()
    print("machine " + json.dumps(facts))
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    ledger = Ledger()
    tracer = Tracer()
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, TINY if args.tiny else FULL, work, tracer, ledger)
    try:
        if args.trace:
            rounds, setups, layers = traced_run(workload, tracer, args.seconds)
            metrics = {k: {"value": v, "unit": u} for k, (u, v) in layers.items()}
            tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        else:
            setups = []
            rounds = run_rounds(workload, args.seconds, MIN_ROUNDS, setups)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "round_s": {"value": statistics.median(r[0] for r in rounds), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB"},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = rate_metrics(cls, [r[1] for r in rounds])
    print("jobs " + json.dumps(jobs))
    result = {"correct": ledger.wrong == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "round_s": [r[0] for r in rounds], "setup_s": setups,
              "machine": facts, "jobs": jobs, "failures": ledger.reasons, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
