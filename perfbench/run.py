"""eqlearn benchmark: time to an exact answer per command, sweep throughput,
and per-layer self time.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds `src/eqlearn`.  Workloads are
exact, dims, learn and compress (see workloads.py), or `all` for each in
turn.  A job is one `eqlearn.cli.execute(argv)` call on files the benchmark
writes from --seed; every job's output is checked (checker.py) and a job
that fails counts in `failed`, never aborting the run.

--trace 0 prints the end-to-end metrics, measured untraced:
  setup_s      median set-up time (import, instance files, warm-up pass)
               over SETUP_PROBES fresh processes plus the measuring one
  job_p50_ms   median job latency
  job_p90_ms   90th-percentile job latency
  jobs_per_s   jobs completed per second of job time
  peak_rss_mb  peak resident memory of the measuring process
Times are scaled to a reference machine speed by a calibration kernel timed
around every job (see worker.py); the human-readable lines also give the
unscaled wall-clock figures.
--trace 1 prints the per-layer metrics of tracing.py from a traced run.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Every job runs in a
single-threaded child process (worker.py); scratch files go to
.perfbench_work/ and spans to .perfbench_out/ under the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
DEADLINE_S = 170.0
ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(Exception):
    pass


def run_worker(args, deadline):
    """Run worker.py in a fresh process; returns its JSON result."""
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workdir", workdir, *args]
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env={**os.environ, **ENV},
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90_of(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, seed, seconds, deadline):
    common = ["--workload", workload, "--seed", str(seed)]
    probes = [run_worker(common + ["--phase", "setup"], deadline) for _ in range(SETUP_PROBES)]
    out = run_worker(common + ["--phase", "run", "--seconds", str(seconds)], deadline)
    probes.append(out)
    lat_ms = [s * 1000.0 for s in out["latencies_s"]]
    raw_ms = [s * 1000.0 for s in out["raw_latencies_s"]]
    p90 = p90_of(lat_ms)
    metrics = {
        "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
        "job_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "job_p90_ms": {"value": p90, "unit": "ms"},
        "jobs_per_s": {"value": len(lat_ms) / (sum(lat_ms) / 1000.0), "unit": "1/s"},
        "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
    }
    beyond = sum(1 for v in lat_ms if v > p90)
    raw_setup = statistics.median(p["raw_setup_s"] for p in probes)
    notes = {
        "setup_s": f"median of {len(probes)}; wall {raw_setup:.4g} s",
        "job_p50_ms": f"wall {statistics.median(raw_ms):.4g} ms",
        "job_p90_ms": f"n={len(lat_ms)}, {beyond} beyond; wall {p90_of(raw_ms):.4g} ms",
        "jobs_per_s": f"{out['rounds']} rounds; wall {len(lat_ms) / out['elapsed_s']:.4g} 1/s "
        f"over {out['elapsed_s']:.2f} s",
    }
    return out, metrics, notes


def per_layer(workload, seed, seconds, deadline):
    spans_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, f"spans-{workload}-seed{seed}.tsv.gz")
    args = ["--workload", workload, "--seed", str(seed), "--phase", "trace"]
    out = run_worker(args + ["--seconds", str(seconds), "--spans", spans], deadline)
    notes = {"trace.overhead_frac": f"{out['jobs']} jobs, {out['spans']} spans in {spans}"}
    return out, out["metrics"], notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "eqlearn", "cli.py")):
        print(f"error: no eqlearn source under {ROOT}/src", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + DEADLINE_S
            out, values, notes = measure(workload, args.seed, args.seconds, deadline)
            attempted += out["attempted"]
            failed += out["failed"]
            for problem in out["problems"]:
                print(f"{workload}: FAILED {problem}")
            frac = out["failed"] / out["attempted"]
            print(f"{workload:9s}{'failed_frac':30s}{frac:14.6g} ratio  ({out['failed']}/{out['attempted']})")
            for name, metric in values.items():
                note = f"  ({notes[name]})" if name in notes else ""
                print(f"{workload:9s}{name:30s}{metric['value']:14.6g} {metric['unit']}{note}")
                key = name if len(workloads) == 1 else f"{workload}.{name}"
                metrics[key] = metric
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
