"""Repeat the benchmark over seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --answers      # rewrite answers.json

For each workload, run.py runs once per seed untraced and once (on the
first seed) traced.  For every end-to-end metric the record holds the ten
values, their median and their spread: the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, the quantity a metric's bound in BENCHMARK.json is compared with.
The traced run gives each layer's share of the summed self time.
--answers instead records every job's answers for the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, FAMILIES, WHY, WORKLOADS  # noqa: E402


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_bench(workload, seed, seconds, trace):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout}{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine():
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def layer_shares(metrics):
    selfs = {k[: -len(".self_s")]: v["value"] for k, v in metrics.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    return {k: round(v / total, 4) for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]) if v > 0}


def baseline(args):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {"machine": machine(), "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_bench(workload, seed, args.seconds, 0)
            runs.append(result)
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} failed={result['failed']}/{result['attempted']} {line}", flush=True)
        entry = {"why": WHY[workload], "families": FAMILIES[workload], "metrics": {}}
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            entry["metrics"][name] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec["bound"],
                "median": statistics.median(values),
                "spread": round(s, 4),
                "values": values,
            }
            flag = "" if name == "setup_s" or s < spec["bound"] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median={statistics.median(values):.4g} spread={s:.3f}{flag}")
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        if args.trace:
            traced = run_bench(workload, args.seeds[0], args.seconds, 1)
            entry["traced_seed"] = args.seeds[0]
            entry["layer_shares"] = layer_shares(traced["metrics"])
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            print(f"  {workload} shares: {entry['layer_shares']}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


def answers(args):
    recorded = {}
    for workload in args.workloads:
        workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_work"))
        cmd = [
            sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(DEFAULT_SEED), "--phase", "record", "--workdir", workdir,
        ]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        if out["failed"]:
            raise SystemExit(f"{workload}: {out['failed']} jobs failed: {out['problems']}")
        recorded[workload] = out["answers"]
        print(f"{workload}: {len(out['answers'])} jobs recorded", flush=True)
    lines = []
    for workload in sorted(recorded):
        jobs = recorded[workload]
        entries = ",\n".join(
            f"  {json.dumps(job)}: {json.dumps(jobs[job], sort_keys=True)}" for job in sorted(jobs)
        )
        lines.append(f" {json.dumps(workload)}: {{\n{entries}\n }}")
    with open(os.path.join(HERE, "answers.json"), "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=seeds_arg, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--no-trace", dest="trace", action="store_false")
    parser.add_argument("--out", help="write the record here (JSON)")
    parser.add_argument("--answers", action="store_true", help="record answers.json instead")
    args = parser.parse_args()
    if args.answers:
        os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
        answers(args)
    else:
        baseline(args)


if __name__ == "__main__":
    main()
