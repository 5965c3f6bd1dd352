"""One benchmark process: set up a workload, then measure it.

Started by run.py, one process per measurement, so that import and set-up
costs are paid afresh.  Set-up is the time from this module's first line to
the end of the warm-up pass: importing `eqlearn`, writing the seeded
instance files, and running one small pass of every job family.

  --phase setup   set up, print {"setup_s": ...} and exit
  --phase run     set up, then play whole rounds of jobs in a closed loop
                  (one caller; the next job starts when the last returns)
                  until --seconds have passed, and print the raw results
  --phase trace   the same loop, but every job runs twice, untraced and
                  traced in alternating order, for the per-layer metrics
  --phase record  run every round once and print each job's answers

The last stdout line is one JSON object.
"""

import time

# The speed of the machine wanders by tens of percent within seconds when
# other tenants share its cores, and a run cannot wait that out.  So a fixed
# pure-Python kernel is timed right before and right after every job, and
# the job's time is scaled to the speed at which the kernel takes
# CALIBRATION_S (about the baseline machine's, see baseline.json).  Set-up
# is scaled the same way by kernel runs at its start and end.
CALIBRATION_S = 0.0005


def calibration():
    """Seconds one run of the fixed kernel takes at the machine's current speed."""
    start = time.perf_counter()
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    return time.perf_counter() - start


def _speed():
    return sorted(calibration() for _ in range(3))[1]


_SPEED_AT_START = _speed()
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# Rounds of instances written during set-up; a run that finishes them all
# starts again from the first.
ROUNDS = 16
MAX_PROBLEMS = 5

class Session:
    """The set-up state of one process and its job results."""

    def __init__(self, workload, seed, workdir, use_recorded=True):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from eqlearn import cli

        import checker
        import workloads

        self.cli = cli
        self.rounds = [
            workloads.build_round(workload, seed, r, workdir) for r in range(ROUNDS)
        ]
        warmup = workloads.build_round(workload, seed, None, workdir)
        recorded = {}
        if use_recorded and seed == workloads.DEFAULT_SEED:
            with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as fh:
                recorded = json.load(fh).get(workload, {})
        self.checker = checker.Checker(recorded)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        for job in warmup:
            self.run(job)
        self.raw_setup_s = time.perf_counter() - _T0
        speed = (_SPEED_AT_START + _speed()) / 2
        self.setup_s = self.raw_setup_s * CALIBRATION_S / speed

    def run(self, job):
        """Execute and check one job; returns its wall time in seconds and
        its report."""
        start = time.perf_counter()
        try:
            code, text = self.cli.execute(job.argv)
        except Exception as exc:  # a crash is a failed job, never an aborted run
            code, text = -1, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        problems = self.checker.check(job, code, text)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{job.id} {' '.join(job.argv)}: {'; '.join(problems)}")
        return elapsed, text

    def rounds_until(self, seconds):
        """Yield (round number, jobs) until `seconds` have passed; the round in
        progress is always finished, so every run sees whole rounds."""
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < seconds:
            yield r, self.rounds[r % ROUNDS]
            r += 1

    def result(self, **extra):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            **extra,
        }


def measure(session, seconds):
    raw = []
    scaled = []
    start = time.perf_counter()
    rounds = 0
    for rounds, jobs in session.rounds_until(seconds):
        for job in jobs:
            before = calibration()
            elapsed = session.run(job)[0]
            after = calibration()
            raw.append(elapsed)
            scaled.append(elapsed * 2 * CALIBRATION_S / (before + after))
    elapsed = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return session.result(
        setup_s=session.setup_s,
        raw_setup_s=session.raw_setup_s,
        latencies_s=scaled,
        raw_latencies_s=raw,
        elapsed_s=elapsed,
        rounds=rounds + 1,
        peak_rss_mb=peak_kb / 1024.0,
    )


def trace(session, seconds, spans_path):
    import tracing

    tracer = tracing.Tracer()
    for name in tracer.missing:
        print(f"warning: not traced, no longer defined: {name}", file=sys.stderr)
    untraced = traced = 0.0
    jobs_traced = 0
    rounds = 0
    for rounds, jobs in session.rounds_until(seconds):
        for job in jobs:
            for is_traced in (False, True) if jobs_traced % 2 == 0 else (True, False):
                if is_traced:
                    tracer.install(jobs_traced)
                    try:
                        traced += session.run(job)[0]
                    finally:
                        tracer.uninstall()
                else:
                    untraced += session.run(job)[0]
            jobs_traced += 1
    tracer.write(spans_path)
    metrics = tracing.per_layer_metrics(
        tracer.self_times(), tracer.counts, jobs_traced, traced / untraced - 1.0
    )
    return session.result(
        metrics=metrics, rounds=rounds + 1, jobs=jobs_traced, spans=len(tracer.starts)
    )


def record(session):
    """Answers to every job of every round, for answers.json."""
    from checker import answer_fields

    answers = {}
    for jobs in session.rounds:
        for job in jobs:
            answers[job.id] = answer_fields(session.run(job)[1])
    return session.result(answers=answers)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--phase", choices=["setup", "run", "trace", "record"], required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="output file for the traced spans")
    args = parser.parse_args()
    session = Session(args.workload, args.seed, args.workdir, args.phase != "record")
    if args.phase == "record":
        out = record(session)
    elif args.phase == "setup":
        out = session.result(setup_s=session.setup_s, raw_setup_s=session.raw_setup_s)
    elif args.phase == "run":
        out = measure(session, args.seconds)
    else:
        out = trace(session, args.seconds, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
