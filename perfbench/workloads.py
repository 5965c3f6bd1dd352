"""The benchmark's four workloads, as rounds of `eqlearn` command lines.

A round is a fixed mix of job families with fresh seeded instances; a run
plays whole rounds until its time is up, so every run sees the same mix and
the seed changes only which instances are drawn.  Each job is one
`eqlearn.cli.execute(argv)` call on files written here.

Workload   Why it exists (shares are of traced self time, see baseline.json)
---------  -------------------------------------------------------------
exact      The minimax oracle does nearly all the work here (97%) and none
           anywhere else.  eq/eqmq and self/m:3 use it differently (MQ
           children, hypothesis-loop width), so an oracle change that
           helps one and hurts another shows.
dims       The 3^|X| strong-consistency DP (79%) and the 2^|X| consistency
           scan (16%) dominate and the Littlestone memo is built cold; the
           oracle is never called.
learn      Learner sessions, teachers and the thicket code together take
           about half, nearly all of it the deficient-cycle search on
           TREE(3,2) at full length; the learners' constructors spend most
           of the rest in consistency scans and the strong-consistency DP.
           Session loops, teachers and Fractions are a few percent.
compress   The round trip (86%) and its full-dimension partials (12%):
           millions of warm Littlestone-memo reads and PartialConcept
           allocations, a read path every other workload touches lightly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import instances as inst

WORKLOADS = ("exact", "dims", "learn", "compress")

# The seed whose answers are recorded in answers.json.
DEFAULT_SEED = 1

WHY = {
    "exact": "minimax oracle on random classes (|X| 8-16, |C| 12-48) in eq/eqmq "
    "and self/m:3 modes; the oracle does nearly all the work here and none elsewhere",
    "dims": "dims --strong with self, m:2, m:3 on random classes (|X| 8-12) plus "
    "DFA classes: the 2^|X| scan and the 3^|X| strong-consistency DP dominate",
    "learn": "every learner vs every teacher kind on small classes, thicket trials and cycle "
    "search: thicket+learners+teachers ~51-54% of self time (cycle search 45-48%), scans+DP 42-45%",
    "compress": "compress --check-all on random classes (|X| 6-9), TREE(3,2), SING(n) "
    "and FIVE: millions of warm ldim-memo reads and PartialConcept allocations",
}

# Instance families per workload, recorded in baseline.json.
FAMILIES = {
    "exact": [
        "SING(6) eq self (fixture lc=6)",
        "random 8x12, 9x14: eq/eqmq x self/m:3; random 10x16: eq/eqmq m:3, eq self",
        "random 11x20 (3 per round): eq/eqmq self",
        "random 10x20: eq/eqmq m:3; random 12x24, 14x32: eq/eqmq self",
        "heavy: random 14x48 eq self, 16x32 eq self (3 per round)",
    ],
    "dims": [
        "TREE(3,2) dims --hyp self --strong (fixture)",
        "random 8x12, 9x14 (2), 10x15 (2), 11x17: dims --strong x self/m:2/m:3",
        "random 12x18: dims --strong x self/m:3",
        "dfa --dims at (n,m) = (2,3) and (3,2)",
    ],
    "learn": [
        "classes random 7x10, random 9x14, SING(8), FIVE, TREE(3,2)",
        "algos optimal(powerset), cdim(self), sc2(m:2), halving(self), eqmq(self), "
        "thicket(mu), each against tree / honest:<spread k> / random:<mu>:<seed>",
        "witness:0^8:7 on SING(8) for every algo",
        "thicket --trials 200: random --cycles 4, SING(8) --cycles 5, FIVE and TREE(3,2) "
        "at the default full cycle length",
        "dfa --states 2 --maxlen 3 --learn, eq and eqmq, on two random 2-state targets",
    ],
    "compress": [
        "random 6x9 (6 per round), 7x10 (6), 8x12 (4), 9x14 (3)",
        "SING(7), SING(8), FIVE, TREE(3,2)",
    ],
}


@dataclass
class Job:
    """One command line plus what its output must satisfy beyond the
    per-command invariants (see checker.py)."""

    id: str
    argv: list
    expect: dict = field(default_factory=dict)
    pair: tuple | None = None  # (class+hyp key, mode): eqmq lc <= eq lc
    min_queries: int | None = None  # lower bound a witness teacher forces


class _Files:
    def __init__(self, workdir, prefix):
        self.dir = workdir
        self.prefix = prefix
        self.count = 0

    def write(self, suffix, text):
        self.count += 1
        path = os.path.join(self.dir, f"{self.prefix}_{self.count}{suffix}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def cls(self, spec):
        return self.write(".cls", spec.text())

    def mu(self, rng, spec):
        return self.write(".mu", inst.distribution_text(rng, spec.elements))

    def dfa(self, rng, n_states):
        return self.write(".dfa", inst.random_dfa_text(rng, n_states))


# --------------------------------------------------------------------- exact


def _exact_pairs(jobs, tag, path, hyps, modes=("eq", "eqmq")):
    for hyp in hyps:
        for mode in modes:
            jobs.append(
                Job(
                    id=f"{tag}.{mode}.{hyp}",
                    argv=["exact", "--mode", mode, "--class", path, "--hyp", hyp],
                    pair=(f"{tag}.{hyp}", mode),
                )
            )


def _exact_round(rng, files, warmup):
    jobs = []
    if warmup:
        _exact_pairs(jobs, "w", files.cls(inst.random_class(rng, 8, 12)), ("self", "m:3"))
        return jobs
    jobs.append(
        Job(
            id="sing6",
            argv=["exact", "--mode", "eq", "--class", files.cls(inst.singletons(6)), "--hyp", "self"],
            expect={"lc": "6"},
        )
    )
    # The tiers are sized so that the median and the 90th percentile fall
    # inside one family each (11x20 self and 16x32 eq self), whose times vary
    # little between random instances; a quantile on a boundary between two
    # families would move with every seed.
    for nx, nc in ((8, 12), (9, 14), (10, 16)):
        path = files.cls(inst.random_class(rng, nx, nc))
        _exact_pairs(jobs, f"r{nx}x{nc}", path, ("self", "m:3") if nx < 10 else ("m:3",))
    _exact_pairs(jobs, "r10x16s", files.cls(inst.random_class(rng, 10, 16)), ("self",), ("eq",))
    for k in range(3):
        _exact_pairs(jobs, f"r11x20.{k}", files.cls(inst.random_class(rng, 11, 20)), ("self",))
    _exact_pairs(jobs, "r10x20", files.cls(inst.random_class(rng, 10, 20)), ("m:3",))
    _exact_pairs(jobs, "r12x24", files.cls(inst.random_class(rng, 12, 24)), ("self",))
    _exact_pairs(jobs, "r14x32", files.cls(inst.random_class(rng, 14, 32)), ("self",))
    _exact_pairs(jobs, "r14x48", files.cls(inst.random_class(rng, 14, 48)), ("self",), ("eq",))
    for k in range(3):
        path = files.cls(inst.random_class(rng, 16, 32))
        _exact_pairs(jobs, f"r16x32.{k}", path, ("self",), ("eq",))
    return jobs


# ---------------------------------------------------------------------- dims

_HYPS = ("self", "m:2", "m:3")


def _dims_job(tag, path, hyp, expect=None):
    return Job(
        id=f"{tag}.{hyp}",
        argv=["dims", "--class", path, "--hyp", hyp, "--strong"],
        expect=expect or {},
    )


def _dfa_dims(n, m):
    return Job(id=f"dfa{n}.{m}", argv=["dfa", "--states", str(n), "--maxlen", str(m), "--dims"])


def _dims_round(rng, files, warmup):
    if warmup:
        path = files.cls(inst.random_class(rng, 8, 12))
        return [_dims_job("w", path, hyp) for hyp in _HYPS] + [_dfa_dims(2, 2)]
    jobs = [
        _dims_job(
            "tree32",
            files.cls(inst.tree(3, 2)),
            "self",
            {"ldim": "2", "vcdim": "1", "cdim": "4", "scdim": "9", "threshold": "4"},
        )
    ]
    # Sizes are fixed and only the concepts are drawn, so every round costs
    # about the same; the median falls among the 10x15 jobs and the 90th
    # percentile among the 12x18 jobs and TREE(3,2).  m:2 is left out at
    # |X| = 12, where its time varies most between instances.
    for k, (nx, nc, hyps) in enumerate(
        ((8, 12, _HYPS), (9, 14, _HYPS), (9, 14, _HYPS), (10, 15, _HYPS), (10, 15, _HYPS),
         (11, 17, _HYPS), (12, 18, ("self", "m:3")))
    ):
        path = files.cls(inst.random_class(rng, nx, nc))
        jobs.extend(_dims_job(f"r{k}x{nx}", path, hyp) for hyp in hyps)
    jobs.append(_dfa_dims(2, 3))
    jobs.append(_dfa_dims(3, 2))
    return jobs


# --------------------------------------------------------------------- learn

_ALGOS = (
    ("optimal", "powerset"),
    ("cdim", "self"),
    ("sc2", "m:2"),
    ("halving", "self"),
    ("eqmq", "self"),
    ("thicket", "self"),
)
# learners whose hypotheses all lie in the class itself, so a witness
# partial with no extension in the class forces at least n + 1 queries
_WITNESS_BOUND_ALGOS = ("cdim", "halving", "eqmq", "thicket")


def _learn_job(tag, path, mu, algo, hyp, teacher, target=None, min_queries=None):
    argv = ["learn", "--class", path, "--hyp", hyp, "--algo", algo, "--teacher", teacher]
    if target is not None:
        argv += ["--target", str(target)]
    if algo == "thicket":
        argv += ["--mu", mu]
    return Job(id=f"{tag}.{algo}.{teacher.split(':')[0]}", argv=argv, min_queries=min_queries)


def _thicket_job(tag, path, mu, rng, cycles=None):
    argv = ["thicket", "--class", path, "--mu", mu, "--trials", "200", "--seed", str(rng.randrange(1 << 31))]
    if cycles is not None:
        argv += ["--cycles", str(cycles)]
    return Job(id=f"{tag}.thicket", argv=argv)


_SING = 8


def _learn_round(rng, files, warmup):
    if warmup:
        spec = inst.five()
        path, mu = files.cls(spec), files.mu(rng, spec)
        jobs = [_learn_job("w", path, mu, a, h, "tree") for a, h in _ALGOS]
        jobs.append(_thicket_job("w", path, mu, rng))
        return jobs
    classes = [
        ("ra", inst.random_class(rng, 7, 10)),
        ("rb", inst.random_class(rng, 9, 14)),
        ("sing", inst.singletons(_SING)),
        ("five", inst.five()),
        ("tree32", inst.tree(3, 2)),
    ]
    jobs = []
    paths = {}
    # Each algorithm meets every teacher kind across the five classes, in
    # the same pairing every round, so that rounds differ only in the drawn
    # concepts, targets and teacher seeds.
    for ci, (tag, spec) in enumerate(classes):
        path, mu = files.cls(spec), files.mu(rng, spec)
        paths[tag] = (path, mu)
        n = len(spec.concepts)
        for ai, (algo, hyp) in enumerate(_ALGOS):
            kind = (ci + ai) % 3
            if kind == 0:
                job = _learn_job(tag, path, mu, algo, hyp, "tree")
            elif kind == 1:
                k = (0, n // 2, n - 1)[(ci + 2 * ai) % 3]
                job = _learn_job(tag, path, mu, algo, hyp, f"honest:{k}")
            else:
                teacher = f"random:{mu}:{rng.randrange(1 << 31)}"
                job = _learn_job(tag, path, mu, algo, hyp, teacher, target=rng.randrange(n))
            jobs.append(job)
    path, mu = paths["sing"]
    witness = f"witness:{'0' * _SING}:{_SING - 1}"
    for algo, hyp in _ALGOS:
        bound = _SING if algo in _WITNESS_BOUND_ALGOS else None
        jobs.append(_learn_job("sing", path, mu, algo, hyp, witness, min_queries=bound))
    jobs.append(_thicket_job("ra", *paths["ra"], rng, cycles=4))
    jobs.append(_thicket_job("sing", *paths["sing"], rng, cycles=5))
    jobs.append(_thicket_job("five", *paths["five"], rng))
    jobs.append(_thicket_job("tree32", *paths["tree32"], rng))
    # Four DFA sessions make the slowest tenth of a round one family, so the
    # 90th percentile falls inside it rather than on the edge of a cluster.
    for k in range(2):
        target = files.dfa(rng, 2)
        for mode in ("eq", "eqmq"):
            jobs.append(
                Job(
                    id=f"dfa{k}.learn.{mode}",
                    argv=["dfa", "--states", "2", "--maxlen", "3", "--learn", "--target", target,
                          "--mode", mode],
                )
            )
    return jobs


# ------------------------------------------------------------------ compress


def _compress_job(tag, path):
    return Job(id=tag, argv=["compress", "--class", path, "--check-all"])


def _compress_round(rng, files, warmup):
    if warmup:
        return [
            _compress_job("w.five", files.cls(inst.five())),
            _compress_job("w.sing", files.cls(inst.singletons(4))),
            _compress_job("w.r6", files.cls(inst.random_class(rng, 6, 8))),
        ]
    # Fixed sizes: the median falls among the 7x10 jobs and the 90th
    # percentile among the three 9x14 jobs.
    jobs = []
    for k, (nx, nc) in enumerate([(6, 9)] * 6 + [(7, 10)] * 6 + [(8, 12)] * 4 + [(9, 14)] * 3):
        jobs.append(_compress_job(f"r{k}x{nx}", files.cls(inst.random_class(rng, nx, nc))))
    for n in (7, 8):
        jobs.append(_compress_job(f"sing{n}", files.cls(inst.singletons(n))))
    jobs.append(_compress_job("five", files.cls(inst.five())))
    jobs.append(_compress_job("tree32", files.cls(inst.tree(3, 2))))
    return jobs


# -------------------------------------------------------------------- rounds


def build_round(workload, seed, round_index, workdir):
    """Write one round's instance files into `workdir`; return its jobs in
    a seeded order.  `round_index` None builds the small warm-up pass."""
    warmup = round_index is None
    label = "warmup" if warmup else round_index
    rng = inst.round_rng(workload, seed, label)
    files = _Files(workdir, f"{workload}_{label}")
    if workload == "exact":
        jobs = _exact_round(rng, files, warmup)
    elif workload == "dims":
        jobs = _dims_round(rng, files, warmup)
    elif workload == "learn":
        jobs = _learn_round(rng, files, warmup)
    elif workload == "compress":
        jobs = _compress_round(rng, files, warmup)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ids = [job.id for job in jobs]
    if len(set(ids)) != len(ids):
        raise AssertionError(f"duplicate job ids in {workload} round {label}")
    for job in jobs:
        job.id = f"{label}.{job.id}"
        if job.pair is not None:
            job.pair = (f"{label}.{job.pair[0]}", job.pair[1])
    rng.shuffle(jobs)
    return jobs
