"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py"""

import json
import os
import shutil
import subprocess
import sys
from array import array

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from checker import Checker, parse_report  # noqa: E402
from workloads import WORKLOADS, Job, build_round  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            out[name] = fh.read()
    return out


def _argvs(jobs, directory):
    return [[a.replace(str(directory), "<dir>") for a in job.argv] for job in jobs]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    jobs_a = build_round(workload, 7, 2, str(a))
    jobs_b = build_round(workload, 7, 2, str(b))
    build_round(workload, 8, 2, str(c))
    assert _files(a) == _files(b)
    assert _argvs(jobs_a, a) == _argvs(jobs_b, b)
    assert [j.id for j in jobs_a] == [j.id for j in jobs_b]
    assert _files(a) != _files(c)


def test_generator_writes_documented_formats(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from eqlearn.automata import parse_dfa
    from eqlearn.core import parse_class, parse_distribution

    build_round("learn", 1, 0, str(tmp_path))
    classes = {}
    for name, text in _files(tmp_path).items():
        stem, ext = os.path.splitext(name)
        if ext == ".cls":
            classes[stem] = parse_class(text)
        elif ext == ".dfa":
            assert parse_dfa(text).n_states == 2
    for name, text in _files(tmp_path).items():
        stem, ext = os.path.splitext(name)
        if ext == ".mu":
            prefix, number = stem.rsplit("_", 1)
            universe = classes[f"{prefix}_{int(number) - 1}"].universe
            assert sum(parse_distribution(universe, text).weights) == 1


def _exact(mode, pair="p"):
    return Job(id=f"0.{mode}", argv=["exact", "--mode", mode], pair=(pair, mode))


def test_checker_rejects_tampered_answers():
    fixture = Job(id="0.sing6", argv=["exact"], expect={"lc": "6"})
    assert Checker().check(fixture, 0, "lc=6 nodes=15\n") == []
    assert Checker().check(fixture, 0, "lc=7 nodes=15\n")
    recorded = Checker({"0.sing6": {"lc": "6"}})
    assert recorded.check(Job(id="0.sing6", argv=["exact"]), 0, "lc=5 nodes=9\n")
    compress = Job(id="0.c", argv=["compress"])
    assert Checker().check(compress, 0, "d=2 rhos=3 samples=27174 roundtrip=ok\n") == []
    assert Checker().check(compress, 0, "d=2 rhos=3 samples=27174 roundtrip=FAIL(1*0)\n")
    assert Checker().check(compress, 2, "input error: bad\n")


def test_checker_compares_eq_and_eqmq():
    checker = Checker()
    assert checker.check(_exact("eq"), 0, "lc=5 nodes=1\n") == []
    assert checker.check(_exact("eqmq"), 0, "lc=6 nodes=1\n")
    checker = Checker()
    assert checker.check(_exact("eqmq"), 0, "lc=4 nodes=1\n") == []
    assert checker.check(_exact("eq"), 0, "lc=5 nodes=1\n") == []


def test_checker_invariants():
    dims = Job(id="0.d", argv=["dims"])
    assert Checker().check(dims, 0, "ldim=2\nvcdim=1\ncdim=4\nscdim=9\nthreshold=4\n") == []
    assert Checker().check(dims, 0, "ldim=1\nvcdim=2\nthreshold=4\n")
    assert Checker().check(dims, 0, "ldim=2\nvcdim=1\ncdim=5\nscdim=4\nthreshold=4\n")
    witness = Job(id="0.w", argv=["learn"], min_queries=6)
    assert Checker().check(witness, 0, "EQ 000001 -> YES\nresult=success eq=6 mq=0\n") == []
    assert Checker().check(witness, 0, "result=success eq=5 mq=0\n")
    assert Checker().check(Job(id="0.l", argv=["learn"]), 0, "result=exhausted eq=3 mq=0\n")
    thicket = Job(id="0.t", argv=["thicket"])
    ok = "maxrank=1/2\ndeficient_cycles=none\nmean=1.0684 stderr=0.0083 max=3 bound=2\n"
    assert Checker().check(thicket, 0, ok) == []
    assert Checker().check(thicket, 0, ok.replace("mean=1.0684", "mean=2.5"))
    assert Checker().check(thicket, 0, ok.replace("=none", "=0,1"))


def test_checker_accepts_unknown_keys_and_lines():
    job = Job(id="0.sing6", argv=["exact"], expect={"lc": "6"})
    checker = Checker({"0.sing6": {"lc": "6"}})
    assert checker.check(job, 0, "lc=6 nodes=15 cutoffs=3\nphase oracle 0.1s\n") == []
    assert parse_report("a=1 b c=x=y\n") == {"a": "1", "c": "x=y"}


def test_self_time_of_hand_built_span_tree():
    ids = {name: i for i, name in enumerate(tracing.SPAN_NAMES)}
    # cli [0,10] > gametree [1,6] > dimensions.scan [2,3]; cli > core.parse [7,8];
    # a second job's cli [20,21]
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("gametree", 1.0, 6.0, 0),
        ("dimensions.scan", 2.0, 3.0, 1),
        ("core.parse", 7.0, 8.0, 0),
        ("cli", 20.0, 21.0, -1),
    ]
    totals = tracing.self_times(
        array("b", [ids[s[0]] for s in spans]),
        array("d", [s[1] for s in spans]),
        array("d", [s[2] for s in spans]),
        array("l", [s[3] for s in spans]),
    )
    assert totals["cli"] == pytest.approx(4.0 + 1.0)
    assert totals["gametree"] == pytest.approx(4.0)
    assert totals["dimensions.scan"] == pytest.approx(1.0)
    assert totals["core.parse"] == pytest.approx(1.0)
    assert totals["compression"] == 0.0


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run(trace, kind):
    proc = _run(["--workload", "compress", "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in _bench()[kind]}
    for metric in _bench()[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(
        ["--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
