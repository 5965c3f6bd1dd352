"""Command-line interface: outputs, exit codes, determinism, silent streams."""

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqlearn import cli, compression, dimensions
from eqlearn.automata import Dfa, format_dfa
from eqlearn.cli import execute
from eqlearn.core import format_class, parse_class
from eqlearn.dimensions import hypothesis_hm

from conftest import (
    cdim_oracle,
    compress_oracle,
    indicator_blocks,
    random_instance,
    samples,
    scdim_oracle,
)


@pytest.fixture()
def tree32_file(tmp_path):
    code, text = execute(["gen", "--tree", "3", "2"])
    assert code == 0
    path = tmp_path / "tree32.cls"
    path.write_text(text)
    return str(path)


@pytest.fixture()
def sing4_file(tmp_path):
    code, text = execute(["gen", "--singletons", "4"])
    assert code == 0
    path = tmp_path / "sing4.cls"
    path.write_text(text)
    return str(path)


def test_dims_tree32(tree32_file):
    code, text = execute(
        ["dims", "--class", tree32_file, "--hyp", "self", "--strong"]
    )
    assert code == 0
    assert text.splitlines() == [
        "ldim=2",
        "vcdim=1",
        "cdim=4",
        "scdim=9",
        "threshold=4",
    ]


def test_dims_without_hypotheses(sing4_file):
    code, text = execute(["dims", "--class", sing4_file])
    assert code == 0
    assert text.splitlines() == ["ldim=1", "vcdim=1", "threshold=4"]


def test_dims_hm_beyond_universe_size_is_self(sing4_file):
    # H_m for m >= |X| is the class itself, so every value matches --hyp self
    code, self_text = execute(["dims", "--class", sing4_file, "--hyp", "self", "--strong"])
    assert code == 0
    for m in ("4", "5", "99"):
        code, text = execute(["dims", "--class", sing4_file, "--hyp", f"m:{m}", "--strong"])
        assert (code, text) == (0, self_text), m


def test_exact_eq(sing4_file, tree32_file):
    code, text = execute(["exact", "--mode", "eq", "--class", sing4_file, "--hyp", "self"])
    assert code == 0 and text.startswith("lc=4 nodes=")
    code, text = execute(["exact", "--mode", "eq", "--class", tree32_file, "--hyp", "self"])
    assert code == 0 and text.startswith("lc=9 nodes=")


def test_exact_eqmq(sing4_file):
    code, text = execute(
        ["exact", "--mode", "eqmq", "--class", sing4_file, "--hyp", "self"]
    )
    assert code == 0 and text.startswith("lc=4 ")


def _wide_class(tmp_path, n):
    """n elements, three concepts: 0^n, 1^n and 1^(n/2) 0^(n/2)."""
    names = " ".join(f"x{i}" for i in range(n))
    path = tmp_path / f"wide{n}.cls"
    half = n // 2
    path.write_text(f"elements: {names}\n{'0' * n}\n{'1' * n}\n{'1' * half}{'0' * (n - half)}\n")
    return str(path)


def test_exact_past_the_recursion_limit_is_input_error(tmp_path):
    code, text = execute(["gen", "--singletons", "1100"])
    assert code == 0
    deep = tmp_path / "sing1100.cls"
    deep.write_text(text)
    # as wide, but three concepts: the search is only three calls deep
    wide = _wide_class(tmp_path, 1100)
    for mode in ("eq", "eqmq"):
        argv = ["exact", "--mode", mode, "--hyp", "self", "--class"]
        code, text = execute(argv + [str(deep)])
        assert code == 2 and text.startswith("input error: "), text
        assert f"recursion limit of {sys.getrecursionlimit()}" in text
        code, text = execute(argv + [wide])
        assert code == 0 and text.startswith("lc=2 "), text


def test_ldim_and_threshold_past_the_recursion_limit_answer(tmp_path):
    """The Littlestone threshold search nests at most ldim + 2 calls deep,
    and the hitting-set search behind the consistency threshold runs in one
    frame at any budget, so neither needs a recursion guard: `compress`
    answers SING(1100), and `compress` and `dims` answer indicator blocks at
    k = 200 (600 elements; a search for exact side values took 202 calls
    deep, and the threshold's budget reaches 199) even under a recursion
    limit that leaves the command only about 60 frames."""
    code, text = execute(["gen", "--singletons", "1100"])
    assert code == 0
    sing = tmp_path / "sing1100.cls"
    sing.write_text(text)
    assert execute(["compress", "--class", str(sing)]) == (0, "d=1 rhos=2\n")
    deep = tmp_path / "blocks200.cls"
    deep.write_text(format_class(indicator_blocks(200)))
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 60)
    try:
        compressed = execute(["compress", "--class", str(deep)])
        dims = execute(["dims", "--class", str(deep)])
    finally:
        sys.setrecursionlimit(saved)
    assert compressed == (0, "d=3 rhos=4\n")
    assert dims == (0, "ldim=3\nvcdim=2\nthreshold=200\n")


def test_witness_teacher_on_sing1100_needs_no_deep_recursion(tmp_path):
    """The witness teacher's consistency check on SING(1100) asks the
    hitting-set search for 1100 points of the all-zeros labeling."""
    path = tmp_path / "sing1100.cls"
    path.write_text(execute(["gen", "--singletons", "1100"])[1])
    teacher = "witness:" + "0" * 1100 + ":1099"
    argv = ["learn", "--class", str(path), "--algo", "optimal", "--hyp", "powerset"]
    code, text = execute(argv + ["--teacher", teacher])
    assert code == 0 and text.endswith("result=success eq=2 mq=0\n"), text[-200:]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--strong", "--hyp", "m:2"],
        ["dims", "--strong", "--hyp", "FILE"],
        ["exact", "--hyp", "m:2"],
        ["learn", "--algo", "cdim", "--teacher", "tree", "--hyp", "m:2"],
    ],
    ids=["dims-m2", "dims-file", "exact-m2", "learn-m2"],
)
def test_hypothesis_class_columns_are_never_built(tree32_file, tmp_path, monkeypatch, argv):
    """H is asked only for its members, so its per-element columns stay
    unbuilt; the class's own are built as before."""
    hyp_file = tmp_path / "hyp.cls"
    tree32 = parse_class(execute(["gen", "--tree", "3", "2"])[1])
    hyp_file.write_text(format_class(hypothesis_hm(tree32, 3)))
    seen = []
    load_hypotheses = cli._load_hypotheses

    def keeping(spec, cls):
        seen.append((cls, load_hypotheses(spec, cls)))
        return seen[-1][1]

    monkeypatch.setattr(cli, "_load_hypotheses", keeping)
    argv = [str(hyp_file) if arg == "FILE" else arg for arg in argv]
    code, _ = execute(argv + ["--class", tree32_file])
    [(cls, hyp)] = seen
    assert code == 0 and hyp is not cls
    assert hyp._element_ones is None and cls._element_ones is not None


def test_exhaustive_arrays_past_their_size_limit_are_input_errors(tmp_path):
    # the threshold and cdim list no totals, so they answer at any size;
    # H_m lists its totals, and is refused past the limit
    wide = _wide_class(tmp_path, 40)
    assert execute(["dims", "--class", wide]) == (0, "ldim=1\nvcdim=1\nthreshold=2\n")
    code, text = execute(["learn", "--algo", "cdim", "--teacher", "honest:0", "--class", wide])
    assert code == 0 and text.endswith("YES\nresult=success eq=2 mq=0\n"), text
    for argv in (["dims", "--hyp", "m:2"], ["exact", "--hyp", "m:2"]):
        code, text = execute(argv + ["--class", wide])
        assert code == 2 and text.startswith("input error: "), (argv, text)
        assert f"(H_m) is limited to |X| <= {dimensions._MAX_SCAN_SIZE}" in text
    narrow = _wide_class(tmp_path, 18)
    code, text = execute(["dims", "--class", narrow, "--hyp", "self"])
    assert code == 0 and "cdim=2" in text, text
    code, text = execute(["dims", "--class", narrow, "--hyp", "self", "--strong"])
    assert code == 2 and f"limited to |X| <= {dimensions._MAX_PARTIALS_SIZE}" in text


def test_dims_answers_the_threshold_of_sing24(tmp_path):
    # the largest universe the search takes, with the largest threshold
    path = tmp_path / "sing24.cls"
    path.write_text(execute(["gen", "--singletons", "24"])[1])
    code, text = execute(["dims", "--class", str(path)])
    assert code == 0 and text.split() == ["ldim=1", "vcdim=1", "threshold=24"], text


def test_dims_self_searches_the_totals_once(tmp_path, monkeypatch):
    # against the class itself cdim is the threshold: --hyp self runs the
    # threshold's search over totals and no second one
    path = tmp_path / "r.cls"
    path.write_text(execute(["gen", "--random", "10", "20", "--seed", "1"])[1])
    search = dimensions._totals_above
    calls = []

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(dimensions, "_totals_above", counted)
    code, text = execute(["dims", "--class", str(path)])
    assert code == 0 and calls, text
    alone = len(calls)
    code, text = execute(["dims", "--class", str(path), "--hyp", "self"])
    values = dict(line.split("=") for line in text.split())
    assert code == 0 and len(calls) == 2 * alone, (alone, len(calls))
    assert values["cdim"] == values["threshold"]


def test_dims_refuses_a_wide_universe_before_any_dimension(tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("dims computed a dimension before refusing H_m")

    monkeypatch.setattr(cli, "vc_dim", fail)
    monkeypatch.setattr(cli, "ldim_subset", fail)
    monkeypatch.setattr(cli, "consistency_threshold", fail)
    code, text = execute(["dims", "--hyp", "m:2", "--class", _wide_class(tmp_path, 25)])
    assert code == 2 and text.startswith("input error: "), text
    assert f"limited to |X| <= {dimensions._MAX_SCAN_SIZE}" in text


def test_dims_refuses_the_strong_arrays_before_any_scan(tmp_path, monkeypatch):
    def fail(*args):
        raise AssertionError("dims searched the totals before refusing the 3^|X| arrays")

    monkeypatch.setattr(dimensions, "_totals_above", fail)
    wide = _wide_class(tmp_path, dimensions._MAX_PARTIALS_SIZE + 1)
    for hyp in ("self", "m:2", wide):
        code, text = execute(["dims", "--class", wide, "--hyp", hyp, "--strong"])
        assert code == 2 and text.startswith("input error: "), (hyp, text)
        assert f"limited to |X| <= {dimensions._MAX_PARTIALS_SIZE}" in text
    # the strong dimension against the powerset builds no array
    monkeypatch.undo()
    code, text = execute(["dims", "--class", wide, "--hyp", "powerset", "--strong"])
    assert code == 0 and "scdim=1" in text, text


@pytest.mark.parametrize("seed", range(6))
def test_dims_strong_reads_every_level_off_the_array(tmp_path, monkeypatch, seed):
    cls, superset = random_instance(seed + 1300, max_x=5, max_c=6, max_extra=3)
    path = tmp_path / "c.cls"
    path.write_text(format_class(cls))
    hyp_path = tmp_path / "h.cls"
    hyp_path.write_text(format_class(superset))
    hyps = {
        "self": cls,
        "m:2": hypothesis_hm(cls, 2),
        "m:3": hypothesis_hm(cls, 3),
        str(hyp_path): superset,
    }
    code, text = execute(["dims", "--class", str(path)])
    assert code == 0, text
    threshold = dict(line.split("=") for line in text.split())["threshold"]

    def fail(*args):
        raise AssertionError("dims --strong searched the totals")

    monkeypatch.setattr(dimensions, "_totals_above", fail)
    for spec, hyp in hyps.items():
        code, text = execute(["dims", "--class", str(path), "--hyp", spec, "--strong"])
        assert code == 0, (spec, text)
        values = dict(line.split("=") for line in text.split())
        assert int(values["cdim"]) == cdim_oracle(cls, hyp), spec
        assert int(values["scdim"]) == scdim_oracle(cls, hyp), spec
        assert values["threshold"] == threshold, spec


def test_missing_file_is_input_error(sing4_file):
    code, text = execute(["dims", "--class", "no-such-file.cls"])
    assert code == 2 and "input error" in text
    learn = ["learn", "--class", sing4_file, "--hyp", "self"]
    for argv in (
        learn + ["--algo", "thicket", "--teacher", "honest:0", "--mu", "no-such.mu"],
        learn + ["--algo", "cdim", "--teacher", "random:no-such.mu:1", "--target", "0"],
        ["thicket", "--class", sing4_file, "--mu", "no-such.mu"],
        ["dfa", "--states", "2", "--maxlen", "2", "--learn", "--target", "no-such.dfa"],
    ):
        code, text = execute(argv)
        assert code == 2 and text.startswith("input error: cannot read no-such"), argv


def test_bad_teacher_index_is_input_error(sing4_file):
    for index in ("9", "-1"):
        code, text = execute(
            [
                "learn",
                "--class",
                sing4_file,
                "--algo",
                "cdim",
                "--teacher",
                f"honest:{index}",
            ]
        )
        assert code == 2 and text.startswith("input error: invalid target index"), index


def test_bad_usage_is_exit_1(sing4_file, tmp_path):
    code, text = execute(["dims"])
    assert code == 1
    code, text = execute(["frobnicate"])
    assert code == 1
    code, text = execute(["exact", "--mode", "zz", "--class", "x", "--hyp", "self"])
    assert code == 1
    learn = ["learn", "--class", sing4_file, "--algo", "cdim", "--teacher"]
    for spec, form in (
        ("witness:0000", "witness:<partial>:<n>"),
        ("random:", "random:<mu-file>:<seed>"),
        ("honest:1:2", "honest:<i>"),
        ("tree:1", "tree"),
        # integer fields are an optional minus sign and decimal digits
        ("honest:abc", "honest:<i>"),
        ("honest:1_0", "honest:<i>"),
        ("honest:+1", "honest:<i>"),
        ("honest: 1", "honest:<i>"),
        ("witness:0000:x", "witness:<partial>:<n>"),
    ):
        code, text = execute(learn + [spec])
        assert code == 1 and text.startswith("usage error: teacher"), spec
        assert text.rstrip().endswith(form), spec
    mu = tmp_path / "mu.dist"
    mu.write_text("x0 1/4\nx1 1/4\nx2 1/4\nx3 1/4\n")
    code, text = execute(learn + [f"random:{mu}:x", "--target", "0"])
    assert code == 1 and text.rstrip().endswith("random:<mu-file>:<seed>"), text
    for spec in ("honest:1", "tree", "witness:0000:3"):
        code, text = execute(learn + [spec, "--target", "3"])
        assert code == 1, spec
        assert text == "usage error: --target applies only to the random teacher\n"
    # flags that the command would otherwise drop without a word
    dfa = ["dfa", "--states", "2", "--maxlen", "2"]
    learn_only = "--target and --mode apply only with --learn"
    learn = ["learn", "--class", sing4_file, "--teacher", "tree", "--mu", sing4_file]
    for argv, message in (
        (["dims", "--class", sing4_file, "--strong"], "--strong needs --hyp"),
        (dfa + ["--dims", "--target", sing4_file], learn_only),
        (dfa + ["--target", sing4_file], learn_only),
        (dfa + ["--dims", "--mode", "eq"], learn_only),
        (dfa + ["--mode", "eqmq"], learn_only),
        (
            dfa + ["--dims", "--learn", "--target", sing4_file],
            "--dims and --learn are separate reports",
        ),
        (["thicket", "--class", sing4_file, "--seed", "5"], "--seed applies only with --trials"),
    ) + tuple(
        (
            learn + ["--algo", algo] + (["--hyp", "powerset"] if algo == "optimal" else []),
            "--mu applies only to --algo thicket",
        )
        for algo in ("optimal", "cdim", "sc2", "halving", "eqmq")
    ) + tuple(
        # refused before the class file, which does not exist, is read
        (
            ["learn", "--class", str(tmp_path / "missing.cls"), "--algo", "thicket"]
            + ["--teacher", "tree", "--hyp", spec],
            "--algo thicket guesses members of the class; use --hyp self",
        )
        for spec in ("powerset", "m:2", "m:30", sing4_file)
    ):
        code, text = execute(argv)
        assert (code, text) == (1, f"usage error: {message}\n"), argv
    # a malformed m:<k>; a well-formed but meaningless m stays an input error
    for spec in ("m:abc", "m:", "m:1.5", "m:3x"):
        for argv in (
            ["exact", "--class", sing4_file],
            ["dims", "--class", sing4_file],
            ["learn", "--class", sing4_file, "--algo", "cdim", "--teacher", "tree"],
        ):
            code, text = execute(argv + ["--hyp", spec])
            message = f"usage error: hypothesis {spec!r} does not have the form m:<k>\n"
            assert (code, text) == (1, message), argv
    assert execute(["exact", "--class", sing4_file, "--hyp", "m:0"])[0] == 2


def test_meaningless_sizes_are_input_errors(sing4_file, tmp_path):
    for argv in (
        ["dfa", "--states", "2", "--maxlen", "-1", "--dims"],
        ["dfa", "--states", "0", "--maxlen", "2", "--dims"],
        ["dfa", "--states", "-1", "--maxlen", "2", "--dims"],
        ["thicket", "--class", sing4_file, "--cycles", "1"],
        ["thicket", "--class", sing4_file, "--cycles", "-1"],
        ["thicket", "--class", sing4_file, "--trials", "0"],
        ["thicket", "--class", sing4_file, "--trials", "-2"],
    ):
        code, text = execute(argv)
        assert code == 2 and text.startswith("input error: "), argv
    # seeds outside [0, 2^64) are refused, not reduced mod 2^64
    mu = tmp_path / "mu.dist"
    mu.write_text("x0 1/4\nx1 1/4\nx2 1/4\nx3 1/4\n")
    learn = ["learn", "--class", sing4_file, "--algo", "halving", "--target", "3"]
    thicket = ["thicket", "--class", sing4_file, "--trials", "5", "--seed"]
    for argv in (
        learn + ["--teacher", f"random:{mu}:-1"],
        thicket + ["-1"],
        thicket + [str(1 << 64)],
        ["gen", "--random", "6", "8", "--seed", "-1"],
        # checked when parsed, also where no generator is built
        ["thicket", "--class", sing4_file, "--seed", "-1"],
        ["gen", "--singletons", "2", "--seed", "-5"],
        ["gen", "--singletons", "2", "--seed", str(1 << 64)],
    ):
        code, text = execute(argv)
        assert code == 2 and "outside the range 0..2^64-1" in text, (argv, text)
    assert execute(thicket + [str((1 << 64) - 1)])[0] == 0
    # a repeated transition is a parse error, not a silent overwrite
    target = tmp_path / "repeated.dfa"
    target.write_text("states: 2\naccept: 0\n0 0 1\n0 1 0\n0 0 0\n1 0 0\n1 1 1\n")
    argv = ["dfa", "--states", "2", "--maxlen", "2", "--learn", "--target", str(target)]
    code, text = execute(argv)
    assert code == 2 and "repeated transition" in text, text
    # a transition out of a state the header does not declare is refused too
    target.write_text("states: 2\naccept: 0\n0 0 1\n0 1 0\n1 0 0\n1 1 1\n5 0 0\n")
    code, text = execute(argv)
    assert code == 2 and "line 7: state '5' is not an integer in 0..1" in text, text


def test_learn_transcript(sing4_file):
    code, text = execute(
        [
            "learn",
            "--class",
            sing4_file,
            "--hyp",
            "powerset",
            "--algo",
            "optimal",
            "--teacher",
            "tree",
        ]
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[-1] == "result=success eq=2 mq=0"
    assert lines[0].startswith("EQ 0000 -> CE ")


def test_learn_honest_and_witness(sing4_file):
    code, text = execute(
        [
            "learn",
            "--class",
            sing4_file,
            "--hyp",
            "self",
            "--algo",
            "cdim",
            "--teacher",
            "honest:2",
        ]
    )
    assert code == 0 and text.splitlines()[-1].startswith("result=success")
    code, text = execute(
        [
            "learn",
            "--class",
            sing4_file,
            "--hyp",
            "self",
            "--algo",
            "halving",
            "--teacher",
            "witness:0000:3",
        ]
    )
    assert code == 0
    final = text.splitlines()[-1]
    assert final.startswith("result=success")
    assert int(final.split("eq=")[1].split()[0]) >= 4


def test_learn_random_teacher(tmp_path, sing4_file):
    mu = tmp_path / "mu.dist"
    mu.write_text("x0 1/4\nx1 1/4\nx2 1/4\nx3 1/4\n")
    argv = [
        "learn",
        "--class",
        sing4_file,
        "--hyp",
        "self",
        "--algo",
        "thicket",
        "--teacher",
        f"random:{mu}:9",
        "--target",
        "2",
    ]
    code, text = execute(argv)
    assert code == 0
    assert text == execute(argv)[1]  # deterministic given the seed
    code, text = execute(argv[:-2])  # drop --target
    assert code == 1


def test_learn_hm_hypotheses(sing4_file):
    code, text = execute(
        [
            "learn",
            "--class",
            sing4_file,
            "--hyp",
            "m:2",
            "--algo",
            "sc2",
            "--teacher",
            "honest:1",
        ]
    )
    assert code == 0
    final = text.splitlines()[-1]
    assert final.startswith("result=success")
    assert int(final.split("eq=")[1].split()[0]) <= 2


def test_hypotheses_from_file(tmp_path, sing4_file):
    code, text = execute(["gen", "--singletons", "4"])
    hyp_text = text + "0000\n"
    hyp_path = tmp_path / "singe4.cls"
    hyp_path.write_text(hyp_text)
    code, text = execute(["dims", "--class", sing4_file, "--hyp", str(hyp_path)])
    assert code == 0 and "cdim=2" in text
    code, text = execute(
        ["exact", "--mode", "eq", "--class", sing4_file, "--hyp", str(hyp_path)]
    )
    assert code == 0 and text.startswith("lc=2 ")


def test_thicket_with_distribution_file(tmp_path, sing4_file):
    mu = tmp_path / "mu.dist"
    mu.write_text("x0 1/2\nx1 1/6\nx2 1/6\nx3 1/6\n")
    code, text = execute(["thicket", "--class", sing4_file, "--mu", str(mu)])
    assert code == 0
    assert text.splitlines()[1] == "deficient_cycles=none"


def test_thicket_trials_under_a_coprime_distribution(tmp_path, sing4_file):
    # pins the law of every drawn counterexample under unequal weights: the
    # denominators 2, 6, 5, 15 put the units 15, 5, 6, 4 over 30
    mu = tmp_path / "mu4.txt"
    mu.write_text("x0 1/2\nx1 1/6\nx2 1/5\nx3 2/15\n")
    argv = ["thicket", "--class", sing4_file, "--mu", str(mu)]
    code, text = execute(argv + ["--trials", "3000", "--seed", "7"])
    assert code == 0
    assert text == (
        "maxrank=5/9\n"
        "deficient_cycles=none\n"
        "mean=0.9517 stderr=0.0136 max=3 bound=2\n"
    )


def test_thicket_command(sing4_file):
    code, text = execute(["thicket", "--class", sing4_file])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "maxrank=1/2"
    assert lines[1] == "deficient_cycles=none"
    code, text = execute(
        ["thicket", "--class", sing4_file, "--trials", "200", "--seed", "42"]
    )
    assert code == 0
    assert "bound=2" in text.splitlines()[2]


def test_compress_command(sing4_file, tree32_file):
    code, text = execute(["compress", "--class", sing4_file])
    assert code == 0 and text.strip() == "d=1 rhos=2"
    code, text = execute(["compress", "--class", sing4_file, "--check-all"])
    assert code == 0
    assert text.strip().endswith("roundtrip=ok")
    assert "d=1 rhos=2 samples=" in text


def test_compress_check_all_reports_the_first_failing_sample(
    tree32, tree32_file, monkeypatch
):
    # refuse every decode of TREE(3,2)'s most common tuple, (0, 0); the
    # first sample encoded to it is 100*00000000
    tuples = [compress_oracle(tree32, s) for s in samples(tree32)]
    refused = max(sorted(set(tuples)), key=tuples.count)
    decode = compression.decompress

    def broken(concept_class, index, tup):
        return None if tup == refused else decode(concept_class, index, tup)

    monkeypatch.setattr(compression, "decompress", broken)
    code, text = execute(["compress", "--class", tree32_file, "--check-all"])
    assert code == 0
    assert text == "d=2 rhos=3 samples=27174 roundtrip=FAIL(100*00000000)\n"


def test_dfa_command(tmp_path):
    code, text = execute(["dfa", "--states", "2", "--maxlen", "3", "--dims"])
    assert code == 0
    assert "concepts=26" in text and "ldim=4" in text and "cdim=4" in text
    target = tmp_path / "parity.dfa"
    target.write_text(format_dfa(Dfa(2, [(0, 1), (1, 0)], [0])))
    code, text = execute(
        [
            "dfa",
            "--states",
            "2",
            "--maxlen",
            "3",
            "--learn",
            "--target",
            str(target),
            "--mode",
            "eqmq",
        ]
    )
    assert code == 0
    assert "result=success" in text


def test_dfa_learn_enumerates_the_class_once(tmp_path, monkeypatch):
    from eqlearn import automata

    calls = []
    enumerate_dfa_class = automata.enumerate_dfa_class

    def counting(n, m):
        calls.append((n, m))
        return enumerate_dfa_class(n, m)

    monkeypatch.setattr(automata, "enumerate_dfa_class", counting)
    target = tmp_path / "parity.dfa"
    target.write_text(format_dfa(Dfa(2, [(0, 1), (1, 0)], [0])))
    for mode in ("eq", "eqmq"):
        calls.clear()
        argv = ["dfa", "--states", "2", "--maxlen", "3", "--learn", "--target", str(target)]
        code, text = execute(argv + ["--mode", mode])
        assert code == 0 and "result=success" in text
        assert text.splitlines()[-1] == "bound=exact c=4 d=4"
        assert calls == [(2, 3)], mode
    # a bad target fails before the class is built; the report enumerates once too
    calls.clear()
    target.write_text("states: 2\naccept: 0\n")
    code, text = execute(argv)
    assert code == 2 and "state 0 is missing a transition" in text and calls == []
    code, _ = execute(["dfa", "--states", "2", "--maxlen", "3", "--dims"])
    assert code == 0 and calls == [(2, 3)]


def test_gen_deterministic_and_roundtrip():
    a = execute(["gen", "--random", "6", "8", "--seed", "1"])
    b = execute(["gen", "--random", "6", "8", "--seed", "1"])
    assert a == b and a[0] == 0
    cls = parse_class(a[1])
    assert cls.universe.size == 6 and len(cls) == 8
    code, _ = execute(["gen", "--random", "2", "9", "--seed", "1"])
    assert code == 2  # more concepts than totals


def test_gen_random_refuses_an_empty_or_negative_universe():
    # the universe is checked before 2^|X| is formed, so a negative width
    # is refused as gen --singletons refuses one, not by a shift error
    message = (2, "input error: universe must contain at least one element\n")
    for argv in (["--random", "-3", "2"], ["--random", "0", "2"], ["--singletons", "-4"]):
        assert execute(["gen"] + argv + ["--seed", "1"]) == message, argv


def test_gen_random_wider_than_64_elements():
    for nx, nc in ((65, 3), (130, 2)):
        code, text = execute(["gen", "--random", str(nx), str(nc), "--seed", "1"])
        assert code == 0
        cls = parse_class(text)
        assert cls.universe.size == nx and len(cls) == nc
        assert len(set(cls.member_bits())) == nc


def test_gen_requires_seed_for_random():
    code, text = execute(["gen", "--random", "4", "4"])
    assert code == 1


def test_gen_refuses_oversized_classes_before_building_them(monkeypatch):
    def not_built(*args):
        raise AssertionError("class built past the cell limit")

    for name in ("tree_class", "singletons", "powerset_class", "random_class"):
        monkeypatch.setattr(cli.fixtures, name, not_built)
    limit = cli.GEN_CELL_LIMIT
    for argv in (
        ["--tree", "99999", "99999"],
        ["--tree", "4", "6"],
        ["--tree", "2", str(10**18)],
        ["--powerset", "18"],
        ["--powerset", str(10**18)],
        ["--singletons", "2049"],
        ["--random", "99999", "99999", "--seed", "1"],
        # each element is charged at least 64 cells for its name
        ["--random", str(limit // 64 + 1), "1", "--seed", "1"],
    ):
        code, text = execute(["gen"] + argv)
        assert (code, text) == (
            2,
            f"input error: gen is limited to |X| * |C| <= {limit} label cells\n",
        ), argv
    # a usage error still comes first
    assert execute(["gen", "--random", "99999", "99999"])[0] == 1


def test_gen_at_the_cell_limit():
    assert cli.GEN_CELL_LIMIT == 2048 * 2048
    code, text = execute(["gen", "--singletons", "2048"])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 2049 and lines[1] == "1" + "0" * 2047


@pytest.mark.parametrize(
    "gen, argv, expected",
    [
        (["--random", "17", "65", "--seed", "1"], ["compress"], "d=6 rhos=7\n"),
        (
            ["--random", "8", "65", "--seed", "3"],
            ["exact", "--mode", "eq", "--hyp", "self"],
            "lc=7 nodes=1025\n",
        ),
    ],
    ids=["compress-17x65", "exact-8x65"],
)
def test_execute_writes_nothing_to_a_stream(tmp_path, capsys, gen, argv, expected):
    code, text = execute(["gen"] + gen)
    assert code == 0, text
    path = tmp_path / "c.cls"
    path.write_text(text)
    capsys.readouterr()
    assert execute(argv + ["--class", str(path)]) == (0, expected)
    assert capsys.readouterr() == ("", "")


_SUBCOMMANDS = ("dims", "exact", "learn", "thicket", "compress", "dfa", "gen")


def test_help_is_returned_not_exited():
    for argv in [["-h"], ["--help"]] + [[c, "-h"] for c in _SUBCOMMANDS] + [
        ["learn", "--help"]
    ]:
        code, text = execute(argv)
        assert code == 0 and text.startswith("usage: eqlearn"), argv
        if len(argv) == 2:
            assert text.startswith(f"usage: eqlearn {argv[0]} "), argv
    # help wins over a missing required argument, as in argparse
    assert execute(["exact", "--class", "x.cls", "-h"])[0] == 0


def _run_main(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["eqlearn"] + argv)
    with pytest.raises(SystemExit) as exc:
        cli.main()
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_main_streams_and_exit_codes(monkeypatch, capsys, sing4_file):
    code, out, err = _run_main(monkeypatch, capsys, ["dims", "--class", sing4_file])
    assert (code, out, err) == (0, "ldim=1\nvcdim=1\nthreshold=4\n", "")
    code, out, err = _run_main(monkeypatch, capsys, ["dims", "-h"])
    assert code == 0 and out.startswith("usage: eqlearn dims ") and err == ""
    code, out, err = _run_main(monkeypatch, capsys, ["dims"])
    assert code == 1 and out == "" and err.startswith("usage error: ")
    code, out, err = _run_main(monkeypatch, capsys, ["dims", "--class", "no-such-file.cls"])
    assert code == 2 and out == "" and err.startswith("input error: cannot read")


def test_the_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def _execute_fresh(argv):
    """`execute` with a parser built for this call alone."""
    with mock.patch.object(cli, "_build_parser", cli._build_parser.__wrapped__):
        return execute(argv)


def test_the_shared_parser_keeps_no_state_between_calls(sing4_file, tree32_file):
    argvs = [
        ["dims", "--class", tree32_file, "--hyp", "self", "--strong"],
        # a usage error raised part-way through parsing
        ["learn", "--class", sing4_file, "--algo", "zz", "--teacher", "tree"],
        ["exact", "--class", sing4_file, "--hyp", "self", "--mode", "eqmq"],
        ["exact", "--class", sing4_file, "--mode"],
        ["learn", "--class", sing4_file, "--algo", "cdim", "--teacher", "honest:1"],
        ["-h"],
        ["thicket", "--class", sing4_file, "--trials", "20", "--seed", "3"],
        ["gen", "--tree", "3", "2", "--singletons", "4"],
        ["compress", "--class", tree32_file],
        ["learn", "-h"],
        ["thicket", "--class", sing4_file, "--seed", "-1"],
        ["dfa", "--states", "2", "--maxlen", "2", "--dims"],
        ["gen", "--singletons", "4"],
        ["dims", "--class", sing4_file],
    ]
    fresh = [_execute_fresh(argv) for argv in argvs]
    assert [code for code, _ in fresh] == [0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0]
    assert [execute(argv) for argv in argvs] == fresh
    assert [execute(argv) for argv in reversed(argvs)] == fresh[::-1]


def test_numpy_is_loaded_only_by_the_commands_that_scan(sing4_file, tree32_file):
    argvs = [
        ["compress", "--class", tree32_file, "--check-all"],
        ["exact", "--class", sing4_file, "--hyp", "self"],
        ["exact", "--class", sing4_file, "--hyp", "powerset"],
        ["gen", "--random", "6", "8", "--seed", "1"],
        ["thicket", "--class", sing4_file, "--trials", "10"],
        ["learn", "--class", sing4_file, "--algo", "thicket", "--teacher", "tree"],
        ["learn", "--class", sing4_file, "--algo", "optimal", "--hyp", "powerset"]
        + ["--teacher", "tree"],
        # the consistency answers come from the search, with no array
        ["dims", "--class", sing4_file],
        ["dfa", "--states", "2", "--maxlen", "2", "--dims"],
        ["learn", "--class", tree32_file, "--algo", "cdim", "--hyp", "self", "--teacher", "tree"],
        # H_m built by the search, in its order, with no sort
        ["exact", "--class", sing4_file, "--hyp", "m:2"],
        ["learn", "--class", sing4_file, "--algo", "sc2", "--hyp", "m:2", "--teacher", "tree"],
        # last, and it builds the 3^|X| array: the probe sees numpy when it is loaded
        ["dims", "--class", sing4_file, "--hyp", "self", "--strong"],
    ]
    script = (
        "import json, sys\n"
        "from eqlearn.cli import execute\n"
        "seen = [[0, 'numpy' in sys.modules]]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    seen.append([execute(argv)[0], 'numpy' in sys.modules])\n"
        "print(json.dumps(seen))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    seen = json.loads(proc.stdout)
    assert seen == [[0, False]] * len(argvs) + [[0, True]], proc.stderr


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """SING(4), TREE(3,2), a malformed class file and a missing path."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, text in (
        ("sing4.cls", execute(["gen", "--singletons", "4"])[1]),
        ("tree32.cls", execute(["gen", "--tree", "3", "2"])[1]),
        ("malformed.cls", "elements: a b\n01\n2x\n"),
    ):
        (root / name).write_text(text)
        paths.append(str(root / name))
    return tuple(paths) + (str(root / "missing.cls"),)


_GARBAGE = ("", "-", "--", "-x", "--bogus", "zz", "m:x", "-h", "3.5")
_INTS = tuple(str(i) for i in range(-3, 6))


@st.composite
def _argvs(draw, paths):
    """A subcommand (or an unknown one), then each of its flags or not, with
    a value drawn for it (mostly of the right kind), and perhaps a stray
    token, in any order."""

    def value(likely, unlikely=()):
        return st.sampled_from(likely * 3 + unlikely).map(lambda t: [t])

    number, path = value(_INTS, paths), value(paths, _INTS)
    switch, pair = st.just([]), st.lists(st.sampled_from(_INTS), min_size=2, max_size=2)
    hyp = value(("self", "powerset", "m:2", "m:x"), paths + _INTS)
    mode = value(("eq", "eqmq"), _INTS)
    flags = {
        "dims": {"--class": path, "--hyp": hyp, "--strong": switch},
        "exact": {"--class": path, "--hyp": hyp, "--mode": mode},
        "learn": {
            "--class": path,
            "--hyp": hyp,
            "--algo": value(("optimal", "cdim", "sc2", "halving", "eqmq", "thicket"), _INTS),
            "--teacher": value(("tree", "honest:1", "honest:x", "witness:0000:1", "random:x:1")),
            "--target": number,
            "--budget": number,
            "--mu": path,
        },
        "thicket": {
            "--class": path,
            "--mu": path,
            "--cycles": number,
            "--trials": number,
            "--seed": number,
        },
        "compress": {"--class": path, "--check-all": switch},
        "dfa": {
            "--states": number,
            "--maxlen": number,
            "--dims": switch,
            "--learn": switch,
            "--target": path,
            "--mode": mode,
        },
        "gen": {
            "--tree": pair,
            "--singletons": number,
            "--powerset": number,
            "--random": pair,
            "--seed": number,
        },
    }
    command = draw(st.sampled_from(_SUBCOMMANDS + ("frobnicate",)))
    # a flag argparse requires is left out one time in eight, any other in two
    required = ("--class", "--algo", "--teacher", "--states", "--maxlen")
    items = [
        [flag] + draw(values)
        for flag, values in flags.get(command, {}).items()
        if draw(st.sampled_from((True,) * 7 + (False,) if flag in required else (True, False)))
    ]
    stray = draw(st.sampled_from((None,) * 4 * len(_GARBAGE) + _GARBAGE))
    if stray is not None:
        items.append([stray])
    return [command] + [token for item in draw(st.permutations(items)) for token in item]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_argv_keeps_the_exit_code_contract(fuzz_paths, data):
    argv = data.draw(_argvs(fuzz_paths))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, text = execute(argv)
    assert code in (0, 1, 2, 3) and isinstance(text, str)
    assert out.getvalue() == err.getvalue() == ""
    assert _execute_fresh(argv) == (code, text)
