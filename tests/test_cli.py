"""Command-line interface: outputs, exit codes, determinism, warnings."""

import sys

import pytest

from eqlearn import dimensions
from eqlearn.automata import Dfa, format_dfa
from eqlearn.cli import execute
from eqlearn.core import parse_class


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


def test_ldim_past_the_recursion_limit_is_input_error(tmp_path):
    code, text = execute(["gen", "--singletons", "1100"])
    assert code == 0
    deep = tmp_path / "sing1100.cls"
    deep.write_text(text)
    for command in ("dims", "compress", "thicket"):
        code, text = execute([command, "--class", str(deep)])
        assert code == 2 and text.startswith("input error: "), (command, text)
        assert f"recursion limit of {sys.getrecursionlimit()}" in text


def test_exhaustive_arrays_past_their_size_limit_are_input_errors(tmp_path):
    wide = _wide_class(tmp_path, 40)
    for argv in (
        ["dims"],
        ["dims", "--hyp", "m:2"],
        ["learn", "--algo", "cdim", "--teacher", "honest:0"],
        ["exact", "--hyp", "m:2"],
    ):
        code, text = execute(argv + ["--class", wide])
        assert code == 2 and text.startswith("input error: "), (argv, text)
        assert f"limited to |X| <= {dimensions._MAX_SCAN_SIZE}" in text
    narrow = _wide_class(tmp_path, 18)
    code, text = execute(["dims", "--class", narrow, "--hyp", "self"])
    assert code == 0 and "cdim=2" in text, text
    code, text = execute(["dims", "--class", narrow, "--hyp", "self", "--strong"])
    assert code == 2 and f"limited to |X| <= {dimensions._MAX_PARTIALS_SIZE}" in text


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
    ) + tuple(
        (
            learn + ["--algo", algo] + (["--hyp", "powerset"] if algo == "optimal" else []),
            "--mu applies only to --algo thicket",
        )
        for algo in ("optimal", "cdim", "sc2", "halving", "eqmq")
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


def test_gen_deterministic_and_roundtrip():
    a = execute(["gen", "--random", "6", "8", "--seed", "1"])
    b = execute(["gen", "--random", "6", "8", "--seed", "1"])
    assert a == b and a[0] == 0
    cls = parse_class(a[1])
    assert cls.universe.size == 6 and len(cls) == 8
    code, _ = execute(["gen", "--random", "2", "9", "--seed", "1"])
    assert code == 2  # more concepts than totals


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


def test_soft_cap_warning(tmp_path, capsys):
    lines = ["elements: " + " ".join(f"x{i}" for i in range(17))]
    lines.append("0" * 17)
    lines.append("1" * 17)
    path = tmp_path / "wide.cls"
    path.write_text("\n".join(lines))
    code, text = execute(["dims", "--class", str(path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "soft cap" in err
