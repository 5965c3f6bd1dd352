"""Command-line interface: outputs, exit codes, determinism, warnings."""

import pytest

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


def test_bad_usage_is_exit_1():
    code, text = execute(["dims"])
    assert code == 1
    code, text = execute(["frobnicate"])
    assert code == 1
    code, text = execute(["exact", "--mode", "zz", "--class", "x", "--hyp", "self"])
    assert code == 1


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


def test_gen_deterministic_and_roundtrip():
    a = execute(["gen", "--random", "6", "8", "--seed", "1"])
    b = execute(["gen", "--random", "6", "8", "--seed", "1"])
    assert a == b and a[0] == 0
    cls = parse_class(a[1])
    assert cls.universe.size == 6 and len(cls) == 8
    code, _ = execute(["gen", "--random", "2", "9", "--seed", "1"])
    assert code == 2  # more concepts than totals


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
