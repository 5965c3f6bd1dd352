"""The benchmark's tracer finds every layer it wraps in the package."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import tracing  # noqa: E402


def test_tracer_wraps_every_named_function():
    # a rename in eqlearn that drops a traced function shows up here, not
    # only as a warning when the benchmark runs with --trace 1
    assert tracing.Tracer().missing == []


def test_ldim_memo_entries_count_every_entry_of_the_search(tmp_path):
    # the memo holds the search's bounds (lo, hi) as well as exact values,
    # so the counter reads every entry `dims` left, not only the class's own
    from eqlearn import cli

    path = tmp_path / "pow8.cls"
    path.write_text(cli.execute(["gen", "--powerset", "8"])[1])
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        code, _ = cli.execute(["dims", "--class", str(path)])
        classes = list(tracer.job_classes)
    finally:
        tracer.uninstall()
    assert code == 0 and len(classes) == 1
    entries = tracer.counts["dimensions.ldim_memo_entries"]
    assert entries == len(classes[0]._ldim_memo) == 127
