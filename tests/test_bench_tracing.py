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
