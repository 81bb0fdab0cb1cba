"""Every function that perfbench/tracing.py times is still found under the
name it patches: a renamed or deleted one would otherwise show only in a
traced benchmark run, as a missing per-layer metric."""

import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.Tracer().missing == set()
