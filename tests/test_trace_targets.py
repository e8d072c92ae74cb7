"""Every function the benchmark traces still exists in haptix.

perfbench/run.py wraps each target of `layers.make_targets` in a span. A
target whose module or attribute was renamed is skipped and its per-layer
metric reads null, so a rename here must come with a rename there.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracing import Shims, Tracer  # noqa: E402

TARGETS = layers.make_targets({})


@pytest.mark.parametrize("target", TARGETS, ids=[t.span for t in TARGETS])
def test_target_resolves(target):
    tracer = Tracer()
    with Shims(tracer, [target], package="haptix"):
        pass
    assert tracer.missing == [], f"haptix.{target.module}.{target.attr} not found"
