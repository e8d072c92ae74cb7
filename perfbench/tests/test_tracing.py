"""Tests of the benchmark's span arithmetic, shims and contact reference."""

import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracing import Shims, Span, Target, Tracer, summarize, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert union_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert union_length([(4, 4), (6, 5)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_covered_part_once():
    # parent 0..10; children 1..4 and 3..6 overlap (two threads); grandchild
    # 1..2 belongs to child 1, not to the parent
    spans = [
        Span("run", 0.0, 10.0, None, 1),
        Span("fold", 1.0, 4.0, 0, 2),
        Span("fold", 3.0, 6.0, 0, 3),
        Span("fit", 1.0, 2.0, 1, 2, {"n": 5}),
    ]
    out = summarize(spans)
    assert out["run"]["s"] == 10.0
    assert out["run"]["self_s"] == 5.0        # 10 - |[1, 6]|
    assert out["run"]["child_s"] == 6.0       # 3 + 3, overlap counted twice
    assert out["fold"]["calls"] == 2
    assert out["fold"]["self_s"] == 5.0       # (3 - 1) + 3
    assert out["fit"]["n"] == 5
    assert out["fit"]["self_s"] == 1.0


def test_add_rows_sums_fields():
    a = {"x": {"s": 1.0, "calls": 1}}
    b = {"x": {"s": 2.0, "calls": 2, "bytes": 7}, "y": {"s": 1.0}}
    assert layers.add_rows(a, b) == {"x": {"s": 3.0, "calls": 3, "bytes": 7},
                                     "y": {"s": 1.0}}
    assert a == {"x": {"s": 1.0, "calls": 1}}


@pytest.fixture
def fake_package(monkeypatch):
    """pkg.core defines work() and Model.step(); pkg.cli imports work by name."""
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")

    def work(x, scale=2):
        return x * scale

    class Model:
        def step(self, x):
            return core.work(x) + 1

    core.work = work
    core.Model = Model
    cli = types.ModuleType("fakepkg.cli")
    cli.work = work
    pkg.core, pkg.cli = core, cli
    for name, mod in (("fakepkg", pkg), ("fakepkg.core", core), ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, mod)
    return pkg


def test_shims_wrap_every_binding_and_restore(fake_package):
    core, cli = fake_package.core, fake_package.cli
    original = core.work
    tracer = Tracer()
    targets = [Target("core", "work", "core.work", lambda a, r: {"scaled": a["scale"]}),
               Target("core", "Model.step", "core.Model.step")]
    with Shims(tracer, targets, package="fakepkg"):
        assert cli.work(3) == 6
        assert core.Model().step(1) == 3
    assert core.work is original and cli.work is original
    assert [s.name for s in tracer.spans] == ["core.work", "core.Model.step", "core.work"]
    assert tracer.spans[2].parent == 1
    assert tracer.spans[0].counts == {"scaled": 2}
    assert tracer.missing == []
    core.Model().step(1)
    assert len(tracer.spans) == 3


def test_missing_target_is_skipped_and_reported_none(fake_package):
    tracer = Tracer()
    targets = [Target("core", "gone", "core.gone"),
               Target("core", "Model.gone", "core.Model.gone"),
               Target("nomodule", "f", "nomodule.f"),
               Target("core", "work", "core.work")]
    with Shims(tracer, targets, package="fakepkg"):
        fake_package.cli.work(1)
    assert tracer.missing == ["core.gone", "core.Model.gone", "nomodule.f"]
    assert [s.name for s in tracer.spans] == ["core.work"]
    names = ["hmm.baum_welch.s", "core.load_trials.s", "trace_overhead"]
    metrics = layers.span_metrics(summarize(tracer.spans), {"hmm.baum_welch"}, names)
    assert metrics == {"hmm.baum_welch.s": None, "core.load_trials.s": 0}


def test_parallelism_is_fold_time_over_run_cv():
    spans = [
        Span("evaluation.run_cv", 0.0, 4.0, None, 1),
        Span("hmm.baum_welch", 0.0, 4.0, 0, 2),
        Span("hmm.baum_welch", 1.0, 3.0, 0, 3),
    ]
    names = ["evaluation.run_cv.parallelism", "nn.loss_and_grads.calls"]
    assert layers.span_metrics(summarize(spans), set(), names) == {
        "evaluation.run_cv.parallelism": 1.5, "nn.loss_and_grads.calls": 0}


def test_worker_thread_span_takes_run_cv_as_parent():
    tracer = Tracer()
    outer = tracer.open("evaluation.run_cv")

    def fold():
        sid = tracer.open("hmm.baum_welch")
        tracer.close(sid)

    worker = threading.Thread(target=fold)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.close(outer)
    late = tracer.open("hmm.baum_welch")
    tracer.close(late)
    assert tracer.spans[1].parent == outer
    assert tracer.spans[1].thread != tracer.spans[0].thread
    assert tracer.spans[2].parent is None


def test_reference_contact_matches_detect_contact():
    pytest.importorskip("haptix")
    from haptix.core import ComplianceClass, Trial
    from haptix.errors import NoContact
    from haptix.preprocess import detect_contact
    import workloads

    rng = np.random.default_rng(0)
    for case in range(40):
        n = int(rng.integers(20, 400))
        t = np.cumsum(rng.uniform(0.001, 0.004, n))
        wrench = np.zeros((n, 7))
        wrench[:, 0] = t
        wrench[:, 3] = workloads.THRESHOLD + rng.normal(0.0, 0.05 * (case % 4), n)
        pose = np.zeros((n, 7))
        pose[:, 0] = t
        trial = Trial(id=f"t{case}", subject="s", session=1, food_item="banana",
                      label=ComplianceClass.SOFT, wrench=wrench, pose=pose)
        try:
            want = detect_contact(trial, workloads.THRESHOLD, workloads.HOLD)
        except NoContact:
            want = None
        assert workloads.reference_contact(wrench) == want
