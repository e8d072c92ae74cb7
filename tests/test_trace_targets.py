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
from tracing import Shims, Tracer, summarize  # noqa: E402

from haptix import cli, evaluation  # noqa: E402
from haptix.core import save_trials  # noqa: E402
from haptix.preprocess import FeatureSet  # noqa: E402
from haptix.synthgen import GenConfig, generate  # noqa: E402

TARGETS = layers.make_targets({})


@pytest.mark.parametrize("target", TARGETS, ids=[t.span for t in TARGETS])
def test_target_resolves(target):
    tracer = Tracer()
    with Shims(tracer, [target], package="haptix"):
        pass
    assert tracer.missing == [], f"haptix.{target.module}.{target.attr} not found"


# the chain every trial goes through on its way to the feature tensor
PER_TRIAL = ("core.align_streams", "preprocess.detect_contact",
             "preprocess.extract_window", "preprocess.assemble_features",
             "preprocess.prepare_trial")


def test_feature_tensor_calls_each_traced_stage_once_per_trial():
    """A refactor that bypasses a traced function turns its per-layer
    metric to 0; this catches it."""
    ds = generate(GenConfig(trials_per_class=2, seed=5))
    contacts = {}
    tracer = Tracer()
    with Shims(tracer, layers.make_targets(contacts), package="haptix"):
        evaluation.feature_tensor(ds, FeatureSet.parse("all+deriv"))
    assert tracer.missing == []
    rows = summarize(tracer.spans)
    for span in PER_TRIAL:
        assert rows.get(span, {}).get("calls") == len(ds), span
    assert "truncated" in rows["preprocess.extract_window"]
    assert {"samples", "candidates"} <= set(rows["preprocess.detect_contact"])
    assert set(contacts) == {t.id for t in ds.trials}


def _trace_cli(argv):
    tracer = Tracer()
    with Shims(tracer, layers.make_targets({}), package="haptix"):
        assert cli.main(argv) == 0
    assert tracer.missing == []
    return summarize(tracer.spans)


def test_cli_builds_each_feature_tensor_once(tmp_path):
    """evaluate prepares each trial once however many models it fits, and
    cross-domain once per trial of each file."""
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_trials(generate(GenConfig(trials_per_class=3, seed=5)), train)
    save_trials(generate(GenConfig(trials_per_class=2, seed=6)), test)
    hmm = ["--clf", "hmm", "--max-iter", "3"]
    rows = _trace_cli(["evaluate", "--data", str(train), *hmm,
                       "--states-sweep", "2,3", "--out", str(tmp_path / "ev")])
    assert rows["evaluation.run_cv"]["calls"] == 2
    assert rows["preprocess.prepare_trial"]["calls"] == 12
    rows = _trace_cli(["cross-domain", "--train-data", str(train),
                       "--test-data", str(test), *hmm,
                       "--out", str(tmp_path / "xd")])
    assert rows["preprocess.prepare_trial"]["calls"] == 12 + 8


def test_svm_counters(tmp_path):
    """The train_svm counter reads the call's X, epochs and classes by name:
    a signature change that breaks it fails here, not in the benchmark. Each
    fold predicts its test trials in one predict_svm call."""
    data = tmp_path / "train.jsonl"
    ds = generate(GenConfig(trials_per_class=3, seed=5))
    save_trials(ds, data)
    rows = _trace_cli(["evaluate", "--data", str(data), "--clf", "svm",
                       "--k", "3", "--epochs", "5", "--out", str(tmp_path / "ev")])
    n = len(ds)
    # every trial trains in k - 1 = 2 folds, 5 epochs, one update per class
    assert rows["svm.train_svm"]["updates"] == 2 * n * 5 * 4
    assert rows["svm.predict_svm"]["calls"] == 3


@pytest.mark.parametrize("clf", ["lstm", "tcn"])
def test_cross_domain_predicts_in_one_traced_call(tmp_path, clf):
    """predict slices a 40-trial test set inside its traced span, so the
    nn.predict.<kind> span still times the whole prediction."""
    train, test = tmp_path / "train.jsonl", tmp_path / "test.jsonl"
    save_trials(generate(GenConfig(trials_per_class=3, seed=5)), train)
    save_trials(generate(GenConfig(trials_per_class=10, seed=6)), test)
    rows = _trace_cli(["cross-domain", "--train-data", str(train),
                       "--test-data", str(test), "--clf", clf, "--epochs", "1",
                       "--out", str(tmp_path / "xd")])
    assert rows[f"nn.predict.{clf}"]["calls"] == 1


def test_ingest_saves_once_and_counts_the_written_bytes(tmp_path):
    """ingest's reading and writing both happen inside its one save_trials
    span, whose bytes counter is the size of the file ingest leaves."""
    data, out = tmp_path / "raw.jsonl", tmp_path / "canon"
    save_trials(generate(GenConfig(trials_per_class=3, seed=5)), data)
    rows = _trace_cli(["ingest", "--data", str(data), "--out", str(out)])
    assert rows["core.save_trials"]["calls"] == 1
    assert rows["core.save_trials"]["bytes"] == (out / "dataset.jsonl").stat().st_size
