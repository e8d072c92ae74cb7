"""haptix's layers as a traced run sees them: the public functions wrapped,
what each call counts, and the per-layer metrics derived from the spans."""

from __future__ import annotations

import os

import numpy as np

from tracing import Target


def make_targets(contacts: dict) -> list[Target]:
    """Shim targets. `contacts` collects detect_contact's result per trial id."""

    def load(a, result):
        return {"trials": len(result), "bytes": os.path.getsize(a["path"])}

    def save(a, result):
        return {"bytes": os.path.getsize(a["path"])}

    def baum_welch(a, result):
        return {"obs_steps": sum(np.asarray(getattr(t, "values", t)).shape[0]
                                 for t in a["trials"])}

    def train_svm(a, result):
        classes = a["classes"] if a["classes"] is not None else set(a["y"])
        return {"updates": np.asarray(a["X"]).shape[0] * a["epochs"] * len(classes)}

    def contact(a, t0):
        wrench = a["trial"].wrench
        contacts[a["trial"].id] = t0
        above = np.linalg.norm(wrench[:, 1:4], axis=1) >= a["threshold"]
        return {"samples": wrench.shape[0],
                "candidates": int(np.count_nonzero(above & (wrench[:, 0] < t0)))}

    def window(a, result):
        return {"truncated": int(result.truncated)}

    return [
        Target("cli", "main", "cli.main"),
        Target("core", "load_trials", "core.load_trials", load),
        Target("core", "save_trials", "core.save_trials", save),
        Target("core", "align_streams", "core.align_streams"),
        Target("synthgen", "generate", "synthgen.generate"),
        Target("preprocess", "detect_contact", "preprocess.detect_contact", contact),
        Target("preprocess", "extract_window", "preprocess.extract_window", window),
        Target("preprocess", "assemble_features", "preprocess.assemble_features"),
        Target("preprocess", "fit_norm", "preprocess.fit_norm"),
        Target("preprocess", "NormStats.apply", "preprocess.NormStats.apply"),
        Target("preprocess", "prepare_trial", "preprocess.prepare_trial"),
        Target("evaluation", "run_cv", "evaluation.run_cv"),
        Target("evaluation", "cross_domain_eval", "evaluation.cross_domain_eval"),
        Target("evaluation", "kfold_split", "evaluation.kfold_split"),
        Target("hmm", "baum_welch", "hmm.baum_welch", baum_welch),
        Target("hmm", "forward_loglik", "hmm.forward_loglik"),
        Target("svm", "train_svm", "svm.train_svm", train_svm),
        Target("svm", "predict_svm", "svm.predict_svm"),
        Target("nn", "train", "nn.train"),
        Target("nn", "TcnModel.loss_and_grads", "nn.loss_and_grads.tcn"),
        Target("nn", "LstmModel.loss_and_grads", "nn.loss_and_grads.lstm"),
        Target("nn", "TcnModel.predict", "nn.predict.tcn"),
        Target("nn", "LstmModel.predict", "nn.predict.lstm"),
    ]


# a span group sums the spans in it
GROUPS = {"nn.loss_and_grads": ("nn.loss_and_grads.tcn", "nn.loss_and_grads.lstm")}


def add_rows(a: dict, b: dict) -> dict:
    """Field-wise sum of two `tracing.summarize` results."""
    out = {name: dict(row) for name, row in a.items()}
    for name, row in b.items():
        mine = out.setdefault(name, {})
        for key, value in row.items():
            mine[key] = mine.get(key, 0) + value
    return out


def span_metrics(summary: dict, missing, names) -> dict:
    """Values of the per-layer metrics in `names` that spans give; None when
    a span a metric needs was not wrapped.

    Metric "<span>.<field>" sums a field of the summary rows of that span (or
    span group). "evaluation.run_cv.parallelism" is the summed durations of
    run_cv's direct children (fold work on every worker thread) over run_cv's
    own span. Names that are not about a traced span are left out.
    """
    spans_known = {t.span for t in make_targets({})} | set(GROUPS)
    rows = dict(summary)
    run_cv = summary.get("evaluation.run_cv")
    if run_cv is not None:
        parallelism = run_cv["child_s"] / run_cv["s"] if run_cv["s"] > 0 else 0.0
        rows["evaluation.run_cv"] = dict(run_cv, parallelism=parallelism)
    out = {}
    for name in names:
        span, _, key = name.rpartition(".")
        if span not in spans_known:
            continue
        spans = GROUPS.get(span, (span,))
        if any(s in missing for s in spans):
            out[name] = None
        else:
            out[name] = sum(rows.get(s, {}).get(key, 0) for s in spans)
    return out
