"""Linear one-vs-rest SVM on flattened feature matrices.

Training minimizes, per class,

    (1/n) sum_i max(0, 1 - y_i (w.x_i + b)) + ||w||^2 / (2 C n)

by stochastic subgradient descent with step 1/(lambda t), lambda = 1/(C n),
over deterministically shuffled epochs; the returned model is the iterate at
the end of the last epoch (no averaging). The step counter is warm-started
at t = n: a cold start makes the first step size C*n, which slams the
unregularized bias to a huge value that later steps cannot undo once the
training margins are met.

`train_svm` and `predict_svm` work on (N, D) rows; `fit` and `predict` flatten
an (N, G, F) tensor into such rows first (`_flat_rows`). Prediction is one
product X @ W.T + b and each row's argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, SingleClassData


@dataclass(frozen=True)
class SvmModel:
    """Per-class weights/biases, ordered like `classes`."""

    W: np.ndarray                 # (n_classes, D)
    b: np.ndarray                 # (n_classes,)
    C: float
    classes: tuple
    channel_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        W = np.array(self.W, dtype=np.float64)
        b = np.array(self.b, dtype=np.float64)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise ValueError("W must be (n_classes, D) with matching biases")
        if W.shape[0] != len(self.classes):
            raise ValueError("one weight vector per class required")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("weights must be finite")
        W.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.channel_names is not None:
            object.__setattr__(self, "channel_names", tuple(self.channel_names))


def hinge_objective(w: np.ndarray, b: float, X: np.ndarray, ybin: np.ndarray,
                    C: float) -> float:
    """The per-class primal objective used by training."""
    n = X.shape[0]
    margins = ybin * (X @ w + b)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)) + w @ w / (2.0 * C * n))


def train_svm(X, y, classes: tuple, C: float = 1.0, epochs: int = 200,
              seed: int = 0, channel_names: Optional[tuple[str, ...]] = None,
              return_history: bool = False):
    """One-vs-rest training on the (n, D) rows X; y holds indices into the
    label names classes. Deterministic given (X, y, C, epochs, seed)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError(f"X must be (n, D) and non-empty, got {X.shape}")
    y = np.asarray(y, dtype=np.int64)
    if y.shape != X.shape[:1]:
        raise ValueError("X and y lengths differ")
    if not np.isfinite(C):
        raise ValueError(f"C must be finite, got {C}")
    if C <= 0 or epochs < 1:
        raise ValueError("need C > 0 and epochs >= 1")
    if y.min() < 0 or y.max() >= len(classes):
        raise ValueError(f"label indices must lie in [0, {len(classes)})")
    if np.all(y == y[0]):  # one label (np.unique would import numpy.ma, 1.7 MB)
        raise SingleClassData("training data must contain at least two classes")

    n, D = X.shape
    lam = 1.0 / (C * n)
    W = np.zeros((len(classes), D))
    B = np.zeros(len(classes))
    history: dict = {c: [] for c in classes}
    for k, c in enumerate(classes):
        ybin = np.where(y == k, 1.0, -1.0)
        rng = np.random.default_rng([seed, k])
        w = np.zeros(D)
        b = 0.0
        t = n  # warm start; see module docstring
        for _ in range(epochs):
            order = rng.permutation(n)
            for idx in order:
                t += 1
                eta = 1.0 / (lam * t)
                margin = ybin[idx] * (X[idx] @ w + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * ybin[idx] * X[idx]
                    b += eta * ybin[idx]
            if return_history:
                history[c].append(hinge_objective(w, b, X, ybin, C))
        W[k] = w
        B[k] = b
    model = SvmModel(W=W, b=B, C=C, classes=classes, channel_names=channel_names)
    if return_history:
        return model, history
    return model


def predict_svm(model: SvmModel, X) -> np.ndarray:
    """Index of the winning class of each of the (N, D) rows X (see
    _flat_rows), from one product X @ W.T + b; first class wins ties."""
    X = np.asarray(X, dtype=np.float64)
    D = model.W.shape[1]
    if X.ndim != 2 or X.shape[1] != D:
        raise DimensionMismatch(f"input shape {X.shape} does not match model (N, {D})")
    return (X @ model.W.T + model.b).argmax(axis=1)


def _flat_rows(X) -> np.ndarray:
    """(N, G, F) tensor -> (N, F * G) rows: element G*j + i of row n is
    X[n, i, j]."""
    X = np.asarray(X, dtype=np.float64)
    return X.transpose(0, 2, 1).reshape(X.shape[0], -1)


def fit(X, y, labels, seed, params) -> SvmModel:
    """One-vs-rest training on the (N, G, F) tensor X; y holds indices into
    labels, which become the model's classes. params: C, epochs, and
    channel_names to record in the model."""
    return train_svm(_flat_rows(X), y, labels,
                     C=float(params.get("C", 1.0)),
                     epochs=int(params.get("epochs", 200)), seed=seed,
                     channel_names=params.get("channel_names"))


def predict(model: SvmModel, X) -> np.ndarray:
    """Index of the winning class per trial of the (N, G, F) tensor X."""
    return predict_svm(model, _flat_rows(X))


def to_dict(model: SvmModel) -> dict:
    return {
        "kind": "svm",
        "C": model.C,
        "classes": list(model.classes),
        "W": model.W.tolist(),
        "b": model.b.tolist(),
        "channel_names": list(model.channel_names) if model.channel_names else None,
    }


def from_dict(d: dict) -> SvmModel:
    names = d.get("channel_names")
    return SvmModel(W=np.array(d["W"], dtype=np.float64),
                    b=np.array(d["b"], dtype=np.float64),
                    C=float(d["C"]), classes=d["classes"],
                    channel_names=tuple(names) if names else None)

