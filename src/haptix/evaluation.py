"""Cross-validation harness, confusion/ablation/cross-domain reports, and the
statistical tests (one-way ANOVA, Tukey HSD, Welch t-test).

Trials reach the harness through read_features, one pass over a Dataset or
over `core.iter_trials(path)` that keeps each trial's metadata and its grid
block and drops its streams; fold assignment and labels read the metadata,
the classifiers the (N, G, F) feature tensor.

Fold hygiene: normalization statistics and classifier parameters are fitted
on training folds only; the held-out fold never touches them.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import hmm as hmm_mod
from . import nn as nn_mod
from . import svm as svm_mod
from .core import (
    CLASS_ORDER,
    ComplianceClass,
    DEFAULT_STREAM_DELAY,
    ITEM_CLASSES,
    ITEM_ORDER,
    align_streams,
    class_index,
    normalize_item_name,
)
from .errors import (
    DataError,
    DegenerateGroups,
    HaptixError,
    MissingClass,
    TooFewTrials,
)
from .preprocess import FeatureSet, PreprocConfig, fit_norm, prepare_trial

CLASS_LABELS = tuple(c.label for c in CLASS_ORDER)
_MSW_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# fold assignment

@dataclass(frozen=True, eq=False)
class FoldSplit:
    k: int
    folds: np.ndarray  # fold index of each trial, in dataset order
    seed: int
    stratified: bool = True

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be >= 2")
        folds = np.array(self.folds, dtype=np.int64)
        if folds.size and (folds.min() < 0 or folds.max() >= self.k):
            raise ValueError("fold indices out of range")
        folds.setflags(write=False)
        object.__setattr__(self, "folds", folds)


def kfold_split(trials, k: int, seed: int = 0, stratified: bool = True,
                group_by: Optional[str] = None) -> FoldSplit:
    """Deterministic fold assignment, stratified by class unless grouping.

    trials: a Dataset, or the TrialMeta records of read_features.
    group_by "subject" keeps all of a subject's trials in one fold (and
    disables stratification).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    ids = [t.id for t in trials]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate trial ids prevent fold assignment")
    rng = np.random.default_rng(seed)
    folds = np.empty(len(ids), dtype=np.int64)
    if group_by is not None:
        if group_by != "subject":
            raise ValueError(f"unsupported group_by {group_by!r}")
        subjects = sorted({t.subject for t in trials})
        if len(subjects) < k:
            raise TooFewTrials("subject", k, len(subjects))
        order = rng.permutation(len(subjects))
        fold_of = {subjects[j]: i % k for i, j in enumerate(order)}
        folds[:] = [fold_of[t.subject] for t in trials]
        return FoldSplit(k=k, folds=folds, seed=seed, stratified=False)
    if stratified:
        y = label_indices(trials)
        for offset, c in enumerate(CLASS_ORDER):
            members = np.flatnonzero(y == offset)
            if members.size < k:
                raise TooFewTrials(c.label, k, members.size)
            perm = rng.permutation(members.size)
            folds[members[perm]] = (np.arange(members.size) + offset) % k
    else:
        folds[rng.permutation(len(ids))] = np.arange(len(ids)) % k
    return FoldSplit(k=k, folds=folds, seed=seed, stratified=stratified)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True, eq=False)
class EvalReport:
    classifier: str
    feature_set: str
    k: int
    seed: int
    per_fold: tuple
    confusion: np.ndarray             # (L, L) counts, rows true
    labels: tuple
    item_confusion: Optional[np.ndarray] = None
    item_labels: Optional[tuple] = None

    def __post_init__(self):
        counts = np.array(self.confusion, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
            raise ValueError("confusion matrix must be square")
        if counts.shape[0] != len(self.labels):
            raise ValueError("labels do not match confusion size")
        counts.setflags(write=False)
        object.__setattr__(self, "confusion", counts)
        object.__setattr__(self, "per_fold", tuple(float(a) for a in self.per_fold))
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.item_confusion is not None:
            ic = np.array(self.item_confusion, dtype=np.int64)
            ic.setflags(write=False)
            object.__setattr__(self, "item_confusion", ic)
            object.__setattr__(self, "item_labels", tuple(self.item_labels))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.per_fold))

    @property
    def std_accuracy(self) -> float:
        if len(self.per_fold) < 2:
            return 0.0
        return float(np.std(self.per_fold, ddof=1))

    @property
    def pooled_accuracy(self) -> float:
        total = int(self.confusion.sum())
        return float(np.trace(self.confusion)) / total if total else 0.0

    @property
    def confusion_normalized(self) -> np.ndarray:
        counts = self.confusion.astype(np.float64)
        sums = counts.sum(axis=1, keepdims=True)
        out = np.divide(counts, sums, out=np.zeros_like(counts), where=sums > 0)
        return out


def report_to_dict(report: EvalReport) -> dict:
    d = {
        "classifier": report.classifier,
        "feature_set": report.feature_set,
        "k": report.k,
        "seed": report.seed,
        "per_fold": list(report.per_fold),
        "mean_accuracy": report.mean_accuracy,
        "std_accuracy": report.std_accuracy,
        "pooled_accuracy": report.pooled_accuracy,
        "labels": list(report.labels),
        "confusion": report.confusion.tolist(),
        "confusion_normalized": report.confusion_normalized.tolist(),
    }
    if report.item_confusion is not None:
        d["item_labels"] = list(report.item_labels)
        d["item_confusion"] = report.item_confusion.tolist()
    return d


def report_from_dict(d: dict) -> EvalReport:
    return EvalReport(
        classifier=d["classifier"], feature_set=d["feature_set"], k=d["k"],
        seed=d["seed"], per_fold=tuple(d["per_fold"]),
        confusion=np.array(d["confusion"], dtype=np.int64),
        labels=tuple(d["labels"]),
        item_confusion=(np.array(d["item_confusion"], dtype=np.int64)
                        if "item_confusion" in d else None),
        item_labels=tuple(d["item_labels"]) if "item_labels" in d else None,
    )


def write_confusion_csv(report: EvalReport, path) -> None:
    lines = ["section,true," + ",".join(str(l) for l in report.labels)]
    for name, row in zip(report.labels, report.confusion):
        lines.append("count," + str(name) + "," + ",".join(str(int(v)) for v in row))
    for name, row in zip(report.labels, report.confusion_normalized):
        lines.append("norm," + str(name) + "," + ",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_folds_csv(report: EvalReport, path) -> None:
    lines = ["fold,accuracy"]
    lines += [f"{i},{repr(a)}" for i, a in enumerate(report.per_fold)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_ablation_csv(rows: Sequence[dict], path) -> None:
    lines = ["feature_set,mean_accuracy,std_accuracy"]
    for row in rows:
        lines.append(
            f"{row['feature_set']},{repr(row['mean_accuracy'])},{repr(row['std_accuracy'])}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# classifier families and the feature tensor

@dataclass(frozen=True)
class ClassifierSpec:
    kind: str  # hmm | svm | tcn | lstm
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("hmm", "svm", "tcn", "lstm"):
            raise ValueError(f"unknown classifier {self.kind!r}")
        object.__setattr__(self, "params", dict(self.params))


# kind -> family module. Each has fit(X, y, labels, seed, params) -> model,
# predict(model, X) -> label indices, to_dict/from_dict and save_model.
FAMILIES = {"hmm": hmm_mod, "svm": svm_mod, "tcn": nn_mod, "lstm": nn_mod}


def fit_params(spec: ClassifierSpec, fs: FeatureSet) -> dict:
    """What a family's fit reads from params: the spec's hyperparameters, its
    kind (nn builds a TCN or an LSTM from it) and the channel names."""
    return dict(spec.params, kind=spec.kind, channel_names=fs.channel_names)


def fit_model(X, y, labels, seed, params):
    """The fit of the family params["kind"] names, once every label has at
    least one training trial; the first label without one raises
    MissingClass."""
    counts = np.bincount(np.asarray(y, dtype=np.int64), minlength=len(labels))
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise MissingClass(labels[missing[0]])
    return FAMILIES[params["kind"]].fit(X, y, labels, seed, params)


def _fit_predict(X_train, y, labels, X_test, seed, params):
    model = fit_model(X_train, y, labels, seed, params)
    return FAMILIES[params["kind"]].predict(model, X_test)


class TrialMeta(NamedTuple):
    """A trial without its streams: what fold assignment and labels read."""

    id: str
    subject: str
    label: ComplianceClass
    food_item: str


@dataclass(frozen=True, eq=False)
class TrialFeatures:
    """What read_features keeps of its trials: their metadata in input
    order and, for each feature set, the (N, G, F) tensor or the error that
    ended its gridding."""

    trials: tuple
    feature_sets: tuple
    tensors: tuple

    def tensor(self, i: int = 0) -> np.ndarray:
        """The tensor of feature_sets[i]; raises the first error that
        gridding a trial for it raised."""
        X = self.tensors[i]
        if isinstance(X, Exception):
            raise X
        return X


def read_features(trials, feature_sets: Sequence[FeatureSet],
                  preproc: PreprocConfig = PreprocConfig(),
                  delay: float = DEFAULT_STREAM_DELAY) -> TrialFeatures:
    """Metadata and features, not normalized, of `trials` (a Dataset, or
    core.iter_trials(path)) in one pass that holds one trial's streams at a
    time. A trial that cannot be gridded ends the gridding for that feature
    set: its error waits in the result, and the pass reads on, so that a bad
    record later in the file, or a fold assignment error, comes first."""
    meta = []
    blocks = [[] for _ in feature_sets]
    errors = [None] * len(feature_sets)
    for t in trials:
        meta.append(TrialMeta(t.id, t.subject, t.label, t.food_item))
        for i, fs in enumerate(feature_sets):
            if errors[i] is None:
                try:
                    blocks[i].append(prepare_trial(align_streams(t, delay), fs,
                                                   preproc))
                except (DataError, ValueError) as exc:
                    errors[i] = exc
    tensors = tuple(np.stack(b) if e is None else e for b, e in zip(blocks, errors))
    return TrialFeatures(tuple(meta), tuple(feature_sets), tensors)


def feature_tensor(trials, fs: FeatureSet,
                   preproc: PreprocConfig = PreprocConfig(),
                   delay: float = DEFAULT_STREAM_DELAY) -> np.ndarray:
    """(N, G, F) features of every trial, in input order, not normalized."""
    return read_features(trials, [fs], preproc, delay).tensor()


def label_indices(trials, per_item: bool = False) -> np.ndarray:
    """Each trial's label in input order (trials: a Dataset, or TrialMeta
    records): an index into CLASS_LABELS, or into ITEM_ORDER when
    per_item."""
    if per_item:
        return np.array([ITEM_ORDER.index(normalize_item_name(t.food_item))
                         for t in trials], dtype=np.int64)
    return np.array([class_index(t.label) for t in trials], dtype=np.int64)


# ---------------------------------------------------------------------------
# scoring

# 0/1 item -> class matrix: C @ item_tally @ C.T sums a 12x12 item tally into
# the 4x4 class tally
_ITEM_CLASS = np.equal.outer(np.arange(len(CLASS_ORDER)),
                             [class_index(ITEM_CLASSES[i]) for i in ITEM_ORDER]
                             ).astype(np.int64)


def _tally(y_true, y_pred, n: int) -> np.ndarray:
    """(n, n) counts of (true, predicted) label-index pairs, rows true."""
    pairs = np.asarray(y_true, dtype=np.int64) * n + np.asarray(y_pred, dtype=np.int64)
    return np.bincount(pairs, minlength=n * n).reshape(n, n)


def _confusion(X_train, y_train, X_test, y_test, labels, seed, params):
    """Tally of a model fitted on one tensor and scored on another. The
    normalization statistics come from X_train alone."""
    stats = fit_norm(X_train, params["channel_names"])
    pred = _fit_predict(stats.apply(X_train), y_train, labels,
                        stats.apply(X_test), seed, params)
    if len(pred) != len(y_test):
        raise ValueError("trainer returned wrong number of predictions")
    return _tally(y_test, pred, len(labels))


def run_cv(X, y, split: FoldSplit, spec: ClassifierSpec, fs: FeatureSet,
           per_item: bool = False) -> EvalReport:
    """k-fold cross validation of the (N, G, F) tensor X with labels y (see
    label_indices), with per-fold normalization statistics.

    per_item: y indexes ITEM_ORDER and trains a 12-way item classifier; item
    predictions are collapsed to compliance classes for the headline
    accuracy and 4x4 confusion, and the raw 12x12 item confusion is attached
    to the report.
    """
    y = np.asarray(y)
    if len(split.folds) != len(X):
        raise ValueError(f"fold split covers {len(split.folds)} trials, "
                         f"the feature tensor {len(X)}")
    labels = ITEM_ORDER if per_item else CLASS_LABELS
    params = fit_params(spec, fs)
    L = len(CLASS_ORDER)
    confusion = np.zeros((L, L), dtype=np.int64)
    item_conf = np.zeros((len(ITEM_ORDER),) * 2, dtype=np.int64) if per_item else None
    per_fold = []
    for fold in range(split.k):
        test = split.folds == fold
        if test.all() or not test.any():
            raise TooFewTrials("fold", 1, 0)
        fold_seed = split.seed * 100003 + fold * 17 + 1
        try:
            fold_conf = _confusion(X[~test], y[~test], X[test], y[test],
                                   labels, fold_seed, params)
        except HaptixError as exc:
            exc.args = (f"fold {fold}: {exc}",)
            raise
        if per_item:
            item_conf += fold_conf
            fold_conf = _ITEM_CLASS @ fold_conf @ _ITEM_CLASS.T
        confusion += fold_conf
        per_fold.append(int(np.trace(fold_conf)) / int(test.sum()))
    return EvalReport(
        classifier=spec.kind, feature_set=fs.spec_string(), k=split.k,
        seed=split.seed, per_fold=tuple(per_fold), confusion=confusion,
        labels=CLASS_LABELS,
        item_confusion=item_conf,
        item_labels=ITEM_ORDER if per_item else None,
    )


def ablate_features(features: TrialFeatures, spec: ClassifierSpec,
                    split: FoldSplit) -> list[dict]:
    """One run_cv per feature set of read_features' result on identical
    folds, best first."""
    if not features.feature_sets:
        raise ValueError("need at least one feature set")
    y = label_indices(features.trials)
    rows = []
    widths = {}
    for i, fs in enumerate(features.feature_sets):
        report = run_cv(features.tensor(i), y, split, spec, fs)
        rows.append({
            "feature_set": fs.spec_string(),
            "mean_accuracy": report.mean_accuracy,
            "std_accuracy": report.std_accuracy,
        })
        widths[fs.spec_string()] = len(fs.channel_names)
    # Ties go to the narrower set: equal accuracy from fewer channels says
    # more about where the information lives.
    rows.sort(key=lambda r: (-r["mean_accuracy"], widths[r["feature_set"]],
                             r["feature_set"]))
    return rows


def cross_domain_eval(X_train, y_train, X_test, y_test, spec: ClassifierSpec,
                      fs: FeatureSet, seed: int = 0) -> EvalReport:
    """Train once on all of X_train, evaluate on all of X_test."""
    confusion = _confusion(X_train, y_train, X_test, y_test, CLASS_LABELS,
                           seed, fit_params(spec, fs))
    acc = int(np.trace(confusion)) / len(y_test)
    return EvalReport(classifier=spec.kind, feature_set=fs.spec_string(),
                      k=1, seed=seed, per_fold=(acc,), confusion=confusion,
                      labels=CLASS_LABELS)


# ---------------------------------------------------------------------------
# statistics

def _as_groups(groups, min_groups: int = 2, min_size: int = 2):
    arrays = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(arrays) < min_groups:
        raise DegenerateGroups(f"need at least {min_groups} groups")
    for g in arrays:
        if g.size < min_size:
            raise DegenerateGroups(f"every group needs >= {min_size} samples")
        if not np.all(np.isfinite(g)):
            raise DegenerateGroups("groups must contain finite values")
    return arrays


def _anova_decomposition(arrays):
    N = sum(g.size for g in arrays)
    k = len(arrays)
    grand = sum(g.sum() for g in arrays) / N
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in arrays)
    return ssb, ssw, k - 1, N - k


def anova_oneway(groups) -> tuple[float, float]:
    """Classic one-way ANOVA; p is the F-distribution survival probability."""
    arrays = _as_groups(groups)
    ssb, ssw, df1, df2 = _anova_decomposition(arrays)
    if df2 < 1:
        raise DegenerateGroups("no within-group degrees of freedom")
    if ssb <= 0.0 and ssw <= 0.0:
        return 0.0, 1.0
    msb = ssb / df1
    msw = max(ssw / df2, _MSW_FLOOR)
    F = msb / msw
    from scipy.special import betainc
    p = float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * F)))
    return float(F), min(max(p, 0.0), 1.0)


# scipy.special and the Gauss-Legendre tables below load on first use, so
# that `import haptix` stays cheap for the commands that compute no p-value.
@functools.cache
def _gauss_legendre():
    """160 nodes and weights on [-1, 1] for the outer integral and 96 scaled
    to [-8, 8] for the inner one; read-only, since every call shares them."""
    x, xw = np.polynomial.legendre.leggauss(160)
    z, zw = np.polynomial.legendre.leggauss(96)
    rules = (x, xw, 8.0 * z, 8.0 * zw)
    for a in rules:
        a.setflags(write=False)
    return rules


def _srange_outer_nodes(df: float):
    """Outer nodes covering the mass of the scaled-chi density for this df.

    The density of s = sqrt(chi2_df / df) concentrates around 1 with spread
    ~ 1/sqrt(2 df), so the window [1 - 12/sqrt(2 df), 1 + 12/sqrt(2 df)]
    (clipped to (0, 6]) captures it to far below the 1e-6 target.
    """
    half = 12.0 / np.sqrt(2.0 * df)
    lo = max(0.0, 1.0 - half)
    hi = min(6.0, 1.0 + half)
    mid, span = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x, xw, _, _ = _gauss_legendre()
    return mid + span * x, span * xw


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _range_cdf(w, k: int):
    """P(range of k iid standard normals <= w), vectorized over w."""
    from scipy.special import ndtr
    w = np.asarray(w, dtype=np.float64)
    _, _, z, zw = _gauss_legendre()
    z = z[None, :]
    inner = _phi(z) * np.power(
        np.clip(ndtr(z) - ndtr(z - w[:, None]), 0.0, 1.0), k - 1
    )
    return k * (inner @ zw)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range with k groups and df error dof.

    Double Gauss-Legendre quadrature: the outer integral is over the scaled
    chi distribution of the pooled standard deviation, the inner one over
    the range distribution of k standard normals.
    """
    if k < 2 or df < 1:
        raise DegenerateGroups("studentized range needs k >= 2 and df >= 1")
    if q <= 0.0:
        return 0.0
    from scipy.special import gammaln
    s, sw = _srange_outer_nodes(df)
    with np.errstate(divide="ignore"):
        log_f = ((df / 2.0) * np.log(df) - gammaln(df / 2.0)
                 - (df / 2.0 - 1.0) * np.log(2.0)
                 + (df - 1.0) * np.log(s) - df * s * s / 2.0)
    dens = np.exp(log_f)
    cdf = float(np.sum(sw * dens * _range_cdf(q * s, k)))
    return min(max(cdf, 0.0), 1.0)


def tukey_hsd(groups, alpha: float = 0.05) -> list[dict]:
    """All pairwise comparisons; p-values from the studentized range."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must be in (0, 1)")
    arrays = _as_groups(groups)
    ssb, ssw, df1, df2 = _anova_decomposition(arrays)
    if df2 < 1:
        raise DegenerateGroups("no within-group degrees of freedom")
    msw = max(ssw / df2, _MSW_FLOOR)
    k = len(arrays)
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = float(arrays[i].mean() - arrays[j].mean())
            se = np.sqrt(msw / 2.0 * (1.0 / arrays[i].size + 1.0 / arrays[j].size))
            q = abs(diff) / max(se, 1e-300)
            p = 1.0 - studentized_range_cdf(q, k, df2)
            p = min(max(p, 0.0), 1.0)
            rows.append({
                "group_i": i, "group_j": j, "mean_diff": diff,
                "q": float(q), "p": p, "significant": bool(p < alpha),
            })
    return rows


def ttest_2tailed(a, b) -> tuple[float, float]:
    """Welch's unequal-variance two-sided t-test."""
    ga, gb = _as_groups([a, b])
    na, nb = ga.size, gb.size
    va, vb = ga.var(ddof=1), gb.var(ddof=1)
    se2 = va / na + vb / nb
    if se2 <= 0.0:
        if ga.mean() == gb.mean():
            return 0.0, 1.0
        se2 = _MSW_FLOOR
    t = (ga.mean() - gb.mean()) / np.sqrt(se2)
    denom = (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    if denom <= 0.0:
        df = na + nb - 2
    else:
        df = se2 * se2 / denom
    from scipy.special import betainc
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t))) if t != 0.0 else 1.0
    return float(t), min(max(p, 0.0), 1.0)
