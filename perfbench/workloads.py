"""The benchmark's workloads: inputs made from the seed, the commands a user
types, and the checks on what those commands write.

Sizes are scaled down from the paper's criterion-5 run so that one pass of a
workload's commands (a cycle) takes 3 to 16 seconds on a 2-core host and a
30 s run repeats it at least twice; ingest-1khz, whose pure-Python JSON work
follows the host's speed most closely, is the shortest, so that its median
rests on six or more cycles. Every configuration fixes the amount of work, so
a different seed changes the data but not how much the program computes:

* HMM runs a fixed number of EM iterations (`--tol 0 --max-iter N`). With the
  default tolerance the iteration count follows the data (31 to 62 summed
  over the four class models on eight seeds at 20 trials/class), which made
  `hmm_s` differ by 60% between seeds.
* tcn and lstm train for a fixed number of epochs. lstm uses `--lr 0.005`,
  and cv-release keeps 30 trials/class: with the default rate, or with 20
  trials/class, lstm accuracy fell below the 0.8 floor on some seeds.
* ingest-1khz's svm trains 20 epochs rather than 1. Training stays about 1%
  of the cycle, and the accuracy no longer swings between seeds (at 1 epoch
  it ranged 0.85 to 1.0 over ten seeds, at 20 epochs 0.90 to 1.0, mostly
  0.95 to 0.98).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from haptix import core, synthgen
from haptix.core import Dataset, Source, Trial
from haptix.synthgen import GenConfig

# generate and save_trials are called through their modules, so that a traced
# set-up goes through the shims installed there.

# haptix's contact-detection defaults, which every command here uses.
THRESHOLD = 0.5
HOLD = 0.05

CV_PER_CLASS = 30
CV_HMM = ["--tol", "0", "--max-iter", "4"]
CV_TCN = ["--epochs", "20"]
CV_LSTM = ["--epochs", "20", "--lr", "0.005"]
# criterion-5 accuracy floors
CV_FLOORS = {"svm": 0.9, "hmm": 0.9, "tcn": 0.9, "lstm": 0.8}

XD_TRAIN_PER_CLASS = 15
XD_TEST_PER_CLASS = 100
XD_SHIFT = 1.2
XD_HMM = ["--tol", "0", "--max-iter", "6"]
XD_NN = ["--epochs", "30"]

ING_PER_CLASS = 10
ING_RATE = 1000.0
ING_DURATION = 2.0
ING_HOVER_EVERY = 4      # every 4th trial gets a hover prefix
ING_HOVER_S = 4.0
ING_HOVER_SD = 0.02      # N; |F| = |fz| hovers at THRESHOLD with this spread
ING_SVM = ["--epochs", "20"]


@dataclass
class Step:
    """One command of a cycle."""

    label: str
    argv: list[str]
    out: Path
    report_trials: int = 0          # trials the report's confusion must hold
    floor: Optional[float] = None   # accuracy floor, if the workload has one
    workers: bool = False           # run with HAPTIX_WORKERS=nproc
    canonical: Optional[Path] = None  # file that must reload equal to the raw input


@dataclass
class Inputs:
    trials: int
    props: dict
    # (generated trial, time the written trial puts in front of it, sample
    # period): the known contact is the generated trial's, shifted
    known: list[tuple[Trial, float, float]] = field(default_factory=list)
    raw: Optional[Dataset] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int, Path], Inputs]
    steps: Callable[[Path], list[Step]]


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def _known(ds: Dataset, rate: float):
    return [(t, 0.0, 1.0 / rate) for t in ds.trials]


def _cv_inputs(seed: int, work: Path) -> Inputs:
    ds = synthgen.generate(GenConfig(trials_per_class=CV_PER_CLASS, noise_std=0.05,
                                     sample_rate=120.0, seed=seed))
    core.save_trials(ds, work / "cv.jsonl")
    props = {"trials": len(ds), "rate_hz": 120.0, "duration_s": 1.5, "k": 3,
             "train_per_fold": len(ds) * 2 // 3, "hover_share": 0.0}
    return Inputs(trials=len(ds), props=props, known=_known(ds, 120.0))


def _cv_steps(work: Path) -> list[Step]:
    extra = {"svm": [], "hmm": CV_HMM, "tcn": CV_TCN, "lstm": CV_LSTM}
    n = 4 * CV_PER_CLASS
    return [Step(clf, ["evaluate", "--data", str(work / "cv.jsonl"), "--clf", clf,
                       "--k", "3", "--features", "all",
                       "--out", str(work / f"cv-{clf}")] + args,
                 work / f"cv-{clf}", report_trials=n, floor=CV_FLOORS[clf],
                 workers=True)
            for clf, args in extra.items()]


def _xd_inputs(seed: int, work: Path) -> Inputs:
    s_train, s_test = _seeds(seed, 2)
    train = synthgen.generate(GenConfig(trials_per_class=XD_TRAIN_PER_CLASS,
                                        seed=s_train))
    test = synthgen.generate(GenConfig(trials_per_class=XD_TEST_PER_CLASS, seed=s_test,
                                       domain_shift=XD_SHIFT, source=Source.ROBOT))
    core.save_trials(train, work / "human.jsonl")
    core.save_trials(test, work / "robot.jsonl")
    props = {"train_trials": len(train), "test_trials": len(test),
             "rate_hz": 120.0, "duration_s": 1.5, "domain_shift": XD_SHIFT,
             "hover_share": 0.0}
    return Inputs(trials=len(train) + len(test), props=props,
                  known=_known(train, 120.0) + _known(test, 120.0))


def _xd_steps(work: Path) -> list[Step]:
    extra = {"svm": [], "hmm": XD_HMM, "tcn": XD_NN, "lstm": XD_NN}
    return [Step(clf, ["cross-domain", "--train-data", str(work / "human.jsonl"),
                       "--test-data", str(work / "robot.jsonl"), "--clf", clf,
                       "--features", "all", "--out", str(work / f"xd-{clf}")] + args,
                 work / f"xd-{clf}", report_trials=4 * XD_TEST_PER_CLASS)
            for clf, args in extra.items()]


def with_hover(trial: Trial, rng: np.random.Generator, seconds: float,
               rate: float) -> Trial:
    """The trial behind `seconds` of |F| hovering at the contact threshold.

    Samples above the threshold come in runs far shorter than the hold time,
    so none of them is a contact, but each one is a contact candidate.
    """
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    wrench = np.zeros((n, 7))
    wrench[:, 0] = t
    wrench[:, 3] = THRESHOLD + ING_HOVER_SD * rng.standard_normal(n)
    pose = np.tile(trial.pose[0], (n, 1))
    pose[:, 0] = t
    shift = n / rate
    later_w = trial.wrench.copy()
    later_w[:, 0] += shift
    later_p = trial.pose.copy()
    later_p[:, 0] += shift
    return Trial(id=trial.id, subject=trial.subject, session=trial.session,
                 food_item=trial.food_item, label=trial.label,
                 wrench=np.vstack([wrench, later_w]),
                 pose=np.vstack([pose, later_p]), source=trial.source)


def _ing_inputs(seed: int, work: Path) -> Inputs:
    s_gen, s_hover = _seeds(seed, 2)
    ds = synthgen.generate(GenConfig(trials_per_class=ING_PER_CLASS,
                                     sample_rate=ING_RATE, duration=ING_DURATION,
                                     seed=s_gen))
    rng = np.random.default_rng(s_hover)
    shift = round(ING_HOVER_S * ING_RATE) / ING_RATE
    trials, known = [], []
    for i, trial in enumerate(ds.trials):
        hover = i % ING_HOVER_EVERY == 0
        trials.append(with_hover(trial, rng, ING_HOVER_S, ING_RATE) if hover else trial)
        known.append((trial, shift if hover else 0.0, 1.0 / ING_RATE))
    raw = Dataset(trials=tuple(trials))
    core.save_trials(raw, work / "raw.jsonl")
    hovered = sum(1 for _, offset, _ in known if offset)
    props = {"trials": len(raw), "rate_hz": ING_RATE, "duration_s": ING_DURATION,
             "hover_s": ING_HOVER_S, "hover_share": hovered / len(raw), "k": 3}
    return Inputs(trials=len(raw), props=props, known=known, raw=raw)


def _ing_steps(work: Path) -> list[Step]:
    canon = work / "canon"
    return [
        Step("ingest", ["ingest", "--data", str(work / "raw.jsonl"),
                        "--out", str(canon)], canon,
             canonical=canon / "dataset.jsonl"),
        Step("svm", ["evaluate", "--data", str(canon / "dataset.jsonl"),
                     "--clf", "svm", "--k", "3", "--features", "all",
                     "--out", str(work / "ing-svm")] + ING_SVM,
             work / "ing-svm", report_trials=4 * ING_PER_CLASS),
    ]


WORKLOADS = {w.name: w for w in (
    Workload("cv-release",
             "4 x evaluate (svm, hmm, tcn, lstm) under 3-fold CV at 120 trials: "
             "training dominates (hmm.baum_welch and nn backprop)",
             _cv_inputs, _cv_steps),
    Workload("xdomain-predict",
             "4 x cross-domain, 60 human train vs 400 robot test trials: "
             "prediction, loading and preprocessing of the large test file dominate",
             _xd_inputs, _xd_steps),
    Workload("ingest-1khz",
             "ingest then evaluate --clf svm on 40 trials of 2 s at 1 kHz, a "
             "quarter behind a 4 s threshold hover: save, load and detect_contact dominate",
             _ing_inputs, _ing_steps),
)}


def reference_contact(wrench: np.ndarray) -> Optional[float]:
    """Earliest time where |F| >= THRESHOLD holds for HOLD seconds, in O(n).

    Same rule as `haptix.preprocess.detect_contact`: the hold window
    [t_i, t_i + HOLD] must lie inside the recording and all of its samples
    must be above the threshold.
    """
    t = wrench[:, 0]
    above = np.linalg.norm(wrench[:, 1:4], axis=1) >= THRESHOLD
    n = t.shape[0]
    window_end = np.searchsorted(t, t + HOLD, side="right") - 1
    below = np.append(np.flatnonzero(~above), n)
    run_end = below[np.searchsorted(below, np.arange(n))] - 1
    ok = above & (t + HOLD <= t[-1]) & (run_end >= window_end)
    hits = np.flatnonzero(ok)
    return float(t[hits[0]]) if hits.shape[0] else None


def expected_contacts(inputs: Inputs) -> dict[str, tuple[float, float]]:
    """trial id -> (known contact time, sample period)."""
    out = {}
    for trial, offset, period in inputs.known:
        t0 = reference_contact(trial.wrench)
        if t0 is not None:
            out[trial.id] = (t0 + offset, period)
    return out


def check_report(step: Step) -> tuple[list[str], Optional[float], Optional[list]]:
    """Problems with a step's report.json, its accuracy and its confusion."""
    path = step.out / "report.json"
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
        acc = float(report["mean_accuracy"])
        confusion = report["confusion"]
        total = int(np.asarray(confusion).sum())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {path.name}: {exc}"], None, None
    problems = []
    if total != step.report_trials:
        problems.append(f"confusion sums to {total}, expected {step.report_trials}")
    if step.floor is not None and acc < step.floor:
        problems.append(f"accuracy {acc:.4f} below floor {step.floor}")
    return problems, acc, confusion


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_canonical(path: Path, raw: Dataset) -> list[str]:
    """The canonical file, parsed here without haptix, equals the raw dataset.

    Records are parsed one line at a time, so the check holds at most one
    trial as Python lists and does not set the run's peak memory.
    """
    problems = []
    count = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            if count < len(raw.trials) and not _same_trial(json.loads(line),
                                                           raw.trials[count]):
                problems.append(f"canonical record {count} differs from the raw trial")
            count += 1
    if count != len(raw.trials):
        problems.insert(0, f"{count} canonical records for {len(raw.trials)} trials")
    return problems


def _same_trial(rec: dict, trial: Trial) -> bool:
    return (rec["id"] == trial.id and rec["subject"] == trial.subject
            and rec["session"] == trial.session
            and rec["food_item"] == trial.food_item
            and rec["source"] == trial.source.value
            and np.array_equal(np.asarray(rec["wrench"]), trial.wrench)
            and np.array_equal(np.asarray(rec["pose"]), trial.pose))
