"""Shared fixtures and the acceptance-line reporter.

Acceptance tests call record_acceptance() so every criterion contributes one
PASS/FAIL line to the terminal summary regardless of output capturing.
"""

import os

# One BLAS thread, as in perfbench/run.py, set before numpy loads: the tests
# are single-threaded numpy code, and BLAS threads only add CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from haptix.core import ComplianceClass, Source, Trial
from haptix.synthgen import GenConfig, generate

ACCEPTANCE_LINES = []


def record_acceptance(tag, ok, detail, status=None):
    word = status if status is not None else ("PASS" if ok else "FAIL")
    line = f"ACCEPTANCE {tag}: {word} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_trial(wrench_rows, pose_rows, *, label=ComplianceClass.HARD,
               item="carrot", trial_id="t0", subject="s1", session=1,
               source=Source.HUMAN):
    """Trial from plain nested lists; the columns are (t, x6)."""
    return Trial(
        id=trial_id, subject=subject, session=session, food_item=item,
        label=label, wrench=np.asarray(wrench_rows, dtype=np.float64),
        pose=np.asarray(pose_rows, dtype=np.float64), source=source,
    )


def ramp_trial(n=120, rate=120.0, force=2.0, rise_at=0.2, **kw):
    """Simple contact-like trial: fz steps to `force` at rise_at, pose sinks."""
    t = np.arange(n) / rate
    fz = np.where(t >= rise_at, force, 0.0)
    wrench = np.column_stack([t, 0 * t, 0 * t, fz, 0 * t, 0 * t, 0 * t])
    pose = np.column_stack([t, 0 * t, 0.25 - 0.05 * t, 0 * t,
                            0 * t, 0 * t, 0 * t])
    return make_trial(wrench, pose, **kw)


@pytest.fixture(scope="session")
def small_ds():
    """36-trial low-noise dataset shared by the slower evaluation tests."""
    return generate(GenConfig(trials_per_class=9, noise_std=0.05, seed=3))


@pytest.fixture(scope="session")
def tiny_fms(small_ds):
    """Normalized fz-only features of the 36-trial dataset: the (N, 64, 1)
    tensor and the class index of each trial."""
    from haptix.core import align_streams, class_index
    from haptix.preprocess import FeatureSet, fit_norm, prepare_trial

    fs = FeatureSet.parse("fz")
    raw = np.stack([prepare_trial(align_streams(t, 0.030), fs)
                    for t in small_ds.trials])
    y = np.array([class_index(t.label) for t in small_ds.trials])
    return fit_norm(raw, fs.channel_names).apply(raw), y
