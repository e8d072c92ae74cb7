"""Acceptance checklist.

One test per release criterion. Every test prints exactly one
"ACCEPTANCE <tag>: PASS/FAIL" line through the conftest recorder, so the
terminal summary always carries the full checklist, pass or fail.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest
from conftest import ramp_trial, record_acceptance
from scipy import stats as sps

from haptix.cli import main as cli_main
from haptix.core import Source, align_streams, load_trials
from haptix.errors import NoContact
from haptix.evaluation import (
    ClassifierSpec,
    anova_oneway,
    cross_domain_eval,
    feature_tensor,
    kfold_split,
    label_indices,
    run_cv,
    ablate_features,
    ttest_2tailed,
    tukey_hsd,
)
from haptix.hmm import HmmModel, baum_welch, forward_loglik
from haptix.nn import LstmModel, TcnModel, grad_check
from haptix.preprocess import (
    FeatureSet,
    PreprocConfig,
    detect_contact,
    extract_window,
    fit_norm,
    _grid,
    prepare_trial,
)
from haptix.synthgen import GenConfig, generate


def _random_hmm(rng, K, F):
    A = rng.dirichlet(np.ones(K) * 2.0, size=K)
    pi = rng.dirichlet(np.ones(K) * 2.0)
    means = rng.normal(0.0, 2.0, size=(K, F))
    variances = rng.uniform(0.3, 2.0, size=(K, F))
    return HmmModel(A=A, pi=pi, means=means, variances=variances)


def _brute_force_loglik(model, obs):
    """Likelihood by explicit summation over every hidden-state path."""
    T, F = obs.shape
    K = model.A.shape[0]
    sds = np.sqrt(model.variances)
    emis = np.array([[np.prod(sps.norm.pdf(obs[t], model.means[k], sds[k]))
                      for k in range(K)] for t in range(T)])
    total = 0.0
    for path in itertools.product(range(K), repeat=T):
        p = model.pi[path[0]] * emis[0, path[0]]
        for t in range(1, T):
            p *= model.A[path[t - 1], path[t]] * emis[t, path[t]]
        total += p
    return math.log(total)


def test_criterion_01_forward_matches_enumeration():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 4))
        T = int(rng.integers(1, 7))
        F = int(rng.integers(1, 4))
        model = _random_hmm(rng, K, F)
        obs = rng.normal(0.0, 1.5, size=(T, F))
        got = forward_loglik(model, obs)
        want = _brute_force_loglik(model, obs)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 10.0
    record_acceptance(
        "1", ok,
        f"forward_loglik vs path enumeration, 100 random models: "
        f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert ok, (worst, elapsed)


def _two_phase_sequences(rng, n=6, T=16, lo=0.0, hi=5.0, noise=0.01):
    seqs = []
    for _ in range(n):
        half = T // 2
        a = lo + noise * rng.standard_normal(half)
        b = hi + noise * rng.standard_normal(T - half)
        seqs.append(np.concatenate([a, b])[:, None])
    return seqs


def test_criterion_02_baum_welch_monotone_and_k1_closed_form():
    seqs = _two_phase_sequences(np.random.default_rng(5))
    min_step = np.inf
    for seed in range(20):
        lls = []
        for m in range(1, 7):
            model = baum_welch(seqs, K=2, max_iter=m, tol=0.0, seed=seed)
            lls.append(sum(forward_loglik(model, s) for s in seqs))
        min_step = min(min_step, min(np.diff(lls)))
    monotone = min_step >= -1e-8

    model1 = baum_welch(seqs, K=1, max_iter=3, tol=0.0)
    pooled = np.vstack(seqs)
    dev = max(abs(model1.means[0, 0] - pooled.mean()),
              abs(model1.variances[0, 0] - pooled.var()))
    pooled_ok = dev < 1e-10

    ok = monotone and pooled_ok
    record_acceptance(
        "2", ok,
        f"20 random inits non-decreasing (min loglik step {min_step:.2e}); "
        f"K=1 pooled-moment deviation {dev:.2e}")
    assert ok, (min_step, dev)


def test_criterion_03_gradient_checks():
    start = time.perf_counter()
    worst_tcn = 0.0
    worst_lstm = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, size=(16, 3))
        y = seed % 4
        tcn = TcnModel(in_channels=3, channels=8, depth=2, kernel=3,
                       grid=16, seed=seed)
        worst_tcn = max(worst_tcn,
                        grad_check(tcn, (x, y), eps=1e-5, seed=seed))
        lstm = LstmModel(in_channels=3, hidden=8, layers=2, seed=seed)
        worst_lstm = max(worst_lstm,
                         grad_check(lstm, (x, y), eps=1e-5, seed=seed))
    elapsed = time.perf_counter() - start
    ok = worst_tcn < 1e-4 and worst_lstm < 1e-4 and elapsed < 120.0
    record_acceptance(
        "3", ok,
        f"grad_check over 10 seeds each: tcn {worst_tcn:.2e}, "
        f"lstm {worst_lstm:.2e}, {elapsed:.1f}s")
    assert ok, (worst_tcn, worst_lstm, elapsed)


def test_criterion_04_preprocessing_exactness():
    rng = np.random.default_rng(104)

    aff_err = 0.0
    for _ in range(20):
        m = int(rng.integers(8, 120))
        t = 0.1 + np.cumsum(rng.uniform(0.005, 0.08, size=m))
        a, b = rng.uniform(-2, 2), rng.uniform(-1, 1)
        out = _grid(np.column_stack([t, a * t + b]), [1], 64)[:, 0]
        grid = np.linspace(t[0], t[-1], 64)
        aff_err = max(aff_err, np.max(np.abs(out - (a * grid + b))))

    t = np.linspace(0.0, 1.26, 64)
    v = rng.normal(size=64)
    identity = np.array_equal(_grid(np.column_stack([t, v]), [1], 64)[:, 0], v)

    ds = generate(GenConfig(trials_per_class=5, noise_std=0.05, seed=21))
    fs = FeatureSet.parse("all")
    cfg = PreprocConfig()
    raw = np.stack([prepare_trial(align_streams(tr, 0.030), fs, cfg)
                    for tr in ds.trials])
    stats = fit_norm(raw, fs.channel_names)
    pooled = stats.apply(raw).reshape(-1, len(fs.channel_names))
    mom_err = max(np.max(np.abs(pooled.mean(axis=0))),
                  np.max(np.abs(pooled.std(axis=0) - 1.0)))

    max_span = 0.0
    for _ in range(1000):
        rate = float(rng.uniform(60.0, 200.0))
        trial = ramp_trial(n=int(rate * 1.6), rate=rate,
                           force=float(rng.uniform(0.8, 5.0)),
                           rise_at=float(rng.uniform(0.05, 0.4)))
        try:
            t0 = detect_contact(trial)
        except NoContact:
            continue
        w = extract_window(trial, t0).trial.wrench[:, 0]
        max_span = max(max_span, (w[-1] - w[0]) - (0.82 + 1.0 / rate))

    ok = (aff_err < 1e-12 and identity and mom_err < 1e-10
          and max_span <= 0.0)
    record_acceptance(
        "4", ok,
        f"affine resample err {aff_err:.1e}; grid identity {identity}; "
        f"norm moment err {mom_err:.1e}; worst window overshoot "
        f"{max_span:.2e}s over 1000 trials")
    assert ok, (aff_err, identity, mom_err, max_span)


def test_criterion_05_synthetic_benchmark():
    start = time.perf_counter()
    ds = generate(GenConfig(trials_per_class=60, noise_std=0.05, seed=7))
    split = kfold_split(ds, 3, seed=7)
    fs = FeatureSet.parse("all")
    X, y = feature_tensor(ds, fs), label_indices(ds)
    acc = {}
    specs = {
        "svm": ClassifierSpec("svm"),
        "hmm": ClassifierSpec("hmm"),
        "tcn": ClassifierSpec("tcn", {"epochs": 100}),
        "lstm": ClassifierSpec("lstm", {"epochs": 100}),
    }
    for name, spec in specs.items():
        acc[name] = run_cv(X, y, split, spec, fs).mean_accuracy
    elapsed = time.perf_counter() - start
    ok = (acc["tcn"] >= 0.9 and acc["svm"] >= 0.9 and acc["hmm"] >= 0.9
          and acc["lstm"] >= 0.8 and elapsed < 600.0)
    record_acceptance(
        "5", ok,
        "3-fold accuracy at 60 trials/class, noise 0.05: "
        + " ".join(f"{k} {v:.3f}" for k, v in acc.items())
        + f", {elapsed:.0f}s")
    assert ok, (acc, elapsed)


def test_criterion_06_fz_dominates_ablation():
    ds = generate(GenConfig(trials_per_class=30, noise_std=0.05, seed=11,
                            fz_only=True))
    split = kfold_split(ds, 3, seed=11)
    sets = [FeatureSet.parse(s) for s in ("fz", "force", "all", "all-fz")]
    rows = ablate_features(ds, ClassifierSpec("tcn", {"epochs": 60}),
                           sets, split)
    by_set = {r["feature_set"]: r["mean_accuracy"] for r in rows}
    fz_first = rows[0]["feature_set"] == FeatureSet.parse("fz").spec_string()
    no_fz = by_set[FeatureSet.parse("all-fz").spec_string()]
    near_chance = abs(no_fz - 0.25) <= 0.05
    ok = fz_first and near_chance
    record_acceptance(
        "6", ok,
        f"fz-only signal: ranking {[r['feature_set'] for r in rows]}, "
        f"no-fz accuracy {no_fz:.3f} vs 0.25 chance")
    assert ok, rows


def test_criterion_07_confusion_stays_adjacent():
    pooled = np.zeros((4, 4))
    for seed in (1, 2, 3):
        ds = generate(GenConfig(trials_per_class=30, noise_std=0.3, seed=seed))
        split = kfold_split(ds, 3, seed=seed)
        fs = FeatureSet.parse("all")
        report = run_cv(feature_tensor(ds, fs), label_indices(ds), split,
                        ClassifierSpec("tcn", {"epochs": 60}), fs)
        pooled += report.confusion
    dist = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    off_one = pooled[dist == 1].sum()
    off_far = pooled[dist >= 2].sum()
    ok = off_one > off_far
    record_acceptance(
        "7", ok,
        f"pooled confusions at noise 0.3 over 3 seeds: adjacent {off_one:.0f}"
        f" vs two-or-more apart {off_far:.0f}")
    assert ok, pooled


def test_criterion_08_cross_domain_gap():
    train_ds = generate(GenConfig(trials_per_class=30, noise_std=0.05, seed=5))
    test_ds = generate(GenConfig(trials_per_class=30, noise_std=0.05, seed=6,
                                 domain_shift=1.6, source=Source.ROBOT))
    fs = FeatureSet.parse("force+torque")
    spec = ClassifierSpec("hmm")
    X_train, y_train = feature_tensor(train_ds, fs), label_indices(train_ds)
    same = run_cv(X_train, y_train, kfold_split(train_ds, 3, seed=5), spec,
                  fs).mean_accuracy
    cross = cross_domain_eval(X_train, y_train, feature_tensor(test_ds, fs),
                              label_indices(test_ds), spec, fs,
                              seed=5).mean_accuracy
    ok = same - cross >= 0.15
    record_acceptance(
        "8", ok,
        f"hmm force+torque: same-domain CV {same:.3f}, shifted-domain "
        f"{cross:.3f}, gap {same - cross:.3f}")
    assert ok, (same, cross)


def test_criterion_09a_anova_fixed_instance():
    F, p = anova_oneway([[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]])
    ok = abs(F - 2.5) < 1e-9 and abs(p - 0.124) <= 0.001
    record_acceptance(
        "9a", ok,
        f"fixed three-group instance gives F={F:.6f}, p={p:.6f}; the target "
        f"F=2.5, p~0.124 contradicts its own decomposition SSB=10, SSW=30, "
        f"df=(2,12), which fixes F=(10/2)/(30/12)=2.0 and p=0.75^6~0.177979")
    if not ok:
        # the implementation must still match the decomposition exactly
        assert F == pytest.approx(2.0, abs=1e-12)
        assert p == pytest.approx(0.75 ** 6, abs=1e-12)
        pytest.xfail("target F/p are inconsistent with the instance's own "
                     "sum-of-squares decomposition, which the implementation "
                     "matches exactly")


def _permutation_tukey_significant(groups, q_obs, n_resamples=100_000,
                                   seed=0, alpha=0.05):
    """Single-step max-range permutation reference for Tukey decisions."""
    k = len(groups)
    n = len(groups[0])
    pooled = np.concatenate(groups)
    rng = np.random.default_rng(seed)
    mat = rng.permuted(np.tile(pooled, (n_resamples, 1)), axis=1)
    gm = mat.reshape(n_resamples, k, n)
    means = gm.mean(axis=2)
    msw = gm.var(axis=2, ddof=1).mean(axis=1)
    q_max = (means.max(axis=1) - means.min(axis=1)) / np.sqrt(msw / n)
    return {pair: float(np.mean(q_max >= q)) < alpha
            for pair, q in q_obs.items()}


def test_criterion_09b_tukey_vs_permutation():
    rng = np.random.default_rng(90)
    checked = 0
    attempts = 0
    agree = True
    while checked < 5 and attempts < 200:
        attempts += 1
        offsets = rng.choice([0.0, 2.0], size=3)
        groups = [rng.normal(off, 1.0, size=8) for off in offsets]
        rows = tukey_hsd(groups)
        # keep decisive instances only: decisions near alpha would need far
        # more than 100k resamples to call reliably
        if any(0.015 < r["p"] < 0.25 for r in rows):
            continue
        q_obs = {(r["group_i"], r["group_j"]): r["q"] for r in rows}
        perm = _permutation_tukey_significant(groups, q_obs, seed=checked)
        for r in rows:
            if perm[(r["group_i"], r["group_j"])] != r["significant"]:
                agree = False
        checked += 1
    ok = agree and checked == 5
    record_acceptance(
        "9b", ok,
        f"Tukey significance matches 100k-resample permutation oracle on "
        f"{checked} decisive random instances")
    assert ok


def test_criterion_09c_two_group_f_equals_t_squared():
    rng = np.random.default_rng(93)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 12))
        a = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0), size=n)
        b = a + rng.uniform(0.5, 3.0)  # equal sample variance
        F, _ = anova_oneway([a, b])
        t, _ = ttest_2tailed(a, b)
        worst = max(worst, abs(F - t * t) / max(1.0, abs(F)))
    ok = worst < 1e-9
    record_acceptance(
        "9c", ok,
        f"two-group F vs squared t on equal-variance data: max deviation "
        f"{worst:.2e}")
    assert ok, worst


def test_criterion_09d_ttest_null_calibration():
    rng = np.random.default_rng(94)
    ps = [ttest_2tailed(rng.normal(0, 1, 12), rng.normal(0, 1, 12))[1]
          for _ in range(2000)]
    D = sps.kstest(ps, "uniform").statistic
    ok = D <= 0.05
    record_acceptance(
        "9d", ok,
        f"p-value uniformity under the null: KS distance {D:.4f} over 2000 "
        f"simulations")
    assert ok, D


def test_criterion_10_from_run_reproducibility(tmp_path):
    data = tmp_path / "trials.jsonl"
    assert cli_main(["synth", "--per-class", "6", "--seed", "3",
                     "--out", str(data)]) == 0
    first = tmp_path / "first"
    assert cli_main(["evaluate", "--data", str(data), "--clf", "svm",
                     "--features", "fz", "--epochs", "60",
                     "--out", str(first)]) == 0
    replay = tmp_path / "replay"
    assert cli_main(["evaluate", "--from-run", str(first / "run.json"),
                     "--out", str(replay)]) == 0
    names = ("report.json", "confusion.csv", "folds.csv")
    same = {n: (first / n).read_bytes() == (replay / n).read_bytes()
            for n in names}
    ok = all(same.values())
    record_acceptance(
        "10", ok,
        "re-execution from run.json byte-identical for "
        + ", ".join(names))
    assert ok, same


def test_criterion_11_external_dataset():
    path = os.environ.get("HAPTIX_REAL_DATASET")
    if not path:
        record_acceptance(
            "11", True,
            "optional external-dataset benchmark; set HAPTIX_REAL_DATASET "
            "to a trial file to run it", status="SKIP")
        pytest.skip("HAPTIX_REAL_DATASET not set")
    ds = load_trials(path)
    split = kfold_split(ds, 3, seed=0)
    acc = {}
    for name in ("all", "fz"):
        fs = FeatureSet.parse(name)
        acc[name] = run_cv(feature_tensor(ds, fs), label_indices(ds), split,
                           ClassifierSpec("tcn", {"epochs": 100}),
                           fs).mean_accuracy
    acc_all, acc_fz = acc["all"], acc["fz"]
    ok = abs(acc_all - 0.8047) <= 0.10 and abs(acc_fz - 0.7422) <= 0.10
    record_acceptance(
        "11", ok,
        f"external dataset: all-channel {acc_all:.4f} (target 0.8047±0.10), "
        f"fz-only {acc_fz:.4f} (target 0.7422±0.10)")
    assert ok, (acc_all, acc_fz)
