import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haptix import synthgen
from haptix.core import (
    CLASS_ORDER,
    ComplianceClass,
    Dataset,
    Source,
    Trial,
    align_streams,
    item_class,
    load_trials,
    save_trials,
)
from haptix.preprocess import detect_contact
from haptix.synthgen import GenConfig, generate


def fz_peak_1nn_accuracy(ds):
    """Leave-one-out 1-NN on the per-trial |fz| maximum."""
    peaks = np.array([np.abs(tr.wrench[:, 3]).max() for tr in ds.trials])
    labels = np.array([int(tr.label) for tr in ds.trials])
    hits = 0
    for i in range(len(peaks)):
        d = np.abs(peaks - peaks[i])
        d[i] = np.inf
        hits += labels[np.argmin(d)] == labels[i]
    return hits / len(peaks)


def fitted_delay(trial):
    """Delay that best maps |F| onto the fork speed by least squares.

    Descent speed is an affine function of the normalized force, so shifting
    the force trace by the true sensor lag minimizes the regression residual.
    """
    pose_t, height = trial.pose[:, 0], trial.pose[:, 2]
    speed = -np.gradient(height, pose_t)
    fmag = np.linalg.norm(trial.wrench[:, 1:4], axis=1)
    wt = trial.wrench[:, 0]
    keep = (pose_t > 0.25) & (pose_t < 1.3)
    y = speed[keep]
    best = (None, np.inf)
    for d in np.linspace(-0.02, 0.06, 161):
        x = np.interp(pose_t[keep] - d, wt, fmag)
        coef, *_ = np.linalg.lstsq(
            np.column_stack([np.ones_like(x), x]), y, rcond=None)
        r = y - coef[0] - coef[1] * x
        ss = float(r @ r)
        if ss < best[1]:
            best = (d, ss)
    return best[0]


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(trials_per_class=0)
        with pytest.raises(ValueError):
            GenConfig(trials_per_class=1, noise_std=-0.1)
        with pytest.raises(ValueError):
            GenConfig(trials_per_class=1, sample_rate=0.0)
        with pytest.raises(ValueError):
            GenConfig(trials_per_class=1, duration=0.5)
        with pytest.raises(ValueError):
            GenConfig(trials_per_class=1, domain_shift=0.0)


class TestGenerate:
    def test_counts_labels_and_metadata(self):
        ds = generate(GenConfig(trials_per_class=5, seed=1))
        assert len(ds) == 20
        for c in CLASS_ORDER:
            assert ds.class_counts[c] == 5
        ids = [tr.id for tr in ds.trials]
        assert len(set(ids)) == len(ids)
        for tr in ds.trials:
            assert item_class(tr.food_item) is tr.label
            assert tr.source is Source.HUMAN
            assert tr.subject.startswith("synth")
            assert 1 <= tr.session <= 3

    def test_deterministic_for_same_config(self):
        cfg = GenConfig(trials_per_class=3, noise_std=0.1, seed=9)
        assert generate(cfg) == generate(cfg)

    def test_seed_changes_data(self):
        a = generate(GenConfig(trials_per_class=3, seed=1))
        b = generate(GenConfig(trials_per_class=3, seed=2))
        assert a != b

    def test_timestamps_uniform_from_zero(self):
        cfg = GenConfig(trials_per_class=1, sample_rate=100.0, duration=1.0)
        tr = generate(cfg).trials[0]
        assert tr.wrench.shape[0] == 101
        assert tr.wrench[0, 0] == 0.0
        np.testing.assert_allclose(np.diff(tr.wrench[:, 0]), 0.01)

    def test_robot_source_propagates(self):
        cfg = GenConfig(trials_per_class=1, source=Source.ROBOT)
        tr = generate(cfg).trials[0]
        assert tr.source is Source.ROBOT
        assert tr.id.startswith("robot-")

    def test_round_trips_through_trial_files(self, tmp_path):
        ds = generate(GenConfig(trials_per_class=2, seed=4))
        p = tmp_path / "synth.jsonl"
        save_trials(ds, p)
        assert load_trials(p) == ds


class TestForceProfiles:
    def test_noise_free_class_peaks(self):
        ds = generate(GenConfig(trials_per_class=3, noise_std=0.0, seed=0))
        nominal = {
            ComplianceClass.HARD_SKIN: 25.0,
            ComplianceClass.HARD: 20.0,
            ComplianceClass.MEDIUM: 10.0,
            ComplianceClass.SOFT: 3.0,
        }
        for tr in ds.trials:
            peak = np.abs(tr.wrench[:, 3]).max()
            # item-level profile jitter is at most 3 percent
            assert abs(peak / nominal[tr.label] - 1.0) <= 0.035

    def test_hard_skin_puncture_drop(self):
        ds = generate(GenConfig(trials_per_class=2, noise_std=0.0, seed=0))
        for tr in ds.trials:
            fz = tr.wrench[:, 3]
            tail = fz[-20:].mean()
            peak = fz.max()
            if tr.label is ComplianceClass.HARD_SKIN:
                assert tail < 0.5 * peak  # sharp post-puncture drop
            else:
                assert tail > 0.8 * peak  # sustained load

    def test_domain_shift_scales_forces(self):
        base = generate(GenConfig(trials_per_class=2, noise_std=0.0, seed=0))
        shifted = generate(GenConfig(trials_per_class=2, noise_std=0.0,
                                     seed=0, domain_shift=1.6))
        for a, b in zip(base.trials, shifted.trials):
            pa = np.abs(a.wrench[:, 3]).max()
            pb = np.abs(b.wrench[:, 3]).max()
            assert pb / pa == pytest.approx(1.6, rel=1e-6)

    def test_pre_contact_forces_silent_even_at_high_noise(self):
        ds = generate(GenConfig(trials_per_class=4, noise_std=0.5, seed=8))
        for tr in ds.trials:
            early = tr.wrench[tr.wrench[:, 0] < 0.15]
            assert np.all(np.linalg.norm(early[:, 1:4], axis=1) < 0.5)

    def test_contact_detectable_under_heavy_noise(self):
        ds = generate(GenConfig(trials_per_class=4, noise_std=0.5, seed=8))
        for tr in ds.trials:
            t0 = detect_contact(tr)
            assert 0.15 <= t0 <= 0.55

    def test_peak_nearest_neighbor_oracle(self):
        ds = generate(GenConfig(trials_per_class=30, noise_std=0.05, seed=42))
        assert fz_peak_1nn_accuracy(ds) >= 0.95


class TestFzOnlyMode:
    def test_descent_is_class_independent(self):
        ds = generate(GenConfig(trials_per_class=2, noise_std=0.0, seed=0,
                                fz_only=True))
        drops = {}
        for tr in ds.trials:
            drops.setdefault(tr.label, []).append(
                tr.pose[0, 2] - tr.pose[-1, 2])
        means = [np.mean(v) for v in drops.values()]
        np.testing.assert_allclose(means, means[0], rtol=1e-9)

    def test_descent_differs_by_class_otherwise(self):
        ds = generate(GenConfig(trials_per_class=2, noise_std=0.0, seed=0))
        drops = {}
        for tr in ds.trials:
            drops.setdefault(tr.label, []).append(
                tr.pose[0, 2] - tr.pose[-1, 2])
        hs = np.mean(drops[ComplianceClass.HARD_SKIN])
        soft = np.mean(drops[ComplianceClass.SOFT])
        assert hs > soft * 1.3

    def test_no_torque_coupling(self):
        ds = generate(GenConfig(trials_per_class=1, noise_std=0.0, seed=0,
                                fz_only=True))
        for tr in ds.trials:
            np.testing.assert_allclose(tr.wrench[:, 5], 0.0, atol=1e-12)


class TestPoseLag:
    def test_alignment_recovers_synchrony(self):
        ds = generate(GenConfig(trials_per_class=1, noise_std=0.0, seed=0))
        for tr in ds.trials:
            assert fitted_delay(tr) == pytest.approx(0.030, abs=0.005)
            aligned = align_streams(tr, 0.030)
            assert fitted_delay(aligned) == pytest.approx(0.0, abs=0.005)


# The per-trial generator that `generate` replaced, kept as its oracle: each
# trial draws from the generator in turn, and each AR(1) channel runs its own
# scalar loop, one Python iteration per sample.
def oracle_ar1(rng, n, sigma, phi=0.95):
    if sigma == 0.0:
        rng.standard_normal(n)
        return np.zeros(n)
    eps = rng.standard_normal(n)
    out = np.empty(n)
    out[0] = sigma * eps[0]
    c = sigma * np.sqrt(1.0 - phi * phi)
    for i in range(1, n):
        out[i] = phi * out[i - 1] + c * eps[i]
    return out


def oracle_make_trial(rng, cfg, label, index):
    s = cfg.domain_shift
    n = int(round(cfg.duration * cfg.sample_rate)) + 1
    t = np.arange(n) / cfg.sample_rate
    slot = index % len(synthgen._ITEM_JITTER)
    item = synthgen.ITEMS_BY_CLASS[label][slot % len(synthgen.ITEMS_BY_CLASS[label])]
    amp = synthgen._ITEM_JITTER[slot] * max(
        0.1, 1.0 + synthgen._TRIAL_JITTER * cfg.noise_std * rng.standard_normal())
    peak = synthgen._PROFILES[label][0] * amp * s
    fz_clean = synthgen._fz_clean(t, label, amp) * s
    rel = fz_clean / peak
    contact = synthgen.CONTACT_TIME
    env = np.interp(t, [0.0, contact, contact + 0.3], [0.0, 0.0, 1.0])
    fz = fz_clean + cfg.noise_std * fz_clean * rng.standard_normal(n)
    fx = oracle_ar1(rng, n, cfg.noise_std * 2.0 * s) * env
    fy = oracle_ar1(rng, n, cfg.noise_std * 2.0 * s) * env
    tx = oracle_ar1(rng, n, cfg.noise_std * 0.5 * s) * env
    ty = oracle_ar1(rng, n, cfg.noise_std * 0.5 * s) * env
    tz = oracle_ar1(rng, n, cfg.noise_std * 0.5 * s) * env
    wiggle = np.sin(2.0 * np.pi * 3.0 * (t - contact)) * rel
    if not cfg.fz_only:
        ty = ty - 0.015 * fz_clean
        if label is ComplianceClass.SOFT:
            fx = fx + 0.8 * s * amp * wiggle
    if cfg.fz_only:
        speed = np.full(n, synthgen._FLAT_SPEED)
    else:
        speed = synthgen._DESCENT_SPEED[label] * (1.0 + 0.5 * rel)
    dt = 1.0 / cfg.sample_rate
    descent = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * dt)])
    py_true = synthgen.START_HEIGHT - descent
    px_true = oracle_ar1(rng, n, cfg.noise_std * 0.01)
    pz_true = oracle_ar1(rng, n, cfg.noise_std * 0.01)
    rx_true = oracle_ar1(rng, n, cfg.noise_std * 0.02)
    ry_true = oracle_ar1(rng, n, cfg.noise_std * 0.02)
    rz_true = oracle_ar1(rng, n, cfg.noise_std * 0.02)
    if not cfg.fz_only and label is ComplianceClass.SOFT:
        rx_true = rx_true + 0.08 * wiggle
    t_lag = t - synthgen.POSE_SENSOR_LAG
    lag = lambda sig: np.interp(t_lag, t, sig, left=sig[0])
    meas = cfg.noise_std * 0.01
    pose = np.column_stack([
        t,
        lag(px_true) + meas * rng.standard_normal(n),
        lag(py_true) + meas * rng.standard_normal(n),
        lag(pz_true) + meas * rng.standard_normal(n),
        lag(rx_true),
        lag(ry_true),
        lag(rz_true),
    ])
    wrench = np.column_stack([t, fx, fy, fz, tx, ty, tz])
    return Trial(
        id=f"{cfg.source.value}-{label.label}-{index:04d}",
        subject=f"synth{1 + index % 4}",
        session=1 + (index // 4) % 3,
        food_item=item,
        label=label,
        wrench=wrench,
        pose=pose,
        source=cfg.source,
    )


def oracle_generate(cfg):
    rng = np.random.default_rng(cfg.seed)
    return Dataset(trials=tuple(
        oracle_make_trial(rng, cfg, label, i)
        for label in CLASS_ORDER for i in range(cfg.trials_per_class)))


def configs():
    return st.builds(
        GenConfig,
        trials_per_class=st.integers(1, 3),
        noise_std=st.just(0.0) | st.floats(0.0, 0.5),
        sample_rate=st.sampled_from([30.0, 120.0, 333.0, 1000.0]),
        duration=st.sampled_from([0.83, 1.5]),
        domain_shift=st.floats(0.5, 2.0),
        seed=st.integers(0, 2**32 - 1),
        fz_only=st.booleans(),
        source=st.sampled_from(list(Source)),
    )


class TestBatchedGenerator:
    """`generate` draws each class's random numbers in one call and runs one
    AR(1) recursion over all of the class's channels; the trial files it
    leads to must be the oracle's, byte for byte."""

    @settings(max_examples=40, deadline=None)
    @given(configs())
    @example(GenConfig(trials_per_class=1, sample_rate=1000.0, seed=5))
    @example(GenConfig(trials_per_class=2, noise_std=0.0, seed=1))
    @example(GenConfig(trials_per_class=1, noise_std=0.0, fz_only=True,
                       source=Source.ROBOT, domain_shift=1.2))
    def test_trial_files_are_the_oracles(self, tmp_path_factory, cfg):
        d = tmp_path_factory.mktemp("gen")
        save_trials(generate(cfg), d / "new.jsonl")
        save_trials(oracle_generate(cfg), d / "old.jsonl")
        assert (d / "new.jsonl").read_bytes() == (d / "old.jsonl").read_bytes()

    def test_noise_free_channels_are_positive_zero(self):
        ds = generate(GenConfig(trials_per_class=1, noise_std=0.0, seed=2))
        for tr in ds.trials:
            for stream in (tr.wrench[:, [1, 2, 4, 6]], tr.pose[:, 1:]):
                zeros = stream[stream == 0.0]
                assert not np.signbit(zeros).any()

    @pytest.mark.parametrize("cfg", [
        # the benchmark's cross-domain test set and its 1 kHz ingest set
        GenConfig(trials_per_class=100, domain_shift=1.2, seed=3,
                  source=Source.ROBOT),
        GenConfig(trials_per_class=10, sample_rate=1000.0, duration=2.0, seed=5),
    ], ids=["robot-400", "1khz-40"])
    def test_peak_memory_stays_near_the_returned_arrays(self, cfg):
        generate(GenConfig(trials_per_class=1))  # warm numpy's caches
        tracemalloc.start()
        try:
            ds = generate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = sum(tr.wrench.nbytes + tr.pose.nbytes for tr in ds.trials)
        assert peak <= 1.5 * returned
