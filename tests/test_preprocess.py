import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_trial, ramp_trial
from haptix.errors import (
    DegenerateStream,
    DimensionMismatch,
    EmptyTrainingSet,
    NoContact,
)
from haptix.preprocess import (
    ALL_CHANNELS,
    FeatureSet,
    NormStats,
    PreprocConfig,
    assemble_features,
    detect_contact,
    extract_window,
    first_derivative,
    fit_norm,
    _grid,
    prepare_trial,
)


class TestFeatureSet:
    def test_all_selects_twelve_channels(self):
        fs = FeatureSet.parse("all")
        assert fs.channels == ALL_CHANNELS
        assert not fs.derivatives
        assert fs.spec_string() == "all"

    def test_single_channel(self):
        assert FeatureSet.parse("fz").channel_names == ("fz",)

    def test_group_union(self):
        fs = FeatureSet.parse("force+torque")
        assert fs.channels == ("fx", "fy", "fz", "tx", "ty", "tz")

    def test_comma_is_union(self):
        assert FeatureSet.parse("force,torque") == FeatureSet.parse("force+torque")

    def test_removal(self):
        fs = FeatureSet.parse("all-fz")
        assert "fz" not in fs.channels
        assert len(fs.channels) == 11

    def test_derivatives_double_channels(self):
        fs = FeatureSet.parse("all+deriv")
        names = fs.channel_names
        assert len(names) == 24
        assert names[:12] == ALL_CHANNELS
        assert names[12:] == tuple("d" + c for c in ALL_CHANNELS)

    def test_removed_channel_loses_its_derivative(self):
        fs = FeatureSet.parse("force+deriv-fz")
        assert fs.channel_names == ("fx", "fy", "dfx", "dfy")

    def test_duplicates_collapse(self):
        assert FeatureSet.parse("fz+fz+force").channels == ("fx", "fy", "fz")

    def test_canonical_order_independent_of_spelling(self):
        assert FeatureSet.parse("tz+fx") == FeatureSet.parse("fx+tz")

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            FeatureSet.parse("pose")
        with pytest.raises(ValueError):
            FeatureSet.parse("fq")

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            FeatureSet.parse("")
        with pytest.raises(ValueError):
            FeatureSet.parse("fz-fz")
        with pytest.raises(ValueError):
            FeatureSet.parse("deriv")

    def test_from_groups(self):
        fs = FeatureSet.parse("force+rotation+deriv")
        assert fs.channels == ("fx", "fy", "fz", "rx", "ry", "rz")
        assert fs.derivatives

    def test_spec_string_round_trips(self):
        for text in ("all", "fz", "force+torque", "all-fz", "all+deriv"):
            fs = FeatureSet.parse(text)
            assert FeatureSet.parse(fs.spec_string()) == fs


class TestDetectContact:
    @staticmethod
    def _force_trial(fz_of_t, n=60, rate=100.0):
        t = np.arange(n) / rate
        fz = np.asarray([fz_of_t(ti) for ti in t], dtype=float)
        wrench = np.column_stack([t, 0 * t, 0 * t, fz, 0 * t, 0 * t, 0 * t])
        pose = np.column_stack([t, 0 * t, 0.25 - 0.05 * t, 0 * t, 0 * t,
                                0 * t, 0 * t])
        return make_trial(wrench, pose)

    def test_brief_spike_is_skipped(self):
        # 30 ms spike at 0.10 is shorter than the 50 ms hold; the sustained
        # rise at 0.30 is the reported contact.
        tr = self._force_trial(
            lambda ti: 1.0 if 0.10 <= ti <= 0.12 or ti >= 0.30 else 0.0)
        assert detect_contact(tr, 0.5, 0.05) == pytest.approx(0.30)

    def test_magnitude_uses_all_force_axes(self):
        t = np.arange(60) / 100.0
        fx = np.where(t >= 0.2, 0.4, 0.0)
        fy = np.where(t >= 0.2, 0.4, 0.0)
        wrench = np.column_stack([t, fx, fy, 0 * t, 0 * t, 0 * t, 0 * t])
        pose = np.column_stack([t, 0 * t, 0 * t, 0 * t, 0 * t, 0 * t, 0 * t])
        tr = make_trial(wrench, pose)
        # |F| = sqrt(0.32) ~ 0.566 >= 0.5 even though no axis reaches it.
        assert detect_contact(tr, 0.5, 0.05) == pytest.approx(0.2)

    def test_crossing_near_end_is_not_contact(self):
        tr = self._force_trial(lambda ti: 1.0 if ti >= 0.57 else 0.0)
        with pytest.raises(NoContact):
            detect_contact(tr, 0.5, 0.05)

    def test_no_force_raises(self):
        tr = self._force_trial(lambda ti: 0.1)
        with pytest.raises(NoContact):
            detect_contact(tr)

    def test_zero_hold_accepts_single_sample(self):
        tr = self._force_trial(lambda ti: 1.0 if 0.10 <= ti <= 0.104 else 0.0)
        assert detect_contact(tr, 0.5, 0.0) == pytest.approx(0.10)

    def test_parameter_validation(self):
        tr = ramp_trial()
        with pytest.raises(ValueError):
            detect_contact(tr, threshold=0.0)
        with pytest.raises(ValueError):
            detect_contact(tr, hold=-0.1)

    def test_nan_hold_rejected(self):
        with pytest.raises(ValueError):
            detect_contact(ramp_trial(), hold=float("nan"))

    @staticmethod
    def _scan(trial, threshold, hold):
        """Reference: try every above-threshold sample in turn and mask the
        whole trace for its hold window. None when there is no contact."""
        t = trial.wrench[:, 0]
        above = np.linalg.norm(trial.wrench[:, 1:4], axis=1) >= threshold
        for i in np.flatnonzero(above):
            ti = t[i]
            if ti + hold > t[-1]:
                break
            window = (t >= ti) & (t <= ti + hold)
            if np.all(above[window]):
                return float(ti)
        return None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_scan_on_random_and_near_threshold_traces(self, data):
        n = data.draw(st.integers(2, 120), label="n")
        steps = data.draw(st.lists(st.floats(1e-4, 0.05), min_size=n - 1,
                                   max_size=n - 1), label="steps")
        t = np.concatenate([[data.draw(st.floats(0.0, 1.0))], steps]).cumsum()
        if np.any(np.diff(t) <= 0.0):
            return  # rounding merged two timestamps; not a valid trace
        threshold = 0.5
        if data.draw(st.booleans(), label="near threshold"):
            levels = [0.0, np.nextafter(threshold, 0.0), threshold,
                      np.nextafter(threshold, 1.0), 1.0]
            fz = np.array(data.draw(st.lists(st.sampled_from(levels),
                                             min_size=n, max_size=n)))
            force = np.column_stack([0 * t, 0 * t, fz])
        else:
            force = np.array(data.draw(st.lists(
                st.tuples(*[st.floats(-0.6, 0.6)] * 3), min_size=n, max_size=n)))
        i, j = sorted(data.draw(st.tuples(st.integers(0, n - 1),
                                          st.integers(0, n - 1))))
        # a hold that ends exactly on a sample, or an arbitrary one
        hold = data.draw(st.sampled_from([t[j] - t[i], 0.0])
                         | st.floats(0.0, 0.3), label="hold")
        wrench = np.column_stack([t, force, np.zeros((n, 3))])
        tr = make_trial(wrench, np.column_stack([t, np.zeros((n, 6))]))
        want = self._scan(tr, threshold, hold)
        if want is None:
            with pytest.raises(NoContact):
                detect_contact(tr, threshold, hold)
        else:
            assert detect_contact(tr, threshold, hold) == want


class TestExtractWindow:
    def test_window_rebased_and_inclusive(self):
        tr = ramp_trial(n=180, rate=120.0)
        win = extract_window(tr, 0.2, 0.82)
        seg = win.trial
        assert seg.wrench[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert seg.wrench[-1, 0] <= 0.82 + 1e-12
        assert not win.truncated

    def test_truncated_flag(self):
        tr = ramp_trial(n=100, rate=120.0)  # 0.825 s of data
        win = extract_window(tr, 0.2, 0.82)
        assert win.truncated

    def test_window_values_match_source(self):
        tr = ramp_trial(n=180, rate=120.0)
        seg = extract_window(tr, 0.2, 0.5).trial
        src = tr.wrench[(tr.wrench[:, 0] >= 0.2) & (tr.wrench[:, 0] <= 0.7)]
        np.testing.assert_allclose(seg.wrench[:, 1:], src[:, 1:])

    def test_empty_window_rejected(self):
        tr = ramp_trial(n=50, rate=120.0)
        with pytest.raises(DegenerateStream):
            extract_window(tr, 0.40, 0.005)

    def test_parameter_validation(self):
        tr = ramp_trial()
        with pytest.raises(ValueError):
            extract_window(tr, -0.1, 0.82)
        with pytest.raises(ValueError):
            extract_window(tr, 0.1, 0.0)

    def test_window_span_bounded_over_random_trials(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rate = rng.uniform(40.0, 160.0)
            n = int(rng.uniform(1.0, 1.6) * rate)
            t = np.arange(n) / rate
            rise = rng.uniform(0.05, 0.4)
            fz = np.where(t >= rise, rng.uniform(1.0, 20.0), 0.0)
            wrench = np.column_stack([t, 0 * t, 0 * t, fz, 0 * t, 0 * t, 0 * t])
            pose = np.column_stack([t, 0 * t, 0 * t, 0 * t, 0 * t, 0 * t, 0 * t])
            tr = make_trial(wrench, pose)
            t0 = detect_contact(tr, 0.5, 0.05)
            seg = extract_window(tr, t0, 0.82).trial
            span = seg.wrench[-1, 0] - seg.wrench[0, 0]
            assert span <= 0.82 + 1.0 / rate


def resample(series, n):
    """One (t, value) series onto the n-grid, through the pipeline's _grid."""
    return _grid(np.asarray(series, dtype=np.float64), [1], n)[:, 0]


class TestResample:
    def test_identity_on_matching_grid(self):
        t = np.linspace(0.0, 1.0, 64)
        v = np.random.default_rng(0).standard_normal(64)
        out = resample(np.column_stack([t, v]), 64)
        np.testing.assert_array_equal(out, v)
        out[0] = 999.0  # caller owns the output
        assert v[0] != 999.0

    def test_affine_series_exact(self):
        rng = np.random.default_rng(1)
        t = np.sort(rng.uniform(0.0, 1.0, 40))
        t[0], t[-1] = 0.0, 1.0
        v = 3.5 * t - 1.2
        out = resample(np.column_stack([t, v]), 64)
        grid = np.linspace(0.0, 1.0, 64)
        np.testing.assert_allclose(out, 3.5 * grid - 1.2, atol=1e-12)

    def test_endpoints_exact(self):
        series = np.array([[0.0, 2.0], [0.3, -1.0], [1.0, 5.0]])
        out = resample(series, 10)
        assert out[0] == 2.0
        assert out[-1] == 5.0

    def test_known_midpoint(self):
        series = np.array([[0.0, 0.0], [1.0, 2.0]])
        out = resample(series, 3)
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0])


class TestFirstDerivative:
    def test_affine_exact(self):
        grid = np.linspace(0.0, 1.0, 64)
        v = -4.0 * grid + 0.5
        d = first_derivative(v, grid[1] - grid[0])
        np.testing.assert_allclose(d, -4.0, atol=1e-12)

    def test_quadratic_exact_with_second_order_ends(self):
        grid = np.linspace(0.0, 2.0, 32)
        v = grid ** 2
        d = first_derivative(v, grid[1] - grid[0])
        np.testing.assert_allclose(d, 2.0 * grid, atol=1e-10)

    def test_two_point_fallback(self):
        d = first_derivative(np.array([1.0, 3.0]), 0.5)
        np.testing.assert_allclose(d, [4.0, 4.0])

    def test_dt_validation(self):
        with pytest.raises(ValueError):
            first_derivative(np.array([1.0, 2.0, 3.0]), 0.0)

    def test_shape_validation(self):
        for bad in (np.zeros((1, 3)), np.zeros((4, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match=">= 2 points"):
                first_derivative(bad, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 70), st.integers(1, 6),
           st.floats(1e-4, 10.0), st.integers(0, 2 ** 32 - 1))
    def test_columns_match_one_dimensional(self, g, k, dt, seed):
        V = np.random.default_rng(seed).normal(0.0, 5.0, size=(g, k))
        D = first_derivative(V, dt)
        assert D.shape == (g, k)
        for j in range(k):
            assert D[:, j].tobytes() == first_derivative(V[:, j], dt).tobytes()


def alternating_overflow_trial():
    """Finite input whose grid and derivative overflow: fz alternates
    +-1e308 from contact on."""
    tr = ramp_trial(n=180, rate=120.0)
    wrench = tr.wrench.copy()
    after = wrench[:, 0] >= 0.2
    sign = np.where(np.arange(wrench.shape[0]) % 2 == 0, 1.0, -1.0)
    wrench[after, 3] = sign[after] * 1e308
    return make_trial(wrench, tr.pose)


class TestFeatureMatrix:
    def test_shape_checked_against_names(self):
        with pytest.raises(ValueError):
            NormStats(mean=np.zeros(2), std=np.ones(2), channel_names=("fz",))

    def test_non_finite_rejected(self):
        trial = alternating_overflow_trial()
        assert np.all(np.isfinite(trial.wrench))
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                prepare_trial(trial, FeatureSet.parse("fz+deriv"))


def per_trial_norm(X):
    """Oracle: moments of the trials concatenated one by one, and each
    trial normalized on its own."""
    pooled = np.concatenate(list(X), axis=0)
    mean = pooled.mean(axis=0)
    std = np.maximum(pooled.std(axis=0), 1e-8)
    return mean, std, np.stack([(x - mean) / std for x in X])


class TestNormalization:
    @staticmethod
    def _matrices(rng, k=5, rows=64, names=("fx", "fz")):
        return rng.normal(3.0, 2.5, size=(k, rows, len(names)))

    def test_pooled_moments_after_apply(self):
        rng = np.random.default_rng(2)
        train = self._matrices(rng)
        stats = fit_norm(train, ("fx", "fz"))
        pooled = stats.apply(train).reshape(-1, 2)
        np.testing.assert_allclose(pooled.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(pooled.std(axis=0), 1.0, atol=1e-10)

    def test_constant_channel_floored(self):
        values = np.full((8, 1), 7.0)
        stats = fit_norm(values, ("fz",))
        assert stats.std[0] == pytest.approx(1e-8)
        out = stats.apply(values)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, 0.0)

    def test_mixed_channels_rejected(self):
        with pytest.raises(DimensionMismatch):
            fit_norm(np.zeros((2, 4, 1)), ("fz", "fx"))

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            fit_norm(np.zeros((0, 64, 1)), ("fz",))

    def test_apply_checks_channels(self):
        stats = NormStats(mean=np.zeros(1), std=np.ones(1),
                          channel_names=("fz",))
        with pytest.raises(DimensionMismatch):
            stats.apply(np.zeros((4, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_tensor_matches_per_trial_oracle(self, data):
        n = data.draw(st.integers(1, 6))
        g = data.draw(st.integers(1, 9))
        f = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4, size=f)
        X = rng.normal(0.0, 1.0, size=(n, g, f)) * scale + rng.normal(size=f)
        if data.draw(st.booleans()):
            X[..., rng.integers(f)] = rng.normal()   # one constant channel
        names = tuple(f"c{j}" for j in range(f))
        mean, std, normed = per_trial_norm(X)
        stats = fit_norm(X, names)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.std, std)
        assert np.array_equal(stats.apply(X), normed)


class TestAssembleFeatures:
    @staticmethod
    def _constant_trial():
        t = np.arange(30) / 100.0
        one = np.ones_like(t)
        wrench = np.column_stack([t, 1 * one, 2 * one, 3 * one,
                                  4 * one, 5 * one, 6 * one])
        pose = np.column_stack([t, 7 * one, 8 * one, 9 * one,
                                0.1 * one, 0.2 * one, 0.3 * one])
        return make_trial(wrench, pose)

    def test_channel_column_mapping(self):
        fm = assemble_features(self._constant_trial(), FeatureSet.parse("all"))
        assert fm.shape == (64, 12)
        expected = [1, 2, 3, 4, 5, 6, 7, 8, 9, 0.1, 0.2, 0.3]
        for j, val in enumerate(expected):
            np.testing.assert_allclose(fm[:, j], val)

    def test_derivative_columns_follow_raw(self):
        fs = FeatureSet.parse("fz+deriv")
        fm = assemble_features(self._constant_trial(), fs)
        assert fs.channel_names == ("fz", "dfz")
        assert fm.shape == (64, 2)
        np.testing.assert_allclose(fm[:, 1], 0.0, atol=1e-12)

    def test_grid_size_override(self):
        fm = assemble_features(self._constant_trial(),
                               FeatureSet.parse("fz"), n=32)
        assert fm.shape == (32, 1)


# channel -> (stream attribute, column index within the stream array): the
# per-column layout that assemble_features_oracle grids by
_CHANNEL_SOURCE = {
    "fx": ("wrench", 1), "fy": ("wrench", 2), "fz": ("wrench", 3),
    "tx": ("wrench", 4), "ty": ("wrench", 5), "tz": ("wrench", 6),
    "px": ("pose", 1), "py": ("pose", 2), "pz": ("pose", 3),
    "rx": ("pose", 4), "ry": ("pose", 5), "rz": ("pose", 6),
}


def resample_oracle(series, n):
    """Oracle: one (t, value) series onto the n-grid, with the pass-through
    for on-grid input and the endpoint copies _grid once had."""
    arr = np.asarray(series, dtype=np.float64)
    t, v = arr[:, 0], arr[:, 1]
    assert not np.any(np.diff(t) <= 0.0)
    grid = np.linspace(t[0], t[-1], n)
    if arr.shape[0] == n and np.array_equal(t, grid):
        return v.copy()
    out = np.interp(grid, t, v)
    out[0] = v[0]
    out[-1] = v[-1]
    return out


def assemble_features_oracle(trial, fs, n):
    """Oracle: every selected channel gridded on its own, and its derivative
    from its own 1-D grid."""
    cols = []
    derivs = []
    for name in fs.channels:
        attr, idx = _CHANNEL_SOURCE[name]
        stream = getattr(trial, attr)
        series = np.column_stack([stream[:, 0], stream[:, idx]])
        vals = resample_oracle(series, n)
        cols.append(vals)
        if fs.derivatives:
            span = stream[-1, 0] - stream[0, 0]
            derivs.append(first_derivative(vals, span / (n - 1)))
    return np.column_stack(cols + derivs)


@st.composite
def gridding_cases(draw):
    """A trial whose two streams differ in length, start and span, a grid
    size and a feature set. A stream may hold 2 samples, or sit exactly on
    the grid (the oracle's pass-through)."""
    n = draw(st.sampled_from([2, 3, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    streams = []
    for _ in range(2):
        t0 = draw(st.floats(0.0, 5.0))
        span = draw(st.floats(1e-3, 3.0))
        layout = draw(st.sampled_from(["irregular", "two", "on-grid"]))
        if layout == "on-grid":
            t = np.linspace(t0, t0 + span, n)
        else:
            m = 2 if layout == "two" else draw(st.integers(2, 90))
            steps = np.cumsum(rng.uniform(0.05, 1.0, m - 1))
            t = np.concatenate([[t0], t0 + span * steps / steps[-1]])
        scale = 10.0 ** rng.integers(-3, 4, size=6)
        streams.append(np.column_stack(
            [t, rng.normal(size=(t.shape[0], 6)) * scale]))
    chans = draw(st.lists(st.sampled_from(ALL_CHANNELS), min_size=1,
                          unique=True))
    fs = FeatureSet(channels=tuple(chans), derivatives=draw(st.booleans()))
    return make_trial(*streams), fs, n


class TestStreamGridding:
    @settings(max_examples=300, deadline=None)
    @given(gridding_cases())
    def test_matches_per_column_oracle(self, case):
        trial, fs, n = case
        out = assemble_features(trial, fs, n=n)
        assert out.shape == (n, len(fs.channel_names))
        assert out.tobytes() == assemble_features_oracle(trial, fs, n).tobytes()


class TestPrepareTrial:
    def test_end_to_end_shape_and_label(self):
        tr = ramp_trial(n=180, rate=120.0)
        fm = prepare_trial(tr, FeatureSet.parse("all"))
        assert fm.shape == (64, 12)
        assert fm.dtype == np.float64

    def test_full_phase_duration(self):
        tr = ramp_trial(n=180, rate=120.0)
        cfg = PreprocConfig(duration=None)
        fm = prepare_trial(tr, FeatureSet.parse("py"), cfg=cfg)
        # pose descends linearly the whole trial; the grid must reach the
        # final height rather than stopping at the default 0.82 s window.
        assert fm[-1, 0] == pytest.approx(tr.pose[-1, 2], abs=1e-6)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocConfig(threshold=-1.0)
        with pytest.raises(ValueError):
            PreprocConfig(duration=0.0)
        with pytest.raises(ValueError):
            PreprocConfig(grid=1)

    @pytest.mark.parametrize("field", ["threshold", "hold", "duration"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_config_rejects_non_finite(self, field, value):
        # comparisons with NaN are false, so NaN must not slip past a bound
        with pytest.raises(ValueError):
            PreprocConfig(**{field: value})
