import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import haptix
from conftest import ramp_trial
from haptix.core import ComplianceClass, class_index
from haptix.errors import DimensionMismatch, NonFiniteLoss
from haptix.nn import (
    LstmModel,
    TcnModel,
    TrainConfig,
    _batch_ce,
    _pool2,
    fit,
    from_dict,
    grad_check,
    save_loss_curve,
    to_dict,
    train,
)
from haptix.preprocess import FeatureSet, prepare_trial


def blob_features(rng, n_per_class=10, grid=16, channels=1, levels=(-1.0, 1.0)):
    """Constant-level matrices per class with mild noise; labels are ints."""
    data, labels = [], []
    for k, level in enumerate(levels):
        for _ in range(n_per_class):
            data.append(level + 0.1 * rng.standard_normal((grid, channels)))
            labels.append(k)
    return data, labels


class TestSoftmaxCrossEntropy:
    """_batch_ce, the loss training uses: mean softmax cross-entropy and
    its logits gradient, p - onehot(y) per row over the batch size."""

    @staticmethod
    def _probabilities(logits, y):
        loss, dlogits = _batch_ce(np.array([logits]), np.array([y]))
        p = dlogits[0].copy()
        p[y] += 1.0
        return loss, p

    def test_softmax_normalizes(self):
        _, p = self._probabilities([0.1, 0.5, -0.3], 0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0)

    def test_softmax_stable_for_large_logits(self):
        loss, p = self._probabilities([1000.0, 0.0], 0)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_cross_entropy_value(self):
        loss, _ = self._probabilities(np.log([0.2, 0.5, 0.3]), 1)
        assert loss == pytest.approx(-math.log(0.5))

    def test_cross_entropy_clamps_zero(self):
        loss, _ = self._probabilities([-1e4, 0.0], 0)
        assert loss == pytest.approx(-math.log(1e-12))


class TestTcnStructure:
    def test_parameter_shapes(self):
        m = TcnModel(in_channels=3, n_classes=4, channels=8, depth=2,
                     kernel=5, grid=32)
        assert m.params["conv0_W"].shape == (8, 5, 3)
        assert m.params["conv1_W"].shape == (8, 5, 8)
        assert m.flat_dim == (32 // 4) * 8
        assert m.params["head_W"].shape == (4, m.flat_dim)

    def test_depth_zero_flattens_input(self):
        m = TcnModel(in_channels=2, n_classes=3, depth=0, grid=16)
        assert m.flat_dim == 32
        assert set(m.params) == {"head_W", "head_b"}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TcnModel(in_channels=1, kernel=4)
        with pytest.raises(ValueError):
            TcnModel(in_channels=1, grid=60, depth=4)
        with pytest.raises(ValueError):
            TcnModel(in_channels=1, depth=-1)

    def test_input_shape_checked(self):
        m = TcnModel(in_channels=2, grid=16, depth=1, channels=4)
        with pytest.raises(DimensionMismatch):
            m.forward(np.zeros((16, 3)))
        with pytest.raises(DimensionMismatch):
            m.forward(np.zeros((8, 2)))


class TestTcnForward:
    def test_conv_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        m = TcnModel(in_channels=3, channels=4, depth=1, kernel=5, grid=16,
                     seed=1)
        x = rng.standard_normal((2, 16, 3))
        _, z = m._conv(0, x)
        W, b = m.params["conv0_W"], m.params["conv0_b"]
        pad = 2
        xpad = np.zeros((2, 16 + 2 * pad, 3))
        xpad[:, pad:pad + 16] = x
        for bi in range(2):
            for t in range(16):
                for co in range(4):
                    ref = b[co]
                    for k in range(5):
                        for c in range(3):
                            ref += xpad[bi, t + k, c] * W[co, k, c]
                    assert z[bi, t, co] == pytest.approx(ref, abs=1e-12)

    def test_delta_kernel_passes_input_through(self):
        m = TcnModel(in_channels=1, channels=1, depth=1, kernel=3, grid=8,
                     seed=0)
        m.params["conv0_W"][:] = 0.0
        m.params["conv0_W"][0, 1, 0] = 1.0  # center tap only
        m.params["conv0_b"][:] = 0.0
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(1, 8, 1))  # positive: ReLU inert
        _, (_caches, flat, _h, _shape) = m._forward(x)
        np.testing.assert_allclose(m._conv(0, x)[1], x, atol=1e-15)
        # width-2 max pooling of the identity map
        expected = x.reshape(1, 4, 2).max(axis=2)
        np.testing.assert_allclose(flat, expected, atol=1e-15)

    def test_single_matrix_gives_vector_logits(self):
        m = TcnModel(in_channels=2, channels=4, depth=2, grid=16)
        out = m.forward(np.zeros((16, 2)))
        assert out.shape == (4,)
        batch = m.forward(np.zeros((3, 16, 2)))
        assert batch.shape == (3, 4)

    def test_forward_accepts_feature_matrix(self):
        m = TcnModel(in_channels=2, channels=4, depth=1, grid=64)
        fm = prepare_trial(ramp_trial(n=180), FeatureSet.parse("fx+fz"))
        assert m.forward(fm).shape == (4,)


class TestTcnPooling:
    """Width-2 max pooling picks the element argmax picks."""

    @staticmethod
    def pool_pair(a, b):
        out, won = _pool2(np.array([[[a], [b]]]))
        return out[0, 0, 0], list(won.ravel())

    def test_equal_positive_pair_takes_first(self):
        out, won = self.pool_pair(2.5, 2.5)
        assert out == 2.5 and won == [True, False]

    def test_negative_zero_first_is_kept(self):
        out, won = self.pool_pair(-0.0, 0.0)
        assert out == 0.0 and np.signbit(out) and won == [True, False]
        out, won = self.pool_pair(0.0, -0.0)
        assert out == 0.0 and not np.signbit(out) and won == [True, False]

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (1.0, math.nan),
                                      (math.nan, math.nan), (math.inf, math.nan),
                                      (math.nan, -math.inf)])
    def test_nan_propagates(self, a, b):
        out, won = self.pool_pair(a, b)
        assert np.isnan(out)
        assert won[1] == (np.array([a, b]).argmax() == 1)

    def test_matches_argmax_on_special_values(self):
        values = [-math.inf, -1.0, -0.0, 0.0, 1.0, math.inf, math.nan]
        a, b = np.array([(a, b) for a in values for b in values]).T
        r = np.stack([a, b], axis=1).reshape(1, -1, 1)  # pairs along time
        v = r.reshape(1, len(a), 2, 1)
        idx = v.argmax(axis=2)
        expected = np.take_along_axis(v, idx[:, :, None, :], axis=2)[:, :, 0, :]
        out, won = _pool2(r)
        assert np.array_equal(won.reshape(v.shape)[:, :, 1], idx == 1)
        assert np.array_equal(won.reshape(v.shape)[:, :, 0], idx == 0)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("second, ratio", [(2.0, 0.5), (3.0, 2.5)])
    def test_gradient_goes_to_the_winner(self, second, ratio):
        # z = 2 * x[:, 0]; x[:, 1] is unseen and tells the two steps apart
        m = TcnModel(in_channels=2, n_classes=2, channels=1, depth=1, kernel=1,
                     grid=2, seed=0)
        m.params["conv0_W"][:] = [[[2.0, 0.0]]]
        m.params["head_W"][:] = [[1.0], [-1.0]]
        x = np.array([[1.0, 0.5], [second / 2.0, 2.5 * second / 2.0]])
        _, grads = m.loss_and_grads(x, [1])
        gW = grads["conv0_W"][0, 0]
        assert gW[0] != 0.0 and gW[1] / gW[0] == ratio


class TestLstmStructure:
    def test_parameter_shapes_and_forget_bias(self):
        m = LstmModel(in_channels=3, n_classes=4, hidden=6, layers=2)
        assert m.params["l0_Wx"].shape == (24, 3)
        assert m.params["l1_Wx"].shape == (24, 6)
        assert m.params["l0_Wh"].shape == (24, 6)
        b = m.params["l0_b"]
        np.testing.assert_array_equal(b[6:12], 1.0)   # forget gate opened
        np.testing.assert_array_equal(b[:6], 0.0)
        np.testing.assert_array_equal(b[12:], 0.0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LstmModel(in_channels=1, layers=0)
        with pytest.raises(ValueError):
            LstmModel(in_channels=1, hidden=0)

    def test_channel_check(self):
        m = LstmModel(in_channels=2, hidden=4, layers=1)
        with pytest.raises(DimensionMismatch):
            m.forward(np.zeros((10, 3)))


class TestLstmForward:
    def test_matches_unrolled_recurrence(self):
        m = LstmModel(in_channels=2, n_classes=3, hidden=3, layers=2, seed=2)
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))

        inp = x
        H = 3
        for layer in range(2):
            Wx = m.params[f"l{layer}_Wx"]
            Wh = m.params[f"l{layer}_Wh"]
            b = m.params[f"l{layer}_b"]
            h = np.zeros(H)
            c = np.zeros(H)
            hs = []
            for t in range(6):
                a = Wx @ inp[t] + Wh @ h + b
                i, f = expit(a[:H]), expit(a[H:2 * H])
                g, o = np.tanh(a[2 * H:3 * H]), expit(a[3 * H:])
                c = f * c + i * g
                h = o * np.tanh(c)
                hs.append(h)
            inp = np.asarray(hs)
        ref = m.params["head_W"] @ np.maximum(inp[-1], 0.0) + m.params["head_b"]
        np.testing.assert_allclose(m.forward(x), ref, atol=1e-10)

    def test_saturated_input_gate_freezes_cell(self):
        m = LstmModel(in_channels=1, n_classes=2, hidden=4, layers=1, seed=0)
        m.params["l0_b"][:4] = -10.0  # input gate ~ 0 regardless of data
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 20, 1))
        _, (caches, *_r) = m._forward(x)
        final_cell = caches[0][2][-1]  # cs, time-major: (T, B, H)
        assert np.all(np.abs(final_cell) < 0.01)

    def test_per_step_head_averages_steps(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 2))
        last = LstmModel(in_channels=2, hidden=4, layers=1, seed=1)
        avg = LstmModel(in_channels=2, hidden=4, layers=1, seed=1,
                        per_step=True)
        assert avg.forward(x).shape == (4,)
        assert not np.allclose(avg.forward(x), last.forward(x))


class TestGradients:
    def test_tcn_gradients(self):
        rng = np.random.default_rng(6)
        m = TcnModel(in_channels=2, n_classes=4, channels=4, depth=2,
                     kernel=3, grid=16, seed=3)
        x = rng.standard_normal((16, 2))
        assert grad_check(m, (x, 1), n_coords=250, seed=0) < 1e-4

    def test_linear_only_gradients(self):
        rng = np.random.default_rng(7)
        m = TcnModel(in_channels=2, n_classes=3, depth=0, grid=16, seed=4)
        x = rng.standard_normal((16, 2))
        assert grad_check(m, (x, 2), seed=1) < 1e-6

    def test_lstm_gradients(self):
        rng = np.random.default_rng(8)
        m = LstmModel(in_channels=2, n_classes=4, hidden=6, layers=2, seed=5)
        x = rng.standard_normal((12, 2))
        assert grad_check(m, (x, 0), n_coords=250, seed=2) < 1e-4

    def test_lstm_per_step_gradients(self):
        rng = np.random.default_rng(9)
        m = LstmModel(in_channels=2, n_classes=3, hidden=5, layers=1, seed=6,
                      per_step=True)
        x = rng.standard_normal((10, 2))
        assert grad_check(m, (x, 1), seed=3) < 1e-4

    def test_accepts_labeled_feature_matrix(self):
        m = TcnModel(in_channels=1, n_classes=4, channels=4, depth=1, grid=16)
        fm = np.random.default_rng(10).standard_normal((16, 1))
        assert grad_check(m, (fm, class_index(ComplianceClass.MEDIUM))) < 1e-4

    def test_eps_range_enforced(self):
        m = TcnModel(in_channels=1, depth=0, grid=16)
        sample = (np.zeros((16, 1)), 0)
        with pytest.raises(ValueError):
            grad_check(m, sample, eps=1e-7)
        with pytest.raises(ValueError):
            grad_check(m, sample, eps=1e-3)


class TestTraining:
    def test_tcn_loss_decreases_and_separates(self):
        rng = np.random.default_rng(11)
        data, labels = blob_features(rng)
        m = TcnModel(in_channels=1, n_classes=2, channels=4, depth=2,
                     kernel=3, grid=16, seed=0)
        cfg = TrainConfig(epochs=30, learning_rate=1e-2, batch_size=8, seed=0)
        m, curve = train(m, data, cfg, labels=labels)
        assert len(curve) == 30
        assert curve[-1] < curve[0]
        preds = m.predict(np.stack(data))
        assert np.mean(preds == np.asarray(labels)) >= 0.9

    def test_lstm_loss_decreases(self):
        rng = np.random.default_rng(12)
        data, labels = blob_features(rng, n_per_class=8)
        m = LstmModel(in_channels=1, n_classes=2, hidden=8, layers=1, seed=0)
        cfg = TrainConfig(epochs=20, learning_rate=1e-2, batch_size=8, seed=0)
        m, curve = train(m, data, cfg, labels=labels)
        assert curve[-1] < curve[0]

    def test_training_deterministic(self):
        rng = np.random.default_rng(13)
        data, labels = blob_features(rng, n_per_class=5)
        cfg = TrainConfig(epochs=5, seed=4)
        curves = []
        for _ in range(2):
            m = TcnModel(in_channels=1, n_classes=2, channels=4, depth=1,
                         kernel=3, grid=16, seed=9)
            _, curve = train(m, data, cfg, labels=labels)
            curves.append(curve)
        assert curves[0] == curves[1]

    def test_sgd_path(self):
        rng = np.random.default_rng(14)
        data, labels = blob_features(rng, n_per_class=5)
        m = TcnModel(in_channels=1, n_classes=2, depth=0, grid=16, seed=1)
        cfg = TrainConfig(epochs=10, learning_rate=0.05, optimizer="sgd",
                          seed=0)
        _, curve = train(m, data, cfg, labels=labels)
        assert curve[-1] < curve[0]

    def test_zero_learning_rate_freezes_parameters(self):
        rng = np.random.default_rng(15)
        data, labels = blob_features(rng, n_per_class=3)
        m = TcnModel(in_channels=1, n_classes=2, depth=0, grid=16, seed=2)
        before = {k: v.copy() for k, v in m.params.items()}
        train(m, data, TrainConfig(epochs=2, learning_rate=0.0), labels=labels)
        for k in before:
            np.testing.assert_array_equal(m.params[k], before[k])

    def test_unlabeled_matrices_rejected(self):
        fm = np.zeros((16, 1))
        m = TcnModel(in_channels=1, n_classes=2, depth=0, grid=16)
        with pytest.raises(TypeError):
            train(m, [fm], TrainConfig(epochs=1))
        with pytest.raises(ValueError):
            train(m, [fm], TrainConfig(epochs=1), labels=[])

    def test_exploding_loss_reported(self):
        rng = np.random.default_rng(17)
        data, labels = blob_features(rng, n_per_class=4)
        m = TcnModel(in_channels=1, n_classes=2, channels=4, depth=1,
                     kernel=3, grid=16, seed=3)
        cfg = TrainConfig(epochs=10, learning_rate=1e160, optimizer="sgd",
                          seed=0)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteLoss) as exc:
                train(m, data, cfg, labels=labels)
        assert exc.value.epoch >= 0

    @pytest.mark.parametrize("labels", [[-1] * 4 + [0] * 4, [0] * 4 + [2] * 4],
                             ids=["negative", "n_classes"])
    def test_out_of_range_labels_rejected_before_any_step(self, labels):
        rng = np.random.default_rng(19)
        data, _ = blob_features(rng, n_per_class=4)
        m = TcnModel(in_channels=1, n_classes=2, depth=0, grid=16, seed=4)
        before = {k: v.copy() for k, v in m.params.items()}
        with pytest.raises(ValueError, match=r"label indices must lie in \[0, 2\)"):
            train(m, data, TrainConfig(epochs=1), labels=labels)
        for k in before:
            np.testing.assert_array_equal(m.params[k], before[k])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        TrainConfig(learning_rate=0.0)  # frozen training is allowed


# Runs in a fresh interpreter, whose heap no other test has shaped: trains a
# network on B=32, T=64, F=12 batches and prints the mean minor page faults
# per `loss_and_grads` call after the first WARM_UP calls.
FAULT_PROBE = """
import resource, sys
import numpy as np
from haptix import nn
rng = np.random.default_rng(0)
X = rng.standard_normal((320, 64, 12))
model = nn.LstmModel(12) if sys.argv[1] == "lstm" else nn.TcnModel(12)
faults, step = [], model.loss_and_grads
def counted(x, y):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = step(x, y)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out
model.loss_and_grads = counted
nn.train(model, X, nn.TrainConfig(epochs=2), labels=rng.integers(0, 4, 320))
print(np.mean(faults[int(sys.argv[2]):]))
"""


class TestTrainingWorkspace:
    """`train` lends the model a workspace that its steps reuse, and takes
    it back however training ends."""

    WARM_UP = 5
    # With fresh arrays in every call the probe read 801 (TCN) and 1,629
    # (LSTM) faults per call; with the workspace, 0 for both.
    MAX_FAULTS_PER_CALL = 50
    # tracemalloc peak of the `fit` below with fresh arrays in every call,
    # rounded down to the kB (6.972 MB and 14.294-14.296 MB read); with the
    # workspace it read 6.302 MB (TCN) and 13.477 MB (LSTM).
    FRESH_ARRAY_FIT_PEAK = {"tcn": 6_972_000, "lstm": 14_293_000}

    def test_no_workspace_left_after_training(self):
        rng = np.random.default_rng(20)
        data, labels = blob_features(rng, n_per_class=4)
        m = LstmModel(in_channels=1, n_classes=2, hidden=4, layers=2, seed=0)
        train(m, data, TrainConfig(epochs=2, batch_size=3), labels=labels)
        assert "_ws" not in vars(m) and m._ws is None

    def test_no_workspace_left_after_non_finite_loss(self):
        rng = np.random.default_rng(17)
        data, labels = blob_features(rng, n_per_class=4)
        m = TcnModel(in_channels=1, n_classes=2, channels=4, depth=1,
                     kernel=3, grid=16, seed=3)
        cfg = TrainConfig(epochs=10, learning_rate=1e160, optimizer="sgd", seed=0)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteLoss):
            train(m, data, cfg, labels=labels)
        assert "_ws" not in vars(m) and m._ws is None

    @pytest.mark.parametrize("kind", ["lstm", "tcn"])
    def test_training_steps_take_no_fresh_pages(self, kind):
        src_dir = str(Path(haptix.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", FAULT_PROBE, kind, str(self.WARM_UP)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= self.MAX_FAULTS_PER_CALL

    @pytest.mark.parametrize("kind", ["lstm", "tcn"])
    def test_fit_peak_not_above_fresh_arrays(self, kind):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((80, 64, 12))
        y = rng.integers(0, 4, 80)
        tracemalloc.start()
        try:
            fit(X, y, ["a", "b", "c", "d"], 2, {"kind": kind, "epochs": 3})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.FRESH_ARRAY_FIT_PEAK[kind]


class TestSerialization:
    def test_tcn_round_trip_exact(self):
        m = TcnModel(in_channels=2, n_classes=3, channels=4, depth=2,
                     kernel=3, grid=16, seed=7)
        back = from_dict(to_dict(m))
        assert to_dict(back) == to_dict(m)
        for k, v in m.params.items():
            np.testing.assert_array_equal(back.params[k], v)

    def test_lstm_round_trip_preserves_per_step(self):
        m = LstmModel(in_channels=2, hidden=4, layers=2, seed=8, per_step=True)
        back = from_dict(to_dict(m))
        assert back.per_step
        for k, v in m.params.items():
            np.testing.assert_array_equal(back.params[k], v)

    def test_record_keys_keep_model_json_order(self):
        assert list(to_dict(TcnModel(in_channels=1, depth=1, grid=16))) == [
            "kind", "in_channels", "n_classes", "channels", "depth", "kernel",
            "grid", "params"]
        assert list(to_dict(LstmModel(in_channels=1, hidden=2))) == [
            "kind", "in_channels", "n_classes", "hidden", "layers", "per_step",
            "params"]

    @pytest.mark.parametrize("change", ["drop param", "drop layers", "extra param"])
    def test_record_must_match_its_architecture(self, change):
        d = to_dict(LstmModel(in_channels=2, hidden=4, layers=1, seed=8))
        if change == "drop param":
            del d["params"]["l0_b"]
        elif change == "drop layers":  # the default 2 layers would add l1_*
            del d["layers"]
        else:
            d["params"]["l1_b"] = d["params"]["l0_b"]
        with pytest.raises(ValueError, match="do not match the lstm architecture"):
            from_dict(d)

    @pytest.mark.parametrize("kind", ["gru", ["tcn"]])
    def test_unknown_kind_rejected(self, kind):
        d = dict(to_dict(LstmModel(in_channels=1, hidden=2)), kind=kind)
        with pytest.raises(ValueError, match="unknown model kind"):
            from_dict(d)

    def test_file_round_trip_preserves_predictions(self, tmp_path):
        rng = np.random.default_rng(18)
        m = TcnModel(in_channels=1, channels=4, depth=1, kernel=3, grid=16,
                     seed=9)
        x = rng.standard_normal((5, 16, 1))
        p = tmp_path / "tcn.json"
        p.write_text(json.dumps(to_dict(m)))
        back = from_dict(json.loads(p.read_text()))
        np.testing.assert_array_equal(back.predict(x), m.predict(x))

    def test_loss_curve_file(self, tmp_path):
        curve = [1.5, 0.75, 1.0 / 3.0]
        p = tmp_path / "curve.csv"
        save_loss_curve(curve, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            epoch, val = line.split(",")
            assert int(epoch) == i
            assert float(val) == curve[i]  # repr round-trips exactly
