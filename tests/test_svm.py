import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from haptix import svm
from haptix.core import ITEM_ORDER
from haptix.errors import DimensionMismatch, SingleClassData
from haptix.evaluation import CLASS_LABELS
from haptix.svm import (
    SvmModel,
    _flat_rows,
    from_dict,
    hinge_objective,
    predict_svm,
    to_dict,
    train_svm,
)


def blobs(rng, centers, per_class=20, spread=0.4):
    """Gaussian blobs; y holds each row's index into the keys of centers."""
    X, y = [], []
    for k, c in enumerate(centers.values()):
        X.append(rng.normal(c, spread, size=(per_class, len(c))))
        y.extend([k] * per_class)
    return np.concatenate(X), y


class TestFlatten:
    def test_column_major_layout(self):
        values = np.array([[[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]])
        vec = _flat_rows(values)[0]
        np.testing.assert_array_equal(vec, [1, 2, 3, 4, 5, 6])
        # element G*j + i is grid step i of channel j
        G = values.shape[1]
        for i in range(3):
            for j in range(2):
                assert vec[G * j + i] == values[0, i, j]

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(3, 64, 5))
        rows = _flat_rows(values)
        assert rows.shape == (3, 5 * 64)
        for n in range(3):
            np.testing.assert_array_equal(rows[n], values[n].T.ravel())
            np.testing.assert_array_equal(rows[n].reshape(5, 64).T, values[n])


class TestHingeObjective:
    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(17, 4))
        ybin = np.where(rng.random(17) < 0.5, 1.0, -1.0)
        w = rng.normal(size=4)
        b = 0.3
        C = 2.5
        total = 0.0
        for i in range(17):
            total += max(0.0, 1.0 - ybin[i] * (float(X[i] @ w) + b))
        expected = total / 17 + float(w @ w) / (2 * C * 17)
        assert hinge_objective(w, b, X, ybin, C) == pytest.approx(expected,
                                                                  rel=1e-12)

    def test_zero_weights_cost_one(self):
        X = np.zeros((5, 2))
        ybin = np.ones(5)
        assert hinge_objective(np.zeros(2), 0.0, X, ybin, 1.0) == 1.0


class TestTraining:
    def test_separable_two_class(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng, {"a": (2.0, 2.0), "b": (-2.0, -2.0)})
        model, hist = train_svm(X, y, ("a", "b"), C=1.0, epochs=50, seed=0,
                                return_history=True)
        assert list(predict_svm(model, X)) == y
        for c in ("a", "b"):
            assert hist[c][-1] < hist[c][0]
            assert hist[c][-1] < 0.5

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        X, y = blobs(rng, {0: (1.5, 0.0), 1: (-1.5, 0.0)}, per_class=10)
        a = train_svm(X, y, (0, 1), epochs=20, seed=7)
        b = train_svm(X, y, (0, 1), epochs=20, seed=7)
        c = train_svm(X, y, (0, 1), epochs=20, seed=8)
        np.testing.assert_array_equal(a.W, b.W)
        np.testing.assert_array_equal(a.b, b.b)
        assert not np.array_equal(a.W, c.W)

    def test_near_optimal_objective(self):
        # Independent check of the optimizer itself: the trained per-class
        # objective must come close to a general-purpose minimizer's value.
        rng = np.random.default_rng(4)
        X, y = blobs(rng, {0: (1.0, 0.5), 1: (-1.0, -0.5)}, per_class=15,
                     spread=0.8)
        C = 2.0
        model = train_svm(X, y, (0, 1), C=C, epochs=400, seed=0)
        ybin = np.where(np.array(y) == 0, 1.0, -1.0)
        ours = hinge_objective(model.W[0], float(model.b[0]), X, ybin, C)

        def f(p):
            return hinge_objective(p[:2], p[2], X, ybin, C)

        ref = min(
            optimize.minimize(f, x0, method="Powell").fun
            for x0 in (np.zeros(3), np.array([1.0, 0.5, 0.0]))
        )
        assert ours <= ref * 1.2 + 1e-3

    def test_four_class_compliance_labels(self):
        rng = np.random.default_rng(5)
        centers = dict(zip(CLASS_LABELS, [(3.0, 0.0), (0.0, 3.0),
                                          (-3.0, 0.0), (0.0, -3.0)]))
        X, y = blobs(rng, centers, per_class=15)
        model = train_svm(X, y, CLASS_LABELS, epochs=60, seed=1)
        assert model.classes == CLASS_LABELS
        assert np.mean(predict_svm(model, X) == y) >= 0.95

    def test_explicit_class_order_respected(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng, {"b": (-2.0, 0.0), "a": (2.0, 0.0)}, per_class=8)
        model = train_svm(X, y, ("b", "a"), epochs=30)
        assert model.classes == ("b", "a")
        # indices point into model.classes
        assert list(predict_svm(model, np.array([[-2.0, 0.0], [2.0, 0.0]]))) == [0, 1]

    def test_single_class_rejected(self):
        X = np.zeros((4, 2))
        with pytest.raises(SingleClassData):
            train_svm(X, [0, 0, 0, 0], ("a", "b"))

    def test_parameter_validation(self):
        X = np.eye(2)
        y = [0, 1]
        with pytest.raises(ValueError):
            train_svm(X, y, ("a", "b"), C=0.0)
        with pytest.raises(ValueError):
            train_svm(X, y, ("a", "b"), epochs=0)
        with pytest.raises(ValueError):
            train_svm(X, [0], ("a", "b"))
        with pytest.raises(ValueError):
            train_svm(X, [0, 2], ("a", "b"))

    def test_label_outside_classes_rejected(self):
        for y in ([0, 1, 2], [-1, 0, 1]):
            with pytest.raises(ValueError, match="label indices"):
                train_svm(np.eye(3), y, ("a", "b"))


def per_row_argmax(model, X):
    """The per-row prediction predict_svm replaced: argmax(W @ x + b) of each
    row on its own."""
    return [int(np.argmax(model.W @ x + model.b)) for x in X]


class TestPredict:
    def test_tie_breaks_to_first_class(self):
        model = SvmModel(W=np.zeros((4, 2)), b=np.zeros(4), C=1.0,
                         classes=CLASS_LABELS)
        assert list(predict_svm(model, np.ones((3, 2)))) == [0, 0, 0]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 40), d=st.integers(1, 300), c=st.integers(2, 12),
           exact=st.booleans(), zero=st.booleans(), seed=st.integers(0, 2**16))
    @example(n=5, d=3, c=4, exact=False, zero=True, seed=0)
    def test_matches_per_row_argmax(self, n, d, c, exact, zero, seed):
        """One product picks each row's class as the per-row scores did.
        Small integers make the scores exact, so ties are common and must go
        to the first class; zero weights tie every class and give index 0."""
        rng = np.random.default_rng(seed)
        if exact:
            W, b = rng.integers(-2, 3, (c, d)), rng.integers(-2, 3, c)
            X = rng.integers(-2, 3, (n, d))
        else:
            W, b, X = rng.normal(size=(c, d)), rng.normal(size=c), rng.normal(size=(n, d))
        if zero:
            W, b = np.zeros((c, d)), np.zeros(c)
        model = SvmModel(W=W, b=b, C=1.0, classes=tuple(range(c)))
        got = predict_svm(model, X)
        assert got.dtype == np.int64 and got.shape == (n,)
        assert list(got) == per_row_argmax(model, X)
        if zero:
            assert not got.any()

    def test_positive_score_scaling_keeps_argmax(self):
        rng = np.random.default_rng(8)
        model = SvmModel(W=rng.normal(size=(4, 3)), b=rng.normal(size=4),
                         C=1.0, classes=CLASS_LABELS)
        for alpha in (0.01, 1.0, 250.0):
            scaled = SvmModel(W=alpha * model.W, b=alpha * model.b, C=1.0,
                              classes=CLASS_LABELS)
            X = rng.normal(size=(20, 3))
            np.testing.assert_array_equal(predict_svm(model, X),
                                          predict_svm(scaled, X))

    def test_rejects_feature_matrix(self):
        # flattened (N, D) rows only; (N, G, F) tensors go through svm.predict
        model = SvmModel(W=np.eye(2, 8), b=np.zeros(2), C=1.0,
                         classes=("a", "b"))
        for x in (np.ones((1, 4, 2)), np.ones(8)):
            with pytest.raises(DimensionMismatch):
                predict_svm(model, x)
        assert list(svm.predict(model, np.ones((1, 4, 2)))) == [0]

    def test_dimension_mismatch(self):
        model = SvmModel(W=np.zeros((2, 3)), b=np.zeros(2), C=1.0,
                         classes=("a", "b"))
        with pytest.raises(DimensionMismatch):
            predict_svm(model, np.zeros((1, 4)))


class TestSerialization:
    def test_compliance_classes_stored_as_labels(self):
        model = SvmModel(W=np.ones((4, 2)), b=np.zeros(4), C=1.0,
                         classes=CLASS_LABELS)
        d = to_dict(model)
        assert d["kind"] == "svm"
        assert d["classes"] == ["hard-skin", "hard", "medium", "soft"]
        back = from_dict(json.loads(json.dumps(d)))
        assert back.classes == CLASS_LABELS
        np.testing.assert_array_equal(back.W, model.W)

    @pytest.mark.parametrize("labels", [CLASS_LABELS, ITEM_ORDER],
                             ids=["classes", "items"])
    def test_fitted_classes_round_trip(self, labels):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2 * len(labels), 4, 2))
        y = np.arange(len(X)) % len(labels)
        m = svm.fit(X, y, labels, 0, {"epochs": 2})
        back = svm.from_dict(json.loads(json.dumps(svm.to_dict(m))))
        assert back.classes == m.classes == labels
        assert all(type(c) is str for c in back.classes)

    def test_plain_labels_survive(self):
        model = SvmModel(W=np.ones((2, 2)), b=np.zeros(2), C=0.5,
                         classes=("a", "b"), channel_names=("fx", "fz"))
        back = from_dict(to_dict(model))
        assert back.classes == ("a", "b")
        assert back.channel_names == ("fx", "fz")
        assert back.C == 0.5

    def test_file_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        model = SvmModel(W=rng.normal(size=(4, 6)), b=rng.normal(size=4),
                         C=1.5, classes=CLASS_LABELS)
        p = tmp_path / "svm.json"
        p.write_text(json.dumps(to_dict(model)))
        back = from_dict(json.loads(p.read_text()))
        np.testing.assert_array_equal(back.W, model.W)
        np.testing.assert_array_equal(back.b, model.b)
