import itertools
import json
import math

import numpy as np
import pytest
from scipy import stats as sps

from haptix.core import CLASS_ORDER, ComplianceClass, class_index
from haptix.errors import DimensionMismatch, EmptyTrainingSet, MissingClass
from haptix.hmm import (
    VARIANCE_FLOOR,
    HmmModel,
    baum_welch,
    fit,
    forward_loglik,
    from_dict,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
    to_dict,
)
from haptix.evaluation import fit_model

CLASS_LABELS = tuple(c.label for c in CLASS_ORDER)


def random_model(rng, K, F):
    return HmmModel(
        A=rng.dirichlet(np.ones(K), size=K),
        pi=rng.dirichlet(np.ones(K)),
        means=rng.normal(0.0, 2.0, size=(K, F)),
        variances=rng.uniform(0.3, 2.0, size=(K, F)),
    )


def brute_force_loglik(model, obs):
    """Sum P(O, path) over every state path, with scipy densities."""
    x = np.asarray(obs, dtype=float)
    T = x.shape[0]
    dens = np.empty((T, model.K))
    for k in range(model.K):
        dens[:, k] = np.prod(
            sps.norm.pdf(x, loc=model.means[k], scale=np.sqrt(model.variances[k])),
            axis=1,
        )
    total = 0.0
    for path in itertools.product(range(model.K), repeat=T):
        p = model.pi[path[0]] * dens[0, path[0]]
        for t in range(1, T):
            p *= model.A[path[t - 1], path[t]] * dens[t, path[t]]
        total += p
    return math.log(total)


def total_loglik(model, seqs):
    return sum(forward_loglik(model, s) for s in seqs)


def two_phase_sequences(rng, n=6, T=16, lo=0.0, hi=5.0, noise=0.01):
    """Constant-block sequences that switch from lo to hi halfway through."""
    seqs = []
    for _ in range(n):
        base = np.concatenate([np.full(T // 2, lo), np.full(T - T // 2, hi)])
        seqs.append((base + noise * rng.standard_normal(T)).reshape(-1, 1))
    return seqs


class TestHmmModel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            HmmModel(A=np.array([[0.5, 0.4], [0.5, 0.5]]),
                     pi=np.array([0.5, 0.5]),
                     means=np.zeros((2, 1)), variances=np.ones((2, 1)))

    def test_rejects_negative_probabilities(self):
        with pytest.raises(ValueError):
            HmmModel(A=np.array([[1.2, -0.2], [0.5, 0.5]]),
                     pi=np.array([0.5, 0.5]),
                     means=np.zeros((2, 1)), variances=np.ones((2, 1)))

    def test_rejects_variances_below_floor(self):
        with pytest.raises(ValueError):
            HmmModel(A=np.array([[1.0]]), pi=np.array([1.0]),
                     means=np.zeros((1, 1)),
                     variances=np.full((1, 1), VARIANCE_FLOOR / 10))

    def test_parameters_read_only(self):
        m = random_model(np.random.default_rng(0), 2, 1)
        with pytest.raises(ValueError):
            m.A[0, 0] = 0.9


class TestForwardLoglik:
    def test_single_step_single_state_closed_form(self):
        m = HmmModel(A=np.array([[1.0]]), pi=np.array([1.0]),
                     means=np.zeros((1, 1)), variances=np.ones((1, 1)))
        ll = forward_loglik(m, np.zeros((1, 1)))
        assert ll == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            K = int(rng.integers(1, 4))
            F = int(rng.integers(1, 4))
            T = int(rng.integers(1, 7))
            m = random_model(rng, K, F)
            obs = rng.normal(0.0, 2.0, size=(T, F))
            ours = forward_loglik(m, obs)
            ref = brute_force_loglik(m, obs)
            assert abs(ours - ref) / max(abs(ref), 1e-12) < 1e-9

    def test_longer_observation_cannot_gain_likelihood(self):
        # With every emission density bounded by 1 (variance >= 1/(2pi)),
        # each extra row multiplies P(O) by something <= 1.
        rng = np.random.default_rng(5)
        for _ in range(20):
            K, F = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            m = HmmModel(
                A=rng.dirichlet(np.ones(K), size=K),
                pi=rng.dirichlet(np.ones(K)),
                means=rng.normal(0.0, 1.0, size=(K, F)),
                variances=rng.uniform(1.0 / (2 * math.pi), 2.0, size=(K, F)),
            )
            obs = rng.normal(0.0, 1.0, size=(6, F))
            assert forward_loglik(m, obs) <= forward_loglik(m, obs[:5]) + 1e-9

    def test_accepts_feature_matrix(self, tiny_fms):
        m = random_model(np.random.default_rng(1), 2, 1)
        X, _ = tiny_fms
        assert math.isfinite(forward_loglik(m, X[0]))

    def test_channel_mismatch(self):
        m = random_model(np.random.default_rng(1), 2, 2)
        with pytest.raises(DimensionMismatch):
            forward_loglik(m, np.zeros((4, 3)))


class TestBaumWelch:
    def test_likelihood_never_decreases(self):
        rng = np.random.default_rng(2)
        seqs = two_phase_sequences(rng, n=5, T=14, noise=0.4)
        for seed in (None, 0, 1, 2, 3):
            lls = []
            for m in range(1, 9):
                model = baum_welch(seqs, K=2, max_iter=m, tol=0.0, seed=seed)
                lls.append(total_loglik(model, seqs))
            for a, b in zip(lls, lls[1:]):
                assert b >= a - 1e-8 * max(1.0, abs(a))

    def test_single_state_recovers_pooled_moments(self):
        rng = np.random.default_rng(3)
        seqs = [rng.normal(1.5, 0.7, size=(20, 2)) for _ in range(4)]
        model = baum_welch(seqs, K=1)
        pooled = np.concatenate(seqs, axis=0)
        np.testing.assert_allclose(model.means[0], pooled.mean(axis=0),
                                   atol=1e-10)
        np.testing.assert_allclose(model.variances[0], pooled.var(axis=0),
                                   atol=1e-10)
        np.testing.assert_allclose(model.A, [[1.0]])

    def test_separates_two_phases(self):
        rng = np.random.default_rng(4)
        seqs = two_phase_sequences(rng)
        model = baum_welch(seqs, K=2, max_iter=50)
        means = np.sort(model.means[:, 0])
        assert means[0] == pytest.approx(0.0, abs=0.05)
        assert means[1] == pytest.approx(5.0, abs=0.05)

    def test_pi_stays_uniform_by_default(self):
        rng = np.random.default_rng(5)
        model = baum_welch(two_phase_sequences(rng), K=2, max_iter=10)
        np.testing.assert_allclose(model.pi, 0.5)

    def test_estimate_pi_concentrates_on_start_state(self):
        rng = np.random.default_rng(6)
        model = baum_welch(two_phase_sequences(rng), K=2, max_iter=50,
                           estimate_pi=True)
        start = int(np.argmin(model.means[:, 0]))  # sequences start low
        assert model.pi[start] > 0.9
        assert model.pi.sum() == pytest.approx(1.0, abs=1e-9)

    def test_transition_rows_stay_stochastic(self):
        rng = np.random.default_rng(7)
        model = baum_welch(two_phase_sequences(rng), K=3, max_iter=30, seed=2)
        np.testing.assert_allclose(model.A.sum(axis=1), 1.0, atol=1e-9)

    def test_constant_data_hits_variance_floor(self):
        seqs = [np.full((10, 2), 4.0) for _ in range(3)]
        model = baum_welch(seqs, K=2, max_iter=5)
        np.testing.assert_allclose(model.variances, VARIANCE_FLOOR)

    def test_input_validation(self):
        with pytest.raises(EmptyTrainingSet):
            baum_welch([], K=2)
        with pytest.raises(DimensionMismatch):
            baum_welch([np.zeros((5, 1)), np.zeros((5, 2))], K=2)
        with pytest.raises(ValueError):
            baum_welch([np.zeros((5, 1))], K=0)


class TestClassifier:
    @staticmethod
    def _delta_classifier(centers):
        return {
            c.label: HmmModel(
                A=np.array([[1.0]]), pi=np.array([1.0]),
                means=np.array([[mu]]), variances=np.array([[0.5]]),
            )
            for c, mu in centers.items()
        }

    def test_picks_nearest_center(self):
        model = self._delta_classifier({
            ComplianceClass.HARD_SKIN: 9.0,
            ComplianceClass.HARD: 6.0,
            ComplianceClass.MEDIUM: 3.0,
            ComplianceClass.SOFT: 0.0,
        })
        obs = np.full((5, 1), 3.2)
        pred = predict(model, obs[None])
        assert CLASS_LABELS[pred[0]] == ComplianceClass.MEDIUM.label
        scores = {label: forward_loglik(m, obs) for label, m in model.items()}
        assert set(scores) == set(CLASS_LABELS)
        assert scores[ComplianceClass.MEDIUM.label] == max(scores.values())

    def test_exact_tie_goes_to_reporting_order(self):
        model = self._delta_classifier({c: 1.0 for c in CLASS_ORDER})
        pred = predict(model, np.zeros((1, 3, 1)))
        assert CLASS_LABELS[pred[0]] == ComplianceClass.HARD_SKIN.label

    def test_mixed_model_shapes_rejected(self):
        a = random_model(np.random.default_rng(0), 2, 1)
        b = random_model(np.random.default_rng(1), 3, 1)
        payload = json.loads(json.dumps(to_dict({"hard": a, "soft": b})))
        with pytest.raises(ValueError):
            from_dict(payload)

    def test_missing_class_rejected(self, tiny_fms):
        X, y = tiny_fms
        keep = y != class_index(ComplianceClass.SOFT)
        with pytest.raises(MissingClass, match="soft"):
            fit_model(X[keep], y[keep], CLASS_LABELS, 0,
                      {"kind": "hmm", "states": 2, "max_iter": 5})

    def test_unlabeled_matrix_rejected(self):
        with pytest.raises(ValueError):
            fit(np.zeros((1, 4, 1)), [], CLASS_LABELS, 0, {"states": 1})

    def test_self_classification_on_synthetic_features(self, tiny_fms):
        X, y = tiny_fms
        model = fit(X, y, CLASS_LABELS, 0, {"states": 2, "max_iter": 30})
        hits = np.sum(predict(model, X) == y)
        assert hits / len(y) >= 0.9


class TestSerialization:
    def test_model_dict_round_trip_exact(self):
        m = random_model(np.random.default_rng(12), 3, 2)
        back = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
        np.testing.assert_array_equal(back.A, m.A)
        np.testing.assert_array_equal(back.pi, m.pi)
        np.testing.assert_array_equal(back.means, m.means)
        np.testing.assert_array_equal(back.variances, m.variances)

    def test_classifier_file_round_trip(self, tmp_path, tiny_fms):
        X, y = tiny_fms
        model = fit(X, y, CLASS_LABELS, 0,
                    {"states": 2, "max_iter": 5, "channel_names": ("fz",)})
        p = tmp_path / "hmm.json"
        save_model(model, p)
        assert json.loads(p.read_text())["kind"] == "hmm"
        back = from_dict(json.loads(p.read_text()))
        assert set(back) == set(model)
        for label in model:
            np.testing.assert_array_equal(back[label].means,
                                          model[label].means)
            assert back[label].channel_names == model[label].channel_names
            assert back[label].channel_names == ("fz",)
