"""The batched HMM against the per-sequence code it replaced.

The oracle below is the straightforward implementation: one forward-backward
pass per sequence and one xi term per time step. The batched code must give
bitwise-equal log-likelihoods, predictions and trained parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptix.errors import DimensionMismatch, EmptyTrainingSet
from haptix.hmm import (
    VARIANCE_FLOOR,
    HmmModel,
    _init_params,
    _uniform_pi,
    baum_welch,
    forward_loglik,
    predict,
)


def oracle_logsumexp(a, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis, keepdims=True)) + m_safe
    if axis is None:
        return out.item()
    return np.squeeze(out, axis=axis)


def oracle_log_emissions(model_means, model_vars, obs):
    diff = obs[:, None, :] - model_means[None, :, :]
    quad = np.sum(diff * diff / model_vars[None, :, :], axis=2)
    logdet = np.sum(np.log(model_vars), axis=1)
    F = obs.shape[1]
    return -0.5 * (F * np.log(2.0 * np.pi) + logdet[None, :] + quad)


def oracle_forward_loglik(model, obs):
    x = np.asarray(obs, dtype=np.float64)
    lb = oracle_log_emissions(model.means, model.variances, x)
    with np.errstate(divide="ignore"):
        la = np.log(model.A)
        alpha = np.log(model.pi) + lb[0]
    for t in range(1, x.shape[0]):
        alpha = oracle_logsumexp(alpha[:, None] + la, axis=0) + lb[t]
    return float(oracle_logsumexp(alpha))


def oracle_forward_backward(la, lpi, lb):
    T, K = lb.shape
    alpha = np.empty((T, K))
    beta = np.zeros((T, K))
    alpha[0] = lpi + lb[0]
    for t in range(1, T):
        alpha[t] = oracle_logsumexp(alpha[t - 1][:, None] + la, axis=0) + lb[t]
    for t in range(T - 2, -1, -1):
        beta[t] = oracle_logsumexp(la + (lb[t + 1] + beta[t + 1])[None, :], axis=1)
    return alpha, beta, float(oracle_logsumexp(alpha[-1]))


def oracle_baum_welch(seqs, K, max_iter, tol, seed, estimate_pi):
    seqs = [np.asarray(s, dtype=np.float64) for s in seqs]
    F = seqs[0].shape[1]
    A, means, variances = _init_params(seqs, K, seed)
    pi = _uniform_pi(K)
    ll_prev = None
    for _ in range(max_iter):
        with np.errstate(divide="ignore"):
            la = np.log(A)
            lpi = np.log(pi)
        gamma_list = []
        A_num = np.zeros((K, K))
        pi_num = np.zeros(K)
        total_ll = 0.0
        for seq in seqs:
            lb = oracle_log_emissions(means, variances, seq)
            alpha, beta, ll = oracle_forward_backward(la, lpi, lb)
            total_ll += ll
            gamma = np.exp(alpha + beta - ll)
            gamma_list.append(gamma)
            pi_num += gamma[0]
            for t in range(seq.shape[0] - 1):
                A_num += np.exp(
                    alpha[t][:, None] + la + (lb[t + 1] + beta[t + 1])[None, :] - ll
                )
        if ll_prev is not None and abs(total_ll - ll_prev) <= tol * max(abs(ll_prev), 1e-12):
            break
        ll_prev = total_ll

        row = A_num.sum(axis=1)
        new_A = A.copy()
        nz = row > 1e-300
        new_A[nz] = A_num[nz] / row[nz, None]
        A = new_A
        if estimate_pi:
            pi = pi_num / pi_num.sum()
        occ = np.zeros(K)
        wsum = np.zeros((K, F))
        for seq, gamma in zip(seqs, gamma_list):
            occ += gamma.sum(axis=0)
            wsum += gamma.T @ seq
        safe_occ = np.maximum(occ, 1e-300)
        new_means = np.where(occ[:, None] > 1e-12, wsum / safe_occ[:, None], means)
        vsum = np.zeros((K, F))
        for seq, gamma in zip(seqs, gamma_list):
            diff = seq[:, None, :] - new_means[None, :, :]
            vsum += np.einsum("tk,tkf->kf", gamma, diff * diff)
        new_vars = np.where(occ[:, None] > 1e-12, vsum / safe_occ[:, None], variances)
        means = new_means
        variances = np.maximum(new_vars, VARIANCE_FLOOR)
    return A, pi, means, variances


@st.composite
def shapes(draw):
    """(N, T, K, F): mostly short sequences, a few as long as the 64-step grid."""
    T = draw(st.integers(1, 8) | st.sampled_from([17, 40, 64]), label="T")
    return (draw(st.integers(1, 12), label="N"), T,
            draw(st.integers(1, 4), label="K"), draw(st.integers(1, 3), label="F"))


def stochastic_rows(rng, rows, K, zeros):
    """Dirichlet rows; with `zeros`, some entries are exactly 0 (never a whole row)."""
    P = rng.dirichlet(np.ones(K), size=rows)
    if zeros and K > 1:
        mask = rng.random((rows, K)) < 0.4
        mask[np.arange(rows), rng.integers(0, K, size=rows)] = False
        P[mask] = 0.0
        P /= P.sum(axis=1, keepdims=True)
    return P


def draw_model(rng, K, F, zeros, far):
    sigma = rng.uniform(0.2, 2.0, size=(K, F))
    if far:
        # state means 50 sigma apart along every channel
        means = 50.0 * np.arange(K)[:, None] * sigma.max() + rng.normal(size=(1, F))
    else:
        means = rng.normal(0.0, 2.0, size=(K, F))
    return HmmModel(A=stochastic_rows(rng, K, K, zeros),
                    pi=stochastic_rows(rng, 1, K, zeros)[0],
                    means=means, variances=sigma ** 2)


def sample_obs(rng, model, N, T):
    """Observations emitted along random state paths (uniform, so paths may
    go through transitions that A forbids)."""
    states = rng.integers(0, model.K, size=(N, T))
    noise = rng.standard_normal((N, T, model.F)) * np.sqrt(model.variances[states])
    return model.means[states] + noise


class TestForwardLoglikOracle:
    @settings(max_examples=150, deadline=None)
    @given(shapes(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_single_and_batched_equal_oracle(self, shape, zeros, far, seed):
        N, T, K, F = shape
        rng = np.random.default_rng(seed)
        model = draw_model(rng, K, F, zeros, far)
        X = sample_obs(rng, model, N, T)
        want = np.array([oracle_forward_loglik(model, x) for x in X])
        got = forward_loglik(model, X)
        assert got.shape == (N,)
        assert np.array_equal(got, want)
        single = forward_loglik(model, X[0])
        assert isinstance(single, float)
        assert np.array_equal(single, want[0])

    def test_underflowing_sequence_stays_minus_inf_alone(self):
        # Every emission of the second sequence's last step underflows to
        # -inf; the first sequence in the same batch must not be touched.
        model = HmmModel(A=np.array([[1.0, 0.0], [0.5, 0.5]]),
                         pi=np.array([0.0, 1.0]),
                         means=np.array([[0.0], [3.0]]),
                         variances=np.ones((2, 1)))
        X = np.array([[[3.0], [0.0], [0.1]], [[3.0], [0.0], [1e200]]])
        with np.errstate(over="ignore"):
            got = forward_loglik(model, X)
            want = [oracle_forward_loglik(model, x) for x in X]
        assert np.array_equal(got, want)
        assert np.isfinite(got[0]) and got[1] == -np.inf

    def test_batch_channel_mismatch(self):
        model = draw_model(np.random.default_rng(0), 2, 2, False, False)
        with pytest.raises(DimensionMismatch):
            forward_loglik(model, np.zeros((3, 4, 3)))


class TestPredictOracle:
    @settings(max_examples=60, deadline=None)
    @given(shapes(), st.integers(1, 4), st.booleans(), st.integers(0, 2**32 - 1))
    def test_argmax_of_oracle_first_label_wins_ties(self, shape, n_labels, tie,
                                                    seed):
        N, T, K, F = shape
        rng = np.random.default_rng(seed)
        models = [draw_model(rng, K, F, bool(rng.integers(2)), False)
                  for _ in range(n_labels)]
        if tie:
            models.append(models[-1])
        labels = {f"label{i}": m for i, m in enumerate(models)}
        X = sample_obs(rng, models[0], N, T)
        want = [int(np.argmax([oracle_forward_loglik(m, x) for m in models]))
                for x in X]
        got = predict(labels, X)
        assert got.dtype == np.int64
        assert got.tolist() == want

    def test_rejects_single_sequence(self):
        model = {"a": draw_model(np.random.default_rng(1), 1, 1, False, False)}
        with pytest.raises(ValueError):
            predict(model, np.zeros((4, 1)))


class TestBaumWelchOracle:
    @settings(max_examples=80, deadline=None)
    @given(shapes(), st.integers(1, 5), st.one_of(st.none(), st.integers(0, 99)),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_parameters_equal_oracle(self, shape, max_iter, init_seed,
                                     estimate_pi, far, seed):
        N, T, K, F = shape
        rng = np.random.default_rng(seed)
        source = draw_model(rng, int(rng.integers(1, 5)), F,
                            bool(rng.integers(2)), far)
        X = sample_obs(rng, source, N, T)
        want = oracle_baum_welch(list(X), K, max_iter, 0.0, init_seed, estimate_pi)
        for trials in (X, list(X)):
            got = baum_welch(trials, K=K, max_iter=max_iter, tol=0.0,
                             seed=init_seed, estimate_pi=estimate_pi)
            for name, w in zip(("A", "pi", "means", "variances"), want):
                assert np.array_equal(getattr(got, name), w), name

    def test_default_tol_stops_at_the_oracle_iteration(self):
        rng = np.random.default_rng(8)
        source = draw_model(rng, 3, 2, True, False)
        X = sample_obs(rng, source, 10, 64)
        want = oracle_baum_welch(list(X), 3, 100, 1e-4, None, False)
        got = baum_welch(X, K=3)
        for name, w in zip(("A", "pi", "means", "variances"), want):
            assert np.array_equal(getattr(got, name), w), name

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match=r"lengths \[5, 6\]"):
            baum_welch([np.zeros((5, 1)), np.zeros((6, 1)), np.zeros((5, 1))], K=2)

    def test_batched_input_validation(self):
        with pytest.raises(EmptyTrainingSet):
            baum_welch(np.zeros((0, 4, 2)), K=2)
        with pytest.raises(ValueError):
            baum_welch([np.zeros((2, 4, 1))], K=2)
