"""Per-class generative hidden Markov models with diagonal-Gaussian emissions.

Forward likelihoods run entirely in log space, and each step of the
forward-backward recursion works on a whole batch of equal-length sequences.
Training is multi-sequence Baum-Welch with the initial state distribution
held uniform (it can be re-estimated behind a flag). The classifier
(`fit`/`predict`) keeps one model per label and picks the label whose model
maximizes the observation log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyTrainingSet

VARIANCE_FLOOR = 1e-6
_STOCHASTIC_TOL = 1e-9


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis, keepdims=True)) + m_safe
    return np.squeeze(out, axis=axis)


def _obs_values(obs) -> np.ndarray:
    arr = np.asarray(obs, dtype=np.float64)
    if arr.ndim not in (2, 3) or arr.shape[-2] < 1:
        raise ValueError(f"observations must be (T, F) or (N, T, F) with T >= 1, "
                         f"got {arr.shape}")
    return arr


@dataclass(frozen=True)
class HmmModel:
    """lambda = (A, pi, Gaussian emissions with diagonal covariance)."""

    A: np.ndarray          # (K, K) row-stochastic
    pi: np.ndarray         # (K,)
    means: np.ndarray      # (K, F)
    variances: np.ndarray  # (K, F), floored
    channel_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        A = np.array(self.A, dtype=np.float64)
        pi = np.array(self.pi, dtype=np.float64)
        means = np.array(self.means, dtype=np.float64)
        variances = np.array(self.variances, dtype=np.float64)
        K = A.shape[0]
        if A.shape != (K, K):
            raise ValueError(f"A must be square, got {A.shape}")
        if pi.shape != (K,) or means.ndim != 2 or means.shape[0] != K:
            raise ValueError("pi/means shapes inconsistent with A")
        if variances.shape != means.shape:
            raise ValueError("variances shape must match means")
        if np.any(A < 0) or np.any(pi < 0):
            raise ValueError("probabilities must be non-negative")
        if np.any(np.abs(A.sum(axis=1) - 1.0) > _STOCHASTIC_TOL):
            raise ValueError("rows of A must sum to 1")
        if abs(pi.sum() - 1.0) > _STOCHASTIC_TOL:
            raise ValueError("pi must sum to 1")
        if np.any(variances < VARIANCE_FLOOR * (1.0 - 1e-12)):
            raise ValueError(f"variances below floor {VARIANCE_FLOOR}")
        for arr in (A, pi, means, variances):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)
        if self.channel_names is not None:
            object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def F(self) -> int:
        return self.means.shape[1]


def _log_emissions(model_means, model_vars, obs: np.ndarray) -> np.ndarray:
    """(..., T, K) array of log N(obs_t; mu_k, diag var_k) for obs (..., T, F)."""
    quad = obs[..., :, None, :] - model_means
    quad *= quad
    quad /= model_vars
    quad = np.sum(quad, axis=-1)
    logdet = np.sum(np.log(model_vars), axis=1)
    F = obs.shape[-1]
    return -0.5 * (F * np.log(2.0 * np.pi) + logdet + quad)


def _forward(la, lpi, lb):
    """Log-space alpha (N, T, K) of the forward recursion over a batch."""
    alpha = np.empty(lb.shape)
    alpha[:, 0] = lpi + lb[:, 0]
    for t in range(1, lb.shape[1]):
        alpha[:, t] = _logsumexp(alpha[:, t - 1, :, None] + la, axis=1) + lb[:, t]
    return alpha


def _backward(la, lb):
    """Log-space beta (N, T, K) of the backward recursion over a batch."""
    beta = np.zeros(lb.shape)
    for t in range(lb.shape[1] - 2, -1, -1):
        beta[:, t] = _logsumexp(la + (lb[:, t + 1] + beta[:, t + 1])[:, None, :],
                                axis=2)
    return beta


def forward_loglik(model: HmmModel, obs):
    """log P(O | lambda) by the forward recursion in log space.

    obs (T, F) gives a float; a batch (N, T, F) of equal-length sequences
    gives the (N,) array of their log-likelihoods.
    """
    x = _obs_values(obs)
    if x.shape[-1] != model.F:
        raise DimensionMismatch(
            f"observation has {x.shape[-1]} channels, model expects {model.F}"
        )
    batch = x if x.ndim == 3 else x[None]
    lb = _log_emissions(model.means, model.variances, batch)
    with np.errstate(divide="ignore"):
        alpha = _forward(np.log(model.A), np.log(model.pi), lb)
    ll = _logsumexp(alpha[:, -1], axis=1)
    return ll if x.ndim == 3 else float(ll[0])


def _uniform_pi(K: int) -> np.ndarray:
    return np.full(K, 1.0 / K)


def _init_params(seqs, K: int, seed: Optional[int]):
    pooled = np.concatenate(seqs, axis=0)
    g_mean = pooled.mean(axis=0)
    g_var = np.maximum(pooled.var(axis=0), VARIANCE_FLOOR)
    if seed is None:
        # Deterministic: state k's mean is the pooled average of the k-th
        # contiguous block of every sequence.
        sums = np.zeros((K, pooled.shape[1]))
        counts = np.zeros(K)
        for seq in seqs:
            for k, block in enumerate(np.array_split(seq, K, axis=0)):
                if block.shape[0]:
                    sums[k] += block.sum(axis=0)
                    counts[k] += block.shape[0]
        means = np.where(counts[:, None] > 0, sums / np.maximum(counts, 1)[:, None],
                         g_mean[None, :])
        if K == 1:
            A = np.array([[1.0]])
        else:
            A = np.full((K, K), 0.2 / (K - 1))
            np.fill_diagonal(A, 0.8)
    else:
        rng = np.random.default_rng(seed)
        means = g_mean[None, :] + rng.standard_normal((K, pooled.shape[1])) * np.sqrt(g_var)[None, :]
        A = rng.dirichlet(np.full(K, 5.0), size=K)
    variances = np.tile(g_var, (K, 1))
    return A, means, variances


def baum_welch(trials: Sequence, K: int = 3, max_iter: int = 100,
               tol: float = 1e-4, seed: Optional[int] = None,
               estimate_pi: bool = False,
               channel_names: Optional[tuple[str, ...]] = None) -> HmmModel:
    """Multi-sequence EM over equal-length sequences. pi stays uniform unless
    estimate_pi is set.

    seed None gives the deterministic contiguous-block initialization;
    an integer seed draws a random initialization instead.
    """
    seqs = [_obs_values(t) for t in trials]
    if not seqs:
        raise EmptyTrainingSet("baum_welch requires at least one sequence")
    if any(s.ndim != 2 for s in seqs):
        raise ValueError("each sequence must be (T, F)")
    F = seqs[0].shape[1]
    for s in seqs[1:]:
        if s.shape[1] != F:
            raise DimensionMismatch(
                f"sequences mix {F} and {s.shape[1]} channels"
            )
    lengths = sorted({s.shape[0] for s in seqs})
    if len(lengths) > 1:
        raise ValueError(f"sequences must have equal lengths, got lengths {lengths}")
    if K < 1:
        raise ValueError("K must be >= 1")
    if max_iter < 0:
        raise ValueError("max_iter must be >= 0")
    if not np.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    X = np.stack(seqs)

    A, means, variances = _init_params(X, K, seed)
    pi = _uniform_pi(K)
    ll_prev = None
    for _ in range(max_iter):
        with np.errstate(divide="ignore"):
            la = np.log(A)
            lpi = np.log(pi)
        lb = _log_emissions(means, variances, X)
        alpha = _forward(la, lpi, lb)
        beta = _backward(la, lb)
        ll = _logsumexp(alpha[:, -1], axis=1)
        # cumsum adds the sequences in order; np.sum would add pairwise
        total_ll = float(np.cumsum(ll)[-1])
        if ll_prev is not None and abs(total_ll - ll_prev) <= tol * max(abs(ll_prev), 1e-12):
            break
        ll_prev = total_ll

        gamma = np.exp(alpha + beta - ll[:, None, None])
        xi = np.exp(alpha[:, :-1, :, None] + la
                    + (lb[:, 1:] + beta[:, 1:])[:, :, None, :]
                    - ll[:, None, None, None])
        A_num = xi.reshape(-1, K * K).sum(axis=0).reshape(K, K)
        row = A_num.sum(axis=1)
        new_A = A.copy()
        nz = row > 1e-300
        new_A[nz] = A_num[nz] / row[nz, None]
        A = new_A
        # One call per sequence keeps the rounding of a per-sequence E-step
        # (tests/test_hmm_oracle.py); a batched einsum or matmul rounds
        # differently.
        pi_num = np.zeros(K)
        occ = np.zeros(K)
        wsum = np.zeros((K, F))
        for seq, g in zip(X, gamma):
            pi_num += g[0]
            occ += g.sum(axis=0)
            wsum += g.T @ seq
        if estimate_pi:
            pi = pi_num / pi_num.sum()
        safe_occ = np.maximum(occ, 1e-300)
        new_means = np.where(occ[:, None] > 1e-12, wsum / safe_occ[:, None], means)
        vsum = np.zeros((K, F))
        for seq, g in zip(X, gamma):
            diff = seq[:, None, :] - new_means[None, :, :]
            vsum += np.einsum("tk,tkf->kf", g, diff * diff)
        new_vars = np.where(occ[:, None] > 1e-12, vsum / safe_occ[:, None], variances)
        means = new_means
        variances = np.maximum(new_vars, VARIANCE_FLOOR)
    return HmmModel(A=A, pi=pi, means=means, variances=variances,
                    channel_names=channel_names)


def model_to_dict(model: HmmModel) -> dict:
    return {
        "K": model.K,
        "A": model.A.tolist(),
        "pi": model.pi.tolist(),
        "means": model.means.tolist(),
        "variances": model.variances.tolist(),
        "channel_names": list(model.channel_names) if model.channel_names else None,
    }


def model_from_dict(d: dict) -> HmmModel:
    names = d.get("channel_names")
    return HmmModel(
        A=np.array(d["A"], dtype=np.float64),
        pi=np.array(d["pi"], dtype=np.float64),
        means=np.array(d["means"], dtype=np.float64),
        variances=np.array(d["variances"], dtype=np.float64),
        channel_names=tuple(names) if names else None,
    )


def fit(X, y, labels, seed, params) -> dict:
    """One Baum-Welch model per label, trained on the trials of that label.

    X is (N, G, F) and y holds indices into labels; the result maps each
    label to its model, in label order. Training starts from the
    deterministic initialization, so seed is unused. params: states,
    max_iter, tol, estimate_pi, and channel_names to record in the models.
    A label without trials raises EmptyTrainingSet; evaluation.fit_model
    names it first.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.shape != X.shape[:1]:
        raise ValueError("need one label index per trial")
    models = {}
    for k, label in enumerate(labels):
        models[label] = baum_welch(
            X[y == k], K=int(params.get("states", 3)),
            max_iter=int(params.get("max_iter", 100)),
            tol=float(params.get("tol", 1e-4)),
            estimate_pi=bool(params.get("estimate_pi", False)),
            channel_names=params.get("channel_names"))
    return models


def predict(model: dict, X) -> np.ndarray:
    """Index of the most likely label per trial; the first label wins ties."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3:
        raise ValueError(f"X must be (N, T, F), got {X.shape}")
    scores = [forward_loglik(m, X) for m in model.values()]
    return np.argmax(scores, axis=0).astype(np.int64)


def to_dict(model: dict) -> dict:
    return {"kind": "hmm",
            "models": {label: model_to_dict(m) for label, m in model.items()}}


def from_dict(d: dict) -> dict:
    models = {label: model_from_dict(m) for label, m in d["models"].items()}
    if len({(m.K, m.F) for m in models.values()}) != 1:
        raise ValueError("the per-label models must share K and F")
    return models

