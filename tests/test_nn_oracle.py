"""Inference without backprop caches against the training forward.

`_forward(x, keep=False)` runs the same arithmetic as `_forward(x)` but keeps
none of the caches backprop reads. The training forward is the oracle: logits
must be bitwise equal, and `predict`, `forward` and `loss` must equal what
they computed from it before they stopped keeping caches.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haptix.nn import LstmModel, TcnModel, _batch_ce


def oracle_forward(model, x):
    """Logits as forward/predict computed them from the training forward."""
    logits, _ = model._forward(x)
    if getattr(model, "per_step", False):
        logits = logits.mean(axis=1)
    return logits


def oracle_loss(model, x, y):
    logits, _ = model._forward(x)
    if getattr(model, "per_step", False):
        B, T, C = logits.shape
        return _batch_ce(logits.reshape(B * T, C), np.repeat(y, T))[0]
    return _batch_ce(logits, y)[0]


def assert_matches_oracle(model, x, y, rng):
    for value in model.params.values():  # biases start at constants
        value += rng.standard_normal(value.shape) * 0.5
    logits, (caches, *_rest) = model._forward(x, keep=False)
    assert caches == []
    assert np.array_equal(logits, model._forward(x)[0])
    expected = oracle_forward(model, x)
    assert np.array_equal(model.forward(x), expected)
    assert np.array_equal(model.predict(x), expected.argmax(axis=1))
    assert model.loss(x, y) == oracle_loss(model, x, y)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 3), hidden=st.integers(1, 50),
       per_step=st.booleans(), B=st.integers(1, 64), T=st.integers(1, 64),
       F=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_lstm_inference_matches_training_forward(layers, hidden, per_step, B, T,
                                                 F, seed):
    rng = np.random.default_rng(seed)
    model = LstmModel(F, hidden=hidden, layers=layers, per_step=per_step, seed=seed)
    x = rng.standard_normal((B, T, F)) * 2.0
    assert_matches_oracle(model, x, rng.integers(0, 4, B), rng)


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(0, 4), kernel=st.sampled_from([1, 3, 5]),
       channels=st.integers(1, 32), steps=st.integers(1, 4),
       B=st.integers(1, 32), F=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_tcn_inference_matches_training_forward(depth, kernel, channels, steps, B,
                                                F, seed):
    rng = np.random.default_rng(seed)
    grid = steps * 2 ** depth
    model = TcnModel(F, channels=channels, depth=depth, kernel=kernel,
                     grid=grid, seed=seed)
    x = rng.standard_normal((B, grid, F)) * 2.0
    assert_matches_oracle(model, x, rng.integers(0, 4, B), rng)


class TestInferenceMemory:
    """predict on the cross-domain test-set size keeps no backprop state."""

    N, G, F = 400, 64, 12

    def _peak_bytes(self, model):
        x = np.random.default_rng(0).standard_normal((self.N, self.G, self.F))
        tracemalloc.start()
        try:
            model.predict(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lstm_predict_peak_below_two_projections(self):
        model = LstmModel(self.F)
        projection = self.N * self.G * 4 * model.hidden * 8  # one layer's (N, G, 4H)
        assert self._peak_bytes(model) < 2 * projection

    def test_tcn_predict_peak(self):
        assert self._peak_bytes(TcnModel(self.F)) < 48e6
