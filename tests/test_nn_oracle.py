"""Network kernels against straightforward oracles.

`_forward(x, keep=False)` runs the same arithmetic as `_forward(x)` but keeps
none of the caches backprop reads. The training forward is the oracle: logits
must be bitwise equal, and `predict`, `forward` and `loss` must equal what
they computed from it before they stopped keeping caches.

`TcnModel.loss_and_grads` pools by compare-and-select and computes each
weight gradient as one matrix product. `oracle_tcn_loss_and_grads` is the
argmax / take_along_axis / put_along_axis / einsum version it replaced: the
logits and the loss must be bitwise equal, the gradients equal up to the
summation order.
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


def oracle_tcn_loss_and_grads(model, x, y):
    """(logits, loss, grads) of a TcnModel, pooling by argmax and summing each
    weight gradient with einsum."""
    pad = model.kernel // 2
    caches = []
    out = x
    for layer in range(model.depth):
        W = model.params[f"conv{layer}_W"]
        b = model.params[f"conv{layer}_b"]
        B, T, ci = out.shape
        xpad = np.zeros((B, T + 2 * pad, ci))
        xpad[:, pad:pad + T, :] = out
        cols = np.stack([xpad[:, k:k + T, :] for k in range(model.kernel)], axis=2)
        cols = cols.reshape(B, T, model.kernel * ci)
        z = cols @ W.reshape(W.shape[0], -1).T
        z += b
        r = np.maximum(z, 0.0)
        v = r.reshape(B, T // 2, 2, W.shape[0])
        idx = v.argmax(axis=2)
        out = np.take_along_axis(v, idx[:, :, None, :], axis=2)[:, :, 0, :]
        caches.append((cols, z, v.shape, idx, ci))
    B = out.shape[0]
    flat = out.reshape(B, model.flat_dim)
    h = np.maximum(flat, 0.0)
    logits = h @ model.params["head_W"].T + model.params["head_b"]
    loss, dlogits = _batch_ce(logits, y)
    grads = {"head_W": dlogits.T @ h, "head_b": dlogits.sum(axis=0)}
    dout = ((dlogits @ model.params["head_W"]) * (flat > 0.0)).reshape(out.shape)
    for layer in range(model.depth - 1, -1, -1):
        cols, z, vshape, idx, ci = caches[layer]
        W = model.params[f"conv{layer}_W"]
        B, T = z.shape[0], z.shape[1]
        dv = np.zeros(vshape)
        np.put_along_axis(dv, idx[:, :, None, :], dout[:, :, None, :], axis=2)
        dz = dv.reshape(B, T, W.shape[0]) * (z > 0.0)
        grads[f"conv{layer}_W"] = np.einsum("bto,btm->om", dz, cols).reshape(W.shape)
        grads[f"conv{layer}_b"] = dz.sum(axis=(0, 1))
        if layer == 0:
            break
        dcols = (dz @ W.reshape(W.shape[0], -1)).reshape(B, T, model.kernel, ci)
        dxpad = np.zeros((B, T + 2 * pad, ci))
        for k in range(model.kernel):
            dxpad[:, k:k + T, :] += dcols[:, :, k, :]
        dout = dxpad[:, pad:pad + T, :]
    return logits, loss, grads


def pooling_ties(model, x):
    """Count of pooled pairs, over all layers, whose two elements are equal
    and positive; ReLU zeros tie far more often and are not counted."""
    ties = 0
    out = x
    for layer in range(model.depth):
        r = np.maximum(model._conv(layer, out)[1], 0.0)
        v = r.reshape(r.shape[0], r.shape[1] // 2, 2, -1)
        ties += int(np.count_nonzero((v[:, :, 0] == v[:, :, 1]) & (v[:, :, 0] > 0)))
        out = v.max(axis=2)
    return ties


def assert_tcn_grads_match_oracle(model, x, y):
    logits, loss, expected = oracle_tcn_loss_and_grads(model, x, y)
    got_loss, grads = model.loss_and_grads(x, y)
    assert np.array_equal(model._forward(x)[0], logits)
    assert got_loss == loss
    assert sorted(grads) == sorted(expected)
    for name, want in expected.items():
        scale = np.abs(want).max()
        err = np.abs(grads[name] - want).max()
        assert err <= 1e-12 * scale, (name, err, scale)


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


def tcn_input(rng, model, B, hold, dup, mute):
    """Random input held constant over runs of `hold` steps, with a share
    `dup` of the steps copied from the step before: constant stretches give
    the convolutions equal outputs at adjacent steps, so pairs tie exactly.

    With `mute`, channel 0 is fresh noise at every step and the first layer's
    weights on it are zero. Pairs then still tie, but their inputs differ, so
    the weight gradient shows which element of a tie got the gradient.
    """
    grid, F = model.grid, model.in_channels
    x = np.repeat(rng.standard_normal((B, -(-grid // hold), F)), hold, axis=1)[:, :grid]
    for t in np.flatnonzero(rng.random(grid) < dup):
        if t:
            x[:, t] = x[:, t - 1]
    if mute and model.depth:
        model.params["conv0_W"][:, :, 0] = 0.0
        x[:, :, 0] = rng.standard_normal((B, grid))
    return x


@settings(max_examples=60, deadline=None)
@given(depth=st.integers(0, 4), kernel=st.sampled_from([1, 3, 5]),
       channels=st.integers(1, 16), steps=st.integers(1, 4),
       B=st.integers(1, 32), F=st.integers(1, 6), hold=st.integers(1, 16),
       dup=st.sampled_from([0.0, 0.3, 0.7]), mute=st.booleans(),
       bias=st.sampled_from([0.0, -0.5, -1.5]), seed=st.integers(0, 2**16))
def test_tcn_grads_match_oracle(depth, kernel, channels, steps, B, F, hold, dup,
                                mute, bias, seed):
    rng = np.random.default_rng(seed)
    grid = steps * 2 ** depth
    model = TcnModel(F, channels=channels, depth=depth, kernel=kernel,
                     grid=grid, seed=seed)
    for layer in range(depth):  # negative biases: many ReLU zeros
        model.params[f"conv{layer}_b"] += bias + 0.3 * rng.standard_normal(channels)
    x = tcn_input(rng, model, B, hold, dup, mute)
    assert_tcn_grads_match_oracle(model, x, rng.integers(0, 4, B))


def test_tcn_grads_match_oracle_at_training_size():
    """The default architecture at B=32, T=64, F=12, with exact ties."""
    rng = np.random.default_rng(3)
    model = TcnModel(12, seed=3)
    x = tcn_input(rng, model, 32, hold=8, dup=0.3, mute=True)
    assert pooling_ties(model, x) > 100
    assert_tcn_grads_match_oracle(model, x, rng.integers(0, 4, 32))


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
