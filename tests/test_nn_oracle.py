"""Network kernels against straightforward oracles.

`_forward(x, keep=False)` runs the same arithmetic as `_forward(x)` but keeps
none of the caches backprop reads. The training forward is the oracle: logits
must be bitwise equal, and `forward`, `predict` and `loss` must equal what
they computed from it before they stopped keeping caches, `forward` and
`predict` slice by slice.

`TcnModel.loss_and_grads` pools by compare-and-select and computes each
weight gradient as one matrix product. `oracle_tcn_loss_and_grads` is the
argmax / take_along_axis / put_along_axis / einsum version it replaced: the
logits and the loss must be bitwise equal, the gradients equal up to the
summation order.

`LstmModel` stores its sequences time-major, computes the sigmoid as
`1 / (1 + exp(-a))` in place over each step's gate row and runs its backward
in reused buffers. `oracle_lstm_loss_and_grads` is the batch-major version
with `scipy.special.expit` and a per-step `np.concatenate` it replaced. The
two sigmoids differ in the last bit for some inputs, so the loss must agree
to a relative 1e-12 and the gradients up to rounding (`LSTM_GRAD_RTOL`). The
logits are held to a long-double forward instead (`LSTM_LOGIT_RTOL`): the
float64 oracle rounds as much as the code it checks, and the recurrence grows
both their errors.

While `train` runs, `loss_and_grads` takes its large temporaries from a
workspace that every step reuses. The same call on fresh arrays is the
oracle: over a run of calls whose batch sizes shrink and grow, each loss and
gradient must be bitwise equal to it, and none may change when a later call
reuses the workspace.

`forward`, and so `predict`, runs the inference forward on slices of
`TrainConfig.batch_size` trials. Single-shot inference is the oracle: the
logits must be bitwise equal while the batch fits one slice, and agree to
1e-12 of the largest logit beyond it, where OpenBLAS may pick another kernel
for another row count. Their peak memory must not grow with the batch.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from haptix.nn import LstmModel, TcnModel, TrainConfig, _batch_ce, _sliced_logits


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


def oracle_lstm_loss_and_grads(model, x, y):
    """(logits, loss, grads) of an LstmModel: batch-major caches, expit gates
    and one np.concatenate of the four gate gradients per step."""
    B, T, _ = x.shape
    H = model.hidden
    inp = x
    caches = []
    for layer in range(model.layers):
        Wx = model.params[f"l{layer}_Wx"]
        Wh = model.params[f"l{layer}_Wh"]
        b = model.params[f"l{layer}_b"]
        pre = inp @ Wx.T
        pre += b
        gi, gf, gg, go, cs, tcs = (np.empty((B, T, H)) for _ in range(6))
        hs = np.empty((B, T, H))
        h = np.zeros((B, H)); c = np.zeros((B, H))
        for t in range(T):
            a = pre[:, t] + h @ Wh.T
            i = expit(a[:, :H]); f = expit(a[:, H:2 * H])
            g = np.tanh(a[:, 2 * H:3 * H]); o = expit(a[:, 3 * H:])
            c = f * c + i * g
            tc = np.tanh(c)
            h = o * tc
            hs[:, t] = h
            gi[:, t] = i; gf[:, t] = f; gg[:, t] = g; go[:, t] = o
            cs[:, t] = c; tcs[:, t] = tc
        caches.append((inp, gi, gf, gg, go, cs, tcs, hs))
        inp = hs
    relu_in = inp if model.per_step else inp[:, -1]
    hrelu = np.maximum(relu_in, 0.0)
    logits = hrelu @ model.params["head_W"].T + model.params["head_b"]
    W_head = model.params["head_W"]
    if model.per_step:
        C = logits.shape[2]
        loss, dflat = _batch_ce(logits.reshape(B * T, C), np.repeat(y, T))
        dlogits = dflat.reshape(B, T, C)
        grads = {"head_W": np.einsum("btc,bth->ch", dlogits, hrelu),
                 "head_b": dlogits.sum(axis=(0, 1))}
        dh_seq = (dlogits @ W_head) * (relu_in > 0.0)
    else:
        loss, dlogits = _batch_ce(logits, y)
        grads = {"head_W": dlogits.T @ hrelu, "head_b": dlogits.sum(axis=0)}
        dh_seq = np.zeros((B, T, H))
        dh_seq[:, -1] = (dlogits @ W_head) * (relu_in > 0.0)
    for layer in range(model.layers - 1, -1, -1):
        inp, gi, gf, gg, go, cs, tcs, hs = caches[layer]
        Wx = model.params[f"l{layer}_Wx"]
        Wh = model.params[f"l{layer}_Wh"]
        dWx = np.zeros_like(Wx); dWh = np.zeros_like(Wh)
        db = np.zeros(4 * H)
        dinp = np.zeros_like(inp) if layer else None
        dh_next = np.zeros((B, H)); dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i = gi[:, t]; f = gf[:, t]; g = gg[:, t]; o = go[:, t]
            tc = tcs[:, t]
            c_prev = cs[:, t - 1] if t > 0 else np.zeros((B, H))
            h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
            dh = dh_seq[:, t] + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            da = np.concatenate([
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                dg * (1.0 - g * g),
                do * o * (1.0 - o),
            ], axis=1)
            dWx += da.T @ inp[:, t]
            dWh += da.T @ h_prev
            db += da.sum(axis=0)
            if layer:
                dinp[:, t] = da @ Wx
            dh_next = da @ Wh
        grads[f"l{layer}_Wx"] = dWx
        grads[f"l{layer}_Wh"] = dWh
        grads[f"l{layer}_b"] = db
        dh_seq = dinp
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
    rows = TrainConfig.batch_size
    expected = np.concatenate([oracle_forward(model, x[i:i + rows])
                               for i in range(0, len(x), rows)])
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


def longdouble_lstm_logits(model, x):
    """The LSTM's logits computed batch-major in long double, whose 64-bit
    mantissa on x86-64 makes them exact to well below float64 rounding."""
    p = {name: value.astype(np.longdouble) for name, value in model.params.items()}
    B, T, _ = x.shape
    H = model.hidden
    inp = x.astype(np.longdouble)
    for layer in range(model.layers):
        pre = inp @ p[f"l{layer}_Wx"].T + p[f"l{layer}_b"]
        h = np.zeros((B, H), np.longdouble)
        c = np.zeros((B, H), np.longdouble)
        hs = np.empty((B, T, H), np.longdouble)
        for t in range(T):
            a = pre[:, t] + h @ p[f"l{layer}_Wh"].T
            sig = 1.0 / (1.0 + np.exp(-a))
            c = sig[:, H:2 * H] * c + sig[:, :H] * np.tanh(a[:, 2 * H:3 * H])
            h = sig[:, 3 * H:] * np.tanh(c)
            hs[:, t] = h
        inp = hs
    relu_in = inp if model.per_step else inp[:, -1]
    return np.maximum(relu_in, 0.0) @ p["head_W"].T + p["head_b"]


# Largest logit error seen against the long-double forward, as a share of the
# largest logit: 1.10e-12 at the example pinned on test_lstm_grads_match_oracle
# (the float64 oracle is 2.55e-12 off there), 2.2e-13 over 2,000 draws of the
# test's ranges and 1.02e-12 over 500 draws at the example's shape. The bound
# leaves a 9x margin.
LSTM_LOGIT_RTOL = 1e-11

# Largest gradient error seen against the oracle, as a share of the
# gradient's largest entry: 4.0e-12 over 3,000 random configurations of
# test_lstm_grads_match_oracle's ranges (one-bit sigmoid differences grown
# by the recurrence). The bound leaves a 25x margin.
LSTM_GRAD_RTOL = 1e-10


def assert_lstm_grads_match_oracle(model, x, y):
    _, loss, expected = oracle_lstm_loss_and_grads(model, x, y)
    got_loss, grads = model.loss_and_grads(x, y)
    got_logits = model._forward(x)[0]
    exact = longdouble_lstm_logits(model, x)
    assert np.abs(got_logits - exact).max() <= LSTM_LOGIT_RTOL * np.abs(exact).max()
    assert got_loss == pytest.approx(loss, rel=1e-12, abs=0.0)
    assert sorted(grads) == sorted(expected)
    for name, want in expected.items():
        scale = np.abs(want).max()
        err = np.abs(grads[name] - want).max()
        assert err <= LSTM_GRAD_RTOL * scale, (name, err, scale)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 3), hidden=st.integers(1, 50),
       per_step=st.booleans(), B=st.integers(1, 32), T=st.integers(1, 64),
       F=st.integers(1, 6), seed=st.integers(0, 2**16))
@example(layers=3, hidden=50, per_step=False, B=7, T=53, F=5, seed=38286)
def test_lstm_grads_match_oracle(layers, hidden, per_step, B, T, F, seed):
    rng = np.random.default_rng(seed)
    model = LstmModel(F, hidden=hidden, layers=layers, per_step=per_step, seed=seed)
    for value in model.params.values():  # biases start at constants
        value += rng.standard_normal(value.shape) * 0.5
    x = rng.standard_normal((B, T, F)) * 2.0
    assert_lstm_grads_match_oracle(model, x, rng.integers(0, 4, B))


def test_lstm_grads_match_oracle_at_training_size():
    """The default architecture at B=32, T=64, F=12."""
    rng = np.random.default_rng(3)
    model = LstmModel(12, seed=3)
    x = rng.standard_normal((32, 64, 12))
    assert_lstm_grads_match_oracle(model, x, rng.integers(0, 4, 32))

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


def poison(ws):
    """Overwrite every workspace buffer, so that a call reading what an
    earlier call left behind (a zero edge not rewritten, say) goes wrong."""
    for buf in ws.values():
        buf[...] = True if buf.dtype == bool else np.nan


def assert_workspace_matches_fresh_arrays(model, sizes, T, seed):
    """Calls of `loss_and_grads` on batches of `sizes` trials in one
    workspace, poisoned after each call, against the same calls without one."""
    rng = np.random.default_rng(seed)
    for value in model.params.values():  # biases start at constants
        value += rng.standard_normal(value.shape) * 0.5
    batches = [(rng.standard_normal((B, T, model.in_channels)) * 2.0,
                rng.integers(0, 4, B)) for B in sizes]
    returned, copies = [], []
    model._ws = {}
    try:
        for x, y in batches:
            loss, grads = model.loss_and_grads(x, y)
            returned.append(grads)
            copies.append((loss, {k: v.copy() for k, v in grads.items()}))
            poison(model._ws)
    finally:
        del model._ws
    for (x, y), grads, (loss, copied) in zip(batches, returned, copies):
        want_loss, want = model.loss_and_grads(x, y)
        assert loss == want_loss
        assert sorted(grads) == sorted(want)
        for name in want:
            assert np.array_equal(copied[name], want[name]), name
            assert np.array_equal(grads[name], want[name]), name  # not aliased


batch_sizes = st.lists(st.integers(1, 40), min_size=3, max_size=5)


@settings(max_examples=40, deadline=None)
@given(layers=st.integers(1, 3), hidden=st.integers(1, 16),
       per_step=st.booleans(), T=st.integers(1, 16), F=st.integers(1, 6),
       sizes=batch_sizes, seed=st.integers(0, 2**16))
@example(layers=2, hidden=50, per_step=False, T=64, F=12,
         sizes=[32, 16, 32, 5, 40], seed=0)
def test_lstm_workspace_matches_fresh_arrays(layers, hidden, per_step, T, F,
                                             sizes, seed):
    model = LstmModel(F, hidden=hidden, layers=layers, per_step=per_step, seed=seed)
    assert_workspace_matches_fresh_arrays(model, sizes, T, seed)


@settings(max_examples=40, deadline=None)
@given(depth=st.integers(0, 4), kernel=st.sampled_from([1, 3, 5, 7]),
       channels=st.integers(1, 8), steps=st.integers(1, 4), F=st.integers(1, 6),
       sizes=batch_sizes, seed=st.integers(0, 2**16))
@example(depth=4, kernel=5, channels=32, steps=4, F=12,
         sizes=[32, 16, 32, 5, 40], seed=0)
def test_tcn_workspace_matches_fresh_arrays(depth, kernel, channels, steps, F,
                                            sizes, seed):
    grid = steps * 2 ** depth
    model = TcnModel(F, channels=channels, depth=depth, kernel=kernel,
                     grid=grid, seed=seed)
    assert_workspace_matches_fresh_arrays(model, sizes, grid, seed)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lstm", "tcn"]), N=st.integers(1, 200),
       seed=st.integers(0, 2**16))
@example(kind="lstm", N=33, seed=0)
@example(kind="tcn", N=65, seed=0)
def test_sliced_predict_matches_single_shot(kind, N, seed):
    rng = np.random.default_rng(seed)
    model = LstmModel(12, seed=seed) if kind == "lstm" else TcnModel(12, seed=seed)
    for value in model.params.values():  # biases start at constants
        value += rng.standard_normal(value.shape) * 0.5
    x = rng.standard_normal((N, 64, 12)) * 2.0
    whole = model._forward(x, keep=False)[0]
    sliced = _sliced_logits(model, x)
    if N <= TrainConfig.batch_size:
        assert np.array_equal(sliced, whole)
    tol = 1e-12 * np.abs(whole).max()
    assert np.abs(sliced - whole).max() <= tol
    second, first = np.sort(whole, axis=1)[:, -2:].T
    clear = first - second > tol
    assert np.array_equal(model.predict(x)[clear], whole.argmax(axis=1)[clear])


class TestInferenceMemory:
    """Inference on the cross-domain test-set size keeps no backprop state."""

    N, G, F = 400, 64, 12

    def _peak_bytes(self, model, n=N, entry="predict"):
        x = np.random.default_rng(0).standard_normal((n, self.G, self.F))
        tracemalloc.start()
        try:
            getattr(model, entry)(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lstm_predict_peak_below_two_projections(self):
        model = LstmModel(self.F)
        projection = self.N * self.G * 4 * model.hidden * 8  # one layer's (N, G, 4H)
        assert self._peak_bytes(model) < 2 * projection

    def test_tcn_predict_peak(self):
        assert self._peak_bytes(TcnModel(self.F)) < 48e6

    @pytest.mark.parametrize("make", [LstmModel, TcnModel], ids=["lstm", "tcn"])
    def test_predict_peak_does_not_grow_with_n(self, make):
        """forward, and predict through it, work in slices of one training
        batch, so 400 trials peak within a quarter (plus 1 MB) of one batch's
        peak."""
        model = make(self.F)
        for entry in ("predict", "forward"):
            one_slice = self._peak_bytes(model, TrainConfig.batch_size, entry)
            assert self._peak_bytes(model, entry=entry) <= 1.25 * one_slice + 1e6, entry
