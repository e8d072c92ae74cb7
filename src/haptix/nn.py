"""Temporal CNN and stacked-LSTM classifiers with hand-derived gradients.

Everything runs in double precision on plain numpy arrays so finite-difference
gradient checks are meaningful. Models hold their parameters in a flat dict;
training is mini-batch gradient descent (plain or adaptive-moment) on mean
cross-entropy.

The LSTM keeps its sequences time-major and runs each step in place in
reused buffers; its gate sigmoid is numpy's `1 / (1 + exp(-a))`, so this
module imports nothing beyond numpy.

`forward` is the one inference path: it runs the forward on slices of at
most `TrainConfig.batch_size` trials and concatenates their logits, so its
memory is set by the model, not by the number of trials, and `predict` is its
argmax. The logits can differ from a single pass's in the last bits, since
OpenBLAS picks its kernel by row count. `loss` and `loss_and_grads` run their
batch in one pass.

While `train` runs, the model holds a workspace: the batch and the large
training temporaries are prefixes of buffers named by role, sized by the
first (largest) batch, so later steps take no fresh pages, and the results
are bitwise those of fresh arrays. Everywhere else (`forward` and so every
inference slice, `predict`, `loss`, a direct `loss_and_grads`) allocates anew.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss

PROB_CLAMP = 1e-12


def _batch_ce(logits: np.ndarray, y: np.ndarray):
    """Mean cross-entropy over a batch plus the logits gradient.

    Non-finite logits propagate to a non-finite loss (no exception here) so
    the training loop can abort with a NonFiniteLoss diagnostic.
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        z = logits - logits.max(axis=-1, keepdims=True)
        e = np.exp(z)
        p = e / e.sum(axis=-1, keepdims=True)
        n = logits.shape[0]
        picked = np.maximum(p[np.arange(n), y], PROB_CLAMP)
        loss = float(-np.log(picked).mean())
    dlogits = p.copy()
    dlogits[np.arange(n), y] -= 1.0
    return loss, dlogits / n


def _buf(ws, role, shape, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of `shape`: fresh when the workspace ws is None,
    else a contiguous prefix of its buffer `role`, regrown when too small."""
    if ws is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    if role not in ws or ws[role].size < size:
        ws[role] = np.empty(size, dtype)
    return ws[role][:size].reshape(shape)


def _as_batch(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3:
        raise ValueError(f"expected (B, T, F) or (T, F) input, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    optimizer: str = "adam"  # "adam" or "sgd"

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def _sliced_logits(model, x) -> np.ndarray:
    """Logits for a (T, F) matrix or (B, T, F) batch: `model._forward(x,
    keep=False)`'s, computed on consecutive slices of at most
    `TrainConfig.batch_size` trials (an empty batch is one empty slice), with
    per-step (B, T, C) logits averaged over the steps."""
    xb = _as_batch(x)
    rows = TrainConfig.batch_size
    parts = []
    for i in range(0, max(len(xb), 1), rows):
        logits = model._forward(xb[i:i + rows], keep=False)[0]
        parts.append(logits.mean(axis=1) if logits.ndim == 3 else logits)
    logits = np.concatenate(parts)
    return logits[0] if np.ndim(x) == 2 else logits


def _pool2(r: np.ndarray, ws=None):
    """Width-2 max pooling over axis 1 of (B, T, C): the pooled (B, T/2, C)
    array and the (B, T, C) bool mask of the elements that won their pair.

    The second element wins exactly where argmax over the pair picks it:
    when it is larger, or when it alone is NaN. Ties, including -0.0 against
    +0.0, keep the first element, and a NaN in either propagates.
    """
    B, T, C = r.shape
    v = r.reshape(B, T // 2, 2, C)
    v0, v1 = v[:, :, 0], v[:, :, 1]
    second = (v1 > v0) | (np.isnan(v1) & ~np.isnan(v0))
    won = _buf(ws, "won", v.shape, bool)
    won[:, :, 0], won[:, :, 1] = ~second, second
    pooled = _buf(ws, "pooled", v0.shape)
    np.copyto(pooled, v0)
    np.copyto(pooled, v1, where=second)
    return pooled, won.reshape(B, T, C)


class TcnModel:
    """Stack of 1-D temporal conv layers (kernel 5, same padding), each with
    ReLU and width-2 max pooling, then flatten -> ReLU -> linear logits.

    With the 64-step grid and depth 4 the temporal length shrinks
    64 -> 32 -> 16 -> 8 -> 4, so the flatten size is 4 * channels.
    """

    kind = "tcn"
    _ws = None  # the workspace `train` lends

    def __init__(self, in_channels: int, n_classes: int = 4, channels: int = 32,
                 depth: int = 4, kernel: int = 5, grid: int = 64, seed: int = 0):
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if kernel < 1 or kernel % 2 != 1:
            raise ValueError("kernel width must be odd and >= 1 for same padding")
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if grid % (2 ** depth) != 0 or grid // (2 ** depth) < 1:
            raise ValueError(f"grid {grid} not divisible by 2^{depth}")
        self.in_channels = in_channels
        self.n_classes = n_classes
        self.channels = channels
        self.depth = depth
        self.kernel = kernel
        self.grid = grid
        self.flat_dim = (grid // (2 ** depth)) * (channels if depth else in_channels)
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        ci = in_channels
        for layer in range(depth):
            scale = np.sqrt(2.0 / (kernel * ci))
            self.params[f"conv{layer}_W"] = rng.standard_normal((channels, kernel, ci)) * scale
            self.params[f"conv{layer}_b"] = np.zeros(channels)
            ci = channels
        self.params["head_W"] = rng.standard_normal((n_classes, self.flat_dim)) * np.sqrt(1.0 / self.flat_dim)
        self.params["head_b"] = np.zeros(n_classes)

    def _check(self, x: np.ndarray):
        if x.shape[1] != self.grid or x.shape[2] != self.in_channels:
            raise DimensionMismatch(
                f"input {x.shape[1:]} does not match model "
                f"({self.grid}, {self.in_channels})"
            )

    def _conv(self, layer: int, x: np.ndarray):
        """Conv layer `layer` on x (B, T, ci): its im2col (B, T, kernel * ci)
        and its pre-activation z (B, T, channels)."""
        W = self.params[f"conv{layer}_W"]
        B, T, ci = x.shape
        pad = self.kernel // 2
        cols = _buf(self._ws, ("cols", layer), (B, T, self.kernel, ci))
        for k in range(self.kernel):  # tap k reads x[t + k - pad], 0 off the ends
            lo, hi = min(max(pad - k, 0), T), max(min(T + pad - k, T), 0)
            cols[:, :lo, k] = 0.0
            cols[:, lo:hi, k] = x[:, lo + k - pad:hi + k - pad]
            cols[:, hi:, k] = 0.0
        cols = cols.reshape(B, T, self.kernel * ci)
        z = np.matmul(cols, W.reshape(W.shape[0], -1).T,
                      out=_buf(self._ws, "z", (B, T, W.shape[0])))
        z += self.params[f"conv{layer}_b"]
        return cols, z

    def _forward(self, x: np.ndarray, keep: bool = True):
        """Logits plus the caches backprop reads; keep=False keeps none, so a
        layer's im2col and activations are freed before the next layer's."""
        self._check(x)
        ws = self._ws
        caches = []
        out = x
        for layer in range(self.depth):
            cols, z = self._conv(layer, out)
            out, won = _pool2(np.maximum(z, 0.0, out=_buf(ws, "relu", z.shape)), ws)
            if keep:  # where the gradient flows: the pair's winner, ReLU open
                live = _buf(ws, ("live", layer), z.shape, bool)
                caches.append((cols, np.bitwise_and(won, z > 0.0, out=live)))
            del cols, z, won
        B = out.shape[0]
        flat = out.reshape(B, self.flat_dim)
        h = np.maximum(flat, 0.0)
        logits = h @ self.params["head_W"].T + self.params["head_b"]
        return logits, (caches, flat, h, out.shape)

    forward = _sliced_logits

    def loss(self, x, y) -> float:
        logits, _ = self._forward(_as_batch(x), keep=False)
        return _batch_ce(logits, np.asarray(y))[0]

    def loss_and_grads(self, x, y):
        xb = _as_batch(x)
        yb = np.asarray(y)
        logits, (caches, flat, h, out_shape) = self._forward(xb)
        loss, dlogits = _batch_ce(logits, yb)
        grads = {"head_W": dlogits.T @ h, "head_b": dlogits.sum(axis=0)}
        dh = dlogits @ self.params["head_W"]
        dflat = dh * (flat > 0.0)
        dout = dflat.reshape(out_shape)
        pad = self.kernel // 2
        for layer in range(self.depth - 1, -1, -1):
            cols, live = caches[layer]
            W = self.params[f"conv{layer}_W"]
            O, _, ci = W.shape
            B, T, _ = live.shape
            # a product with the bool mask, not np.where: on a random mask
            # np.where branches per element and took several times as long
            dz = _buf(self._ws, "z", (B, T, O))  # z is dead after the forward
            np.multiply(live.reshape(B, T // 2, 2, O), dout[:, :, None, :],
                        out=dz.reshape(B, T // 2, 2, O))
            dW = dz.reshape(B * T, O).T @ cols.reshape(B * T, -1)
            grads[f"conv{layer}_W"] = dW.reshape(W.shape)
            grads[f"conv{layer}_b"] = dz.sum(axis=(0, 1))
            if layer == 0:
                break  # nothing reads the input's gradient
            # cols is dead once dW is taken
            dcols = np.matmul(dz, W.reshape(O, -1), out=cols).reshape(B, T, self.kernel, ci)
            dxpad = _buf(self._ws, "dxpad", (B, T + 2 * pad, ci))
            dxpad[...] = 0.0
            for k in range(self.kernel):
                dxpad[:, k:k + T, :] += dcols[:, :, k, :]
            dout = dxpad[:, pad:pad + T, :]
        return loss, grads

    def predict(self, x) -> np.ndarray:
        return self.forward(_as_batch(x)).argmax(axis=1)

    def arch(self) -> dict:
        return {
            "kind": self.kind, "in_channels": self.in_channels,
            "n_classes": self.n_classes, "channels": self.channels,
            "depth": self.depth, "kernel": self.kernel, "grid": self.grid,
        }


class LstmModel:
    """Stacked LSTM (2 layers, hidden 50 by default); the top layer's final
    hidden state goes through ReLU and a linear layer to the logits.

    per_step averages the head loss over every time step instead of using
    only the final state.
    """

    kind = "lstm"
    _ws = None  # the workspace `train` lends

    def __init__(self, in_channels: int, n_classes: int = 4, hidden: int = 50,
                 layers: int = 2, seed: int = 0, per_step: bool = False):
        if layers < 1 or hidden < 1:
            raise ValueError("need layers >= 1 and hidden >= 1")
        self.in_channels = in_channels
        self.n_classes = n_classes
        self.hidden = hidden
        self.layers = layers
        self.per_step = per_step
        rng = np.random.default_rng(seed)
        self.params: dict[str, np.ndarray] = {}
        din = in_channels
        for layer in range(layers):
            self.params[f"l{layer}_Wx"] = rng.standard_normal((4 * hidden, din)) / np.sqrt(din)
            self.params[f"l{layer}_Wh"] = rng.standard_normal((4 * hidden, hidden)) / np.sqrt(hidden)
            b = np.zeros(4 * hidden)
            b[hidden:2 * hidden] = 1.0  # open the forget gate at start
            self.params[f"l{layer}_b"] = b
            din = hidden
        self.params["head_W"] = rng.standard_normal((n_classes, hidden)) / np.sqrt(hidden)
        self.params["head_b"] = np.zeros(n_classes)

    def _check(self, x: np.ndarray):
        if x.shape[2] != self.in_channels:
            raise DimensionMismatch(
                f"input has {x.shape[2]} channels, model expects {self.in_channels}"
            )

    def _layer(self, layer: int, inp: np.ndarray, keep: bool):
        """Run layer `layer` over the time-major input inp (T, B, din).

        Returns (acts, cs, tcs, hs): the sigmoid of the i, f, o gates and
        tanh of g in one (T, B, 4H) array, where each step's gates overwrite
        its input projection; the cell states and their tanh, (T, B, H), or
        with keep=False only the last step's, (1, B, H); the outputs hs.
        """
        T, B, _ = inp.shape
        H = self.hidden
        WhT = np.ascontiguousarray(self.params[f"l{layer}_Wh"].T)
        acts = _buf(self._ws, ("acts", layer), (T, B, 4 * H))
        np.matmul(inp.reshape(T * B, -1), self.params[f"l{layer}_Wx"].T,
                  out=acts.reshape(T * B, 4 * H))
        acts += self.params[f"l{layer}_b"]
        n = T if keep else 1
        cs = _buf(self._ws, ("cs", layer), (n, B, H))
        tcs = _buf(self._ws, ("tcs", layer), (n, B, H))
        hs = _buf(self._ws, ("hs", layer), (T, B, H))
        a = np.empty((B, 4 * H))
        ig = np.empty((B, H))
        h = c = np.zeros((B, H))
        # exp(-a) overflows to inf for a < -709, where the sigmoid is 0
        with np.errstate(over="ignore"):
            for t in range(T):
                k = t if keep else 0
                z = acts[t]
                np.matmul(h, WhT, out=a)
                a += z
                np.negative(a, out=z)
                np.exp(z, out=z)
                z += 1.0
                np.reciprocal(z, out=z)
                np.tanh(a[:, 2 * H:3 * H], out=z[:, 2 * H:3 * H])
                np.multiply(z[:, H:2 * H], c, out=cs[k])
                c = cs[k]
                np.multiply(z[:, :H], z[:, 2 * H:3 * H], out=ig)
                c += ig
                np.tanh(c, out=tcs[k])
                h = hs[t]
                np.multiply(z[:, 3 * H:], tcs[k], out=h)
        return acts, cs, tcs, hs

    def _forward(self, x: np.ndarray, keep: bool = True):
        """Logits plus the caches backprop reads; keep=False keeps none of the
        per-step gates and cell states, only each layer's output sequence.

        Sequences are stored time-major, (T, B, ·), so each step reads and
        writes contiguous blocks. A layer's cache is (input, acts, cs, tcs,
        hs), as `_layer` returns them.
        """
        self._check(x)
        inp = _buf(self._ws, "inp", (x.shape[1], x.shape[0], x.shape[2]))
        inp[...] = x.transpose(1, 0, 2)
        caches = []
        for layer in range(self.layers):
            acts, cs, tcs, hs = self._layer(layer, inp, keep)
            if keep:
                caches.append((inp, acts, cs, tcs, hs))
            del acts
            inp = hs
        relu_in = inp if self.per_step else inp[-1]  # (T, B, H) or (B, H)
        hrelu = np.maximum(relu_in, 0.0)
        logits = hrelu @ self.params["head_W"].T + self.params["head_b"]
        if self.per_step:
            logits = logits.transpose(1, 0, 2)  # (B, T, C)
        return logits, (caches, relu_in, hrelu)

    forward = _sliced_logits

    def _head_loss(self, logits, y):
        if not self.per_step:
            return _batch_ce(logits, y)
        B, T, C = logits.shape
        loss, dflat = _batch_ce(logits.reshape(B * T, C), np.repeat(y, T))
        return loss, dflat.reshape(B, T, C)

    def loss(self, x, y) -> float:
        logits, _ = self._forward(_as_batch(x), keep=False)
        return self._head_loss(logits, np.asarray(y))[0]

    def loss_and_grads(self, x, y):
        xb = _as_batch(x)
        yb = np.asarray(y)
        B, T, _ = xb.shape
        H = self.hidden
        logits, (caches, relu_in, hrelu) = self._forward(xb)
        loss, dlogits = self._head_loss(logits, yb)
        grads = {}
        W_head = self.params["head_W"]
        # dh_seq: the gradient a layer's output sequence receives from above;
        # None when the head reads only the top layer's last step, whose
        # gradient dh_last then enters the recurrence at t = T - 1
        if self.per_step:  # dlogits is (B, T, C); the caches are time-major
            dl = dlogits.transpose(1, 0, 2)
            grads["head_W"] = np.einsum("tbc,tbh->ch", dl, hrelu)
            grads["head_b"] = dlogits.sum(axis=(0, 1))
            dh_seq = (dl @ W_head) * (relu_in > 0.0)
        else:
            grads["head_W"] = dlogits.T @ hrelu
            grads["head_b"] = dlogits.sum(axis=0)
            dh_seq = None
            dh_last = (dlogits @ W_head) * (relu_in > 0.0)

        zero = np.zeros((B, H))
        dh = np.empty((B, H))
        tmp = np.empty((B, H))
        da = np.empty((B, 4 * H))
        di, df, dg, do = (da[:, j * H:(j + 1) * H] for j in range(4))
        deriv = np.empty((B, 4 * H))  # z(1-z) for the sigmoid gates, 1-g² for g
        dtanh = deriv[:, 2 * H:3 * H]
        for layer in range(self.layers - 1, -1, -1):
            inp, acts, cs, tcs, hs = caches[layer]
            Wx = self.params[f"l{layer}_Wx"]
            Wh = self.params[f"l{layer}_Wh"]
            dWx = np.zeros_like(Wx); dWh = np.zeros_like(Wh)
            db = np.zeros(4 * H)
            dinp = hs if layer else None  # hs[t]'s last read is at t + 1
            dh_next = np.zeros((B, H)) if dh_seq is not None else dh_last
            dc = np.zeros((B, H))  # dc_next on entry to a step
            for t in range(T - 1, -1, -1):
                z = acts[t]
                i, f, g, o = (z[:, j * H:(j + 1) * H] for j in range(4))
                tc = tcs[t]
                c_prev = cs[t - 1] if t else zero
                h_prev = hs[t - 1] if t else zero
                if dh_seq is None:
                    np.copyto(dh, dh_next)
                else:
                    np.add(dh_seq[t], dh_next, out=dh)
                np.multiply(dh, tc, out=do)
                np.multiply(tc, tc, out=tmp)
                np.subtract(1.0, tmp, out=tmp)
                dh *= o
                dh *= tmp
                dc += dh
                np.multiply(dc, g, out=di)
                np.multiply(dc, c_prev, out=df)
                np.multiply(dc, i, out=dg)
                dc *= f  # dc_next
                np.subtract(1.0, z, out=deriv)
                deriv *= z
                np.multiply(g, g, out=dtanh)
                np.subtract(1.0, dtanh, out=dtanh)
                da *= deriv
                dWx += da.T @ inp[t]
                dWh += da.T @ h_prev
                db += da.sum(axis=0)
                if layer:
                    np.matmul(da, Wx, out=dinp[t])
                np.matmul(da, Wh, out=dh_next)
            grads[f"l{layer}_Wx"] = dWx
            grads[f"l{layer}_Wh"] = dWh
            grads[f"l{layer}_b"] = db
            dh_seq = dinp
        return loss, grads

    def predict(self, x) -> np.ndarray:
        return self.forward(_as_batch(x)).argmax(axis=1)

    def arch(self) -> dict:
        return {
            "kind": self.kind, "in_channels": self.in_channels,
            "n_classes": self.n_classes, "hidden": self.hidden,
            "layers": self.layers, "per_step": self.per_step,
        }


def train(model, data, cfg: TrainConfig = TrainConfig(), *, labels):
    """Mini-batch cross-entropy training; returns (model, per-epoch mean loss).

    data is an (N, T, F) batch (or N (T, F) matrices); labels holds the N
    integer class indices (0-based, in the model's output order).
    """
    X = np.asarray(data, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 3 or X.shape[0] != y.shape[0] or X.shape[0] == 0:
        raise ValueError("data must be (N, T, F), non-empty and aligned with labels")
    if y.min() < 0 or y.max() >= model.n_classes:
        raise ValueError(f"label indices must lie in [0, {model.n_classes})")
    rng = np.random.default_rng(cfg.seed)
    n = X.shape[0]
    state = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in model.params.items()}
    step = 0
    curve = []
    model._ws = {}
    try:
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            total = 0.0
            for bstart in range(0, n, cfg.batch_size):
                sel = perm[bstart:bstart + cfg.batch_size]
                # mode="clip": sel is in range, and "raise" would gather via a copy
                xb = np.take(X, sel, axis=0, mode="clip",
                             out=_buf(model._ws, "x", (len(sel),) + X.shape[1:]))
                loss, grads = model.loss_and_grads(xb, y[sel])
                if not np.isfinite(loss):
                    raise NonFiniteLoss(epoch, bstart // cfg.batch_size, loss)
                total += loss * len(sel)
                step += 1
                for name, g in grads.items():
                    p = model.params[name]
                    if cfg.optimizer == "sgd":
                        p -= cfg.learning_rate * g
                    else:
                        m, v = state[name]
                        m *= 0.9
                        m += 0.1 * g
                        v *= 0.999
                        v += 0.001 * g * g
                        mhat = m / (1.0 - 0.9 ** step)
                        vhat = v / (1.0 - 0.999 ** step)
                        p -= cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)
            curve.append(total / n)
        return model, curve
    finally:
        del model._ws


def fit(X, y, labels, seed, params):
    """Build the network that params["kind"] names ("tcn" or "lstm") for the
    (N, G, F) tensor X, with one output per label, and train it on the label
    indices y. The per-epoch mean loss is kept as the model's loss_curve.

    params: channels, depth, kernel (tcn); hidden, layers, per_step (lstm);
    lr, epochs, batch_size, optimizer (training).
    """
    X = np.asarray(X, dtype=np.float64)
    _, grid, F = X.shape
    kind = params["kind"]
    if kind == "tcn":
        model = TcnModel(in_channels=F, n_classes=len(labels),
                         channels=int(params.get("channels", 32)),
                         depth=int(params.get("depth", 4)),
                         kernel=int(params.get("kernel", 5)),
                         grid=grid, seed=seed)
    elif kind == "lstm":
        model = LstmModel(in_channels=F, n_classes=len(labels),
                          hidden=int(params.get("hidden", 50)),
                          layers=int(params.get("layers", 2)),
                          seed=seed, per_step=bool(params.get("per_step", False)))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    cfg = TrainConfig(learning_rate=float(params.get("lr", 1e-3)),
                      epochs=int(params.get("epochs", 100)),
                      batch_size=int(params.get("batch_size", 32)),
                      seed=seed, optimizer=str(params.get("optimizer", "adam")))
    _, model.loss_curve = train(model, X, cfg, labels=y)
    return model


def predict(model, X) -> np.ndarray:
    """Index of the highest logit per trial of the (N, G, F) tensor X."""
    return model.predict(np.asarray(X, dtype=np.float64))


def grad_check(model, sample, eps: float = 1e-5, n_coords: int = 200,
               seed: int = 0) -> float:
    """Max relative error between analytic and central-difference gradients.

    sample is an (x, y) pair: a (T, F) matrix and its class index. Checks a
    random subset of at least n_coords parameter coordinates (all of them if
    the model is smaller); denominator floored at 1e-8.
    """
    if not (1e-6 <= eps <= 1e-4):
        raise ValueError("eps must lie in [1e-6, 1e-4]")
    x, y = sample
    X = _as_batch(x)
    yb = np.asarray([int(y)])
    _, grads = model.loss_and_grads(X, yb)
    names = sorted(model.params)
    sizes = [model.params[k].size for k in names]
    total = int(np.sum(sizes))
    rng = np.random.default_rng(seed)
    count = min(max(n_coords, 200), total)
    coords = rng.choice(total, size=count, replace=False)
    offsets = np.cumsum([0] + sizes)
    worst = 0.0
    for flat_idx in coords:
        which = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[which]
        local = int(flat_idx - offsets[which])
        p = model.params[name]
        orig = p.flat[local]
        p.flat[local] = orig + eps
        f_plus = model.loss(X, yb)
        p.flat[local] = orig - eps
        f_minus = model.loss(X, yb)
        p.flat[local] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        analytic = grads[name].flat[local]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def to_dict(model) -> dict:
    d = model.arch()
    d["params"] = {k: v.tolist() for k, v in model.params.items()}
    return d


def from_dict(d: dict):
    kind = d["kind"]
    if kind == "tcn":
        model = TcnModel(in_channels=d["in_channels"], n_classes=d["n_classes"],
                         channels=d["channels"], depth=d["depth"],
                         kernel=d["kernel"], grid=d["grid"])
    elif kind == "lstm":
        model = LstmModel(in_channels=d["in_channels"], n_classes=d["n_classes"],
                          hidden=d["hidden"], layers=d["layers"],
                          per_step=d.get("per_step", False))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    for k, v in d["params"].items():
        arr = np.asarray(v, dtype=np.float64)
        if arr.shape != model.params[k].shape:
            raise ValueError(f"parameter {k} has shape {arr.shape}")
        model.params[k] = arr
    return model


def save_model(model, path) -> None:
    Path(path).write_text(json.dumps(to_dict(model)) + "\n", encoding="utf-8")


def save_loss_curve(curve: Sequence[float], path) -> None:
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{repr(float(v))}" for i, v in enumerate(curve)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
