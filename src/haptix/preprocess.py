"""Contact detection, acquisition windowing, 64-step gridding, derivatives,
normalization, and feature assembly.

All functions are pure; identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core import POSE_COLUMNS, WRENCH_COLUMNS, Trial
from .errors import (
    DegenerateStream,
    DimensionMismatch,
    EmptyTrainingSet,
    NoContact,
)

# Canonical channel order, the stream columns after time; derivative channels
# follow in the same order.
ALL_CHANNELS = WRENCH_COLUMNS[1:] + POSE_COLUMNS[1:]

CHANNEL_GROUPS = {
    "force": ("fx", "fy", "fz"),
    "torque": ("tx", "ty", "tz"),
    "position": ("px", "py", "pz"),
    "rotation": ("rx", "ry", "rz"),
}

GRID_STEPS = 64
DEFAULT_THRESHOLD = 0.5   # Newtons
DEFAULT_HOLD = 0.05       # seconds
DEFAULT_DURATION = 0.82   # seconds
STD_FLOOR = 1e-8

_TOKEN_RE = re.compile(r"\s*([+\-]?)\s*([a-z]+)\s*")


@dataclass(frozen=True)
class FeatureSet:
    """Selected raw channels plus an optional derivative for each.

    channels are stored deduplicated in canonical order, so two specs that
    select the same channels compare equal.
    """

    channels: tuple[str, ...]
    derivatives: bool = False

    def __post_init__(self):
        bad = [c for c in self.channels if c not in ALL_CHANNELS]
        if bad:
            raise ValueError(f"unknown channels {bad}")
        ordered = tuple(c for c in ALL_CHANNELS if c in set(self.channels))
        if not ordered:
            raise ValueError("feature set selects no channels")
        object.__setattr__(self, "channels", ordered)

    @classmethod
    def parse(cls, text: str) -> "FeatureSet":
        """Parse a spec like "all", "fz", "force+torque+deriv", "all-fz".

        Tokens are channel names, group names (force, torque, position,
        rotation), "all", or "deriv"; '+' (or ',') adds and '-' removes.
        """
        s = text.strip().lower().replace(",", "+")
        if not s:
            raise ValueError("empty feature spec")
        pos = 0
        selected: set[str] = set()
        deriv = False
        while pos < len(s):
            m = _TOKEN_RE.match(s, pos)
            if m is None or (pos > 0 and m.group(1) == ""):
                raise ValueError(f"cannot parse feature spec at {s[pos:]!r}")
            sign, name = m.group(1) or "+", m.group(2)
            pos = m.end()
            if name == "deriv":
                deriv = sign == "+"
                continue
            if name == "all":
                chans = ALL_CHANNELS
            elif name in CHANNEL_GROUPS:
                chans = CHANNEL_GROUPS[name]
            elif name in ALL_CHANNELS:
                chans = (name,)
            else:
                raise ValueError(f"unknown feature token {name!r}")
            if sign == "+":
                selected.update(chans)
            else:
                selected.difference_update(chans)
        if not selected:
            raise ValueError(f"feature spec {text!r} selects no channels")
        return cls(channels=tuple(selected), derivatives=deriv)

    @property
    def channel_names(self) -> tuple[str, ...]:
        if self.derivatives:
            return self.channels + tuple("d" + c for c in self.channels)
        return self.channels

    def spec_string(self) -> str:
        base = "+".join(self.channels) if set(self.channels) != set(ALL_CHANNELS) else "all"
        return base + ("+deriv" if self.derivatives else "")


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std fitted on training data only."""

    mean: np.ndarray
    std: np.ndarray
    channel_names: tuple[str, ...]

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).copy()
        std = np.asarray(self.std, dtype=np.float64).copy()
        if mean.shape != (len(self.channel_names),) or std.shape != mean.shape:
            raise ValueError("stats shape inconsistent with channel names")
        if np.any(std <= 0.0):
            raise ValueError("std must be positive (floored at fit time)")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    def apply(self, X) -> np.ndarray:
        """(X - mean) / std along the last axis of X: a (G, F) trial or an
        (N, G, F) tensor with one column per normalization channel."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[-1:] != self.mean.shape:
            raise DimensionMismatch(
                f"features of shape {X.shape} do not match normalization "
                f"channels {self.channel_names}"
            )
        # in place: one result-sized allocation, the bits of (X - mean) / std
        with np.errstate(over="ignore", invalid="ignore"):
            out = X - self.mean
            out /= self.std
        _check_finite(out)
        return out


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("feature matrix contains non-finite values")


class WindowedTrial(NamedTuple):
    trial: Trial
    truncated: bool


def detect_contact(trial: Trial, threshold: float = DEFAULT_THRESHOLD,
                   hold: float = DEFAULT_HOLD) -> float:
    """Earliest time where |force| reaches threshold and stays there for hold.

    The hold window must be fully covered by the recording; a crossing too
    close to the end of the trace does not count.
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be > 0")
    if not hold >= 0.0:
        raise ValueError("hold must be >= 0")
    t = trial.wrench[:, 0]
    mag = np.linalg.norm(trial.wrench[:, 1:4], axis=1)
    above = mag >= threshold
    n = t.shape[0]
    # first index at or after each sample that is below threshold (n if none)
    next_below = np.minimum.accumulate(np.where(above, n, np.arange(n))[::-1])[::-1]
    end = t + hold
    # one past the last sample of the window [t_i, t_i + hold]
    window_end = np.searchsorted(t, end, side="right")
    held = above & (end <= t[-1]) & (window_end <= next_below)
    if held.any():
        return float(t[np.argmax(held)])
    raise NoContact(
        f"no sustained force above {threshold} N for {hold} s in trial {trial.id}"
    )


def extract_window(trial: Trial, t0: float,
                   duration: float = DEFAULT_DURATION) -> WindowedTrial:
    """Restrict both streams to [t0, t0 + duration], timestamps rebased to 0.

    truncated is set when the recording does not extend past the window end.
    """
    if duration <= 0.0:
        raise ValueError("duration must be > 0")
    if t0 < 0.0:
        raise ValueError("t0 must be >= 0")
    t1 = t0 + duration

    def cut(stream, name):
        t = stream[:, 0]
        seg = stream[(t >= t0) & (t <= t1)]
        if seg.shape[0] < 2:
            raise DegenerateStream(
                f"{name} stream of trial {trial.id} has {seg.shape[0]} samples "
                f"in window [{t0}, {t1}]"
            )
        seg[:, 0] -= t0
        return seg

    seg = replace(trial, wrench=cut(trial.wrench, "wrench"),
                  pose=cut(trial.pose, "pose"))
    truncated = min(trial.wrench[-1, 0], trial.pose[-1, 0]) <= t1
    return WindowedTrial(trial=seg, truncated=truncated)


def _grid(stream: np.ndarray, cols, n: int) -> np.ndarray:
    """The columns `cols` of a stream interpolated linearly onto n evenly
    spaced times over its span, as an (n, len(cols)) array; column 0 holds
    the times, which the caller has checked: at least two, strictly
    increasing. The endpoints, and input already on the grid, come back
    exactly: np.interp returns fp[j] at x == xp[j], and linspace ends on
    t[-1]."""
    t = stream[:, 0]
    grid = np.linspace(t[0], t[-1], n)
    return np.column_stack([np.interp(grid, t, stream[:, c]) for c in cols])


def first_derivative(grid_values, dt: float) -> np.ndarray:
    """Finite-difference derivative along axis 0 of a uniform grid of one
    channel (1-D) or of one channel per column (2-D), same shape as input.

    Central differences inside, second-order one-sided stencils at the ends
    (plain one-sided when only two points exist).
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    v = np.asarray(grid_values, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[0] < 2:
        raise ValueError("grid_values must be 1-D or 2-D with >= 2 points")
    if v.shape[0] == 2:
        d = (v[1] - v[0]) / dt
        return np.array([d, d])
    # overflow leaves inf/NaN, which assemble_features reports
    with np.errstate(over="ignore", invalid="ignore"):
        return np.gradient(v, dt, axis=0, edge_order=2)


def fit_norm(X, channel_names) -> NormStats:
    """Per-channel mean/std pooled over every row of X, whose last axis holds
    one column per channel: a (G, F) trial or an (N, G, F) tensor."""
    X = np.asarray(X, dtype=np.float64)
    names = tuple(channel_names)
    if not X.size:
        raise EmptyTrainingSet("fit_norm requires at least one feature row")
    if X.shape[-1:] != (len(names),):
        raise DimensionMismatch(
            f"features of shape {X.shape} vs {len(names)} channel names"
        )
    rows = X.reshape(-1, len(names))
    # overflow leaves inf/NaN statistics; NormStats.apply reports them
    with np.errstate(over="ignore", invalid="ignore"):
        std = np.maximum(rows.std(axis=0), STD_FLOOR)
        mean = rows.mean(axis=0)
    return NormStats(mean=mean, std=std, channel_names=names)


def assemble_features(trial: Trial, fs: FeatureSet,
                      n: int = GRID_STEPS) -> np.ndarray:
    """Grid each stream's selected channels onto the n-grid and stack them
    into an (n, F) array ordered like fs.channel_names.

    Derivative channels (when enabled) are computed on the grid from the
    resampled values.
    """
    raw = []
    derivs = []
    for stream, names in ((trial.wrench, WRENCH_COLUMNS),
                          (trial.pose, POSE_COLUMNS)):
        cols = [i for i, name in enumerate(names) if name in fs.channels]
        if cols:
            vals = _grid(stream, cols, n)
            raw.append(vals)
            if fs.derivatives:
                span = stream[-1, 0] - stream[0, 0]
                derivs.append(first_derivative(vals, span / (n - 1)))
    values = np.concatenate(raw + derivs, axis=1)
    _check_finite(values)
    return values


@dataclass(frozen=True)
class PreprocConfig:
    """Windowing and gridding parameters for the trial -> features pipeline.

    duration None means the full post-contact phase instead of a fixed prefix.
    """

    threshold: float = DEFAULT_THRESHOLD
    hold: float = DEFAULT_HOLD
    duration: Optional[float] = DEFAULT_DURATION
    grid: int = GRID_STEPS

    def __post_init__(self):
        if not (0 < self.threshold < np.inf and 0 <= self.hold < np.inf
                and self.grid >= 2):
            raise ValueError("invalid preprocessing parameters")
        if self.duration is not None and not 0 < self.duration < np.inf:
            raise ValueError("duration must be finite and > 0")


def prepare_trial(trial: Trial, fs: FeatureSet,
                  cfg: PreprocConfig = PreprocConfig()) -> np.ndarray:
    """Full chain: contact detection, windowing, gridding; not normalized
    (see NormStats.apply)."""
    t0 = detect_contact(trial, cfg.threshold, cfg.hold)
    if cfg.duration is None:
        duration = max(trial.wrench[-1, 0], trial.pose[-1, 0]) - t0
        if duration <= 0.0:
            raise DegenerateStream(f"trial {trial.id} ends at contact")
    else:
        duration = cfg.duration
    seg = extract_window(trial, t0, duration).trial
    return assemble_features(seg, fs, cfg.grid)
