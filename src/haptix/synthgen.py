"""Parametric synthetic-trial generator.

Produces class-distinct wrench/pose profiles so the whole pipeline can be
exercised without the external dataset. Profiles are caricatures chosen for
verifiability, not physical fidelity: each compliance class gets a distinct
peak force, hard-skin items show a puncture drop, and the fork descends with
class-dependent speed. The pose stream is emitted with a fixed 30 ms sensor
lag so the alignment stage has something real to undo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    CLASS_ORDER,
    ComplianceClass,
    Dataset,
    ITEMS_BY_CLASS,
    Source,
    Trial,
)

POSE_SENSOR_LAG = 0.030  # seconds the pose stream trails the wrench stream

CONTACT_TIME = 0.2       # seconds from trial start to tine contact
START_HEIGHT = 0.25      # meters

# Per-class fz profile: (peak Newtons at domain_shift 1, rise seconds,
# post-peak level as fraction of peak). Hard-skin drops to 8/25 of its
# peak after puncture; the others settle slightly below peak and sustain.
# The settle keeps the near-peak dwell short for every class, so the
# observed sample maximum inflates uniformly instead of favoring whichever
# class plateaus longest.
_PROFILES = {
    ComplianceClass.HARD_SKIN: (25.0, 0.30, 8.0 / 25.0),
    ComplianceClass.HARD: (20.0, 0.30, 0.9),
    ComplianceClass.MEDIUM: (10.0, 0.35, 0.9),
    ComplianceClass.SOFT: (3.0, 0.40, 0.9),
}

# Descent speed in m/s (class-dependent unless fz_only).
_DESCENT_SPEED = {
    ComplianceClass.HARD_SKIN: 0.10,
    ComplianceClass.HARD: 0.085,
    ComplianceClass.MEDIUM: 0.07,
    ComplianceClass.SOFT: 0.055,
}
_FLAT_SPEED = 0.07

# Amplitude jitter per item slot within a class.
_ITEM_JITTER = (0.97, 1.0, 1.03)

# Trial-level amplitude spread as a multiple of noise_std. 0.5 keeps the
# class peaks separable at noise 0.05 (the 1-NN-on-peak regime) while still
# overlapping neighboring classes at noise 0.3.
_TRIAL_JITTER = 0.5


@dataclass(frozen=True)
class GenConfig:
    """Generator parameters.

    fz_only restricts the class signal to the fz channel alone (constant
    descent speed, no force/torque/tilt couplings); everything else is then
    class-independent noise, which is what feature-ablation checks need.
    """

    trials_per_class: int
    noise_std: float = 0.05
    sample_rate: float = 120.0
    duration: float = 1.5
    domain_shift: float = 1.0
    seed: int = 0
    fz_only: bool = False
    source: Source = Source.HUMAN

    def __post_init__(self):
        if self.trials_per_class < 1:
            raise ValueError("trials_per_class must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be > 0")
        if self.duration <= 0.82:
            raise ValueError("duration must exceed 0.82 s")
        if self.domain_shift <= 0:
            raise ValueError("domain_shift must be > 0")


# The AR(1) noise channels, in the order each trial draws them: wrench fx,
# fy, tx, ty, tz, then the true pose px, pz, rx, ry, rz.
_N_AR1 = 10


def _ar1_sigmas(cfg: GenConfig) -> np.ndarray:
    """Marginal standard deviation of each AR(1) channel."""
    s = cfg.domain_shift
    force = cfg.noise_std * 2.0 * s
    torque = cfg.noise_std * 0.5 * s
    position = cfg.noise_std * 0.01
    angle = cfg.noise_std * 0.02
    return np.array([force, force, torque, torque, torque,
                     position, position, angle, angle, angle])


def _ar1(eps: np.ndarray, sigma: np.ndarray, phi: float = 0.95) -> np.ndarray:
    """Stationary AR(1) noise, temporally correlated with marginal std sigma.

    eps holds standard normal innovations shaped (trials, channels, samples)
    and sigma one entry per channel. The recursion
    out[i] = phi * out[i - 1] + c * eps[i] runs in place over every channel
    of every trial at once, one vector step per sample, and is bit for bit
    the scalar one. A channel with sigma 0 is +0.0 throughout.
    """
    c = sigma * np.sqrt(1.0 - phi * phi)
    first = eps[:, :, 0] * sigma
    for rows in eps:
        # c * eps[i] for every i >= 1. One trial at a time: numpy copies a
        # strided in-place operand whole.
        rows *= c[:, None]
    eps[:, :, 0] = first
    step = np.empty(eps.shape[:2])
    for i in range(1, eps.shape[2]):
        # c * eps[i] + phi * out[i - 1]: addition commutes exactly
        np.multiply(eps[:, :, i - 1], phi, out=step)
        eps[:, :, i] += step
    eps[:, sigma == 0.0] = 0.0
    return eps


def _fz_clean(t: np.ndarray, label: ComplianceClass, amp: float) -> np.ndarray:
    peak, rise, tail = _PROFILES[label]
    peak *= amp
    knots_t = [0.0, CONTACT_TIME, CONTACT_TIME + rise]
    knots_v = [0.0, 0.0, peak]
    if tail != 1.0:
        knots_t.append(CONTACT_TIME + rise + 0.05)
        knots_v.append(peak * tail)
    return np.interp(t, knots_t, knots_v)


def _make_trial(cfg: GenConfig, label: ComplianceClass, index: int,
                t: np.ndarray, amp_draw: float, fz_noise: np.ndarray,
                ar: np.ndarray, meas_noise: np.ndarray) -> Trial:
    """One trial from its standard normal draws and its AR(1) channels."""
    s = cfg.domain_shift
    n = t.size

    slot = index % len(_ITEM_JITTER)
    item = ITEMS_BY_CLASS[label][slot % len(ITEMS_BY_CLASS[label])]
    # Item-slot jitter plus a per-trial amplitude draw. The trial-level term
    # scales with noise_std: unlike per-sample noise it cannot be averaged
    # away over the grid, so raising noise_std genuinely blurs neighboring
    # classes into each other instead of just roughening the curves.
    amp = _ITEM_JITTER[slot] * max(
        0.1, 1.0 + _TRIAL_JITTER * cfg.noise_std * amp_draw)
    peak = _PROFILES[label][0] * amp * s

    fz_clean = _fz_clean(t, label, amp) * s
    rel = fz_clean / peak  # normalized 0..1 force envelope

    # Noise scales with the load, not as a fixed floor: the pre-contact
    # phase must stay below the 0.5 N contact threshold at every noise_std,
    # otherwise windowing degenerates to a coin flip. fz noise rides its own
    # profile; the other channels share one class-independent ramp so they
    # carry no class information through their variance.
    env = np.interp(t, [0.0, CONTACT_TIME, CONTACT_TIME + 0.3], [0.0, 0.0, 1.0])
    fz = fz_clean + cfg.noise_std * fz_clean * fz_noise
    fx, fy, tx, ty, tz = ar[:5] * env

    wiggle = np.sin(2.0 * np.pi * 3.0 * (t - CONTACT_TIME)) * rel
    if not cfg.fz_only:
        # Tine lever arm couples vertical force into pitch torque.
        ty = ty - 0.015 * fz_clean
        if label is ComplianceClass.SOFT:
            # Slip signature: lateral force tied to a small tilt oscillation.
            fx = fx + 0.8 * s * amp * wiggle

    # True fork motion: vertical descent, optionally slowed-down/sped-up in
    # proportion to the normalized force so pose speed tracks |F| at lag 0.
    if cfg.fz_only:
        speed = np.full(n, _FLAT_SPEED)
    else:
        speed = _DESCENT_SPEED[label] * (1.0 + 0.5 * rel)
    dt = 1.0 / cfg.sample_rate
    descent = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * dt)])
    py_true = START_HEIGHT - descent
    px_true, pz_true, rx_true, ry_true, rz_true = ar[5:]
    if not cfg.fz_only and label is ComplianceClass.SOFT:
        rx_true = rx_true + 0.08 * wiggle

    # The pose sensor reports the state from 30 ms ago under the current
    # timestamp; before motion begins it reads the rest pose.
    t_lag = t - POSE_SENSOR_LAG
    lag = lambda sig: np.interp(t_lag, t, sig, left=sig[0])
    meas = cfg.noise_std * 0.01
    pose = np.column_stack([
        t,
        lag(px_true) + meas * meas_noise[0],
        lag(py_true) + meas * meas_noise[1],
        lag(pz_true) + meas * meas_noise[2],
        lag(rx_true),
        lag(ry_true),
        lag(rz_true),
    ])
    wrench = np.column_stack([t, fx, fy, fz, tx, ty, tz])

    return Trial(
        id=f"{cfg.source.value}-{label.label}-{index:04d}",
        subject=f"synth{1 + index % 4}",
        session=1 + (index // 4) % 3,
        food_item=item,
        label=label,
        wrench=wrench,
        pose=pose,
        source=cfg.source,
    )


def generate(cfg: GenConfig) -> Dataset:
    """Deterministic synthetic dataset: trials_per_class per compliance class.

    The draws and the AR(1) recursion run one class at a time, which bounds
    the memory beyond the returned trials to one class's draws.
    """
    rng = np.random.default_rng(cfg.seed)
    n = int(round(cfg.duration * cfg.sample_rate)) + 1
    t = np.arange(n) / cfg.sample_rate
    sigma = _ar1_sigmas(cfg)
    trials = []
    meas = 1 + (1 + _N_AR1) * n
    for label in CLASS_ORDER:
        # One row per trial, in the order the trial uses its draws: the
        # amplitude, the fz noise, the AR(1) innovations, then the three pose
        # measurement noises. The count does not depend on sigma, so a
        # channel's content does not depend on which other channels are active.
        z = rng.standard_normal((cfg.trials_per_class, meas + 3 * n))
        ar = _ar1(z[:, 1 + n:meas].reshape(-1, _N_AR1, n), sigma)
        for i, row in enumerate(z):
            trials.append(_make_trial(cfg, label, i, t, float(row[0]), row[1:1 + n],
                                      ar[i], row[meas:].reshape(3, n)))
    return Dataset(trials=tuple(trials))
