"""Domain model, trial file I/O, and stream time-alignment.

A trial is one feeding attempt: a wrench stream (force/torque in the fork's
local frame, z along the tines) and a pose stream (position in meters,
fixed-axis XYZ rotations in radians, global frame), plus the food item and
its compliance label.

A trial file is read by iter_trials, one validated record at a time, so a
caller that consumes each trial as it comes holds one trial's streams at
once; load_trials collects them into a Dataset.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import orjson

from .errors import (
    DegenerateStream,
    EmptyDataset,
    MalformedRecord,
    UnknownFoodItem,
)

# orjson parses every document of up to about 640 kB inside one 8 MiB buffer
# that it allocates on its first call. Made here, at import, the buffer gets a
# mapping of its own, whose pages become resident only as parsing uses them.
# Made by the first parse, it lands inside the heap whenever glibc's adaptive
# mmap threshold has by then risen past 8 MiB, which varies from run to run,
# and takes up free heap memory that a whole-file load's temporaries would
# have reused (load_trials of 40 trials of 2-6 s at 1 kHz: 99 MB peak RSS,
# 106 MB in about one run in eight). Read one record at a time, a file leaves
# far fewer temporaries: ingest of 40 trials of 2-6 s at 1 kHz peaked at
# 44.0-44.3 MB with or without this call, in 12 runs each.
orjson.loads(b"0")

# Measured lag of the pose stream behind the force/torque stream (seconds).
DEFAULT_STREAM_DELAY = 0.030


class ComplianceClass(enum.IntEnum):
    """Four compliance categories, totally ordered by stiffness.

    Enum values encode the stiffness rank so that
    HARD_SKIN > HARD > MEDIUM > SOFT, and |a - b| is the adjacency
    distance used in confusion analysis.
    """

    HARD_SKIN = 3
    HARD = 2
    MEDIUM = 1
    SOFT = 0

    @property
    def label(self) -> str:
        return _CLASS_LABELS[self]


_CLASS_LABELS = {
    ComplianceClass.HARD_SKIN: "hard-skin",
    ComplianceClass.HARD: "hard",
    ComplianceClass.MEDIUM: "medium",
    ComplianceClass.SOFT: "soft",
}

# Canonical reporting / tie-break order.
CLASS_ORDER = (
    ComplianceClass.HARD_SKIN,
    ComplianceClass.HARD,
    ComplianceClass.MEDIUM,
    ComplianceClass.SOFT,
)


def class_index(c: ComplianceClass) -> int:
    """Position of a class in CLASS_ORDER (0 = hard-skin ... 3 = soft)."""
    return 3 - int(c)


class Source(enum.Enum):
    HUMAN = "human"
    ROBOT = "robot"


# The twelve solid food items and their compliance categories.
ITEM_CLASSES = {
    "bell pepper": ComplianceClass.HARD_SKIN,
    "cherry tomato": ComplianceClass.HARD_SKIN,
    "grape": ComplianceClass.HARD_SKIN,
    "carrot": ComplianceClass.HARD,
    "celery": ComplianceClass.HARD,
    "apple": ComplianceClass.HARD,
    "cantaloupe": ComplianceClass.MEDIUM,
    "watermelon": ComplianceClass.MEDIUM,
    "strawberry": ComplianceClass.MEDIUM,
    "banana": ComplianceClass.SOFT,
    "blackberry": ComplianceClass.SOFT,
    "egg": ComplianceClass.SOFT,
}

ITEM_ORDER = tuple(ITEM_CLASSES)

ITEMS_BY_CLASS = {
    c: tuple(item for item, cls in ITEM_CLASSES.items() if cls is c)
    for c in CLASS_ORDER
}

WRENCH_COLUMNS = ("t", "fx", "fy", "fz", "tx", "ty", "tz")
POSE_COLUMNS = ("t", "px", "py", "pz", "rx", "ry", "rz")


def normalize_item_name(name: str) -> str:
    return " ".join(name.replace("_", " ").replace("-", " ").lower().split())


def item_class(name: str) -> ComplianceClass:
    """Map a food item name to its compliance class; reject unknown items."""
    key = normalize_item_name(name)
    if key not in ITEM_CLASSES:
        raise UnknownFoodItem(name)
    return ITEM_CLASSES[key]


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]. Values already in range pass through."""
    if -math.pi < a <= math.pi:
        return a
    a = a - 2.0 * math.pi * round(a / (2.0 * math.pi))
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """wrap_angle elementwise over a finite array, in the same operation order
    (np.round rounds half to even, as round does)."""
    w = a - 2.0 * math.pi * np.round(a / (2.0 * math.pi))
    w = np.where(w <= -math.pi, w + 2.0 * math.pi, w)
    return np.where((-math.pi < a) & (a <= math.pi), a, w)


def quaternion_to_fixed_xyz(qw: float, qx: float, qy: float, qz: float):
    """Convert a unit quaternion to fixed-axis XYZ rotation angles."""
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError("quaternion has zero or non-finite norm")
    qw, qx, qy, qz = qw / n, qx / n, qy / n, qz / n
    rx = math.atan2(2.0 * (qw * qx + qy * qz), 1.0 - 2.0 * (qx * qx + qy * qy))
    s = max(-1.0, min(1.0, 2.0 * (qw * qy - qz * qx)))
    ry = math.asin(s)
    rz = math.atan2(2.0 * (qw * qz + qx * qy), 1.0 - 2.0 * (qy * qy + qz * qz))
    return wrap_angle(rx), wrap_angle(ry), wrap_angle(rz)


def _validate_stream(arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 7:
        raise ValueError(f"{name} stream must be (n, 7), got {arr.shape}")
    if arr.shape[0] < 2:
        raise DegenerateStream(f"{name} stream has {arr.shape[0]} samples, need >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} stream contains non-finite values")
    t = arr[:, 0]
    if t[0] < 0.0:
        raise ValueError(f"{name} stream starts at negative time {t[0]}")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError(f"{name} stream timestamps are not strictly increasing")
    return arr


@dataclass(frozen=True, eq=False)
class Trial:
    """One feeding attempt. Immutable after construction."""

    id: str
    subject: str
    session: int
    food_item: str
    label: ComplianceClass
    wrench: np.ndarray  # (n, 7) columns t, fx, fy, fz, tx, ty, tz
    pose: np.ndarray  # (m, 7) columns t, px, py, pz, rx, ry, rz
    source: Source = Source.HUMAN

    def __post_init__(self):
        if self.session < 1:
            raise ValueError(f"session must be >= 1, got {self.session}")
        # save_trials writes through orjson, which encodes neither integers
        # wider than 64 bits nor lone surrogates
        if self.session >= 2**64:
            raise ValueError(f"session must be < 2**64, got {self.session}")
        for name in ("id", "subject", "food_item"):
            text = getattr(self, name)
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise ValueError(f"{name} is not valid Unicode: {text!r}") from None
        w = _validate_stream(self.wrench, "wrench").copy()
        p = _validate_stream(self.pose, "pose").copy()
        w.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "wrench", w)
        object.__setattr__(self, "pose", p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trial):
            return NotImplemented
        return (
            self.id == other.id
            and self.subject == other.subject
            and self.session == other.session
            and self.food_item == other.food_item
            and self.label is other.label
            and self.source is other.source
            and np.array_equal(self.wrench, other.wrench)
            and np.array_equal(self.pose, other.pose)
        )


@dataclass(frozen=True, eq=False)
class Dataset:
    trials: tuple[Trial, ...]

    def __post_init__(self):
        object.__setattr__(self, "trials", tuple(self.trials))

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.trials == other.trials


def _row_floats(row, lineno: int, name: str, widths: str) -> list[float]:
    """The values of one stream row as floats. A value float() rejects is a
    malformed row; an integer too large for a float is a non-finite value."""
    try:
        return [float(v) for v in row]
    except OverflowError:
        raise MalformedRecord(lineno, f"{name} row contains NaN/Inf") from None
    except (TypeError, ValueError):
        raise MalformedRecord(
            lineno, f"{name} row must have {widths} numbers: {row!r}") from None


def _parse_pose_row(row, lineno: int) -> list[float]:
    if len(row) == 8:
        # t, px, py, pz followed by a quaternion (w, x, y, z).
        t, px, py, pz, qw, qx, qy, qz = _row_floats(row, lineno, "pose", "7 or 8")
        try:
            rx, ry, rz = quaternion_to_fixed_xyz(qw, qx, qy, qz)
        except ValueError as exc:
            raise MalformedRecord(lineno, str(exc)) from None
        # angles in (-pi, pi], which the wrap below leaves as they are
        vals = [t, px, py, pz, rx, ry, rz]
    elif len(row) == 7:
        vals = _row_floats(row, lineno, "pose", "7 or 8")
    else:
        raise MalformedRecord(lineno, f"pose row has {len(row)} fields, expected 7 or 8")
    # checked before wrapping, which cannot round a NaN or an infinity
    if not all(math.isfinite(v) for v in vals):
        raise MalformedRecord(lineno, "pose row contains NaN/Inf")
    vals[4:] = [wrap_angle(a) for a in vals[4:]]
    return vals


def _stream_array(rows, width: int):
    """rows as one (n, width) float64 array when every value is a finite int
    or float; None otherwise, and the row loop then converts or reports."""
    try:
        arr = np.asarray(rows)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != 2 or arr.shape[1] != width or arr.dtype.kind not in "fi":
        return None
    arr = arr.astype(np.float64, copy=False)
    return arr if np.isfinite(arr).all() else None


def _trial_from_record(rec: dict, lineno: int) -> Trial:
    for key in ("id", "subject", "session", "food_item", "wrench", "pose"):
        if key not in rec:
            raise MalformedRecord(lineno, f"missing field {key!r}")
    label = item_class(str(rec["food_item"]))
    source_raw = str(rec.get("source", "human")).lower()
    try:
        source = Source(source_raw)
    except ValueError:
        raise MalformedRecord(lineno, f"unknown source {rec['source']!r}") from None

    def rows_to_array(rows, width, name):
        if not isinstance(rows, list):
            raise MalformedRecord(lineno, f"{name} must be a list of rows")
        out = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise MalformedRecord(
                    lineno, f"{name} row must have {width} numbers: {row!r}"
                )
            vals = _row_floats(row, lineno, name, str(width))
            if not all(math.isfinite(v) for v in vals):
                raise MalformedRecord(lineno, f"{name} row contains NaN/Inf")
            out.append(vals)
        return np.asarray(out, dtype=np.float64)

    wrench = _stream_array(rec["wrench"], 7)
    if wrench is None:
        wrench = rows_to_array(rec["wrench"], 7, "wrench")
    pose_rows = rec["pose"]
    if not isinstance(pose_rows, list):
        raise MalformedRecord(lineno, "pose must be a list of rows")
    pose = _stream_array(pose_rows, 7)
    if pose is not None:
        pose[:, 4:] = _wrap_angles(pose[:, 4:])
    else:
        pose = []
        for row in pose_rows:
            if not isinstance(row, (list, tuple)):
                raise MalformedRecord(lineno, f"pose row must be a list: {row!r}")
            pose.append(_parse_pose_row(row, lineno))
        pose = np.asarray(pose, dtype=np.float64)
    try:
        return Trial(
            id=str(rec["id"]),
            subject=str(rec["subject"]),
            session=int(rec["session"]),
            food_item=str(rec["food_item"]),
            label=label,
            wrench=wrench,
            pose=pose,
            source=source,
        )
    except (ValueError, DegenerateStream) as exc:
        raise MalformedRecord(lineno, str(exc)) from None


# Record fields that load as plain strings or integers. orjson reads an
# integer wider than 64 bits as a float, where json keeps the int.
_META_FIELDS = ("id", "subject", "session", "food_item", "source")


def _read_line(line: str, lineno: int) -> Trial:
    """One record line as a Trial, parsed by orjson. A line that orjson
    rejects (NaN, Infinity, 1e400, broken JSON), whose metadata is not a
    plain string or integer, or whose record is malformed is read again
    through json.loads, so its values and its error are json's (a malformed
    row's message shows the row as json read it)."""
    try:
        rec = orjson.loads(line)
        if isinstance(rec, dict) and all(
                type(rec.get(key, "")) in (str, int) for key in _META_FIELDS):
            return _trial_from_record(rec, lineno)
    except (orjson.JSONDecodeError, MalformedRecord):
        pass
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(rec, dict):
        raise MalformedRecord(lineno, "record is not a JSON object")
    return _trial_from_record(rec, lineno)


def iter_trials(path):
    """The trials of a JSON-lines trial file, read and validated one line at
    a time. Raises on the first invalid record, and EmptyDataset at the end
    of a file without one."""
    path = Path(path)
    empty = True
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                empty = False
                yield _read_line(line, lineno)
    if empty:
        raise EmptyDataset(f"no trials in {path}")


def load_trials(path) -> Dataset:
    """Every trial of a JSON-lines trial file, as one Dataset."""
    return Dataset(trials=tuple(iter_trials(path)))


def save_trials(trials, path) -> None:
    """Write trials (a Dataset or any iterable of Trials, consumed one at a
    time) in the JSON-lines trial format (round-trip exact), as compact
    JSON."""
    path = Path(path)
    with path.open("wb") as fh:
        for t in trials:
            rec = {
                "id": t.id,
                "subject": t.subject,
                "session": t.session,
                "food_item": t.food_item,
                "source": t.source.value,
                "wrench": t.wrench,
                "pose": t.pose,
            }
            fh.write(orjson.dumps(
                rec, option=orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE))


def align_streams(trial: Trial, delay: float = DEFAULT_STREAM_DELAY) -> Trial:
    """Shift pose timestamps by -delay so both streams share one timeline.

    Samples whose shifted time falls below zero are dropped.
    """
    if not math.isfinite(delay):
        raise ValueError("delay must be finite")
    if delay == 0.0:
        return trial
    pose = trial.pose.copy()
    pose[:, 0] -= delay
    pose = pose[pose[:, 0] >= 0.0]
    if pose.shape[0] < 2:
        raise DegenerateStream(
            f"pose stream of trial {trial.id} has {pose.shape[0]} samples after "
            f"alignment with delay {delay}"
        )
    return replace(trial, pose=pose)
