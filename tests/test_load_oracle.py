"""Trial-file parsing and writing against the code they replaced.

Two oracles:
- the per-value conversion that `core._trial_from_record` ran on every
  record before it was vectorized, with a value that float() rejects or
  overflows on reported as a MalformedRecord of its row. On any record,
  both must return equal trials or raise the same exception type with the
  same message;
- the json.loads reader and json.dumps writer that `load_trials` and
  `save_trials` used before orjson. Files must round-trip bitwise, each reader
  must read the other's files to equal trials, and a rejected line must get
  the same error and line number.
"""

import json
import math
import struct

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptix.core import (
    Dataset,
    Source,
    Trial,
    _parse_pose_row,
    _trial_from_record,
    _wrap_angles,
    item_class,
    load_trials,
    save_trials,
    wrap_angle,
)
from haptix.errors import DegenerateStream, EmptyDataset, MalformedRecord


def oracle_trial_from_record(rec, lineno):
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
            try:
                vals = [float(v) for v in row]
            except OverflowError:
                raise MalformedRecord(lineno, f"{name} row contains NaN/Inf") from None
            except (TypeError, ValueError):
                raise MalformedRecord(
                    lineno, f"{name} row must have {width} numbers: {row!r}"
                ) from None
            if not all(math.isfinite(v) for v in vals):
                raise MalformedRecord(lineno, f"{name} row contains NaN/Inf")
            out.append(vals)
        return np.asarray(out, dtype=np.float64)

    wrench = rows_to_array(rec["wrench"], 7, "wrench")
    pose_rows = rec["pose"]
    if not isinstance(pose_rows, list):
        raise MalformedRecord(lineno, "pose must be a list of rows")
    pose = []
    for row in pose_rows:
        if not isinstance(row, (list, tuple)):
            raise MalformedRecord(lineno, f"pose row must be a list: {row!r}")
        vals = _parse_pose_row(row, lineno)
        if not all(math.isfinite(v) for v in vals):
            raise MalformedRecord(lineno, "pose row contains NaN/Inf")
        pose.append(vals)
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


def outcome(parse, rec):
    try:
        return "ok", parse(rec, 7)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


ANGLES = st.sampled_from([math.pi, -math.pi, 3 * math.pi, -3 * math.pi,
                          5 * math.pi, 0.0, -0.0, 1e17])
NUMBERS = (st.floats(-50.0, 50.0, allow_nan=False) | st.integers(-5, 5) | ANGLES
           | st.integers(2**53 - 3, 2**53 + 3))
ODD_CELLS = (st.sampled_from([True, False, None, "nan", "inf", "1e400", "x", "",
                              2**70, 10**400, 1e308, [1.0, 2.0], [[0.5]],
                              {"v": 1}])
             | st.floats(-50.0, 50.0, allow_nan=False).map(repr))


@st.composite
def streams(draw, width):
    """Rows with an increasing time column. In half of the streams some cells,
    rows or the whole stream are replaced by values the loader has to reject
    or convert one by one."""
    n = draw(st.integers(2, 6) | st.integers(0, 1))
    t0 = draw(st.sampled_from([0.0, 0.25, 1, 2, -0.5]))
    steps = draw(st.lists(st.floats(1e-3, 0.1) | st.integers(1, 2),
                          min_size=n, max_size=n))
    rows = []
    for i in range(n):
        t = t0 + sum(steps[:i])
        rows.append([t] + [draw(NUMBERS) for _ in range(width - 1)])
    if not draw(st.booleans(), label="odd"):
        return rows
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["cell", "non-finite", "width", "row", "stream"]))
        if kind == "stream":
            return draw(st.sampled_from([{}, "rows", 3, None, [[]]]))
        if not rows:
            continue
        i = draw(st.integers(0, len(rows) - 1))
        if not isinstance(rows[i], list):
            continue
        if kind in ("cell", "non-finite"):
            cells = ODD_CELLS if kind == "cell" else st.sampled_from(
                [math.nan, math.inf, -math.inf])
            # a "width" step may already have dropped this row's last cell
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(cells)
        elif kind == "width":
            rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0.5]
        else:
            rows[i] = draw(st.sampled_from([0.5, "row", None, {"t": 0}]))
    return rows


@st.composite
def records(draw):
    pose = draw(streams(7))
    if draw(st.booleans(), label="quaternion") and isinstance(pose, list):
        pose = [row[:4] + [0.9, 0.1, -0.2, 0.3] if isinstance(row, list) else row
                for row in pose]
    rec = {"id": "t", "subject": "s1", "session": 1, "food_item": "carrot",
           "source": "robot", "wrench": draw(streams(7)), "pose": pose}
    return json.loads(json.dumps(rec))


class TestRecordOracle:
    @settings(max_examples=400, deadline=None)
    @given(records())
    def test_same_trial_or_same_error(self, rec):
        assert outcome(_trial_from_record, rec) == outcome(oracle_trial_from_record, rec)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-1e18, 1e18) | ANGLES, min_size=1, max_size=20))
    def test_wrap_angles_equals_wrap_angle(self, values):
        got = _wrap_angles(np.array(values, dtype=np.float64))
        want = np.array([wrap_angle(v) for v in values])
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def oracle_load_trials(path):
    trials = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(lineno, f"invalid JSON: {exc.msg}") from None
            if not isinstance(rec, dict):
                raise MalformedRecord(lineno, "record is not a JSON object")
            trials.append(_trial_from_record(rec, lineno))
    if not trials:
        raise EmptyDataset(f"no trials in {path}")
    return Dataset(trials=tuple(trials))


def oracle_save_trials(dataset, path):
    with open(path, "w", encoding="utf-8") as fh:
        for t in dataset.trials:
            rec = {
                "id": t.id,
                "subject": t.subject,
                "session": t.session,
                "food_item": t.food_item,
                "source": t.source.value,
                "wrench": t.wrench.tolist(),
                "pose": t.pose.tolist(),
            }
            fh.write(json.dumps(rec) + "\n")


def load_outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # compared by type, message and line number
        return type(exc), str(exc), getattr(exc, "line_number", None)


def bitwise_equal(a: Dataset, b: Dataset) -> bool:
    return a == b and all(
        x.wrench.tobytes() == y.wrench.tobytes() and x.pose.tobytes() == y.pose.tobytes()
        for x, y in zip(a.trials, b.trials))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1e-05, 1e16, 1e22, 1e23,
               9007199254740993.0, 0.30000000000000004, 123456789.12345679]
# any finite float64, drawn from its bit pattern
ANY_FLOAT = (st.integers(0, 2**64 - 1)
             .map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
             .filter(math.isfinite)) | st.sampled_from(EDGE_FLOATS)
ANGLE = st.floats(-math.pi, math.pi, exclude_min=True) | st.sampled_from([-0.0, math.pi])
ITEM_NAMES = ("carrot", "egg", "bell pepper", "watermelon")
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@st.composite
def trials(draw, i):
    """A trial whose cells cover the whole float64 range; the time column is
    any increasing run of non-negative floats, and the pose angles are in
    (-pi, pi] so that the loader leaves them as they are."""
    def stream(angles):
        n = draw(st.integers(2, 5))
        t = sorted(draw(st.sets(ANY_FLOAT.map(abs), min_size=n, max_size=n)))
        rows = []
        for ti in t:
            cells = [draw(ANY_FLOAT) for _ in range(3)]
            cells += [draw(ANGLE if angles else ANY_FLOAT) for _ in range(3)]
            rows.append([ti] + cells)
        return np.array(rows, dtype=np.float64)

    item = draw(st.sampled_from(ITEM_NAMES))
    return Trial(id=f"t{i}-" + draw(TEXT), subject=draw(TEXT),
                 session=draw(st.integers(1, 2**64 - 1)), food_item=item,
                 label=item_class(item), wrench=stream(False), pose=stream(True),
                 source=draw(st.sampled_from(list(Source))))


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 3))
    return Dataset(trials=tuple(draw(trials(i)) for i in range(n)))


class TestTrialFileOracle:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_round_trip_is_bitwise(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("io") / "d.jsonl"
        save_trials(ds, path)
        assert bitwise_equal(load_trials(path), ds)
        assert bitwise_equal(oracle_load_trials(path), ds)

    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_reads_oracle_written_files(self, tmp_path_factory, ds):
        path = tmp_path_factory.mktemp("io") / "d.jsonl"
        oracle_save_trials(ds, path)
        assert bitwise_equal(load_trials(path), oracle_load_trials(path))
        assert bitwise_equal(load_trials(path), ds)


GOOD_RECORD = {"id": "t", "subject": "s1", "session": 1, "food_item": "carrot",
               "source": "robot",
               "wrench": [[0.0, 1, 2, 3, 4, 5, 6], [0.5, 1, 2, 3, 4, 5, 6]],
               "pose": [[0.0, 1, 2, 3, 0.1, 0.2, 0.3], [0.5, 1, 2, 3, 0.1, 0.2, 0.3]]}
BAD_TOKENS = ["NaN", "Infinity", "-Infinity", "1e400", "-1e400",
              "1.7976931348623159e308", "2e308"]
BIG_INTS = [2**64, 2**64 - 1, -(2**63) - 1, 2**70,
            123456789012345678901234567890, 10**400, -(10**400)]


@st.composite
def bad_lines(draw):
    """A record line that the json reader accepts with a value orjson refuses
    or reads differently, or a line that is not a JSON object at all."""
    kind = draw(st.sampled_from(["token", "big-int", "broken", "not-object"]))
    if kind == "not-object":
        return draw(st.sampled_from(["[1, 2]", "3", '"rec"', "null", "NaN"]))
    line = json.dumps(GOOD_RECORD)
    if kind == "broken":
        return line[:draw(st.integers(0, len(line) - 1))] + draw(
            st.sampled_from(["", "}", ",}", "]", " x", "\\"]))
    value = draw(st.sampled_from(BAD_TOKENS) if kind == "token"
                 else st.sampled_from(BIG_INTS).map(str))
    field = draw(st.sampled_from(["id", "subject", "session", "wrench", "pose"]))
    rec = json.loads(line)
    if field in ("wrench", "pose"):
        row = draw(st.integers(0, 1))
        # a wrong-width row puts the value into json's error message
        if draw(st.booleans()):
            rec[field][row].append(0.0)
        rec[field][row][draw(st.integers(0, 6))] = "@"
    else:
        rec[field] = "@"
    return json.dumps(rec).replace('"@"', value)


class TestRejectedLines:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2), bad_lines())
    def test_same_outcome_as_json_reader(self, tmp_path_factory, good_before, line):
        path = tmp_path_factory.mktemp("io") / "d.jsonl"
        path.write_text(
            "".join(json.dumps(GOOD_RECORD) + "\n" for _ in range(good_before))
            + line + "\n", encoding="utf-8")
        assert load_outcome(load_trials, path) == load_outcome(oracle_load_trials, path)


class TestWideIntegers:
    """orjson reads an integer literal wider than 64 bits as the nearest float,
    where json keeps the exact int. The loader keeps json's values: stream
    cells become that same float either way, and a record whose metadata holds
    such a literal is read by json."""

    def test_orjson_reads_wide_integers_as_floats(self):
        assert orjson.loads("18446744073709551616") == 1.8446744073709552e19
        assert type(orjson.loads("123456789012345678901234567890")) is float
        assert orjson.loads("18446744073709551615") == 2**64 - 1

    def test_metadata_keeps_json_values(self, tmp_path):
        rec = dict(GOOD_RECORD, id=18446744073709551616,
                   subject=123456789012345678901234567890, session=2**64 - 1)
        rec["wrench"] = [[0.0, 2**70, 0, 0, 0, 0, -(2**65)], [0.5, 1, 2, 3, 4, 5, 6]]
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        trial = load_trials(path).trials[0]
        assert trial.id == "18446744073709551616"
        assert trial.subject == "123456789012345678901234567890"
        assert trial.session == 2**64 - 1
        assert trial.wrench[0, 1] == float(2**70) and trial.wrench[0, 6] == -float(2**65)
        assert bitwise_equal(load_trials(path), oracle_load_trials(path))

    def test_session_beyond_64_bits_is_rejected(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(dict(GOOD_RECORD, session=2**64)) + "\n",
                        encoding="utf-8")
        with pytest.raises(MalformedRecord, match=r"line 1: session must be < 2\*\*64"):
            load_trials(path)
