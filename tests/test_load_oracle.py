"""The vectorized trial-record parser against the row loop it replaced.

The oracle is the per-value conversion that `core._trial_from_record` ran on
every record before. On any record, both must return equal trials or raise
the same exception type with the same message.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haptix.core import (
    Source,
    Trial,
    _parse_pose_row,
    _trial_from_record,
    _wrap_angles,
    item_class,
    wrap_angle,
)
from haptix.errors import DegenerateStream, MalformedRecord


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
        out = []
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != width:
                raise MalformedRecord(
                    lineno, f"{name} row must have {width} numbers: {row!r}"
                )
            vals = [float(v) for v in row]
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
                              2**70, 1e308, [1.0, 2.0], [[0.5]], {"v": 1}])
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
