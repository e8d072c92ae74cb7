import json
import math

import numpy as np
import pytest

from conftest import make_trial, ramp_trial
from haptix.core import (
    CLASS_ORDER,
    ITEM_CLASSES,
    ComplianceClass,
    Dataset,
    Source,
    Trial,
    align_streams,
    class_index,
    item_class,
    iter_trials,
    load_trials,
    normalize_item_name,
    quaternion_to_fixed_xyz,
    _wrap_angles,
    save_trials,
)
from haptix.errors import (
    DegenerateStream,
    EmptyDataset,
    MalformedRecord,
    UnknownFoodItem,
)


class TestComplianceClass:
    def test_total_order(self):
        assert (ComplianceClass.HARD_SKIN > ComplianceClass.HARD
                > ComplianceClass.MEDIUM > ComplianceClass.SOFT)

    def test_adjacency_distance(self):
        assert abs(ComplianceClass.HARD_SKIN - ComplianceClass.HARD) == 1
        assert abs(ComplianceClass.HARD_SKIN - ComplianceClass.SOFT) == 3
        assert abs(ComplianceClass.MEDIUM - ComplianceClass.MEDIUM) == 0

    def test_labels_round_trip(self):
        assert [c.label for c in CLASS_ORDER] == ["hard-skin", "hard", "medium", "soft"]

    def test_class_index_follows_report_order(self):
        assert [class_index(c) for c in CLASS_ORDER] == [0, 1, 2, 3]


class TestItemTable:
    def test_twelve_items_three_per_class(self):
        assert len(ITEM_CLASSES) == 12
        for c in CLASS_ORDER:
            assert sum(1 for v in ITEM_CLASSES.values() if v is c) == 3

    def test_known_items(self):
        assert item_class("grape") is ComplianceClass.HARD_SKIN
        assert item_class("carrot") is ComplianceClass.HARD
        assert item_class("watermelon") is ComplianceClass.MEDIUM
        assert item_class("banana") is ComplianceClass.SOFT

    def test_name_normalization(self):
        assert normalize_item_name("Bell_Pepper ") == "bell pepper"
        assert item_class("Cherry-Tomato") is ComplianceClass.HARD_SKIN

    def test_unknown_item_rejected(self):
        with pytest.raises(UnknownFoodItem):
            item_class("noodles")


class TestAngles:
    def test_wrap_half_open_interval(self):
        got = _wrap_angles(np.array([math.pi, -math.pi, 3 * math.pi, 0.0, -0.1]))
        assert got[0] == math.pi
        assert got[1] == pytest.approx(math.pi)
        assert got[2] == pytest.approx(math.pi)
        assert got[3] == 0.0
        assert got[4] == -0.1

    def test_wrap_idempotent_on_range(self):
        a = np.linspace(-math.pi + 1e-9, math.pi, 50)
        np.testing.assert_array_equal(_wrap_angles(a), a)

    def test_quaternion_identity(self):
        assert quaternion_to_fixed_xyz(1.0, 0.0, 0.0, 0.0) == (0.0, 0.0, 0.0)

    def test_quaternion_quarter_turn_about_x(self):
        s = math.sqrt(0.5)
        rx, ry, rz = quaternion_to_fixed_xyz(s, s, 0.0, 0.0)
        assert rx == pytest.approx(math.pi / 2, abs=1e-12)
        assert ry == pytest.approx(0.0, abs=1e-12)
        assert rz == pytest.approx(0.0, abs=1e-12)

    def test_quaternion_matches_scipy_extrinsic_xyz(self):
        scipy_rot = pytest.importorskip("scipy.spatial.transform")
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            ours = quaternion_to_fixed_xyz(*q)
            ref = scipy_rot.Rotation.from_quat(
                [q[1], q[2], q[3], q[0]]).as_euler("xyz")
            np.testing.assert_allclose(ours, ref, atol=1e-9)

    def test_quaternion_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            quaternion_to_fixed_xyz(0.0, 0.0, 0.0, 0.0)


class TestTrial:
    def test_streams_become_read_only(self):
        tr = ramp_trial()
        with pytest.raises(ValueError):
            tr.wrench[0, 0] = 99.0
        with pytest.raises(ValueError):
            tr.pose[0, 1] = 99.0

    def test_too_few_samples(self):
        one = [[0.0, 0, 0, 0, 0, 0, 0]]
        two = [[0.0, 0, 0, 0, 0, 0, 0], [0.1, 0, 0, 0, 0, 0, 0]]
        with pytest.raises(DegenerateStream):
            make_trial(one, two)
        with pytest.raises(DegenerateStream):
            make_trial(two, one)

    def test_non_monotone_time_rejected(self):
        bad = [[0.0, 0, 0, 0, 0, 0, 0],
               [0.2, 0, 0, 0, 0, 0, 0],
               [0.1, 0, 0, 0, 0, 0, 0]]
        good = [[0.0, 0, 0, 0, 0, 0, 0], [0.1, 0, 0, 0, 0, 0, 0]]
        with pytest.raises(ValueError):
            make_trial(bad, good)

    def test_non_finite_rejected(self):
        bad = [[0.0, 0, 0, np.nan, 0, 0, 0], [0.1, 0, 0, 0, 0, 0, 0]]
        good = [[0.0, 0, 0, 0, 0, 0, 0], [0.1, 0, 0, 0, 0, 0, 0]]
        with pytest.raises(ValueError):
            make_trial(bad, good)

    def test_session_must_be_positive(self):
        with pytest.raises(ValueError):
            ramp_trial(session=0)

    def test_session_must_fit_in_64_bits(self):
        assert ramp_trial(session=2**64 - 1).session == 2**64 - 1
        with pytest.raises(ValueError, match=r"session must be < 2\*\*64"):
            ramp_trial(session=2**64)

    @pytest.mark.parametrize("field", ["trial_id", "subject", "item"])
    def test_text_fields_must_be_unicode(self, field):
        with pytest.raises(ValueError, match="is not valid Unicode"):
            ramp_trial(**{field: "carrot\ud800"})


class TestDataset:
    def test_holds_trials_in_order(self):
        trials = [ramp_trial(trial_id=f"t{i}", label=c, item=item)
                  for i, (c, item) in enumerate([
                      (ComplianceClass.HARD_SKIN, "grape"),
                      (ComplianceClass.HARD, "carrot"),
                      (ComplianceClass.HARD, "apple"),
                      (ComplianceClass.SOFT, "banana"),
                  ])]
        ds = Dataset(trials=iter(trials))
        assert isinstance(ds.trials, tuple)
        assert len(ds) == 4
        assert list(ds) == trials


class TestTrialFileIO:
    @staticmethod
    def _record(**over):
        rec = {
            "id": "h-001", "subject": "p1", "session": 1,
            "food_item": "grape",
            "wrench": [[0.0, 0, 0, 0.0, 0, 0, 0], [0.1, 0, 0, 2.0, 0, 0, 0]],
            "pose": [[0.0, 0, 0.25, 0, 0, 0, 0], [0.1, 0, 0.24, 0, 0, 0, 0]],
        }
        rec.update(over)
        return rec

    def test_load_assigns_label_from_item(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(self._record()) + "\n")
        ds = load_trials(p)
        assert len(ds) == 1
        assert ds.trials[0].label is ComplianceClass.HARD_SKIN
        assert ds.trials[0].source is Source.HUMAN

    def test_unknown_item_fails_load(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(self._record(food_item="noodles")) + "\n")
        with pytest.raises(UnknownFoodItem):
            load_trials(p)

    def test_malformed_json_reports_line_number(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(self._record()) + "\n{oops\n")
        with pytest.raises(MalformedRecord) as exc:
            load_trials(p)
        assert exc.value.line_number == 2

    def test_missing_field_reports_line_number(self, tmp_path):
        rec = self._record()
        del rec["subject"]
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            load_trials(p)
        assert "subject" in str(exc.value)
        assert exc.value.line_number == 1

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text("\n\n")
        with pytest.raises(EmptyDataset):
            load_trials(p)

    def test_iter_trials_reads_one_record_at_a_time(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(self._record()) + "\n{oops\n")
        trials = iter_trials(p)
        assert next(trials).id == "h-001"
        with pytest.raises(MalformedRecord) as exc:
            next(trials)
        assert exc.value.line_number == 2

    def test_iter_trials_rejects_empty_file_at_its_end(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text("\n \n")
        with pytest.raises(EmptyDataset, match=f"no trials in {p}"):
            next(iter_trials(p))

    def test_save_trials_takes_any_iterable(self, tmp_path):
        src, dst = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_trials(Dataset((ramp_trial(trial_id="a"), ramp_trial(trial_id="b"))),
                    src)
        save_trials(iter_trials(src), dst)
        assert dst.read_bytes() == src.read_bytes()

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text("\n" + json.dumps(self._record()) + "\n\n")
        assert len(load_trials(p)) == 1

    def test_quaternion_pose_rows(self, tmp_path):
        s = math.sqrt(0.5)
        rec = self._record(pose=[
            [0.0, 0, 0.25, 0, 1.0, 0.0, 0.0, 0.0],
            [0.1, 0, 0.24, 0, s, s, 0.0, 0.0],
        ])
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        pose = load_trials(p).trials[0].pose
        assert pose.shape == (2, 7)
        assert pose[0, 4:7] == pytest.approx((0.0, 0.0, 0.0))
        assert pose[1, 4] == pytest.approx(math.pi / 2)

    def test_euler_pose_rows_are_wrapped(self, tmp_path):
        rec = self._record(pose=[
            [0.0, 0, 0.25, 0, 3 * math.pi, 0, 0],
            [0.1, 0, 0.24, 0, 0, 0, 0],
        ])
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(rec) + "\n")
        pose = load_trials(p).trials[0].pose
        assert pose[0, 4] == pytest.approx(math.pi)

    def test_nan_rejected_with_line_number(self, tmp_path):
        rec = self._record()
        rec["wrench"][1][3] = None
        p = tmp_path / "trials.jsonl"
        text = json.dumps(rec).replace("null", "NaN")
        p.write_text(text + "\n")
        with pytest.raises(MalformedRecord) as exc:
            load_trials(p)
        assert exc.value.line_number == 1

    @pytest.mark.parametrize("col", [4, 5, 6])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rotation_rejected_with_line_number(self, tmp_path,
                                                           token, col):
        # a 7-field pose row's angles are wrapped, which must not see them
        rec = self._record()
        rec["pose"][1][col] = None
        p = tmp_path / "trials.jsonl"
        good = json.dumps(self._record())
        p.write_text(good + "\n" + json.dumps(rec).replace("null", token) + "\n")
        with pytest.raises(MalformedRecord,
                           match="^line 2: pose row contains NaN/Inf$"):
            load_trials(p)

    def test_unknown_source_rejected(self, tmp_path):
        p = tmp_path / "trials.jsonl"
        p.write_text(json.dumps(self._record(source="simulated")) + "\n")
        with pytest.raises(MalformedRecord):
            load_trials(p)

    def test_save_load_round_trip(self, tmp_path):
        trials = tuple(
            ramp_trial(trial_id=f"t{i}", label=c, item=item, n=30)
            for i, (c, item) in enumerate([
                (ComplianceClass.HARD_SKIN, "grape"),
                (ComplianceClass.SOFT, "egg"),
            ])
        )
        ds = Dataset(trials=trials)
        p = tmp_path / "out.jsonl"
        save_trials(ds, p)
        assert load_trials(p) == ds


class TestAlignStreams:
    def test_zero_delay_is_identity(self):
        tr = ramp_trial()
        assert align_streams(tr, 0.0) is tr

    def test_pose_shifted_and_head_dropped(self):
        wrench = [[0.00, 0, 0, 1, 0, 0, 0],
                  [0.03, 0, 0, 1, 0, 0, 0],
                  [0.06, 0, 0, 1, 0, 0, 0]]
        pose = [[0.00, 10, 0, 0, 0, 0, 0],
                [0.03, 20, 0, 0, 0, 0, 0],
                [0.06, 30, 0, 0, 0, 0, 0]]
        out = align_streams(make_trial(wrench, pose), 0.03)
        np.testing.assert_allclose(out.pose[:, 0], [0.00, 0.03])
        np.testing.assert_allclose(out.pose[:, 1], [20, 30])
        np.testing.assert_array_equal(out.wrench, np.asarray(wrench))

    def test_alignment_composes_additively(self):
        tr = ramp_trial(n=240, rate=120.0)
        once = align_streams(align_streams(tr, 0.010), 0.020)
        combined = align_streams(tr, 0.030)
        np.testing.assert_allclose(once.pose, combined.pose, atol=1e-12)

    def test_overlong_delay_rejected(self):
        tr = ramp_trial(n=10, rate=120.0)
        with pytest.raises(DegenerateStream):
            align_streams(tr, 10.0)

    def test_metadata_preserved(self):
        tr = ramp_trial(label=ComplianceClass.SOFT, item="egg", subject="p7")
        out = align_streams(tr, 0.03)
        assert (out.id, out.subject, out.label) == (tr.id, tr.subject, tr.label)
