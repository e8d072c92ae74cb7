import argparse
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import haptix
from conftest import make_trial
from haptix import evaluation as ev
from haptix import cli
from haptix.cli import build_parser, main
from haptix.core import (ComplianceClass, Dataset, Source, class_index,
                         load_trials, save_trials)
from haptix.preprocess import FeatureSet

SUMMARY_RE = re.compile(r"^(\w+) (\S+) (\d\.\d{4}) ± (\d\.\d{4})$")


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-data") / "trials.jsonl"
    rc = main(["synth", "--per-class", "6", "--seed", "3", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, data_file):
    out = tmp_path_factory.mktemp("cli-eval")
    rc = main(["evaluate", "--data", str(data_file), "--clf", "svm",
               "--features", "fz", "--epochs", "60", "--out", str(out)])
    assert rc == 0
    return out


class TestSynth:
    def test_writes_dataset_and_run_json(self, data_file, capsys):
        ds = load_trials(data_file)
        assert len(ds) == 24
        run = json.loads((data_file.parent / "trials.jsonl.run.json").read_text())
        assert run["command"] == "synth"
        assert run["per_class"] == 6
        assert run["seed"] == 3
        assert run["noise"] == 0.05  # builtin default
        assert run["source"] == "human"

    def test_prints_trial_count(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["synth", "--per-class", "1", "--out", str(out)]) == 0
        assert "wrote 4 trials" in capsys.readouterr().out

    def test_robot_source(self, tmp_path):
        out = tmp_path / "robot.jsonl"
        assert main(["synth", "--per-class", "1", "--source", "robot",
                     "--out", str(out)]) == 0
        t = load_trials(out).trials[0]
        assert t.source is Source.ROBOT
        assert t.id.startswith("robot-")

    def test_config_file_below_flags(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("# comment line\nper-class = 4\nseed = 9\n")
        out = tmp_path / "t.jsonl"
        rc = main(["synth", "--config", str(cfg), "--seed", "2",
                   "--out", str(out)])
        assert rc == 0
        run = json.loads((tmp_path / "t.jsonl.run.json").read_text())
        assert run["per_class"] == 4  # from config file
        assert run["seed"] == 2      # flag wins
        assert len(load_trials(out)) == 16

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("per-class\n")
        rc = main(["synth", "--config", str(cfg),
                   "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "expected key=value" in capsys.readouterr().err


class TestIngest:
    def test_round_trip(self, data_file, tmp_path, capsys):
        out = tmp_path / "ingested"
        rc = main(["ingest", "--data", str(data_file), "--out", str(out)])
        assert rc == 0
        assert "ingested 24 trials" in capsys.readouterr().out
        assert len(load_trials(out / "dataset.jsonl")) == 24
        assert (out / "run.json").is_file()

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        rc = main(["ingest", "--data", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("col", [4, 5, 6])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rotation_is_data_error(self, data_file, tmp_path,
                                               capsys, token, col):
        lines = data_file.read_text().splitlines()
        rec = json.loads(lines[1])
        rec["pose"][3][col] = None
        lines[1] = json.dumps(rec).replace("null", token)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        rc = main(["ingest", "--data", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: line 2: pose row contains NaN/Inf\n")

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    @pytest.mark.parametrize("stream, row, value, reason", [
        ("wrench", 3, None, "wrench row must have 7 numbers: {row!r}"),
        ("pose", 3, None, "pose row must have 7 or 8 numbers: {row!r}"),
        ("wrench", 3, "x", "wrench row must have 7 numbers: {row!r}"),
        ("wrench", 3, 10**400, "wrench row contains NaN/Inf"),
        ("pose", 3, 10**400, "pose row contains NaN/Inf"),
        ("wrench", None, 5, "wrench must be a list of rows"),
    ], ids=["wrench-null", "pose-null", "string", "wrench-huge-int",
            "pose-huge-int", "wrench-not-list"])
    def test_bad_cell_is_data_error_with_line(self, data_file, tmp_path, capsys,
                                              command, stream, row, value,
                                              reason):
        lines = data_file.read_text().splitlines()
        rec = json.loads(lines[1])
        if row is None:
            rec[stream] = value
        else:
            rec[stream][row][2] = value
        lines[1] = json.dumps(rec)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        extra = ["--clf", "svm"] if command == "evaluate" else []
        rc = main([command, "--data", str(bad), "--out", str(tmp_path / "o")]
                  + extra)
        assert rc == 2
        shown = reason.format(row=None if row is None else rec[stream][row])
        assert capsys.readouterr().err == f"data error: line 2: {shown}\n"


class TestTrain:
    def test_svm_artifacts(self, data_file, tmp_path):
        out = tmp_path / "svm"
        rc = main(["train", "--data", str(data_file), "--clf", "svm",
                   "--features", "fz", "--epochs", "80", "--out", str(out)])
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["kind"] == "svm"
        norm = json.loads((out / "norm.json").read_text())
        assert norm["channel_names"] == ["fz"]
        assert len(norm["mean"]) == 1
        run = json.loads((out / "run.json").read_text())
        assert run["command"] == "train"
        assert run["clf"] == "svm"

    def test_tcn_writes_loss_curve(self, data_file, tmp_path):
        out = tmp_path / "tcn"
        rc = main(["train", "--data", str(data_file), "--clf", "tcn",
                   "--features", "fz", "--epochs", "2", "--depth", "1",
                   "--channels", "4", "--kernel", "3", "--out", str(out)])
        assert rc == 0
        lines = (out / "loss_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        assert json.loads((out / "model.json").read_text())["kind"] == "tcn"

    @pytest.mark.parametrize("clf", ["svm", "hmm", "tcn", "lstm"])
    def test_model_json_predicts_like_cross_domain(self, clf, data_file, tmp_path):
        test_data = tmp_path / "robot.jsonl"
        # noisy enough that a model trained differently predicts differently
        assert main(["synth", "--per-class", "3", "--seed", "8", "--source",
                     "robot", "--noise", "0.3", "--out", str(test_data)]) == 0
        flags = ["--clf", clf, "--features", "force", "--epochs", "3",
                 "--max-iter", "3", "--states", "2", "--hidden", "6",
                 "--layers", "1", "--channels", "4", "--depth", "2",
                 "--kernel", "3"]
        assert main(["train", "--data", str(data_file), *flags,
                     "--out", str(tmp_path / "m")]) == 0
        assert main(["cross-domain", "--train-data", str(data_file),
                     "--test-data", str(test_data), *flags,
                     "--out", str(tmp_path / "xd")]) == 0
        assert (tmp_path / "m" / "loss_curve.csv").is_file() == (clf in ("tcn", "lstm"))

        family = ev.FAMILIES[clf]
        model = family.from_dict(json.loads((tmp_path / "m" / "model.json").read_text()))
        norm = json.loads((tmp_path / "m" / "norm.json").read_text())
        test_ds = load_trials(test_data)
        X = ev.feature_tensor(test_ds, FeatureSet.parse(",".join(norm["channel_names"])))
        pred = family.predict(model, (X - np.array(norm["mean"])) / np.array(norm["std"]))
        confusion = np.zeros((4, 4), dtype=np.int64)
        np.add.at(confusion, ([class_index(t.label) for t in test_ds.trials], pred), 1)
        report = json.loads((tmp_path / "xd" / "report.json").read_text())
        assert confusion.tolist() == report["confusion"]

    @pytest.mark.parametrize("clf", ["svm", "hmm", "tcn", "lstm"])
    def test_missing_class_rejected(self, clf, data_file, tmp_path, capsys):
        ds = load_trials(data_file)
        data = tmp_path / "no-soft.jsonl"
        save_trials(Dataset(tuple(t for t in ds.trials
                                  if t.label is not ComplianceClass.SOFT)), data)
        out = tmp_path / "m"
        rc = main(["train", "--data", str(data), "--clf", clf, "--features", "fz",
                   "--epochs", "2", "--max-iter", "2", "--out", str(out)])
        assert rc == 2
        assert "no training data for class soft" in capsys.readouterr().err
        assert not (out / "model.json").exists()

    def test_failed_train_leaves_no_out_dir(self, data_file, tmp_path):
        ds = load_trials(data_file)
        data = tmp_path / "no-soft.jsonl"
        save_trials(Dataset(tuple(t for t in ds.trials
                                  if t.label is not ComplianceClass.SOFT)), data)
        out = tmp_path / "m"
        assert main(["train", "--data", str(data), "--clf", "svm", "--features",
                     "fz", "--epochs", "2", "--out", str(out)]) == 2
        assert not out.exists()


class TestEvaluate:
    def test_artifacts(self, eval_dir):
        for name in ("report.json", "confusion.csv", "folds.csv", "run.json"):
            assert (eval_dir / name).is_file()
        report = json.loads((eval_dir / "report.json").read_text())
        assert report["classifier"] == "svm"
        assert report["k"] == 3
        assert len(report["per_fold"]) == 3

    def test_prints_summary_line(self, data_file, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(data_file), "--clf", "svm",
                   "--features", "fz", "--epochs", "40",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        line = capsys.readouterr().out.strip().split("\n")[-1]
        m = SUMMARY_RE.match(line)
        assert m is not None
        assert m.group(1) == "svm"
        assert m.group(2) == "fz"

    def test_required_flags(self, data_file, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(data_file),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--clf is required" in capsys.readouterr().err

    def test_from_run_reproduces_artifacts(self, eval_dir, tmp_path):
        out = tmp_path / "replay"
        rc = main(["evaluate", "--from-run", str(eval_dir / "run.json"),
                   "--out", str(out)])
        assert rc == 0
        for name in ("report.json", "confusion.csv", "folds.csv"):
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes()
        stored = json.loads((eval_dir / "run.json").read_text())
        assert (out / "run.json").read_text() == json.dumps(
            dict(stored, out=str(out)), indent=2, sort_keys=True) + "\n"

    def test_from_run_rejects_other_commands(self, data_file, tmp_path, capsys):
        run = data_file.parent / "trials.jsonl.run.json"
        rc = main(["evaluate", "--from-run", str(run),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "evaluate run" in capsys.readouterr().err
        not_an_object = tmp_path / "list.json"
        not_an_object.write_text("[]\n")
        assert main(["evaluate", "--from-run", str(not_an_object),
                     "--out", str(tmp_path / "o")]) == 1
        assert "evaluate run" in capsys.readouterr().err

    def test_missing_item_is_named(self, tmp_path, capsys):
        data = tmp_path / "d.jsonl"
        assert main(["synth", "--per-class", "3", "--seed", "1",
                     "--out", str(data)]) == 0
        rc = main(["evaluate", "--data", str(data), "--clf", "hmm",
                   "--per-item", "--k", "3", "--max-iter", "2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "fold 0: no training data for class grape" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, code", [
        (["--clf", "hmm", "--per-item"], 2),        # a fold lacks an item
        (["--clf", "svm", "--states-sweep", "2"], 1),  # usage error
    ])
    def test_failed_evaluate_leaves_no_out_dir(self, flags, code, tmp_path):
        data = tmp_path / "d.jsonl"
        assert main(["synth", "--per-class", "3", "--seed", "1",
                     "--out", str(data)]) == 0
        out = tmp_path / "o"
        assert main(["evaluate", "--data", str(data), "--k", "3", "--max-iter", "2",
                     *flags, "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("flags, reason", [
        (["--clf", "tcn", "--channels", "0"], "channels must be >= 1"),
        (["--clf", "tcn", "--kernel", "-1"], "kernel width must be odd and >= 1"),
        (["--clf", "hmm", "--max-iter", "-3"], "max_iter must be >= 0"),
    ], ids=["channels", "kernel", "max-iter"])
    def test_bad_model_size_exits_1(self, flags, reason, data_file, tmp_path,
                                    capsys):
        out = tmp_path / "o"
        assert main(["evaluate", "--data", str(data_file), "--features", "fz",
                     "--epochs", "1", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {reason}") and err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_features_exit_1(self, data_file, tmp_path, capsys):
        # finite samples whose grid overflows: fz alternates +-1e308 after contact
        ds = load_trials(data_file)
        first = ds.trials[0]
        wrench = first.wrench.copy()
        sign = np.where(np.arange(wrench.shape[0]) % 2 == 0, 1.0, -1.0)
        after = wrench[:, 0] >= 0.5
        wrench[after, 3] = 1e308 * sign[after]
        bad = make_trial(wrench, first.pose, label=first.label,
                         item=first.food_item, trial_id=first.id,
                         subject=first.subject, session=first.session)
        data = tmp_path / "overflow.jsonl"
        save_trials(Dataset((bad,) + ds.trials[1:]), data)
        with np.errstate(all="ignore"):
            rc = main(["evaluate", "--data", str(data), "--clf", "svm",
                       "--features", "fz+deriv", "--epochs", "2",
                       "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("features", ["px", "px+deriv"])
    def test_overflow_reports_one_error_line(self, features, tmp_path):
        # a finite px of 1.5e306 overflows the norm statistics (and the
        # derivative stencil); numpy's own warnings must not reach stderr
        data = tmp_path / "big.jsonl"
        assert main(["synth", "--per-class", "10", "--seed", "3",
                     "--out", str(data)]) == 0
        ds = load_trials(data)
        pose = ds.trials[0].pose.copy()
        pose[:, 1] = 1.5e306
        big = dataclasses.replace(ds.trials[0], pose=pose)
        save_trials(Dataset((big,) + ds.trials[1:]), data)
        command, env = _console_command()
        proc = subprocess.run(
            command + ["evaluate", "--data", str(data), "--clf", "svm",
                       "--features", features, "--epochs", "2",
                       "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr == "error: feature matrix contains non-finite values\n"

    def test_states_sweep_requires_hmm(self, data_file, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(data_file), "--clf", "svm",
                   "--states-sweep", "2,3", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "--states-sweep" in capsys.readouterr().err

    def test_states_sweep_csv(self, data_file, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main(["evaluate", "--data", str(data_file), "--clf", "hmm",
                   "--features", "fz", "--states-sweep", "1,2",
                   "--max-iter", "10", "--out", str(out)])
        assert rc == 0
        lines = (out / "states_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "states,mean_accuracy,std_accuracy"
        assert [l.split(",")[0] for l in lines[1:]] == ["1", "2"]
        stdout = capsys.readouterr().out
        assert "hmm[K=1]" in stdout and "hmm[K=2]" in stdout
        assert not (out / "report.json").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["evaluate", "--data", str(tmp_path / "nope.jsonl"),
                   "--clf", "svm", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, data_file, tmp_path, capsys):
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["evaluate", "--data", str(data_file), "--clf", "tcn",
                       "--features", "fz", "--epochs", "2", "--depth", "1",
                       "--channels", "4", "--kernel", "3",
                       "--optimizer", "sgd", "--lr", "1e160",
                       "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_flag_and_config_precedence(self, data_file, tmp_path, monkeypatch):
        monkeypatch.setenv("HAPTIX_WORKERS", "4")  # no longer read
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\nworkers = 3\n")
        out_cfg = tmp_path / "cfg"
        assert main(["evaluate", "--data", str(data_file), "--clf", "svm",
                     "--features", "fz", "--epochs", "30",
                     "--config", str(cfg), "--out", str(out_cfg)]) == 0
        run = json.loads((out_cfg / "run.json").read_text())
        assert run["seed"] == 5  # config file beats the default 0
        assert "workers" not in run

        out_flag = tmp_path / "flag"
        assert main(["evaluate", "--data", str(data_file), "--clf", "svm",
                     "--features", "fz", "--epochs", "30", "--seed", "7",
                     "--config", str(cfg), "--out", str(out_flag)]) == 0
        assert json.loads((out_flag / "run.json").read_text())["seed"] == 7

    def test_workers_flag_is_usage_error(self, data_file, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["evaluate", "--data", str(data_file), "--clf", "svm",
                   "--workers", "2", "--out", str(out)])
        assert rc == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_from_run_ignores_stored_workers(self, eval_dir, tmp_path, capsys):
        stored = json.loads((eval_dir / "run.json").read_text())
        stored["workers"] = 2  # as older versions wrote it
        stored["bogus_key"] = 1
        run = tmp_path / "run.json"
        run.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        out = tmp_path / "replay"
        assert main(["evaluate", "--from-run", str(run), "--out", str(out)]) == 0
        for name in ("report.json", "confusion.csv", "folds.csv"):
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes()
        err = capsys.readouterr().err
        assert "workers" in err and "bogus_key" in err
        replay = json.loads((out / "run.json").read_text())
        assert "workers" not in replay and "bogus_key" not in replay
        del replay["out"], stored["out"], stored["workers"], stored["bogus_key"]
        assert replay == stored

    def test_from_run_missing_key_is_usage_error(self, eval_dir, tmp_path, capsys):
        stored = json.loads((eval_dir / "run.json").read_text())
        del stored["grid"]
        run = tmp_path / "run.json"
        run.write_text(json.dumps(stored) + "\n")
        out = tmp_path / "replay"
        assert main(["evaluate", "--from-run", str(run), "--out", str(out)]) == 1
        assert "grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("k", "3", "key k must be int, got '3'"),
        ("threshold", "0.5", "key threshold must be float, got '0.5'"),
        ("seed", 1.0, "key seed must be int, got 1.0"),
        ("per_item", 0, "key per_item must be true or false, got 0"),
        ("optimizer", "adagrad", "key optimizer must be one of adam, sgd"),
        ("features", None, "key features must be str, got None"),
        ("clf", "knn", "key clf must be one of hmm, svm, tcn, lstm"),
        ("data", 3, "key data must be str, got 3"),
    ])
    def test_from_run_wrong_type_is_usage_error(self, key, value, message, eval_dir,
                                                tmp_path, capsys):
        stored = json.loads((eval_dir / "run.json").read_text())
        stored[key] = value
        run = tmp_path / "run.json"
        run.write_text(json.dumps(stored) + "\n")
        out = tmp_path / "replay"
        assert main(["evaluate", "--from-run", str(run), "--out", str(out)]) == 1
        assert f"error: {run}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_from_run_takes_int_for_float_key(self, eval_dir, tmp_path):
        stored = json.loads((eval_dir / "run.json").read_text())
        stored["tol"] = 1  # hmm-only, so the svm results stay the same
        run = tmp_path / "run.json"
        run.write_text(json.dumps(stored) + "\n")
        out = tmp_path / "replay"
        assert main(["evaluate", "--from-run", str(run), "--out", str(out)]) == 0
        assert (out / "report.json").read_bytes() == (eval_dir / "report.json").read_bytes()
        assert repr(json.loads((out / "run.json").read_text())["tol"]) == "1.0"

    @pytest.mark.parametrize("clf, sweep, message", [
        ("svm", "2", "--states-sweep only applies to --clf hmm"),
        ("hmm", "2,x", "--states-sweep expects a comma list of integers"),
    ])
    def test_states_sweep_checked_before_loading(self, clf, sweep, message,
                                                 tmp_path, capsys):
        rc = main(["evaluate", "--data", str(tmp_path / "missing.jsonl"),
                   "--clf", clf, "--states-sweep", sweep,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert message in capsys.readouterr().err


class TestAblate:
    def test_writes_ranked_csv(self, data_file, tmp_path, capsys):
        out = tmp_path / "abl"
        rc = main(["ablate", "--data", str(data_file), "--clf", "svm",
                   "--features", "fz,force", "--epochs", "60",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "ablation.csv").read_text().strip().split("\n")
        assert lines[0] == "feature_set,mean_accuracy,std_accuracy"
        assert len(lines) == 3
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 2
        assert all(p.startswith("svm ") for p in printed)

    def test_empty_feature_list(self, data_file, tmp_path, capsys):
        rc = main(["ablate", "--data", str(data_file), "--clf", "svm",
                   "--features", ",", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "feature set" in capsys.readouterr().err


class TestCrossDomain:
    def test_artifacts_and_summary(self, data_file, tmp_path, capsys):
        other = tmp_path / "other.jsonl"
        assert main(["synth", "--per-class", "4", "--seed", "11",
                     "--out", str(other)]) == 0
        out = tmp_path / "xd"
        rc = main(["cross-domain", "--train-data", str(data_file),
                   "--test-data", str(other), "--clf", "svm",
                   "--features", "fz", "--epochs", "60", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["k"] == 1
        assert len(report["per_fold"]) == 1
        assert (out / "confusion.csv").is_file()
        line = capsys.readouterr().out.strip().split("\n")[-1]
        assert SUMMARY_RE.match(line)


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def _write_records(path, records, extra_lines=()):
    lines = [json.dumps(rec) for rec in records] + list(extra_lines)
    path.write_text("\n".join(lines) + "\n")
    return path


def _no_contact(rec):
    """The record with every force sample zeroed: contact detection fails."""
    rec = dict(rec)
    rec["wrench"] = [[row[0], 0.0, 0.0, 0.0, *row[4:]] for row in rec["wrench"]]
    return rec


BROKEN_LINE = '{"id": "x", "subject": '
BROKEN_ERROR = "invalid JSON: Expecting value"


class TestErrorPrecedence:
    """Which of two faults in the input a command reports: a bad line
    anywhere in a file, then fold assignment, then the features of the first
    trial that cannot be gridded; cross-domain reads both files before it
    grids either."""

    def test_line_error_beats_earlier_feature_error(self, data_file, tmp_path,
                                                    capsys):
        recs = _records(data_file)
        data = _write_records(tmp_path / "d.jsonl",
                              [_no_contact(recs[0])] + recs[1:], [BROKEN_LINE])
        rc = main(["evaluate", "--data", str(data), "--clf", "svm",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: line {len(recs) + 1}: {BROKEN_ERROR}\n")
        assert not (tmp_path / "o").exists()

    def test_duplicate_ids_beat_feature_error(self, data_file, tmp_path, capsys):
        recs = _records(data_file)
        dup = dict(recs[5], id=recs[4]["id"])
        data = _write_records(tmp_path / "d.jsonl",
                              [_no_contact(recs[0])] + recs[1:5] + [dup] + recs[6:])
        rc = main(["evaluate", "--data", str(data), "--clf", "svm",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: duplicate trial ids prevent fold assignment\n")

    def test_feature_error_names_first_failing_trial(self, data_file, tmp_path,
                                                     capsys):
        recs = _records(data_file)
        data = _write_records(tmp_path / "d.jsonl",
                              recs[:2] + [_no_contact(r) for r in recs[2:4]]
                              + recs[4:])
        rc = main(["evaluate", "--data", str(data), "--clf", "svm",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: no sustained force above 0.5 N for 0.05 s in trial "
            f"{recs[2]['id']}\n")

    def test_cross_domain_test_line_error_beats_train_feature_error(
            self, data_file, tmp_path, capsys):
        recs = _records(data_file)
        train = _write_records(tmp_path / "train.jsonl",
                               [_no_contact(recs[0])] + recs[1:])
        test = _write_records(tmp_path / "test.jsonl", recs[:3], [BROKEN_LINE])
        rc = main(["cross-domain", "--train-data", str(train),
                   "--test-data", str(test), "--clf", "svm",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: line 4: {BROKEN_ERROR}\n"

    def test_cross_domain_train_feature_error_beats_test_one(
            self, data_file, tmp_path, capsys):
        recs = _records(data_file)
        train = _write_records(tmp_path / "train.jsonl",
                               recs[:7] + [_no_contact(recs[7])] + recs[8:])
        test = _write_records(tmp_path / "test.jsonl",
                              [_no_contact(recs[0])] + recs[1:])
        rc = main(["cross-domain", "--train-data", str(train),
                   "--test-data", str(test), "--clf", "svm",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: no sustained force above 0.5 N for 0.05 s in trial "
            f"{recs[7]['id']}\n")

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--clf", "svm", "--features", "fz+bogus"],
        ["ablate", "--clf", "svm", "--features", ","],
        ["train", "--clf", "svm", "--duration", "-1"],
    ])
    def test_line_error_beats_bad_option(self, argv, data_file, tmp_path, capsys):
        data = _write_records(tmp_path / "d.jsonl", _records(data_file)[:3],
                              [BROKEN_LINE])
        rc = main([*argv, "--data", str(data), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: line 4: {BROKEN_ERROR}\n"

    def test_cross_domain_line_error_beats_bad_option(self, data_file, tmp_path,
                                                      capsys):
        good = _write_records(tmp_path / "good.jsonl", _records(data_file))
        bad = _write_records(tmp_path / "bad.jsonl", _records(data_file)[:1],
                             [BROKEN_LINE])
        rc = main(["cross-domain", "--train-data", str(good),
                   "--test-data", str(bad), "--clf", "svm",
                   "--features", "bogus", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: line 2: {BROKEN_ERROR}\n"

    @pytest.mark.parametrize("argv", [
        ["ingest", "--data", "EMPTY"],
        ["train", "--data", "EMPTY", "--clf", "svm"],
        ["evaluate", "--data", "EMPTY", "--clf", "svm"],
        ["ablate", "--data", "EMPTY", "--clf", "svm"],
        ["cross-domain", "--train-data", "GOOD", "--test-data", "EMPTY",
         "--clf", "svm"],
    ])
    def test_empty_file(self, argv, data_file, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n  \n")
        paths = {"EMPTY": str(empty), "GOOD": str(data_file)}
        rc = main([paths.get(a, a) for a in argv] + ["--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: no trials in {empty}\n"
        assert not (tmp_path / "o").exists()


class TestIngestAtomic:
    """ingest writes dataset.jsonl whole or not at all."""

    def _bad_last(self, data_file, tmp_path):
        return _write_records(tmp_path / "bad.jsonl", _records(data_file),
                              [BROKEN_LINE])

    def test_bad_last_record_leaves_no_new_out_dir(self, data_file, tmp_path,
                                                   capsys):
        out = tmp_path / "new" / "out"
        rc = main(["ingest", "--data", str(self._bad_last(data_file, tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: line 25: {BROKEN_ERROR}\n"
        assert not (tmp_path / "new").exists()

    def test_bad_last_record_keeps_existing_dataset(self, data_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        before = b'{"not": "touched"}\n'
        (out / "dataset.jsonl").write_bytes(before)
        rc = main(["ingest", "--data", str(self._bad_last(data_file, tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl"]
        assert (out / "dataset.jsonl").read_bytes() == before

    def test_bad_last_record_leaves_empty_out_dir(self, data_file, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        assert main(["ingest", "--data", str(self._bad_last(data_file, tmp_path)),
                     "--out", str(out)]) == 2
        assert list(out.iterdir()) == []

    def test_canonicalizes_in_place(self, data_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["ingest", "--data", str(data_file), "--out", str(out)]) == 0
        canonical = (out / "dataset.jsonl").read_bytes()
        # the same trials written by json, with spaces after separators
        _write_records(out / "dataset.jsonl", _records(out / "dataset.jsonl"))
        assert (out / "dataset.jsonl").read_bytes() != canonical
        capsys.readouterr()
        assert main(["ingest", "--data", str(out / "dataset.jsonl"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "ingested 24 trials: hard-skin=6 hard=6 medium=6 soft=6\n")
        assert (out / "dataset.jsonl").read_bytes() == canonical
        assert sorted(p.name for p in out.iterdir()) == ["dataset.jsonl", "run.json"]

    def test_out_is_a_file_reported_after_line_error(self, data_file, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        out.write_text("a file\n")
        rc = main(["ingest", "--data", str(self._bad_last(data_file, tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"data error: line 25: {BROKEN_ERROR}\n"


class TestReport:
    def test_prints_and_reexports(self, eval_dir, tmp_path, capsys):
        out = tmp_path / "re"
        rc = main(["report", "--in", str(eval_dir / "report.json"),
                   "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "svm fz" in stdout
        assert "(pooled" in stdout
        assert "hard-skin" in stdout
        for name in ("confusion.csv", "folds.csv"):
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes()

    def test_missing_report(self, tmp_path, capsys):
        rc = main(["report", "--in", str(tmp_path / "nope.json")])
        assert rc == 2

    @pytest.mark.parametrize("text, reason", [
        (lambda d: json.dumps({k: v for k, v in d.items() if k != "feature_set"}),
         "missing key 'feature_set'"),
        (lambda d: json.dumps(dict(d, confusion=[[1, 2]])),
         "confusion matrix must be square"),
        (lambda d: json.dumps(list(d)), "expected a JSON object, got list"),
        (lambda d: "not json", "Expecting value: line 1 column 1 (char 0)"),
        (lambda d: json.dumps(dict(d, per_fold=[])), "per_fold holds no fold accuracy"),
        (lambda d: json.dumps(dict(d, item_confusion=[[1]])),
         "item_confusion comes without item_labels"),
    ], ids=["no-feature-set", "non-square-confusion", "list", "not-json",
            "empty-per-fold", "item-confusion-without-labels"])
    def test_malformed_report(self, text, reason, eval_dir, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text(text(json.loads((eval_dir / "report.json").read_text())))
        assert main(["report", "--in", str(path)]) == 2
        assert capsys.readouterr().err == f"data error: {path}: {reason}\n"


def _console_command():
    """Command and environment that run the `haptix` console script.

    An installed script is run as is. In an uninstalled checkout the
    entry point declared in pyproject.toml is run the way pip's wrapper
    script runs it, with the imported haptix package on PYTHONPATH.
    """
    script = shutil.which("haptix")
    if script is not None:
        return [script], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["scripts"]["haptix"]
    module, func = spec.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    src_dir = str(Path(haptix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    return [sys.executable, "-c", code], env


def test_console_script(tmp_path):
    out = tmp_path / "t.jsonl"
    command, env = _console_command()
    proc = subprocess.run(command + ["synth", "--per-class", "1",
                                     "--out", str(out)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "wrote 4 trials" in proc.stdout
    assert out.is_file()


# ---------------------------------------------------------------------------
# Key tables: one declaration per key gives its flag, config line and run.json

_MODEL_OPTIONS = {
    "-h", "--help", "--config", "--clf", "--out", "--features", "--seed",
    "--threshold", "--hold", "--duration", "--full-phase", "--grid", "--delay",
    "--states", "--max-iter", "--tol", "--estimate-pi", "--svm-c", "--epochs",
    "--lr", "--batch-size", "--optimizer", "--hidden", "--layers", "--per-step",
    "--channels", "--depth", "--kernel",
}

# Option strings of every subcommand, frozen: a flag may not be dropped or renamed.
OPTION_STRINGS = {
    "ingest": {"-h", "--help", "--data", "--out"},
    "synth": {"-h", "--help", "--config", "--out", "--per-class", "--seed",
              "--noise", "--rate", "--duration", "--domain-shift", "--fz-only",
              "--source"},
    "train": _MODEL_OPTIONS | {"--data"},
    "evaluate": _MODEL_OPTIONS | {"--data", "--k", "--per-item", "--group-by",
                                  "--states-sweep", "--from-run"},
    "ablate": _MODEL_OPTIONS | {"--data", "--k"},
    "cross-domain": _MODEL_OPTIONS | {"--train-data", "--test-data"},
    "report": {"-h", "--help", "--in", "--out"},
}


def test_option_strings_frozen():
    top = build_parser()
    sub = next(a for a in top._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for action in p._actions for s in action.option_strings}
           for name, p in sub.choices.items()}
    assert got == OPTION_STRINGS


# Values the generic rule of _sample cannot give; extra flags a value needs.
_SAMPLES = {"features": "fz", "states_sweep": "2"}
_NEEDS = {"states_sweep": ["--clf", "hmm", "--max-iter", "1"]}


def _sample(key, default, parse):
    """A config-file value for `key` that parses to something other than its default."""
    if key in _SAMPLES:
        return _SAMPLES[key]
    if parse is cli._boolean:
        return "true"
    if isinstance(parse, tuple):
        return parse[-1]
    if parse is int:
        return str(default + 1 if default is not None else 2)
    return repr(default * 1.1)


def _command_argv(command, data_file, out):
    """A quick run of `command` on the module's trial file, as {flag: value}."""
    if command == "synth":
        return {"--per-class": "1", "--out": str(out)}
    argv = {"--clf": "svm", "--epochs": "1", "--out": str(out)}
    if command == "cross-domain":
        return {"--train-data": str(data_file), "--test-data": str(data_file), **argv}
    return {"--data": str(data_file), **argv}


def _run_json(command, out):
    return Path(str(out) + ".run.json" if command == "synth" else out / "run.json")


def _run(command, argv, extra=()):
    return main([command, *(s for pair in argv.items() for s in pair if s is not None),
                 *extra])


class TestKeyTables:
    @pytest.mark.parametrize("command, key", [
        (command, key) for command, table in cli._KEYS.items() for key in table])
    def test_flag_and_config_line_give_equal_run_json(self, command, key, data_file,
                                                      tmp_path):
        default, parse = cli._KEYS[command][key]
        value = _sample(key, default, parse)
        flag = cli._flag(key)
        runs = []
        for how in ("flag", "config"):
            out = tmp_path / how
            argv = _command_argv(command, data_file, out)
            argv.pop(flag, None)
            if how == "flag":
                argv[flag] = None if parse is cli._boolean else value
            else:
                cfg = tmp_path / "c.cfg"
                cfg.write_text(f"{key} = {value}\n")
                argv["--config"] = str(cfg)
            assert _run(command, argv, _NEEDS.get(key, ())) == 0
            run = json.loads(_run_json(command, out).read_text())
            del run["out"]
            runs.append(run)
        assert runs[0] == runs[1]
        assert runs[0][key] != default

    @pytest.mark.parametrize("command", list(cli._KEYS))
    def test_unknown_config_key_is_named(self, command, data_file, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("epoch = 5\n")  # a misspelled epochs
        out = tmp_path / "o"
        argv = {**_command_argv(command, data_file, out), "--config": str(cfg)}
        assert _run(command, argv) == 0
        assert "unknown key(s): epoch" in capsys.readouterr().err
        run = json.loads(_run_json(command, out).read_text())
        assert "epoch" not in run

    def test_ablate_names_evaluate_only_keys(self, data_file, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("group_by = subject\nper_item = true\n")
        out = tmp_path / "o"
        argv = {**_command_argv("ablate", data_file, out), "--config": str(cfg)}
        assert _run("ablate", argv) == 0
        assert "unknown key(s): group_by, per_item" in capsys.readouterr().err
        run = json.loads((out / "run.json").read_text())
        assert "group_by" not in run and "per_item" not in run

    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate", "cross-domain"])
    @pytest.mark.parametrize("line, key", [("epochs = 5.5", "epochs"),
                                           ("optimizer = foo", "optimizer"),
                                           ("estimate_pi = maybe", "estimate_pi")])
    def test_unparsable_config_value_is_usage_error(self, command, line, key,
                                                    tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o"
        # the trial file does not exist: the value is rejected before any loading
        argv = {**_command_argv(command, tmp_path / "missing.jsonl", out),
                "--config": str(cfg)}
        argv.pop(cli._flag(key), None)
        assert _run(command, argv) == 1
        assert f"config key {key}" in capsys.readouterr().err
        assert not out.exists()


class TestFromRunFlags:
    def test_other_flags_are_usage_error(self, eval_dir, data_file, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 3\n")
        out = tmp_path / "x"
        rc = main(["evaluate", "--from-run", str(eval_dir / "run.json"), "--seed", "5",
                   "--clf", "tcn", "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "--clf" in err and "--config" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--data", "d.jsonl"], ["--per-item"],
                                       ["--states-sweep", "2"], ["--k", "3"]])
    def test_each_flag_is_named(self, flags, eval_dir, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["evaluate", "--from-run", str(eval_dir / "run.json"), *flags,
                   "--out", str(out)])
        assert rc == 1
        assert flags[0] in capsys.readouterr().err
        assert not out.exists()


def test_states_sweep_applies_per_item(tmp_path):
    data = tmp_path / "d.jsonl"
    assert main(["synth", "--per-class", "12", "--seed", "3", "--out", str(data)]) == 0
    common = ["evaluate", "--data", str(data), "--clf", "hmm", "--per-item",
              "--max-iter", "2"]
    assert main([*common, "--states-sweep", "2", "--out", str(tmp_path / "sweep")]) == 0
    assert main([*common, "--states", "2", "--out", str(tmp_path / "single")]) == 0
    rows = (tmp_path / "sweep" / "states_sweep.csv").read_text().split("\n")
    report = json.loads((tmp_path / "single" / "report.json").read_text())
    assert rows[1] == (f"2,{report['mean_accuracy']!r},{report['std_accuracy']!r}")
