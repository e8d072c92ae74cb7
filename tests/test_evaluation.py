import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps
from scipy.special import betainc, gammaln, ndtr

from haptix.core import (CLASS_ORDER, ITEM_CLASSES, ITEM_ORDER, ComplianceClass,
                         Dataset, Source, Trial, align_streams, class_index,
                         iter_trials, load_trials, normalize_item_name,
                         save_trials)
from haptix import evaluation
from haptix.errors import (DataError, DegenerateGroups, MissingClass, NoContact,
                           TooFewTrials)
from haptix.evaluation import (
    _MSW_FLOOR,
    ClassifierSpec,
    EvalReport,
    FoldSplit,
    _tally,
    ablate_features,
    anova_oneway,
    cross_domain_eval,
    feature_tensor,
    kfold_split,
    label_indices,
    read_features,
    report_from_dict,
    report_to_dict,
    run_cv,
    ttest_2tailed,
    tukey_hsd,
    write_sweep_csv,
    write_confusion_csv,
    write_folds_csv,
)
from haptix.preprocess import FeatureSet, prepare_trial
from haptix.synthgen import GenConfig, generate

CLASS_LABELS = tuple(c.label for c in CLASS_ORDER)


class RecordingTrainer:
    """Stand-in for evaluation._fit_predict: remembers the normalized
    training inputs per fold seed."""

    def __init__(self, prediction=0):
        self.prediction = prediction
        self.train_hashes = {}
        self.sizes = {}

    def __call__(self, X_train, y, labels, X_test, stats, seed, params):
        h = hashlib.sha256(np.ascontiguousarray(X_train).tobytes())
        self.train_hashes[seed] = h.hexdigest()
        self.sizes[seed] = (len(X_train), len(X_test))
        return [self.prediction] * len(X_test)


def cv(ds, spec, fs, split, per_item=False):
    """run_cv on the dataset's feature tensor and labels."""
    return run_cv(feature_tensor(ds, fs), label_indices(ds, per_item), split,
                  spec, fs, per_item=per_item)


def cross_domain(train_ds, test_ds, spec, fs, seed=0):
    """cross_domain_eval on the two datasets' feature tensors and labels."""
    return cross_domain_eval(feature_tensor(train_ds, fs), label_indices(train_ds),
                             feature_tensor(test_ds, fs), label_indices(test_ds),
                             spec, fs, seed)


@pytest.fixture
def stub(monkeypatch):
    """Installs a trainer in place of evaluation._fit_predict."""
    def install(trainer):
        monkeypatch.setattr(evaluation, "_fit_predict", trainer)
        return trainer
    return install


class TestKfoldSplit:
    def test_stratified_folds_balanced(self, small_ds):
        split = kfold_split(small_ds, 3, seed=0)
        counts = {}
        for t, fold in zip(small_ds.trials, split.folds):
            counts.setdefault(fold, {c: 0 for c in CLASS_ORDER})
            counts[fold][t.label] += 1
        for fold in range(3):
            assert all(v == 3 for v in counts[fold].values())

    def test_deterministic(self, small_ds):
        a = kfold_split(small_ds, 3, seed=5)
        b = kfold_split(small_ds, 3, seed=5)
        c = kfold_split(small_ds, 3, seed=6)
        np.testing.assert_array_equal(a.folds, b.folds)
        assert not np.array_equal(a.folds, c.folds)

    def test_class_smaller_than_k_rejected(self):
        ds = generate(GenConfig(trials_per_class=2, seed=0))
        with pytest.raises(TooFewTrials):
            kfold_split(ds, 3)

    def test_duplicate_ids_rejected(self, small_ds):
        t = small_ds.trials[0]
        dup = Dataset(trials=(t, t))
        with pytest.raises(DataError):
            kfold_split(dup, 2)

    def test_group_by_subject_keeps_subjects_together(self, small_ds):
        split = kfold_split(small_ds, 3, seed=1, group_by="subject")
        fold_of_subject = {}
        for t, fold in zip(small_ds.trials, split.folds):
            assert fold_of_subject.setdefault(t.subject, fold) == fold
        assert not split.stratified

    def test_group_by_needs_enough_subjects(self, small_ds):
        with pytest.raises(TooFewTrials):
            kfold_split(small_ds, 5, group_by="subject")  # only 4 subjects

    def test_unsupported_group_key(self, small_ds):
        with pytest.raises(ValueError):
            kfold_split(small_ds, 2, group_by="session")

    @pytest.mark.parametrize("kw", [{}, {"stratified": False},
                                    {"group_by": "subject"}])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_per_trial_assignment(self, small_ds, kw, seed):
        """Oracle: the id -> fold dict filled draw by draw, read back in
        dataset order."""
        trials = small_ds.trials
        rng = np.random.default_rng(seed)
        assignments = {}
        if "group_by" in kw:
            subjects = sorted({t.subject for t in trials})
            order = list(rng.permutation(len(subjects)))
            fold_of = {subjects[j]: i % 3 for i, j in enumerate(order)}
            for t in trials:
                assignments[t.id] = fold_of[t.subject]
        elif kw.get("stratified", True):
            for offset, c in enumerate(CLASS_ORDER):
                members = [t.id for t in trials if t.label is c]
                for j, idx in enumerate(rng.permutation(len(members))):
                    assignments[members[idx]] = (j + offset) % 3
        else:
            for j, idx in enumerate(rng.permutation(len(trials))):
                assignments[trials[idx].id] = j % 3
        split = kfold_split(small_ds, 3, seed=seed, **kw)
        assert split.folds.tolist() == [assignments[t.id] for t in trials]

    def test_split_validation(self):
        with pytest.raises(ValueError):
            FoldSplit(k=1, folds=[], seed=0)
        with pytest.raises(ValueError):
            FoldSplit(k=2, folds=[0, 5], seed=0)
        with pytest.raises(ValueError):
            FoldSplit(k=2, folds=[-1, 0], seed=0)
        folds = FoldSplit(k=2, folds=[0, 1], seed=0).folds
        with pytest.raises(ValueError):
            folds[0] = 1  # read-only


class TestEvalReport:
    @staticmethod
    def _report(per_fold=(1.0, 0.8, 0.9)):
        confusion = np.array([
            [3, 0, 0, 0],
            [0, 2, 1, 0],
            [0, 0, 3, 0],
            [1, 0, 0, 2],
        ])
        return EvalReport(classifier="svm", feature_set="fz", k=3, seed=0,
                          per_fold=per_fold, confusion=confusion,
                          labels=CLASS_LABELS)

    def test_summary_statistics(self):
        r = self._report()
        assert r.mean_accuracy == pytest.approx(0.9)
        assert r.std_accuracy == pytest.approx(np.std([1.0, 0.8, 0.9], ddof=1))
        assert r.pooled_accuracy == pytest.approx(10 / 12)

    def test_single_fold_std_zero(self):
        r = self._report(per_fold=(0.75,))
        assert r.std_accuracy == 0.0

    def test_normalized_rows_sum_to_one(self):
        norm = self._report().confusion_normalized
        np.testing.assert_allclose(norm.sum(axis=1), 1.0)

    def test_zero_row_stays_zero(self):
        r = EvalReport(classifier="svm", feature_set="fz", k=2, seed=0,
                       per_fold=(0.5,), confusion=np.zeros((4, 4), int),
                       labels=CLASS_LABELS)
        np.testing.assert_array_equal(r.confusion_normalized, 0.0)
        assert r.pooled_accuracy == 0.0

    def test_labels_must_match_shape(self):
        with pytest.raises(ValueError):
            EvalReport(classifier="svm", feature_set="fz", k=2, seed=0,
                       per_fold=(0.5,), confusion=np.zeros((3, 3)),
                       labels=CLASS_LABELS)

    def test_dict_round_trip(self):
        r = self._report()
        back = report_from_dict(report_to_dict(r))
        assert back.per_fold == r.per_fold
        np.testing.assert_array_equal(back.confusion, r.confusion)
        assert back.labels == r.labels

    def test_csv_writers(self, tmp_path):
        r = self._report()
        cpath = tmp_path / "confusion.csv"
        fpath = tmp_path / "folds.csv"
        write_confusion_csv(r, cpath)
        write_folds_csv(r, fpath)
        clines = cpath.read_text().strip().split("\n")
        assert clines[0] == "section,true," + ",".join(CLASS_LABELS)
        assert len(clines) == 1 + 8  # counts block + normalized block
        flines = fpath.read_text().strip().split("\n")
        assert flines[0] == "fold,accuracy"
        assert float(flines[1].split(",")[1]) == 1.0


class TestRunCv:
    def test_constant_predictor_quarters(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=0)
        stub(RecordingTrainer(prediction=0))
        report = cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"), split)
        assert report.per_fold == (0.25, 0.25, 0.25)
        # every prediction lands in the hard-skin column
        np.testing.assert_array_equal(report.confusion[:, 1:], 0)
        assert report.confusion[:, 0].sum() == len(small_ds)

    def test_fold_seeds_derived_from_split(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=4)
        recorder = stub(RecordingTrainer())
        cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"), split)
        expected = {4 * 100003 + fold * 17 + 1 for fold in range(3)}
        assert set(recorder.train_hashes) == expected

    def test_test_fold_cannot_leak_into_training(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=0)
        fs = FeatureSet.parse("fz")
        spec = ClassifierSpec("svm")

        clean = stub(RecordingTrainer())
        cv(small_ds, spec, fs, split)

        # poison one fold-0 test trial: quintuple its force readings
        victim = int(np.flatnonzero(split.folds == 0)[0])
        trials = list(small_ds.trials)
        t = trials[victim]
        w = t.wrench.copy()
        w[:, 1:4] *= 5.0
        trials[victim] = Trial(id=t.id, subject=t.subject, session=t.session,
                               food_item=t.food_item, label=t.label, wrench=w,
                               pose=t.pose, source=t.source)
        poisoned_ds = Dataset(trials=tuple(trials))

        poisoned = stub(RecordingTrainer())
        cv(poisoned_ds, spec, fs, split)

        fold0_seed = 0 * 100003 + 0 * 17 + 1
        # fold 0 holds the victim in its test split, so training inputs
        # (features and normalization) must be bit-identical
        assert clean.train_hashes[fold0_seed] == poisoned.train_hashes[fold0_seed]
        # other folds train on the victim, so they must see the change
        others = [s for s in clean.train_hashes if s != fold0_seed]
        assert all(clean.train_hashes[s] != poisoned.train_hashes[s]
                   for s in others)

    def test_trainer_errors_name_the_fold(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=0)

        def broken(train_fms, y, n_labels, test_fms, stats, seed, params):
            raise NoContact("synthetic failure")

        stub(broken)
        with pytest.raises(NoContact, match=r"fold 0: synthetic failure"):
            cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"), split)

    def test_wrong_prediction_count_rejected(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=0)

        def lazy(train_fms, y, n_labels, test_fms, stats, seed, params):
            return [0]

        stub(lazy)
        with pytest.raises(ValueError, match="wrong number"):
            cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"), split)
        with pytest.raises(ValueError, match="wrong number"):
            cross_domain(small_ds, small_ds, ClassifierSpec("svm"),
                         FeatureSet.parse("fz"))

    def test_unassigned_trial_rejected(self, small_ds):
        split = kfold_split(small_ds, 3, seed=0)
        src = generate(GenConfig(trials_per_class=1, seed=77)).trials[0]
        extra = Trial(id="stranger", subject=src.subject, session=src.session,
                      food_item=src.food_item, label=src.label,
                      wrench=src.wrench, pose=src.pose, source=src.source)
        bigger = Dataset(trials=small_ds.trials + (extra,))
        with pytest.raises(ValueError, match="fold split covers 36 trials"):
            cv(bigger, ClassifierSpec("svm"), FeatureSet.parse("fz"), split)

    def test_svm_end_to_end(self, small_ds):
        split = kfold_split(small_ds, 3, seed=0)
        report = cv(small_ds, ClassifierSpec("svm", {"epochs": 120}),
                    FeatureSet.parse("fz"), split)
        assert report.mean_accuracy >= 0.9
        assert report.classifier == "svm"
        assert report.feature_set == "fz"
        assert report.labels == CLASS_LABELS

    def test_per_item_collapses_to_classes(self, small_ds, stub):
        split = kfold_split(small_ds, 3, seed=0)
        stub(RecordingTrainer(prediction=0))  # always "bell pepper"
        report = cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"),
                    split, per_item=True)
        assert report.item_confusion is not None
        assert report.item_confusion.shape == (12, 12)
        assert report.item_labels[0] == "bell pepper"
        # bell pepper is hard-skin, so collapsed accuracy is the class share
        assert report.mean_accuracy == pytest.approx(0.25)
        assert report.item_confusion[:, 0].sum() == len(small_ds)
        assert report.confusion[:, 0].sum() == len(small_ds)

    @pytest.mark.parametrize("per_item", [False, True])
    def test_tallies_match_per_trial_count(self, small_ds, stub, per_item):
        """Confusions and per-fold accuracies equal a per-trial count of the
        same predictions, accuracies bitwise."""
        split = kfold_split(small_ds, 3, seed=5)
        preds = {}

        def random_guess(X_train, y, labels, X_test, stats, fold_seed, params):
            rng = np.random.default_rng(fold_seed)
            preds[fold_seed] = [int(p) for p in
                                rng.integers(0, len(labels), len(X_test))]
            return preds[fold_seed]

        stub(random_guess)
        report = cv(small_ds, ClassifierSpec("svm"), FeatureSet.parse("fz"),
                    split, per_item=per_item)
        item_to_class = [class_index(ITEM_CLASSES[i]) for i in ITEM_ORDER]
        confusion = np.zeros((4, 4), dtype=np.int64)
        item_conf = np.zeros((12, 12), dtype=np.int64)
        per_fold = []
        for fold in range(3):
            test = [t for t, f in zip(small_ds.trials, split.folds) if f == fold]
            hits = 0
            for t, p in zip(test, preds[5 * 100003 + fold * 17 + 1]):
                t_cls, p_cls = class_index(t.label), p
                if per_item:
                    item = ITEM_ORDER.index(normalize_item_name(t.food_item))
                    item_conf[item, p] += 1
                    p_cls = item_to_class[p]
                confusion[t_cls, p_cls] += 1
                hits += t_cls == p_cls
            per_fold.append(hits / len(test))
        assert report.per_fold == tuple(per_fold)
        np.testing.assert_array_equal(report.confusion, confusion)
        if per_item:
            np.testing.assert_array_equal(report.item_confusion, item_conf)


class TestReadFeatures:
    """read_features against the per-trial stack it replaced, and the memory
    its one pass holds."""

    @staticmethod
    def oracle_tensor(ds, fs, delay=0.030):
        return np.stack([prepare_trial(align_streams(t, delay), fs)
                         for t in ds.trials])

    def test_file_pass_equals_dataset_oracle(self, small_ds, tmp_path):
        path = tmp_path / "d.jsonl"
        save_trials(small_ds, path)
        sets = [FeatureSet.parse(s) for s in ("fz", "all+deriv")]
        got = read_features(iter_trials(path), sets)
        assert got.feature_sets == tuple(sets)
        assert [tuple(m) for m in got.trials] == [
            (t.id, t.subject, t.label, t.food_item) for t in small_ds.trials]
        for i, fs in enumerate(sets):
            want = self.oracle_tensor(small_ds, fs)
            assert np.array_equal(got.tensor(i), want)
            assert np.array_equal(feature_tensor(small_ds, fs), want)

    def test_metadata_reads_like_the_dataset(self, small_ds):
        meta = read_features(small_ds, [FeatureSet.parse("fz")]).trials
        for per_item in (False, True):
            assert np.array_equal(label_indices(meta, per_item),
                                  label_indices(small_ds, per_item))
        for kw in ({}, {"stratified": False}, {"group_by": "subject"}):
            assert np.array_equal(kfold_split(meta, 3, seed=2, **kw).folds,
                                  kfold_split(small_ds, 3, seed=2, **kw).folds)

    def test_gridding_error_waits_for_its_tensor(self, small_ds):
        """A px of 1.5e306 grids for px but overflows px's derivative: only
        the derivative set keeps an error, the first one, and every trial's
        metadata is still read."""
        trials = list(small_ds.trials)
        for i in (3, 7):
            pose = trials[i].pose.copy()
            pose[:, 1] = 1.5e306
            trials[i] = dataclasses.replace(trials[i], pose=pose)
        sets = [FeatureSet.parse("px"), FeatureSet.parse("px+deriv")]
        with np.errstate(all="ignore"):
            got = read_features(trials, sets)
        assert len(got.trials) == len(trials)
        assert got.tensor(0).shape == (len(trials), 64, 1)
        with pytest.raises(ValueError, match="non-finite") as first:
            got.tensor(1)
        with pytest.raises(ValueError) as again:
            got.tensor(1)
        assert again.value is first.value

    def test_one_pass_peak_stays_near_the_tensor(self, tmp_path):
        """Reading and gridding a 400-trial file holds one trial's streams
        at a time, so the traced peak stays within the tensor's grid blocks
        plus their stack (2 x its bytes) and 1 MB. Loading the whole Dataset
        before gridding peaked at 12.8 MB against this 5.7 MB bound."""
        path = tmp_path / "robot.jsonl"
        save_trials(generate(GenConfig(trials_per_class=100, seed=6,
                                       domain_shift=1.2, source=Source.ROBOT)),
                    path)
        fs = FeatureSet.parse("all")
        tracemalloc.start()
        try:
            features = read_features(iter_trials(path), [fs])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        X = features.tensor()
        assert X.shape == (400, 64, 12)
        assert np.array_equal(X, self.oracle_tensor(load_trials(path), fs))
        assert peak <= 2 * X.nbytes + 2**20, (peak, X.nbytes)


class TestTally:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                 max_size=60))))
    def test_matches_per_pair_count(self, case):
        n, pairs = case
        want = np.zeros((n, n), dtype=np.int64)
        for t, p in pairs:
            want[t, p] += 1
        y_true = np.array([t for t, _ in pairs], dtype=np.int64)
        got = _tally(y_true, [p for _, p in pairs], n)
        assert got.shape == (n, n)
        np.testing.assert_array_equal(got, want)


class TestAblation:
    def test_sorted_with_parsimony_tie_break(self, small_ds):
        split = kfold_split(small_ds, 3, seed=0)
        sets = [FeatureSet.parse(s) for s in ("all", "fz", "force")]
        rows = ablate_features(read_features(small_ds, sets),
                               ClassifierSpec("svm", {"epochs": 120}), split)
        assert [r["feature_set"] for r in rows] == ["fz", "fx+fy+fz", "all"]
        assert rows[0]["mean_accuracy"] == rows[1]["mean_accuracy"] == 1.0
        assert rows[2]["mean_accuracy"] < 1.0

    def test_empty_sets_rejected(self, small_ds):
        split = kfold_split(small_ds, 3, seed=0)
        with pytest.raises(ValueError):
            ablate_features(read_features(small_ds, []), ClassifierSpec("svm"),
                            split)

    def test_csv_format(self, tmp_path):
        rows = [
            {"feature_set": "fz", "mean_accuracy": 1.0, "std_accuracy": 0.0},
            {"feature_set": "all", "mean_accuracy": 0.5, "std_accuracy": 0.1},
        ]
        p = tmp_path / "ablation.csv"
        write_sweep_csv("feature_set", rows, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "feature_set,mean_accuracy,std_accuracy"
        assert lines[1].startswith("fz,1.0,")
        write_sweep_csv("states", [{"states": 2, "mean_accuracy": 0.5,
                                    "std_accuracy": 0.25}], p)
        assert p.read_text() == "states,mean_accuracy,std_accuracy\n2,0.5,0.25\n"


class TestCrossDomain:
    def test_train_and_test_sets_kept_apart(self, small_ds, stub):
        test_ds = generate(GenConfig(trials_per_class=4, seed=11))
        recorder = stub(RecordingTrainer())
        report = cross_domain(small_ds, test_ds, ClassifierSpec("svm"),
                              FeatureSet.parse("fz"), seed=9)
        assert recorder.sizes[9] == (len(small_ds), len(test_ds))
        assert report.k == 1
        assert len(report.per_fold) == 1
        assert report.confusion.sum() == len(test_ds)

    def test_training_never_holds_the_normalized_test_tensor(self, monkeypatch):
        """When the family's fit is entered, the memory traced since
        cross_domain_eval began (the normalized training tensor, 0.35 MiB)
        stays below one (400, 64, 12) test tensor: the held-out tensor is
        normalized only after the fit. Normalizing it before the fit put
        its 2.34 MiB copy on top."""
        rng = np.random.default_rng(3)
        X_train, X_test = rng.normal(size=(60, 64, 12)), rng.normal(size=(400, 64, 12))
        family = evaluation.FAMILIES["svm"]
        real_fit, at_fit = family.fit, []

        def fit(*args):
            at_fit.append(tracemalloc.get_traced_memory()[0] - start)
            return real_fit(*args)

        monkeypatch.setattr(family, "fit", fit)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            report = cross_domain_eval(X_train, np.arange(60) % 4, X_test,
                                       np.arange(400) % 4,
                                       ClassifierSpec("svm", {"epochs": 2}),
                                       FeatureSet.parse("all"))
        finally:
            tracemalloc.stop()
        assert report.confusion.sum() == 400
        assert len(at_fit) == 1 and at_fit[0] < X_test.nbytes, (at_fit, X_test.nbytes)

    def test_fit_error_comes_before_held_out_normalization_error(self, monkeypatch):
        """A test feature of 1e306 overflows its z-score under training
        statistics with a spread of 1e-3. That error comes after the fit,
        so a training set that lacks a class reports MissingClass first."""
        rng = np.random.default_rng(5)
        X_train = rng.normal(scale=1e-3, size=(8, 64, 1))
        X_test = rng.normal(scale=1e-3, size=(4, 64, 1))
        X_test[2, 10, 0] = 1e306
        fs, spec = FeatureSet.parse("fz"), ClassifierSpec("svm", {"epochs": 1})
        family = evaluation.FAMILIES["svm"]
        real_fit, fits = family.fit, []
        monkeypatch.setattr(family, "fit",
                            lambda *args: fits.append(1) or real_fit(*args))
        with pytest.raises(ValueError, match="non-finite"):
            cross_domain_eval(X_train, np.arange(8) % 4, X_test, np.arange(4),
                              spec, fs)
        assert fits == [1]
        with pytest.raises(MissingClass, match="no training data for class soft"):
            cross_domain_eval(X_train, np.arange(8) % 3, X_test, np.arange(4),
                              spec, fs)

    def test_same_domain_svm_generalizes(self, small_ds):
        test_ds = generate(GenConfig(trials_per_class=6, seed=101))
        report = cross_domain(small_ds, test_ds,
                              ClassifierSpec("svm", {"epochs": 120}),
                              FeatureSet.parse("fz"))
        assert report.mean_accuracy >= 0.9


class TestAnova:
    def test_textbook_instance(self):
        groups = [[1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [3, 4, 5, 6, 7]]
        F, p = anova_oneway(groups)
        # decomposition: SSB = 10, SSW = 30, df = (2, 12)
        assert F == pytest.approx((10 / 2) / (30 / 12), abs=1e-12)
        assert p == pytest.approx(0.75 ** 6, abs=1e-12)

    def test_matches_scipy_on_random_groups(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            groups = [rng.normal(rng.uniform(-1, 1), 1.0,
                                 size=int(rng.integers(3, 9)))
                      for _ in range(k)]
            F, p = anova_oneway(groups)
            ref = sps.f_oneway(*groups)
            assert F == pytest.approx(ref.statistic, rel=1e-10)
            assert p == pytest.approx(ref.pvalue, rel=1e-10, abs=1e-12)

    def test_identical_constant_groups(self):
        assert anova_oneway([[2.0, 2.0], [2.0, 2.0]]) == (0.0, 1.0)

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(21)
        groups = [rng.normal(i, 1.0, size=6) for i in range(3)]
        F0, _ = anova_oneway(groups)
        F1, _ = anova_oneway([g + 100.0 for g in groups])
        F2, _ = anova_oneway([g * 7.5 for g in groups])
        assert F1 == pytest.approx(F0, rel=1e-9)
        assert F2 == pytest.approx(F0, rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateGroups):
            anova_oneway([[1.0, 2.0]])
        with pytest.raises(DegenerateGroups):
            anova_oneway([[1.0, 2.0], [3.0]])

    def test_two_groups_equal_variance_f_is_t_squared(self):
        rng = np.random.default_rng(22)
        a = rng.normal(0.0, 1.3, size=8)
        b = a + 2.0  # identical sample variance by construction
        F, pf = anova_oneway([a, b])
        t, pt = ttest_2tailed(a, b)
        assert F == pytest.approx(t * t, rel=1e-12)
        assert pf == pytest.approx(pt, rel=1e-12)


class TestTtest:
    def test_matches_scipy_welch(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.normal(0.0, rng.uniform(0.5, 2.0),
                           size=int(rng.integers(3, 12)))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                           size=int(rng.integers(3, 12)))
            t, p = ttest_2tailed(a, b)
            ref = sps.ttest_ind(a, b, equal_var=False)
            assert t == pytest.approx(ref.statistic, rel=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)

    def test_identical_groups(self):
        a = [1.0, 2.0, 3.0]
        t, p = ttest_2tailed(a, a)
        assert t == 0.0
        assert p == 1.0

    def test_equal_constant_groups(self):
        assert ttest_2tailed([5.0, 5.0], [5.0, 5.0]) == (0.0, 1.0)

    def test_distinct_constant_groups(self):
        t, p = ttest_2tailed([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert p < 1e-6

    def test_clear_separation_significant(self):
        rng = np.random.default_rng(24)
        a = rng.normal(0.0, 0.1, size=10)
        b = rng.normal(5.0, 0.1, size=10)
        _, p = ttest_2tailed(a, b)
        assert p < 1e-10


class TestStudentizedRange:
    def test_two_group_case_reduces_to_t(self):
        # the range of two normals over s is sqrt(2) |T| with T ~ t(df), so
        # Tukey's p for two groups is the pooled two-sided t-test's
        rng = np.random.default_rng(27)
        for na, nb in ((3, 3), (5, 9), (20, 7), (40, 40)):
            a = rng.normal(0.0, 1.0, size=na)
            b = rng.normal(0.8, 1.0, size=nb)
            (row,) = tukey_hsd([a, b])
            ref = sps.ttest_ind(a, b, equal_var=True).pvalue
            assert row["p"] == pytest.approx(ref, rel=0.0, abs=1e-10)


class TestTukey:
    def test_row_schema_and_decisions(self):
        rng = np.random.default_rng(25)
        groups = [rng.normal(0.0, 1.0, size=10),
                  rng.normal(0.0, 1.0, size=10),
                  rng.normal(3.0, 1.0, size=10)]
        rows = tukey_hsd(groups)
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"group_i", "group_j", "mean_diff", "q", "p",
                                "significant"}
            assert row["significant"] == (row["p"] < 0.05)
        by_pair = {(r["group_i"], r["group_j"]): r for r in rows}
        assert not by_pair[(0, 1)]["significant"]
        assert by_pair[(0, 2)]["significant"]
        assert by_pair[(1, 2)]["significant"]
        assert by_pair[(0, 2)]["mean_diff"] == pytest.approx(
            groups[0].mean() - groups[2].mean())

    def test_matches_scipy_p_values(self):
        rng = np.random.default_rng(26)
        for _ in range(5):
            groups = [rng.normal(rng.uniform(-1, 1), 1.0, size=8)
                      for _ in range(3)]
            rows = tukey_hsd(groups)
            ref = sps.tukey_hsd(*groups)
            for row in rows:
                i, j = row["group_i"], row["group_j"]
                assert row["p"] == pytest.approx(ref.pvalue[i, j], abs=1e-6)

    def test_identical_groups_not_significant(self):
        g = [1.0, 2.0, 3.0, 4.0]
        rows = tukey_hsd([g, g, g])
        for row in rows:
            assert row["p"] == pytest.approx(1.0, abs=1e-9)
            assert not row["significant"]

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            tukey_hsd([[1.0, 2.0], [3.0, 4.0]], alpha=0.0)

    def test_degenerate_groups(self):
        with pytest.raises(DegenerateGroups):
            tukey_hsd([[1.0, 2.0]])


# The statistics as they were when evaluation.py built its Gauss-Legendre
# tables at import and imported scipy.special at module level. anova_oneway
# and ttest_2tailed must not change in any bit. tukey_hsd now takes its
# p-values from scipy.stats.studentized_range; the double Gauss-Legendre
# quadrature it replaced is the oracle for them.
OLD_OUTER_X, OLD_OUTER_XW = np.polynomial.legendre.leggauss(160)
OLD_INNER_Z, OLD_INNER_W = (lambda xw: (8.0 * xw[0], 8.0 * xw[1]))(
    np.polynomial.legendre.leggauss(96))


def old_studentized_range_cdf(q, k, df):
    if q <= 0.0:
        return 0.0
    half = 12.0 / np.sqrt(2.0 * df)
    lo, hi = max(0.0, 1.0 - half), min(6.0, 1.0 + half)
    mid, span = 0.5 * (hi + lo), 0.5 * (hi - lo)
    s, sw = mid + span * OLD_OUTER_X, span * OLD_OUTER_XW
    with np.errstate(divide="ignore"):
        log_f = ((df / 2.0) * np.log(df) - gammaln(df / 2.0)
                 - (df / 2.0 - 1.0) * np.log(2.0)
                 + (df - 1.0) * np.log(s) - df * s * s / 2.0)
    w = q * s
    z = OLD_INNER_Z[None, :]
    phi = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    inner = phi * np.power(
        np.clip(ndtr(z) - ndtr(z - w[:, None]), 0.0, 1.0), k - 1)
    cdf = float(np.sum(sw * np.exp(log_f) * (k * (inner @ OLD_INNER_W))))
    return min(max(cdf, 0.0), 1.0)


def old_anova_oneway(groups):
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    n = sum(g.size for g in arrays)
    df1, df2 = len(arrays) - 1, n - len(arrays)
    grand = sum(g.sum() for g in arrays) / n
    ssb = sum(g.size * (g.mean() - grand) ** 2 for g in arrays)
    ssw = sum(((g - g.mean()) ** 2).sum() for g in arrays)
    F = (ssb / df1) / max(ssw / df2, _MSW_FLOOR)
    p = float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * F)))
    return float(F), min(max(p, 0.0), 1.0)


def old_ttest_2tailed(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / a.size + vb / b.size
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    df = se2 * se2 / ((va / a.size) ** 2 / (a.size - 1)
                      + (vb / b.size) ** 2 / (b.size - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), min(max(p, 0.0), 1.0)


class TestStatisticsBitwise:
    GROUPS = [np.random.default_rng(seed).normal(
        np.arange(k)[:, None] * 0.4, 1.0, size=(k, 7)) for seed, k in
        ((31, 2), (32, 3), (33, 5))]

    def test_tukey_hsd(self):
        for groups in self.GROUPS:
            rows = tukey_hsd(groups)
            df = sum(g.size for g in groups) - len(groups)
            for row in rows:
                p = 1.0 - old_studentized_range_cdf(row["q"], len(groups), df)
                assert row["p"] == pytest.approx(p, rel=0.0, abs=1e-8)

    def test_anova_oneway(self):
        for groups in self.GROUPS:
            assert anova_oneway(groups) == old_anova_oneway(groups)

    def test_ttest_2tailed(self):
        for groups in self.GROUPS:
            a, b = groups[0], groups[-1] * 1.7
            assert ttest_2tailed(a, b) == old_ttest_2tailed(a, b)
