"""Command-line front end.

Subcommands: ingest, synth, train, evaluate, ablate, cross-domain, report.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.

Each command that takes --config declares its keys once, in `_KEYS`. A key
is both the flag --key-name and the config-file line `key = value`, and both
go through the same parser. Precedence: flags > --config file > built-in
defaults. A config key the command does not read is named on stderr and
ignored. Every run writes a run.json holding exactly the resolved keys of its
command; `evaluate --from-run` re-executes one exactly and combines only with
--out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import evaluation as ev
from . import nn as nn_mod
from .core import CLASS_ORDER, Source, iter_trials, save_trials
from .errors import DataError, NumericalError
from .preprocess import FeatureSet, PreprocConfig, fit_norm
from .synthgen import GenConfig, generate


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _boolean(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(value)


# Each key a command reads, declared once as key -> (builtin default, parser).
# The parser is a type such as int, _boolean (an on-only flag) or a tuple of
# choices. A None default defers to the component's own default (epochs is
# then left out of the hyperparameters).
_MODEL_KEYS = {
    "features": ("all", str),
    "seed": (0, int),
    "threshold": (0.5, float),
    "hold": (0.05, float),
    "duration": (0.82, float),
    "full_phase": (False, _boolean),
    "grid": (64, int),
    "delay": (0.030, float),
    "states": (3, int),
    "max_iter": (100, int),
    "tol": (1e-4, float),
    "estimate_pi": (False, _boolean),
    "svm_c": (1.0, float),
    "epochs": (None, int),
    "lr": (1e-3, float),
    "batch_size": (32, int),
    "optimizer": ("adam", ("adam", "sgd")),
    "hidden": (50, int),
    "layers": (2, int),
    "per_step": (False, _boolean),
    "channels": (32, int),
    "depth": (4, int),
    "kernel": (5, int),
}
_ABLATE_KEYS = {**_MODEL_KEYS, "k": (3, int)}

# The key table of every command that takes --config.
_KEYS = {
    "synth": {
        "per_class": (60, int),
        "seed": (0, int),
        "noise": (0.05, float),
        "rate": (120.0, float),
        "duration": (1.5, float),
        "domain_shift": (1.0, float),
        "fz_only": (False, _boolean),
        "source": ("human", ("human", "robot")),
    },
    "train": _MODEL_KEYS,
    "evaluate": {**_ABLATE_KEYS, "per_item": (False, _boolean),
                 "group_by": (None, ("subject",)), "states_sweep": (None, str)},
    "ablate": _ABLATE_KEYS,
    "cross-domain": _MODEL_KEYS,
}

_CLASSIFIERS = ("hmm", "svm", "tcn", "lstm")

# The keys an evaluate run.json holds besides the key table, and their parsers.
_RUN_KEYS = {"data": str, "clf": _CLASSIFIERS, "out": str}

# Every key of an evaluate run.json, and all that --from-run reads back.
_EVALUATE_KEYS = (*_KEYS["evaluate"], *_RUN_KEYS, "command")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_key_flags(p: _Parser, table: dict) -> None:
    for key, (_, parse) in table.items():
        if parse is _boolean:
            p.add_argument(_flag(key), action="store_const", const=True, default=None)
        elif isinstance(parse, tuple):
            p.add_argument(_flag(key), choices=parse, default=None)
        else:
            p.add_argument(_flag(key), type=parse, default=None)
    p.add_argument("--config", default=None, help="flat key=value config file")


def build_parser() -> _Parser:
    top = _Parser(prog="haptix", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a trial file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output trial file (JSON lines)")

    p = sub.add_parser("train", help="train one classifier on a full dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--clf", required=True, choices=_CLASSIFIERS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("evaluate", help="k-fold cross-validated evaluation")
    p.add_argument("--data", default=None)
    p.add_argument("--clf", choices=_CLASSIFIERS, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--from-run", default=None,
                   help="re-execute the configuration of an emitted run.json")

    p = sub.add_parser("ablate", help="feature-set ablation on identical folds")
    p.add_argument("--data", required=True)
    p.add_argument("--clf", required=True, choices=_CLASSIFIERS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("cross-domain", help="train on one dataset, test on another")
    p.add_argument("--train-data", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--clf", required=True, choices=_CLASSIFIERS)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="print or re-export an evaluation report")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", default=None, help="directory for re-exported CSVs")
    for name, table in _KEYS.items():
        _add_key_flags(sub.choices[name], table)
    return top


def _read_config_file(path) -> dict:
    cfg = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _known(source, values: dict, keys) -> dict:
    """The entries of `values` under `keys`; any other key is named on stderr."""
    unknown = sorted(set(values) - set(keys))
    if unknown:
        print(f"warning: {source}: ignoring unknown key(s): {', '.join(unknown)}",
              file=sys.stderr)
    return {key: value for key, value in values.items() if key in keys}


def _parse(key: str, parse, value: str):
    """A config-file value, through the parser of the key's flag."""
    try:
        if isinstance(parse, tuple):
            if value not in parse:
                raise ValueError(value)
            return value
        return parse(value)
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {value!r}") from None


def _stored(source, key: str, value, parse, nullable: bool):
    """A run.json value, which must have the type its flag's parser returns
    (an int is taken for a float); None only where the default is None."""
    if value is None and nullable:
        return value
    if parse is float and type(value) is int:
        value = float(value)
    if isinstance(parse, tuple):
        want, ok = "one of " + ", ".join(parse), value in parse
    else:
        want = "true or false" if parse is _boolean else parse.__name__
        ok = type(value) is (bool if parse is _boolean else parse)
    if not ok:
        raise UsageError(f"{source}: key {key} must be {want}, got {value!r}")
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """The command's keys: flags > config file > builtin defaults."""
    table = _KEYS[args.command]
    file_cfg = {}
    if args.config:
        file_cfg = _known(args.config, _read_config_file(args.config), table)
    resolved = {}
    for key, (default, parse) in table.items():
        flag_val = getattr(args, key)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in file_cfg:
            resolved[key] = _parse(key, parse, file_cfg[key])
        else:
            resolved[key] = default
    return resolved


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"{what} {p} does not exist")
    return p


def _outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_run_json(cfg: dict, path) -> None:
    Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def _write_report(report: ev.EvalReport, run: dict, folds: bool = False) -> int:
    """report.json, confusion.csv, folds.csv if asked, and run.json under
    run["out"], then the summary line."""
    out = _outdir(run["out"])
    (out / "report.json").write_text(
        json.dumps(ev.report_to_dict(report), indent=2) + "\n", encoding="utf-8")
    ev.write_confusion_csv(report, out / "confusion.csv")
    if folds:
        ev.write_folds_csv(report, out / "folds.csv")
    _write_run_json(run, out / "run.json")
    print(f"{report.classifier} {report.feature_set} "
          f"{report.mean_accuracy:.4f} ± {report.std_accuracy:.4f}")
    return 0


def _after_reading(paths, check):
    """check(), whose error, if it raises one, is re-raised only after the
    trial files at `paths` have been read through, so that a bad record in
    them is reported before a bad option or output directory."""
    try:
        return check()
    except Exception:
        for path in paths:
            for _ in iter_trials(path):
                pass
        raise


def _preproc_from(cfg: dict) -> PreprocConfig:
    duration = None if cfg["full_phase"] else cfg["duration"]
    return PreprocConfig(threshold=cfg["threshold"], hold=cfg["hold"],
                         duration=duration, grid=cfg["grid"])


def _params_from(cfg: dict) -> dict:
    params = {
        "states": cfg["states"], "max_iter": cfg["max_iter"], "tol": cfg["tol"],
        "estimate_pi": cfg["estimate_pi"], "C": cfg["svm_c"], "lr": cfg["lr"],
        "batch_size": cfg["batch_size"], "optimizer": cfg["optimizer"],
        "hidden": cfg["hidden"], "layers": cfg["layers"],
        "per_step": cfg["per_step"], "channels": cfg["channels"],
        "depth": cfg["depth"], "kernel": cfg["kernel"],
    }
    if cfg["epochs"] is not None:
        params["epochs"] = cfg["epochs"]
    return params


def _features(cfg: dict, *paths) -> list[ev.TrialFeatures]:
    """read_features of each trial file at `paths`, one pass per file, with
    the feature set and the preprocessing of cfg."""
    fs, preproc = _after_reading(paths, lambda: (FeatureSet.parse(cfg["features"]),
                                                 _preproc_from(cfg)))
    return [ev.read_features(iter_trials(path), [fs], preproc, cfg["delay"])
            for path in paths]


def _cmd_ingest(args) -> int:
    """Each record is written as it is read, into a file beside dataset.jsonl
    that replaces it only once the last record is valid."""
    data = _require_file(args.data, "trial file")
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    _after_reading([data], lambda: out.mkdir(parents=True, exist_ok=True))
    part = out / f".dataset.jsonl.{os.getpid()}"
    counts = dict.fromkeys(CLASS_ORDER, 0)

    def counted(trials):
        for t in trials:
            counts[t.label] += 1
            yield t

    try:
        save_trials(counted(iter_trials(data)), part)
        part.replace(out / "dataset.jsonl")
    except BaseException:
        part.unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise
    _write_run_json({"command": "ingest", "data": str(args.data),
                     "out": str(args.out)}, out / "run.json")
    tally = " ".join(f"{c.label}={counts[c]}" for c in CLASS_ORDER)
    print(f"ingested {sum(counts.values())} trials: {tally}")
    return 0


def _cmd_synth(args) -> int:
    cfg = _resolve(args)
    gen = GenConfig(
        trials_per_class=cfg["per_class"], noise_std=cfg["noise"],
        sample_rate=cfg["rate"], duration=cfg["duration"],
        domain_shift=cfg["domain_shift"], seed=cfg["seed"],
        fz_only=cfg["fz_only"], source=Source(cfg["source"]),
    )
    ds = generate(gen)
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    save_trials(ds, out)
    _write_run_json(dict(cfg, command="synth", out=str(out)), str(out) + ".run.json")
    print(f"wrote {len(ds)} trials to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolve(args)
    data = _require_file(args.data, "trial file")
    [features] = _features(cfg, data)
    fs, X = features.feature_sets[0], features.tensor()
    stats = fit_norm(X, fs.channel_names)
    params = ev.fit_params(ev.ClassifierSpec(args.clf, _params_from(cfg)), fs)
    model = ev.fit_model(stats.apply(X), ev.label_indices(features.trials),
                         ev.CLASS_LABELS, cfg["seed"], params)
    out = _outdir(args.out)
    ev.FAMILIES[args.clf].save_model(model, out / "model.json")
    curve = getattr(model, "loss_curve", None)
    if curve is not None:
        nn_mod.save_loss_curve(curve, out / "loss_curve.csv")
    norm = {"mean": stats.mean.tolist(), "std": stats.std.tolist(),
            "channel_names": list(stats.channel_names)}
    (out / "norm.json").write_text(json.dumps(norm) + "\n", encoding="utf-8")
    run = dict(cfg, command="train", data=str(data), clf=args.clf, out=str(args.out))
    _write_run_json(run, out / "run.json")
    print(f"trained {args.clf} on {len(X)} trials -> {out / 'model.json'}")
    return 0


def _evaluate_with_cfg(cfg: dict) -> int:
    sweep = cfg["states_sweep"]
    if sweep:
        if cfg["clf"] != "hmm":
            raise UsageError("--states-sweep only applies to --clf hmm")
        try:
            sweep = [int(s) for s in str(sweep).split(",")]
        except ValueError:
            raise UsageError("--states-sweep expects a comma list of integers, "
                             f"got {sweep!r}") from None
    [features] = _features(cfg, _require_file(cfg["data"], "trial file"))
    split = ev.kfold_split(features.trials, cfg["k"], seed=cfg["seed"],
                           group_by=cfg["group_by"])
    params = _params_from(cfg)
    fs, X = features.feature_sets[0], features.tensor()
    y = ev.label_indices(features.trials, cfg["per_item"])

    def cv(spec: ev.ClassifierSpec) -> ev.EvalReport:
        return ev.run_cv(X, y, split, spec, fs, per_item=cfg["per_item"])

    if sweep:
        lines = ["states,mean_accuracy,std_accuracy"]
        for states in sweep:
            report = cv(ev.ClassifierSpec("hmm", dict(params, states=states)))
            lines.append(f"{states},{repr(report.mean_accuracy)},{repr(report.std_accuracy)}")
            print(f"hmm[K={states}] {report.feature_set} "
                  f"{report.mean_accuracy:.4f} ± {report.std_accuracy:.4f}")
        out = _outdir(cfg["out"])
        (out / "states_sweep.csv").write_text("\n".join(lines) + "\n",
                                              encoding="utf-8")
        _write_run_json(cfg, out / "run.json")
        return 0
    return _write_report(cv(ev.ClassifierSpec(cfg["clf"], params)), cfg,
                         folds=True)


def _cmd_evaluate(args) -> int:
    if args.from_run:
        given = [_flag(key) for key in (*_KEYS["evaluate"], "data", "clf", "config")
                 if getattr(args, key) is not None]
        if given:
            raise UsageError("--from-run combines only with --out, not with "
                             + ", ".join(given))
        stored = json.loads(_require_file(args.from_run, "run file")
                            .read_text(encoding="utf-8"))
        if not isinstance(stored, dict) or stored.get("command") != "evaluate":
            raise UsageError("--from-run expects a run.json from an evaluate run")
        if args.out is not None:
            stored["out"] = args.out
        missing = [key for key in _EVALUATE_KEYS if key not in stored]
        if missing:
            raise UsageError(f"{args.from_run} lacks key(s): {', '.join(missing)}")
        cfg = _known(args.from_run, stored, _EVALUATE_KEYS)
        for key, (default, parse) in _KEYS["evaluate"].items():
            cfg[key] = _stored(args.from_run, key, cfg[key], parse, default is None)
        for key, parse in _RUN_KEYS.items():
            cfg[key] = _stored(args.from_run, key, cfg[key], parse, False)
        return _evaluate_with_cfg(cfg)
    cfg = _resolve(args)
    for key in _RUN_KEYS:
        if getattr(args, key) is None:
            raise UsageError(f"--{key} is required (or use --from-run)")
        cfg[key] = getattr(args, key)
    cfg["command"] = "evaluate"
    return _evaluate_with_cfg(cfg)


def _cmd_ablate(args) -> int:
    cfg = _resolve(args)
    data = _require_file(args.data, "trial file")

    def sets_and_preproc():
        sets = [FeatureSet.parse(tok) for tok in cfg["features"].split(",") if tok]
        if not sets:
            raise UsageError("--features must list at least one feature set")
        return sets, _preproc_from(cfg)

    sets, preproc = _after_reading([data], sets_and_preproc)
    features = ev.read_features(iter_trials(data), sets, preproc, cfg["delay"])
    split = ev.kfold_split(features.trials, cfg["k"], seed=cfg["seed"])
    spec = ev.ClassifierSpec(args.clf, _params_from(cfg))
    rows = ev.ablate_features(features, spec, split)
    out = _outdir(args.out)
    ev.write_ablation_csv(rows, out / "ablation.csv")
    run = dict(cfg, command="ablate", data=str(data), clf=args.clf, out=str(args.out))
    _write_run_json(run, out / "run.json")
    for row in rows:
        print(f"{args.clf} {row['feature_set']} "
              f"{row['mean_accuracy']:.4f} ± {row['std_accuracy']:.4f}")
    return 0


def _cmd_cross_domain(args) -> int:
    cfg = _resolve(args)
    train_path = _require_file(args.train_data, "trial file")
    test_path = _require_file(args.test_data, "trial file")
    train, test = _features(cfg, train_path, test_path)
    fs = train.feature_sets[0]
    spec = ev.ClassifierSpec(args.clf, _params_from(cfg))
    X_train, X_test = train.tensor(), test.tensor()
    report = ev.cross_domain_eval(X_train, ev.label_indices(train.trials), X_test,
                                  ev.label_indices(test.trials), spec, fs, cfg["seed"])
    run = dict(cfg, command="cross-domain", train_data=str(train_path),
               test_data=str(test_path), clf=args.clf, out=str(args.out))
    return _write_report(report, run)


def _cmd_report(args) -> int:
    path = _require_file(args.in_path, "report file")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise DataError(f"{path}: expected a JSON object, got {type(payload).__name__}")
        report = ev.report_from_dict(payload)
    except KeyError as exc:
        raise DataError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from None
    print(f"{report.classifier} {report.feature_set} "
          f"{report.mean_accuracy:.4f} ± {report.std_accuracy:.4f} "
          f"(pooled {report.pooled_accuracy:.4f}, k={report.k})")
    width = max(len(str(l)) for l in report.labels)
    for name, row in zip(report.labels, report.confusion):
        cells = " ".join(f"{int(v):5d}" for v in row)
        print(f"  {str(name):>{width}} {cells}")
    if args.out:
        out = _outdir(args.out)
        ev.write_confusion_csv(report, out / "confusion.csv")
        ev.write_folds_csv(report, out / "folds.csv")
        print(f"re-exported CSVs to {out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "synth": _cmd_synth,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "cross-domain": _cmd_cross_domain,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
