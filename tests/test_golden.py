"""Golden digests of the CLI's result files.

A small fixed grid of commands runs through `haptix.cli.main` in a temporary
directory: `evaluate` for each classifier, one `--per-item` run, one
`--states-sweep` run, one `ablate` and `cross-domain` for each classifier.
The sha256 of each result file must equal the digest committed below, so a
change that flips a single prediction fails here. On a mismatch the failure
names the file and prints the confusion rows whose counts moved (or the whole
file, for the tables without a confusion).

`model.json` and `loss_curve.csv` are not pinned: kernel changes that leave
every prediction alone still move their last bits.
"""

import contextlib
import hashlib
import io

import pytest

from haptix.cli import main

PINNED = ("report.json", "confusion.csv", "folds.csv", "ablation.csv",
          "states_sweep.csv")

SVM = ["--epochs", "30"]
HMM = ["--max-iter", "10"]
NETS = ["--epochs", "20"]
FIT = {"svm": SVM, "hmm": HMM, "tcn": NETS, "lstm": NETS}


def _grid():
    """name -> argv without --out; TRAIN and TEST stand for the data files."""
    grid = {}
    for clf, fit in FIT.items():
        grid[f"evaluate-{clf}"] = ["evaluate", "--data", "TRAIN", "--clf", clf,
                                   "--k", "3", *fit]
        grid[f"cross-domain-{clf}"] = ["cross-domain", "--train-data", "TRAIN",
                                       "--test-data", "TEST", "--clf", clf, *fit]
    grid["evaluate-per-item"] = ["evaluate", "--data", "TRAIN", "--clf", "svm",
                                 "--k", "3", "--per-item", *SVM]
    grid["states-sweep"] = ["evaluate", "--data", "TRAIN", "--clf", "hmm",
                            "--k", "3", "--states-sweep", "2,3", *HMM]
    grid["ablate"] = ["ablate", "--data", "TRAIN", "--clf", "svm", "--k", "3",
                      "--features", "fz,force,all", *SVM]
    return grid


GRID = _grid()

# run -> {file: sha256}
DIGESTS = {
    "evaluate-svm": {
        "confusion.csv":
            "f7c53cbc9e57844e2d438b0fa8877777b58de83b861cba9bd5a132f376c381ee",
        "folds.csv":
            "85ee203b250a4620ea317f3085b0de206e8a5c1afa96bfece7c24d742a0d0a3f",
        "report.json":
            "d2bb1c8aa63c83b4d455efe826fe28bcfb127f07eaa989dda8ef45d1a5ad4e21",
    },
    "cross-domain-svm": {
        "confusion.csv":
            "dcb33a701dc199229fb455422a8c20ed6a31966953c0d2feffd624568abdfabc",
        "report.json":
            "3ff978120a6657d3d20b2dbab27973a8a6095da7ee7b54e32e6f6b0a981ebc18",
    },
    "evaluate-hmm": {
        "confusion.csv":
            "13252b396c90cf346af35068252d7c804bfb5ea857fe3069ccec2f89a18a4a39",
        "folds.csv":
            "b3da5b9e6bd8464f16bdfe2965899541f3458006983c23fc25d66c01308720d9",
        "report.json":
            "c780ddc1bd3ee60e8b3a12f6f201d0acccf42dccdf5fcee968b92edf04febacf",
    },
    "cross-domain-hmm": {
        "confusion.csv":
            "b3cc120e95693d4d90b6332ef27fea1bef3802d89748460505b977e4965427b7",
        "report.json":
            "e3f872f3039618ff1c06a2f238ecb73b0612d27e0c23ad2e90990943f099a906",
    },
    "evaluate-tcn": {
        "confusion.csv":
            "2b4377ffc5eab00f927aac899352832f10c4b2710b13805054e1021930c5086b",
        "folds.csv":
            "02147fc30c443dee1d054214a0b7f9dc061412b637ba94466d67604995cbbb15",
        "report.json":
            "95a3fa8f59adfe2ee4da6271f681e4d4e119b9e83db9ee07829b884c0020d042",
    },
    "cross-domain-tcn": {
        "confusion.csv":
            "7a8c0e314cb39f3d599e8ce1dc504209a61b99aa5342baebfc163f1a801fdee4",
        "report.json":
            "5b8dacd681bce766289286c1e4f811cb462ec5b3f3fcbd2f8f4cdf975dc1c980",
    },
    "evaluate-lstm": {
        "confusion.csv":
            "565d7d76bc2716b76142b33e9ab109fe24cfebe8e347c5320b5a0b154cf6fb82",
        "folds.csv":
            "b692e2cfbcdb2d05cd45d24344dc67cf7ae3a380ae1d55f1fba32796f4a8283b",
        "report.json":
            "446ae4be0586c7dbf6abfa8d784248430650df1582f7ebd43b8cfdefd3d8a772",
    },
    "cross-domain-lstm": {
        "confusion.csv":
            "ac1f631ab1edfd1ce28f8edf362e708e339e7faf0b04368e219a8b05407bf134",
        "report.json":
            "567fdc5681d908a6b2e14ca71edeb3cf0815d165ab988a5fb8181249cfb34f1c",
    },
    "evaluate-per-item": {
        "confusion.csv":
            "dcf09d9bc528c1e241b39b2059f64590f1d1c11547cb354dc98bf838ebd72a6c",
        "folds.csv":
            "83025d535cea86ba6e28ed4df238bdb3001e0d31c1c03448b667bc5be229daeb",
        "report.json":
            "ea4360f66b4aa79f683df36214bd797bad8bb4bef2510718520066d50b1a356f",
    },
    "states-sweep": {
        "states_sweep.csv":
            "f98c586ad175d087a08070af8d54b571282d0c710a3e3bd75dcf3562deaca437",
    },
    "ablate": {
        "ablation.csv":
            "ba476904348ef4c54eb951aac5acf0edec075331842730855354eb4bf9e13d59",
    },
}

# run -> the count rows of its confusion.csv, one string per true label
CONFUSION = {
    "evaluate-svm": [
        "hard-skin: 7 2 3 0",
        "hard: 2 9 1 0",
        "medium: 0 0 9 3",
        "soft: 0 0 0 12",
    ],
    "cross-domain-svm": [
        "hard-skin: 9 1 0 0",
        "hard: 0 10 0 0",
        "medium: 1 5 3 1",
        "soft: 0 0 0 10",
    ],
    "evaluate-hmm": [
        "hard-skin: 8 3 1 0",
        "hard: 0 12 0 0",
        "medium: 1 1 10 0",
        "soft: 0 0 0 12",
    ],
    "cross-domain-hmm": [
        "hard-skin: 0 10 0 0",
        "hard: 0 10 0 0",
        "medium: 0 6 4 0",
        "soft: 0 0 0 10",
    ],
    "evaluate-tcn": [
        "hard-skin: 7 4 1 0",
        "hard: 4 8 0 0",
        "medium: 3 3 6 0",
        "soft: 0 0 1 11",
    ],
    "cross-domain-tcn": [
        "hard-skin: 8 2 0 0",
        "hard: 1 7 2 0",
        "medium: 4 3 3 0",
        "soft: 1 0 2 7",
    ],
    "evaluate-lstm": [
        "hard-skin: 4 2 4 2",
        "hard: 2 9 1 0",
        "medium: 3 1 5 3",
        "soft: 1 1 0 10",
    ],
    "cross-domain-lstm": [
        "hard-skin: 0 7 2 1",
        "hard: 0 9 0 1",
        "medium: 0 8 0 2",
        "soft: 0 0 0 10",
    ],
    "evaluate-per-item": [
        "hard-skin: 5 1 1 5",
        "hard: 3 8 1 0",
        "medium: 4 4 3 1",
        "soft: 2 0 0 10",
    ],
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    """48 noisy human trials to train on, 40 shifted robot trials to test on:
    the test set spans two prediction slices of the networks."""
    root = tmp_path_factory.mktemp("golden")
    paths = {"TRAIN": root / "train.jsonl", "TEST": root / "test.jsonl"}
    assert main(["synth", "--per-class", "12", "--noise", "0.3", "--seed", "11",
                 "--out", str(paths["TRAIN"])]) == 0
    assert main(["synth", "--per-class", "10", "--noise", "0.3", "--seed", "12",
                 "--domain-shift", "1.6", "--source", "robot",
                 "--out", str(paths["TEST"])]) == 0
    return root, paths


def run_grid_entry(name, root, paths):
    """Run one grid entry; its pinned files' digests and confusion rows."""
    out = root / name
    argv = [str(paths.get(a, a)) for a in GRID[name]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted(out.iterdir()) if f.name in PINNED}
    confusion = []
    if (out / "confusion.csv").exists():
        lines = (out / "confusion.csv").read_text(encoding="utf-8").splitlines()
        for line in lines:
            if line.startswith("count,"):
                _, label, counts = line.split(",", 2)
                confusion.append(f"{label}: {counts.replace(',', ' ')}")
    return out, digests, confusion


@pytest.mark.parametrize("name", list(GRID))
def test_result_files_match_golden_digests(data, name):
    out, digests, confusion = run_grid_entry(name, *data)
    assert sorted(digests) == sorted(DIGESTS[name])
    wrong = [f for f in digests if digests[f] != DIGESTS[name][f]]
    if not wrong:
        return
    lines = [f"{name}: {', '.join(wrong)} changed"]
    flipped = [(want, got) for want, got in zip(CONFUSION.get(name, []), confusion)
               if want != got]
    for want, got in flipped:
        lines.append(f"  confusion row {want}  ->  {got}")
    if not flipped:
        for f in wrong:
            lines.append(f"--- {f}\n" + (out / f).read_text(encoding="utf-8"))
    pytest.fail("\n".join(lines))
