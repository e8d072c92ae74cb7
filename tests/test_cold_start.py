"""`import haptix` stays cheap: scipy.special and scipy.stats (about 0.3 s
and 0.6 s of imports) load on first use, which only the statistics make.
No command, and no classifier's training or prediction, loads either.

Each check runs in a fresh interpreter, since this test process has long
imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import haptix
from haptix.cli import main

LAZY = ("scipy.special", "scipy.stats")


def loaded_after(code: str) -> dict[str, bool]:
    """Which of LAZY are in sys.modules after running code in a new process."""
    probe = f"{code}\nimport sys\nprint(*(m in sys.modules for m in {LAZY!r}))"
    src_dir = str(Path(haptix.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(LAZY, (w == "True" for w in proc.stdout.split())))


def test_import_haptix_loads_neither():
    assert loaded_after("import haptix") == {m: False for m in LAZY}


def test_import_cli_loads_neither():
    assert loaded_after("import haptix.cli") == {m: False for m in LAZY}


def test_lstm_fit_and_predict_load_neither():
    loaded = loaded_after(
        "import numpy as np\n"
        "from haptix import nn\n"
        "X = np.random.default_rng(0).standard_normal((6, 5, 2))\n"
        "model = nn.fit(X, np.arange(6) % 2, ('a', 'b'), 0,\n"
        "               {'kind': 'lstm', 'hidden': 4, 'layers': 2, 'epochs': 2})\n"
        "nn.predict(model, X)")
    assert loaded == {m: False for m in LAZY}


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cold-start")
    for source in ("human", "robot"):
        assert main(["synth", "--per-class", "3", "--seed", "1", "--source",
                     source, "--out", str(tmp / f"{source}.jsonl")]) == 0
    return tmp


@pytest.mark.parametrize("clf", ["svm", "hmm", "tcn", "lstm"])
def test_evaluate_and_cross_domain_load_neither(clf, data_files):
    flags = ["--clf", clf, "--features", "fz", "--epochs", "2", "--max-iter", "2",
             "--hidden", "4", "--channels", "4", "--depth", "1"]
    human, robot = data_files / "human.jsonl", data_files / "robot.jsonl"
    loaded = loaded_after(
        "from haptix.cli import main\n"
        f"assert main(['evaluate', '--data', {str(human)!r}, '--k', '3', *{flags!r},\n"
        f"             '--out', {str(data_files / clf / 'ev')!r}]) == 0\n"
        f"assert main(['cross-domain', '--train-data', {str(human)!r},\n"
        f"             '--test-data', {str(robot)!r}, *{flags!r},\n"
        f"             '--out', {str(data_files / clf / 'xd')!r}]) == 0")
    assert loaded == {m: False for m in LAZY}


def test_studentized_range_loads_both():
    """tukey_hsd takes its p-values from scipy.stats.studentized_range."""
    loaded = loaded_after(
        "from haptix.evaluation import tukey_hsd\n"
        "tukey_hsd([[1.0, 2.0, 3.0], [2.0, 3.0, 5.0], [0.0, 1.0, 1.5]])")
    assert loaded == {m: True for m in LAZY}
