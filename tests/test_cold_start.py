"""`import haptix` stays cheap: scipy.special (about 0.3 s of imports) and the
Gauss-Legendre tables of the studentized range load on first use, which only
the statistics make. Training and running a network loads neither.

Each check runs in a fresh interpreter, since this test process has long
imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import haptix

LAZY = ("scipy.special", "numpy.polynomial")


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


def test_studentized_range_loads_both():
    loaded = loaded_after(
        "from haptix.evaluation import studentized_range_cdf\n"
        "studentized_range_cdf(3.0, 3, 10.0)")
    assert loaded == {m: True for m in LAZY}
