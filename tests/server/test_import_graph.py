"""The served import graph: starting a server loads no heavy optional
machinery.

The chase runs in-process on the stdlib vector engine, so
``import repro.server`` must pull in neither ``numpy`` nor
``multiprocessing`` — each server launch would otherwise pay their import
time and resident memory for code the served path never runs.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_server_import_loads_neither_numpy_nor_multiprocessing():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    probe = (
        "import sys, repro.server; "
        "print([m for m in ('numpy', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
