"""The benchmark's self-test and the demos, run as subprocesses.

``bench/selftest.py`` fails when a module global that the benchmark tracer
wraps has moved or gone; without it the tracer would only note the global
as missing and its per-layer metrics would read zero.  The demos run the
public API end to end.  ``demos/04`` is left out: it is a 1500-trial sweep
that writes ``sweep.csv`` into its working directory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = (
    "bench/selftest.py",
    "demos/01_codeword_and_real_model.py",
    "demos/02_r_matrix_structure.py",
    "demos/03_decoder_walkthrough.py",
)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
