"""The benchmark's self-test, the demos and the README's library example,
run as subprocesses.

``bench/selftest.py`` fails when a module global that the benchmark tracer
wraps has moved or gone; without it the tracer would only note the global
as missing and its per-layer metrics would read zero.  The demos run the
public API end to end; the walkthrough's output, which prints rounded values
only, must match ``tests/expected/03_decoder_walkthrough.txt`` byte for byte.
A change that means to alter what the walkthrough prints updates that file.
``demos/04`` is left out: it is a 1500-trial sweep that writes ``sweep.csv``
into its working directory.  The README's "Library use" block runs as
written, so the documented call path cannot drift from the exports.
"""

import os
import re
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
# script -> file holding its expected standard output
EXPECTED = {"demos/03_decoder_walkthrough.py": ROOT / "tests/expected/03_decoder_walkthrough.txt"}


def run_python(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, tmp_path):
    proc = run_python([str(ROOT / script)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if script in EXPECTED:
        assert proc.stdout == EXPECTED[script].read_text()


def test_readme_library_use_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    proc = run_python(["-c", block], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
