"""The suite's ``REPRO_BACKEND`` handling, run as pytest subprocesses.

A registered backend that cannot be constructed here (numba without its
wheel) skips the run; a name that no backend registers fails it, so a
misspelled matrix leg cannot pass as a wall of skips.
"""

import os
import subprocess
import sys

import pytest

from repro.backend import available_backends

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_suite(backend: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, REPRO_BACKEND=backend,
               PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_bits.py"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("name", ["nmupy", "cupy"])
def test_unregistered_backend_fails_session(name):
    proc = _run_suite(name)
    assert proc.returncode == pytest.ExitCode.USAGE_ERROR
    assert "not a registered backend" in proc.stdout + proc.stderr


def test_unavailable_registered_backend_skips():
    if "numba" in available_backends():
        pytest.skip("numba is constructible here; nothing to skip")
    proc = _run_suite("numba")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    # the progress line holds one "s" per skipped test and nothing else
    progress = proc.stdout.split()[0]
    assert set(progress) == {"s"}, proc.stdout
