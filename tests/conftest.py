"""Fixtures shared by the test modules."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def qdp4_process():
    """subprocess.run of `python -m qdp4.cli *argv` in a child that imports
    qdp4 from this checkout: pytest's `pythonpath` setting reaches only the
    pytest process, so src goes first on the child's PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(argv, **kwargs):
        return subprocess.run([sys.executable, "-m", "qdp4.cli", *argv], env=env, **kwargs)
    return run
