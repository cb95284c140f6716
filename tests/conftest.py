"""Subprocesses started by the tests (``python -m kgqv.cli``) import the
same kgqv as the tests do: pyproject.toml's ``pythonpath`` puts src/ on
this process's path, and this puts it on theirs, installed or not."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
)
