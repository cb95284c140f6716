"""The benchmark's traced mode wraps package functions that still exist.

`perfbench/run.py --trace 1` replaces package attributes such as
`_kernels.march_points` with timing wrappers, by name.  A rename or a
deletion in src/kgqv breaks only that mode, which no other test here
runs, so this installs every hook and puts the originals back.
"""

import importlib
from pathlib import Path

from kgqv import _kernels, analysis, cli, noise, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# one hooked attribute from each module the trace reaches
HOOKED = [(_kernels, "march_points"), (_kernels, "triangle_normals"),
          (analysis, "quad_var"), (noise, "generate"), (solver, "march_split"),
          (cli, "run")]


def test_trace_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    before = [getattr(module, attr) for module, attr in HOOKED]
    tracer = spans.Tracer()
    try:
        workloads.install_trace(tracer)
        wrapped = [getattr(module, attr) for module, attr in HOOKED]
    finally:
        tracer.restore()
    assert all(w is not b for w, b in zip(wrapped, before))
    assert [getattr(module, attr) for module, attr in HOOKED] == before
