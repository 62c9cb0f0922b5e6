"""The benchmark's tracer still finds every library function it wraps.

``perfbench/tracing.py`` looks each traced function up by name, so a
removed or renamed one would only show as a failed traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import qdecoupling


def test_tracer_installs_and_uninstalls():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    eigh = np.linalg.eigh
    tracer = tracing.Tracer()
    try:
        tracer.install(qdecoupling)
        assert np.linalg.eigh is not eigh
    finally:
        tracer.uninstall()
    assert np.linalg.eigh is eigh
