"""The traced benchmark run can wrap every package name it patches.

``perfbench/run.py`` times each layer by replacing package attributes (for
example ``cli.load_trace_csv`` or ``boosting.encode_gradients``) with traced
wrappers.  Renaming or deleting one of them breaks ``--trace 1`` with an
``AttributeError``; this test catches that without running the benchmark.
"""

import importlib.util
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_spans_patches_and_restores(monkeypatch):
    monkeypatch.setattr(sys, "path", [str(PERFBENCH)] + sys.path)
    monkeypatch.setattr(os, "environ", dict(os.environ))  # run.py sets thread variables on import
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look the module up
    spec.loader.exec_module(run)

    from itboost import cli, evaluation

    originals = (cli.main, evaluation.cross_validate)
    tracer = run.Tracer()
    try:
        run.install_spans(tracer)
        assert (cli.main, evaluation.cross_validate) != originals
    finally:
        tracer.restore()
    assert (cli.main, evaluation.cross_validate) == originals
