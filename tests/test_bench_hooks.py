"""The traced benchmark run can wrap every package name it patches.

``perfbench/run.py`` times each layer by replacing package attributes (for
example ``cli.load_trace_csv`` or ``boosting.encode_gradients``) with traced
wrappers.  Renaming or deleting one of them breaks ``--trace 1`` with an
``AttributeError``; the first test catches that without running the benchmark.
The second keeps batch scoring inside the one method the traced run times per
tree.
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


def test_batch_scoring_calls_tree_predict_once_per_tree(monkeypatch):
    """The traced run's ``trees.predict_*`` metrics count ``RegressionTree.predict`` calls: a batch
    ``Model.predict_score`` or ``predict_proba`` must make exactly one per tree, in the model's order,
    and a single row none, or scoring has moved out of the layer those metrics time."""
    from itboost.boosting import BoostConfig, train
    from itboost.synth import make_gaussian_dataset
    from itboost.trees import RegressionTree

    dataset = make_gaussian_dataset(60, 3, separation=3.0, seed=0)
    model, _ = train(dataset, BoostConfig(iterations=4, max_depth=3))
    calls = []
    predict = RegressionTree.predict

    def counted(tree, X):
        calls.append(tree)
        return predict(tree, X)

    monkeypatch.setattr(RegressionTree, "predict", counted)
    for score in (model.predict_score, model.predict_proba):
        calls.clear()
        score(dataset.features)
        assert [id(tree) for tree in calls] == [id(tree) for tree in model.trees]
        calls.clear()
        score(dataset.features[0])
        assert calls == []
