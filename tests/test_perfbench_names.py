import pytest

import tracex.pipeline as pipeline
import tracex.semantics as semantics


@pytest.mark.parametrize("module, name", [
    *((pipeline, name) for name in ("train_skipgram", "train_pvdbow", "train_bpe", "correlation_table",
                                    "roc_auc", "pr_auc", "load_testbed")),
    *((semantics, name) for name in ("wmd", "soft_cosine", "transport_cost")),
])
def test_names_the_benchmark_reaches_stay_callable(module, name):
    """perfbench/spans.py reads these module attributes by name: `capture_returns`
    wraps the three trainers in every timed run, and the tracer times the rest
    as named per-layer metrics. A refactor that moves one breaks every timed
    run, or leaves its metric at 0, and no other test notices. This test goes
    once ROADMAP item 1b retires the tracer."""
    assert callable(getattr(module, name, None))
