import pytest

import tracex.cli as cli
import tracex.pipeline as pipeline
import tracex.semantics as semantics
from tracex.embeddings import TrainConfig, load_embeddings
from tracex.tokenization import BpeModel, bpe_encode


@pytest.mark.parametrize("module, name", [
    *((pipeline, name) for name in ("train_skipgram", "train_pvdbow", "train_bpe", "correlation_table",
                                    "roc_auc", "pr_auc", "load_testbed")),
    *((semantics, name) for name in ("wmd", "soft_cosine", "transport_cost")),
])
def test_names_the_benchmark_reaches_stay_callable(module, name):
    """perfbench/spans.py reads these module attributes by name: `capture_returns`
    wraps the three trainers in every timed run, and the tracer times the rest
    as named per-layer metrics. A refactor that moves one breaks every timed
    run, or leaves its metric at 0, and no other test notices. The tracer's
    names go with the tracer (ROADMAP item 2)."""
    assert callable(getattr(module, name, None))


def test_what_the_benchmark_calls_on_the_results(tmp_path):
    """perfbench/child.py runs `tracex.cli.main` and saves what the trainers
    return: the skip-gram `matrix` and the PV-DBOW `word_matrix` through
    `EmbeddingMatrix.save`, and the BPE model through `BpeModel.save`; the
    tracer reads each trainer's `epoch_losses`. perfbench/run.py reloads the
    model with `BpeModel.load` and encodes each artifact with
    `bpe_encode(model, text)`. A rename of any of these fails every run that
    reaches it."""
    assert callable(cli.main)
    docs = [["alpha", "beta", "gamma"], ["beta", "delta"]]
    cfg = TrainConfig(dim=2, epochs=1)
    skipgram = pipeline.train_skipgram(docs, cfg)
    pvdbow = pipeline.train_pvdbow(list(zip(["d0", "d1"], docs)), cfg)
    for result, matrix in ((skipgram, skipgram.matrix), (pvdbow, pvdbow.word_matrix)):
        assert len(result.epoch_losses) == cfg.epochs
        matrix.save(tmp_path / "vectors.txt")
        assert load_embeddings(tmp_path / "vectors.txt").vocab == matrix.vocab
    model = pipeline.train_bpe(["lower lowest newer newest", "low new"], 30)
    model.save(tmp_path / "bpe.json")
    loaded = BpeModel.load(tmp_path / "bpe.json")
    assert bpe_encode(loaded, "lowest newer") == bpe_encode(model, "lowest newer")
