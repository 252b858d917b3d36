"""End-to-end analysis pipeline: load -> sort artifacts by id -> tokenize ->
embeddings -> info measures and semantic distances -> evaluation -> report
files.

Sources and targets are sorted once; that order is the row order of every
(n_src, n_tgt) grid. Info measures and semantic distances are computed for
all pairs of a testbed at once (`info_columns`, `semantic_columns`), each as
(values, masks, flags); every metric is checked and evaluated as a column of
one records table. Scoring and evaluation stay here, the correlation table
included; `tracex.report.write_report_tree` writes a testbed's report files,
and `run_analysis` writes run.json.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracex import __version__
from tracex.corpus import Artifact, ConfigError, CorpusError, Testbed, _creating, load_testbed, malformed
from tracex.embeddings import (
    EmbeddingMatrix,
    TrainConfig,
    load_embeddings,
    train_pvdbow,
    train_skipgram,
)
from tracex.evaluation import EvaluationError, correlation_table, pr_auc, roc_auc, tie_groups
from tracex.infotheory import info_columns
from tracex.report import IdColumn, OrphanPolicy, null_shared_census, write_report_tree
from tracex.semantics import semantic_columns
from tracex.tokenization import (
    BpeModel,
    bpe_encode,
    conventional_tokenize,
    count_tokens,
    train_bpe,
)

BPE_VOCAB_SIZES = {"bpe8k": 8000, "bpe32k": 32000}
PREPROCESSINGS = ("conventional", *BPE_VOCAB_SIZES)
VECTORIZERS = ("skipgram", "pvdbow", "none")

SCORE_METRICS = {
    "mi": 1.0,
    "si": 1.0,
    "wmd_sim": 1.0,
    "scm": 1.0,
    "cos_sim": 1.0,
    "euc": -1.0,  # smaller distance = more link-like
}

SEMANTIC_METRICS = ["wmd_sim", "scm", "cos_sim", "euc"]
INFO_METRICS = ["mi", "loss", "noise", "si"]


class NumericError(RuntimeError):
    """Raised when a non-finite value surfaces in computed records."""


@dataclass
class RunConfig:
    manifests: list[str]
    preprocessing: str = PREPROCESSINGS[0]  # conventional
    vectorizer: str = VECTORIZERS[0]  # skipgram
    embedding_path: str | None = None  # load instead of training
    bpe_model_path: str | None = None
    seed: int = TrainConfig.seed
    out_dir: str = "out"
    orphan_quantile: float = OrphanPolicy.quantile
    orphan_metric: str = OrphanPolicy.metric
    dim: int = TrainConfig.dim
    epochs: int = TrainConfig.epochs

    def __post_init__(self) -> None:
        if self.preprocessing not in PREPROCESSINGS:
            raise ConfigError(f"unknown preprocessing: {self.preprocessing}")
        if self.vectorizer not in VECTORIZERS:
            raise ConfigError(f"unknown vectorizer: {self.vectorizer}")
        if self.embedding_path and self.vectorizer != "skipgram":
            raise ConfigError(f"embeddings are loaded only by the skipgram vectorizer, not {self.vectorizer}")
        if self.bpe_model_path and self.preprocessing not in BPE_VOCAB_SIZES:
            raise ConfigError(f"a BPE model needs bpe8k or bpe32k preprocessing, not {self.preprocessing}")
        self.orphan_policy()  # validates both orphan options
        self.train_config()  # validates the training options

    def orphan_policy(self) -> OrphanPolicy:
        return OrphanPolicy(quantile=self.orphan_quantile, metric=self.orphan_metric)

    def train_config(self) -> TrainConfig:
        return TrainConfig(dim=self.dim, epochs=self.epochs, seed=self.seed)


def tokenize_texts(texts: list[str], cfg: RunConfig) -> list[list[str]]:
    """The token sequence of each text; trains or loads BPE when requested.
    The sequences share one str object per distinct token, by a call-local table."""
    if cfg.preprocessing not in BPE_VOCAB_SIZES:
        seqs = [conventional_tokenize(text) for text in texts]
    else:
        if cfg.bpe_model_path:
            model = BpeModel.load(cfg.bpe_model_path)
        else:
            model = train_bpe(texts, BPE_VOCAB_SIZES[cfg.preprocessing])
        words: dict[str, list[str]] = {}  # each distinct word is encoded once
        seqs = [bpe_encode(model, text, words) for text in texts]
    shared: dict[str, str] = {}
    return [list(map(shared.setdefault, seq, seq)) for seq in seqs]


@dataclass
class TestbedResult:
    testbed: Testbed
    records: dict  # see tracex.report
    evaluation: dict  # the evaluation document that tracex.report writes
    run: dict  # the testbed's entry under "testbeds" in run.json


def analyze_testbed(tb: Testbed, cfg: RunConfig) -> TestbedResult:
    sources = sorted(tb.sources, key=lambda a: a.id)
    targets = sorted(tb.targets, key=lambda a: a.id)
    seqs = tokenize_texts([a.raw_text for a in sources + targets], cfg)
    counts = [count_tokens(seq) for seq in seqs]
    word_matrix, doc_vecs, epoch_losses = _build_embeddings(seqs, cfg)
    n = len(sources)
    info, info_masks, null_shared = info_columns(counts[:n], counts[n:])
    wmd_pairs: dict[str, int] = {}
    sem, sem_masks, wmd_relaxed = semantic_columns(counts[:n], counts[n:], word_matrix, doc_vecs, wmd_pairs)

    row, col = ({a.id: k for k, a in enumerate(side)} for side in (sources, targets))
    is_link = np.zeros(len(sources) * len(targets), dtype=bool)
    is_link[[row[l.source_id] * len(targets) + col[l.target_id] for l in tb.links]] = True
    # pair k is (source k // n_targets, target k % n_targets); sides are in id order
    codes = [np.arange(len(side), dtype=np.min_scalar_type(len(side))) for side in (sources, targets)]
    records = {
        "source_id": IdColumn(np.repeat(codes[0], len(targets)), [a.id for a in sources]),
        "target_id": IdColumn(np.tile(codes[1], len(sources)), [a.id for a in targets]),
        "is_link": is_link,
        "null_shared": null_shared.ravel(),
        "wmd_relaxed": wmd_relaxed.ravel(),
        **{name: column.ravel() for name, column in {**info, **sem}.items()},
    }
    # from here on NaN marks exactly the undefined; the masks go
    _check_finite(records, {name: mask.ravel() for name, mask in {**info_masks, **sem_masks}.items()})
    del info_masks, sem_masks

    counts = {"all": tb.n_all, "links": tb.n_links, "non_links": tb.n_non_links}
    scores = _scores(records)
    undefined = {metric: entry["n_excluded"] for metric, entry in scores.items()}
    evaluation = {
        "testbed": tb.name,
        "counts": counts,
        "aggregation": "per candidate pair",
        "null_shared": null_shared_census(records),
        "undefined_pair_counts": undefined,
        "scores": scores,
    }
    run = {
        **counts,
        "empty_artifacts": empty_artifacts(sources, targets, seqs),
        "epoch_losses": epoch_losses,  # [] when nothing was trained
        "undefined_pair_counts": undefined,
        "wmd_pairs": wmd_pairs,  # pairs solved exactly and bounded, solver batches, rounds, augmentations and steps
    }
    return TestbedResult(tb, records, evaluation, run)


def empty_artifacts(sources: list[Artifact], targets: list[Artifact], seqs: list[list[str]]) -> dict[str, list[str]]:
    """The ids of the sources and of the targets whose token sequence is
    empty: admitted, but flagged. seqs holds the sources' sequences, then
    the targets'."""
    return {"sources": [a.id for a, seq in zip(sources, seqs) if not seq],
            "targets": [a.id for a, seq in zip(targets, seqs[len(sources):]) if not seq]}


def _build_embeddings(
    seqs: list[list[str]], cfg: RunConfig
) -> tuple[EmbeddingMatrix | None, list[np.ndarray | None] | None, list[float]]:
    """Word matrix for WMD/SCM, the document vector of each sequence for
    COS/EUC under PV-DBOW (None: mean word vectors), and the training loss
    of each epoch ([] when nothing is trained)."""
    if cfg.vectorizer == "none":
        return None, None, []
    train_cfg = cfg.train_config()
    if cfg.vectorizer == "pvdbow":
        dv = train_pvdbow([(str(k), seq) for k, seq in enumerate(seqs) if seq], train_cfg)
        vectors = iter(dv.vectors)
        return dv.word_matrix, [next(vectors) if seq else None for seq in seqs], dv.epoch_losses
    if cfg.embedding_path:
        return load_embeddings(cfg.embedding_path), None, []
    trained = train_skipgram(seqs, train_cfg)  # it drops the empty sequences
    return trained.matrix, None, trained.epoch_losses


def _check_finite(records: dict, masks: dict[str, np.ndarray]) -> None:
    """Raise NumericError on a non-finite value where a column is defined."""
    for name, mask in masks.items():
        bad = mask & ~np.isfinite(records[name])
        if bad.any():
            k = int(np.argmax(bad))
            src, tgt = records["source_id"], records["target_id"]
            pair = f"({src.names[src.codes[k]]}, {tgt.names[tgt.codes[k]]})"
            raise NumericError(f"non-finite {name} for pair {pair}")


def _scores(records: dict) -> dict:
    """ROC and PR AUC of each score metric as a link classifier, over the
    pairs where it is defined; both read one sort of those pairs' scores.
    One metric's scratch is gone before the next metric's is made."""
    return {metric: _metric_scores(records["is_link"], records[metric], sign)
            for metric, sign in SCORE_METRICS.items()}


def _metric_scores(is_link: np.ndarray, values: np.ndarray, sign: float) -> dict:
    mask = ~np.isnan(values)
    n_defined = int(mask.sum())
    entry: dict = {"n_defined": n_defined, "n_excluded": len(mask) - n_defined}
    # the signed scores are a masked copy that tie_groups alone holds, so it
    # frees them once they are sorted
    groups = tie_groups(is_link[mask], _signed(values[mask], sign))
    del mask
    for key, fn in (("roc_auc", roc_auc), ("pr_auc", pr_auc)):
        try:
            entry[key] = fn(groups)
        except EvaluationError:  # also raised when no value is defined
            entry[key] = None
    return entry


def _signed(scores: np.ndarray, sign: float) -> np.ndarray:
    """scores times sign, in place: x * -1.0 is exact negation and x * 1.0 is x."""
    scores *= sign
    return scores


def run_analysis(cfg: RunConfig) -> list[TestbedResult]:
    """Analyze every manifest and write the full report tree under out_dir."""
    testbeds = [load_testbed(manifest) for manifest in cfg.manifests]
    names = [tb.name for tb in testbeds]
    for manifest, name in zip(cfg.manifests, names):  # each name is a report directory under out/reports/
        if names.count(name) > 1:
            raise CorpusError(malformed("manifest", manifest, f"another manifest has the name {name!r}"))
    out_root = Path(cfg.out_dir)
    report_dirs = [out_root / "reports" / name for name in names]
    with _creating(out_root):  # before any analysis
        out_root.mkdir(parents=True, exist_ok=True)
        for report_dir in report_dirs:
            report_dir.mkdir(parents=True, exist_ok=True)
    policy = cfg.orphan_policy()
    results = []
    for tb, report_dir in zip(testbeds, report_dirs):
        result = analyze_testbed(tb, cfg)
        # called here, not in report: perfbench's span tracer times pipeline attributes by name
        correlations = correlation_table(result.records, SEMANTIC_METRICS, INFO_METRICS)
        with _creating(report_dir):
            write_report_tree(result.records, tb.name, result.evaluation, correlations, policy, report_dir)
        results.append(result)
    metadata = {
        "version": __version__,
        "config": {
            k: v for k, v in asdict(cfg).items() if k not in ("bpe_model_path", "out_dir")
        },
        "testbeds": {r.testbed.name: r.run for r in results},
    }
    with _creating(out_root / "run.json"):
        (out_root / "run.json").write_text(
            json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results
