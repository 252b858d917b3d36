"""End-to-end analysis pipeline: load -> sort artifacts by id -> tokenize ->
embeddings -> info measures and semantic distances -> evaluation -> report
files.

Sources and targets are sorted once; that order is the row order of every
(n_src, n_tgt) grid. Info measures and semantic distances are computed for
all pairs of a testbed at once (`info_columns`, `semantic_columns`), each as
(values, masks, flags); every metric is checked, evaluated and reported as a
column of one records table (`tracex.report`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracex import __version__
from tracex.corpus import ConfigError, CorpusError, Testbed, _creating, load_testbed
from tracex.embeddings import (
    EmbeddingMatrix,
    TrainConfig,
    load_embeddings,
    train_pvdbow,
    train_skipgram,
)
from tracex.evaluation import EvaluationError, correlation_table, pr_auc, roc_auc
from tracex.infotheory import info_columns
from tracex.report import (
    OrphanPolicy,
    by_links_table,
    detect_orphans,
    extreme_cases,
    information_table,
    null_shared_census,
    scatter_svg,
    write_by_links_csv,
    write_cases_jsonl,
    write_correlations_csv,
    write_information_csv,
    write_records,
)
from tracex.semantics import semantic_columns
from tracex.tokenization import (
    BpeModel,
    bpe_encode,
    conventional_tokenize,
    count_tokens,
    train_bpe,
)

BPE_VOCAB_SIZES = {"bpe8k": 8000, "bpe32k": 32000}

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
    preprocessing: str = "conventional"  # conventional | bpe8k | bpe32k
    vectorizer: str = "skipgram"  # skipgram | pvdbow | none
    embedding_path: str | None = None  # load instead of training
    bpe_model_path: str | None = None
    seed: int = 0
    out_dir: str = "out"
    orphan_quantile: float = 0.99
    orphan_metric: str = "mi"
    dim: int = 50
    epochs: int = 20

    def __post_init__(self) -> None:
        if self.preprocessing not in ("conventional", *BPE_VOCAB_SIZES):
            raise ConfigError(f"unknown preprocessing: {self.preprocessing}")
        if self.vectorizer not in ("skipgram", "pvdbow", "none"):
            raise ConfigError(f"unknown vectorizer: {self.vectorizer}")
        if self.embedding_path and self.vectorizer != "skipgram":
            raise ConfigError(f"embeddings are loaded only by the skipgram vectorizer, not {self.vectorizer}")
        if self.bpe_model_path and self.preprocessing not in BPE_VOCAB_SIZES:
            raise ConfigError(f"a BPE model needs bpe8k or bpe32k preprocessing, not {self.preprocessing}")
        OrphanPolicy(self.orphan_quantile, self.orphan_metric)  # validates both
        self.train_config()  # validates the training options

    def train_config(self) -> TrainConfig:
        return TrainConfig(dim=self.dim, epochs=self.epochs, seed=self.seed)


def tokenize_texts(texts: list[str], cfg: RunConfig) -> list[list[str]]:
    """The token sequence of each text; trains or loads BPE when requested."""
    if cfg.preprocessing not in BPE_VOCAB_SIZES:
        return [conventional_tokenize(text) for text in texts]
    if cfg.bpe_model_path:
        model = BpeModel.load(cfg.bpe_model_path)
    else:
        model = train_bpe(texts, BPE_VOCAB_SIZES[cfg.preprocessing])
    return [bpe_encode(model, text) for text in texts]


@dataclass
class TestbedResult:
    testbed: Testbed
    records: dict  # see tracex.report
    evaluation: dict
    undefined_counts: dict[str, int]
    # ids of the sources and of the targets whose token sequence is empty;
    # admitted, but flagged
    empty_artifacts: dict[str, list[str]]
    epoch_losses: list[float]  # [] when nothing was trained


def analyze_testbed(tb: Testbed, cfg: RunConfig) -> TestbedResult:
    sources = sorted(tb.sources, key=lambda a: a.id)
    targets = sorted(tb.targets, key=lambda a: a.id)
    seqs = tokenize_texts([a.raw_text for a in sources + targets], cfg)
    counts = [count_tokens(seq) for seq in seqs]
    word_matrix, doc_vecs, epoch_losses = _build_embeddings(seqs, cfg)
    n = len(sources)
    info, info_masks, null_shared = info_columns(counts[:n], counts[n:])
    sem, sem_masks, wmd_relaxed = semantic_columns(counts[:n], counts[n:], word_matrix, doc_vecs)

    links = {(l.source_id, l.target_id) for l in tb.links}
    records = {
        "source_id": [s.id for s in sources for _ in targets],
        "target_id": [t.id for _ in sources for t in targets],
        "is_link": np.array([(s.id, t.id) in links for s in sources for t in targets], dtype=bool),
        "null_shared": null_shared.ravel(),
        "wmd_relaxed": wmd_relaxed.ravel(),
        **{name: column.ravel() for name, column in {**info, **sem}.items()},
    }
    masks = {name: mask.ravel() for name, mask in {**info_masks, **sem_masks}.items()}
    _check_finite(records, masks)  # from here on NaN marks exactly the undefined

    undefined = {metric: int(np.isnan(records[metric]).sum()) for metric in SCORE_METRICS}
    empty = {"sources": [a.id for a, seq in zip(sources, seqs[:n]) if not seq],
             "targets": [a.id for a, seq in zip(targets, seqs[n:]) if not seq]}
    return TestbedResult(tb, records, _evaluate(records), undefined, empty, epoch_losses)


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
    trained = train_skipgram([seq for seq in seqs if seq], train_cfg)
    return trained.matrix, None, trained.epoch_losses


def _check_finite(records: dict, masks: dict[str, np.ndarray]) -> None:
    """Raise NumericError on a non-finite value where a column is defined."""
    for name, mask in masks.items():
        bad = mask & ~np.isfinite(records[name])
        if bad.any():
            k = int(np.argmax(bad))
            pair = f"({records['source_id'][k]}, {records['target_id'][k]})"
            raise NumericError(f"non-finite {name} for pair {pair}")


def _evaluate(records: dict) -> dict:
    out: dict = {"scores": {}}
    for metric, sign in SCORE_METRICS.items():
        mask = ~np.isnan(records[metric])
        n_defined = int(mask.sum())
        entry: dict = {"n_defined": n_defined, "n_excluded": len(mask) - n_defined}
        for key, fn in (("roc_auc", roc_auc), ("pr_auc", pr_auc)):
            try:
                entry[key] = fn(records["is_link"][mask], sign * records[metric][mask])
            except EvaluationError:  # also raised when no value is defined
                entry[key] = None
        out["scores"][metric] = entry
    return out


def run_analysis(cfg: RunConfig) -> list[TestbedResult]:
    """Analyze every manifest and write the full report tree under out_dir."""
    testbeds = [load_testbed(manifest) for manifest in cfg.manifests]
    names = [tb.name for tb in testbeds]
    for name in names:  # each name is a report directory under out/reports/
        if name in ("", ".", "..") or any(sep in name for sep in "/\\\0"):
            raise CorpusError(f"testbed name {name!r} is not one safe path component")
        if names.count(name) > 1:
            raise CorpusError(f"two testbeds are named {name!r}; their reports would collide")
    out_root = Path(cfg.out_dir)
    report_dirs = [out_root / "reports" / name for name in names]
    with _creating(out_root):  # before any analysis
        out_root.mkdir(parents=True, exist_ok=True)
        for report_dir in report_dirs:
            report_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for tb, report_dir in zip(testbeds, report_dirs):
        result = analyze_testbed(tb, cfg)
        with _creating(report_dir):
            write_report_tree(result, cfg, report_dir)
        results.append(result)
    metadata = {
        "version": __version__,
        "config": {
            k: v for k, v in asdict(cfg).items() if k not in ("bpe_model_path", "out_dir")
        },
        "testbeds": {
            r.testbed.name: {
                "all": r.testbed.n_all,
                "links": r.testbed.n_links,
                "non_links": r.testbed.n_non_links,
                "empty_artifacts": r.empty_artifacts,
                "epoch_losses": r.epoch_losses,
                "undefined_pair_counts": r.undefined_counts,
            }
            for r in results
        },
    }
    with _creating(out_root / "run.json"):
        (out_root / "run.json").write_text(
            json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return results


def write_report_tree(result: TestbedResult, cfg: RunConfig, out_dir: Path) -> None:
    """Write one testbed's reports into the existing directory out_dir."""
    records = result.records
    tb = result.testbed

    write_records(records, out_dir / "records.csv", out_dir / "records.jsonl")
    write_information_csv([information_table(records, tb.name)], out_dir / "information.csv")
    write_by_links_csv(by_links_table(records), out_dir / "by_links.csv")
    write_correlations_csv(
        correlation_table(records, SEMANTIC_METRICS, INFO_METRICS),
        out_dir / "correlations.csv",
    )

    policy = OrphanPolicy(quantile=cfg.orphan_quantile, metric=cfg.orphan_metric)
    listings = extreme_cases(records, "loss") + extreme_cases(records, "noise")
    listings += detect_orphans(records, policy)
    write_cases_jsonl(listings, out_dir / "cases.jsonl")

    for color in ("loss", "noise"):
        (out_dir / f"scatter_{color}.svg").write_text(
            scatter_svg(records, color_key=color) + "\n", encoding="utf-8"
        )

    evaluation = {
        "testbed": tb.name,
        "counts": {"all": tb.n_all, "links": tb.n_links, "non_links": tb.n_non_links},
        "aggregation": "per candidate pair",
        "null_shared": null_shared_census(records),
        "undefined_pair_counts": result.undefined_counts,
        **result.evaluation,
    }
    (out_dir / "evaluation.json").write_text(
        json.dumps(evaluation, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
