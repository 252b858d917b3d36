"""End-to-end analysis pipeline: load -> tokenize -> per-pair metrics ->
embeddings -> distances -> evaluation -> report files.

Info measures and semantic distances are computed for all pairs of a testbed
at once (`info_columns`, `semantic_columns`); every metric is checked,
evaluated and reported as a column of one records table (`tracex.report`).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from tracex import __version__
from tracex.corpus import ConfigError, CorpusError, Testbed, enumerate_candidates, load_testbed
from tracex.embeddings import (
    EmbeddingError,
    EmbeddingMatrix,
    TrainConfig,
    load_embeddings,
    mean_doc_vector,
    train_pvdbow,
    train_skipgram,
)
from tracex.evaluation import EvaluationError, correlation_table, pr_auc, roc_auc
from tracex.infotheory import INFO_FIELDS, info_columns
from tracex.report import (
    OrphanPolicy,
    ReportError,
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
    TokenCounts,
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
        OrphanPolicy(self.orphan_quantile, self.orphan_metric)  # validates both
        self.train_config()  # validates the training options

    def train_config(self) -> TrainConfig:
        return TrainConfig(dim=self.dim, epochs=self.epochs, seed=self.seed)


def tokenize_testbed(tb: Testbed, cfg: RunConfig) -> dict[str, list[str]]:
    """Token sequences per (role, id) key; trains or loads BPE when requested."""
    texts = {("source", a.id): a.raw_text for a in tb.sources}
    texts.update({("target", a.id): a.raw_text for a in tb.targets})
    if cfg.preprocessing in BPE_VOCAB_SIZES:
        if cfg.bpe_model_path:
            model = BpeModel.load(cfg.bpe_model_path)
        else:
            model = train_bpe(list(texts.values()), BPE_VOCAB_SIZES[cfg.preprocessing])
        seqs = {key: bpe_encode(model, text) for key, text in texts.items()}
    else:
        seqs = {key: conventional_tokenize(text) for key, text in texts.items()}
    return {f"{role}:{aid}": toks for (role, aid), toks in seqs.items()}


@dataclass
class TestbedResult:
    testbed: Testbed
    records: dict  # see tracex.report
    evaluation: dict
    undefined_counts: dict[str, int]
    empty_artifacts: list[str]  # ids whose token sequence is empty; admitted, but flagged


def analyze_testbed(tb: Testbed, cfg: RunConfig) -> TestbedResult:
    seqs = tokenize_testbed(tb, cfg)
    counts: dict[str, TokenCounts] = {key: count_tokens(s) for key, s in seqs.items()}
    candidates = enumerate_candidates(tb)

    word_matrix, doc_vecs = _build_embeddings(seqs, counts, cfg)
    src_keys = [f"source:{aid}" for aid in sorted(a.id for a in tb.sources)]
    tgt_keys = [f"target:{aid}" for aid in sorted(a.id for a in tb.targets)]

    info = info_columns([counts[k] for k in src_keys], [counts[k] for k in tgt_keys])
    sem_values, sem_masks, wmd_relaxed = semantic_columns(
        [counts[k] for k in src_keys], [counts[k] for k in tgt_keys], word_matrix,
        [doc_vecs.get(k) for k in src_keys], [doc_vecs.get(k) for k in tgt_keys],
    )
    columns = {name: getattr(info, name).ravel() for name in INFO_FIELDS}
    masks = {name: info.mask(name).ravel() for name in INFO_FIELDS}
    columns.update((name, values.ravel()) for name, values in sem_values.items())
    masks.update((name, mask.ravel()) for name, mask in sem_masks.items())
    _check_finite(columns, masks, candidates)  # from here on NaN marks exactly the undefined

    records = {
        "source_id": [c.source_id for c in candidates],
        "target_id": [c.target_id for c in candidates],
        "is_link": np.array([c.is_link for c in candidates], dtype=bool),
        "null_shared": info.null_shared.ravel(),
        "wmd_relaxed": wmd_relaxed.ravel(),
        **columns,
    }
    undefined = {metric: int(np.isnan(records[metric]).sum()) for metric in SCORE_METRICS}
    empty = [key.split(":", 1)[1] for key, seq in seqs.items() if not seq]
    return TestbedResult(tb, records, _evaluate(records), undefined, empty)


def _build_embeddings(
    seqs: dict[str, list[str]], counts: dict[str, TokenCounts], cfg: RunConfig
) -> tuple[EmbeddingMatrix | None, dict[str, np.ndarray]]:
    """Word matrix for WMD/SCM plus per-artifact document vectors for COS/EUC."""
    if cfg.vectorizer == "none":
        return None, {}
    train_cfg = cfg.train_config()
    keys = sorted(seqs)
    if cfg.vectorizer == "pvdbow":
        dv = train_pvdbow([(k, seqs[k]) for k in keys if seqs[k]], train_cfg)
        return dv.word_matrix, dict(zip(dv.doc_ids, dv.vectors))
    if cfg.embedding_path:
        word_matrix = load_embeddings(cfg.embedding_path)
    else:
        corpus = [seqs[k] for k in keys if seqs[k]]
        word_matrix = train_skipgram(corpus, train_cfg).matrix
    doc_vecs = {}
    for key in keys:
        try:
            doc_vecs[key] = mean_doc_vector(counts[key], word_matrix)
        except EmbeddingError:
            pass  # OOV-only artifact: COS/EUC stay undefined for its pairs
    return word_matrix, doc_vecs


def _check_finite(columns: dict[str, np.ndarray], masks: dict[str, np.ndarray], candidates) -> None:
    """Raise NumericError on a non-finite value where a column is defined."""
    for name, values in columns.items():
        bad = masks[name] & ~np.isfinite(values)
        if bad.any():
            c = candidates[int(np.argmax(bad))]
            raise NumericError(f"non-finite {name} for pair ({c.source_id}, {c.target_id})")


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
    try:  # before any analysis
        out_root.mkdir(parents=True, exist_ok=True)
        for report_dir in report_dirs:
            report_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    results = []
    for tb, report_dir in zip(testbeds, report_dirs):
        result = analyze_testbed(tb, cfg)
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
                "undefined_pair_counts": r.undefined_counts,
            }
            for r in results
        },
    }
    (out_root / "run.json").write_text(
        json.dumps(metadata, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return results


def write_report_tree(result: TestbedResult, cfg: RunConfig, out_dir: Path) -> None:
    """Write one testbed's reports into the existing directory out_dir."""
    records = result.records
    tb = result.testbed

    write_records(records, out_dir / "records.csv", out_dir / "records.jsonl")
    write_information_csv(
        [information_table(records, tb.name)], out_dir / "information.csv"
    )
    write_by_links_csv(by_links_table(records), out_dir / "by_links.csv")
    write_correlations_csv(
        correlation_table(records, SEMANTIC_METRICS, INFO_METRICS),
        out_dir / "correlations.csv",
    )

    listings = extreme_cases(records, "loss") + extreme_cases(records, "noise")
    if tb.n_links > 0:
        policy = OrphanPolicy(quantile=cfg.orphan_quantile, metric=cfg.orphan_metric)
        try:
            listings += detect_orphans(records, policy)
        except ReportError:
            pass  # no defined link metric; census still emitted below
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
