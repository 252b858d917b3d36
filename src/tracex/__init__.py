"""tracex: quantify information transmission between source and target software artifacts.

Loads traceability testbeds, computes per-pair entropy/mutual-information
measures over token distributions, trains desk-scale embeddings, scores
candidate trace links with semantic distances, and renders interpretability
reports (information tables, by-link tables, correlations, edge cases).
"""

from tracex.corpus import (
    Artifact,
    CorpusError,
    Testbed,
    TraceLink,
    generate_synthetic,
    load_testbed,
)
from tracex.embeddings import (
    EmbeddingMatrix,
    TrainConfig,
    load_embeddings,
    train_pvdbow,
    train_skipgram,
)
from tracex.evaluation import pearson, pr_auc, roc_auc
from tracex.infotheory import (
    InfoRecord,
    conditional_entropies,
    counts_entropy,
    info_record,
    min_shared_counts,
    msi_entropy,
    msi_extropy,
    pooled_mutual_information,
)
from tracex.semantics import soft_cosine, wmd
from tracex.tokenization import TokenCounts, conventional_tokenize, count_tokens

__all__ = [
    "Artifact",
    "CorpusError",
    "EmbeddingMatrix",
    "InfoRecord",
    "Testbed",
    "TokenCounts",
    "TraceLink",
    "TrainConfig",
    "conditional_entropies",
    "conventional_tokenize",
    "count_tokens",
    "counts_entropy",
    "generate_synthetic",
    "info_record",
    "load_embeddings",
    "load_testbed",
    "min_shared_counts",
    "msi_entropy",
    "msi_extropy",
    "pearson",
    "pooled_mutual_information",
    "pr_auc",
    "roc_auc",
    "soft_cosine",
    "train_pvdbow",
    "train_skipgram",
    "wmd",
]

__version__ = "0.1.0"
