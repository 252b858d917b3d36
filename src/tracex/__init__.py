"""tracex: quantify information transmission between source and target software artifacts.

Loads traceability testbeds, computes per-pair entropy/mutual-information
measures over token distributions, trains desk-scale embeddings, scores
candidate trace links with semantic distances, and renders interpretability
reports (information tables, by-link tables, correlations, edge cases).
"""

from tracex.embeddings import TrainConfig, train_skipgram
from tracex.evaluation import roc_auc, tie_groups
from tracex.semantics import soft_cosine, wmd
from tracex.tokenization import conventional_tokenize, count_tokens

__all__ = [
    "TrainConfig",
    "conventional_tokenize",
    "count_tokens",
    "roc_auc",
    "soft_cosine",
    "tie_groups",
    "train_skipgram",
    "wmd",
]

__version__ = "0.1.0"
