"""Command-line entry points.

Exit codes: 0 ok, 1 configuration error, 2 data error, 3 numeric failure,
4 out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from tracex.corpus import (
    ConfigError,
    CorpusError,
    _creating,
    generate_synthetic,
    load_testbed,
    read_text_file,
    write_testbed,
)
from tracex.embeddings import EmbeddingError, TrainConfig, train_skipgram
from tracex.pipeline import BPE_VOCAB_SIZES, SEMANTIC_METRICS, NumericError, RunConfig, run_analysis
from tracex.report import OrphanPolicy, ReportError, detect_orphans, extreme_cases, read_records
from tracex.tokenization import BpeModelError, BpeTrainingError, conventional_tokenize, train_bpe

EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_MEMORY = 4


class _Parser(argparse.ArgumentParser):
    """A usage error is a configuration error (exit 1), not argparse's exit 2;
    subparsers are made of the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tracex",
        description="Information-theoretic analysis of software trace links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full pipeline on testbeds")
    analyze.add_argument("--manifest", action="append", required=True, dest="manifests")
    analyze.add_argument("--preproc", default="conventional",
                         choices=["conventional", *BPE_VOCAB_SIZES])
    analyze.add_argument("--vectorizer", default="skipgram",
                         choices=["skipgram", "pvdbow", "none"])
    analyze.add_argument("--embeddings", default=None,
                         help="load pretrained word vectors instead of training (skipgram only)")
    analyze.add_argument("--bpe-model", default=None,
                         help="prebuilt BPE model JSON (bpe8k or bpe32k only)")
    analyze.add_argument("--seed", type=int, default=0)
    analyze.add_argument("--out", default="out")
    analyze.add_argument("--dim", type=int, default=50)
    analyze.add_argument("--epochs", type=int, default=20)
    analyze.add_argument("--orphan-quantile", type=float, default=0.99)
    analyze.add_argument("--orphan-metric", default="mi", choices=["mi", "si"])

    validate = sub.add_parser("validate", help="check a testbed manifest")
    validate.add_argument("manifest")
    validate.add_argument("--json", action="store_true")

    bpe = sub.add_parser("train-bpe", help="train a BPE model from text files")
    bpe.add_argument("paths", nargs="+")
    bpe.add_argument("--vocab-size", type=int, required=True)
    bpe.add_argument("--out", required=True)

    emb = sub.add_parser("train-embeddings", help="train skip-gram word vectors")
    emb.add_argument("paths", nargs="+")
    emb.add_argument("--dim", type=int, default=50)
    emb.add_argument("--epochs", type=int, default=20)
    emb.add_argument("--seed", type=int, default=0)
    emb.add_argument("--out", required=True)

    cases = sub.add_parser("cases", help="edge-case and orphan listings from records")
    cases.add_argument("records", help="records.jsonl from a previous analyze run")
    cases.add_argument("--metric", default="loss", choices=["loss", "noise"])
    cases.add_argument("--k", type=int, default=5)
    cases.add_argument("--orphan-quantile", type=float, default=0.99)
    cases.add_argument("--orphan-metric", default="mi", choices=["mi", "si"])
    cases.add_argument("--json", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic testbed")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--sources", type=int, default=10)
    synth.add_argument("--targets", type=int, default=10)
    synth.add_argument("--overlap", type=float, default=0.5)
    synth.add_argument("--out", required=True)
    return parser


def cmd_analyze(args) -> int:
    cfg = RunConfig(
        manifests=args.manifests, preprocessing=args.preproc, vectorizer=args.vectorizer,
        embedding_path=args.embeddings, bpe_model_path=args.bpe_model, seed=args.seed,
        out_dir=args.out, dim=args.dim, epochs=args.epochs,
        orphan_quantile=args.orphan_quantile, orphan_metric=args.orphan_metric,
    )
    results = run_analysis(cfg)
    # --vectorizer none leaves the semantic metrics undefined on purpose
    expected = SEMANTIC_METRICS if cfg.vectorizer == "none" else []
    for result in results:
        undefined = {m: n for m, n in result.run["undefined_pair_counts"].items()
                     if n and m not in expected}
        if undefined:
            print(f"{result.testbed.name}: undefined pair counts {undefined}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    tb = load_testbed(args.manifest)
    # conventional tokenization, the default preprocessing of analyze
    empty = {side: [a.id for a in artifacts if not conventional_tokenize(a.raw_text)]
             for side, artifacts in (("sources", tb.sources), ("targets", tb.targets))}
    report = {
        "name": tb.name,
        "all": tb.n_all,
        "links": tb.n_links,
        "non_links": tb.n_non_links,
        "empty_artifacts": empty,
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"{tb.name}: {tb.n_all} candidates, {tb.n_links} links, "
            f"{tb.n_non_links} non-links, {sum(map(len, empty.values()))} empty artifacts"
        )
    return 0


@contextmanager
def _claiming(out: str):
    """Open the output file before any work, so that a path that cannot be
    written fails before training; a file created here is removed if the
    work fails."""
    path = Path(out)
    created = not path.exists()
    with _creating(out):
        path.open("a").close()
    try:
        yield
    except BaseException:
        if created:
            path.unlink(missing_ok=True)
        raise


def _read_corpus(paths: list[str]) -> list[str]:
    texts = []
    for p in paths:
        path = Path(p)
        if not path.is_file():
            raise CorpusError(f"corpus file not found: {path}")
        texts.append(read_text_file(path, "corpus file", errors="replace"))
    return texts


def cmd_train_bpe(args) -> int:
    if args.vocab_size < 1:
        raise ConfigError(f"--vocab-size must be >= 1, got {args.vocab_size}")
    with _claiming(args.out):
        model = train_bpe(_read_corpus(args.paths), args.vocab_size)
        with _creating(args.out):
            model.save(args.out)
    budget = args.vocab_size - (len(model.vocab) - len(model.merges))
    if len(model.merges) < budget:
        print(
            f"warning: stopped after {len(model.merges)} merges "
            "(no remaining pair occurs twice)",
            file=sys.stderr,
        )
    return 0


def cmd_train_embeddings(args) -> int:
    cfg = TrainConfig(dim=args.dim, epochs=args.epochs, seed=args.seed)
    with _claiming(args.out):
        corpus = [conventional_tokenize(t) for t in _read_corpus(args.paths)]
        trained = train_skipgram(corpus, cfg)
        with _creating(args.out):
            trained.matrix.save(args.out)
    return 0


def cmd_cases(args) -> int:
    policy = OrphanPolicy(quantile=args.orphan_quantile, metric=args.orphan_metric)
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    records = read_records(Path(args.records))
    listings = extreme_cases(records, args.metric, args.k) + detect_orphans(records, policy)
    for c in listings:
        print(json.dumps(asdict(c), sort_keys=True) if args.json else
              f"{c.kind}#{c.rank}: {c.source_id} -> {c.target_id} = {c.value:.4f}")
    return 0


def cmd_synth(args) -> int:
    tb = generate_synthetic(args.seed, args.sources, args.targets, args.overlap)
    out = Path(args.out)
    with _creating(out):
        if out.is_dir() and any(out.iterdir()):  # its files would join the new testbed
            raise ConfigError(f"output directory {out} is not empty")
        manifest = write_testbed(tb, out)
    print(manifest)
    return 0


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "analyze": cmd_analyze,
        "validate": cmd_validate,
        "train-bpe": cmd_train_bpe,
        "train-embeddings": cmd_train_embeddings,
        "cases": cmd_cases,
        "synth": cmd_synth,
    }
    try:
        args = build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (CorpusError, BpeModelError, BpeTrainingError, EmbeddingError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # NumPy's names the array it could not allocate
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
