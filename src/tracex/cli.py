"""Command-line entry points.

Exit codes: 0 ok, 1 configuration error, 2 data error, 3 numeric failure,
4 out of memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from tracex.corpus import (
    ConfigError,
    DataError,
    _creating,
    generate_synthetic,
    load_testbed,
    read_text_file,
    write_testbed,
)
from tracex.embeddings import TrainConfig, train_skipgram
from tracex.pipeline import (PREPROCESSINGS, SEMANTIC_METRICS, VECTORIZERS, NumericError, RunConfig, empty_artifacts,
                             run_analysis, tokenize_texts)
from tracex.report import CASE_K, CASE_METRICS, ORPHAN_METRICS, OrphanPolicy, case_json, case_listings, read_records
from tracex.tokenization import conventional_tokenize, train_bpe


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
    analyze.set_defaults(run=cmd_analyze)
    analyze.add_argument("--manifest", action="append", required=True, dest="manifests")
    # each dest is the RunConfig field the option sets
    analyze.add_argument("--preproc", dest="preprocessing", choices=PREPROCESSINGS, default=RunConfig.preprocessing)
    analyze.add_argument("--vectorizer", default=RunConfig.vectorizer, choices=VECTORIZERS)
    analyze.add_argument("--embeddings", dest="embedding_path", metavar="EMBEDDINGS",
                         help="load pretrained word vectors instead of training (skipgram only)")
    analyze.add_argument("--bpe-model", dest="bpe_model_path", metavar="BPE_MODEL",
                         help="prebuilt BPE model JSON (bpe8k or bpe32k only)")
    analyze.add_argument("--seed", type=int, default=RunConfig.seed)
    analyze.add_argument("--out", dest="out_dir", metavar="OUT", default=RunConfig.out_dir)
    analyze.add_argument("--dim", type=int, default=RunConfig.dim)
    analyze.add_argument("--epochs", type=int, default=RunConfig.epochs)
    analyze.add_argument("--orphan-quantile", type=float, default=RunConfig.orphan_quantile)
    analyze.add_argument("--orphan-metric", default=RunConfig.orphan_metric, choices=ORPHAN_METRICS)

    validate = sub.add_parser("validate", help="check a testbed manifest")
    validate.set_defaults(run=cmd_validate)
    validate.add_argument("manifest")
    validate.add_argument("--json", action="store_true")

    bpe = sub.add_parser("train-bpe", help="train a BPE model from text files")
    bpe.set_defaults(run=cmd_train_bpe)
    bpe.add_argument("paths", nargs="+")
    bpe.add_argument("--vocab-size", type=int, required=True)
    bpe.add_argument("--out", required=True)

    emb = sub.add_parser("train-embeddings", help="train skip-gram word vectors")
    emb.set_defaults(run=cmd_train_embeddings)
    emb.add_argument("paths", nargs="+")
    emb.add_argument("--dim", type=int, default=TrainConfig.dim)
    emb.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    emb.add_argument("--seed", type=int, default=TrainConfig.seed)
    emb.add_argument("--out", required=True)

    cases = sub.add_parser("cases", help="edge-case and orphan listings from records")
    cases.set_defaults(run=cmd_cases)
    cases.add_argument("records", help="records.jsonl from a previous analyze run")
    cases.add_argument("--metric", default=CASE_METRICS[0], choices=CASE_METRICS)
    cases.add_argument("--k", type=int, default=CASE_K)
    cases.add_argument("--orphan-quantile", type=float, default=OrphanPolicy.quantile)
    cases.add_argument("--orphan-metric", default=OrphanPolicy.metric, choices=ORPHAN_METRICS)
    cases.add_argument("--json", action="store_true")

    synth = sub.add_parser("synth", help="generate a synthetic testbed")
    synth.set_defaults(run=cmd_synth)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--sources", type=int, default=10)
    synth.add_argument("--targets", type=int, default=10)
    synth.add_argument("--overlap", type=float, default=0.5)
    synth.add_argument("--out", required=True)
    return parser


def cmd_analyze(args) -> int:
    cfg = RunConfig(**{k: v for k, v in vars(args).items() if k not in ("command", "run")})
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
    # tokenized as analyze tokenizes by default
    seqs = tokenize_texts([a.raw_text for a in tb.sources + tb.targets], RunConfig([]))
    empty = empty_artifacts(tb.sources, tb.targets, seqs)
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
    written fails before training; a file created here is removed if the work
    fails. The work reads through `read_text_file`, so its OSErrors are writes."""
    path = Path(out)
    with _creating(out):  # exists() raises under a directory that cannot be searched
        created = not path.exists()
        path.open("a").close()
        try:
            yield
        except BaseException:
            if created:
                path.unlink(missing_ok=True)
            raise


def _read_corpus(paths: list[str]) -> list[str]:
    return [read_text_file(Path(p), "corpus file", errors="replace") for p in paths]


def cmd_train_bpe(args) -> int:
    if args.vocab_size < 1:
        raise ConfigError(f"--vocab-size must be >= 1, got {args.vocab_size}")
    with _claiming(args.out):
        model = train_bpe(_read_corpus(args.paths), args.vocab_size)
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
        train_skipgram(corpus, cfg).matrix.save(args.out)
    return 0


def cmd_cases(args) -> int:
    policy = OrphanPolicy(quantile=args.orphan_quantile, metric=args.orphan_metric)
    if args.k < 1:
        raise ConfigError(f"--k must be >= 1, got {args.k}")
    records = read_records(Path(args.records))
    for c in case_listings(records, [args.metric], args.k, policy):
        print(case_json(c) if args.json else
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
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # NumPy's names the array it could not allocate
        print(f"out of memory: {exc or 'an allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
