"""Benchmark workloads: seeded input generators and the `tracex analyze`
argument list each workload runs.

Every input is derived from the workload seed alone. The program under test
only ever sees the files written here (a testbed manifest tree and, for
`wmd-zipf`, a word-vector file).
"""

from __future__ import annotations

import json
import random
import string
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable


@dataclass
class Inputs:
    """What one workload instance hands to `tracex analyze` and to the checks."""

    manifest: Path
    analyze_args: list[str]  # everything but --manifest and --out
    testbed_name: str
    n_pairs: int
    # artifact key ("source:<id>" / "target:<id>") -> raw text, for reference checks
    texts: dict[str, str] = field(default_factory=dict)
    links: set[tuple[str, str]] = field(default_factory=set)
    vectors: Path | None = None  # pretrained vectors the benchmark wrote


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, Path], Inputs]
    deadline_s: float  # per analyze child
    # check the info columns against an untimed --vectorizer none run too
    info_reference_run: bool = False


def _mint_words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    """n fresh lowercase words of 5-9 letters (one token each under the
    conventional tokenizer: no digits, no case boundaries)."""
    out = []
    while len(out) < n:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(5, 9)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _render(rng: random.Random, bag: Counter) -> str:
    words = [tok for tok, count in sorted(bag.items()) for _ in range(count)]
    rng.shuffle(words)
    return " ".join(words)


def zipf_testbed(
    seed: int,
    n_src: int,
    n_tgt: int,
    background: int,
    exponent: float,
    draws: int,
    topic: int,
    shared: int,
) -> tuple[dict[str, str], dict[str, str], set[tuple[str, str]]]:
    """Testbed whose artifacts share a Zipf background vocabulary.

    Each artifact draws `draws` tokens from a `background`-word vocabulary
    with rank-frequency weights 1/r**exponent, so frequent words recur with
    skewed counts in every artifact and every pair shares tokens, as in real
    requirement-to-code testbeds. Each source adds `topic` private words
    (counts 1-3); source i is linked to target i, which repeats `shared` of
    those words with the same counts. Returns (sources, targets, links) with
    id -> text maps.
    """
    rng = random.Random(seed)
    taken: set[str] = set()
    vocab = _mint_words(rng, background, taken)
    weights = [1.0 / (rank ** exponent) for rank in range(1, background + 1)]

    def bag_with(private: list[tuple[str, int]]) -> Counter:
        bag = Counter(rng.choices(vocab, weights=weights, k=draws))
        for tok, count in private:
            bag[tok] += count
        return bag

    sources, targets, links = {}, {}, set()
    topics = []
    for i in range(n_src):
        words = [(w, rng.randint(1, 3)) for w in _mint_words(rng, topic, taken)]
        topics.append(words)
        sources[f"S{i:03d}"] = _render(rng, bag_with(words))
    for j in range(n_tgt):
        if j < n_src:
            kept = topics[j][:shared]
            fresh = [(w, rng.randint(1, 3)) for w in _mint_words(rng, topic - shared, taken)]
            links.add((f"S{j:03d}", f"T{j:03d}"))
        else:
            kept, fresh = [], [(w, rng.randint(1, 3)) for w in _mint_words(rng, topic, taken)]
        targets[f"T{j:03d}"] = _render(rng, bag_with(kept + fresh))
    return sources, targets, links


def write_vectors(seed: int, tokens: list[str], dim: int, path: Path) -> None:
    """Gaussian word vectors in tracex's plain-text format, one row per token
    in sorted order, values written with repr so they round-trip exactly."""
    rng = random.Random(seed)
    lines = [f"{len(tokens)} {dim}"]
    for tok in sorted(tokens):
        lines.append(tok + " " + " ".join(repr(rng.gauss(0.0, 1.0)) for _ in range(dim)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_manifest_tree(
    name: str,
    sources: dict[str, str],
    targets: dict[str, str],
    links: set[tuple[str, str]],
    out: Path,
) -> Path:
    """Write a testbed in the manifest layout `tracex analyze` reads."""
    for role, arts in (("sources", sources), ("targets", targets)):
        (out / role).mkdir(parents=True, exist_ok=True)
        for aid, text in arts.items():
            (out / role / f"{aid}.txt").write_text(text, encoding="utf-8")
    by_src: dict[str, list[str]] = {}
    for s, t in sorted(links):
        by_src.setdefault(s, []).append(t)
    oracle = "".join(f"{s} {' '.join(ts)}\n" for s, ts in sorted(by_src.items()))
    (out / "oracle.txt").write_text(oracle, encoding="utf-8")
    manifest = {
        "name": name, "link_type": "bench", "language_tag": "en",
        "source_dir": "sources", "target_dir": "targets", "oracle_file": "oracle.txt",
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _inputs(name, sources, targets, links, out: Path, args: list[str]) -> Inputs:
    manifest = write_manifest_tree(name, sources, targets, links, out)
    texts = {f"source:{k}": v for k, v in sources.items()}
    texts.update({f"target:{k}": v for k, v in targets.items()})
    return Inputs(manifest, args, name, len(sources) * len(targets), texts, set(links))


def _synthetic(seed: int, n: int) -> tuple[dict, dict, set]:
    # The criterion-7 generator of the program itself (planted diagonal
    # links, 20 distinct tokens per artifact, non-links share nothing).
    from tracex.corpus import generate_synthetic

    tb = generate_synthetic(seed, n, n, 0.9)
    return (
        {a.id: a.raw_text for a in tb.sources},
        {a.id: a.raw_text for a in tb.targets},
        {(l.source_id, l.target_id) for l in tb.links},
    )


def build_c7_skipgram(seed: int, out: Path) -> Inputs:
    src, tgt, links = _synthetic(seed, 30)
    args = ["--vectorizer", "skipgram", "--dim", "16", "--epochs", "20", "--seed", str(seed)]
    return _inputs(f"c7-{seed}", src, tgt, links, out, args)


INFO_LARGE = dict(n_src=200, n_tgt=200, background=2000, exponent=1.1, draws=48, topic=12, shared=8)


def build_info_large(seed: int, out: Path) -> Inputs:
    src, tgt, links = zipf_testbed(seed, **INFO_LARGE)
    args = ["--vectorizer", "none", "--seed", str(seed)]
    return _inputs(f"info-large-{seed}", src, tgt, links, out, args)


WMD_ZIPF = dict(n_src=12, n_tgt=12, background=300, exponent=1.1, draws=60, topic=8, shared=5)


def build_wmd_zipf(seed: int, out: Path) -> Inputs:
    src, tgt, links = zipf_testbed(seed, **WMD_ZIPF)
    inputs = _inputs(f"wmd-zipf-{seed}", src, tgt, links, out, [])
    tokens = sorted({tok for text in inputs.texts.values() for tok in text.split()})
    inputs.vectors = out / "vectors.txt"
    write_vectors(seed, tokens, 16, inputs.vectors)
    inputs.analyze_args = ["--embeddings", str(inputs.vectors), "--dim", "16", "--seed", str(seed)]
    return inputs


def build_bpe_pvdbow(seed: int, out: Path) -> Inputs:
    src, tgt, links = _synthetic(seed, 10)
    args = [
        "--preproc", "bpe8k", "--vectorizer", "pvdbow",
        "--dim", "16", "--epochs", "20", "--seed", str(seed),
    ]
    return _inputs(f"bpe-pvdbow-{seed}", src, tgt, links, out, args)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "c7-skipgram",
            "criterion-7 config: generate_synthetic 30x30 (900 pairs), 20 tokens/artifact, "
            "counts 1-3, overlap 0.9; skip-gram dim 16, 20 epochs; exact WMD ~80%, "
            "skip-gram ~20% of wall",
            build_c7_skipgram, deadline_s=130.0,
        ),
        Workload(
            "info-large",
            "200x200 (40k pairs) Zipf testbed: 2000-word background, skew s=1.1, 48 draws "
            "+ 12 topic words per artifact; --vectorizer none: info, evaluation and "
            "report only",
            build_info_large, deadline_s=60.0,
        ),
        Workload(
            "bpe-pvdbow",
            "generate_synthetic 10x10, counts 1-3, overlap 0.9; --preproc bpe8k "
            "--vectorizer pvdbow dim 16, 20 epochs: the only BPE and PV-DBOW path",
            build_bpe_pvdbow, deadline_s=60.0,
        ),
        Workload(
            "wmd-zipf",
            "12x12 Zipf testbed: 300-word background, skew s=1.1, 60 draws + 8 topic words; "
            "every pair shares skewed counts; fixed dim-16 vectors, no training",
            build_wmd_zipf, deadline_s=40.0, info_reference_run=True,
        ),
    )
}
