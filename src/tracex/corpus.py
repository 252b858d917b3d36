"""Testbed loading and synthetic testbed generation.

A testbed is a set of source artifacts (requirements, use cases, pull
requests), a set of target artifacts (code, test cases), and a ground-truth
oracle of links. The candidate space is always the full cartesian product
sources x targets.
"""

from __future__ import annotations

import json
import random
import string
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


class CorpusError(Exception):
    """Raised for missing files, malformed oracles, or dangling artifact ids."""


class ConfigError(ValueError):
    """Raised for an invalid option or an output path that cannot be created."""


@contextmanager
def _creating(out: str | Path):
    """An output path that cannot be created is a configuration error."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {out}: {exc}") from exc


def read_text_file(path: Path, what: str, errors: str = "strict") -> str:
    """The UTF-8 text of an input file; a file that cannot be read is a data error."""
    try:
        return path.read_text(encoding="utf-8", errors=errors)
    except OSError as exc:
        raise CorpusError(f"cannot read {what} {path}: {exc}") from exc


@dataclass(frozen=True)
class Artifact:
    id: str
    raw_text: str


@dataclass(frozen=True)
class TraceLink:
    source_id: str
    target_id: str


@dataclass
class Testbed:
    name: str
    sources: list[Artifact]
    targets: list[Artifact]
    links: set[TraceLink] = field(default_factory=set)

    def __post_init__(self) -> None:
        for role, artifacts in (("source", self.sources), ("target", self.targets)):
            seen: set[str] = set()
            for a in artifacts:
                if not a.id:
                    raise CorpusError(f"empty {role} artifact id")
                if a.id in seen:
                    raise CorpusError(f"duplicate {role} artifact id: {a.id}")
                seen.add(a.id)
        src_ids = {a.id for a in self.sources}
        tgt_ids = {a.id for a in self.targets}
        dangling = sorted(
            {l.source_id for l in self.links if l.source_id not in src_ids}
            | {l.target_id for l in self.links if l.target_id not in tgt_ids}
        )
        if dangling:
            raise CorpusError(f"oracle references unknown artifact ids: {', '.join(dangling)}")

    @property
    def n_all(self) -> int:
        return len(self.sources) * len(self.targets)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_non_links(self) -> int:
        return self.n_all - self.n_links


def load_testbed(manifest_path: str | Path) -> Testbed:
    """Load a testbed from a JSON manifest.

    The manifest holds {"name", "source_dir", "target_dir", "oracle_file"};
    other keys are ignored. Directories contain one file per artifact (id =
    basename without extension), the oracle is answer-file style:
    ``source_id target_id_1 target_id_2 ...`` per line, '#' comments ignored.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise CorpusError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(read_text_file(manifest_path, "manifest"))
    except ValueError as exc:  # not UTF-8 or not JSON
        raise CorpusError(f"malformed manifest {manifest_path}: {exc}") from exc

    base = manifest_path.parent
    for key in ("name", "source_dir", "target_dir", "oracle_file"):
        if not isinstance(manifest, dict) or not isinstance(manifest.get(key), str):
            raise CorpusError(f"manifest needs a string for the required key: {key}")

    sources = _read_artifact_dir(base / manifest["source_dir"], "source")
    targets = _read_artifact_dir(base / manifest["target_dir"], "target")
    links = _read_oracle(base / manifest["oracle_file"])
    return Testbed(name=manifest["name"], sources=sources, targets=targets, links=links)


def _read_artifact_dir(directory: Path, role: str) -> list[Artifact]:
    if not directory.is_dir():
        raise CorpusError(f"{role} directory not found: {directory}")
    try:
        paths = sorted((p for p in directory.iterdir() if p.is_file()), key=lambda p: p.stem)
    except OSError as exc:
        raise CorpusError(f"cannot read {role} directory {directory}: {exc}") from exc
    artifacts = []  # sorted by id, the order of every report
    for path in paths:
        if "\r" in path.stem:  # the records CSV would split its row; no oracle line can name it
            raise CorpusError(f"{role} artifact id {path.stem!r} contains a carriage return")
        artifacts.append(Artifact(path.stem, read_text_file(path, f"{role} artifact", errors="replace")))
    if not artifacts:
        raise CorpusError(f"no {role} artifacts under {directory}")
    return artifacts


def _read_oracle(path: Path) -> set[TraceLink]:
    if not path.is_file():
        raise CorpusError(f"oracle file not found: {path}")
    try:
        text = read_text_file(path, "oracle file")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"oracle file {path} is not UTF-8: {exc}") from exc
    links: set[TraceLink] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 2:
            raise CorpusError(f"malformed oracle line {lineno}: {line!r}")
        src = fields[0]
        for tgt in fields[1:]:
            links.add(TraceLink(src, tgt))
    return links


TOKENS_PER_ARTIFACT = 20  # distinct tokens per synthetic artifact


def generate_synthetic(seed: int, n_src: int, n_tgt: int, overlap: float) -> Testbed:
    """Generate a deterministic testbed with planted links.

    Links are planted on the diagonal (i-th source to i-th target). Each
    artifact has TOKENS_PER_ARTIFACT distinct tokens, each 1-3 times. Each
    linked target shares ``overlap`` of its source's token vocabulary (same
    counts) and fills the rest with fresh tokens; non-linked pairs share
    nothing.
    """
    if n_src < 1 or n_tgt < 1:
        raise ConfigError("n_src and n_tgt must be >= 1")
    if not 0.0 <= overlap <= 1.0:
        raise ConfigError(f"overlap must be in [0, 1], got {overlap}")

    rng = random.Random(seed)
    minted: set[str] = set()

    def mint_token() -> str:
        while True:
            tok = "".join(rng.choice(string.ascii_lowercase) for _ in range(7))
            if tok not in minted:
                minted.add(tok)
                return tok

    def fresh(n: int) -> list[tuple[str, int]]:
        return [(mint_token(), rng.randint(1, 3)) for _ in range(n)]

    def render(bag: list[tuple[str, int]]) -> str:
        words = [tok for tok, count in bag for _ in range(count)]
        rng.shuffle(words)
        return " ".join(words)

    k_shared = round(overlap * TOKENS_PER_ARTIFACT)
    sources, targets, links = [], [], set()
    source_bags: list[list[tuple[str, int]]] = []
    for i in range(n_src):
        bag = fresh(TOKENS_PER_ARTIFACT)
        source_bags.append(bag)
        sources.append(Artifact(f"SRC{i:03d}", render(bag)))
    for j in range(n_tgt):
        if j < n_src:
            bag = source_bags[j][:k_shared] + fresh(TOKENS_PER_ARTIFACT - k_shared)
            links.add(TraceLink(f"SRC{j:03d}", f"TGT{j:03d}"))
        else:
            bag = fresh(TOKENS_PER_ARTIFACT)
        targets.append(Artifact(f"TGT{j:03d}", render(bag)))
    return Testbed(name=f"synthetic-{seed}", sources=sources, targets=targets, links=links)


def write_testbed(tb: Testbed, out_dir: str | Path) -> Path:
    """Materialize a testbed on disk and return the manifest path."""
    out = Path(out_dir)
    (out / "sources").mkdir(parents=True, exist_ok=True)
    (out / "targets").mkdir(parents=True, exist_ok=True)
    for a in tb.sources:
        (out / "sources" / f"{a.id}.txt").write_text(a.raw_text, encoding="utf-8")
    for a in tb.targets:
        (out / "targets" / f"{a.id}.txt").write_text(a.raw_text, encoding="utf-8")
    by_source: dict[str, list[str]] = {}
    for link in sorted(tb.links, key=lambda l: (l.source_id, l.target_id)):
        by_source.setdefault(link.source_id, []).append(link.target_id)
    oracle_lines = [f"{src} {' '.join(tgts)}" for src, tgts in sorted(by_source.items())]
    (out / "oracle.txt").write_text("\n".join(oracle_lines) + "\n", encoding="utf-8")
    manifest = {
        "name": tb.name,
        "source_dir": "sources",
        "target_dir": "targets",
        "oracle_file": "oracle.txt",
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path
