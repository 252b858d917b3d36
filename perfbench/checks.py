"""Output checks for one `tracex analyze` report tree.

Each check returns a list of problems; an empty list means the check passed.
The information-measure reference is recomputed here from the generated
texts with NumPy, independently of tracex's own dict-based arithmetic. The
WMD reference is SciPy's HiGHS linear program, the same oracle as the
program's transport acceptance test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np

REPORT_FILES = (
    "records.csv", "records.jsonl", "information.csv", "by_links.csv",
    "correlations.csv", "cases.jsonl", "scatter_loss.svg", "scatter_noise.svg",
    "evaluation.json",
)
INFO_COLUMNS = ("h_x", "h_y", "h_pool", "mi", "loss", "noise", "si", "sx", "d1")
IDENTITY_TOL = 1e-9
INFO_TOL = 1e-9
WMD_RTOL = 1e-6  # relative: WMD values scale with the vector norms
WMD_SAMPLE = 6
_WORD = re.compile(r"[a-z]{2,}")


def check_tree(out: Path, testbed: str) -> list[str]:
    """Exit produced a complete report tree: run.json plus every report file."""
    problems = [] if (out / "run.json").is_file() else ["run.json missing"]
    report = out / "reports" / testbed
    for name in REPORT_FILES:
        path = report / name
        if not path.is_file() or path.stat().st_size == 0:
            problems.append(f"report file missing or empty: {name}")
    return problems


def tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def records_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_records(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def check_identities(rows: list[dict]) -> list[str]:
    """mi + loss = h_x and mi + noise = h_y on every row with defined info."""
    problems = []
    for r in rows:
        if r["mi"] is None:
            continue
        if abs(r["mi"] + r["loss"] - r["h_x"]) > IDENTITY_TOL:
            problems.append(f"mi + loss != h_x for ({r['source_id']}, {r['target_id']})")
        if abs(r["mi"] + r["noise"] - r["h_y"]) > IDENTITY_TOL:
            problems.append(f"mi + noise != h_y for ({r['source_id']}, {r['target_id']})")
    return problems[:10]


def plain_counts(text: str) -> Counter:
    """Token counts of a generated text under the conventional tokenizer.

    Generated texts are space-separated lowercase words of two or more
    letters, on which the conventional tokenizer is the identity split.
    """
    words = text.split()
    if not all(_WORD.fullmatch(w) for w in words):
        raise ValueError("generated text has a word the plain split cannot stand in for")
    return Counter(words)


def _xlogx(c: np.ndarray) -> np.ndarray:
    out = np.zeros_like(c)
    pos = c > 0
    out[pos] = c[pos] * np.log2(c[pos])
    return out


def _entropy(total: np.ndarray, sum_xlogx: np.ndarray) -> np.ndarray:
    """H = log2(N) - sum(c log2 c) / N, with H = 0 for N = 0."""
    safe = np.where(total > 0, total, 1.0)
    return np.where(total > 0, np.log2(safe) - sum_xlogx / safe, 0.0)


def reference_info(
    counts: dict[str, Counter], links: set[tuple[str, str]]
) -> list[dict]:
    """Expected info columns for every candidate pair, in candidate order.

    Built on a dense doc-term matrix: per pair only the source's support
    needs work, because sum over the union of f(a + b) equals
    sum f(b) + sum over supp(a) of (f(a + b) - f(b)).
    """
    src_ids = sorted(k.split(":", 1)[1] for k in counts if k.startswith("source:"))
    tgt_ids = sorted(k.split(":", 1)[1] for k in counts if k.startswith("target:"))
    vocab = sorted({t for c in counts.values() for t in c})
    col = {t: i for i, t in enumerate(vocab)}
    tgt = np.zeros((len(tgt_ids), len(vocab)))
    for j, tid in enumerate(tgt_ids):
        for tok, c in counts[f"target:{tid}"].items():
            tgt[j, col[tok]] = c
    tgt_total = tgt.sum(axis=1)
    tgt_xlogx = _xlogx(tgt).sum(axis=1)
    h_y = _entropy(tgt_total, tgt_xlogx)

    rows = []
    for sid in src_ids:
        bag = counts[f"source:{sid}"]
        cols = np.array([col[t] for t in bag], dtype=np.int64)
        a = np.array([bag[t] for t in bag], dtype=np.float64)
        a_total = a.sum()
        h_x = float(_entropy(np.array(a_total), np.array(_xlogx(a).sum())))
        b = tgt[:, cols]
        pooled = tgt_xlogx + (_xlogx(a + b) - _xlogx(b)).sum(axis=1)
        h_pool = _entropy(a_total + tgt_total, pooled)
        shared = np.minimum(a, b)
        s_total = shared.sum(axis=1)
        si = _entropy(s_total, _xlogx(shared).sum(axis=1))
        p = shared / np.where(s_total > 0, s_total, 1.0)[:, None]
        q = 1.0 - p
        inner = (p > 0) & (p < 1)
        sx = -np.where(inner, q * np.log2(np.where(inner, q, 1.0)), 0.0).sum(axis=1)
        for j, tid in enumerate(tgt_ids):
            hp, hy = float(h_pool[j]), float(h_y[j])
            rows.append({
                "source_id": sid, "target_id": tid, "is_link": (sid, tid) in links,
                "h_x": h_x, "h_y": hy, "h_pool": hp,
                "mi": h_x + hy - hp, "loss": hp - hy, "noise": hp - h_x,
                "si": float(si[j]), "sx": float(sx[j]), "d1": hy - h_x,
                "null_shared": bool(s_total[j] == 0),
            })
    return rows


def check_info(rows: list[dict], reference: list[dict]) -> list[str]:
    """Candidate order, labels and every info column against the reference."""
    if len(rows) != len(reference):
        return [f"{len(rows)} records, expected {len(reference)}"]
    problems = []
    for r, ref in zip(rows, reference):
        key = (ref["source_id"], ref["target_id"])
        if (r["source_id"], r["target_id"]) != key:
            return [f"record order differs at {key}"]
        if r["is_link"] != ref["is_link"] or r["null_shared"] != ref["null_shared"]:
            problems.append(f"label or null_shared differs at {key}")
        for c in INFO_COLUMNS:
            if r[c] is None or abs(r[c] - ref[c]) > INFO_TOL:
                problems.append(f"{c} = {r[c]} differs from reference {ref[c]} at {key}")
    return problems[:10]


def check_same_info(rows: list[dict], reference_rows: list[dict]) -> list[str]:
    """Info columns bit-equal to those of a reference run of the same testbed."""
    cols = ("source_id", "target_id", "is_link", "null_shared") + INFO_COLUMNS
    for r, ref in zip(rows, reference_rows):
        if any(r[c] != ref[c] for c in cols):
            return [f"info columns differ from the --vectorizer none run at "
                    f"({r['source_id']}, {r['target_id']})"]
    if len(rows) != len(reference_rows):
        return ["record count differs from the --vectorizer none run"]
    return []


def read_vectors(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return {
        fields[0]: np.array([float(x) for x in fields[1:]])
        for fields in (line.split() for line in lines[1:])
    }


def highs_wmd(a: Counter, b: Counter, vectors: dict[str, np.ndarray]) -> float:
    """Exact WMD over in-vocabulary tokens as a HiGHS transport LP."""
    from scipy.optimize import linprog

    ta = sorted(t for t in a if t in vectors)
    tb = sorted(t for t in b if t in vectors)
    pa = np.array([a[t] for t in ta], dtype=np.float64)
    pb = np.array([b[t] for t in tb], dtype=np.float64)
    va = np.stack([vectors[t] for t in ta])
    vb = np.stack([vectors[t] for t in tb])
    cost = np.sqrt(((va[:, None, :] - vb[None, :, :]) ** 2).sum(axis=2))
    m, n = cost.shape
    a_eq = np.zeros((m + n, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([pa / pa.sum(), pb / pb.sum()])
    lp = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if not lp.success:
        raise RuntimeError(f"HiGHS failed: {lp.message}")
    return float(lp.fun)


def wmd_sample(rows: list[dict], seed: int) -> list[dict]:
    """A fixed sample of exact-WMD rows: two links and four non-links,
    chosen by the workload seed among rows in candidate order."""
    rng = random.Random(seed)
    exact = [r for r in rows if r["wmd"] is not None and not r["wmd_relaxed"]]
    links = [r for r in exact if r["is_link"]]
    others = [r for r in exact if not r["is_link"]]
    return rng.sample(links, min(2, len(links))) + rng.sample(
        others, min(WMD_SAMPLE - 2, len(others)))


def check_wmd(
    rows: list[dict], counts: dict[str, Counter], vectors: dict[str, np.ndarray], seed: int
) -> list[str]:
    sample = wmd_sample(rows, seed)
    if not sample:
        return ["no exact WMD value to check"]
    problems = []
    for r in sample:
        ref = highs_wmd(counts[f"source:{r['source_id']}"], counts[f"target:{r['target_id']}"],
                        vectors)
        if abs(r["wmd"] - ref) > WMD_RTOL * abs(ref) + 1e-12:
            problems.append(
                f"wmd {r['wmd']} != HiGHS {ref} for ({r['source_id']}, {r['target_id']})")
    return problems
