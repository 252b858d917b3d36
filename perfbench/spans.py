"""Span recording around tracex's module attributes, from outside the program.

`Tracer.install` replaces every tracex function reachable as an attribute of
`tracex.pipeline`, plus `tracex.semantics.{wmd, soft_cosine, transport_cost}`,
with a wrapper that appends one span per call. Each span is
`[name, start, end, parent, failed]`, where name is `<layer>.<function>`,
the layer is the defining module and parent indexes the enclosing span (-1
at the root). Spans stay in memory and are written once by `dump`.

`layer_metrics` turns a dumped trace into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
from pathlib import Path

# Return values the output checks need (trained vectors, the BPE model).
CAPTURED = ("train_skipgram", "train_pvdbow", "train_bpe")

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)


def capture_returns(pipeline_module, store: dict) -> None:
    """Keep the return value of each CAPTURED pipeline call in `store`.

    This is the only patch a timed run (tracing off) carries: one dictionary
    store per call, on functions the pipeline calls once per run. In a traced
    run it goes on top of the tracing wrappers.
    """
    for name in CAPTURED:
        fn = getattr(pipeline_module, name)

        def keep(*args, __fn=fn, __name=name, **kwargs):
            result = __fn(*args, **kwargs)
            store[__name] = result
            return result

        setattr(pipeline_module, name, keep)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.epoch_losses: dict[str, list[float]] = {}

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _note(self, fname: str, args, result, exc) -> None:
        """Counts taken at the call boundary from arguments and results."""
        if fname == "transport_cost":
            self._add("transport.cells", len(args[0]) * len(args[1]))
        elif fname in ("wmd", "soft_cosine"):
            if isinstance(exc, ValueError):
                self._add("semantics.undefined", 1)
            elif fname == "wmd" and exc is None and result[1]:
                self._add("semantics.relaxed", 1)
        elif fname in ("conventional_tokenize", "bpe_encode") and exc is None:
            self._add("tokenization.tokens", len(result))
        elif fname in ("train_skipgram", "train_pvdbow") and exc is None:
            corpus = args[0]
            if fname == "train_pvdbow":
                corpus = [tokens for _, tokens in corpus]
            self._add(f"embeddings.{fname}.tokens", sum(len(d) for d in corpus))
            self.epoch_losses[fname] = [float(x) for x in result.epoch_losses]

    def wrap(self, fn, name: str | None = None):
        name = name or f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        fname = fn.__name__
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                span[4] = 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                self._note(fname, args, result, exc)

        return traced

    def install(self) -> None:
        import tracex.pipeline as pipeline
        import tracex.semantics as semantics

        for attr, value in list(vars(pipeline).items()):
            if inspect.isfunction(value) and value.__module__.startswith("tracex."):
                setattr(pipeline, attr, self.wrap(value))
        for attr in ("wmd", "soft_cosine", "transport_cost"):
            setattr(semantics, attr, self.wrap(getattr(semantics, attr)))

    def dump(self, path: Path) -> None:
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "epoch_losses": self.epoch_losses,
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _percentile(sorted_values: list[float], q: float) -> float:
    pos = q / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    ok = [q for q in TAIL_LADDER if round(n * (100.0 - q) / 100.0, 9) >= 10.0]
    return max(ok) if ok else None


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one dumped trace: {name: (value, unit)}.

    busy_s sums the time of calls into a layer (nested calls within the same
    layer count once); self_s subtracts the time of the spans they caused.
    Metrics of a layer the workload never calls read 0.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    layer = [s[0].split(".", 1)[0] for s in spans]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def busy(name: str) -> float:
        return sum(dur[i] for i in by_name.get(name, []))

    def self_time(name: str) -> float:
        return sum(dur[i] - child[i] for i in by_name.get(name, []))

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def per(num: float, den: float, scale: float) -> float:
        return num / den * scale if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    layers = ("corpus", "tokenization", "embeddings", "infotheory", "semantics",
              "transport", "evaluation", "report")
    for lay in layers:
        m[f"{lay}.busy_s"] = (sum(
            dur[i] for i, s in enumerate(spans)
            if layer[i] == lay and (s[3] < 0 or layer[s[3]] != lay)
        ), "s")
        m[f"{lay}.self_s"] = (sum(
            dur[i] - child[i] for i in range(len(spans)) if layer[i] == lay
        ), "s")
    m["pipeline.self_s"] = (sum(
        dur[i] - child[i] for i in range(len(spans)) if layer[i] == "pipeline"
    ), "s")

    tc = "transport.transport_cost"
    n_tc = calls(tc)
    call_ms = sorted(dur[i] * 1e3 for i in by_name.get(tc, []))
    tail_q = tail_percentile(n_tc)
    m[f"{tc}.calls"] = (n_tc, "count")
    m[f"{tc}.busy_s"] = (busy(tc), "s")
    m[f"{tc}.us_per_call"] = (per(busy(tc), n_tc, 1e6), "us")
    m[f"{tc}.call_ms.p50"] = (statistics.median(call_ms) if call_ms else 0.0, "ms")
    m[f"{tc}.call_ms.tail"] = (_percentile(call_ms, tail_q) if tail_q else 0.0, "ms")
    m[f"{tc}.call_ms.tail_pct"] = (tail_q or 0.0, "%")
    m[f"{tc}.cells"] = (counts.get("transport.cells", 0), "count")
    m[f"{tc}.ns_per_cell"] = (per(busy(tc), counts.get("transport.cells", 0), 1e9), "ns")
    m[f"{tc}.failed"] = (sum(spans[i][4] for i in by_name.get(tc, [])), "count")

    m["semantics.wmd.busy_s"] = (busy("semantics.wmd"), "s")
    m["semantics.wmd.self_s"] = (self_time("semantics.wmd"), "s")
    m["semantics.wmd.relaxed"] = (counts.get("semantics.relaxed", 0), "count")
    sc = "semantics.soft_cosine"
    m[f"{sc}.busy_s"] = (busy(sc), "s")
    m[f"{sc}.us_per_call"] = (per(busy(sc), calls(sc), 1e6), "us")
    m["semantics.undefined"] = (counts.get("semantics.undefined", 0), "count")

    losses = trace["epoch_losses"]
    sg = "embeddings.train_skipgram"
    sg_token_epochs = counts.get(f"{sg}.tokens", 0) * len(losses.get("train_skipgram", []))
    m[f"{sg}.busy_s"] = (busy(sg), "s")
    m[f"{sg}.us_per_token_epoch"] = (per(busy(sg), sg_token_epochs, 1e6), "us")
    m[f"{sg}.final_loss"] = (losses.get("train_skipgram", [0.0])[-1], "nats")
    pv = "embeddings.train_pvdbow"
    m[f"{pv}.busy_s"] = (busy(pv), "s")
    m[f"{pv}.final_loss"] = (losses.get("train_pvdbow", [0.0])[-1], "nats")
    m["embeddings.load_embeddings.busy_s"] = (busy("embeddings.load_embeddings"), "s")
    m["embeddings.mean_doc_vector.busy_s"] = (busy("embeddings.mean_doc_vector"), "s")

    m["tokenization.train_bpe.busy_s"] = (busy("tokenization.train_bpe"), "s")
    m["tokenization.encode.busy_s"] = (
        busy("tokenization.bpe_encode") + busy("tokenization.conventional_tokenize"), "s")
    m["tokenization.tokens"] = (counts.get("tokenization.tokens", 0), "count")

    ir = "infotheory.info_record"
    m[f"{ir}.calls"] = (calls(ir), "count")
    m[f"{ir}.busy_s"] = (busy(ir), "s")
    m[f"{ir}.us_per_call"] = (per(busy(ir), calls(ir), 1e6), "us")

    for fn in ("roc_auc", "pr_auc", "correlation_table"):
        m[f"evaluation.{fn}.busy_s"] = (busy(f"evaluation.{fn}"), "s")
    m["corpus.load_testbed.busy_s"] = (busy("corpus.load_testbed"), "s")
    return m
