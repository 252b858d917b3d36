"""Benchmark of `tracex analyze`: end-to-end and per-layer metrics with output checks.

Usage (from the repository root):

    python3 perfbench/run.py --workload c7-skipgram --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed under perfbench/.runs/. Each
timed run calls `tracex.cli.main(["analyze", ...])` once in a fresh
single-threaded child interpreter with an address-space cap, a wall-clock
deadline and a fresh output directory; timed runs repeat until --seconds
have passed (at least one). A run fails when it exits non-zero, passes its
deadline or memory cap, or fails an output check. With --trace 1 one more
run is traced (perfbench/spans.py) and the per-layer metrics replace the
end-to-end ones in the result.

The last line of standard output is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
The lines before it print every metric by name with its unit, the sample
counts, each failure's exit status and last stderr line, and the
environment. The exit code is 0 when the benchmark itself ran; 2 when it
cannot (unknown workload, no tracex sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

RUN_BUDGET_S = 172.0  # one invocation, children and checks included
CHECK_RESERVE_S = 6.0
AS_CAP_BYTES = 1536 << 20  # address-space cap of every child
SETUP_SAMPLES = 9
PINNED_ENV = {
    "TRACEX_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SEMANTIC_SCORES = ("wmd_sim", "scm", "cos_sim", "euc")
E2E_REPORTED = ("wall_s", "pairs_per_s", "setup_s", "peak_rss_mib", "roc_auc.mi", "roc_auc.si")
# per-layer metrics beyond spans.layer_metrics, with their units
LAYER_EXTRAS = {"trace.overhead_s": "s", "report.bytes": "bytes",
                **{f"evaluation.roc_auc.{s}": "auc" for s in SEMANTIC_SCORES}}
# Per-layer metrics printed but left out of the result line: they read 0 on
# every workload in BENCHMARK.json (no BPE, PV-DBOW or loaded vectors there).
LAYER_PRINT_ONLY = {
    "embeddings.train_pvdbow.busy_s", "embeddings.train_pvdbow.final_loss",
    "embeddings.load_embeddings.busy_s", "tokenization.train_bpe.busy_s",
}


@dataclass
class ChildRun:
    status: str  # "ok", "exit <code>", "signal <n>", "timeout after <s>s"
    last_stderr: str
    out: Path
    setup_s: float | None = None
    wall_s: float | None = None
    peak_mib: float | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def child_env() -> dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _cap_address_space(cap_bytes: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (cap_bytes, cap_bytes))


def run_child(spec: dict, work: Path, deadline_s: float, cap_bytes: int = AS_CAP_BYTES) -> ChildRun:
    """Run child.py on spec in its own session; kill the session at the deadline."""
    work.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, result=str(work / "result.json"), capture_dir=str(work / "capture"),
                spans=str(work / "spans.json"))
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    stderr_path = work / "stderr.txt"
    with open(work / "stdout.txt", "wb") as out, open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(work / "spec.json")],
            cwd=work, env=child_env(), stdout=out, stderr=err,
            preexec_fn=lambda: _cap_address_space(cap_bytes), start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=deadline_s)
            status = "ok" if rc == 0 else (f"signal {-rc}" if rc < 0 else f"exit {rc}")
        except subprocess.TimeoutExpired:
            status = f"timeout after {deadline_s:.0f}s"
        finally:  # also when the benchmark itself is interrupted
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    run = ChildRun(status, lines[-1] if lines else "", Path(spec.get("out", work)))
    result_path = Path(spec["result"])
    if result_path.is_file():
        result = json.loads(result_path.read_text(encoding="utf-8"))
        run.setup_s = result["imported"] - spawned
        if "wall_s" in result:
            run.wall_s = result["wall_s"]
            run.peak_mib = result["peak_kib"] / 1024.0
    elif run.ok:
        run.status = "no result file"
    return run


def environment(seed: int) -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


class Bench:
    """One invocation: inputs, child runs, checks and metrics for one workload."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.monotonic()
        self.dir = RUNS / f"{workload.name}-s{seed}-t{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.inputs = workload.build(seed, self.dir / "inputs")
        self.n_children = 0
        self.problems: dict[str, list[str]] = {}
        self.reference: list[dict] | None = None  # expected info columns
        self.vectorizer_none_rows: list[dict] | None = None
        self.epoch_losses: dict[str, list[float]] = {}  # from the traced run

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def spawn(self, trace: bool = False, setup_only: bool = False, args=None) -> ChildRun:
        self.n_children += 1
        work = self.dir / f"child-{self.n_children:02d}"
        out = work / "out"
        argv = ["analyze", "--manifest", str(self.inputs.manifest), "--out", str(out),
                *(self.inputs.analyze_args if args is None else args)]
        spec = {"argv": argv, "trace": trace, "setup_only": setup_only, "out": str(out)}
        deadline = 60.0 if setup_only else min(self.workload.deadline_s,
                                                self.remaining() - CHECK_RESERVE_S)
        return run_child(spec, work, max(deadline, 1.0))

    # -- checks -------------------------------------------------------------

    def token_counts(self, run: ChildRun) -> dict[str, Counter]:
        from checks import plain_counts

        if "--preproc" not in self.inputs.analyze_args:
            return {k: plain_counts(t) for k, t in self.inputs.texts.items()}
        from tracex.tokenization import BpeModel, bpe_encode

        model = BpeModel.load(run.out.parent / "capture" / "bpe.json")
        return {k: Counter(bpe_encode(model, t)) for k, t in self.inputs.texts.items()}

    def check(self, run: ChildRun, digests: set[str], semantic: bool = True) -> list[str]:
        import checks

        problems = checks.check_tree(run.out, self.inputs.testbed_name)
        if problems:
            return problems
        records = run.out / "reports" / self.inputs.testbed_name / "records.jsonl"
        digests.add(checks.records_digest(records))
        rows = checks.load_records(records)
        counts = self.token_counts(run)
        if self.reference is None:
            self.reference = checks.reference_info(counts, self.inputs.links)
        problems += checks.check_identities(rows)
        problems += checks.check_info(rows, self.reference)
        if semantic and "none" not in self.inputs.analyze_args:
            vectors_path = self.inputs.vectors or run.out.parent / "capture" / "vectors.txt"
            problems += checks.check_wmd(rows, counts, checks.read_vectors(vectors_path),
                                         self.seed)
        if self.vectorizer_none_rows is not None:
            problems += checks.check_same_info(rows, self.vectorizer_none_rows)
        return problems

    # -- the run --------------------------------------------------------------

    def execute(self) -> tuple[dict, list[str]]:
        """Returns (result JSON object, human-readable lines)."""
        import checks

        lines = [f"workload {self.workload.name}: {self.workload.why}"]
        self.spawn(setup_only=True)  # warm-up: page cache and bytecode cache
        setup = [self.spawn(setup_only=True).setup_s for _ in range(SETUP_SAMPLES)]

        if self.workload.info_reference_run:
            # Info columns must not depend on the vectorizer: an untimed run
            # of the same testbed with --vectorizer none is their reference.
            ref = self.spawn(args=["--vectorizer", "none", "--seed", str(self.seed)])
            problems = (self.check(ref, set(), semantic=False) if ref.ok
                        else [f"{ref.status}: {ref.last_stderr}"])
            if problems:
                self.problems["vectorizer-none reference"] = problems
            else:
                self.vectorizer_none_rows = checks.load_records(
                    ref.out / "reports" / self.inputs.testbed_name / "records.jsonl")
            shutil.rmtree(ref.out, ignore_errors=True)

        timed: list[ChildRun] = []
        measure_start = time.monotonic()
        while True:
            walls = [r.wall_s for r in timed if r.wall_s]
            # a traced run after the timed ones costs about one more wall
            next_cost = max(walls, default=0.0) * (2.3 if self.trace else 1.3) + CHECK_RESERVE_S
            if timed and (time.monotonic() - measure_start >= self.seconds
                          or next_cost > self.remaining()):
                break
            timed.append(self.spawn())
        traced = self.spawn(trace=True) if self.trace else None
        runs = timed + ([traced] if traced else [])

        digests: set[str] = set()
        failed = 0
        for i, run in enumerate(runs):
            label = "traced" if run is traced else f"timed#{i + 1}"
            if run.ok:
                try:
                    problems = self.check(run, digests)
                except Exception:  # a check that cannot run fails the run, not the benchmark
                    problems = [traceback.format_exc().strip().splitlines()[-1]]
                    lines.append(traceback.format_exc())
                if problems:
                    self.problems[label] = problems
                    run.status = "output check failed"
            if not run.ok:
                failed += 1
                lines.append(f"  {label} FAILED: {run.status}; last stderr line: "
                             f"{run.last_stderr!r}")
        if len(digests) > 1:
            self.problems["records.jsonl"] = [
                f"{len(digests)} distinct records.jsonl digests across the runs of this set"]
        for label, problems in self.problems.items():
            lines += [f"  check {label}: {p}" for p in problems]

        ok = [r for r in timed if r.ok]
        setup += [r.setup_s for r in timed]
        setup = [s for s in setup if s is not None]
        metrics: dict[str, tuple[float, str]] = {}
        notes: dict[str, str] = {}
        if setup:
            metrics["setup_s"] = (statistics.median(setup), "s")
            notes["setup_s"] = f"median of {len(setup)} child starts"
        auc: dict[str, float] = {}
        if ok:
            wall = statistics.median(r.wall_s for r in ok)
            n = f"median of {len(ok)} runs"
            metrics["wall_s"] = (wall, "s")
            metrics["pairs_per_s"] = (self.inputs.n_pairs / wall, "1/s")
            metrics["peak_rss_mib"] = (statistics.median(r.peak_mib for r in ok), "MiB")
            notes.update(wall_s=n, pairs_per_s=f"{self.inputs.n_pairs} pairs / wall_s",
                         peak_rss_mib=n)
            evaluation = json.loads((ok[0].out / "reports" / self.inputs.testbed_name /
                                     "evaluation.json").read_text(encoding="utf-8"))
            auc = {score: entry["roc_auc"] for score, entry in evaluation["scores"].items()
                   if entry["roc_auc"] is not None}
            metrics.update({f"roc_auc.{s}": (v, "auc") for s, v in auc.items()})
        metrics["failed_frac"] = (failed / len(runs), "ratio")
        notes["failed_frac"] = f"{failed} of {len(runs)} runs"

        layer: dict[str, tuple[float, str]] = {}
        if traced is not None and (traced.out.parent / "spans.json").is_file():
            layer = self.layer_metrics(traced, metrics.get("wall_s"), auc)

        env = environment(self.seed)
        lines.append("end-to-end (tracing off):")
        lines += [f"  {k:<28} {v:>14.6g} {u:<6} {notes.get(k, '')}"
                  for k, (v, u) in metrics.items()]
        if traced is not None:
            lines.append(f"per-layer (traced run: {traced.status}):")
            lines += [f"  {k:<44} {v:>14.6g} {u}" for k, (v, u) in layer.items()]
        lines.append(f"environment: {json.dumps(env, sort_keys=True)}")

        # The result line carries the metrics every workload defines: AUCs of
        # the semantic scores (undefined under --vectorizer none) and
        # failed_frac (= failed / attempted) stay in the lines above.
        if self.trace:
            reported = {k: v for k, v in layer.items() if k not in LAYER_PRINT_ONLY}
        else:
            reported = {k: metrics[k] for k in E2E_REPORTED if k in metrics}
        result = {
            "correct": not self.problems,
            "attempted": len(runs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        }
        (self.dir / "result.json").write_text(json.dumps(
            {**result, "all_metrics": {k: v for k, (v, _) in {**metrics, **layer}.items()},
             "environment": env, "workload": self.workload.name,
             "epoch_losses": self.epoch_losses},
            indent=2, sort_keys=True) + "\n", encoding="utf-8")
        for run in runs:
            shutil.rmtree(run.out, ignore_errors=True)
        return result, lines

    def layer_metrics(self, traced: ChildRun, wall, auc: dict) -> dict[str, tuple[float, str]]:
        import checks
        from spans import layer_metrics

        trace = json.loads((traced.out.parent / "spans.json").read_text(encoding="utf-8"))
        layer = layer_metrics(trace)
        self.epoch_losses = trace["epoch_losses"]
        root = [s for s in trace["spans"] if s[0] == "pipeline.main"]
        traced_wall = root[0][2] - root[0][1] if root else 0.0
        extras = {"trace.overhead_s": traced_wall - wall[0] if wall else 0.0,
                  "report.bytes": checks.tree_bytes(traced.out) if traced.out.is_dir() else 0}
        extras.update({f"evaluation.roc_auc.{s}": auc.get(s, 0.0) for s in SEMANTIC_SCORES})
        layer.update({k: (extras[k], unit) for k, unit in LAYER_EXTRAS.items()})
        return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tracex" / "cli.py").is_file():
        print(f"error: tracex sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    result, lines = bench.execute()
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
