"""One isolated `tracex analyze` run, started by run.py in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

`import tracex.cli` is the first thing this process does, so the monotonic
timestamp right after it bounds the interpreter start-up plus import time
(setup_s) against the parent's spawn timestamp. The spec names the analyze
arguments, whether to trace, and where to write the result, the captured
model files and the spans.
"""

import time
import tracex.cli

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracex.pipeline  # noqa: E402

from spans import Tracer, capture_returns  # noqa: E402


def save_captured(captured: dict, out: Path) -> None:
    """Write the vectors WMD used and the BPE model, for the WMD oracle check."""
    out.mkdir(parents=True, exist_ok=True)
    if "train_skipgram" in captured:
        captured["train_skipgram"].matrix.save(out / "vectors.txt")
    if "train_pvdbow" in captured:
        captured["train_pvdbow"].word_matrix.save(out / "vectors.txt")
    if "train_bpe" in captured:
        captured["train_bpe"].save(out / "bpe.json")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(spec["result"])
    if spec.get("setup_only"):
        result_path.write_text(json.dumps({"imported": IMPORTED}), encoding="utf-8")
        return 0

    tracer = None
    captured: dict = {}
    entry = tracex.cli.main
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(tracex.cli.main, name="pipeline.main")
    capture_returns(tracex.pipeline, captured)

    t0 = time.perf_counter()
    try:
        rc = entry(spec["argv"])
    except BaseException as exc:
        if tracer:
            # Drop the failing frames' locals (a runaway allocation, say)
            # before writing the spans that show where the run failed.
            traceback.clear_frames(exc.__traceback__)
            tracer.dump(Path(spec["spans"]))
        raise
    wall = time.perf_counter() - t0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    save_captured(captured, Path(spec["capture_dir"]))
    if tracer:
        tracer.dump(Path(spec["spans"]))
    result_path.write_text(
        json.dumps({"imported": IMPORTED, "rc": rc, "wall_s": wall, "peak_kib": peak_kib}),
        encoding="utf-8",
    )
    return rc


if __name__ == "__main__":
    sys.exit(main())
