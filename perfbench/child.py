"""One workload call in a fresh process (started by ``run.py``).

Writes a JSON record to ``--out``: set-up time (process start to the
workload call, imports included), the call's wall time, peak RSS of this
process and its pool workers, provenance, the output items to check
against the goldens, and, with ``--trace 1``, the per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, record setup_s and exit before the call")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import numpy

    import repro
    from repro.codec import kernels

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")
    import workloads

    run = workloads.Run(args.workload, args.seed, args.cache_dir)
    run.prepare()
    ledger = None
    if args.trace:
        from ledger import Ledger

        ledger = Ledger(args.out.with_suffix(".spool"))
        ledger.install()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0
    t0 = time.perf_counter()
    run.call()
    wall_s = time.perf_counter() - t0

    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input": workloads.input_id(args.workload, args.seed),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "kernel_backend": kernels.active_backend(),
        "numpy": numpy.__version__,
        **run.collect(),
    }
    if ledger is not None:
        ledger.uninstall()
        record["ledger"] = _ledger(ledger, wall_s)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


def _ledger(ledger, wall_s: float) -> dict[str, float]:
    """Per-layer metrics, plus ``trace.overhead_s`` from untraced
    re-encodes of the same cells with the same encoder concurrency."""
    from ledger import reencode_untraced, summarize

    spans = ledger.spans()
    metrics = summarize(spans, wall_s)
    encodes = [s for s in spans
               if s.name == "Encoder.encode" and s.attrs.get("events")]
    pools = [s.attrs["workers"] for s in spans if s.name == "parallel.run_tasks"]
    items = [(s.attrs["options"], s.attrs["loop_opts"], s.attrs["video"])
             for s in encodes]
    untraced_s = reencode_untraced(items, max(pools, default=1))
    metrics["trace.overhead_s"] = sum(s.dur_ns for s in encodes) / 1e9 - untraced_s
    return metrics


if __name__ == "__main__":
    sys.exit(main())
