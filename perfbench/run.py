"""Benchmark for the repro pipeline: cold sweeps and a service replay.

    python3 perfbench/run.py --workload fig3-cold --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Every measured workload call runs in a fresh Python process with every
``REPRO_*`` variable cleared and, for the sweeps, an empty cache dir, so
each cell is computed cold on the production default kernel path. With
``--trace 0`` the process repeats such calls for ``--seconds`` and
reports medians of the end-to-end metrics; with ``--trace 1`` it makes
one untraced and one traced call and reports the traced call's
per-layer ledger. Outputs are checked against ``goldens.json``. The last
line of standard output is the JSON result; the full record, provenance
included, is written under ``.perfbench_out/``. See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Per-layer metrics from the traced run: name -> (unit, better).
PER_LAYER = {
    "video.load_s": ("s", "lower"),
    "video.loads": ("count", "lower"),
    "experiments.publish_s": ("s", "lower"),
    "experiments.pool_s": ("s", "lower"),
    "experiments.pool_idle_s": ("s", "lower"),
    "experiments.cell_self_s": ("s", "lower"),
    "experiments.key_s": ("s", "lower"),
    "experiments.cache_get_s": ("s", "lower"),
    "experiments.cache_put_s": ("s", "lower"),
    "experiments.cache_misses": ("count", "lower"),
    "experiments.cells": ("count", "lower"),
    "codec.encode_s": ("s", "lower"),
    "codec.frames": ("count", "lower"),
    "codec.frames_per_s": ("1/s", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.record_s": ("s", "lower"),
    "trace.events": ("count", "lower"),
    "uarch.simulate_s": ("s", "lower"),
    "uarch.calls": ("count", "lower"),
    "uarch.events": ("count", "lower"),
    "uarch.minstr_per_s": ("Minstr/s", "higher"),
    "service.replay_s": ("s", "lower"),
    "service.replay_self_s": ("s", "lower"),
    "service.replay_p50_ms": ("ms", "lower"),
    "service.replay_p90_ms": ("ms", "lower"),
    "service.place_s": ("s", "lower"),
    "service.jobs_completed": ("count", "higher"),
    "ledger.wall_s": ("s", "lower"),
    "ledger.slot_s": ("s", "lower"),
    "unexplained_s": ("s", "lower"),
    "tracing_overhead_pct": ("%", "lower"),
}

CHILD_TIMEOUT_S = 170

#: ``setup_s`` is the median of at least this many set-ups per run; when
#: fewer workload calls fit in ``--seconds``, processes that set up and
#: exit without the call make up the rest.
SETUP_SAMPLES = 3


class BenchError(RuntimeError):
    """The program or its set-up broke; no result is printed."""


def clean_env() -> dict[str, str]:
    """This environment without any variable ``repro.api.ENV_VARS``
    lists (``*`` entries match as prefixes)."""
    from repro.api.settings import ENV_VARS

    prefixes = tuple(n[:-1] for n in ENV_VARS if n.endswith("*"))
    exact = {n for n in ENV_VARS if not n.endswith("*")}
    return {
        k: v for k, v in os.environ.items()
        if k not in exact and not k.startswith(prefixes)
    }


def run_child(cmd: list[str], env: dict[str, str]) -> tuple[int, str]:
    """Run ``cmd`` in a process group of its own and return its exit code
    and output. However it ends, the whole group, pool workers included,
    is killed and the child waited for, so no process outlives the call."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, output


def warm_up(env: dict[str, str]) -> None:
    """One small profiled transcode in its own process, so the first
    measured call does not pay for a cold page cache."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from repro import api; "
            "api.profile('cricket', width=32, height=32, n_frames=3)")
    returncode, output = run_child([sys.executable, "-c", code, str(SRC)], env)
    if returncode != 0:
        raise BenchError(f"warm-up exited {returncode}:\n{output[-4000:]}")


def measure_once(workload: str, seed: int, trace: int, tmp: Path,
                 env: dict[str, str], setup_only: bool = False) -> dict:
    """One workload call in a fresh process; returns its record. With
    ``setup_only`` the process sets up and exits before the call, and
    the record holds only ``setup_s``."""
    tmp.mkdir(parents=True)
    cache_dir = tmp / "cache"
    cache_dir.mkdir()
    out = tmp / "record.json"
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--cache-dir", str(cache_dir), "--out", str(out),
        *(["--setup-only"] if setup_only else []),
    ]
    t0 = time.monotonic()
    returncode, output = run_child([*cmd, "--t0", repr(t0)], env)
    if returncode != 0 or not out.is_file():
        raise BenchError(
            f"{workload} seed={seed} trace={trace} exited {returncode}:\n"
            + output[-4000:]
        )
    record = json.loads(out.read_text(encoding="utf-8"))
    if not setup_only:
        _check_cold(record)
    shutil.rmtree(tmp)
    return record


def _check_cold(record: dict) -> None:
    """A sweep must have computed every cell: none may come from a cache."""
    cells = len(record["items"])
    if record["computed"] is None:
        return
    misses = record.get("ledger", {}).get("experiments.cache_misses", cells)
    if record["computed"] != cells or misses != cells:
        raise BenchError(
            f"{record['workload']} was not cold: {cells} cells, "
            f"{record['computed']} computed, {misses} cache misses"
        )


def score(record: dict, goldens: dict) -> tuple[int, int]:
    golden = goldens.get(record["workload"], {}).get(record["input"])
    return workloads.score(record["items"], golden)


def measure(workload: str, seed: int, seconds: float, trace: int,
            tmp: Path, env: dict[str, str], goldens: dict) -> dict:
    """Repeat fresh-process calls and fold them into one result."""
    warm_up(env)
    reps: list[dict] = []
    start = time.monotonic()
    if trace:
        reps.append(measure_once(workload, seed, 0, tmp / "untraced", env))
        reps.append(measure_once(workload, seed, 1, tmp / "traced", env))
    else:
        # Start another call while that brings the measured time nearer
        # to ``seconds``: while it is expected to end less than half a
        # call past it.
        while True:
            reps.append(measure_once(workload, seed, 0, tmp / f"rep{len(reps)}", env))
            elapsed = time.monotonic() - start
            if elapsed * (len(reps) + 0.5) / len(reps) > seconds:
                break
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(measure_once(workload, seed, 0, tmp / f"setup{len(setups)}",
                                       env, setup_only=True)["setup_s"])
    attempted = failed = 0
    for rep in reps:
        a, f = score(rep, goldens)
        attempted += a
        failed += f
    if trace:
        untraced, traced = reps
        metrics = dict(traced["ledger"])
        metrics["tracing_overhead_pct"] = (
            100.0 * (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
        )
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {
            "ops_per_s": statistics.median(r["completed"] / r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "reps": reps,
    }


def provenance() -> dict:
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        rev = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = bool(subprocess.run(
            [*git, "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, check=True).stdout.strip())
    return {"git_rev": rev, "dirty": dirty, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def render(workload: str, result: dict) -> list[str]:
    """Human-readable lines: every metric by name and unit, and
    ``failed_frac``."""
    frac = result["failed"] / result["attempted"]
    lines = [f"{workload}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']} "
             f"failed_frac={frac:g}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<28s} {m['value']:>14.6g} {m['unit']}")
    return lines


def write_goldens(env: dict[str, str], tmp: Path) -> None:
    """Regenerate goldens.json from the current program, one untraced
    call per shipped input."""
    goldens: dict[str, dict] = {}
    for workload in workloads.NAMES:
        for seed in range(workloads.SHIPPED_SEEDS):
            input_id = workloads.input_id(workload, seed)
            if input_id in goldens.get(workload, {}):
                continue
            record = measure_once(workload, seed, 0, tmp / f"{workload}-{seed}", env)
            goldens.setdefault(workload, {})[input_id] = {
                k: v["digest"] for k, v in record["items"].items()
            }
            print(f"{workload} {input_id}: {len(record['items'])} items",
                  file=sys.stderr)
    workloads.GOLDENS.write_text(
        json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="regenerate goldens.json instead of measuring")
    args = parser.parse_args(argv)
    # A terminated run still kills the process group of its current call.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    compileall.compile_dir(SRC, quiet=1)
    env = clean_env()
    tmp = OUT / f"tmp-{os.getpid()}"
    try:
        if args.write_goldens:
            write_goldens(env, tmp)
            return 0
        goldens = workloads.load_goldens()
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {
            name: measure(name, args.seed, args.seconds, args.trace,
                          tmp / name, env, goldens)
            for name in names
        }
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    prov = provenance()
    prov["kernel_backend"] = sorted({r["kernel_backend"] for res in results.values()
                                     for r in res["reps"]})
    prov["numpy"] = sorted({r["numpy"] for res in results.values()
                            for r in res["reps"]})
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    for name, result in results.items():
        print("\n".join(render(name, result)))
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({**result, "provenance": prov}, indent=1),
                        encoding="utf-8")
    if len(results) == 1:
        (final,) = results.values()
        final = {k: final[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
