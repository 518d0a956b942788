"""The traced run's per-layer ledger.

:class:`Ledger` patches the public entry point of each layer, from
outside the program, with a wrapper that records a span: name, start,
end, parent span and op id (a sweep cell or a service job). Spans stay
in memory; pool workers append theirs to a spool file after each cell,
and :func:`summarize` folds every process's spans into the per-layer
metrics and the ledger that closes them against wall time.

The two tracer callbacks run thousands of times per cell, so they are
not spans: each call adds its count and duration to the span that is
open around it.
"""

from __future__ import annotations

import functools
import os
import pickle
import statistics
import time
from pathlib import Path

#: Every wrapped boundary -> its layer (the module it belongs to). The
#: two ``RecordingTracer`` callbacks are aggregated into the enclosing
#: span instead of recorded one by one.
LAYER_OF = {
    "runner.compute_point": "experiments",
    "vbench.load_video": "video",
    "transport.publish_video": "experiments",
    "Encoder.encode": "codec",
    "RecordingTracer.kernel": "trace",
    "RecordingTracer.begin_frame": "trace",
    "Simulator.run": "uarch",
    "PointSpec.cache_key": "experiments",
    "ResultCache.get_value": "experiments",
    "ResultCache.put_value": "experiments",
    "parallel.run_tasks": "experiments",
    "Worker.execute": "service",
    "Placement.place": "service",
}

class Span:
    """One call through a layer boundary."""

    __slots__ = (
        "id", "name", "start", "end", "parent", "op", "pid",
        "child_ns", "hot", "attrs",
    )

    def __init__(self, id, name, start, parent, op, pid):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.pid = pid
        self.child_ns = 0          # direct child spans, same process
        self.hot = {}              # tracer callback -> [calls, ns]
        self.attrs = {}

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns - sum(v[1] for v in self.hot.values())


class Ledger:
    """Span recorder for one traced run.

    ``install()`` must run before the sweep's pool forks, so workers
    inherit the patched classes and this recorder. ``spool`` is a
    directory the workers append their spans to.
    """

    def __init__(self, spool: str | Path) -> None:
        self.spool = Path(spool)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.finished: list[Span] = []
        self.stack: list[Span] = []
        self._count = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str, op) -> Span:
        pid = os.getpid()
        if pid != self.pid:
            # First span in a forked worker: drop what the parent had
            # finished; open spans stay on the stack as cross-process
            # parents and are never closed here.
            self.pid = pid
            self.finished = []
        parent = self.stack[-1] if self.stack else None
        self._count += 1
        span = Span(
            f"{pid}:{self._count}", name, time.perf_counter_ns(),
            parent.id if parent is not None else None,
            op if op is not None else (parent.op if parent is not None else None),
            pid,
        )
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self.stack.pop()
        self.finished.append(span)
        parent = self.stack[-1] if self.stack else None
        if parent is not None and parent.pid == span.pid:
            parent.child_ns += span.dur_ns
        elif span.pid != self.main_pid:
            self._flush()

    def _flush(self) -> None:
        """Append this worker's finished spans to its spool file."""
        self.spool.mkdir(parents=True, exist_ok=True)
        with open(self.spool / f"{self.pid}.pickle", "ab") as handle:
            pickle.dump(self.finished, handle)
        self.finished = []

    def spans(self) -> list[Span]:
        """Every finished span: this process's and the spooled workers'."""
        out = list(self.finished)
        for path in sorted(self.spool.glob("*.pickle")):
            with open(path, "rb") as handle:
                while True:
                    try:
                        out.extend(pickle.load(handle))
                    except EOFError:
                        break
        return out

    def wrap(self, name: str, fn, *, op=None, attrs=None):
        """``fn`` recording one span per call; ``op(args)`` names the
        op the call starts, ``attrs(args, kwargs, result)`` adds attributes."""
        ledger = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = ledger._open(name, op(args) if op is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                ledger._close(span)
                raise
            ledger._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def wrap_hot(self, name: str, fn):
        """``fn`` adding its count and time to the enclosing span."""
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg = stack[-1].hot.get(name) if stack else None
                if agg is not None:
                    agg[0] += 1
                    agg[1] += dt
                elif stack:
                    stack[-1].hot[name] = [1, dt]

        return wrapper

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every boundary in :data:`LAYER_OF`."""
        import sys

        from repro.codec.encoder import Encoder
        from repro.experiments import parallel, runner, transport
        from repro.experiments.cache import ResultCache
        from repro.service import placement
        from repro.service.workers import Worker
        from repro.trace.recorder import RecordingTracer
        from repro.uarch.simulator import Simulator
        from repro.video import vbench

        self._patch(runner, "compute_point", self.wrap(
            "runner.compute_point", runner.compute_point,
            op=lambda a: f"{a[0].video}:{a[0].preset}:crf={a[0].crf}:refs={a[0].refs}",
        ))
        # load_video is imported by name: rebind it wherever it is looked up.
        original_load = vbench.load_video
        wrapped_load = self.wrap("vbench.load_video", original_load)
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, "load_video", None) is original_load):
                self._patch(module, "load_video", wrapped_load)
        self._patch(transport, "publish_video", self.wrap(
            "transport.publish_video", transport.publish_video))
        self._patch(Encoder, "encode", self.wrap(
            "Encoder.encode", Encoder.encode, attrs=_encode_attrs))
        for hot in ("kernel", "begin_frame"):
            self._patch(RecordingTracer, hot, self.wrap_hot(
                f"RecordingTracer.{hot}", getattr(RecordingTracer, hot)))
        self._patch(Simulator, "run", self.wrap(
            "Simulator.run", Simulator.run, attrs=_simulate_attrs))
        self._patch(runner.PointSpec, "cache_key", self.wrap(
            "PointSpec.cache_key", runner.PointSpec.cache_key))
        self._patch(ResultCache, "get_value", self.wrap(
            "ResultCache.get_value", ResultCache.get_value,
            attrs=lambda a, k, r: {"hit": r is not None}))
        self._patch(ResultCache, "put_value", self.wrap(
            "ResultCache.put_value", ResultCache.put_value))
        self._patch(parallel, "run_tasks", self.wrap(
            "parallel.run_tasks", parallel.run_tasks, attrs=_pool_attrs))
        self._patch(Worker, "execute", self.wrap(
            "Worker.execute", Worker.execute, op=lambda a: f"job{a[1].job_id}"))
        for policy in (placement.SmartPlacement, placement.RandomPlacement):
            self._patch(policy, "place", self.wrap("Placement.place", policy.place))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _encode_attrs(args, kwargs, result) -> dict:
    encoder, video = args[0], args[1]
    stream = getattr(encoder.tracer, "stream", None)
    return {
        "frames": len(video),
        "events": len(stream.events) if stream is not None else 0,
        "options": encoder.options,
        "loop_opts": encoder.loop_opts,
        "video": (video.name, video.resolution[0], video.resolution[1], len(video)),
    }


def _simulate_attrs(args, kwargs, result) -> dict:
    return {"events": len(args[1].events), "instructions": float(result.instructions)}


def _pool_attrs(args, kwargs, result) -> dict:
    from repro.experiments import parallel

    jobs = kwargs.get("jobs")
    n_jobs = parallel.default_jobs() if jobs is None else max(int(jobs), 1)
    tasks = len(args[1])
    return {"workers": min(n_jobs, tasks) if n_jobs > 1 and tasks > 1 else 1}


# ----------------------------------------------------------------------
# Untraced re-encodes, for trace.overhead_s.
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _clip(name: str, width: int, height: int, n_frames: int):
    from repro.video.vbench import load_video

    return load_video(name, width=width, height=height, n_frames=n_frames)


def untraced_encode_s(item: tuple) -> float:
    """Seconds for one untraced ``Encoder.encode`` of a recorded cell.

    Module-level so a spawned worker can run it; the clip is generated
    outside the timed region."""
    from repro.codec.encoder import Encoder

    options, loop_opts, video = item
    clip = _clip(*video)
    encoder = Encoder(options, loop_opts=loop_opts)
    t0 = time.perf_counter()
    encoder.encode(clip)
    return time.perf_counter() - t0


def reencode_untraced(items: list[tuple], workers: int) -> float:
    """Total untraced encode seconds over ``items``, with the same
    number of concurrent encoders the workload ran."""
    if workers <= 1:
        return sum(untraced_encode_s(item) for item in items)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return sum(pool.map(untraced_encode_s, items))


# ----------------------------------------------------------------------
# Folding spans into metrics.
# ----------------------------------------------------------------------

def _sum_s(spans, attr="self_ns") -> float:
    return sum(getattr(s, attr) for s in spans) / 1e9


def summarize(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics plus the ledger that closes them.

    The ledger counts slot-seconds: the main process over the whole
    workload call, plus, during each ``run_tasks`` window, every pool
    worker slot instead of the main process (which only waits there).
    ``unexplained_s`` is what the layer self times and pool idle time
    leave of those slot-seconds.
    """
    by = {name: [] for name in LAYER_OF}
    for span in spans:
        by[span.name].append(span)
    cells = by["runner.compute_point"]

    slot_s = wall_s
    pool_idle_s = 0.0
    pool_s = 0.0
    for rt in by["parallel.run_tasks"]:
        workers = rt.attrs.get("workers", 1)
        dur = rt.dur_ns / 1e9
        slot_s += (workers - 1) * dur
        pool_s += dur
        pool_idle_s += workers * dur - _sum_s(
            [c for c in cells if c.parent == rt.id], "dur_ns")

    encodes = by["Encoder.encode"]
    sims = by["Simulator.run"]
    execs = by["Worker.execute"]
    record_ns = sum(v[1] for s in spans for v in s.hot.values())
    encode_self_s = _sum_s(encodes)
    simulate_s = _sum_s(sims)
    frames = sum(s.attrs.get("frames", 0) for s in encodes)
    instructions = sum(s.attrs.get("instructions", 0.0) for s in sims)
    replay_ms = [s.dur_ns / 1e6 for s in execs]
    gets = by["ResultCache.get_value"]

    metrics = {
        "video.load_s": _sum_s(by["vbench.load_video"]),
        "video.loads": float(len(by["vbench.load_video"])),
        "experiments.publish_s": _sum_s(by["transport.publish_video"]),
        "experiments.pool_s": pool_s,
        "experiments.pool_idle_s": pool_idle_s,
        "experiments.cell_self_s": _sum_s(cells),
        "experiments.key_s": _sum_s(by["PointSpec.cache_key"]),
        "experiments.cache_get_s": _sum_s(gets),
        "experiments.cache_put_s": _sum_s(by["ResultCache.put_value"]),
        "experiments.cache_misses": float(sum(1 for s in gets if not s.attrs.get("hit"))),
        "experiments.cells": float(len(cells)),
        "codec.encode_s": encode_self_s,
        "codec.frames": float(frames),
        "codec.frames_per_s": frames / encode_self_s if encode_self_s else 0.0,
        "trace.record_s": record_ns / 1e9,
        "trace.events": float(sum(s.attrs.get("events", 0) for s in encodes)),
        "uarch.simulate_s": simulate_s,
        "uarch.calls": float(len(sims)),
        "uarch.events": float(sum(s.attrs.get("events", 0) for s in sims)),
        "uarch.minstr_per_s": instructions / 1e6 / simulate_s if simulate_s else 0.0,
        "service.replay_s": _sum_s(execs, "dur_ns"),
        "service.replay_self_s": _sum_s(execs),
        "service.replay_p50_ms": _quantile(replay_ms, 50),
        "service.replay_p90_ms": _quantile(replay_ms, 90),
        "service.place_s": _sum_s(by["Placement.place"]),
        "service.jobs_completed": float(sum(1 for s in execs if "error" not in s.attrs)),
        "ledger.wall_s": wall_s,
        "ledger.slot_s": slot_s,
    }
    explained = sum(metrics[name] for name in LEDGER_TERMS)
    metrics["unexplained_s"] = slot_s - explained
    return metrics


#: The metrics that, with ``unexplained_s``, add up to ``ledger.slot_s``.
LEDGER_TERMS = (
    "video.load_s",
    "experiments.publish_s",
    "experiments.pool_idle_s",
    "experiments.cell_self_s",
    "experiments.key_s",
    "experiments.cache_get_s",
    "experiments.cache_put_s",
    "codec.encode_s",
    "trace.record_s",
    "uarch.simulate_s",
    "service.replay_self_s",
    "service.place_s",
)


def _quantile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (0 with no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
