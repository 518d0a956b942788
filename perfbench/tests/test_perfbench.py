"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import ledger as ledger_mod  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_name_is_well_formed_and_has_a_unit():
    spec = _benchmark_json()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"], metric
    for name, (unit, better) in {**run.PER_LAYER, **run.END_TO_END}.items():
        assert NAME.fullmatch(name) and unit, name
        assert better in ("higher", "lower"), name


def test_benchmark_json_lists_exactly_the_metrics_the_harness_reports():
    spec = _benchmark_json()
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_goldens_cover_every_shipped_seed():
    goldens = workloads.load_goldens()
    for workload in workloads.NAMES:
        for seed in range(workloads.SHIPPED_SEEDS):
            assert goldens[workload][workloads.input_id(workload, seed)]


def _record(workload: str, seed: int) -> dict:
    """A record whose items match the committed goldens exactly."""
    input_id = workloads.input_id(workload, seed)
    golden = workloads.load_goldens()[workload][input_id]
    ops = 101 if workload == "service-replay" else 1
    return {
        "workload": workload,
        "input": input_id,
        "items": {k: {"digest": d, "ops": ops, "failed": 0}
                  for k, d in golden.items()},
    }


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tampered_golden_is_reported_as_a_failure(workload):
    record = _record(workload, 3)
    goldens = workloads.load_goldens()
    attempted, failed = run.score(record, goldens)
    assert attempted > 0 and failed == 0

    tampered = json.loads(json.dumps(goldens))
    cell = sorted(tampered[workload][record["input"]])[0]
    tampered[workload][record["input"]][cell] = "0" * 20
    attempted2, failed2 = run.score(record, tampered)
    assert attempted2 == attempted
    assert failed2 == record["items"][cell]["ops"]


def test_missing_output_counts_as_failed():
    record = _record("fig7-cold", 0)
    record["items"].pop(sorted(record["items"])[0])
    assert run.score(record, workloads.load_goldens())[1] == 1


def test_clean_env_drops_every_listed_repro_variable(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "reference")
    monkeypatch.setenv("REPRO_RETRY_MAX_ATTEMPTS", "9")
    monkeypatch.setenv("REPRO_SHM", "0")
    env = run.clean_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == os.environ["PATH"]


def test_traced_ledger_closes_with_unexplained_reported(tmp_path):
    """A two-cell parallel sweep under the ledger: worker spans reach the
    report, every cell is a cache miss, and the layer self times plus
    pool idle plus ``unexplained_s`` add up to the slot-seconds."""
    import time

    from repro import api
    from repro.experiments.runner import QUICK

    scale = QUICK.with_updates(
        name="perfbench-selftest", width=32, height=32, n_frames=2,
        crf_values=(23,), refs_values=(1, 2),
    )
    ledger = ledger_mod.Ledger(tmp_path / "spool")
    ledger.install()
    try:
        t0 = time.perf_counter()
        api.sweep("fig3", scale,
                  settings=api.Settings(jobs=2, cache_dir=tmp_path / "cache"))
        wall_s = time.perf_counter() - t0
    finally:
        ledger.uninstall()
    spans = ledger.spans()
    assert {s.pid for s in spans if s.name == "runner.compute_point"} \
        - {ledger.main_pid}, "no spans came back from pool workers"
    metrics = ledger_mod.summarize(spans, wall_s)

    assert metrics["experiments.cells"] == 2
    assert metrics["experiments.cache_misses"] == 2
    assert metrics["uarch.calls"] == 2 and metrics["codec.frames"] == 4
    assert metrics["trace.record_s"] > 0 and metrics["trace.events"] > 0
    explained = sum(metrics[n] for n in ledger_mod.LEDGER_TERMS)
    assert explained + metrics["unexplained_s"] == pytest.approx(metrics["ledger.slot_s"])
    assert abs(metrics["unexplained_s"]) < 0.5 * metrics["ledger.slot_s"]


def test_uninstall_restores_every_boundary(tmp_path):
    from repro.codec.encoder import Encoder
    from repro.experiments import runner
    from repro.video import vbench

    before = (Encoder.encode, runner.compute_point, vbench.load_video,
              runner.load_video)
    ledger = ledger_mod.Ledger(tmp_path)
    ledger.install()
    assert Encoder.encode is not before[0]
    ledger.uninstall()
    assert (Encoder.encode, runner.compute_point, vbench.load_video,
            runner.load_video) == before
