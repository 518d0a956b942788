"""Result-cache keys are bound to the source that computes a cell.

The key embeds a fingerprint of the result-determining packages, so a
one-byte simulator edit must invalidate every cached cell, while edits
to telemetry, the CLI or the service must leave every key unchanged.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

import repro
from repro.experiments import cache as cache_mod
from repro.experiments.runner import QUICK, SweepRunner


@pytest.fixture
def source_copy(tmp_path) -> Path:
    root = tmp_path / "repro"
    shutil.copytree(
        Path(repro.__file__).parent, root,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return root


def _cell_keys(monkeypatch, root: Path | None = None) -> list[str]:
    if root is not None:
        fingerprint = cache_mod.source_fingerprint(root)
        monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: fingerprint)
    runner = SweepRunner(QUICK, cache=False)
    return [
        runner._spec(QUICK.sweep_video, crf=crf, refs=refs).cache_key()
        for crf in QUICK.crf_values
        for refs in QUICK.refs_values
    ]


def _edit(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path}"
    path.write_text(text.replace(old, new, 1))


def test_fingerprint_is_computed_once_per_process():
    assert cache_mod.code_fingerprint() is cache_mod.code_fingerprint()
    assert cache_mod.code_fingerprint() == cache_mod.source_fingerprint()


def test_unedited_copy_gives_the_same_keys(monkeypatch, source_copy):
    baseline = _cell_keys(monkeypatch)
    assert len(set(baseline)) == len(QUICK.crf_values) * len(QUICK.refs_values)
    assert _cell_keys(monkeypatch, source_copy) == baseline


def test_one_uarch_byte_changes_every_cell_key(monkeypatch, source_copy):
    baseline = _cell_keys(monkeypatch)
    _edit(source_copy / "uarch" / "config.py",
          "mem_latency: int = 160", "mem_latency: int = 161")
    edited = _cell_keys(monkeypatch, source_copy)
    assert all(a != b for a, b in zip(baseline, edited))


@pytest.mark.parametrize(
    "relpath", ["obs/session.py", "cli.py", "service/service.py"]
)
def test_obs_cli_and_service_edits_change_no_key(
    monkeypatch, source_copy, relpath
):
    baseline = _cell_keys(monkeypatch)
    path = source_copy / relpath
    path.write_text(path.read_text() + "\n# edited\n")
    assert _cell_keys(monkeypatch, source_copy) == baseline
