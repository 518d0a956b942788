"""The batched data-side caches change no simulator output.

Replays the golden-trend traces (cricket and desktop at the frozen
golden scale, plus one trace recorded with ``sample=2`` so events carry
weight 2) on all five Table IV configurations, including ``be_op1``
with its L4. Every :class:`~repro.uarch.simulator.SimReport` field must
be exactly equal (``==``, not approximately) to a run whose data side
goes through the per-access list-LRU oracle instead.
"""

from __future__ import annotations

import pytest

from repro.codec.encoder import Encoder
from repro.codec.options import EncoderOptions
from repro.trace.kernels import build_program
from repro.trace.recorder import RecordingTracer
from repro.uarch import simulator as simulator_module
from repro.uarch.configs import CONFIGS
from repro.uarch.simulator import simulate
from repro.video.vbench import load_video
from tests.integration.test_golden_trends import GOLDEN_SCALE
from tests.lru_oracle import OracleHierarchy

TRACES = [(video, 1) for video in GOLDEN_SCALE.videos] + [("cricket", 2)]


@pytest.fixture(scope="module", params=TRACES, ids=lambda t: f"{t[0]}-sample{t[1]}")
def trace(request):
    video, sample = request.param
    clip = load_video(
        video,
        width=GOLDEN_SCALE.width,
        height=GOLDEN_SCALE.height,
        n_frames=GOLDEN_SCALE.n_frames,
    )
    program = build_program()
    tracer = RecordingTracer(program, sample=sample)
    Encoder(EncoderOptions(crf=23, refs=2), tracer=tracer).encode(clip)
    return tracer.stream, program


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_sim_report_identical_to_list_lru_oracle(trace, config_name, monkeypatch):
    stream, program = trace
    config = CONFIGS[config_name].with_updates(
        data_capacity_scale=GOLDEN_SCALE.data_capacity_scale
    )
    batched = simulate(stream, program, config)
    monkeypatch.setattr(simulator_module, "CacheHierarchy", OracleHierarchy)
    oracle = simulate(stream, program, config)
    assert batched == oracle
    assert repr(batched) == repr(oracle)
