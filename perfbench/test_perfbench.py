"""Tests of the benchmark itself: every workload at toy size, and each
correctness check against a deliberately corrupted session.

Run from the root of the repository with ``python -m pytest perfbench``.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import run

run.import_program()

import checks  # noqa: E402  (needs the program on the path)
import spans  # noqa: E402
import workloads  # noqa: E402
from pppca.messages import Transcript  # noqa: E402
from pppca.protocol import run_session  # noqa: E402


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "trace"])
@pytest.mark.parametrize("name", sorted(workloads.SMOKE))
def test_smoke_workload(name, trace):
    outcome, detail = run.run_workload(workloads.SMOKE[name], seed=5, seconds=0, trace=trace)
    assert outcome["correct"] and outcome["attempted"] == 1 and outcome["failed"] == 0
    metrics = outcome["metrics"]
    if trace:
        want = [m[0] for m in spans.LAYER_METRICS + spans.RUN_METRICS]
        assert list(metrics) == want
        assert metrics["transport.frames_sent"]["value"] == detail["sessions"][0]["messages"]
        assert metrics["transport.bytes_sent"]["value"] == detail["sessions"][0]["wire_bytes"]
        assert 50 < metrics["trace.role_cpu_covered"]["value"] <= 100
    else:
        assert list(metrics) == list(run.END_TO_END_UNITS)
        assert all(m["value"] > 0 for m in metrics.values())


def test_benchmark_json_lists_the_metrics_a_run_prints():
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in listed["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in listed["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS + spans.RUN_METRICS
    ]


def test_tracer_restores_the_program():
    import pppca.protocol as protocol
    import pppca.transport as transport

    before = (protocol.share_matrix, transport.TcpEndpoint.send)
    with spans.Tracer():
        assert protocol.share_matrix is not before[0]
        assert "recv" in vars(transport.TcpEndpoint)
    assert (protocol.share_matrix, transport.TcpEndpoint.send) == before
    assert "recv" not in vars(transport.TcpEndpoint)


@pytest.fixture(scope="module", params=["he-wine", "ss-wide"])
def session(request):
    w = workloads.SMOKE[request.param]
    inputs = workloads.make_inputs(w, seed=9)
    cfg = w.config(session_seed=1)
    return run_session(cfg, inputs.blocks, transport="tcp"), inputs, cfg


def test_checks_accept_the_session(session):
    result, inputs, cfg = session
    _, findings = checks.check_session(result, inputs, cfg)
    assert findings == []


def test_rotated_transfer_is_rejected(session):
    result, inputs, cfg = session
    # Turn the first principal direction 1e-3 rad towards the (k+1)-th.
    eigvecs = np.linalg.eigh(inputs.cov)[1][:, ::-1]
    t = result.transfer.copy()
    t[:, 0] = math.cos(1e-3) * t[:, 0] + math.sin(1e-3) * eigvecs[:, cfg.k]
    rotated = dataclasses.replace(result, transfer=t)
    angle, findings = checks.check_subspace(rotated, inputs, cfg)
    assert angle > 5e-4 and findings
    assert checks.check_reduced(rotated, inputs)


def test_dropped_frame_is_rejected(session):
    result, _, cfg = session
    kept = Transcript()
    for msg in result.transcript.entries()[1:]:
        kept.append(msg)
    findings = checks.check_frames(dataclasses.replace(result, transcript=kept), cfg)
    assert any(f.startswith("SAMPLE_COUNT") for f in findings)
    assert any(f.startswith("step order") for f in findings)


def test_perturbed_covariance_is_rejected(session):
    result, inputs, cfg = session
    cov = result.covariance.copy()
    cov[0, 1] += 1e-4 * np.abs(cov).max()
    findings = checks.check_moments(dataclasses.replace(result, covariance=cov), inputs, cfg)
    assert findings and findings[0].startswith("covariance[0,1]")
