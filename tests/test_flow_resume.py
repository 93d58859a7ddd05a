"""Resume-equivalence tests for checkpointed flows.

Acceptance criterion: resuming ``CadFlow.run`` at any stage boundary — in
this process or a fresh one — produces a bitstream and a ``summary()`` that
are bit-identical to the straight-through run, for both circuit styles and
for the timing-driven option variant, and a resumed flow's stages audit
exactly like the straight-through run's.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.artifacts import STAGES, ArtifactStore, flow_artifact_key, stage_key
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.generate import recommended_fabric
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams, RoutingParams
from repro.verify.lint import lint_flow_artifacts

#: Two circuits per handshake style, small enough for a bounded runtime.
PER_STAGE_CIRCUITS = ("qdi_full_adder", "micropipeline_full_adder")
SPOT_CHECK_CIRCUITS = ("qdi_full_adder_1of4", "wchb_fifo_4")

REPO_ROOT = Path(__file__).resolve().parent.parent


def _architecture(name: str) -> ArchitectureParams:
    return recommended_fabric(build_circuit(name), slack=2)


def _fingerprint(result) -> tuple[str, str]:
    """The identity we require resumes to preserve, as comparable strings."""
    assert result.bitstream is not None
    return (
        result.bitstream.to_bytes().hex(),
        json.dumps(result.summary(), sort_keys=True, default=str),
    )


def _checkpoint_then_resume(name, store_dir, resume_points, **option_kwargs):
    """Run once with checkpoints, then resume at each point; return mismatches."""
    architecture = _architecture(name)
    options = FlowOptions(artifact_store=str(store_dir), **option_kwargs)
    circuit = build_circuit(name)
    baseline = _fingerprint(CadFlow(architecture, options).run(circuit))
    mismatches = []
    for resume_from in resume_points:
        resumed = CadFlow(architecture, options).run(
            build_circuit(name), resume_from=resume_from
        )
        if _fingerprint(resumed) != baseline:
            mismatches.append(resume_from)
    return mismatches


# ----------------------------------------------------------------------
# Per-stage and spot-check resume equivalence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PER_STAGE_CIRCUITS)
def test_resume_at_every_stage_is_bit_identical(name, tmp_path):
    points = list(STAGES) + ["auto"]
    assert _checkpoint_then_resume(name, tmp_path / "arts", points) == []


@pytest.mark.parametrize("name", SPOT_CHECK_CIRCUITS)
def test_resume_spot_checks_are_bit_identical(name, tmp_path):
    points = ["placement", "auto"]
    assert _checkpoint_then_resume(name, tmp_path / "arts", points) == []


def test_timing_driven_resume_is_bit_identical(tmp_path):
    points = ["packed", "placement", "routing", "auto"]
    mismatches = _checkpoint_then_resume(
        "qdi_full_adder", tmp_path / "arts", points, timing_driven=True
    )
    assert mismatches == []


def test_fallback_ladder_resume_is_bit_identical(tmp_path, caplog):
    # Seed 5 on 6x6/cw10 fails the timing-driven rung on the polished
    # placement and routes the baseline one, so the routed placement is not
    # the one the place stage produced.  Every resume point, from the
    # placement on, must still reproduce the straight-through run.
    architecture = ArchitectureParams(
        width=6, height=6, routing=RoutingParams(channel_width=10)
    )
    options = FlowOptions(
        artifact_store=str(tmp_path / "arts"), timing_driven=True, placement_seed=5
    )
    with caplog.at_level(logging.INFO, logger="repro.cad.flow"):
        straight = CadFlow(architecture, options).run(build_circuit("qdi_multiplier_2x2"))
    assert any(
        "timing-driven routing on the polished placement failed" in message
        for message in caplog.messages
    )
    baseline = _fingerprint(straight)
    mismatches = [
        resume_from
        for resume_from in ("placement", "routing", "timing", "bitstream", "auto")
        if _fingerprint(
            CadFlow(architecture, options).run(
                build_circuit("qdi_multiplier_2x2"), resume_from=resume_from
            )
        )
        != baseline
    ]
    assert mismatches == []


def test_verify_stages_resume_is_bit_identical(tmp_path):
    # lint_flow_artifacts audits the stages from the flow's artifacts alone,
    # so a resumed flow must audit exactly like the straight-through run.
    architecture = _architecture("qdi_full_adder")
    options = FlowOptions(artifact_store=str(tmp_path / "arts"))

    def audited(resume_from=None):
        circuit = build_circuit("qdi_full_adder")
        flow = CadFlow(architecture, options)
        result = flow.run(circuit, resume_from=resume_from)
        return _fingerprint(result), lint_flow_artifacts(result, flow, styled=circuit).to_json()

    baseline = audited()
    assert (baseline[1]["errors"], baseline[1]["warnings"]) == (0, 0)
    mismatches = [
        resume_from
        for resume_from in ("placement", "routing", "auto")
        if audited(resume_from) != baseline
    ]
    assert mismatches == []


def test_partial_checkpoint_resumes_with_recomputation(tmp_path):
    """A shallow stored prefix still resumes; deeper stages recompute."""
    architecture = _architecture("qdi_full_adder")
    options = FlowOptions(artifact_store=str(tmp_path / "arts"))
    baseline = _fingerprint(CadFlow(architecture, options).run(build_circuit("qdi_full_adder")))
    store = ArtifactStore(options.artifact_store)
    flow_key = flow_artifact_key("qdi_full_adder", architecture, options)
    deeper = [
        store.path_for(stage_key(flow_key, stage))
        for stage in ("routing", "timing", "bitstream")
    ]
    for path in deeper:
        path.unlink()
    resumed = CadFlow(architecture, options).run(
        build_circuit("qdi_full_adder"), resume_from="auto"
    )
    assert _fingerprint(resumed) == baseline
    assert all(path.exists() for path in deeper)  # recomputed and checkpointed


# ----------------------------------------------------------------------
# Fresh-process resume
# ----------------------------------------------------------------------
_RESUME_SCRIPT = """
import json, sys
from repro.cad.flow import CadFlow, FlowOptions
from repro.circuits.registry import build_circuit
from repro.core.params import ArchitectureParams

config = json.load(sys.stdin)
architecture = ArchitectureParams.from_dict(config["architecture"])
options = FlowOptions(**config["options"])
result = CadFlow(architecture, options).run(
    build_circuit(config["circuit"]), resume_from=config["resume_from"]
)
print(json.dumps({
    "bitstream": result.bitstream.to_bytes().hex(),
    "summary": json.dumps(result.summary(), sort_keys=True, default=str),
}))
"""


def _resume_in_fresh_process(architecture, options, circuit, resume_from):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    config = {
        "architecture": architecture.to_dict(),
        "options": {
            "artifact_store": options.artifact_store,
            "timing_driven": options.timing_driven,
        },
        "circuit": circuit,
        "resume_from": resume_from,
    }
    proc = subprocess.run(
        [sys.executable, "-c", _RESUME_SCRIPT],
        input=json.dumps(config),
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    return (payload["bitstream"], payload["summary"])


@pytest.mark.parametrize("timing_driven", [False, True])
def test_fresh_process_resume_is_bit_identical(timing_driven, tmp_path):
    name = "qdi_full_adder"
    architecture = _architecture(name)
    options = FlowOptions(
        artifact_store=str(tmp_path / "arts"), timing_driven=timing_driven
    )
    baseline = _fingerprint(CadFlow(architecture, options).run(build_circuit(name)))
    for resume_from in ("routing", "auto"):
        resumed = _resume_in_fresh_process(architecture, options, name, resume_from)
        assert resumed == baseline


def test_resume_auto_on_empty_store_runs_straight_through(tmp_path):
    architecture = _architecture("qdi_full_adder")
    plain = _fingerprint(
        CadFlow(architecture, FlowOptions()).run(build_circuit("qdi_full_adder"))
    )
    options = FlowOptions(artifact_store=str(tmp_path / "arts"))
    fresh = _fingerprint(
        CadFlow(architecture, options).run(build_circuit("qdi_full_adder"), resume_from="auto")
    )
    assert fresh == plain
