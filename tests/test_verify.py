"""Tests for the rule-based static verifier (``repro.verify``).

Four groups:

* **Mutation harness** — every registered rule must fire on the seeded
  mutant built for it by :mod:`repro.verify.mutate`, and the injected
  defect must not leak into rules of a *different* tier.
* **Clean runs** — every registry circuit (including the ``gen:`` ladder
  specs the registry registers) lints clean on the netlist tier, and
  representative circuits lint clean across all three tiers with
  ``stages=True``.
* **Reporters** — the JSON schema of :meth:`LintReport.to_json` is stable.
* **CLI** — ``repro-lint`` exit codes: 0 clean, 1 findings, 2 usage error.

The structural loop finding is covered here too (it names the cycle path).
"""

import json

import pytest

from repro.circuits.registry import build_circuit, circuit_registry
from repro.verify import (
    LintConfig,
    lint_circuit,
    rule_registry,
    run_rules,
)
from repro.verify.cli import main as lint_main
from repro.verify.mutate import MUTATORS

ALL_RULE_CODES = sorted(rule_registry())
ALL_CIRCUITS = sorted(circuit_registry())


# ----------------------------------------------------------------------
# Rule registry sanity
# ----------------------------------------------------------------------
def test_registry_codes_are_stable_and_described():
    registry = rule_registry()
    assert set(registry) == {
        "NET001", "NET002", "NET003", "NET004", "NET005", "NET006",
        "NET007", "NET008",
        "QDI001", "QDI002", "QDI003", "QDI004",
        "MP001",
        "STG001", "STG002", "STG003", "STG004", "STG005", "STG006", "STG007",
        "BIT001", "BIT002", "BIT003", "BIT004",
    }
    names = set()
    for code, rule in registry.items():
        assert rule.code == code
        assert rule.name and rule.name not in names  # kebab names unique too
        names.add(rule.name)
        assert rule.tier in ("netlist", "stage", "bitstream")
        assert rule.severity in ("error", "warning")
        assert rule.description


def test_every_rule_has_a_mutator_and_vice_versa():
    assert set(MUTATORS) == set(rule_registry())


# ----------------------------------------------------------------------
# Mutation harness: each rule fires on its seeded defect
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(MUTATORS))
def test_rule_fires_on_its_mutant(code):
    rule = rule_registry()[code]
    report = run_rules(MUTATORS[code]())
    assert code in report.codes(), (
        f"{code} did not fire on its mutant; fired: {sorted(report.codes())}"
    )
    for finding in report.findings_for(code):
        assert finding.severity == rule.severity
        assert finding.tier == rule.tier
    # One injected defect may trip sibling rules of the same tier, but must
    # not leak across tiers (that would mean the mutant corrupted more than
    # the artifact class under test).
    assert report.tiers_fired() <= {rule.tier}, (
        f"mutant for {code} leaked into other tiers: "
        f"{sorted(f.rule for f in report.findings)}"
    )


def test_im_config_fires_when_two_routed_nets_swap_pins():
    # The PLB still receives the same set of nets, but two of them arrive on
    # each other's pins, so the IM would feed each LE input the wrong net.
    from dataclasses import replace

    from repro.verify.mutate import _flow_context

    context = _flow_context()
    assignments = context.routing.pin_assignments
    sinks_by_plb: dict[str, list[int]] = {}
    for index, assignment in enumerate(assignments):
        if not assignment.is_driver:
            sinks_by_plb.setdefault(assignment.block, []).append(index)
    first, second = next(
        indices[:2]
        for plb, indices in sinks_by_plb.items()
        if plb in context.configured_plbs and len(indices) >= 2
    )
    a, b = assignments[first], assignments[second]
    assignments[first] = replace(a, pin=b.pin, node_id=b.node_id)
    assignments[second] = replace(b, pin=a.pin, node_id=a.node_id)
    report = run_rules(context)
    assert report.codes() == {"BIT004"}
    (finding,) = report.findings_for("BIT004")
    assert f"{a.net} routed to {b.pin}, bound to {a.pin}" in finding.message


def test_mutant_findings_are_suppressible():
    report = run_rules(
        MUTATORS["NET005"](), LintConfig(suppressed=frozenset({"NET005"}))
    )
    assert "NET005" not in report.codes()
    assert "NET005" not in report.rules_run


def test_enable_restricts_to_named_rules():
    context = MUTATORS["NET001"]()
    report = run_rules(context, LintConfig(enabled=frozenset({"undriven-net"})))
    assert report.rules_run == ["NET001"]
    assert report.codes() == {"NET001"}


def test_dangling_net_findings_are_warnings():
    context = MUTATORS["NET002"]()
    dangling = run_rules(context).findings_for("NET002")
    assert dangling and all(f.severity == "warning" for f in dangling)


# ----------------------------------------------------------------------
# Clean runs: the verifier holds on everything the repo builds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_CIRCUITS)
def test_registry_circuit_lints_clean(name):
    report = lint_circuit(name)
    assert report.error_count == 0, report.render_text()
    assert report.warning_count == 0, report.render_text()
    assert report.rules_run  # at least the netlist tier ran


@pytest.mark.parametrize("spec", ["gen:crc4@qdi", "gen:alu2@micropipeline"])
def test_generated_spec_lints_clean(spec):
    report = lint_circuit(spec)
    assert report.error_count == 0, report.render_text()
    assert report.warning_count == 0, report.render_text()


@pytest.mark.parametrize("name", ["qdi_full_adder", "micropipeline_full_adder"])
def test_stage_and_bitstream_tiers_clean(name):
    report = lint_circuit(name, stages=True)
    assert report.error_count == 0, report.render_text()
    assert report.warning_count == 0, report.render_text()
    # The full flow makes all three tiers run.
    run = set(report.rules_run)
    assert {"STG001", "STG005", "STG006", "STG007", "BIT001", "BIT002"} <= run
    assert "NET001" in run


def test_lint_accepts_circuit_objects_and_rejects_junk():
    styled = build_circuit("qdi_full_adder")
    report = lint_circuit(styled)
    assert report.name == styled.name
    assert report.error_count == 0
    with pytest.raises(TypeError):
        lint_circuit(object())


# ----------------------------------------------------------------------
# JSON reporter schema
# ----------------------------------------------------------------------
def test_report_json_schema():
    report = run_rules(MUTATORS["NET005"]())
    blob = report.to_json()
    assert set(blob) == {"name", "errors", "warnings", "rules_run", "findings"}
    assert blob["errors"] == report.error_count
    assert blob["warnings"] == report.warning_count
    assert blob["rules_run"] == report.rules_run
    assert blob["findings"], "mutant report must carry findings"
    for finding in blob["findings"]:
        assert set(finding) == {
            "rule", "name", "severity", "tier", "message", "location",
        }
        assert all(isinstance(value, str) for value in finding.values())
    json.dumps(blob)  # must be serialisable as-is


def test_clean_report_json_is_empty_but_lists_rules():
    blob = lint_circuit("qdi_full_adder").to_json()
    assert blob["errors"] == 0 and blob["warnings"] == 0
    assert blob["findings"] == []
    assert "NET001" in blob["rules_run"]


# ----------------------------------------------------------------------
# CLI exit codes and reporters
# ----------------------------------------------------------------------
def test_cli_exit_0_on_clean_circuit(capsys):
    assert lint_main(["qdi_full_adder"]) == 0
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_cli_exit_1_on_findings():
    # A fanout bound of 1 makes NET008 fire on every multi-sink net;
    # warnings only fail the run under --strict.
    assert lint_main(["qdi_full_adder", "--fanout-limit", "1"]) == 0
    assert lint_main(["qdi_full_adder", "--fanout-limit", "1", "--strict"]) == 1


def test_cli_exit_2_on_usage_errors(capsys):
    assert lint_main(["no_such_circuit"]) == 2
    assert lint_main([]) == 2
    assert lint_main(["qdi_full_adder", "--enable", "NOPE999"]) == 2
    err = capsys.readouterr().err
    assert "no_such_circuit" in err
    assert "NOPE999" in err


def test_cli_json_report(tmp_path, capsys):
    path = tmp_path / "lint.json"
    assert lint_main(["qdi_full_adder", "wchb_fifo_4", "--json", str(path)]) == 0
    capsys.readouterr()
    envelope = json.loads(path.read_text(encoding="utf-8"))
    assert set(envelope) == {"format", "stages", "errors", "warnings", "reports"}
    assert envelope["format"] == 1
    assert envelope["stages"] is False
    assert envelope["errors"] == 0
    assert [report["name"] for report in envelope["reports"]] == [
        "qdi_full_adder",
        "wchb_fifo_4",
    ]


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_RULE_CODES:
        assert code in out


def test_cli_suppress_silences_rule(capsys):
    code = lint_main(
        ["qdi_full_adder", "--fanout-limit", "1", "--strict",
         "--suppress", "isochronic-fork"]
    )
    capsys.readouterr()
    assert code == 0


# ----------------------------------------------------------------------
# The structural loop finding names its cycle
# ----------------------------------------------------------------------
def test_combinational_loop_names_its_cycle_path():
    loops = run_rules(MUTATORS["NET005"]()).findings_for("NET005")
    assert loops and loops[0].name == "combinational-loop"
    # The loop finding names the actual cycle path, not just a cell set.
    assert " -> " in loops[0].message
    assert "mut_l1" in loops[0].message and "mut_l2" in loops[0].message


# ----------------------------------------------------------------------
# Auditing an executed flow: lint_flow_artifacts
# ----------------------------------------------------------------------
def test_lint_flow_artifacts_audits_a_clean_flow():
    from repro.cad.flow import CadFlow
    from repro.circuits.generate import recommended_fabric
    from repro.verify.lint import lint_flow_artifacts

    circuit = build_circuit("qdi_full_adder")
    architecture = recommended_fabric(circuit, slack=2)
    flow = CadFlow(architecture)
    result = flow.run(circuit)
    report = lint_flow_artifacts(result, flow, styled=circuit)
    assert report.findings == []
    # The audit runs beside the flow: it adds nothing to the summary.
    assert not [key for key in result.summary() if key.startswith("lint_")]


# ----------------------------------------------------------------------
# repro-lint --artifacts: auditing stored stage artifacts
# ----------------------------------------------------------------------
def _checkpointed_store(tmp_path):
    from repro.cad.flow import CadFlow, FlowOptions
    from repro.circuits.generate import recommended_fabric

    circuit = build_circuit("qdi_full_adder")
    architecture = recommended_fabric(circuit, slack=2)
    store_dir = tmp_path / "arts"
    options = FlowOptions(artifact_store=str(store_dir))
    CadFlow(architecture, options).run(circuit)
    return store_dir


def test_cli_artifacts_exit_0_on_clean_store(tmp_path, capsys):
    store_dir = _checkpointed_store(tmp_path)
    report_path = tmp_path / "report.json"
    assert lint_main(["--artifacts", str(store_dir), "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "qdi_full_adder" in out
    document = json.loads(report_path.read_text(encoding="utf-8"))
    (report,) = document["reports"]
    # The stage and bitstream tiers must actually run on the stored flow.
    for code in ("STG001", "STG007", "BIT001", "BIT004"):
        assert code in report["rules_run"]
    assert report["findings"] == []

    # Positional names filter the stored flows.
    assert lint_main(["--artifacts", str(store_dir), "qdi_full_adder"]) == 0
    capsys.readouterr()


def test_cli_artifacts_exit_2_on_usage_errors(tmp_path, capsys):
    missing = tmp_path / "no-such-store"
    assert lint_main(["--artifacts", str(missing)]) == 2
    assert not missing.exists()
    capsys.readouterr()

    store_dir = _checkpointed_store(tmp_path)
    assert lint_main(["--artifacts", str(store_dir), "wchb_fifo_4"]) == 2
    assert "no stored artifacts" in capsys.readouterr().err

    # An existing but artifact-free store has nothing to audit.
    from repro.artifacts import ArtifactStore

    empty = tmp_path / "empty"
    ArtifactStore(empty)
    assert lint_main(["--artifacts", str(empty)]) == 2
    assert "holds no flows" in capsys.readouterr().err
