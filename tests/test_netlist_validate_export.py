"""Tests for netlist validation and the Verilog / DOT exporters."""

from repro.netlist.builder import NetlistBuilder
from repro.netlist.netlist import Netlist, PortDirection
from repro.netlist.verilog import library_stub, to_verilog
from repro.netlist.dot import to_dot
from repro.verify.core import LintConfig, LintContext, LintReport, run_rules

#: The structural rules (undriven, dangling, undriven output, unused input,
#: combinational loop).
STRUCTURAL = LintConfig(enabled=frozenset({"NET001", "NET002", "NET003", "NET004", "NET005"}))


def _validate(netlist: Netlist) -> LintReport:
    return run_rules(LintContext(name=netlist.name, netlist=netlist), STRUCTURAL)


def _good_netlist() -> Netlist:
    builder = NetlistBuilder("good")
    a, b = builder.inputs("a", "b")
    builder.c2(a, b, out="z")
    builder.output("z")
    return builder.build()


def test_validate_clean_netlist():
    assert _validate(_good_netlist()).ok


def test_validate_undriven_net():
    netlist = Netlist("bad")
    netlist.add_port("o", PortDirection.OUTPUT)
    netlist.add_cell("g", "INV", {"a": "floating", "z": "o"})
    report = _validate(netlist)
    assert not report.ok
    assert any(finding.name == "undriven-net" for finding in report.findings)


def test_validate_undriven_output():
    netlist = Netlist("bad2")
    netlist.add_port("o", PortDirection.OUTPUT)
    report = _validate(netlist)
    assert any(finding.name == "undriven-output" for finding in report.findings)


def test_validate_unused_input_warning():
    netlist = Netlist("warn")
    netlist.add_port("i", PortDirection.INPUT)
    report = _validate(netlist)
    assert any(
        finding.name == "unused-input" and finding.severity == "warning"
        for finding in report.findings
    )
    assert report.ok


def test_validate_dangling_net_warning():
    builder = NetlistBuilder("dangle")
    a = builder.input("a")
    builder.inv(a)  # output net read by nothing
    report = _validate(builder.build())
    assert any(finding.name == "dangling-net" for finding in report.findings)
    assert report.ok


def test_validate_combinational_loop():
    netlist = Netlist("loop")
    netlist.add_port("i", PortDirection.INPUT)
    netlist.add_cell("g1", "AND2", {"a0": "i", "a1": "w2", "z": "w1"})
    netlist.add_cell("g2", "BUF", {"a": "w1", "z": "w2"})
    report = _validate(netlist)
    assert any(finding.name == "combinational-loop" for finding in report.findings)
    assert not report.ok


def test_validate_sequential_loop_ok():
    report = _validate(_good_netlist())
    assert not any(finding.name == "combinational-loop" for finding in report.findings)


def test_verilog_export_structure():
    text = to_verilog(_good_netlist())
    assert "module good" in text
    assert "input a;" in text
    assert "output z;" in text
    assert "C2" in text
    assert text.strip().endswith("endmodule")


def test_verilog_escaping():
    builder = NetlistBuilder("esc")
    a = builder.input("a.0[1]")
    builder.inv(a, out="z")
    builder.output("z")
    text = to_verilog(builder.build())
    assert "\\a.0[1]" in text


def test_library_stub_lists_used_cells():
    text = library_stub(_good_netlist())
    assert "module C2" in text


def test_dot_export():
    text = to_dot(_good_netlist())
    assert text.startswith("digraph")
    assert '"pi_a"' in text
    assert '"po_z"' in text
    assert "->" in text
    no_labels = to_dot(_good_netlist(), include_net_labels=False)
    # Edges carry no label when include_net_labels is off.
    edge_lines = [line for line in no_labels.splitlines() if "->" in line]
    assert edge_lines and all("label" not in line for line in edge_lines)
