"""``repro-lint``: rule-based static verification of netlists and flow artifacts.

The package is organised as a small static-analysis engine plus three rule
tiers:

* :mod:`repro.verify.core` -- the engine: :class:`Finding` records with
  stable rule codes, the :class:`LintRule` protocol, per-rule
  enable/suppress via :class:`LintConfig`, and the :class:`LintReport`
  text/JSON reporters;
* :mod:`repro.verify.netlist_rules` -- the **netlist tier** (``NET*``,
  ``QDI*``, ``MP*``): the structural checks (undriven and dangling nets,
  combinational loops, ...) plus the paper-specific asynchronous
  invariants (dual-rail coherence, completion coverage, acknowledge
  reachability, isochronic forks, hazard-prone gates, matched delays);
* :mod:`repro.verify.invariants` -- the **stage tier** (``STG*``): the
  per-stage artifact checks shared with ``repro-fuzz`` (mapping, packing,
  placement, routing, timing);
* :mod:`repro.verify.bitaudit` -- the **bitstream tier** (``BIT*``): decode
  a :class:`~repro.core.bitstream.Bitstream` and cross-check LUT contents,
  PDE taps and IM routes against the packed design and the routed trees,
  without simulating anything.

:mod:`repro.verify.lint` orchestrates the tiers over circuits and flow
results; :mod:`repro.verify.cli` exposes everything as the ``repro-lint``
console script; :mod:`repro.verify.mutate` is the seeded-mutation harness
proving every rule fires on the defect class it exists for.
"""

from __future__ import annotations

from repro.verify.core import (
    Finding,
    LintConfig,
    LintContext,
    LintReport,
    LintRule,
    rule_registry,
    run_rules,
)
from repro.verify.lint import lint_circuit, lint_flow_artifacts

__all__ = [
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "LintRule",
    "lint_circuit",
    "lint_flow_artifacts",
    "rule_registry",
    "run_rules",
]
