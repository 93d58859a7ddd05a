"""The lint engine: findings, rules, configuration and reports.

Design notes
------------

* Every rule has a **stable code** (``NET005``, ``STG006``, ``BIT002``...)
  and a human-oriented kebab name (``combinational-loop``).  Codes never
  change meaning once shipped; suppressions and enables accept either form.
* Rules are cheap, side-effect-free objects registered at import time.  A
  rule declares which :class:`LintContext` artifacts it ``requires``; the
  runner silently skips rules whose inputs are absent (a netlist-only lint
  run does not "fail" the routing rules -- it never runs them).
* Severities are ``"error"`` and ``"warning"``.  The CLI reports both, but
  only errors are fatal by default: the paper's structural warnings
  (isochronic forks, dangling diagnostic nets) are expected on real
  circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.cad.bitgen import ConfiguredPLB
    from repro.cad.lemap import MappedDesign
    from repro.cad.place import Placement
    from repro.cad.route import RoutingResult
    from repro.cad.timing import TimingReport
    from repro.core.bitstream import Bitstream
    from repro.core.fabric import Fabric
    from repro.core.params import ArchitectureParams
    from repro.core.rrgraph import RoutingResourceGraph
    from repro.netlist.netlist import Netlist
    from repro.styles.base import StyledCircuit

ERROR = "error"
WARNING = "warning"

#: The three rule tiers, in reporting order.
TIERS: tuple[str, ...] = ("netlist", "stage", "bitstream")


@dataclass(frozen=True)
class Finding:
    """One lint finding: a rule that did not hold at one location."""

    rule: str  # stable code, e.g. "NET001"
    name: str  # kebab-case rule name, e.g. "undriven-net"
    severity: str  # "error" or "warning"
    tier: str  # "netlist", "stage" or "bitstream"
    message: str
    location: str = ""  # e.g. "net 's_t'", "cell u3", "plb_2_1"

    def __str__(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.rule} {self.severity}: {self.message}{where}"

    def to_dict(self) -> dict[str, str]:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "tier": self.tier,
            "message": self.message,
            "location": self.location,
        }


@dataclass
class LintContext:
    """Everything a lint run may inspect.

    All artifact fields are optional; each rule declares what it needs via
    :attr:`LintRule.requires` and is skipped when an input is missing.
    """

    name: str = ""
    netlist: "Netlist | None" = None
    styled: "StyledCircuit | None" = None
    mapped: "MappedDesign | None" = None
    architecture: "ArchitectureParams | None" = None
    fabric: "Fabric | None" = None
    placement: "Placement | None" = None
    graph: "RoutingResourceGraph | None" = None
    routing: "RoutingResult | None" = None
    timing: "TimingReport | None" = None
    bitstream: "Bitstream | None" = None
    configured_plbs: "dict[str, ConfiguredPLB] | None" = None

    def has(self, attribute: str) -> bool:
        return getattr(self, attribute, None) is not None


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection and tuning knobs.

    ``enabled`` restricts the run to the listed rules (``None`` = all);
    ``suppressed`` removes rules from whatever is enabled.  Both accept
    stable codes (``"NET008"``) and kebab names (``"isochronic-fork"``).
    """

    enabled: frozenset[str] | None = None
    suppressed: frozenset[str] = frozenset()
    #: Fanout bound of the isochronic-fork heuristic (NET008).
    isochronic_fanout_limit: int = 8

    def selects(self, rule: "LintRule") -> bool:
        keys = {rule.code, rule.name}
        if self.enabled is not None and not (keys & set(self.enabled)):
            return False
        return not (keys & set(self.suppressed))


class LintRule:
    """Base class of every lint rule.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields :class:`Finding` records (typically via :meth:`finding`).
    """

    code: str = ""
    name: str = ""
    tier: str = "netlist"
    severity: str = ERROR
    description: str = ""
    #: LintContext attributes that must be non-None for the rule to run.
    requires: tuple[str, ...] = ()

    def applies(self, context: LintContext) -> bool:
        """Whether the rule's inputs are available (beyond ``requires``)."""
        return True

    def check(
        self, context: LintContext, config: LintConfig
    ) -> Iterator[Finding]:  # pragma: no cover - abstract
        raise NotImplementedError
        yield  # makes every override a generator even when empty

    def finding(
        self, message: str, location: str = "", severity: str | None = None
    ) -> Finding:
        return Finding(
            rule=self.code,
            name=self.name,
            severity=severity if severity is not None else self.severity,
            tier=self.tier,
            message=message,
            location=location,
        )


_REGISTRY: dict[str, LintRule] = {}


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding one rule instance to the global registry."""
    instance = cls()
    if not instance.code or not instance.name:
        raise ValueError(f"rule {cls.__name__} needs a code and a name")
    if instance.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {instance.code!r}")
    if instance.tier not in TIERS:
        raise ValueError(f"rule {instance.code}: unknown tier {instance.tier!r}")
    _REGISTRY[instance.code] = instance
    return cls


def rule_registry() -> dict[str, LintRule]:
    """All registered rules keyed by stable code (imports the rule modules)."""
    # Importing the tier modules populates the registry as a side effect.
    import repro.verify.bitaudit  # noqa: F401
    import repro.verify.invariants  # noqa: F401
    import repro.verify.netlist_rules  # noqa: F401

    return dict(sorted(_REGISTRY.items()))


@dataclass
class LintReport:
    """The outcome of one lint run over one context."""

    name: str
    findings: list[Finding] = field(default_factory=list)
    rules_run: list[str] = field(default_factory=list)

    @property
    def error_count(self) -> int:
        return sum(1 for finding in self.findings if finding.severity == ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for finding in self.findings if finding.severity == WARNING)

    @property
    def ok(self) -> bool:
        """No errors (warnings are tolerated)."""
        return self.error_count == 0

    def codes(self) -> set[str]:
        return {finding.rule for finding in self.findings}

    def findings_for(self, code: str) -> list[Finding]:
        return [finding for finding in self.findings if finding.rule == code]

    def tiers_fired(self) -> set[str]:
        return {finding.tier for finding in self.findings}

    # ------------------------------------------------------------------
    # Reporters
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, object]:
        """The JSON reporter schema (stable; see ``docs/lint.md``)."""
        return {
            "name": self.name,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "rules_run": list(self.rules_run),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def render_text(self, verbose: bool = False) -> str:
        lines = []
        for finding in self.findings:
            lines.append(f"{self.name}: {finding}")
        summary = (
            f"{self.name}: {self.error_count} error(s), "
            f"{self.warning_count} warning(s), {len(self.rules_run)} rule(s) run"
        )
        if verbose or self.findings:
            lines.append(summary)
        else:
            lines = [summary]
        return "\n".join(lines)


def run_rules(
    context: LintContext,
    config: LintConfig | None = None,
    tiers: Iterable[str] | None = None,
) -> LintReport:
    """Run every applicable registered rule over *context*."""
    config = config if config is not None else LintConfig()
    wanted = set(tiers) if tiers is not None else set(TIERS)
    report = LintReport(name=context.name)
    for code, rule in rule_registry().items():
        if rule.tier not in wanted or not config.selects(rule):
            continue
        if any(not context.has(attribute) for attribute in rule.requires):
            continue
        if not rule.applies(context):
            continue
        report.rules_run.append(code)
        report.findings.extend(rule.check(context, config))
    severity_rank = {ERROR: 0, WARNING: 1}
    report.findings.sort(key=lambda f: (severity_rank.get(f.severity, 2), f.rule))
    return report
