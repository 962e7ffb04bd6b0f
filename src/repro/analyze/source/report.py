"""The ``repro.lint/1`` report: findings + suppression/baseline verdicts.

:func:`build_lint_report` is the lint runner: it executes the source
rules through the shared :func:`~repro.analyze.framework.run_rules`
machinery (so a crashing rule degrades to an ``ANA999`` finding instead
of sinking the lint), then post-processes every diagnostic against the
module's ``# repro-lint: allow[...]`` annotations and the baseline
store.  A finding is **active** -- and fails the lint -- only when it is
neither suppressed nor baselined.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from ..diagnostics import Diagnostic
from ..framework import AnalysisContext, run_rules
from .baseline import Baseline, BaselineEntry, fingerprint
from .index import SourceIndex
from .rules import source_rules

LINT_SCHEMA = "repro.lint/1"


def load_lint_verdict(path: "str | Path") -> Dict[str, Any]:
    """``{"path", "schema", "summary"}`` of a saved ``repro.lint/1``
    report, for folding its verdict into another report (``repro bench
    check --lint-report``).

    Raises :class:`ValueError` naming the file when it is missing,
    unreadable or not a ``repro.lint/1`` document.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"lint report not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        raise ValueError(f"unreadable lint report: {path}") from None
    if not isinstance(payload, dict) or payload.get("schema") != LINT_SCHEMA:
        raise ValueError(f"not a {LINT_SCHEMA} artifact: {path}")
    return {
        "path": str(path),
        "schema": LINT_SCHEMA,
        "summary": payload.get("summary") or {},
    }


@dataclass
class LintFinding:
    """One located finding plus its suppression/baseline verdict."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    module: str
    symbol: str
    zone: str
    message: str
    fingerprint: str
    details: Dict[str, Any] = field(default_factory=dict)
    suppressed: bool = False
    suppress_reason: str = ""
    baselined: bool = False

    @property
    def active(self) -> bool:
        return not (self.suppressed or self.baselined)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "module": self.module,
            "symbol": self.symbol,
            "zone": self.zone,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "details": dict(self.details),
            "suppressed": self.suppressed,
            "suppress_reason": self.suppress_reason,
            "baselined": self.baselined,
            "active": self.active,
        }

    def render(self) -> str:
        mark = ""
        if self.suppressed:
            mark = "  [suppressed: " + self.suppress_reason + "]"
        elif self.baselined:
            mark = "  [baselined]"
        return (
            f"{self.path}:{self.line}: {self.rule} [{self.symbol}] "
            f"{self.message}{mark}"
        )


@dataclass
class LintReport:
    """All findings of one lint run over one source index."""

    subject: str
    findings: List[LintFinding] = field(default_factory=list)
    files: int = 0
    rules_run: List[str] = field(default_factory=list)
    zones: Dict[str, List[str]] = field(default_factory=dict)
    baseline_path: Optional[str] = None
    baseline_entries: int = 0
    stale_baseline: List[Dict[str, str]] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)

    @property
    def active(self) -> List[LintFinding]:
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> List[LintFinding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> List[LintFinding]:
        return [f for f in self.findings if f.baselined]

    @property
    def ok(self) -> bool:
        return not self.active and not self.parse_errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": LINT_SCHEMA,
            "subject": self.subject,
            "summary": {
                "files": self.files,
                "findings": len(self.findings),
                "active": len(self.active),
                "suppressed": len(self.suppressed),
                "baselined": len(self.baselined),
                "parse_errors": len(self.parse_errors),
                "ok": self.ok,
            },
            "meta": {
                "rules_run": list(self.rules_run),
                "zones": dict(self.zones),
                "baseline": {
                    "path": self.baseline_path,
                    "entries": self.baseline_entries,
                    "stale": list(self.stale_baseline),
                },
                "parse_errors": list(self.parse_errors),
            },
            "findings": [f.to_dict() for f in self.findings],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render_text(self, verbose: bool = False) -> str:
        lines = [f"repro lint over {self.subject}"]
        for error in self.parse_errors:
            lines.append(f"  parse error: {error}")
        shown = [
            f for f in self.findings if verbose or f.active
        ]
        for finding in shown:
            lines.append("  " + finding.render())
        stale = len(self.stale_baseline)
        if stale:
            lines.append(
                f"  note: {stale} stale baseline entr(ies) -- the "
                "grandfathered finding(s) no longer exist; prune the file"
            )
        lines.append(
            f"  {self.files} file(s): {len(self.active)} active, "
            f"{len(self.suppressed)} suppressed, "
            f"{len(self.baselined)} baselined finding(s) -> "
            + ("OK" if self.ok else "FAIL")
        )
        return "\n".join(lines)

    def to_baseline(self) -> Baseline:
        """A baseline grandfathering every currently-active finding."""
        return Baseline([
            BaselineEntry(
                fingerprint=f.fingerprint,
                rule=f.rule,
                module=f.module,
                symbol=f.symbol,
                message=f.message,
            )
            for f in self.active
        ])


def _to_finding(index: SourceIndex, diag: Diagnostic) -> LintFinding:
    details = dict(diag.details)
    path = str(details.pop("path", ""))
    line = int(details.pop("line", 0) or 0)
    col = int(details.pop("col", 0) or 0)
    module_name = str(details.pop("module", ""))
    symbol = str(details.pop("symbol", "<module>"))
    zone = str(details.pop("zone", "-"))
    module = index.by_module(module_name) if module_name else None
    line_text = module.line_text(line) if module is not None else ""
    finding = LintFinding(
        rule=diag.rule_id,
        severity=diag.severity.value,
        path=path,
        line=line,
        col=col,
        module=module_name,
        symbol=symbol,
        zone=zone,
        message=diag.message,
        fingerprint=fingerprint(diag.rule_id, module_name, symbol, line_text),
        details=details,
    )
    if module is not None:
        note = module.suppression_for(line, diag.rule_id)
        if note is not None:
            finding.suppressed = True
            finding.suppress_reason = note.reason
    return finding


def build_lint_report(
    index: SourceIndex,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Run the source rules over ``index`` and assemble the lint report."""
    baseline = baseline if baseline is not None else Baseline()
    ctx = AnalysisContext(source=index)
    rules = source_rules()
    analysis = run_rules(ctx, rules=rules)
    findings = [_to_finding(index, diag) for diag in analysis.diagnostics]
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))

    seen_fingerprints: Set[str] = set()
    for finding in findings:
        seen_fingerprints.add(finding.fingerprint)
        if not finding.suppressed and finding.fingerprint in baseline:
            finding.baselined = True

    return LintReport(
        subject=f"source:{index.label}",
        findings=findings,
        files=len(index),
        rules_run=[cls.rule_id for cls in rules],
        zones={m.module: sorted(m.zones) for m in index if m.zones},
        baseline_path=(str(baseline.path) if baseline.path else None),
        baseline_entries=len(baseline),
        stale_baseline=[
            entry.to_dict() for entry in baseline.stale(seen_fingerprints)
        ],
        parse_errors=list(index.errors),
    )
