"""Fixture-driven tests for every gemlint rule family.

Each fixture under ``tests/gemlint_fixtures/`` declares its own contract
in header directives::

    # gemlint-fixture: module=<dotted module the file pretends to be>
    # gemlint-fixture: expect=<RULE>:<count>

A ``*_true_positive`` fixture expects its rule to fire (count > 0), a
``*_near_miss`` fixture packs the closest constructs that must NOT fire
(count == 0). The harness analyzes each fixture with only its target rule
active, under a non-test synthetic path, so expectations are exact.
"""

import re
from pathlib import Path

import pytest

from repro.analysis import analyze_sources, project_rule_registry, rule_registry

FIXTURE_DIR = Path(__file__).parent / "gemlint_fixtures"
_DIRECTIVE_RE = re.compile(r"#\s*gemlint-fixture:\s*(\w+)=(\S+)")

RULE_FAMILIES = (
    "GEM-D01",
    "GEM-D02",
    "GEM-C01",
    "GEM-C02",
    "GEM-C03",
    "GEM-C04",
    "GEM-L01",
    "GEM-F01",
    "GEM-R01",
    "GEM-R02",
    "GEM-R03",
)


def _fixtures() -> list[Path]:
    found = sorted(FIXTURE_DIR.glob("*.py"))
    assert found, f"no fixtures in {FIXTURE_DIR}"
    return found


def _directives(source: str) -> dict[str, str]:
    return dict(_DIRECTIVE_RE.findall(source))


@pytest.mark.parametrize("fixture", _fixtures(), ids=lambda p: p.stem)
def test_fixture_matches_declared_expectation(fixture):
    source = fixture.read_text(encoding="utf-8")
    directives = _directives(source)
    assert "module" in directives and "expect" in directives, (
        f"{fixture.name} must declare module= and expect= directives"
    )
    rule_id, _, count = directives["expect"].partition(":")
    rule = {**rule_registry(), **project_rule_registry()}[rule_id]
    # A synthetic non-test path: rules with test-path exemptions (GEM-F01)
    # must see fixtures as library code. A graph rule analyzes a
    # single-file synthetic project.
    findings = analyze_sources(
        [(source, f"fixtures/{fixture.name}", directives["module"])], rules=[rule]
    )
    hits = [f for f in findings if f.rule == rule_id]
    assert len(hits) == int(count), (
        f"{fixture.name}: expected {count} {rule_id} finding(s), got "
        f"{[f.render() for f in hits]}"
    )
    defects = [f for f in findings if f.rule.startswith("GEM-P")]
    assert not defects, f"fixture has pragma defects: {defects}"


def test_every_rule_family_has_true_positive_and_near_miss():
    seen: dict[str, set[str]] = {rule: set() for rule in RULE_FAMILIES}
    for fixture in _fixtures():
        directives = _directives(fixture.read_text(encoding="utf-8"))
        rule_id, _, count = directives["expect"].partition(":")
        if rule_id in seen:
            seen[rule_id].add("tp" if int(count) > 0 else "neg")
    for rule_id, kinds in seen.items():
        assert kinds == {"tp", "neg"}, (
            f"{rule_id} needs both an asserted true positive and a near-miss "
            f"negative fixture, has {sorted(kinds) or 'none'}"
        )


def test_registry_exposes_all_contract_families():
    registry = {**rule_registry(), **project_rule_registry()}
    for rule_id in RULE_FAMILIES:
        assert rule_id in registry
        rule = registry[rule_id]
        assert rule.invariant, f"{rule_id} must state its invariant"
        assert rule.motivation, f"{rule_id} must cite its motivating PR"
