"""Engine-level tests for gemlint: pragmas, CLI, module mapping."""

from pathlib import Path

import pytest

from repro.analysis import analyze_project, analyze_sources, module_name_for, rule_registry
from repro.analysis.__main__ import main
from repro.analysis.engine import PRAGMA_RULE_ID, UNUSED_PRAGMA_RULE_ID

SYNTAX_RULE_ID = "GEM-E00"

FLOAT_EQ = "def f(x):\n    return x == 0.5\n"


def _rules(*ids):
    registry = rule_registry()
    return [registry[i] for i in ids]


class TestPragmas:
    def test_reasoned_pragma_suppresses(self):
        src = "def f(x):\n    return x == 0.5  # gemlint: disable=GEM-F01(sentinel)\n"
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01"))
        assert findings == []

    def test_missing_reason_reports_p00_and_keeps_finding(self):
        src = "def f(x):\n    return x == 0.5  # gemlint: disable=GEM-F01\n"
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01"))
        rules = sorted(f.rule for f in findings)
        assert rules == ["GEM-F01", PRAGMA_RULE_ID]

    def test_empty_reason_reports_p00(self):
        src = "def f(x):\n    return x == 0.5  # gemlint: disable=GEM-F01()\n"
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01"))
        assert PRAGMA_RULE_ID in {f.rule for f in findings}

    def test_unused_pragma_reports_p01(self):
        src = "def f(x):\n    return x  # gemlint: disable=GEM-F01(stale excuse)\n"
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01"))
        assert [f.rule for f in findings] == [UNUSED_PRAGMA_RULE_ID]

    def test_pragma_text_in_docstring_is_inert(self):
        src = (
            '"""Docs mention # gemlint: disable=GEM-F01 without effect."""\n'
            "def f(x):\n    return x == 0.5\n"
        )
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01"))
        assert [f.rule for f in findings] == ["GEM-F01"]

    def test_pragma_only_covers_named_rule(self):
        src = (
            "def f(x):\n"
            "    return x == 0.5  # gemlint: disable=GEM-D01(wrong rule named)\n"
        )
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-F01", "GEM-D01"))
        rules = {f.rule for f in findings}
        assert "GEM-F01" in rules
        assert UNUSED_PRAGMA_RULE_ID in rules

    def test_pragma_of_a_rule_that_did_not_run_is_not_stale(self):
        src = "def f(x):\n    return x == 0.5  # gemlint: disable=GEM-F01(sentinel)\n"
        assert analyze_sources([(src, "pkg/mod.py", "")], rules=_rules("GEM-D01")) == []

    def test_pragma_naming_unknown_rule_is_reported(self):
        src = "def f(x):\n    return x  # gemlint: disable=GEM-Z99(typo of a rule id)\n"
        findings = analyze_sources([(src, "pkg/mod.py", "")], rules=[])
        assert [(f.rule, f.line) for f in findings] == [(PRAGMA_RULE_ID, 2)]
        assert "GEM-Z99" in findings[0].message

    def test_syntax_error_reports_e00(self):
        findings = analyze_sources([("def broken(:\n", "pkg/mod.py", "")], rules=[])
        assert [f.rule for f in findings] == [SYNTAX_RULE_ID]


class TestModuleName:
    def test_src_layout(self):
        module, is_pkg = module_name_for(Path("src/repro/core/gem.py"))
        assert module == "repro.core.gem" and not is_pkg

    def test_package_init(self):
        module, is_pkg = module_name_for(Path("src/repro/serve/__init__.py"))
        assert module == "repro.serve" and is_pkg

    def test_non_repro_path(self):
        module, _ = module_name_for(Path("scripts/tool.py"))
        assert module == ""


class TestCli:
    def _project(self, tmp_path, source=FLOAT_EQ):
        pkg = tmp_path / "src" / "repro"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "mod.py").write_text(source, encoding="utf-8")
        return tmp_path

    def test_clean_tree_exits_zero(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path, "def f(x):\n    return x\n")
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_findings_exit_one(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["src"]) == 1
        out = capsys.readouterr().out
        assert "GEM-F01" in out and "src/repro/mod.py" in out

    def test_github_format_emits_error_commands(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error ")
        assert "file=src/repro/mod.py" in out and "GEM-F01" in out

    def test_checkout_under_hidden_dir_is_analyzed(self, tmp_path):
        root = self._project(tmp_path / ".cache")
        (root / "src" / ".venv").mkdir()
        (root / "src" / ".venv" / "skipped.py").write_text(FLOAT_EQ, encoding="utf-8")
        findings = analyze_project([root / "src"], root=root)
        assert [(f.rule, f.path) for f in findings] == [("GEM-F01", "src/repro/mod.py")]

    def test_select_restricts_rules(self, tmp_path, monkeypatch, capsys):
        self._project(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--select", "GEM-D01"]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("GEM-D01", "GEM-D02", "GEM-C01", "GEM-C02", "GEM-L01", "GEM-F01"):
            assert rule_id in out

    @pytest.mark.parametrize(
        "flag", ["--baseline=x.json", "--no-baseline", "--write-baseline", "--prune-stale"]
    )
    def test_baseline_flags_are_unknown(self, tmp_path, monkeypatch, flag):
        self._project(tmp_path)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["src", flag])
        assert exc.value.code == 2
