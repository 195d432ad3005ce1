"""CLI baseline maintenance: ``--prune-stale``.

The test drives ``python -m repro.analysis``'s ``main()`` in a temp
project, exactly like the CLI tests in ``test_analysis_engine.py``.
"""

import json

from repro.analysis.__main__ import main

FLOAT_EQ = "def f(x):\n    return x == 0.5\n"


def _project(tmp_path, files):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, source in files.items():
        (pkg / name).write_text(source, encoding="utf-8")
    return tmp_path


class TestPruneStale:
    def test_prune_rewrites_baseline_keeping_justifications(
        self, tmp_path, monkeypatch, capsys
    ):
        _project(tmp_path, {"mod.py": FLOAT_EQ})
        baseline_path = tmp_path / "gemlint-baseline.json"
        baseline_path.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "GEM-F01",
                            "path": "src/repro/mod.py",
                            "code": "return x == 0.5",
                            "justification": "documented sentinel comparison, reviewed",
                        },
                        {
                            "rule": "GEM-F01",
                            "path": "src/repro/gone.py",
                            "code": "return x == 1.5",
                            "justification": "file was deleted; entry is stale",
                        },
                    ],
                }
            ),
            encoding="utf-8",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["src", "--prune-stale"]) == 0
        err = capsys.readouterr().err
        assert "pruned 1 stale" in err
        rewritten = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert len(rewritten["entries"]) == 1
        entry = rewritten["entries"][0]
        assert entry["path"] == "src/repro/mod.py"
        assert entry["justification"] == "documented sentinel comparison, reviewed"
        # The pruned baseline still loads and still gates cleanly.
        assert main(["src"]) == 0
