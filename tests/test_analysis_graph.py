"""Project-graph tests: graph construction, cross-module rules, witness
traces and graph-rule pragma semantics.

The per-rule true-positive/near-miss behaviour lives in the fixture
meta-test (``test_analysis_rules.py``); here we exercise what only the
*project* view can show — hazards split across modules — plus the
machinery around it.
"""

import pytest

from repro.analysis import analyze_sources, project_rule_registry
from repro.analysis.engine import UNUSED_PRAGMA_RULE_ID, FileContext
from repro.analysis.flow import build_lock_graph
from repro.analysis.graph import build_project

INVERTED_A = '''\
import threading

from repro.fake import b as bmod


class A:
    def __init__(self):
        self._a_lock = threading.Lock()
        self.peer = bmod.B()

    def grab(self):
        with self._a_lock:
            pass

    def cross(self):
        with self._a_lock:
            self.peer.poke()
'''

INVERTED_B = '''\
import threading

from repro.fake import a as amod


class B:
    def __init__(self):
        self._b_lock = threading.Lock()
        self.head = amod.A()

    def poke(self):
        with self._b_lock:
            pass

    def reverse(self):
        with self._b_lock:
            self.head.grab()
'''


def _inverted_units():
    return [
        (INVERTED_A, "repro/fake/a.py", "repro.fake.a"),
        (INVERTED_B, "repro/fake/b.py", "repro.fake.b"),
    ]


class TestProjectGraph:
    def test_collects_modules_classes_and_lock_sites(self):
        project = build_project([FileContext.parse(*unit) for unit in _inverted_units()])
        assert set(project.modules) == {"repro.fake.a", "repro.fake.b"}
        assert ("repro.fake.a", "A") in project.classes
        assert "_a_lock" in project.classes[("repro.fake.a", "A")].lock_attrs
        sites, _ = build_lock_graph(project)
        assert ("repro.fake.a", "A", "_a_lock") in sites.values()
        assert ("repro.fake.b", "B", "_b_lock") in sites.values()

    def test_resolves_cross_module_attribute_calls(self):
        project = build_project([FileContext.parse(*unit) for unit in _inverted_units()])
        cross = project.functions[("repro.fake.a", "A.cross")]
        callees = {callee.qual for _, callee in project.calls_in(cross)}
        assert "B.poke" in callees

    def test_static_edges_cross_module(self):
        files = [FileContext.parse(*unit) for unit in _inverted_units()]
        _, edges = build_lock_graph(build_project(files))
        a = ("repro.fake.a", "A", "_a_lock")
        b = ("repro.fake.b", "B", "_b_lock")
        assert (a, b) in edges and (b, a) in edges


class TestCrossModuleRules:
    def test_lock_inversion_reported_once_with_both_witnesses(self):
        findings = analyze_sources(_inverted_units(), rules=[project_rule_registry()["GEM-C03"]])
        hits = [f for f in findings if f.rule == "GEM-C03"]
        assert len(hits) == 1
        finding = hits[0]
        trace = "\n".join(finding.trace)
        # Both directions are witnessed, spanning both files.
        assert trace.count("order ") == 2
        assert "repro/fake/a.py" in trace and "repro/fake/b.py" in trace
        assert "trace:" in finding.render()

    def test_blocking_under_lock_cross_module_trace(self):
        caller = (
            "import threading\n"
            "from repro.fake import sink\n\n\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n\n"
            "    def drain(self, ticket):\n"
            "        with self._lock:\n"
            "            return sink.settle(ticket)\n"
        )
        callee = "def settle(ticket):\n    return ticket.result(timeout=1.0)\n"
        findings = analyze_sources(
            [
                (caller, "repro/fake/holder.py", "repro.fake.holder"),
                (callee, "repro/fake/sink.py", "repro.fake.sink"),
            ],
            rules=[project_rule_registry()["GEM-C04"]],
        )
        hits = [f for f in findings if f.rule == "GEM-C04"]
        assert len(hits) == 1
        assert hits[0].path == "repro/fake/holder.py"
        assert any("repro/fake/sink.py" in hop for hop in hits[0].trace)

    def test_deadline_drop_cross_module(self):
        gateway = (
            "from repro.serve import fakehop\n\n\n"
            "def route(query, deadline_ms):\n"
            "    return fakehop.lookup(query)\n"
        )
        hop = "def lookup(query, deadline_ms=None):\n    return [query]\n"
        findings = analyze_sources(
            [
                (gateway, "repro/serve/fakegateway.py", "repro.serve.fakegateway"),
                (hop, "repro/serve/fakehop.py", "repro.serve.fakehop"),
            ],
            rules=[project_rule_registry()["GEM-R02"]],
        )
        hits = [f for f in findings if f.rule == "GEM-R02"]
        assert len(hits) == 1
        assert hits[0].path == "repro/serve/fakegateway.py"
        assert any("fakehop.py" in hop_ for hop_ in hits[0].trace)


ONE_FILE_INVERSION = '''\
import threading


class Toy:
    def __init__(self):
        self._a = threading.Lock(){pragma}
        self._b = threading.Lock()

    def ab(self):
        with self._a:
            with self._b:
                pass

    def ba(self):
        with self._b:
            with self._a:
                pass
'''


class TestGraphPragmasAndBaseline:
    def test_pragma_on_anchor_line_suppresses_graph_finding(self):
        source = ONE_FILE_INVERSION.format(
            pragma="  # gemlint: disable=GEM-C03(deliberate toy inversion)"
        )
        findings = analyze_sources(
            [(source, "repro/fake/toy.py", "repro.fake.toy")],
            rules=[project_rule_registry()["GEM-C03"]],
        )
        assert findings == []

    def test_stale_graph_pragma_reports_p01(self):
        source = (
            "import threading\n\n\n"
            "class Calm:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()"
            "  # gemlint: disable=GEM-C03(nothing here inverts)\n"
        )
        findings = analyze_sources(
            [(source, "repro/fake/calm.py", "repro.fake.calm")],
            rules=[project_rule_registry()["GEM-C03"]],
        )
        assert [f.rule for f in findings] == [UNUSED_PRAGMA_RULE_ID]


def test_serve_layer_is_clean_under_graph_rules():
    """The real serving layer passes every graph rule without an excuse —
    the GEM-C04 fsync-under-lock in the WAL was fixed, not suppressed."""
    from pathlib import Path

    from repro.analysis import analyze_project

    repo = Path(__file__).resolve().parents[1]
    findings = analyze_project([repo / "src"], root=repo)
    graph_ids = set(project_rule_registry())
    serve_graph = [
        f
        for f in findings
        if f.rule in graph_ids and f.path.startswith("src/repro/serve/")
    ]
    assert serve_graph == [], [f.render() for f in serve_graph]


@pytest.mark.parametrize("rule_id", sorted(["GEM-C03", "GEM-C04", "GEM-R02", "GEM-R03"]))
def test_graph_rules_registered(rule_id):
    assert rule_id in project_rule_registry()
