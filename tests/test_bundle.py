"""Tests for repro.bundle: manifests, stage round-trips, sweep, CLI exit codes."""

import json
import shutil

import numpy as np
import pytest

from repro.bundle import (
    CorruptArchiveError,
    StaleIndexError,
    canonicalize_corpus_spec,
    expand_grid,
    load_corpus,
    manifest_path,
    open_service,
    read_manifest,
    record_stage,
    verify_bundle,
)
from repro.bundle.__main__ import main
from repro.bundle.sweep import _index_recall_objective
from repro.core import GemEmbedder
from repro.index import load_index

# One small fitted+indexed bundle is built once (module scope) and copied
# for every destructive test; keeps the suite fast.
SPEC = "synthetic:gds:tiny:7"
FIT_ARGS = [
    "--corpus",
    SPEC,
    "--set",
    "n_components=6",
    "--set",
    "n_init=1",
    "--set",
    "max_iter=60",
    "--set",
    "random_state=0",
]


@pytest.fixture(scope="module")
def built_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("bundles") / "lake.bundle"
    assert main(["fit", str(bundle)] + FIT_ARGS) == 0
    assert main(["index", str(bundle), "--backend", "exact"]) == 0
    return bundle


@pytest.fixture
def bundle(built_bundle, tmp_path):
    copy = tmp_path / "lake.bundle"
    shutil.copytree(built_bundle, copy)
    return copy


class TestHappyPath:
    def test_fit_index_serve_verify_all_exit_zero(self, bundle, capsys):
        assert main(["serve", str(bundle), "--smoke", "--queries", "3"]) == 0
        assert main(["verify", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "verify: ok" in out

    def test_manifest_records_the_chain(self, bundle):
        manifest = read_manifest(bundle)
        assert manifest["schema_version"] == 1
        assert manifest["corpus"]["spec"] == SPEC
        fit = manifest["stages"]["fit"]
        index = manifest["stages"]["index"]
        assert fit["artifact"] == "gem.npz"
        assert index["upstream"] == {"fit": fit["checksum"]}
        assert index["model_fingerprint"] == fit["model_fingerprint"]

    def test_verify_bundle_reports_nothing(self, bundle):
        assert verify_bundle(bundle) == []

    def test_open_service_serves_searches(self, bundle):
        corpus, _ = load_corpus(SPEC)
        with open_service(bundle) as service:
            result = service.search(corpus.take([0, 1]), k=3)
        assert len(result.ids) == 2
        assert all(len(row) == 3 for row in result.ids)

    def test_wal_replay_restores_acked_writes(self, bundle):
        corpus, _ = load_corpus(SPEC)
        sub = corpus.take([0])
        with open_service(bundle) as service:
            service.ingest(["wal:extra"], sub)
        # The ingest hit the WAL but not index.npz; a fresh open must
        # replay it before taking traffic.
        with open_service(bundle) as service:
            assert service.metrics.snapshot()["replayed_ops"] >= 1
            hits = service.search(sub, k=2)
        assert any("wal:extra" in row for row in hits.ids)


class TestRefusals:
    def test_tampered_manifest_is_corrupt(self, bundle):
        path = manifest_path(bundle)
        doc = json.loads(path.read_text())
        doc["config"]["n_components"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CorruptArchiveError, match="checksum"):
            read_manifest(bundle)
        assert main(["verify", str(bundle)]) == 1
        assert main(["serve", str(bundle), "--smoke"]) == 1

    def test_tampered_artifact_is_corrupt(self, bundle, capsys):
        with open(bundle / "index.npz", "ab") as fh:
            fh.write(b"\x00")
        assert main(["verify", str(bundle)]) == 1
        assert "FAIL" in capsys.readouterr().err
        assert main(["serve", str(bundle), "--smoke"]) == 1
        with pytest.raises(CorruptArchiveError):
            open_service(bundle)

    def test_missing_artifact_is_corrupt(self, bundle):
        (bundle / "gem.npz").unlink()
        assert main(["verify", str(bundle)]) == 1
        assert main(["serve", str(bundle), "--smoke"]) == 1

    def test_refit_makes_index_stale_until_rebuilt(self, bundle, capsys):
        # Refit with a different model: the index record survives, but its
        # recorded upstream checksum no longer matches — refused as stale.
        assert main(["fit", str(bundle), "--corpus", SPEC, "--set",
                     "n_components=4", "--set", "n_init=1", "--set",
                     "max_iter=60", "--set", "random_state=0"]) == 0
        assert "index" in read_manifest(bundle)["stages"]
        assert main(["serve", str(bundle), "--smoke"]) == 1
        assert "re-run" in capsys.readouterr().err
        with pytest.raises(StaleIndexError):
            open_service(bundle)
        assert main(["verify", str(bundle)]) == 1
        # Rebuilding the stale stage heals the chain.
        assert main(["index", str(bundle), "--backend", "exact"]) == 0
        assert main(["verify", str(bundle)]) == 0

    def test_record_stage_preserves_dependents(self, bundle):
        manifest = read_manifest(bundle)
        updated = record_stage(
            manifest, "fit", artifact="gem.npz", checksum="f" * 32
        )
        assert "index" in updated["stages"]
        # and the original is untouched (record_stage returns a copy)
        assert manifest["stages"]["fit"]["checksum"] != "f" * 32


class TestUsageErrors:
    def test_stage_out_of_order_exits_2(self, tmp_path, capsys):
        assert main(["index", str(tmp_path / "nope.bundle")]) == 2
        assert main(["serve", str(tmp_path / "nope.bundle")]) == 2
        capsys.readouterr()

    def test_bad_corpus_spec_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "b"), "--corpus", "nope:gds"]) == 2
        assert main(["fit", str(tmp_path / "b"), "--corpus", "synthetic:bogus"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        # A retired field is no key at all.
        for setting in ("not_a_field=1", "cache_signatures=false"):
            assert main(["fit", str(tmp_path / "b"), "--corpus", SPEC, "--set", setting]) == 2

    def test_bad_grid_exits_2(self, bundle):
        assert main(["sweep", str(bundle), "--grid", "not_a_field=1,2"]) == 2
        assert main(["sweep", str(bundle), "--grid", "cache_signatures=true,false"]) == 2

    def test_index_settings_pass_through_and_backend_given_twice_exits_2(self, bundle):
        assert main(["index", str(bundle), "--backend", "ivf", "--set", "n_probe=4"]) == 0
        index = load_index(bundle / "index.npz")
        assert (index.backend, index.n_probe) == ("ivf", 4)
        assert main(["index", str(bundle), "--backend", "ivf", "--set", "backend=pq"]) == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestCorpusSpecs:
    def test_synthetic_spec_canonicalizes_scale_and_seed(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert canonicalize_corpus_spec("synthetic:gds") == "synthetic:gds:tiny:7"
        assert canonicalize_corpus_spec(SPEC) == SPEC

    def test_csv_spec_resolves_and_loads(self, tmp_path):
        rng = np.random.default_rng(0)
        for name in ("a.csv", "b.csv"):
            lines = ["x,y"] + [
                f"{rng.normal():.4f},{rng.integers(0, 9)}" for _ in range(12)
            ]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        spec = canonicalize_corpus_spec(f"csv:{tmp_path}")
        assert spec == f"csv:{tmp_path.resolve()}"
        corpus, canonical = load_corpus(spec)
        assert canonical == spec
        assert len(corpus) == 4  # two numeric columns per file

    def test_malformed_specs_raise(self):
        for bad in ("", "synthetic:", "synthetic:bogus", "synthetic:gds:huge"):
            with pytest.raises(ValueError):
                canonicalize_corpus_spec(bad)
        # csv: specs canonicalize without touching the filesystem; loading
        # a nonexistent directory is the usage error.
        with pytest.raises(ValueError, match="not a directory"):
            load_corpus("csv:/does/not/exist")


class TestSweep:
    GRID = ["--grid", "n_components=4,6"]

    def test_expand_grid_is_sorted_and_row_major(self):
        # Parameter names sort (max_iter < n_init) regardless of insertion
        # order; values expand row-major in declared order.
        rows = expand_grid({"n_init": [1, 2], "max_iter": [60]})
        assert rows == [
            {"max_iter": 60, "n_init": 1},
            {"max_iter": 60, "n_init": 2},
        ]
        with pytest.raises(ValueError):
            expand_grid({"not_a_field": [1]})
        with pytest.raises(ValueError):
            expand_grid({"n_components": []})

    def test_sweep_is_byte_identical_across_runs_and_workers(self, bundle, tmp_path):
        other = tmp_path / "again.bundle"
        shutil.copytree(bundle, other, dirs_exist_ok=False)
        assert main(["sweep", str(bundle)] + self.GRID
                    + ["--seed", "3", "--workers", "1"]) == 0
        assert main(["sweep", str(other)] + self.GRID
                    + ["--seed", "3", "--workers", "2"]) == 0
        assert (bundle / "sweep.json").read_bytes() == (
            other / "sweep.json"
        ).read_bytes()

    def test_sweep_table_is_ranked_and_recorded(self, bundle):
        assert main(["sweep", str(bundle)] + self.GRID + ["--seed", "3"]) == 0
        document = json.loads((bundle / "sweep.json").read_text())
        assert document["objective"] == "precision_at_k"
        assert document["n_trials"] == 2
        ranks = [row["rank"] for row in document["table"]]
        assert ranks == sorted(ranks)
        values = [row["value"] for row in document["table"]]
        assert values == sorted(values, reverse=True)  # maximize
        assert "sweep" in read_manifest(bundle)["stages"]
        assert main(["verify", str(bundle)]) == 0

    def test_bad_grid_value_is_a_failed_row_not_a_crash(self, bundle):
        assert main([
            "sweep", str(bundle), "--grid", "value_transform='log'",
            "--seed", "3",
        ]) == 0
        document = json.loads((bundle / "sweep.json").read_text())
        assert len(document["failed"]) == 1
        assert document["table"] == []

    INDEX_GRID = [
        "--grid",
        "backend=exact,ivf",
        "--grid",
        "n_probe=1,4",
        "--objective",
        "index_recall_at_k",
        "--seed",
        "3",
    ]

    def test_index_sweep_ranks_exact_first_and_is_byte_identical(self, bundle, tmp_path):
        other = tmp_path / "again.bundle"
        shutil.copytree(bundle, other)
        assert main(["sweep", str(bundle)] + self.INDEX_GRID + ["--workers", "1"]) == 0
        assert main(["sweep", str(other)] + self.INDEX_GRID + ["--workers", "3"]) == 0
        assert (bundle / "sweep.json").read_bytes() == (other / "sweep.json").read_bytes()
        document = json.loads((bundle / "sweep.json").read_text())
        assert document["n_trials"] == 4 and document["failed"] == []
        top = document["table"][0]
        assert top["params"]["backend"] == "exact" and top["value"] == 1.0

    @pytest.mark.parametrize("grid", ["n_probe=1,2", "index_n_probe=1"])
    def test_index_grid_keys_need_the_index_objective(self, bundle, grid):
        # GemIndex arguments only mean something to index_recall_at_k, and
        # the retired GemConfig spelling is no key at all.
        assert main(["sweep", str(bundle), "--grid", grid]) == 2

    def test_index_recall_oracle_is_exact_float64(self):
        # Rows at angles (40 - i) * 2e-5 rad from row 0: the nearest
        # neighbours carry the highest ids, and float32 storage ties them
        # across the top-k boundary, so a float32 trial must lose recall
        # against the float64 oracle (a float32 oracle would score 1.0).
        theta = np.array([0.0] + [(40 - i) * 2e-5 for i in range(1, 40)])
        X = np.column_stack([np.cos(theta), np.sin(theta), np.zeros(40)])
        gem = GemEmbedder()
        assert _index_recall_objective(gem, None, X, None, backend="exact") == 1.0
        float32 = _index_recall_objective(gem, None, X, None, backend="exact", dtype="float32")
        assert float32 < 1.0

    def test_unknown_objective_exits_2(self, bundle):
        assert main(["sweep", str(bundle)] + self.GRID
                    + ["--objective", "nope"]) == 2
