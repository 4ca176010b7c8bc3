"""The command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-snapshot")
    code = main(["populate", "--site", "ausopen",
                 "--snapshot", str(directory),
                 "--players", "8", "--articles", "4",
                 "--videos", "3", "--frames", "6"])
    assert code == 0
    return directory


class TestPopulate:
    def test_populate_writes_snapshot(self, snapshot):
        # the crash-safe layout: generation directory behind CURRENT
        assert (snapshot / "site.json").exists()
        generation = (snapshot / "CURRENT").read_text().strip()
        checkpoint = snapshot / "snapshot" / generation
        assert (checkpoint / "manifest.json").exists()
        assert (checkpoint / "conceptual.bats").exists()

    def test_populate_report_printed(self, tmp_path, capsys):
        main(["populate", "--site", "lonelyplanet",
              "--snapshot", str(tmp_path / "lp")])
        out = capsys.readouterr().out
        assert "crawled" in out and "snapshot written" in out


class TestQuery:
    def test_mixed_query(self, snapshot, capsys):
        code = main(["query", "--snapshot", str(snapshot),
                     "SELECT p.name, v.title FROM Player p, Video v "
                     "WHERE p.gender = 'female' AND p.plays = 'left' "
                     "AND p.history CONTAINS 'Winner' AND v Features p "
                     "AND v.video EVENT netplay TOP 5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Monica Seles" in out
        assert "shot frames" in out

    def test_conceptual_query(self, snapshot, capsys):
        code = main(["query", "--snapshot", str(snapshot),
                     "SELECT p.name FROM Player p "
                     "WHERE p.plays = 'left' TOP 20"])
        assert code == 0
        assert "p.name=" in capsys.readouterr().out

    def test_no_results(self, snapshot, capsys):
        code = main(["query", "--snapshot", str(snapshot),
                     "SELECT p.name FROM Player p "
                     "WHERE p.name = 'Nobody'"])
        assert code == 0
        assert "no results" in capsys.readouterr().out

    def test_bad_query_fails_cleanly(self, snapshot, capsys):
        code = main(["query", "--snapshot", str(snapshot), "SELECT"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSnapshotRestore:
    def test_snapshot_writes_new_generation(self, snapshot, capsys):
        assert main(["snapshot", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint generation 2 written" in out
        assert (snapshot / "CURRENT").read_text().strip() == "00000002"

    def test_snapshot_list(self, snapshot, capsys):
        assert main(["snapshot", "--snapshot", str(snapshot),
                     "--list"]) == 0
        out = capsys.readouterr().out
        assert "(CURRENT)" in out

    def test_restore_verifies_and_reports(self, snapshot, capsys):
        assert main(["restore", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "verified" in out
        assert "conceptual documents" in out

    def test_restore_detects_corruption(self, snapshot, capsys):
        generation = (snapshot / "CURRENT").read_text().strip()
        target = snapshot / "snapshot" / generation / "ir.bats"
        original = target.read_bytes()
        try:
            target.write_bytes(original[:-10])
            code = main(["restore", "--snapshot", str(snapshot)])
            err = capsys.readouterr().err
            assert code == 1
            assert "error:" in err
        finally:
            target.write_bytes(original)

    def test_restore_fallback_degrades_to_older_generation(self, snapshot,
                                                           capsys):
        generation = (snapshot / "CURRENT").read_text().strip()
        target = snapshot / "snapshot" / generation / "ir.bats"
        original = target.read_bytes()
        try:
            target.write_bytes(original[:-10])
            code = main(["restore", "--snapshot", str(snapshot),
                         "--on-corrupt", "fallback"])
            out = capsys.readouterr().out
            assert code == 0
            # the report names the generation actually loaded, not the
            # (corrupt) one CURRENT still points at
            assert f"from generation {int(generation) - 1} " in out
        finally:
            target.write_bytes(original)

    def test_snapshot_fallback_repairs_corrupt_current(self, snapshot,
                                                       capsys):
        generation = (snapshot / "CURRENT").read_text().strip()
        target = snapshot / "snapshot" / generation / "ir.bats"
        original = target.read_bytes()
        try:
            target.write_bytes(original[:-10])
            assert main(["snapshot", "--snapshot", str(snapshot)]) == 1
            code = main(["snapshot", "--snapshot", str(snapshot),
                         "--on-corrupt", "fallback"])
            assert code == 0
            capsys.readouterr()
            # the fresh checkpoint behind CURRENT loads under strict mode
            assert main(["restore", "--snapshot", str(snapshot)]) == 0
        finally:
            target.write_bytes(original)


class TestInspection:
    def test_stats(self, snapshot, capsys):
        assert main(["stats", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "conceptual:" in out and "ir:" in out

    def test_stats_query_prints_trace_and_metrics(self, snapshot, capsys,
                                                  tmp_path):
        import json

        report_path = tmp_path / "report.json"
        code = main(["stats", "--snapshot", str(snapshot),
                     "--query",
                     "SELECT p.name FROM Player p "
                     "WHERE p.history CONTAINS 'Winner' TOP 5",
                     "--json", str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== trace ==" in out and "== metrics ==" in out
        # the span tree descends query -> plan stage -> operator
        assert "query" in out and "plan.content" in out
        assert "op.IrProbe" in out
        assert "monetdb.tuples_touched{server=conceptual}" in out
        report = json.loads(report_path.read_text())
        # the query runs through the search service, as a served one does
        root = report["spans"][0]
        assert root["name"] == "service.request"
        assert [child["name"] for child in root["children"]] == ["query"]
        assert report["metrics"]["counters"]["engine.queries"] == 1

    def test_stats_query_leaves_telemetry_disabled(self, snapshot):
        from repro.telemetry import is_enabled

        main(["stats", "--snapshot", str(snapshot),
              "--query", "SELECT p.name FROM Player p TOP 3"])
        assert not is_enabled()

    def test_stats_site_builds_ephemeral_engine(self, capsys):
        code = main(["stats", "--site", "ausopen", "--cluster", "2",
                     "--players", "4", "--articles", "2", "--videos", "1",
                     "--frames", "6",
                     "--query",
                     "SELECT p.name FROM Player p "
                     "WHERE p.history CONTAINS 'Winner' TOP 5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ir.node_topn" in out
        assert "distributed per-node tuples" in out

    def test_stats_requires_a_source(self, capsys):
        code = main(["stats"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_paths(self, snapshot, capsys):
        assert main(["paths", "--snapshot", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert "webspace/Player" in out
        assert "MMO" in out

    def test_missing_snapshot_fails_cleanly(self, tmp_path, capsys):
        code = main(["stats", "--snapshot", str(tmp_path / "nope")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


@pytest.mark.offline
class TestExportIndex:
    def test_populate_export_and_read_back(self, tmp_path, capsys):
        """populate -> export-index -> StaticIndexReader answers a
        fragmented probe the same as the snapshot's own engine."""
        from repro.offline import StaticIndexReader
        from repro.persistence import FORMAT_VERSION, load_engine
        from repro.service.api import MODE_FRAGMENTED, SearchRequest
        from repro.web.ausopen import build_ausopen_site
        from repro.webspace.schema import australian_open_schema

        snapshot, artifact = tmp_path / "snapshot", tmp_path / "artifact"
        assert main(["populate", "--site", "ausopen",
                     "--snapshot", str(snapshot), "--players", "4",
                     "--articles", "2", "--videos", "1",
                     "--frames", "6"]) == 0
        capsys.readouterr()
        assert main(["export-index", "--snapshot", str(snapshot),
                     "--output", str(artifact)]) == 0
        assert f"format {FORMAT_VERSION}," in capsys.readouterr().out
        server, _ = build_ausopen_site(players=4, articles=2, videos=1,
                                       frames_per_shot=6)
        engine = load_engine(snapshot, australian_open_schema(), server)
        probe = SearchRequest(query="winner champion trophy",
                              mode=MODE_FRAGMENTED)
        live = engine.execute(probe)
        static = StaticIndexReader(artifact).execute(probe)
        assert live.hits
        assert [(hit.key, hit.score) for hit in static.hits] \
            == [(hit.key, hit.score) for hit in live.hits]
