"""Perf-regression sentinel: comparison logic and the CLI contract."""

from __future__ import annotations

import copy
import json

import pytest

from repro.obs import sentinel


@pytest.fixture(autouse=True)
def small_suite(monkeypatch):
    """Shrink the suite so unit tests stay fast; the committed baseline
    (seeded by the CLI at full size) is not used here."""
    monkeypatch.setattr(sentinel, "LINEITEM_ROWS", 2000)
    monkeypatch.setattr(sentinel, "ORDERS_ROWS", 500)
    monkeypatch.setattr(sentinel, "CUSTOMER_ROWS", 50)


@pytest.fixture(scope="module")
def measured():
    """One suite run at the shrunken size (module-cached: ~seconds)."""
    import copy as _copy

    from repro.obs import sentinel as s

    saved = (s.LINEITEM_ROWS, s.ORDERS_ROWS, s.CUSTOMER_ROWS)
    s.LINEITEM_ROWS, s.ORDERS_ROWS, s.CUSTOMER_ROWS = 2000, 500, 50
    try:
        return _copy.deepcopy(s.run_suite(s.build_warehouse()))
    finally:
        s.LINEITEM_ROWS, s.ORDERS_ROWS, s.CUSTOMER_ROWS = saved


class TestSuite:
    def test_covers_aggregation_and_tpch(self):
        names = list(sentinel.suite_queries())
        assert "agg_1" in names and "agg_max" in names
        assert {"Q1", "Q3", "Q6"} <= set(names)

    def test_run_is_deterministic(self, measured):
        again = sentinel.run_suite(sentinel.build_warehouse())
        assert again == measured

    def test_entries_have_stages_and_counters(self, measured):
        for entry in measured.values():
            assert entry["sim_seconds"] > 0
            assert entry["stages"]
            assert entry["counters"]["tasks.launched"] > 0


class TestCompare:
    def test_identical_run_passes(self, measured):
        baseline = sentinel.baseline_document(measured)
        regressions, info = sentinel.compare(baseline, measured, 0.25)
        assert regressions == []
        assert all(line.startswith("ok ") for line in info)

    def test_regression_flagged_with_attribution(self, measured):
        baseline = sentinel.baseline_document(copy.deepcopy(measured))
        current = copy.deepcopy(measured)
        entry = current["agg_7"]
        entry["sim_seconds"] *= 2.0
        entry["stages"][0]["sim_seconds"] += entry["sim_seconds"] / 2
        entry["stages"][0]["records_in"] *= 3
        regressions, __ = sentinel.compare(baseline, current, 0.25)
        assert len(regressions) == 1
        line = regressions[0]
        assert line.startswith("REGRESSION agg_7 +100%")
        assert "stage" in line and "sim-s" in line  # attribution
        assert "rows in x3.0" in line

    def test_improvement_and_new_query_are_informational(self, measured):
        baseline = sentinel.baseline_document(copy.deepcopy(measured))
        current = copy.deepcopy(measured)
        current["agg_1"]["sim_seconds"] /= 2.0
        current["extra"] = copy.deepcopy(current["agg_1"])
        regressions, info = sentinel.compare(baseline, current, 0.25)
        assert regressions == []
        assert any(line.startswith("IMPROVED agg_1") for line in info)
        assert any(line.startswith("new extra") for line in info)

    def test_missing_query_fails(self, measured):
        baseline = sentinel.baseline_document(measured)
        current = {
            name: entry
            for name, entry in measured.items()
            if name != "Q6"
        }
        regressions, __ = sentinel.compare(baseline, current, 0.25)
        assert any(line.startswith("MISSING Q6") for line in regressions)


class TestCli:
    def test_write_then_pass_then_regress(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            sentinel.main(["--write-baseline", "--baseline", str(baseline)])
            == 0
        )
        document = json.loads(baseline.read_text())
        assert document["version"] == sentinel.BASELINE_VERSION
        assert len(document["queries"]) == 7

        assert sentinel.main(["--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "all queries within threshold" in out

        # A tightened threshold plus a doctored baseline must fail with
        # a per-stage attribution line and nonzero exit.
        for entry in document["queries"].values():
            entry["sim_seconds"] *= 0.5
            for stage in entry["stages"]:
                stage["sim_seconds"] *= 0.5
        baseline.write_text(json.dumps(document))
        assert sentinel.main(["--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "stage" in out

    def test_missing_baseline_is_distinct_exit(self, tmp_path, capsys):
        code = sentinel.main(
            ["--baseline", str(tmp_path / "nope.json")]
        )
        assert code == 2

    def test_bad_version_is_distinct_exit(self, tmp_path, capsys):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"version": 0, "queries": {}}))
        assert sentinel.main(["--baseline", str(path)]) == 2

    def test_memory_cap_regression_gets_doctor_attribution(
        self, tmp_path, capsys, monkeypatch
    ):
        """A failing sentinel run ends with query-doctor root causes, and
        the seeded regression — ``--memory-cap 16384`` against an
        uncapped baseline — is attributed to the spills it forced, not
        just to a slower stage.

        Runs at full suite size (overriding the autouse shrink): the cap
        is sized to the full suite's partial aggregates."""
        monkeypatch.setattr(sentinel, "LINEITEM_ROWS", 100_000)
        monkeypatch.setattr(sentinel, "ORDERS_ROWS", 25_000)
        monkeypatch.setattr(sentinel, "CUSTOMER_ROWS", 2_500)
        baseline = tmp_path / "baseline.json"
        assert (
            sentinel.main(["--write-baseline", "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()
        code = sentinel.main(
            [
                "--baseline", str(baseline),
                "--memory-cap", "16384", "--threshold", "0.25",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION agg_max" in out  # the CI grep contract survives
        assert "== query doctor" in out
        assert "[spill-appeared]" in out
        assert "top root cause across corpus: spill-appeared" in out

    def test_event_log_out_streams_suite(self, tmp_path):
        from repro.obs.history import HistoryStore

        baseline = tmp_path / "baseline.json"
        log = tmp_path / "suite.jsonl"
        sentinel.main(
            [
                "--write-baseline",
                "--baseline",
                str(baseline),
                "--event-log-out",
                str(log),
            ]
        )
        store = HistoryStore.load(log)
        assert len(store.queries) == 7
