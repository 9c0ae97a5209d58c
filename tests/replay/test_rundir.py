"""Run-dir reporter: raw/replay.json → results.csv → report.md."""

import csv
import json

import pytest

from repro.errors import ParameterError
from repro.replay.rundir import (
    CSV_COLUMNS,
    run_all,
    to_results_csv,
    write_report,
)
from repro.serve import FabCostQuery, MicroBatchScheduler


@pytest.fixture(scope="module")
def recorded_log(tmp_path_factory):
    log_path = tmp_path_factory.mktemp("traffic") / "traffic.jsonl"
    queries = [FabCostQuery(1e5 * (i % 8 + 1), 0.6 + 0.1 * (i % 3))
               for i in range(60)]
    with MicroBatchScheduler(max_batch_size=16, record=log_path,
                             cache=None) as sched:
        for t in sched.submit_many(queries):
            t.result(timeout=10.0)
    return log_path


class TestRunAll:
    def test_writes_raw_csv_and_report(self, recorded_log, tmp_path):
        run_dir = tmp_path / "run"
        summary = run_all(recorded_log, run_dir, mode="closed")
        assert summary["mismatches"] == 0
        assert summary["result"].n_queries == 60
        assert [p.name for p in (run_dir / "raw").iterdir()] \
            == ["replay.json"]
        doc = json.loads((run_dir / "raw" / "replay.json").read_text())
        assert doc["mismatches"] == 0
        assert doc["n_queries"] == 60

        with open(run_dir / "results.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert len(rows) == 2                       # header + the run
        assert rows[1][rows[0].index("n_queries")] == "60"

        report = (run_dir / "report.md").read_text()
        assert "p50 ms | p95 ms | p99 ms | occupancy" in report
        assert "bitwise equal" in report


class TestRegeneration:
    def test_csv_and_report_regenerate_from_raw(self, recorded_log,
                                                tmp_path):
        run_dir = tmp_path / "run"
        run_all(recorded_log, run_dir, mode="closed")
        (run_dir / "results.csv").unlink()
        (run_dir / "report.md").unlink()
        assert to_results_csv(run_dir).exists()
        assert write_report(run_dir).exists()

    def test_empty_run_dir_raises(self, tmp_path):
        with pytest.raises(ParameterError, match="raw"):
            to_results_csv(tmp_path)
        (tmp_path / "raw").mkdir()
        with pytest.raises(ParameterError, match="raw"):
            write_report(tmp_path)
