"""Tests for report rows and their two serializations."""

import csv
import json
import math

from lflow.report import (
    REPORT_COLUMNS,
    RunReport,
    write_reports_csv,
    write_reports_json,
)


def make_report(**overrides):
    base = dict(
        run_id="gaussian-deblur-lflow-0",
        task="gaussian-deblur",
        cov_mode="lflow",
        solver="adaptive",
        nfe=142,
        psnr_db=31.25,
        ssim=0.91,
        mse=0.00075,
        wall_ms=812.5,
        seed=0,
        config_hash="0123456789abcdef",
        clamp_events=0,
    )
    base.update(overrides)
    return RunReport(**base)


def test_column_order_is_frozen():
    assert REPORT_COLUMNS == (
        "run_id",
        "task",
        "cov_mode",
        "solver",
        "nfe",
        "psnr_db",
        "ssim",
        "mse",
        "wall_ms",
        "seed",
        "config_hash",
        "clamp_events",
        "status",
    )


def test_ok_reflects_the_status_field():
    assert make_report().ok
    assert not make_report(status="failed:MaxStepsExceededError").ok


def test_csv_layout_and_float_round_trip(tmp_path):
    rep = make_report(psnr_db=10.0 / 3.0)
    path = tmp_path / "report.csv"
    write_reports_csv([rep], path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    # repr-formatted floats survive the text round trip bit for bit.
    assert float(rows[0]["psnr_db"]) == 10.0 / 3.0
    assert rows[0]["status"] == "ok"
    assert rows[0]["nfe"] == "142"


def test_json_mirrors_the_csv_columns(tmp_path):
    rep = make_report()
    path = tmp_path / "report.json"
    write_reports_json([rep], path)
    text = path.read_text()
    assert text.endswith("\n")
    data = json.loads(text)
    assert len(data) == 1
    assert list(data[0]) == list(REPORT_COLUMNS)
    assert data[0]["psnr_db"] == rep.psnr_db
    assert data[0]["seed"] == 0


def test_infinite_psnr_serializes_in_both_formats(tmp_path):
    rep = make_report(psnr_db=float("inf"), mse=0.0)
    csv_path = tmp_path / "exact.csv"
    write_reports_csv([rep], csv_path)
    with open(csv_path, newline="") as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["psnr_db"] == "inf"
    assert float(row["psnr_db"]) == float("inf")

    json_path = tmp_path / "exact.json"
    write_reports_json([rep], json_path)
    assert "Infinity" in json_path.read_text()
    back = json.loads(json_path.read_text())
    assert math.isinf(back[0]["psnr_db"])


def test_multiple_rows_keep_their_order(tmp_path):
    reports = [make_report(run_id=f"r-{i}", seed=i) for i in range(3)]
    path = tmp_path / "rows.csv"
    write_reports_csv(reports, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["run_id"] for r in rows] == ["r-0", "r-1", "r-2"]
    assert [r["seed"] for r in rows] == ["0", "1", "2"]

