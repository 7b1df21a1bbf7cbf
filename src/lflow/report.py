"""Run reports and their CSV/JSON serialization.

The columns are RunReport's fields in declaration order; the set and
order are frozen, and a golden-file test guards them. Reports are
deterministic for a given config and seed in every column except
wall_ms, so differencing two report files modulo that column is a
meaningful regression check. PSNR of an exact reconstruction serializes
as inf (CSV) / Infinity (JSON), documented in the README.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields


@dataclass
class RunReport:
    run_id: str
    task: str
    cov_mode: str
    solver: str
    nfe: int
    psnr_db: float
    ssim: float
    mse: float
    wall_ms: float
    seed: int
    config_hash: str
    clamp_events: int
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


REPORT_COLUMNS = tuple(f.name for f in fields(RunReport))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_reports_csv(reports, path) -> None:
    """One header row, then one row per report, columns as REPORT_COLUMNS."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_COLUMNS)
        for rep in reports:
            row = asdict(rep)
            writer.writerow([_format_cell(row[c]) for c in REPORT_COLUMNS])


def write_reports_json(reports, path) -> None:
    """JSON mirror of the CSV: a list of objects with identical keys."""
    payload = [asdict(rep) for rep in reports]
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")

