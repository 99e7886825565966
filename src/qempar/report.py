"""Aggregation of run metrics into rate-by-router report rows.

Rows carry the mean end-to-end delay, mean per-delivered energy, and mean
delivery ratio over seeds, sorted by (rate, router). Delay and energy means
skip runs that delivered nothing, and the delivery-ratio mean skips runs that
generated nothing; a cell with no run to average reports an empty value
rather than NaN. CSV and JSON renderings of the same rows are
byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import json

COLUMNS = ["rate_pkts_per_s", "router", "mean_delay_s", "mean_energy_j",
           "delivery_ratio", "n_seeds"]


def aggregate(cells: dict) -> list[dict]:
    """Collapse {(rate, router, seed): RunMetrics} into per-(rate, router)
    rows averaged over seeds."""
    if not cells:
        raise ValueError("nothing to aggregate")
    groups: dict[tuple, list] = {}
    for (rate, router, _seed), metrics in cells.items():
        groups.setdefault((rate, router), []).append(metrics)
    rows = []
    for (rate, router) in sorted(groups):
        runs = groups[(rate, router)]
        delays = [m.mean_delay_s for m in runs if m.mean_delay_s is not None]
        energies = [m.mean_energy_j for m in runs if m.mean_energy_j is not None]
        ratios = [m.delivery_ratio for m in runs if m.delivery_ratio is not None]
        rows.append({
            "rate_pkts_per_s": rate,
            "router": router,
            "mean_delay_s": sum(delays) / len(delays) if delays else None,
            "mean_energy_j": sum(energies) / len(energies) if energies else None,
            "delivery_ratio": sum(ratios) / len(ratios) if ratios else None,
            "n_seeds": len(runs),
        })
    return rows


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(rows: list[dict], fmt: str = "csv") -> str:
    """Render aggregated rows as CSV (header + one line per row) or JSON (an
    array of row objects). Floats use repr so values round-trip exactly."""
    if not rows:
        raise ValueError("cannot emit an empty report")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for row in rows:
            writer.writerow([_cell_text(row[c]) for c in COLUMNS])
        return buf.getvalue()
    if fmt == "json":
        ordered = [{c: row[c] for c in COLUMNS} for row in rows]
        return json.dumps(ordered, indent=2) + "\n"
    raise ValueError(f"unknown report format '{fmt}'")
