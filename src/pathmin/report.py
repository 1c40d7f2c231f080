"""Search result record shared by every search strategy, and the JSON and
CSV artifact formats every writer uses."""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np


@dataclass
class SearchReport:
    """Outcome of one budgeted minimum search.

    method is the search's name as `pathmin search --method` spells it;
    wall_time covers the search loop only, not path construction; queries
    counts oracle evaluations including repeats at the same time.
    """

    argmin_t: float
    min_value: float
    queries: int
    wall_time: float
    method: str
    params: dict[str, Any] = field(default_factory=dict)


def write_json(path: str, payload: dict[str, Any]) -> None:
    """Write payload as indent-2, sorted-key JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, header: list[str], rows) -> None:
    """Write the header row, then each row: floats (Python or numpy) at 17
    significant digits, ints, strings and "" as they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{x:.17g}" if isinstance(x, (float, np.floating)) else x
                        for x in row])
