"""Search result record shared by every search strategy, and the JSON
artifact format every writer uses."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass
class SearchReport:
    """Outcome of one budgeted minimum search.

    wall_time covers the search loop only, not path construction; queries
    counts oracle evaluations including repeats at the same time.
    """

    argmin_t: float
    min_value: float
    queries: int
    wall_time: float
    method: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def write_json(path: str, payload: dict[str, Any]) -> None:
    """Write payload as indent-2, sorted-key JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
