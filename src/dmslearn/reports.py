"""Report emission: line-delimited JSON records and CSV summary grids.

Records carry no timestamps and serialize with sorted keys, so identical
runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .secagg import Transcript

__all__ = [
    "write_report",
    "write_summary_csv",
    "write_transcript",
]


def _plain(value: Any) -> Any:
    """Coerce numpy scalars/arrays so json emits deterministic plain types;
    a non-finite float becomes None, so a report stays strict JSON."""
    if isinstance(value, (float, np.floating)):
        return float(value) if math.isfinite(value) else None
    if isinstance(value, (np.integer, np.bool_)):
        return value.item()  # a Python int or bool
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def write_report(path: str | Path, records: Iterable[dict]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for rec in records:
            line = json.dumps(_plain(rec), sort_keys=True, separators=(",", ":"), allow_nan=False)
            fh.write(line + "\n")
    return path


def write_summary_csv(path: str | Path, rows: Sequence[dict], columns: Sequence[str]) -> Path:
    """One grid as CSV; missing cells stay empty."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(columns), restval="")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _plain(v) for k, v in row.items() if k in columns})
    return path


def write_transcript(path: str | Path, transcript: Transcript) -> Path:
    """Append one JSON line per recorded protocol message to ``path``, with
    sorted keys and no spaces, formatted directly rather than through json."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for e in transcript.entries:
            rest = f'"payload_bytes":{e.payload_bytes},"phase":{json.dumps(e.phase)},'
            rest += f'"round":{e.round_index},"to":'
            fh.writelines(f'{{"from":{s},{rest}{r}}}\n' for s, r in zip(e.senders, e.receivers))
    return path
