"""Run manifests and table output.

A RunManifest records everything needed to reproduce a run bit-for-bit:
seed, space and schedule descriptors, truncation window, operation name and
parameters, and the emitted statistics.  Wall-clock time lives in a separate
metadata field so reproducibility checks can compare the rest byte-wise.
Manifests are serialized as JSON lines; tables as RFC-4180 CSV with floats
printed to 17 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable

MANIFEST_VERSION = 1


def fmt17(x) -> str:
    """Canonical text form: 17 significant digits for floats, str otherwise."""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def csv_body(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """Render a table to CSV text (RFC-4180-style quoting, CRLF endings)."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([fmt17(v) for v in row])
    return buf.getvalue()


@dataclass
class RunManifest:
    """Reproducibility record of one operation run."""

    operation: str
    seed: int | None = None
    space: dict | None = None
    schedule: dict | None = None
    params: dict = field(default_factory=dict)
    window: list[int] | None = None
    statistics: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def to_json(self) -> str:
        # the fields as they are: dataclasses.asdict would deep-copy every
        # statistic first, 12x slower on a million density cells
        return json.dumps(vars(self), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunManifest":
        """Parse one manifest line; bad JSON, a value that is not an object
        and a missing or non-string ``operation`` raise ValueError."""
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError("a manifest must be a JSON object")
        if "operation" not in data:
            raise ValueError("manifest has no 'operation'")
        if not isinstance(data["operation"], str):
            raise ValueError(f"manifest 'operation' must be a string, got {data['operation']!r}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown manifest keys: {sorted(unknown)}")
        return cls(**data)


def append_manifest(path: str | Path, manifest: RunManifest) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(manifest.to_json() + "\n")


def read_manifests(path: str | Path) -> list[RunManifest]:
    """The manifests of a JSON-lines file; a bad line raises ValueError
    naming ``path:line``."""
    out = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                out.append(RunManifest.from_json(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
    return out
