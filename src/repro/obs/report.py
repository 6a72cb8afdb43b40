"""RunReport: the serialized outcome of one observed run.

A :class:`RunReport` freezes everything a later reader needs to
interpret a run without its stdout: the configuration, per-phase wall
timings, a snapshot of every metric, the span tree (optional),
paper-vs-measured experiment records (optional) and arbitrary result
payloads.  ``repro-sbst profile`` emits one per invocation and every
benchmark writes one next to its stdout output, so ``BENCH_*.json``
files form a self-describing performance trajectory.

The JSON layout is pinned by ``src/repro/obs/schema.json`` and checked
by :mod:`repro.obs.schema`; :meth:`RunReport.save` refuses to write an
invalid document.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.runtime import Observability
from repro.obs.schema import validate, validate_or_raise

SCHEMA_VERSION = 1


def _tool_info() -> Dict[str, str]:
    from repro import __version__

    return {"name": "repro", "version": __version__}


@dataclass
class RunReport:
    """One run's configuration, timings, metrics and results."""

    kind: str  # "profile" | "benchmark" | "run"
    label: str
    config: Dict[str, Any] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    spans: List[Dict[str, Any]] = field(default_factory=list)
    records: List[Dict[str, str]] = field(default_factory=list)
    sections: List[Dict[str, str]] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    created_unix: float = field(default_factory=time.time)
    schema_version: int = SCHEMA_VERSION
    tool: Dict[str, str] = field(default_factory=_tool_info)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_observability(
        cls,
        obs: Observability,
        kind: str,
        label: str,
        config: Optional[Dict[str, Any]] = None,
    ) -> "RunReport":
        """Snapshot an observability session into a report."""
        return cls(
            kind=kind,
            label=label,
            config=dict(config or {}),
            phases=obs.spans.phases(),
            metrics=obs.registry.snapshot(),
            spans=obs.spans.as_dicts(),
        )

    def add_records(self, records) -> None:
        """Attach experiment records (anything with the
        :class:`~repro.analysis.records.ExperimentRecord` fields)."""
        for record in records:
            self.records.append(
                {
                    "experiment": record.experiment,
                    "quantity": record.quantity,
                    "paper": record.paper,
                    "measured": record.measured,
                    "note": record.note,
                }
            )

    def add_section(self, title: str, body: str) -> None:
        """Mirror one emitted stdout section into the report."""
        self.sections.append({"title": title, "body": body})

    # -- serialization ----------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "tool": dict(self.tool),
            "created_unix": self.created_unix,
            "kind": self.kind,
            "label": self.label,
            "config": self.config,
            "phases": self.phases,
            "metrics": self.metrics,
        }
        if self.spans:
            payload["spans"] = self.spans
        if self.records:
            payload["records"] = self.records
        if self.sections:
            payload["sections"] = self.sections
        if self.results:
            payload["results"] = self.results
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def validation_errors(self) -> List[str]:
        """Schema violations of the serialized form (empty when valid)."""
        return validate(self.as_dict())

    def save(self, path: Union[str, Path]) -> Path:
        """Validate against the checked-in schema, then write JSON."""
        payload = self.as_dict()
        validate_or_raise(payload)
        path = Path(path)
        path.write_text(json.dumps(payload, indent=2) + "\n",
                        encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "RunReport":
        """Read a report back (validating it on the way in)."""
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
        validate_or_raise(payload)
        return cls(
            kind=payload["kind"],
            label=payload["label"],
            config=payload.get("config", {}),
            phases=payload.get("phases", []),
            metrics=payload.get("metrics", {}),
            spans=payload.get("spans", []),
            records=payload.get("records", []),
            sections=payload.get("sections", []),
            results=payload.get("results", {}),
            created_unix=payload["created_unix"],
            schema_version=payload["schema_version"],
            tool=payload["tool"],
        )

    # -- rendering --------------------------------------------------------

    def summary(self) -> str:
        """Human-oriented digest: phases plus the headline metrics."""
        from repro.analysis.tables import format_table

        phase_rows = [
            (p["name"], f"{p['duration_ns'] / 1e6:.2f} ms")
            for p in self.phases
        ]
        out = [format_table(("phase", "wall time"), phase_rows,
                            title=f"run report: {self.label}")]
        metric_rows = []
        for name in sorted(self.metrics):
            snap = self.metrics[name]
            if snap["type"] == "timer":
                value = (f"n={snap['count']} "
                         f"mean={snap['mean_ns'] / 1e3:.1f}us "
                         f"max={(snap['max_ns'] or 0) / 1e3:.1f}us")
            else:
                value = str(snap["value"])
            metric_rows.append((name, snap["type"], value))
        if metric_rows:
            out.append("")
            out.append(format_table(("metric", "type", "value"), metric_rows))
        return "\n".join(out)
