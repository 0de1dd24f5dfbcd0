"""Run reports: one machine-readable and one human-readable rendering, and the CSV writer.

Both renderings are generated from the same nested mapping, so they agree
field for field. Report files contain no wall-clock data; elapsed time is a
console-only side channel so repeated runs produce byte-identical artifacts.
"""

import json
from dataclasses import dataclass, field


@dataclass
class RunReport:
    scenario: str
    task: str
    version: str
    config: dict
    outcome: dict = field(default_factory=dict)
    certificate: dict = None
    envelope: dict = None
    comparison: dict = None
    conflict: bool = False
    artifacts: list = field(default_factory=list)

    def to_dict(self):
        out = {
            "scenario": self.scenario,
            "task": self.task,
            "version": self.version,
            "outcome": self.outcome,
            "config": self.config,
            "artifacts": sorted(self.artifacts),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.envelope is not None:
            out["envelope"] = self.envelope
        if self.comparison is not None:
            out["comparison"] = self.comparison
        if self.conflict:
            out["conflict"] = True
        return out


def write_csv(fileobj, header, values):
    """Write a CSV file in one write: the header names, then values in rows of len(header).

    values is flat, row after row: Python floats, written as their repr at
    full precision (str and repr agree on them), ints, or strings written as
    they are. Every CSV artifact is written here.
    """
    line = ",".join(["%s"] * len(header)) + "\n"
    fileobj.write(",".join(header) + "\n" + (line * (len(values) // len(header))) % tuple(values))


def _flatten(prefix, value, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], lines)
    elif isinstance(value, (list, tuple)):
        if not value:
            lines.append(f"{prefix}: []")
        else:
            for i, item in enumerate(value):
                _flatten(f"{prefix}[{i}]", item, lines)
    elif isinstance(value, float):
        lines.append(f"{prefix}: {float(value)!r}")
    else:
        lines.append(f"{prefix}: {value}")


def render_human(report):
    """Line-oriented rendering: sorted dotted keys, full-precision floats."""
    lines = []
    _flatten("", report.to_dict(), lines)
    return "\n".join(lines) + "\n"


def render_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True, default=_default) + "\n"


def _default(obj):
    if hasattr(obj, "to_dict"):
        return obj.to_dict()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)
