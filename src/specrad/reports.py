"""Per-step convergence records shared by the sequence and algebra engines.

Every convergence table in the package is a list of rows
``(k, value, value^(1/k), running minimum of the roots)``.  The running
minimum is the certified upper bound for the limit of the root sequence
after k steps.  The number writers and the headed-CSV row reader that the
other modules share live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def _json_number(x: float) -> str:
    # strict JSON has no inf/nan literals; fall back to strings for them
    if math.isfinite(x):
        return fmt17(x)
    return '"%s"' % fmt17(x)


def csv_rows(text: str, header: str, indexed: bool = False):
    """Yield the data rows of a headed CSV text, each split into its fields.

    Blank lines are skipped and the header is matched case- and
    space-insensitively.  Every row must have as many fields as the
    header; with ``indexed`` the first field must count 1, 2, ... in order.
    Rows are checked as they are yielded, so the first bad row is the one
    reported.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != header:
        raise ValueError("expected header %r" % header)
    names = header.split(",")
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError("bad row %r" % ln)
        if indexed:
            k = int(parts[0])
            if k != i:
                raise ValueError(
                    "row %d has index %s = %d; indices must run 1..N" % (i, names[0], k)
                )
        yield parts


@dataclass(frozen=True)
class ReportEntry:
    k: int
    value: float
    root: float
    running_min: float


@dataclass
class RootReport:
    """Convergence table of k-th roots with their running minimum.

    ``value_header`` names the second column: "value" for raw sequence
    prefixes, "norm" for power-norm reports.
    """

    entries: list[ReportEntry] = field(default_factory=list)
    value_header: str = "value"

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def certified_upper(self) -> float:
        """Minimum root seen: a rigorous upper bound for the limit."""
        return self.entries[-1].running_min

    @property
    def last_root(self) -> float:
        return self.entries[-1].root

    def roots(self) -> list[float]:
        return [e.root for e in self.entries]

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def to_csv(self) -> str:
        lines = ["k,%s,root,running_min" % self.value_header]
        for e in self.entries:
            lines.append(
                "%d,%s,%s,%s" % (e.k, fmt17(e.value), fmt17(e.root), fmt17(e.running_min))
            )
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = []
        for e in self.entries:
            rows.append(
                '{"k": %d, "%s": %s, "root": %s, "running_min": %s}'
                % (
                    e.k,
                    self.value_header,
                    _json_number(e.value),
                    _json_number(e.root),
                    _json_number(e.running_min),
                )
            )
        return "[\n" + ",\n".join(rows) + "\n]\n"


def build_report(
    values_log: list[float],
    value_header: str = "value",
    values: list[float] | None = None,
) -> RootReport:
    """Assemble a report from natural-log values (-inf encodes a zero entry).

    When the raw values are available, pass them through ``values`` so the
    value column carries them verbatim instead of an exp/log round trip.
    A value past the float range is reported as inf; its root stays finite.
    """
    entries = []
    running = math.inf
    for i, lv in enumerate(values_log):
        k = i + 1
        if values is not None:
            value = values[i]
        else:
            try:
                value = math.exp(lv) if lv != -math.inf else 0.0
            except OverflowError:
                value = math.inf
        root = math.exp(lv / k) if lv != -math.inf else 0.0
        running = min(running, root)
        entries.append(ReportEntry(k, value, root, running))
    return RootReport(entries, value_header)
