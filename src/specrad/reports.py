"""Per-step convergence records shared by the sequence and algebra engines.

Every convergence table in the package is a RootReport: the columns
``value``, ``root`` = value^(1/k) and ``running_min`` of the roots, with
step k at index k - 1.  The running minimum is the certified upper bound
for the limit of the root sequence after k steps.  The number writers
and the headed-CSV row reader that the other modules share live here
too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, count, islice


# 17 significant digits: every float reads back exactly
FMT17 = "%.17g"


def fmt17(x: float) -> str:
    """Format a float with FMT17 (round-trip exact)."""
    return FMT17 % float(x)


def _strict_json(text: str) -> str:
    """JSON text whose numbers FMT17 wrote after ": ", with inf, -inf and
    nan quoted as strings, as strict JSON has no such literals; a finite
    number written by FMT17 holds none of these words."""
    for word in ("inf", "-inf", "nan"):
        text = text.replace(": " + word, ': "%s"' % word)
    return text


def csv_rows(text: str, header: str):
    """Yield the data rows of a headed CSV text, each split into its fields.

    Blank lines are skipped and the header is matched case- and
    space-insensitively.  Every row must have as many fields as the
    header, and the first field must count 1, 2, ... in order.  Rows are
    checked as they are yielded, so the first bad row is the one reported.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].lower().replace(" ", "") != header:
        raise ValueError("expected header %r" % header)
    names = header.split(",")
    for i, ln in enumerate(lines[1:], start=1):
        parts = ln.split(",")
        if len(parts) != len(names):
            raise ValueError("bad row %r" % ln)
        k = int(parts[0])
        if k != i:
            raise ValueError(
                "row %d has index %s = %d; indices must run 1..N" % (i, names[0], k)
            )
        yield parts


@dataclass(kw_only=True)
class RootReport:
    """Convergence table of k-th roots with their running minimum.

    The table is stored by column; row k is entry k - 1 of ``value``,
    ``root`` and ``running_min``.  ``value_header`` names the second
    column: "value" for raw sequence prefixes, "norm" for power-norm
    reports.
    """

    value: list[float] | tuple[float, ...] = field(default_factory=list)
    root: list[float] = field(default_factory=list)
    running_min: list[float] = field(default_factory=list)
    value_header: str = "value"

    def __len__(self) -> int:
        return len(self.root)

    @property
    def certified_upper(self) -> float:
        """Minimum root seen: a rigorous upper bound for the limit."""
        return self.running_min[-1]

    def _rows(self, template: str) -> list[str]:
        """Each row as template % (k, value, root, running_min).

        template has %s for the root and the running minimum, which are
        written by FMT17.  A running minimum that is the root object itself
        (the root set a new minimum, as on 84% of the report-tables rows)
        reuses the root's string.
        """
        distinct = template.replace("%s", FMT17)
        rows = []
        append = rows.append
        for k, v, r, m in zip(count(1), self.value, self.root, self.running_min):
            if m is r:
                s = FMT17 % r
                append(template % (k, v, s, s))
            else:
                append(distinct % (k, v, r, m))
        return rows

    def to_csv(self) -> str:
        rows = self._rows("%%d,%s,%%s,%%s" % FMT17)
        rows.insert(0, "k,%s,root,running_min" % self.value_header)
        return "\n".join(rows) + "\n"

    def to_json(self) -> str:
        rows = self._rows('{"k": %%d, "%s": %s, "root": %%s, "running_min": %%s}'
                          % (self.value_header, FMT17))
        return _strict_json("[\n" + ",\n".join(rows) + "\n]\n")


def or_inf(f, *args) -> float:
    """f(*args), or inf when it overflows (float pow and math.exp raise)."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


def build_report(
    values_log: list[float],
    value_header: str = "value",
    values: list[float] | tuple[float, ...] | None = None,
) -> RootReport:
    """Assemble a report from natural-log values (-inf encodes a zero entry).

    When the raw values are available, pass them through ``values`` so the
    value column carries them verbatim instead of an exp/log round trip;
    a tuple is shared, a list is copied.  A value past the float range is
    reported as inf; its root stays finite.
    """
    n = len(values_log)
    exp = math.exp
    if values is not None:
        value = values[:n]
        if len(value) < n:
            raise ValueError("values has %d entries for %d logs" % (len(value), n))
    else:
        try:
            value = list(map(exp, values_log))
        except OverflowError:
            value = [or_inf(exp, lv) for lv in values_log]
    root = [exp(lv / k) for k, lv in enumerate(values_log, 1)]  # exp(-inf) is 0.0
    # min(running, root) at each k, from running = inf: a nan root never
    # becomes the minimum, and a new minimum is the root object itself
    running_min = list(islice(accumulate(root, min, initial=math.inf), 1, None))
    return RootReport(
        value=value, root=root, running_min=running_min, value_header=value_header
    )
