"""Per-step convergence records shared by the sequence and algebra engines.

Every convergence table in the package is a RootReport: the columns
``value``, ``root`` = value^(1/k) and ``running_min`` of the roots, with
step k at index k - 1.  The running minimum is the certified upper bound
for the limit of the root sequence after k steps.  The one table writer,
table_blocks, which writes every CSV and JSON table from a single row
layout by either of its two routes, its exact FMT17 column kernel and the
headed-CSV row reader that the other modules share live here too.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, islice

import numpy as np


# 17 significant digits: every float reads back exactly
FMT17 = "%.17g"


def fmt17(x: float) -> str:
    """Format a float with FMT17 (round-trip exact)."""
    return FMT17 % float(x)


def json17(x: float) -> str:
    """A number as JSON writes it: FMT17, with inf, -inf and nan quoted as
    strings, as strict JSON has no such literals."""
    text = FMT17 % x
    return text if math.isfinite(x) else '"%s"' % text


# --- exact FMT17 columns ------------------------------------------------------

# the longest %+.17g text: -1.2345678901234567e-308
_WIDTH = 24
# how far the fraction of the scaled value must lie from 1/2 (see number_field)
_MARGIN = 0.0125
# power-of-ten table: 10^k for k = 16 - e, e one past every float's decimal exponent
_K_LO, _K_HI = -293, 341
# an exponent-form value is laid out as form _EXP, zero as form _ZERO, and a
# fixed-form value with decimal exponent e in [-4, 16] as form e + 4
_EXP, _ZERO = 21, 22


def _nearest_longdoubles(ks) -> np.ndarray:
    """The long doubles nearest to 10^k for each k, ties to even (64
    significand bits): m * 2^s with m the rounded 64-bit quotient."""
    ms, ss = [], []
    for k in ks:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length() - 63
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        if num < den << 63:  # now 2^63 <= num / den < 2^64
            num, s = num << 1, s - 1
        m, r = divmod(num, den)
        m += 2 * r > den or (2 * r == den and m & 1)
        if m == 2**64:
            m, s = 2**63, s + 1
        ms.append(m)
        ss.append(s)
    return np.ldexp(np.array(ms, dtype=np.uint64).astype(np.longdouble), ss)


@lru_cache(maxsize=1)
def _column_tables():
    """The lookup tables of number_field, built on its first call; None where
    long double is not the x87 format of 64 significand bits, so that every
    value goes to CPython (a wider long double is emulated in software)."""
    if np.finfo(np.longdouble).nmant != 63:
        return None
    pow10 = _nearest_longdoubles(range(_K_LO, _K_HI + 1))
    # each 4-digit group as text, and with its trailing zeros as NUL
    d = np.arange(10000, dtype=np.uint16)
    full = np.empty((10000, 4), np.uint8)
    stripped = np.empty((10000, 4), np.uint8)
    for j in range(4):
        full[:, j] = d // 10 ** (3 - j) % 10 + 48
        stripped[:, j] = full[:, j] * (d % 10 ** (4 - j) != 0)
    exponents = np.array(["e%+03d" % e for e in range(-324, 309)], dtype="S8")
    # a row of the source block: 0-15 the digits d1..d16, 16-31 the same with
    # trailing zeros as NUL, 32 d0, 33 the sign, 34 the point, 35 "0",
    # 40-47 the exponent; 47 is always NUL
    unstripped = [32] + list(range(16))
    tail = [32] + list(range(16, 32))
    layouts = np.full((23, _WIDTH), 47, np.intp)
    for form in range(23):
        if form == _ZERO:
            lay = [33, 35]
        elif form == _EXP:
            lay = [33, 32, 34] + tail[1:] + [40, 41, 42, 43, 44]
        elif form >= 4:  # d0..dX, then the point and the fraction
            e = form - 4
            lay = [33] + unstripped[: e + 1] + [34] + tail[e + 1 :]
        else:  # 0.0..0 and all digits
            lay = [33, 35, 34] + [35] * (3 - form) + tail
        layouts[form, : len(lay)] = lay
    return (pow10, full.view(np.uint32).ravel(), stripped.view(np.uint32).ravel(),
            exponents.view(np.uint64), layouts)


def number_field(x: np.ndarray, plus: bool = False, quote: bool = False) -> np.ndarray:
    """The bytes of FMT17 % v (or "%+.17g" % v with plus=True) for each
    float64 v of x, one NUL-padded row of _WIDTH bytes each; quote=True
    writes the non-finite values as json17 does.

    Each finite nonzero |v| is scaled to D = |v| * 10^(16 - e) in [10^16,
    10^17) by the long double nearest to the power of ten, e from log10 and
    corrected once where it is one off.  With 64 significand bits the two
    roundings, of the power and of the product, leave D within
    10^17 * (2 * 2^-64 + 2^-128) < 0.0109 of the exact product.  So where
    the fraction of D lies more than _MARGIN = 0.0125 from 1/2, the nearest
    integer to D is that of the exact product: its 17 digits are those of
    FMT17, correctly rounded.  The rest (about 2.5% of values, every tie
    among them), inf and nan go to CPython's FMT17, and so does every value
    where long double has other than 64 significand bits.  The digits come
    from a table of 4-digit groups, and each value is laid out from them by
    one gather per form: zero, exponent form, or fixed form with the point
    at a given place.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    out = np.empty((n, _WIDTH), np.uint8)
    tables = _column_tables()
    if tables is None:
        hand = np.arange(n)
    else:
        pow10, full, stripped, exponents, layouts = tables
        a = np.abs(x)
        zero = a == 0
        live = np.isfinite(a) & ~zero
        a = np.where(live, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        a = a.astype(np.longdouble)
        scaled = a * pow10[16 - _K_LO - e]
        off = (scaled >= 1e17).astype(np.int64) - (scaled < 1e16)
        fix = np.flatnonzero(off)
        if fix.size:
            e[fix] += off[fix]
            scaled[fix] = a[fix] * pow10[16 - _K_LO - e[fix]]
        whole = scaled.astype(np.int64)
        frac = (scaled - whole).astype(np.float64)
        hand = np.flatnonzero(~(live | zero) | (np.abs(frac - 0.5) <= _MARGIN))
        whole += frac > 0.5
        carry = whole == 10**17  # rounded up to 18 digits: 10^16 at e + 1
        whole[carry], e[carry] = 10**16, e[carry] + 1
        # the 17 digits: d0, then groups g[0..3] of 4
        d0, rest = np.divmod(whole, 10**16)
        g = np.empty((4, n), np.int64)
        g[0], rest = np.divmod(rest, 10**12)
        g[1], rest = np.divmod(rest, 10**8)
        g[2], g[3] = np.divmod(rest, 10**4)
        # the groups, and again with the digits after the last nonzero one as NUL
        src = np.empty((n, 48), np.uint8)
        words = src.view(np.uint32)
        later_zero = np.ones(n, bool)
        for j in (3, 2, 1, 0):
            words[:, j] = full[g[j]]
            words[:, 4 + j] = np.where(later_zero, stripped[g[j]], words[:, j])
            later_zero &= g[j] == 0
        last = 1 + np.count_nonzero(src[:, 16:32], axis=1)  # digits up to the last nonzero one
        form = np.where((e >= -4) & (e <= 16), e + 4, _EXP)
        form[zero] = _ZERO
        # the point stands where a fraction digit follows it
        lead = np.where(form == _EXP, 1, np.maximum(e + 1, 0))
        src[:, 32] = d0 + 48
        src[:, 33] = np.where(np.signbit(x), 45, 43 if plus else 0)
        src[:, 34] = (last > lead) * 46
        src[:, 35] = 48
        src.view(np.uint64)[:, 5] = exponents[e + 324]
        counts = np.bincount(form, minlength=23)
        for f in np.flatnonzero(counts):
            if counts[f] == n:
                out[:] = np.take(src, layouts[f], axis=1)
            else:
                rows = np.flatnonzero(form == f)
                out[rows] = np.take(src[rows], layouts[f], axis=1)
    if hand.size:
        if quote:
            texts = list(map(json17, x[hand].tolist()))
        else:
            fmt = "%+.17g" if plus else FMT17
            texts = [fmt % v for v in x[hand].tolist()]
        out[hand] = np.array(texts, dtype="S%d" % _WIDTH).view(np.uint8).reshape(-1, _WIDTH)
    return out


# --- the table writer ---------------------------------------------------------
#
# table_blocks writes every table from one row layout, by one of two routes
# that write the same bytes.  A table of at least COLUMN_ROUTE_SIZE rows
# (matrix entries, grid cells), and a quoted (JSON) table with inf or nan in
# a number column, takes the column route: number_field writes each float
# column and the rows are joined _BLOCK_ROWS at a time.  A smaller table is
# one % over its row template repeated n times.  The column route's fixed
# cost is about 0.25 ms a column, so it overtakes the per-value route at
# about 300 rows for a RootReport, 500 for a sequence or a spectrum grid and
# 24 x 24 = 576 entries for a matrix (2-vCPU Xeon, numpy 2.4.6); at 1024
# rows each writer is 15-40% faster
COLUMN_ROUTE_SIZE = 1024
# the column route writes a table this many rows at a time, which bounds the
# temporaries of a block near 1 MB
_BLOCK_ROWS = 4096


# a float column of a row layout, written by FMT17, or by "%+.17g" with
# plus=True; where it equals the column same, laid out earlier in the row, bit
# for bit, the column route copies that column's text
Floats = namedtuple("Floats", "column plus same", defaults=(False, None))
# texts[index[i]] on row i of a row layout; index holds integers or booleans
Choice = namedtuple("Choice", "texts index")


def table_blocks(n: int, fields: list, quote: bool = False):
    """Yield the text of a table of n rows, each row laid out by fields: a
    str is written on every row, a range holds the row numbers, a Floats or
    a Choice one entry per row.  quote=True writes inf, -inf and nan as
    json17 does.  A JSON writer ends each row with its separator and trims
    it from the joined text."""
    floats = [f.column for f in fields if isinstance(f, Floats)]
    if n < COLUMN_ROUTE_SIZE and (not quote or np.isfinite(floats).all()):
        yield _per_value_text(n, fields)
        return
    arrays = {id(c): np.asarray(c, dtype=np.float64) for c in floats}
    for i in range(0, n, _BLOCK_ROWS):
        j = min(i + _BLOCK_ROWS, n)
        parts, written = [], {}
        for f in fields:
            if isinstance(f, str):
                part = np.frombuffer(f.encode(), np.uint8)
            elif isinstance(f, range):
                part = _row_numbers(f[i:j])
            elif isinstance(f, Choice):
                texts = np.array(f.texts, dtype="S")
                texts = texts.view(np.uint8).reshape(texts.size, -1)
                part = texts[np.asarray(f.index[i:j], dtype=np.intp)]
            else:
                x = arrays[id(f.column)][i:j]
                if f.same is None:
                    part = number_field(x, f.plus, quote)
                else:
                    part, y = written[id(f.same)], arrays[id(f.same)][i:j]
                    rest = np.flatnonzero(x.view(np.int64) != y.view(np.int64))
                    if rest.size:
                        part = part.copy()
                        part[rest] = number_field(x[rest], f.plus, quote)
                written[id(f.column)] = part
            parts.append(np.broadcast_to(part, (j - i, part.shape[-1])))
        yield np.hstack(parts).tobytes().translate(None, b"\0").decode("ascii")


def _per_value_text(n: int, fields: list) -> str:
    """The per-value route: the row template repeated n times, formatted by
    one % with the entries of the rows interleaved."""
    template, columns = [], []
    for f in fields:
        if isinstance(f, str):
            template.append(f.replace("%", "%%"))
            continue
        if isinstance(f, range):
            template.append("%d")
        elif isinstance(f, Choice):
            template.append("%s")
            f = list(map(f.texts.__getitem__, _as_list(f.index)))
        else:
            template.append("%+.17g" if f.plus else FMT17)
            f = _as_list(f.column)
        columns.append(f)
    flat = [None] * (n * len(columns))
    for j, column in enumerate(columns):
        flat[j :: len(columns)] = column
    return ("".join(template) * n) % tuple(flat)


def _as_list(column):
    """A column as Python numbers: an array's entries, any other sequence as it is."""
    return column.tolist() if isinstance(column, np.ndarray) else column


def _row_numbers(rows: range) -> np.ndarray:
    """The decimal texts of a range of positive row numbers, one NUL-padded row each."""
    k = np.arange(rows.start, rows.stop)
    powers = 10 ** np.arange(len(str(rows.stop - 1)) - 1, -1, -1)
    digits = (k[:, None] // powers % 10 + 48).astype(np.uint8)
    digits[k[:, None] < powers] = 0
    return digits


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

    def _columns(self) -> tuple:
        """k, value, root and running_min as fields of table_blocks; a running
        minimum that is the root, bit for bit (the root set a new minimum, as
        on 84% of the report-tables rows), copies the root's text."""
        return (range(1, len(self) + 1), Floats(self.value), Floats(self.root),
                Floats(self.running_min, same=self.root))

    def to_csv(self) -> str:
        k, value, root, low = self._columns()
        head = "k,%s,root,running_min\n" % self.value_header
        return head + "".join(table_blocks(len(self), [k, ",", value, ",", root, ",", low, "\n"]))

    def to_json(self) -> str:
        """The rows as JSON objects; inf and nan are quoted, as json17 writes them."""
        k, value, root, low = self._columns()
        fields = ['{"k": ', k, ', "%s": ' % self.value_header, value, ', "root": ', root,
                  ', "running_min": ', low, "},\n"]
        return "[\n" + "".join(table_blocks(len(self), fields, quote=True))[:-2] + "\n]\n"


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
