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
import sys
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
# the decimal exponents e of nonzero floats are -324..308, at e + _E0 in the
# tables of number_field; zero has the slot after them
_E0, _ZERO = 324, 633


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
def _digit_groups():
    """Each 4-digit group g = 0..9999 as its text (four bytes in one uint32),
    the same with its leading zeros as NUL, and its count of trailing zeros
    (4 for g = 0)."""
    d = np.arange(10000)
    text = np.empty((10000, 4), np.uint8)
    for j in range(4):
        text[:, j] = d // 10 ** (3 - j) % 10 + 48
    head = text * (d[:, None] >= 10 ** np.arange(3, -1, -1))
    zeros = sum(d % 10**j == 0 for j in range(1, 5)).astype(np.uint8)
    return text.view(np.uint32).ravel(), head.view(np.uint32).ravel(), zeros


def _word(text: str, at: int) -> int:
    """text as the bytes at, at + 1, ... of a little-endian word."""
    return int.from_bytes(text.encode(), "little") << 8 * at


def _fill(byte: int, lo: int, hi: int) -> int:
    """byte in bytes lo..hi - 1 of a little-endian row, as one integer."""
    return int.from_bytes(bytes(lo) + bytes([byte]) * (hi - lo), "little")


@lru_cache(maxsize=1)
def _column_tables():
    """The lookup tables of number_field, built on its first call; None where
    long double is not the x87 format of 64 significand bits, so that every
    value goes to CPython (a wider long double is emulated in software), or
    where words are not little-endian.

    number_field lays a value's text out in a row of 32 bytes, four
    little-endian words, with NUL wherever nothing is written: byte 0 the
    sign; bytes 1-5 the "0." and zeros before the digits of a fixed-form
    value below 1, or the "0" of zero; byte 7 the first digit d0 and bytes
    8-23 the digits d1..d16; bytes 24-28 the exponent.  A value with lead
    digits before its point (1 in exponent form) has them moved down one
    byte, to bytes 6..5+lead, and the point written at byte 6 + lead when
    a digit follows it; digits past the last nonzero one are NUL.  By
    e + _E0 (zero at _ZERO) the tables give the prefix and exponent words,
    lead (18 for zero, which keeps no digit) and the first byte the text
    may use; by 18 lead + last, last the count of digits up to the last
    nonzero one, the masks of the bytes taken from the moved row and from
    the row as it is, and the point."""
    if np.finfo(np.longdouble).nmant != 63 or sys.byteorder != "little":
        return None
    pow10 = _nearest_longdoubles(range(_K_LO, _K_HI + 1))
    prefix = np.zeros(_ZERO + 1, np.uint64)
    exponent = np.zeros(_ZERO + 1, np.uint64)
    lead = np.ones(_ZERO + 1, np.intp)  # exponent form
    start = np.full(_ZERO + 1, 6)
    for e in range(-324, 309):
        if -4 <= e < 0:
            lead[e + _E0], start[e + _E0] = 0, 5 + e
            prefix[e + _E0] = _word("0." + "0" * (-e - 1), 5 + e)
        elif 0 <= e <= 16:
            lead[e + _E0] = e + 1
        else:
            exponent[e + _E0] = _word("e%+03d" % e, 0)
    prefix[_ZERO], lead[_ZERO], start[_ZERO] = _word("0", 5), 18, 5
    masks = np.zeros((19 * 18, 9), np.uint64)
    for q in range(18):  # q digits before the point
        for last in range(18):
            moved = _fill(255, 6, 6 + q)
            kept = _fill(255, 0, 6) | _fill(255, 7 + q, 7 + max(last, q))
            point = _fill(46, 6 + q, 7 + q) if 0 < q < last else 0
            masks[18 * q + last] = [w >> 64 * i & 2**64 - 1 for w in (moved, kept, point) for i in range(3)]
    masks[18 * 18 :, 3] = _fill(255, 0, 6)  # zero: the sign and its "0"
    return pow10, _digit_groups(), prefix, exponent, lead, start, masks


def number_field(x: np.ndarray, plus: bool = False, quote: bool = False) -> np.ndarray:
    """The bytes of FMT17 % v (or "%+.17g" % v with plus=True) for each
    float64 v of x, one NUL-padded row each, at most 29 bytes wide; quote=True
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
    from a table of 4-digit groups, and every form of text is laid out from
    them by the same word masks (see _column_tables); the row keeps only the
    bytes that some value of x writes.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    tables = _column_tables()
    if tables is None:
        out = np.empty((n, _WIDTH), np.uint8)
        lo, hi, hand = 0, _WIDTH, np.arange(n)
    else:
        pow10, (text, _, zeros), prefix, exponent, lead, start, masks = tables
        a = np.abs(x)
        zero = a == 0
        live = np.isfinite(a) & ~zero
        a = np.where(live, a, 1.0)
        e = np.floor(np.log10(a)).astype(np.int64)
        a = a.astype(np.longdouble)
        scaled = a * pow10[16 - _K_LO - e]
        whole = scaled.astype(np.int64)
        off = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
        fix = np.flatnonzero(off)
        if fix.size:
            e[fix] += off[fix]
            scaled[fix] = a[fix] * pow10[16 - _K_LO - e[fix]]
            whole[fix] = scaled[fix].astype(np.int64)
        frac = (scaled - whole).astype(np.float64)
        hand = np.flatnonzero(~(live | zero) | (np.abs(frac - 0.5) <= _MARGIN))
        whole += frac > 0.5
        carry = whole == 10**17  # rounded up to 18 digits: 10^16 at e + 1
        whole[carry], e[carry] = 10**16, e[carry] + 1
        e += _E0
        e[zero] = _ZERO
        # the 17 digits: d0, then the 4-digit groups g0..g3 on each row of g
        top = whole // 10**8
        d0 = top // 10**8
        g = np.empty((n, 4), np.int64)
        for j, eight in ((0, top - d0 * 10**8), (2, whole - top * 10**8)):
            g[:, j] = eight // 10**4
            g[:, j + 1] = eight - g[:, j] * 10**4
        # the digits up to the last nonzero one: 17 less the trailing zeros of the groups
        z, tz = g == 0, np.take(zeros, g)
        last = 17 - (tz[:, 3] + z[:, 3] * (tz[:, 2] + z[:, 2] * (tz[:, 1] + z[:, 1] * tz[:, 0])))
        # the row's first three words: sign, prefix and d0, then d1..d8 and d9..d16
        sign = np.where(np.signbit(x), np.uint64(45), np.uint64(43 if plus else 0))
        digits = np.take(text, g).view(np.uint64)
        row = (np.take(prefix, e) | sign | (d0.view(np.uint64) + 48) << 56, digits[:, 0], digits[:, 1])
        m = np.take(masks, np.take(lead, e) * 18 + last, axis=0)
        words = np.take(exponent, e)
        lo = 0 if sign.any() else np.take(start, e).min(initial=6)
        hi = 29 if words.any() else 24
        out = np.empty((n, 4), np.uint64)
        for i in range(3):
            moved = row[i] >> 8 | row[i + 1] << 56 if i < 2 else row[i] >> 8
            out[:, i] = moved & m[:, i] | row[i] & m[:, 3 + i] | m[:, 6 + i]
        if hi > 24:
            out[:, 3] = words
        out = out.view(np.uint8)
    if hand.size:
        fmt = "%+.17g" if plus else FMT17
        write = (lambda v: fmt % v if math.isfinite(v) else json17(v)) if quote else fmt.__mod__
        texts = list(map(write, x[hand].tolist()))
        lo = min(lo, hi - max(map(len, texts)))
        texts = np.array(texts, dtype="S%d" % (hi - lo))
        out[hand, lo:hi] = texts.view(np.uint8).reshape(-1, hi - lo)
    return out[:, lo:hi]


# --- the table writer ---------------------------------------------------------
#
# table_blocks writes every table from one row layout, by one of two routes
# that write the same bytes.  A table of at least COLUMN_ROUTE_SIZE rows
# (matrix entries, grid cells), and a quoted (JSON) table with inf or nan in
# a number column, takes the column route: number_field writes each float
# column and the rows are joined _BLOCK_ROWS at a time.  A smaller table is
# one % over its row template repeated n times.  The column route's fixed
# cost is about 75 us a float column, so it overtakes the per-value route at
# about 200 rows for a RootReport, 300 for a sequence and 200-250 for a
# matrix or a spectrum grid (2-vCPU Xeon, numpy 2.4.6); at 512 rows each
# writer is 30-45% faster
COLUMN_ROUTE_SIZE = 512
# the column route writes a table this many rows at a time, which bounds the
# temporaries of a block near 1 MB
_BLOCK_ROWS = 4096


# a float column of a row layout, written by FMT17, or by "%+.17g" with
# plus=True; where it equals the column same, laid out earlier in the row with
# the same plus, bit for bit, the column route copies that column's text
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
                        texts = number_field(x[rest], f.plus, quote)
                        # the two fields may differ in width: NUL-pad both to the wider
                        width = max(part.shape[1], texts.shape[1])
                        part = np.pad(part, ((0, 0), (0, width - part.shape[1])))
                        part[rest] = np.pad(texts, ((0, 0), (0, width - texts.shape[1])))
                written[id(f.column)] = part
            parts.append(part)
        # every field into its columns of one block, NULs dropped from the joined text
        block = np.empty((j - i, sum(part.shape[-1] for part in parts)), np.uint8)
        at = 0
        for part in parts:
            block[:, at : at + part.shape[-1]] = part
            at += part.shape[-1]
        yield block.tobytes().translate(None, b"\0").decode("ascii")


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
    """The decimal texts of a range of positive row numbers, one NUL-padded
    row each, from the 4-digit groups of each number."""
    text, head, _ = _digit_groups()
    k = np.arange(rows.start, rows.stop)
    width = len(str(rows.stop - 1))
    groups = -(-width // 4)
    out = np.empty((k.size, groups), np.uint32)
    ahead = np.ones(k.size, bool)  # no nonzero digit yet: leading zeros are NUL
    for j in range(groups):
        g = k // 10 ** (4 * (groups - 1 - j)) % 10000
        out[:, j] = np.where(ahead, head[g], text[g])
        ahead &= g == 0
    return out.view(np.uint8)[:, 4 * groups - width :]


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
