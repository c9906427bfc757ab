"""The columnar report layer against the row-by-row implementation it replaced.

``_reference_build_report`` and ``_reference_root_report`` are the earlier
row-record implementations, with the earlier number writers
``_reference_fmt17`` and ``_reference_json_number``, kept here as the
specification: every column,
every writer byte and every derived number must match them exactly,
including nan, inf, signed zeros and subnormals.
"""

import contextlib
import math
import struct
import subprocess
import sys
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad import fekete, reports, shift
from specrad.fekete import PrefixSequence
from specrad.reports import Choice, Floats, RootReport, build_report, fmt17, json17, number_field
from specrad.shift import WeightedShift

# the row record of the earlier implementation
_Entry = namedtuple("_Entry", "k value root running_min")


def _reference_fmt17(x):
    return format(float(x), ".17g")


def _reference_json_number(x):
    if math.isfinite(x):
        return _reference_fmt17(x)
    return '"%s"' % _reference_fmt17(x)


class _ReferenceReport:
    def __init__(self, entries, value_header):
        self.entries = entries
        self.value_header = value_header

    def to_csv(self):
        lines = ["k,%s,root,running_min" % self.value_header]
        for e in self.entries:
            lines.append(
                "%d,%s,%s,%s"
                % (
                    e.k,
                    _reference_fmt17(e.value),
                    _reference_fmt17(e.root),
                    _reference_fmt17(e.running_min),
                )
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        rows = []
        for e in self.entries:
            rows.append(
                '{"k": %d, "%s": %s, "root": %s, "running_min": %s}'
                % (
                    e.k,
                    self.value_header,
                    _reference_json_number(e.value),
                    _reference_json_number(e.root),
                    _reference_json_number(e.running_min),
                )
            )
        return "[\n" + ",\n".join(rows) + "\n]\n"


def _reference_build_report(values_log, value_header="value", values=None):
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
        entries.append(_Entry(k, value, root, running))
    return _ReferenceReport(entries, value_header)


def _reference_root_report(seq):
    logs = [math.log(v) if v > 0.0 else -math.inf for v in seq.values]
    return _reference_build_report(logs, value_header="value", values=list(seq.values))


def assert_same_report(build, reference):
    """Compare build() with reference(); both must raise OverflowError alike
    (a root past the float range) or agree on every output."""
    try:
        reference = reference()
    except OverflowError:
        with pytest.raises(OverflowError):
            build()
        return
    report = build()
    # repr tells nan, inf and -0.0 apart where == does not
    assert report.to_csv() == reference.to_csv()
    assert report.to_json() == reference.to_json()
    rows = zip(range(1, len(report) + 1), report.value, report.root, report.running_min)
    assert repr(list(rows)) == repr([tuple(e) for e in reference.entries])
    assert repr(report.root) == repr([e.root for e in reference.entries])
    assert repr(list(report.value)) == repr([e.value for e in reference.entries])
    assert len(report) == len(reference.entries)
    if reference.entries:
        assert repr(report.certified_upper) == repr(reference.entries[-1].running_min)
        assert repr(report.root[-1]) == repr(reference.entries[-1].root)


SPECIAL = [
    -math.inf, math.inf, math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
    709.0, 710.0, -745.0, 1.0, -1.0,
]

log_values = st.lists(
    st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(log_values, st.sampled_from(["value", "norm"]))
@example([math.nan, 0.5, 0.25], "value")  # a nan first root never becomes the minimum
@example([-1.0, -3.0, -2.5, -10.0, -math.inf, -1.0], "norm")  # minimum not the root
@example([1.0, 2.0, 5.0], "value")  # roots rise: the minimum stays the first root
@example([], "value")  # the empty table: its JSON is "[\n\n]\n"
def test_build_report_matches_reference(logs, header):
    assert_same_report(
        lambda: build_report(logs, header), lambda: _reference_build_report(logs, header)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(SPECIAL), st.floats()),
            st.one_of(st.sampled_from(SPECIAL), st.floats()),
        ),
        max_size=40,
    )
)
def test_build_report_with_values_matches_reference(pairs):
    logs = [lv for lv, _ in pairs]
    values = [v for _, v in pairs]
    reference = lambda: _reference_build_report(logs, "value", values=values)  # noqa: E731
    assert_same_report(lambda: build_report(logs, "value", values=values), reference)
    assert_same_report(lambda: build_report(logs, "value", values=tuple(values)), reference)


nonnegative = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, math.inf, 1.0, 1.7976931348623157e308]),
    st.floats(min_value=0.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(nonnegative, min_size=1, max_size=60))
def test_root_report_matches_reference(values):
    seq = PrefixSequence(tuple(values))
    assert_same_report(lambda: fekete.root_report(seq), lambda: _reference_root_report(seq))


def test_root_report_of_generated_tables_matches_reference():
    for seq in (
        fekete.poly_sequence(1.5, 3000),
        fekete.geometric_sequence(0.98, 3000),
        fekete.geometric_sequence(0.0, 50),
        fekete.subadd_sequence(0.01, 0.5, 3000),
    ):
        assert_same_report(lambda: fekete.root_report(seq), lambda: _reference_root_report(seq))


def test_short_values_are_refused():
    with pytest.raises(ValueError, match="values"):
        build_report([0.0, 0.0], values=[1.0])


def test_report_fields_are_keyword_only():
    # the columns replaced the positional (entries, value_header) fields;
    # a positional call in the old form must fail, not build a wrong report
    with pytest.raises(TypeError):
        RootReport([_Entry(1, 2.0, 2.0, 2.0)], "norm")
    report = RootReport(value=[2.0], root=[2.0], running_min=[2.0], value_header="norm")
    assert list(zip(report.value, report.root, report.running_min)) == [(2.0, 2.0, 2.0)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)))
def test_number_writers_match_reference(x):
    assert fmt17(x) == _reference_fmt17(x)
    assert json17(x) == _reference_json_number(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(nonnegative, min_size=0, max_size=60))
def test_sequence_json_matches_reference(values):
    rows = ['{"k": %d, "value": %s}' % (k, _reference_json_number(v))
            for k, v in enumerate(map(float, values), 1)]
    want = "[" + ", ".join(rows) + "]\n"
    assert fekete.sequence_to_json(PrefixSequence(tuple(values))) == want


# --- exact FMT17 columns ------------------------------------------------------


def _texts(field):
    """The rows of a NUL-padded byte field as str."""
    width = field.shape[1]
    return [row.replace(b"\0", b"").decode() for row in field.view("S%d" % width).ravel().tolist()]


def _assert_column_exact(values):
    x = np.array(values, dtype=np.float64)
    values = x.tolist()
    assert _texts(number_field(x)) == ["%.17g" % v for v in values]
    assert _texts(number_field(x, plus=True)) == ["%+.17g" % v for v in values]
    assert _texts(number_field(x, quote=True)) == [_reference_json_number(v) for v in values]


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# values within 0.0125 of a tie after scaling, whose scaled product errs by
# more than half of that: a margin below the error bound rounds them wrongly
MARGIN_WITNESSES = [
    7.939067347963485e53, 8.953488296364194e-298, 9.517295581476413e106,
    9.44461390173744e252, 9.87187143742008e-68, 9.616181431119174e-115,
    9.578458247513156e-127, 8.67877411054748e-276,
]


def _corpus():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
              1.7976931348623157e308, -1.7976931348623157e308, 1e-5, 0.5, 123456.0]
    for k in range(-323, 309):  # 10^k and its neighbours
        values += _neighbours(float("1e%d" % k))
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    # where %.17g switches between fixed and exponent form
    values += _neighbours(1e-4) + _neighbours(1e16) + _neighbours(1e17) + [99999999999999999.0]
    # odd multiples of 2^-26 .. 2^-22, among them exact ties at the 18th digit
    values += [math.ldexp(odd, k) for odd in range(1, 200, 2) for k in range(-26, -21)]
    values += MARGIN_WITNESSES
    return values + [-v for v in values]


def test_column_corpus_is_exact():
    corpus = _corpus()
    ties = [v for v in corpus if v > 0 and math.isfinite(v)
            and len(Decimal(v).normalize().as_tuple().digits) == 18
            and Decimal(v).normalize().as_tuple().digits[-1] == 5]
    assert 2.98023223876953125e-08 in ties and len(ties) > 50
    assert "%.17g" % 2**-25 == "2.9802322387695312e-08"  # half to even
    _assert_column_exact(corpus)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300))
def test_column_of_bit_patterns_is_exact(bits):
    _assert_column_exact(np.array(bits, dtype=np.uint64).view(np.float64))


def test_power_of_ten_table_is_nearest():
    tables = reports._column_tables()
    if tables is None:
        pytest.skip("long double does not have 64 significand bits")
    pow10 = tables[0]
    assert len(pow10) == reports._K_HI - reports._K_LO + 1
    for k, p in zip(range(reports._K_LO, reports._K_HI + 1), pow10):
        exact = Fraction(10) ** k
        error = abs(Fraction(*p.as_integer_ratio()) - exact)
        for q in (np.nextafter(p, np.longdouble(0)), np.nextafter(p, np.longdouble(np.inf))):
            assert error <= abs(Fraction(*q.as_integer_ratio()) - exact), k


def test_margin_covers_the_error_bound():
    bound = 10**17 * (2 * Fraction(1, 2**64) + Fraction(1, 2**128))
    assert bound < Fraction(109, 10000) < reports._MARGIN


@contextlib.contextmanager
def column_route():
    """Every table, however small, takes the column route."""
    with mock.patch.object(reports, "COLUMN_ROUTE_SIZE", 0):
        yield


@settings(max_examples=150, deadline=None)
@given(log_values, st.sampled_from(["value", "norm"]))
@example([math.nan, 0.5, 0.25], "value")
@example([-1.0, -3.0, -2.5, -10.0, -math.inf, -1.0], "norm")
@example([], "value")
def test_column_route_matches_reference(logs, header):
    with column_route():
        assert_same_report(
            lambda: build_report(logs, header), lambda: _reference_build_report(logs, header)
        )


@settings(max_examples=100, deadline=None)
@given(st.lists(nonnegative, min_size=0, max_size=60))
def test_column_route_sequence_writers_match_reference(values):
    seq = PrefixSequence(tuple(values))
    want_json = fekete.sequence_to_json(seq)
    want_csv = fekete.sequence_to_csv(seq)
    with column_route():
        assert fekete.sequence_to_json(seq) == want_json
        assert fekete.sequence_to_csv(seq) == want_csv


# --- digit edges ----------------------------------------------------------------


def _digit_edge_corpus():
    """For every form (fixed with e = -4..16, and exponent form) a value whose
    16 fraction digits d1..d16 end in exactly t zeros, for each t = 0..16,
    and floats below each power of ten whose 17 digits round up to 10^17
    and carry into e + 1."""
    rng = np.random.default_rng(17)
    values = []
    for exponents in [[e] for e in range(-4, 17)] + [[-300, -5, 17, 300]]:
        for t in range(17):
            for _ in range(1000):
                e = int(rng.choice(exponents))
                digits = "".join(map(str, rng.integers(1, 10, 2))) + "".join(map(str, rng.integers(0, 10, 14)))
                digits = digits[: 16 - t] + "%d" % rng.integers(1, 10)  # 17 - t digits, the last nonzero
                x = float("%s.%se%d" % (digits[0], digits[1:], e))
                mantissa, exponent = ("%.16e" % x).split("e")
                if int(exponent) == e and mantissa.replace(".", "").rstrip("0") == digits:
                    values.append(x)
                    break
            else:
                raise AssertionError("no value with %d trailing zeros at e in %s" % (t, exponents))
    # the floats nearest 10^k that lie below it by less than half a unit of
    # the 17th digit: they round up to 10^17 at e = k - 1, and carry
    carries = [x for x in map(float, ("1e%d" % k for k in range(-323, 309)))
               if Fraction(x) < Fraction(10) ** round(math.log10(x))
               and ("%.16e" % x).startswith("1.0000000000000000e")]
    assert len(carries) == 14
    return values + carries


def test_digit_edge_corpus_is_exact():
    corpus = _digit_edge_corpus()
    assert len(corpus) == 22 * 17 + 14
    _assert_column_exact(corpus + [-v for v in corpus])


def test_import_builds_no_column_table():
    # the tables are built on the first column written, never at import
    code = ("import specrad.cli; from specrad import reports; "
            "print(reports._column_tables.cache_info().currsize, reports._digit_groups.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


# --- the table writer -------------------------------------------------------------

_FLOATS = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 1e17, 0.1]) | st.floats()


def _reference_table(n, fields, quote):
    """The table, row by row and field by field."""
    out = []
    for i in range(n):
        for f in fields:
            if isinstance(f, str):
                out.append(f)
            elif isinstance(f, range):
                out.append("%d" % f[i])
            elif isinstance(f, Choice):
                out.append(f.texts[int(f.index[i])])
            elif quote and not math.isfinite(f.column[i]):
                out.append(json17(f.column[i]))
            else:
                out.append(("%+.17g" if f.plus else "%.17g") % f.column[i])
    return "".join(out)


@st.composite
def _layouts(draw, n):
    """A row layout of n rows: constants (with %), row numbers, float
    columns (signed, or equal to an earlier column but on a few rows) and
    choices by booleans or integers."""
    fields, floats = [], []
    for kind in draw(st.lists(st.sampled_from("sfrcb"), min_size=1, max_size=7)):
        if kind == "s":
            fields.append(draw(st.text("%,;\"{}[] x9", max_size=4)))
        elif kind == "r":
            start = draw(st.sampled_from([1, 9, 9997, 99999995, 10**12 - 3]) | st.integers(1, 10**9))
            fields.append(range(start, start + n))
        elif kind == "c":
            texts = tuple(draw(st.lists(st.text("ab%,\n", max_size=3), min_size=1, max_size=4)))
            fields.append(Choice(texts, draw(st.lists(st.integers(0, len(texts) - 1), min_size=n, max_size=n))))
        elif kind == "b":
            fields.append(Choice(("false", "true"), np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))))
        elif floats and draw(st.booleans()):
            same = draw(st.sampled_from(floats))
            column = list(same.column)
            for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
                column[i] = draw(_FLOATS)
            fields.append(Floats(column, same.plus, same.column))
            floats.append(fields[-1])
        else:
            column = draw(st.lists(_FLOATS, min_size=n, max_size=n))
            column = np.array(column) if draw(st.booleans()) else column
            fields.append(Floats(column, plus=draw(st.booleans())))
            floats.append(fields[-1])
    return fields


@settings(max_examples=150, deadline=None)
@given(st.data(), st.booleans())
def test_table_blocks_routes_write_the_same_bytes(data, quote):
    # blocks of 8 rows: tables of 7, 8 and 9 rows end inside, on and past a block
    with mock.patch.object(reports, "_BLOCK_ROWS", 8):
        for n in (7, 8, 9):
            fields = data.draw(_layouts(n))
            want = _reference_table(n, fields, quote)
            with column_route():
                assert "".join(reports.table_blocks(n, fields, quote)) == want
            finite = all(np.isfinite(f.column).all() for f in fields if isinstance(f, Floats))
            if finite or not quote:  # quoted inf and nan take the column route at any size
                with mock.patch.object(reports, "COLUMN_ROUTE_SIZE", 10**9):
                    assert "".join(reports.table_blocks(n, fields, quote)) == want


# --- columns held as read-only float64 arrays ------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(nonnegative, max_size=20), st.lists(st.floats(), max_size=5))
def test_cached_arrays_take_no_part_in_eq_hash_repr(is_shift, values, other):
    if is_shift:
        values = sorted(values, reverse=True) or [1.0]
    make = WeightedShift if is_shift else (lambda v: PrefixSequence(v, has_unit_head=True))
    a, b = make(values), make(np.array(values, dtype=np.float64))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert a.array.tolist() == list(a.weights if is_shift else a.values)
    assert "array" not in repr(a)
    # whatever the array holds
    object.__setattr__(b, "array", np.array(other))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)


def test_cached_arrays_are_read_only():
    head = fekete.geometric_sequence(0.5, 4)
    writeable = np.array([2.0, 1.0, 0.5])
    holders = [
        head, fekete.poly_sequence(1.0, 4), fekete.subadd_sequence(0.1, 0.2, 4),
        fekete.binomial_convolve(head, head, 4), PrefixSequence((1.0, 2.0)), PrefixSequence(writeable),
        shift.harmonic_weights(0.5, 1.0, 4), WeightedShift((1.0, 0.5)), WeightedShift(writeable),
    ]
    for holder in holders:
        assert holder.array.dtype == np.float64 and not holder.array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            holder.array[0] = 7.0
    # a writeable array is copied: changing it afterwards changes no holder
    writeable[0] = 7.0
    assert holders[-4].values == holders[-1].weights == (2.0, 1.0, 0.5)
    assert holders[-4].array.tolist() == holders[-1].array.tolist() == [2.0, 1.0, 0.5]


def test_report_prints_the_numbers_its_columns_read():
    # each column reads as a new list of Python floats; the report keeps
    # read-only arrays, so no list read from it, or given to it, changes
    # what it writes
    logs = [0.0, -1.0, -3.0, math.nan]
    report = build_report(logs, "norm")
    csv, json = report.to_csv(), report.to_json()
    for name in ("value", "root", "running_min"):
        column = getattr(report, name)
        assert type(column) is list and {type(v) for v in column} == {float}
        column[0] = 7.0
        assert getattr(report, name)[0] != 7.0
        with pytest.raises(AttributeError):
            setattr(report, name, [7.0] * 4)
    assert (report.to_csv(), report.to_json()) == (csv, json)
    assert type(report.certified_upper) is float
    assert report == build_report(logs, "norm") != build_report(logs, "value")
    assert report != build_report(logs[:3], "norm")
    value, root = np.array([1.0, 2.0]), [1.0, 2.0]
    given = RootReport(value=value, root=root, running_min=tuple(root))
    value[0] = root[0] = 7.0
    assert given.value == given.root == given.running_min == [1.0, 2.0]
    assert given.to_csv() == "k,value,root,running_min\n1,1,1,1\n2,2,2,2\n"
    assert repr(given) == ("RootReport(value=[1.0, 2.0], root=[1.0, 2.0], "
                           "running_min=[1.0, 2.0], value_header='value')")


def test_leading_nan_roots_leave_the_running_minimum_at_inf():
    # min(inf, nan) is inf: each nan root before the first number keeps the start
    logs = [math.nan, math.nan, 0.5, math.nan, -3.0]
    report = build_report(logs)
    assert report.running_min == [math.inf, math.inf, report.root[2], report.root[2], report.root[4]]
    assert_same_report(lambda: build_report(logs), lambda: _reference_build_report(logs))


# --- the rounding model ---------------------------------------------------------

def _next_above(x):
    # the float above x from its bit pattern: one step up in magnitude for
    # x > 0 (the max float's step is inf), one step down for x < 0
    if x == 0:
        return 5e-324
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return struct.unpack("<d", struct.pack("<q", bits + 1 if x > 0 else bits - 1))[0]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, sys.float_info.max]))
def test_round_up_is_the_next_float_above(x):
    up = reports.round_up(x)
    assert up == _next_above(x)
    assert Fraction(up) > Fraction(x) if up < math.inf else x == sys.float_info.max


def test_round_up_keeps_inf():
    assert reports.round_up(math.inf) == math.inf
    assert reports.round_up(-math.inf) == -sys.float_info.max


# the k of a sum of d + 1 or d + 2 terms for every dimension d <= 64, and
# sampled k up to 2^20
GAMMA_KS = sorted({d + j for d in range(65) for j in (1, 2)}
                  | set(np.random.default_rng(38).integers(1, 2**20, 200).tolist()) | {2**20})


def test_gamma_k_bounds_k_u_over_one_minus_k_u_within_two_ulps():
    u = Fraction(reports.UNIT_ROUNDOFF)
    assert u == Fraction(1, 2**53)
    for k in GAMMA_KS:
        exact = k * u / (1 - k * u)
        g = reports.gamma_k(k)
        assert Fraction(g) >= exact, k
        assert Fraction(g) - exact <= 2 * Fraction(math.ulp(g)), k
