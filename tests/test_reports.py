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
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad import fekete, reports
from specrad.fekete import PrefixSequence
from specrad.reports import RootReport, build_report, fmt17, json17, number_field

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
