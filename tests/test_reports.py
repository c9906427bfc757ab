"""The columnar report layer against the row-by-row implementation it replaced.

``_reference_build_report`` and ``_reference_root_report`` are the earlier
row-record implementations, with the earlier number writers
``_reference_fmt17`` and ``_reference_json_number``, kept here as the
specification: every column,
every writer byte and every derived number must match them exactly,
including nan, inf, signed zeros and subnormals.
"""

import math
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad import fekete
from specrad.fekete import PrefixSequence
from specrad.reports import RootReport, _strict_json, build_report, fmt17

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
    assert _strict_json('{"v": %s}' % fmt17(x)) == '{"v": %s}' % _reference_json_number(x)


@settings(max_examples=200, deadline=None)
@given(st.lists(nonnegative, min_size=0, max_size=60))
def test_sequence_json_matches_reference(values):
    rows = ['{"k": %d, "value": %s}' % (k, _reference_json_number(v))
            for k, v in enumerate(map(float, values), 1)]
    want = "[" + ", ".join(rows) + "]\n"
    assert fekete.sequence_to_json(PrefixSequence(tuple(values))) == want
