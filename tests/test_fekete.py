import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import fekete, selftest
from specrad.fekete import PrefixSequence


def seq(*values, head=False):
    return PrefixSequence(tuple(values), has_unit_head=head)


class TestCheckSubmultiplicative:
    def test_constant_ones(self):
        assert fekete.check_submultiplicative(seq(*([1.0] * 20))) == []

    def test_linear_growth(self):
        # oracle: j + l + 1 <= (j+1)(l+1) for all pairs, so no violations
        s = seq(*[j + 1 for j in range(1, 51)])
        assert fekete.check_submultiplicative(s) == []

    def test_single_violation(self):
        assert fekete.check_submultiplicative(seq(1.0, 3.0)) == [(1, 1)]

    def test_empty(self):
        assert fekete.check_submultiplicative(seq()) == []

    def test_zero_tail_violation_detected(self):
        # a_5 = 0 but a_7 = 1 cannot be submultiplicative
        s = seq(1, 1, 1, 1, 0, 0, 1)
        assert (2, 5) in fekete.check_submultiplicative(s)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            seq(1.0, -2.0)


class TestRootReport:
    def test_constant_ones(self):
        rep = fekete.root_report(seq(1, 1, 1))
        assert rep.root == [1.0, 1.0, 1.0]
        assert rep.running_min == [1.0, 1.0, 1.0]

    def test_geometric(self):
        rep = fekete.root_report(fekete.geometric_sequence(2.0, 60))
        for r in rep.root:
            assert r == pytest.approx(2.0, rel=1e-12)

    def test_linear_final_root(self):
        rep = fekete.root_report(fekete.poly_sequence(1.0, 1000))
        expected = 1001.0 ** (1.0 / 1000.0)  # direct evaluation
        assert rep.root[-1] == pytest.approx(expected, rel=1e-13)
        assert rep.root[-1] == pytest.approx(1.006932, abs=1e-6)

    def test_zero_maps_to_zero_root(self):
        rep = fekete.root_report(seq(1.0, 0.0, 0.0))
        assert rep.root == [1.0, 0.0, 0.0]

    def test_running_min_nonincreasing(self):
        rep = fekete.root_report(fekete.subadd_sequence(-0.3, 0.8, 50))
        mins = rep.running_min
        assert all(a >= b for a, b in zip(mins, mins[1:]))

    def test_roots_bounded_by_first_entry(self):
        s = fekete.subadd_sequence(0.4, 0.7, 60)
        rep = fekete.root_report(s)
        for r in rep.root:
            assert r <= s.values[0] * (1 + 1e-12)


class TestLimitBracket:
    def test_geometric(self):
        upper, estimate = fekete.limit_bracket(fekete.geometric_sequence(2.0, 40))
        assert upper == pytest.approx(2.0, rel=1e-12)
        assert estimate == pytest.approx(2.0, rel=1e-12)

    def test_linear_certified_above_true_limit(self):
        upper, _ = fekete.limit_bracket(fekete.poly_sequence(1.0, 1000))
        assert 1.0 <= upper <= 1.0070
        assert upper == pytest.approx(1001.0 ** (1.0 / 1000.0), rel=1e-13)

    def test_zero_absorbs(self):
        s = seq(1, 1, 1, 1, 0, 0, 0, 0)
        assert fekete.limit_bracket(s) == (0.0, 0.0)

    def test_violation_rejected(self):
        with pytest.raises(ValueError, match="not submultiplicative"):
            fekete.limit_bracket(seq(1.0, 3.0))


class TestSelftestGenerator:
    def test_one_scan_per_sequence(self, monkeypatch):
        scans = []
        scan = fekete.check_submultiplicative
        monkeypatch.setattr(
            fekete, "check_submultiplicative", lambda *args: scans.append(args) or scan(*args)
        )
        assert selftest.check_fekete_generator(np.random.default_rng([0, 0]))
        assert len(scans) == 20

    def test_violation_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(fekete, "subadd_sequence", lambda c, d, n: seq(1.0, 3.0))
        assert selftest.check_fekete_generator(np.random.default_rng(0)) is False


class TestBinomialConvolve:
    def test_zero_sequence_is_identity_up_to_head(self):
        # a_j = 0 for j >= 1: only the j = 0 head term survives, c_n = b_n
        a = seq(*([0.0] * 10), head=True)
        b = fekete.subadd_sequence(0.2, 0.5, 10)
        c = fekete.binomial_convolve(a, b, 10)
        for got, want in zip(c.values, b.values):
            assert got == pytest.approx(want, rel=1e-12)

    def test_all_ones_gives_powers_of_two(self):
        ones = seq(*([1.0] * 30), head=True)
        c = fekete.binomial_convolve(ones, ones, 30)
        for n, v in enumerate(c.values, start=1):
            assert v == pytest.approx(2.0**n, rel=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.25), (2.0, 3.0), (1.0, 0.1)])
    def test_geometric_inputs_binomial_theorem(self, alpha, beta):
        a = fekete.geometric_sequence(alpha, 40)
        b = fekete.geometric_sequence(beta, 40)
        c = fekete.binomial_convolve(a, b, 40)
        for n, v in enumerate(c.values, start=1):
            assert v == pytest.approx((alpha + beta) ** n, rel=1e-11)

    def test_matches_direct_summation(self):
        # independent oracle: exact binomials via math.comb
        a = fekete.subadd_sequence(0.3, 0.4, 20)
        b = fekete.subadd_sequence(-0.2, 0.9, 20)
        c = fekete.binomial_convolve(a, b, 20)
        for n in range(1, 21):
            direct = math.fsum(
                math.comb(n, j) * a.a(j) * b.a(n - j) for j in range(n + 1)
            )
            assert c.values[n - 1] == pytest.approx(direct, rel=1e-12)

    def test_large_n_no_overflow(self):
        ones = seq(*([1.0] * 250), head=True)
        c = fekete.binomial_convolve(ones, ones, 250)
        # 2^250 is representable and exactly the binomial total
        assert c.values[-1] == pytest.approx(2.0**250, rel=1e-10)

    def test_requires_unit_head(self):
        with pytest.raises(ValueError, match="unit_head"):
            fekete.binomial_convolve(seq(1, 1), seq(1, 1, head=True), 2)

    def test_requires_long_enough_prefixes(self):
        with pytest.raises(ValueError, match="too short"):
            fekete.binomial_convolve(
                seq(1, 1, head=True), seq(1, 1, head=True), 5
            )

    def test_output_is_submultiplicative(self):
        a = fekete.subadd_sequence(0.1, 0.3, 30)
        b = fekete.geometric_sequence(0.7, 30)
        c = fekete.binomial_convolve(a, b, 30)
        assert fekete.check_submultiplicative(c) == []


class TestMaxSumBound:
    @pytest.mark.parametrize(
        "t,expected",
        [
            ([0.0, 0.0, 0.0], (0.0, 0.0, True)),
            ([1.0, 1.0], (1.0, 2.0, True)),
            ([3.0, 1.0, 2.0], (3.0, 6.0, True)),
            ([1e308, 1e308], (1e308, math.inf, True)),  # the sum overflows
        ],
    )
    def test_examples(self, t, expected):
        assert fekete.max_sum_bound(t) == expected

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            fekete.max_sum_bound([])

    def test_negative_is_error(self):
        with pytest.raises(ValueError):
            fekete.max_sum_bound([1.0, -0.5])


# --- generator-driven properties ------------------------------------------

subadd_params = st.tuples(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=40, deadline=None)
@given(subadd_params)
def test_subadd_family_is_submultiplicative(params):
    c, d = params
    s = fekete.subadd_sequence(c, d, 40)
    assert fekete.check_submultiplicative(s) == []
    upper, _ = fekete.limit_bracket(s)
    assert upper >= math.exp(c) * (1 - 1e-12)


@settings(max_examples=40, deadline=None)
@given(subadd_params)
def test_power_index_bound(params):
    # a_{p*k} <= (a_k)^p on the prefix
    s = fekete.subadd_sequence(*params, 48)
    a = s.values
    for k in range(1, 25):
        for p in range(1, len(a) // k + 1):
            assert a[p * k - 1] <= a[k - 1] ** p * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(subadd_params)
def test_division_algorithm_bound(params):
    # n = p*k + r  ==>  a_n <= (a_k)^p * (a_1)^r
    s = fekete.subadd_sequence(*params, 48)
    a = s.values
    for k in range(1, len(a) + 1):
        for n in range(k, len(a) + 1):
            p, r = divmod(n, k)
            assert a[n - 1] <= a[k - 1] ** p * a[0] ** r * (1 + 1e-9)


@settings(max_examples=25, deadline=None)
@given(subadd_params, subadd_params)
def test_convolution_preserves_submultiplicativity(pa, pb):
    a = fekete.subadd_sequence(*pa, 30)
    b = fekete.subadd_sequence(*pb, 30)
    c = fekete.binomial_convolve(a, b, 30)
    assert fekete.check_submultiplicative(c) == []


@settings(max_examples=30, deadline=None)
@given(subadd_params, st.floats(min_value=0.1, max_value=4.0))
def test_geometric_scaling_scales_certified_upper(params, s):
    base = fekete.subadd_sequence(*params, 40)
    scaled = PrefixSequence(
        tuple(s**j * v for j, v in enumerate(base.values, start=1)),
        has_unit_head=True,
    )
    u_base, _ = fekete.limit_bracket(base)
    u_scaled, _ = fekete.limit_bracket(scaled, tol_rel=1e-7)
    assert u_scaled == pytest.approx(s * u_base, rel=1e-12)


# --- CSV interface ----------------------------------------------------------

def test_sequence_csv_round_trip():
    s = fekete.subadd_sequence(0.25, 0.5, 12)
    text = fekete.sequence_to_csv(s)
    back = fekete.read_sequence_csv(text)
    assert back.values == s.values


def test_sequence_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        fekete.read_sequence_csv("a,b\n1,2\n")


def test_root_report_csv_schema():
    text = fekete.root_report(seq(2.0, 4.0)).to_csv()
    lines = text.splitlines()
    assert lines[0] == "k,value,root,running_min"
    assert lines[1].startswith("1,2,")


# --- binomial convolution against the term-by-term loop ------------------------

def _reference_binomial_convolve(a, b, n_out):
    """c_1..c_n_out by the row-by-row loop the blocked numpy version replaced
    (binomial_convolve's checks on its inputs and output are left out)."""
    log_a = [0.0] + [math.log(v) if v > 0.0 else -math.inf for v in a.values[:n_out]]
    log_b = [0.0] + [math.log(v) if v > 0.0 else -math.inf for v in b.values[:n_out]]
    lf = [0.0] * (n_out + 1)
    for i in range(2, n_out + 1):
        lf[i] = lf[i - 1] + math.log(i)

    out = []
    for n in range(1, n_out + 1):
        terms = []
        for j in range(0, n + 1):
            la, lb = log_a[j], log_b[n - j]
            if la == -math.inf or lb == -math.inf:
                continue
            terms.append(lf[n] - lf[j] - lf[n - j] + la + lb)
        if not terms:
            out.append(0.0)
            continue
        pivot = max(terms)
        out.append(math.exp(pivot) * math.fsum(math.exp(t - pivot) for t in terms))
    return tuple(out)


def _outcome(convolve, a, b, n):
    # repr tells nan apart from itself, where == does not; exp(pivot) past
    # the float range must raise alike
    try:
        return repr(convolve(a, b, n))
    except OverflowError as exc:
        return "OverflowError: %s" % exc


def assert_convolve_matches_reference(a, b, n):
    got = _outcome(lambda *args: fekete.binomial_convolve(*args).values, a, b, n)
    assert got == _outcome(_reference_binomial_convolve, a, b, n)


class _Unchecked:
    """PrefixSequence without its checks, to hold nan results."""

    def __init__(self, values, has_unit_head=False):
        self.values = values


def _generated(kind, p, n):
    if kind == "poly":
        return fekete.poly_sequence(3.0 * p, n)
    if kind == "geom":
        return fekete.geometric_sequence(2.0 * p, n)
    return fekete.subadd_sequence(2.0 * p - 1.0, 2.0 * p, n)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["poly", "geom", "subadd"]),
    st.floats(0.0, 1.0),
    st.sampled_from(["poly", "geom", "subadd"]),
    st.floats(0.0, 1.0),
    st.sampled_from([1, 2, 7, 30, 129, 200]),
)
def test_binomial_convolve_matches_reference(kind_a, p, kind_b, q, n):
    assert_convolve_matches_reference(_generated(kind_a, p, n), _generated(kind_b, q, n), n)


@pytest.mark.parametrize("n", [1, 30, 1000])
def test_binomial_convolve_matches_reference_at_size(n):
    assert_convolve_matches_reference(
        fekete.geometric_sequence(0.7, n), fekete.geometric_sequence(0.6, n), n
    )
    assert_convolve_matches_reference(
        fekete.subadd_sequence(-0.3, 0.9, n), fekete.poly_sequence(1.25, n), n
    )


@pytest.mark.parametrize("n", [1, 30, 300])
def test_binomial_convolve_zero_and_infinite_entries(monkeypatch, n):
    zero = fekete.geometric_sequence(0.0, n)  # a_j = 0 for j >= 1
    inf = fekete.geometric_sequence(math.inf, n)
    poly = fekete.poly_sequence(1.0, n)
    # an inf entry makes c_n nan, which PrefixSequence refuses; compare the
    # nan rows too
    monkeypatch.setattr(fekete, "PrefixSequence", _Unchecked)
    for a, b in ((zero, poly), (poly, zero), (zero, zero), (inf, poly), (inf, zero), (inf, inf)):
        assert_convolve_matches_reference(a, b, n)
    # zeros and inf scattered through one prefix
    values = tuple((0.0, math.inf, 5e-324, 2.0)[j % 4] for j in range(n))
    mixed = PrefixSequence(values, has_unit_head=True)
    assert_convolve_matches_reference(mixed, poly, n)
    assert_convolve_matches_reference(zero, mixed, n)
