import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import fekete, selftest
from specrad.fekete import PrefixSequence
from specrad.reports import or_inf


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


# --- the pair check against the per-pair loop ------------------------------
# The reference is check_submultiplicative as it was before the comparisons
# moved to numpy; the array check must return the same list, order included.


def _reference_check_submultiplicative(a, tol_rel):
    n = len(a)
    violations = []
    for j in range(1, n // 2 + 1):
        for l in range(j, n - j + 1):
            if a[j + l - 1] > a[j - 1] * a[l - 1] * (1.0 + tol_rel):
                violations.append((j, l))
    return violations


PAIR_ENTRIES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-308, 1e308, math.inf]),
    st.floats(0.0, 8.0),
)


class TestPairCheckAgainstLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(PAIR_ENTRIES, max_size=90),
        st.sampled_from([0.0, 1e-9, 1e-6, -0.5]),
        # one row per block, a few rows per block, and the default
        st.sampled_from([7, 200, fekete._PAIR_BLOCK]),
    )
    def test_same_pairs_in_the_same_order(self, values, tol_rel, block):
        want = _reference_check_submultiplicative(values, tol_rel)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fekete, "_PAIR_BLOCK", block)
            assert fekete.check_submultiplicative(seq(*values), tol_rel) == want

    def test_extra_memory_is_one_block(self):
        # all n^2 / 4 pairs at once held 64 MB at n = 4000
        s = fekete.poly_sequence(1.0, 4000)
        tracemalloc.start()
        try:
            assert fekete.check_submultiplicative(s) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_many_violations_keep_their_order(self):
        # a_j = exp(j^2 / 1000) breaks every pair; blocks must not reorder them
        values = [math.exp(j * j / 1000) for j in range(1, 301)]
        want = _reference_check_submultiplicative(values, 1e-9)
        assert len(want) == 150 * 150
        assert fekete.check_submultiplicative(seq(*values)) == want


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

    def test_empty_prefix_rejected(self):
        # an empty prefix certifies no bound; it gave a header-only report
        with pytest.raises(ValueError, match="empty prefix"):
            fekete.root_report(seq())


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

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError, match="empty prefix"):
            fekete.limit_bracket(seq())


@pytest.mark.parametrize(
    "generate",
    [
        lambda n: fekete.poly_sequence(1.0, n),
        lambda n: fekete.geometric_sequence(0.5, n),
        lambda n: fekete.subadd_sequence(0.1, 0.2, n),
    ],
    ids=["poly", "geom", "subadd"],
)
def test_generators_refuse_a_negative_length(generate):
    assert generate(0) == seq(head=True)
    for n in (-1, -3):
        with pytest.raises(ValueError, match="prefix length must be >= 0, got %d" % n):
            generate(n)


# the generators as they were before they mapped pow and exp over the prefix,
# with or_inf around each entry
def _reference_generated(kind, x, n):
    if kind == "poly":
        values = map(or_inf, repeat(pow), map(float, range(2, n + 2)), repeat(x))
    elif kind == "geom":
        values = map(or_inf, repeat(pow), repeat(float(x)), range(1, n + 1))
    else:
        values = [or_inf(math.exp, x * j + 0.5 * math.sqrt(j)) for j in range(1, n + 1)]
    return PrefixSequence(tuple(values), has_unit_head=True)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["poly", "geom", "subadd"]),
    # entries past the float range from some index on, or none at all
    st.one_of(st.floats(0.0, 400.0), st.sampled_from([0.0, 1e300, math.inf])),
    st.integers(0, 1500),
)
def test_generators_as_per_entry_or_inf(kind, x, n):
    generate = {
        "poly": fekete.poly_sequence,
        "geom": fekete.geometric_sequence,
        "subadd": lambda c, n: fekete.subadd_sequence(c, 0.5, n),
    }[kind]
    assert repr(generate(x, n)) == repr(_reference_generated(kind, x, n))


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


def _reference_division_violations(a):
    # selftest's division-bound loop as it was before it became one array
    # comparison, collecting every broken (k, p, r) instead of stopping
    length = len(a)
    a1_pow = [a[0] ** r for r in range(length)]
    broken = []
    for k in range(2, length + 1):
        for p in range(1, (length - 1) // k + 1):
            ak_pow = a[k - 1] ** p
            for r in range(1, min(k, length - p * k + 1)):
                if a[p * k + r - 1] > ak_pow * a1_pow[r] * (1 + selftest.SLACK):
                    broken.append((k, p, r))
    return broken


def _division_bounds(a):
    # the right-hand side a_k^p * a_1^r * (1 + SLACK) of each (k, p, r)
    length = len(a)
    return {
        (k, p, r): a[k - 1] ** p * a[0] ** r * (1 + selftest.SLACK)
        for k in range(2, length + 1)
        for p in range(1, (length - 1) // k + 1)
        for r in range(1, min(k, length - p * k + 1))
    }


class TestSelftestDivisionBound:
    def test_triples_in_loop_order(self):
        for length in range(0, 50):
            ks, ps, pair, n, r = selftest._division_triples(length)
            triples = [(ks[i] + 1, ps[i], rr) for i, rr in zip(pair.tolist(), r.tolist())]
            want = [
                (k, p, rr)
                for k in range(2, length + 1)
                for p in range(1, (length - 1) // k + 1)
                for rr in range(1, min(k, length - p * k + 1))
            ]
            assert triples == want
            assert n.tolist() == [p * k + rr - 1 for k, p, rr in want]

    def test_passes_as_the_loop(self):
        for seed in range(5):
            rng = np.random.default_rng([seed, 2])
            assert selftest.check_fekete_division_bound(rng)
            rng = np.random.default_rng([seed, 2])
            for _ in range(20):
                s = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 40)
                assert _reference_division_violations(s.values) == []

    @pytest.mark.parametrize("n", [3, 7, 12, 24, 37, 40])
    def test_fails_on_exactly_one_broken_triple(self, monkeypatch, n):
        # raise a_n just past its tightest bound a_k^p * a_1^r: that one
        # (k, p, r) breaks, and a larger a_n only loosens the triples where
        # it stands as a_k
        a = list(fekete.subadd_sequence(0.1, 0.6, 40).values)
        bound = min(x for (k, p, r), x in _division_bounds(a).items() if p * k + r == n)
        a[n - 1] = math.nextafter(bound, math.inf)
        [(k, p, r)] = _reference_division_violations(a)
        assert p * k + r == n
        monkeypatch.setattr(fekete, "subadd_sequence", lambda c, d, n: seq(*a, head=True))
        assert selftest.check_fekete_division_bound(np.random.default_rng(0)) is False
        a[n - 1] = bound
        assert _reference_division_violations(a) == []
        assert selftest.check_fekete_division_bound(np.random.default_rng(0)) is True



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
        # a_0 = b_0 = 1, the unit head, then a_j = values[j - 1]
        av, bv = (1.0,) + a.values, (1.0,) + b.values
        for n in range(1, 21):
            direct = math.fsum(
                math.comb(n, j) * av[j] * bv[n - j] for j in range(n + 1)
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


def _reference_bad_entry(values):
    """The validation loop that PrefixSequence replaced: its message, or None."""
    for i, v in enumerate(values):
        if not v >= 0.0:
            return "entry a_%d = %r is negative or NaN" % (i + 1, v)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, -5e-324]) | st.floats(),
                max_size=12))
def test_entry_check_matches_the_loop(values):
    try:
        seq = PrefixSequence(tuple(values))
    except fekete.BadEntry as exc:
        got = str(exc)
    else:
        got = None
        assert seq.values == tuple(values)
    assert got == _reference_bad_entry(values)
