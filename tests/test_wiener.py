import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specrad import wiener
from specrad.algebra import Algebra, neumann_inverse, power_norms
from specrad.errors import BudgetExceeded, NotConvergent

E = {0: 1.0 + 0j}
Z = {1: 1.0 + 0j}
COS = {1: 0.5 + 0j, -1: 0.5 + 0j}  # (z + 1/z)/2, i.e. cos(theta)


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
elements = st.dictionaries(st.integers(min_value=-5, max_value=5), coeff, max_size=8)
# nonnegative reals: |f| peaks at theta = 0, so sup|f| is the exact l1 sum
nonnegative_elements = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.floats(min_value=0.0, max_value=1e300).map(complex),
    min_size=1,
    max_size=7,
)


def _exact_l1(f) -> Fraction:
    return sum(Fraction(v.real) for v in f.values())


# as nonnegative_elements, with moduli from 1e-30 up, so that tails vanish
# in the float sums of the samples
tiny_tail_elements = st.dictionaries(
    st.integers(min_value=-20, max_value=20),
    st.one_of(
        st.floats(min_value=0.0, max_value=1e300),
        st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-30, 0)),
    ).map(complex),
    min_size=1,
    max_size=7,
)


# one part across 1e-300..1e300, with its sign
wide_part = st.builds(
    lambda m, e, sign: sign * m * 10.0**e,
    st.floats(min_value=1.0, max_value=9.99),
    st.integers(min_value=-300, max_value=299),
    st.sampled_from([1.0, -1.0]),
)
wide_coeffs = st.lists(st.builds(complex, wide_part, wide_part), min_size=1, max_size=40)


@st.composite
def shuffled_wide_elements(draw):
    """Moduli over 600 orders of magnitude, inserted in shuffled degree order."""
    values = draw(wide_coeffs)
    degrees = draw(st.permutations(range(len(values))))
    return dict(zip(degrees, values))


class TestMultiply:
    def test_identity_neutral(self):
        f = {2: 1.5 + 0.5j, -1: -0.25 + 0j}
        assert wiener.multiply(f, E) == wiener.clean(f)

    def test_degree_cancellation(self):
        assert wiener.multiply({1: 1.0 + 0j}, {-1: 1.0 + 0j}) == E

    def test_square_of_one_plus_z(self):
        got = wiener.multiply({0: 1.0 + 0j, 1: 1.0 + 0j}, {0: 1.0 + 0j, 1: 1.0 + 0j})
        assert got == {0: 1.0 + 0j, 1: 2.0 + 0j, 2: 1.0 + 0j}

    def test_zero_annihilates(self):
        assert wiener.multiply({3: 2.0 + 0j}, {}) == {}

    def test_zero_operand_is_never_laid_out(self):
        # the other operand spans 10^20 degrees, or 5*10^7 (800 MB as an array)
        tracemalloc.start()
        try:
            for wide in ({0: 1.0 + 0j, 10**20: 1.0 + 0j}, {0: 1.0 + 0j, 5 * 10**7: 1.0 + 0j}):
                assert wiener.multiply(wide, {}) == wiener.multiply({0: 0j}, wide) == {}
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_support_cap(self):
        wide = {0: 1.0 + 0j, 500: 1.0 + 0j}
        with pytest.raises(BudgetExceeded, match="cap"):
            wiener.multiply(wide, wide, cap=900)

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_commutative_exactly(self, f, g):
        assert wiener.multiply(f, g) == wiener.multiply(g, f)

    @settings(max_examples=60, deadline=None)
    @given(elements, elements)
    def test_l1_submultiplicative(self, f, g):
        lhs = wiener.l1_norm(wiener.multiply(f, g))
        assert lhs <= wiener.l1_norm(f) * wiener.l1_norm(g) * (1 + 1e-12) + 1e-15

    def test_support_bounded_by_width_sum(self):
        f = {-2: 1j, 3: 1.0 + 0j}
        g = {1: 2.0 + 0j, 4: -1j}
        prod = wiener.multiply(f, g)
        assert min(prod) >= -1 and max(prod) <= 7


class TestL1Norm:
    def test_identity(self):
        assert wiener.l1_norm(E) == 1.0

    def test_cosine(self):
        assert wiener.l1_norm(COS) == 1.0

    def test_mixed_signs(self):
        assert wiener.l1_norm({0: 1.0 + 0j, 1: 2.0 + 0j, 3: -1.0 + 0j}) == 4.0

    def test_sum_past_the_float_range_is_inf(self):
        # finite terms whose exact sum overflows, as an inf coefficient does
        assert wiener.l1_norm({0: 1e308 + 0j, 1: 1e308 + 0j}) == math.inf

    @pytest.mark.parametrize("nan_degree", [0, 1, 2])
    def test_nan_next_to_a_sum_past_the_float_range_is_nan(self, nan_degree):
        f = {0: 1e308 + 0j, 1: 1e308 + 0j, 2: 1e308 + 0j}
        f[nan_degree] = complex(math.nan, 0)
        assert math.isnan(wiener.l1_norm(f))

    @settings(max_examples=100, deadline=None)
    @given(shuffled_wide_elements())
    def test_wide_moduli_in_any_order(self, f):
        assert wiener.l1_norm(f) == math.fsum(abs(v) for v in f.values())

    @settings(max_examples=100, deadline=None)
    @given(nonnegative_elements)
    def test_nonnegative_reals_exactly_rounded(self, f):
        assert wiener.l1_norm(f) == float(_exact_l1(f))

    @settings(max_examples=50, deadline=None)
    @given(wide_coeffs)
    def test_argument_left_unchanged(self, values):
        a = np.array(values, np.complex128)
        before = a.tobytes()
        wiener._l1(a)
        assert a.tobytes() == before


class TestEvaluate:
    def test_identity_everywhere_one(self):
        for theta in (0.0, 1.0, -2.5, math.pi):
            assert wiener.evaluate(E, theta) == 1.0

    def test_monomial_unit_modulus(self):
        theta = 0.7
        got = wiener.evaluate(Z, theta)
        assert got == pytest.approx(cmath.exp(1j * theta), rel=1e-15)
        assert abs(got) == pytest.approx(1.0, rel=1e-15)

    def test_cosine(self):
        for theta in (0.0, 0.3, 2.0, -1.1):
            assert wiener.evaluate(COS, theta) == pytest.approx(
                math.cos(theta), abs=1e-15
            )


class TestSupNorm:
    def test_identity_exact(self):
        est = wiener.sup_norm(E)
        assert est.grid_max == 1.0
        assert est.certified_upper_error == 0.0
        assert est.interval == (1.0, 1.0)

    def test_monomial(self):
        est = wiener.sup_norm(Z, 64)
        assert est.grid_max == pytest.approx(1.0, rel=1e-15)
        assert est.upper <= 1.0

    def test_one_plus_z_attains_two(self):
        est = wiener.sup_norm({0: 1.0 + 0j, 1: 1.0 + 0j}, 256)
        assert est.grid_max == 2.0  # theta = 0 is on the grid
        assert est.interval[0] <= 2.0 <= est.interval[1]

    def test_zero_element(self):
        assert wiener.sup_norm({}).interval == (0.0, 0.0)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            wiener.sup_norm(E, 4)

    @settings(max_examples=40, deadline=None)
    @given(elements)
    def test_dominated_by_l1(self, f):
        est = wiener.sup_norm(f, 128)
        assert est.grid_max <= wiener.l1_norm(f) + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(tiny_tail_elements)
    @example({0: 1.0 + 0j, 4096: 2.0**-53 + 0j})  # l1_norm rounds 1 + 2**-53 down to 1
    @example({0: 1.0 + 0j, 3: 1e-30 + 0j})  # grid_max + err rounds to 1
    def test_l1_end_not_below_the_sup(self, f):
        # either end of the clip is at least sup|f| = exact l1
        assert Fraction(wiener.sup_norm(f).upper) >= _exact_l1(f)

    def test_sample_end_rounded_outward(self):
        # the samples round to 1 and err = 7.7e-24 is lost in grid_max + err
        est = wiener.sup_norm({0: 1.0 + 0j, 1: 1e-20 + 0j})
        assert est.grid_max == 1.0
        assert Fraction(est.upper) >= 1 + Fraction(1e-20)

    def test_degree_past_2_to_53(self):
        # float(2**60 + 1) is 2**60, so coefficients are not looked up by float degree
        assert wiener.sup_norm({2**60 + 1: 1.0 + 0j, 0: 0.5 + 0j}).interval == (1.5, 1.5)

    def test_huge_degree_takes_its_phase_from_the_remainder(self):
        # theta_j * k in floats is off by whole turns at k ~ 2**55; the grid
        # samples of f are samples of 1 + z - z^3 on the circle
        k = 2**55 + 3
        est = wiener.sup_norm({0: 1.0 + 0j, k: 1.0 + 0j, 3 * k: -1.0 + 0j})
        assert est.grid_max <= wiener.sup_norm({0: 1.0 + 0j, 1: 1.0 + 0j, 3: -1.0 + 0j}).upper

    def test_degree_past_the_float_range(self):
        est = wiener.sup_norm({10**400: 1.0 + 0j, 0: 0.5 + 0j})
        assert est.interval == (1.5, 1.5)
        assert est.certified_upper_error == math.inf

    def test_grid_power_multiplicativity(self):
        # on a fixed sample grid, max of |f|^n equals (max of |f|)^n
        rng = np.random.default_rng(71)
        for _ in range(10):
            f = wiener.clean(
                {
                    j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for j in range(-3, 4)
                }
            )
            theta = 2 * math.pi * np.arange(256) / 256
            samples = np.array([abs(wiener.evaluate(f, t)) for t in theta])
            for n in (2, 3, 5):
                assert (samples**n).max() == samples.max() ** n


class TestWienerSpectralRadius:
    def test_monomial_roots_exactly_one(self):
        rep = wiener.wiener_spectral_radius(Z, 32)
        assert rep.root == [1.0] * 32

    def test_cosine_roots_exactly_one(self):
        # l1 norm of cos^n is 1 for every n: binomial coefficients over 2^n
        rep = wiener.wiener_spectral_radius(COS, 64)
        for r in rep.root:
            assert abs(r - 1.0) <= 1e-12

    def test_one_plus_z_roots_exactly_two(self):
        rep = wiener.wiener_spectral_radius({0: 1.0 + 0j, 1: 1.0 + 0j}, 64)
        for r in rep.root:
            assert r == pytest.approx(2.0, rel=1e-12)

    def test_budget_on_support_growth(self):
        with pytest.raises(BudgetExceeded):
            wiener.wiener_spectral_radius({0: 1.0 + 0j, 1000: 1.0 + 0j}, 64, cap=5000)

    def test_running_min_approaches_sup(self):
        rng = np.random.default_rng(73)
        f = wiener.clean(
            {j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in range(-2, 3)}
        )
        rep = wiener.wiener_spectral_radius(f, 64)
        est = wiener.sup_norm(f)
        assert rep.certified_upper >= est.grid_max - 1e-12
        assert rep.certified_upper <= est.upper * 1.05


class TestWienerInverse:
    def test_scalar(self):
        inv = wiener.wiener_inverse({0: 2.0 + 0j}, tol=1e-12)
        assert inv == {0: 0.5 + 0j}

    def test_geometric_series(self):
        f = {0: 1.0 + 0j, 1: -0.5 + 0j}  # e - z/2
        inv = wiener.wiener_inverse(f, tol=1e-12)
        residual = wiener.add(wiener.multiply(f, inv), wiener.scale(-1.0, E))
        assert wiener.l1_norm(residual) <= 1e-12
        for j in range(0, 10):
            assert inv[j] == pytest.approx(2.0**-j, rel=1e-12)

    def test_slow_geometric_series_closed_form(self):
        f = {0: 1.0 + 0j, 1: -0.9 + 0j}  # e - 0.9 z
        tol = 1e-10
        inv = wiener.wiener_inverse(f, tol=tol)
        residual = wiener.add(wiener.multiply(f, inv), wiener.scale(-1.0, E))
        assert wiener.l1_norm(residual) <= tol
        n = max(inv) + 1
        closed_form = {j: 0.9**j for j in range(n)}
        dropped_tail = 0.9**n / (1 - 0.9)
        assert min(inv) == 0
        assert wiener.l1_norm(wiener.add(inv, wiener.scale(-1.0, closed_form))) <= tol
        assert dropped_tail <= tol

    def test_vanishing_symbol_not_convergent(self):
        with pytest.raises(NotConvergent):
            wiener.wiener_inverse({0: 1.0 + 0j, 1: -1.0 + 0j})

    def test_zero_mean_not_convergent(self):
        with pytest.raises(NotConvergent, match="degree-0"):
            wiener.wiener_inverse(Z)

    def test_random_invertible(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            f = {0: 2.0 + 0j}
            for j in (-2, -1, 1, 2):
                f[j] = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            inv = wiener.wiener_inverse(f, tol=1e-10)
            residual = wiener.add(wiener.multiply(f, inv), wiener.scale(-1.0, E))
            assert wiener.l1_norm(residual) <= 1e-10

    @pytest.mark.parametrize(
        "f",
        [
            {0: 1.0 + 0j, 1: -0.49999 + 0j, -1: -0.49999 + 0j},
            {0: 1.0 + 0j, 1: -0.5 + 0j, 2: -0.49999 + 0j},
        ],
    )
    def test_slow_decay_refused_in_few_products(self, f, monkeypatch):
        # norm(g^32) = 0.99998^32 or 0.99999^32 reaches tol/2 by squaring
        # only past 2^20 terms; summing up to the budget takes seconds
        class ProductLimit(wiener.WienerAlgebra):
            muls = 0

            def mul(self, x, y):
                ProductLimit.muls += 1
                assert ProductLimit.muls <= 12, "more than 12 products"
                return super().mul(x, y)

        monkeypatch.setattr(wiener, "WienerAlgebra", ProductLimit)
        with pytest.raises(BudgetExceeded, match="after 32 terms"):
            wiener.wiener_inverse(f)


class TestHomomorphismChain:
    def test_seeded_pairs(self):
        rng = np.random.default_rng(83)
        for _ in range(25):
            deg = int(rng.integers(1, 5))
            f = wiener.clean(
                {
                    j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    for j in range(-deg, deg + 1)
                }
            )
            theta = rng.uniform(0, 2 * math.pi)
            rmin = wiener.wiener_spectral_radius(f, 32).certified_upper
            assert abs(wiener.evaluate(f, theta)) <= rmin + 1e-9
            assert rmin <= wiener.l1_norm(f) + 1e-9


class TestIO:
    def test_parse_inline(self):
        f = wiener.parse_inline("1:0.5,-1:0.5")
        assert f == COS

    def test_parse_inline_complex_coeff(self):
        f = wiener.parse_inline("0:1+2j,2:-0.5")
        assert f == {0: 1 + 2j, 2: -0.5 + 0j}

    def test_parse_inline_rejects_garbage(self):
        with pytest.raises(ValueError):
            wiener.parse_inline("nonsense")


# --- bit identity of the array kernels with their dict-loop definitions -------


def _reference_multiply(f, g, cap=wiener.COEFF_CAP):
    """The dict-loop product the array kernel replaced, kept as its oracle."""

    def span(h):
        return max(h) - min(h) + 1 if h else 0

    def content_key(h):
        return (len(h), tuple(sorted((k, v.real, v.imag) for k, v in h.items())))

    f, g = wiener.clean(f), wiener.clean(g)
    if not f or not g:
        return {}
    if span(f) + span(g) - 1 > cap:
        raise BudgetExceeded("product support span exceeds coefficient cap")
    if content_key(g) < content_key(f):
        f, g = g, f
    off_f, off_g = min(f), min(g)
    arr_f = np.zeros(span(f), dtype=complex)
    for k, v in f.items():
        arr_f[k - off_f] = v
    arr_g = np.zeros(span(g), dtype=complex)
    for k, v in g.items():
        arr_g[k - off_g] = v
    conv = np.convolve(arr_f, arr_g)
    base = off_f + off_g
    return {base + i: complex(z) for i, z in enumerate(conv) if z != 0}


class _DictWiener(Algebra):
    """The Wiener algebra on coefficient dicts, through the public dict
    functions: the reference engine instance for WienerAlgebra."""

    def __init__(self, cap: int = wiener.COEFF_CAP):
        self.cap = cap

    @property
    def one(self):
        return {0: 1.0 + 0j}

    @property
    def zero(self):
        return {}

    def add(self, x, y):
        return wiener.add(x, y)

    def scale(self, alpha, x):
        return wiener.scale(alpha, x)

    def mul(self, x, y):
        return wiener.multiply(x, y, cap=self.cap)

    def norm(self, x) -> float:
        return wiener.l1_norm(x)

    def is_zero(self, x) -> bool:
        return all(v == 0 for v in x.values())


def _dict_inverse(f, tol=1e-10, cap=wiener.COEFF_CAP):
    """wiener_inverse of an f with a nonzero degree-0 coefficient, on _DictWiener."""
    f = wiener.clean(f)
    c = f[0]
    g = {k: -v / c for k, v in f.items() if k != 0}
    return wiener.scale(1.0 / c, neumann_inverse(_DictWiener(cap), g, tol))


def _outcome(call, *args):
    """The CSV of a table, the sorted-items repr of an element (reprs keep
    signed zeros and NaN), or the exception's type and message."""
    try:
        out = call(*args)
    except (ValueError, BudgetExceeded, NotConvergent) as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    return repr(sorted(out.items())) if isinstance(out, dict) else out.to_csv()


nonzero_coeff = coeff.filter(lambda z: z != 0)
real_scalar = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)


@st.composite
def equal_span_pairs(draw):
    """Two elements whose nonzero supports have the same span."""
    width = draw(st.integers(min_value=0, max_value=7))

    def element():
        lo = draw(st.integers(min_value=-5, max_value=5))
        f = draw(st.dictionaries(st.integers(lo, lo + width), coeff, max_size=8))
        f[lo], f[lo + width] = draw(nonzero_coeff), draw(nonzero_coeff)
        return f

    return element(), element()


class TestKernelsMatchDictLoops:
    @settings(max_examples=100, deadline=None)
    @given(elements)
    def test_l1_norm(self, f):
        assert wiener.l1_norm(f) == math.fsum(abs(v) for v in f.values())

    @settings(max_examples=100, deadline=None)
    @given(real_scalar, elements)
    def test_scale_real(self, alpha, f):
        assert wiener.scale(alpha, f) == wiener.clean({k: alpha * v for k, v in f.items()})

    @settings(max_examples=100, deadline=None)
    @given(coeff, elements)
    def test_scale_complex(self, alpha, f):
        assert wiener.scale(alpha, f) == wiener.clean({k: alpha * v for k, v in f.items()})

    def test_add_keeps_signed_zeros(self):
        # dict == treats -0.0 as 0.0, so compare the reprs
        f = {0: complex(-0.0, 1.0), 2: complex(-0.0, 1.0)}
        g = {2: complex(-0.0, 1.0)}
        assert repr(wiener.add(f, g)) == "{0: (-0+1j), 2: (-0+2j)}"

    @settings(max_examples=100, deadline=None)
    @given(elements, elements)
    def test_multiply(self, f, g):
        assert wiener.multiply(f, g) == _reference_multiply(f, g)

    @settings(max_examples=100, deadline=None)
    @given(equal_span_pairs())
    def test_multiply_equal_spans(self, pair):
        f, g = pair
        assert wiener.multiply(f, g) == _reference_multiply(f, g)
        assert wiener.multiply(g, f) == _reference_multiply(g, f)

    def test_degrees_beyond_64_bits(self):
        f = {10**20: 0.5 + 0j, 10**20 + 1: 0.25j}
        assert wiener.multiply(f, f) == _reference_multiply(f, f)
        assert wiener.add(f, E) == {0: 1.0 + 0j, **f}
        assert wiener.scale(2.0, f) == {10**20: 1.0 + 0j, 10**20 + 1: 0.5j}

    def test_zero_entries_do_not_count_toward_the_support(self):
        f = {0: 1.0 + 0j, 10**6: 0j, -(10**6): 0j}
        assert wiener.multiply(f, f) == E
        assert wiener.add(f, {}) == E

    def test_non_finite_arithmetic_is_silent(self):
        # RuntimeWarnings are errors in this suite; Python's complex
        # arithmetic gives inf and nan without a warning, so must the kernels
        assert wiener.l1_norm({0: complex(1.7e308, 1.7e308)}) == math.inf
        assert cmath.isnan(wiener.add({0: complex(math.inf)}, {0: complex(-math.inf)})[0])
        assert wiener.scale(1e300, {0: 1e300 + 0j}) == {0: complex(math.inf)}


# --- power tables on trimmed arrays ----------------------------------------------

# 0j gives interior zero coefficients (and zero ends, which clean drops);
# NaN must count as a nonzero coefficient, as it does in the dict kernels
table_coeff = st.one_of(
    coeff, st.just(0j), st.just(complex(math.nan)), st.just(complex(1.0, math.nan))
)


@st.composite
def laurent_elements(draw):
    """1 to 12 terms on degrees in [-8, 8], some moved past 64 bits."""
    f = draw(st.dictionaries(st.integers(-8, 8), table_coeff, min_size=1, max_size=12))
    offset = draw(st.sampled_from([0, 0, 0, 10**20, -(10**20)]))
    return {k + offset: v for k, v in f.items()}


class TestPowerTablesOnArrays:
    # every first product is of equal spans: x^2 is (x / norm(x)) * x
    @settings(max_examples=200, deadline=None)
    @given(laurent_elements(), st.integers(1, 64))
    @example({}, 64)
    @example({0: 0j, 3: 0j}, 8)
    @example({3: 1e-320, 4: 1e-320}, 64)
    @example({3: 1e-320, 5: 1e-320, 6: 0.5}, 64)
    @example({10**20: 0.5 + 0j, 10**20 + 1: 0.25j}, 64)
    @example({-2: 1.0 + 0j, 0: 0j, 2: 1.0 + 0j}, 64)
    @example({0: 1.0 + 0j, 3: complex(math.nan)}, 4)
    @example({0: 1.0 + 0j, 1: 1.0 + 0j}, 64)
    def test_table_matches_the_dict_engine(self, f, n):
        want = power_norms(_DictWiener(), wiener.clean(f), n).to_csv()
        assert wiener.wiener_spectral_radius(f, n).to_csv() == want

    @settings(max_examples=100, deadline=None)
    @given(*[st.dictionaries(st.integers(-8, 8), table_coeff, max_size=12)] * 2)
    def test_products_keep_nan_terms(self, f, g):
        # reprs, since a NaN coefficient never compares equal
        assert repr(wiener.multiply(f, g)) == repr(_reference_multiply(f, g))

    def test_nan_at_the_end_of_the_support(self):
        rows = wiener.wiener_spectral_radius({0: 1.0 + 0j, 3: complex(math.nan)}, 3)
        assert rows.to_csv().splitlines()[1:] == ["%d,nan,nan,inf" % k for k in (1, 2, 3)]

    def test_cap_refuses_before_any_array(self):
        wide = {0: 1.0 + 0j, 10**20: 1.0 + 0j}
        assert wiener.wiener_spectral_radius(wide, 1).root == [2.0]
        with pytest.raises(BudgetExceeded, match="span 200000000000000000001 exceeds"):
            wiener.wiener_spectral_radius(wide, 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "wide",
        [
            {0: 1.0 + 0j, 10**20: 1.0 + 0j},
            {0: 1e308 + 0j, 10**20: 1e308 + 0j},  # l1 inf
            {0: 1.0 + 0j, 10**20: complex(math.nan)},  # l1 nan
            {0: 1e300 + 0j, 2 * 10**6: 1e-30 + 0j},  # x / l1 loses its far term
            {-(10**20): 1e-320 + 0j, 10**20: 1e-320 + 0j},  # 1 / l1 overflows
        ],
    )
    def test_span_past_the_cap_as_the_dict_engine(self, wide, n):
        # the dict engine's rows, or its refusal, without laying out an array
        want = _outcome(power_norms, _DictWiener(), wide, n)
        tracemalloc.start()
        try:
            got = _outcome(wiener.wiener_spectral_radius, wide, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**20

    def test_first_product_past_the_cap(self):
        with pytest.raises(BudgetExceeded, match="span 1001 exceeds coefficient cap 900"):
            wiener.wiener_spectral_radius({0: 1.0 + 0j, 500: 1.0 + 0j}, 2, cap=900)

    @settings(max_examples=100, deadline=None)
    @given(elements, elements)
    @example({0: complex(-0.0, 1.0), 2: complex(1.0, -0.0)}, {1: 1.0 + 0j})
    def test_engine_operations_match_the_dict_functions(self, f, g):
        # the engine's elements, converted back, are the dict kernels'
        # results, signed zeros included (dict equality ignores them)
        def items(h):
            return repr(sorted(h.items()))

        alg = wiener.WienerAlgebra()
        x, y = alg.element(f), alg.element(g)
        assert items(alg.as_dict(alg.mul(x, y))) == items(wiener.multiply(f, g))
        assert items(alg.as_dict(alg.scale(0.5j, x))) == items(wiener.scale(0.5j, f))
        assert alg.norm(x) == wiener.l1_norm(f)
        assert items(alg.as_dict(alg.add(x, y))) == items(wiener.add(f, g))


# --- Neumann inverses on trimmed arrays ----------------------------------------

# signed zero parts, which dict equality ignores, and NaN, which it never matches
inverse_coeff = st.one_of(
    coeff,
    st.sampled_from(
        [complex(-0.0, 0.5), complex(-0.25, -0.0), complex(-0.0, -0.0), complex(math.nan)]
    ),
)


@st.composite
def invertible_candidates(draw):
    """A nonzero degree-0 coefficient, up to six more terms on [-4, 4], and
    sometimes a term far out, past the cap."""
    f = draw(st.dictionaries(st.integers(-4, 4), inverse_coeff, max_size=6))
    f[0] = draw(st.one_of(nonzero_coeff, st.sampled_from([1.0 + 0j, complex(-0.0, 1.0)])))
    far = draw(st.sampled_from([None] * 6 + [10**20, -(10**20), 60]))
    if far is not None:
        f[far] = draw(st.one_of(inverse_coeff, st.just(1e-200 + 0j), st.just(1e-6 + 0j)))
    return f


class TestInverseOnArrays:
    @settings(max_examples=200, deadline=None)
    @given(
        invertible_candidates(),
        st.sampled_from([1e-10, 1e-3]),
        st.sampled_from([wiener.COEFF_CAP, 2000, 40]),
    )
    @example({0: 1.0 + 0j, 1: complex(-0.25, -0.0), 2: complex(-0.0, 0.5)}, 1e-10, 2000)
    @example({0: 1.0 + 0j, 10**20: 1e-200 + 0j}, 1e-10, wiener.COEFF_CAP)  # g*g is 0
    @example({0: 1.0 + 0j, 10**20: 1e-6 + 0j}, 1e-10, wiener.COEFF_CAP)  # converged
    def test_matches_the_dict_engine(self, f, tol, cap):
        want = _outcome(_dict_inverse, f, tol, cap)
        assert _outcome(wiener.wiener_inverse, f, tol, cap) == want

    def test_first_sum_past_the_cap_is_never_laid_out(self):
        # e + g spans 10^20 + 1 degrees; the product y * g^2 passes the cap
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                wiener.wiener_inverse({0: 1.0 + 0j, 10**20: 0.5 + 0j})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "product support span 100000000000000000001 exceeds coefficient cap 1000000"
        )
        assert peak < 2**20
