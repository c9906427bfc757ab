import cmath
import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _DictWiener,
    _exact_l1,
    _exact_residual_l1,
    _mp_grid_samples,
    _reference_multiply,
)

from specrad import wiener
from specrad.algebra import power_norms
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
        with mock.patch.object(wiener, "COEFF_CAP", 900):
            with pytest.raises(BudgetExceeded, match="cap"):
                wiener.multiply(wide, wide)

    def test_zero_terms_are_not_in_the_span(self):
        # laid out, the zero term at degree 2*10^6 would pass the cap
        assert wiener.multiply({0: 1, 2_000_000: 0}, {0: 2}) == {0: 2}

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


SPLIT = wiener.SPLIT_SUM_SIZE
# moduli for the split sum: (name, seeded numpy fill for a size)
MODULI_FILLS = {
    "zeros": lambda rng, m: np.zeros(m),
    "unit": lambda rng, m: rng.random(m),
    "flat": lambda rng, m: rng.uniform(0.8, 1.0, m),  # the q sum needs the most bits
    "subnormal": lambda rng, m: rng.integers(0, 2**52, m) * 5e-324,
    "wide": lambda rng, m: 10.0 ** rng.uniform(-300, 300, m),
    "past the float range": lambda rng, m: rng.uniform(1e306, 1.7e308, m),
}
special_moduli = st.one_of(
    st.floats(min_value=0.0),  # inf included
    st.sampled_from([0.0, 5e-324, 2.0**-1022, 1.0, 2.0**-53, 1e308, math.inf, math.nan]),
)


@st.composite
def moduli_arrays(draw):
    """Nonnegative float64 arrays of sizes across SPLIT_SUM_SIZE up to 10^5:
    a seeded fill, a few drawn entries (inf and nan among them) at drawn
    places, and sometimes one more entry that puts the exact sum within
    rounding of a tie between two floats."""
    size = draw(st.sampled_from([0, 1, 3, SPLIT - 1, SPLIT, SPLIT + 1, 1000, 10**5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = MODULI_FILLS[draw(st.sampled_from(sorted(MODULI_FILLS)))](rng, size)
    if size:
        specials = draw(st.lists(special_moduli, max_size=4))
        x[rng.integers(0, size, len(specials))] = specials
    if draw(st.booleans()):
        try:
            s = math.fsum(x.tolist())
        except OverflowError:
            s = math.inf
        if 0 < s < math.inf:
            # fsum's rounded remainder, and the term that moves the sum to s + ulp/2
            rest = math.fsum([*x.tolist(), -s])
            tie = math.fsum([math.ulp(s) / 2, -rest])
            x = np.append(x, draw(st.sampled_from(
                [tie, math.nextafter(tie, 0.0), math.nextafter(tie, math.inf)]
            )))
    return x


def _fsum_outcome(call, x):
    try:
        return repr(call(x))
    except OverflowError:
        return "OverflowError"


class TestSplitSum:
    """_split_sum, where it decides, and _moduli_sum are math.fsum bit for
    bit.  Past the float range, fsum's inf, nan or OverflowError depends
    on the order of the terms, and _moduli_sum may raise where fsum in
    degree order gives inf or nan."""

    @settings(max_examples=300, deadline=None)
    @given(moduli_arrays())
    def test_equals_fsum(self, x):
        want = _fsum_outcome(math.fsum, x.tolist())
        before = x.tobytes()
        split = wiener._split_sum(x)
        assert x.tobytes() == before
        assert split is None or repr(split) == want
        got = _fsum_outcome(wiener._moduli_sum, x)
        assert got == want or (want in ("inf", "nan") and got == "OverflowError")

    @pytest.mark.parametrize("size", [0, 1, SPLIT, 10**5])
    def test_zeros_are_left_to_fsum(self, size):
        assert wiener._split_sum(np.zeros(size)) is None
        assert repr(wiener._moduli_sum(np.zeros(size))) == "0.0"

    @pytest.mark.parametrize("size", [SPLIT, 10**5])
    def test_decides_long_power_moduli(self, size):
        # the moduli of a normalized power: smooth, over many orders of magnitude
        x = np.exp(-((np.arange(size) - size / 2) ** 2) / size)
        assert wiener._split_sum(x) == math.fsum(x.tolist())

    def test_a_tie_broken_below_the_bound_is_left_to_fsum(self):
        # 1 + 2^-53 is a tie, which rounds to 1; 2^-140 breaks it upward,
        # but the float sum of the low parts loses it and reads the tie
        x = np.zeros(SPLIT)
        x[:3] = 1.0, 2.0**-53, 2.0**-140
        assert math.fsum(x.tolist()) == 1.0 + 2.0**-52
        assert wiener._split_sum(x) is None
        assert wiener._moduli_sum(x) == 1.0 + 2.0**-52


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


@st.composite
def grid_elements(draw):
    """A grid size M and an element on negative degrees, degrees past 2^53
    and multiples of M."""
    m = draw(st.sampled_from([8, 12, 64, 100]))
    degree = st.one_of(
        st.integers(min_value=-20, max_value=20),
        st.integers(min_value=2**53, max_value=2**62),
        st.integers(min_value=-(2**62), max_value=-(2**53)),
        st.integers(min_value=-(10**6), max_value=10**6).map(lambda q: q * m),
    )
    return m, wiener.clean(draw(st.dictionaries(degree, coeff, min_size=1, max_size=6)))


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

    @pytest.mark.parametrize("grid_size", [512.5, 512.0, "512", None, True])
    def test_grid_size_must_be_an_integer(self, grid_size):
        # a float grid size sampled 513 points at spacing 2 pi / 512.5
        with pytest.raises(ValueError, match=re.escape(repr(grid_size))):
            wiener.sup_norm(COS, grid_size)

    def test_numpy_integer_grid_size(self):
        f = {0: 0.5 + 0j, 3: 0.25 - 1j}
        assert wiener.sup_norm(f, np.int64(100)) == wiener.sup_norm(f, 100)
        assert wiener.sup_norm(f, np.uint16(512)) == wiener.sup_norm(f, 512)

    def test_samples_near_the_float_max_warn_nothing(self):
        # the samples overflow to inf; numpy's overflow warnings leaked here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = wiener.sup_norm({0: 1e308 + 0j, 1: 1e308 + 0j}, 64)
        assert est.grid_max == math.inf and est.upper == math.inf

    @settings(max_examples=30, deadline=None)
    @given(grid_elements())
    @example((8, {0: 1.0 + 0j, 8 * 10**6: -1.0 + 0j}))  # k = 0 mod M: every phase is 1
    @example((64, {-(2**55) - 3: 1.0 + 1.0j, 2**60 + 1: 0.5 + 0j}))
    @example((8, {0: 1.5 + 1j}))  # hypot rounds the lone modulus down
    def test_table_samples_against_exact_grid(self, grid_f):
        # grid_max is within the rounding term of the 30-digit grid maximum,
        # and upper is at least the sup sampled densely at 30 digits, less
        # the oracle's own rounding (1e-31 relative on a lone term)
        m, f = grid_f
        est = wiener.sup_norm(f, m)
        with mpmath.workdps(30):
            moduli = [abs(mpmath.mpc(v)) for v in f.values()]
            l1 = mpmath.fsum(moduli)
            moment = mpmath.fsum(abs(k) * a for k, a in zip(f, moduli))
            rounding = mpmath.ldexp(37 * moment + (3 * len(f) + 12) * l1, -53)
            assert abs(est.grid_max - max(_mp_grid_samples(f, m))) <= rounding
            assert est.upper >= max(_mp_grid_samples(f, 1021)) - l1 * mpmath.mpf(10) ** -25

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

    def test_l1_end_not_below_a_complex_modulus(self):
        # hypot rounds |1.5 + i| = sqrt(3.25) down, and the l1 end was that float
        est = wiener.sup_norm({0: 1.5 + 1j}, 8)
        assert Fraction(est.upper) ** 2 >= Fraction(13, 4)

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
        with mock.patch.object(wiener, "COEFF_CAP", 5000):
            with pytest.raises(BudgetExceeded):
                wiener.wiener_spectral_radius({0: 1.0 + 0j, 1000: 1.0 + 0j}, 64)

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

    @pytest.mark.parametrize("f", [
        {0: 1e-310 + 0j},
        {0: 1e-310 + 0j, 1: 1e-311 + 0j},
        {0: complex(-0.0, 1e-320)},
        {0: 1e-308 + 0j, 1: -0.45e-308 + 0j, -1: -0.45e-308 + 0j},
    ])
    def test_reciprocal_past_the_float_range_is_refused(self, f):
        # 1/c passes the float range (inf, or nan parts), or in the last,
        # 1/c = 1e308 is finite but the degree-0 coefficient is about 2.3e308
        with pytest.raises(NotConvergent, match="past the float range"):
            wiener.wiener_inverse(f)

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
            power_logs = None  # its mul overrides WienerAlgebra's
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

    def test_parse_inline_rejects_a_repeated_degree(self):
        with pytest.raises(ValueError, match="^degree -3 appears twice$"):
            wiener.parse_inline("-3:1, 2:1, -03:2")


# --- bit identity of the array kernels with their dict-loop definitions -------


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


# every kind of part: both zeros, subnormals, inf and nan among them
edge_part = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-320, 2.0**-1022, math.inf, -math.inf, math.nan]),
)
edge_coeffs = st.lists(st.builds(complex, edge_part, edge_part), max_size=12)
# the real factors of the engine (1/norm, its 2**600 rescale, sub's -1.0)
# and any other across the float range, signed zeros included; a -0.0
# imaginary part changes the signs of zero parts
real_factor = st.one_of(
    st.sampled_from([-1.0, 2.0**600, 0.0, -0.0, 1e-10, 0.37, 3.0, 1e-308, 1e308]),
    st.sampled_from([complex(0.5, -0.0), complex(-1.0, -0.0)]),
    st.builds(
        lambda m, e, sign: sign * m * 10.0**e,
        st.floats(min_value=1.0, max_value=9.99),
        st.integers(min_value=-308, max_value=307),
        st.sampled_from([1.0, -1.0]),
    ),
)


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

    @settings(max_examples=300, deadline=None)
    @given(real_factor, edge_coeffs)
    # a zero part turns nan while another underflows: equal zero counts
    @example(1e-10, [complex(0.0, math.inf), complex(-1e-320, -1.0)])
    @example(1e-10, [complex(-1e-320, -1.0825896458679949)])
    def test_scale_real_rounds_as_python(self, alpha, values):
        # reprs, which tell the signed zeros apart and show every nan
        got = wiener.scale(alpha, dict(enumerate(values)))
        want = {k: z for k, v in enumerate(values) if (z := complex(alpha) * v)}
        assert repr(got) == repr(want)

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
        with mock.patch.object(wiener, "COEFF_CAP", 900):
            with pytest.raises(BudgetExceeded, match="span 1001 exceeds coefficient cap 900"):
                wiener.wiener_spectral_radius({0: 1.0 + 0j, 500: 1.0 + 0j}, 2)

    @settings(max_examples=100, deadline=None)
    @given(elements, elements)
    @example({0: complex(-0.0, 1.0), 2: complex(1.0, -0.0)}, {1: 1.0 + 0j})
    @example({0: 1.0 + 0j}, {1: complex(1.0, -0.0)})  # 0j + g_1 makes the -0.0 a +0.0
    def test_engine_operations_match_the_dict_functions(self, f, g):
        # the engine's elements, clean dicts, are those of the dict-loop
        # oracles, signed zeros included (dict equality ignores them), and
        # its norm is the exact l1 sum of Python's moduli, rounded once
        def items(h):
            return repr(sorted(h.items()))

        alg = wiener.WienerAlgebra()
        x, y = wiener.clean(f), wiener.clean(g)
        f, g = wiener.clean(f), wiener.clean(g)
        assert items(alg.mul(x, y)) == items(_reference_multiply(f, g))
        scaled = {k: 0.5j * v for k, v in f.items()}
        assert items(alg.scale(0.5j, x)) == items(wiener.clean(scaled))
        assert alg.norm(x) == float(sum(Fraction(abs(v)) for v in f.values()))
        summed = dict(f)
        for k, v in g.items():
            summed[k] = summed.get(k, 0j) + v
        assert items(alg.add(x, y)) == items(wiener.clean(summed))

    @settings(max_examples=100, deadline=None)
    @given(real_factor, edge_coeffs)
    @example(1e-10, [complex(0.0, math.inf), complex(-1e-320, -1.0)])
    def test_engine_real_scale_matches_the_dict_function(self, r, values):
        f = dict(enumerate(values))
        alg = wiener.WienerAlgebra()
        got = alg.scale(r, wiener.clean(f))
        assert repr(sorted(got.items())) == repr(sorted(wiener.scale(r, f).items()))


# --- the fused power loop ------------------------------------------------------

# parts across the float range, and ends whose scale or product underflows
power_loop_coeff = st.one_of(
    table_coeff,
    st.builds(complex, wide_part, wide_part),
    st.sampled_from([5e-324 + 0j, 1e-200 + 0j, complex(1.0, 5e-324), 1e-310 + 0j, 1e308 + 0j]),
)


def _table_and_warnings(call, *args):
    """The reprs of a table's columns (they keep nan and -0.0), or the
    exception's text, with the warnings recorded while it ran."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            t = call(*args)
            out = (repr(t.value), repr(t.root), repr(t.running_min))
        except BudgetExceeded as exc:
            out = "BudgetExceeded: %s" % exc
    return out, [(w.category, str(w.message)) for w in caught]


# (f, n, whether _power_logs gives the table) for each path of the loop
POWER_LOOP_PATHS = {
    "monomial: every step is _convolve": ({0: 2.0 + 0j}, 1100, True),
    "each scale underflows a part: power_norms runs the chain": (
        {0: 2.0 + 0j, 1: 5e-324 + 0j}, 8, False
    ),
    "an underflowed end of equal-size operands, trimmed by _convolve": (
        {0: 1.0 + 0j, 1: 1e-200 + 0j}, 40, True
    ),
    "an underflowed end of a longer direction, trimmed": ({0: 1.0 + 0j, 1: 1e-100 + 0j}, 40, True),
    "the README element: a longer direction runs np.correlate": (
        {-1: 0.5 + 0j, 1: 0.5 + 0j}, 64, True
    ),
    "subnormal norm: power_norms rescales": ({0: 1e-310 + 0j}, 4, False),
    "norm past the float range": ({0: 1e308 + 0j, 1: 1e308 + 0j}, 4, False),
}


@settings(max_examples=300, deadline=None)
@given(edge_coeffs.filter(len), edge_coeffs.filter(lambda x: len(x) >= 2))
@example([complex(1.0, -0.0), 5e-324 + 0j, complex(math.nan, -1.0)], [complex(-0.0, math.inf), 1j])
def test_correlate_with_conjugate_taps_is_convolve_bitwise(d, x):
    # _power_logs' products of a direction d longer than x: np.correlate
    # conjugates its second operand back, and runs the kernel np.convolve
    # runs on (d, x reversed); nan, inf, signed zero and subnormal parts too.
    # x has two or more terms there (a one-term x keeps every direction at
    # one term); np.convolve hands its kernel a one-term x reversed, a view
    # with a negative stride, which takes another dot path: there inf and
    # nan products can differ
    if len(d) <= len(x):
        d = d + x
    d, x = np.array(d, np.complex128), np.array(x, np.complex128)
    with np.errstate(all="ignore"):
        got = np.correlate(d, np.conj(x[::-1]), "full")
        want = np.convolve(d, x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class _Chain(wiener.WienerAlgebra):
    """WienerAlgebra without its own power loop: power_norms runs the
    generic chain on its mul and norm, the reference for _power_logs."""

    power_logs = None


class TestWienerPowerLoop:
    """power_norms on WienerAlgebra runs _power_logs on arrays, and the chain
    where that gives None: either way the table is the chain's."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(st.integers(-8, 8), power_loop_coeff, min_size=1, max_size=12),
        st.integers(1, 96),
        st.sampled_from([wiener.COEFF_CAP, wiener.COEFF_CAP, 3, 40]),
    )
    # the inputs of POWER_LOOP_PATHS
    @example({0: 2.0 + 0j}, 1100, wiener.COEFF_CAP)
    @example({0: 2.0 + 0j, 1: 5e-324 + 0j}, 8, wiener.COEFF_CAP)
    @example({0: 1.0 + 0j, 1: 1e-200 + 0j}, 40, wiener.COEFF_CAP)
    @example({0: 1.0 + 0j, 1: 1e-100 + 0j}, 40, wiener.COEFF_CAP)
    @example({0: 1e-310 + 0j}, 4, wiener.COEFF_CAP)
    @example({0: 1e308 + 0j, 1: 1e308 + 0j}, 4, wiener.COEFF_CAP)
    # refused at x^40, and at the first, equal-size product
    @example({0: 1.0 + 0j, 1: 1.0 + 0j}, 64, 40)
    @example({0: 1.0 + 0j, 500: 1.0 + 0j}, 2, 900)
    # trimmed directions keep each span within the cap; one with its zero
    # end kept would be refused
    @example({0: 2.0 + 0j, 1: 5e-324 + 0j}, 8, 2)
    @example({0: 1.0 + 0j, 1: 1e-200 + 0j}, 40, 3)
    @example({0: 1.0 + 0j, 1: 1e-100 + 0j}, 40, 5)
    def test_table_and_warnings_as_power_norms(self, f, n, cap):
        with mock.patch.object(wiener, "COEFF_CAP", cap):
            want = _table_and_warnings(power_norms, _Chain(), wiener.clean(f), n)
            assert _table_and_warnings(wiener.wiener_spectral_radius, f, n) == want

    def test_power_norms_runs_the_loop_without_multiply(self, monkeypatch):
        # the README's element: no dict product is left to run
        f = {1: 0.5 + 0j, -1: 0.5 + 0j}
        want = power_norms(_Chain(), f, 64).to_csv()

        def refuse(*args):
            raise AssertionError("power_norms multiplied dicts")

        monkeypatch.setattr(wiener, "multiply", refuse)
        report = power_norms(wiener.WienerAlgebra(), f, 64)
        assert report.to_csv() == want and report.root == [1.0] * 64

    @pytest.mark.parametrize(
        "f, n, cap",
        [
            ({0: 1, 5: 0, 1: 0.3}, 40, wiener.COEFF_CAP),
            ({-3: 0, 0: 0.7, 2: 0.2j}, 40, wiener.COEFF_CAP),
            ({0: 1, 50: 0}, 40, 10),
        ],
    )
    def test_unclean_dict_as_the_chain(self, f, n, cap):
        # the engine instance takes dicts with zero terms, which are never
        # laid out: they widen neither an array nor a product's span
        with mock.patch.object(wiener, "COEFF_CAP", cap):
            want = _table_and_warnings(power_norms, _Chain(), f, n)
            assert _table_and_warnings(power_norms, wiener.WienerAlgebra(), f, n) == want

    def test_a_far_zero_term_keeps_the_loop(self):
        # the cap guard reads the span of the nonzero terms: a zero term two
        # million degrees out sent this element to the dict chain
        f = {0: 0.6 + 0j, 1: 0.3 + 0j, -2: 0.1j}
        far = {**f, 2_000_000: 0j}
        assert wiener._power_logs(far, 256) is not None
        want = power_norms(_Chain(), far, 256).to_csv()
        assert power_norms(wiener.WienerAlgebra(), far, 256).to_csv() == want
        assert power_norms(wiener.WienerAlgebra(), f, 256).to_csv() == want

    @pytest.mark.parametrize("path", POWER_LOOP_PATHS)
    def test_each_path_runs_where_it_should(self, path):
        f, n, fused = POWER_LOOP_PATHS[path]
        logs = wiener._power_logs(f, n)
        assert (logs is not None) == fused


class TestUnderflowBoundary:
    """A real factor above 1/2 underflows no nonzero part; at exactly 1/2,
    5e-324 * 0.5 ties to 0.  The power loop's own product w * inv keeps
    every part above 1/2, so it counts the parts only from 1/2 down, and
    there the count catches the tie; scale rounds as Python does."""

    def test_scale_by_one_half_rounds_as_python(self):
        # numpy's fused product gives the first real part -0.0, Python's +0.0
        values = [complex(-5e-324, -1.0), complex(5e-324, 1.0), complex(-1.0, 5e-324)]
        got = wiener.scale(0.5, dict(enumerate(values)))
        assert repr(list(got.values())) == repr([0.5 * z for z in values])
        w = np.array(values)
        d = w * 0.5
        assert np.count_nonzero(d.view(float)) < np.count_nonzero(w.view(float))

    @pytest.mark.parametrize("alpha", [math.nextafter(0.5, 1.0), -math.nextafter(0.5, 1.0)])
    def test_scale_just_above_one_half_keeps_every_part(self, alpha):
        values = [complex(5e-324, -5e-324), complex(-5e-324, 1.0)]
        with np.errstate(all="ignore"):
            got = (np.array(values) * alpha).tolist()
        assert all(z.real and z.imag for z in got)

    def test_power_loop_rescales_by_one_half_as_power_norms(self):
        # norm(f) = 2, so 1/norm is 1/2 and the far term 5e-324 / 2 ties to
        # 0; kept as a zero end, the direction would make x^2 pass the cap
        f = {0: 2.0 + 0j, 1: 5e-324 + 0j}
        with mock.patch.object(wiener, "COEFF_CAP", 2):
            want = power_norms(_Chain(), f, 8).to_csv()
            assert wiener._power_logs(f, 8) is None
            assert wiener.wiener_spectral_radius(f, 8).to_csv() == want


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
        # a returned reciprocal meets tol in the exact residual, up to the
        # rounding of the float residual that certified it; a small g with
        # finite terms on a narrow support, and a c that is not tiny, must
        # be inverted
        try:
            with mock.patch.object(wiener, "COEFF_CAP", cap):
                y = wiener.wiener_inverse(f, tol)
        except (BudgetExceeded, NotConvergent):
            # then |y_k| <= 2 / |c| stays below the float range
            c = f[0]
            g_l1 = sum(abs(v / c) for k, v in f.items() if k != 0)
            small = g_l1 <= 0.5 and abs(c) >= 2.0**-1000
            assert not (small and cap == wiener.COEFF_CAP and max(f) - min(f) < 100)
            return
        f = wiener.clean(f)
        slack = 2.0**-40 * (1.0 + sum(map(abs, f.values())) * sum(map(abs, y.values())))
        assert _exact_residual_l1(f, y) <= Fraction(tol) + Fraction(slack)

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

    def test_sparse_sum_near_the_cap_is_never_laid_out_whole(self):
        # the partial sum of four terms has ten terms on a span of 1500004
        # degrees (24 MB as an array), and stays a dict; its product with
        # g^4 is refused before either operand is laid out
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded) as info:
                wiener.wiener_inverse({0: 1.0 + 0j, 500000: 0.1 + 0j, 500001: 0.1 + 0j})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == "product support span 1500008 exceeds coefficient cap 1000000"
        assert peak < 32 * 2**20

    def test_first_sum_past_the_cap_checks_tol(self):
        # the over-cap element runs the dict engine, whose neumann_inverse refuses the tol
        with pytest.raises(ValueError, match=r"tol must be positive and finite, got 0\.0"):
            wiener.wiener_inverse({0: 1.0 + 0j, 10**20: 0.5 + 0j}, tol=0.0)
