import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import wiener
from specrad.errors import BudgetExceeded, NotConvergent

E = wiener.identity()
Z = {1: 1.0 + 0j}
COS = {1: 0.5 + 0j, -1: 0.5 + 0j}  # (z + 1/z)/2, i.e. cos(theta)


coeff = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
elements = st.dictionaries(st.integers(min_value=-5, max_value=5), coeff, max_size=8)


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
        assert rep.roots() == [1.0] * 32

    def test_cosine_roots_exactly_one(self):
        # l1 norm of cos^n is 1 for every n: binomial coefficients over 2^n
        rep = wiener.wiener_spectral_radius(COS, 64)
        for r in rep.roots():
            assert abs(r - 1.0) <= 1e-12

    def test_one_plus_z_roots_exactly_two(self):
        rep = wiener.wiener_spectral_radius({0: 1.0 + 0j, 1: 1.0 + 0j}, 64)
        for r in rep.roots():
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
    def test_csv_round_trip(self):
        f = {3: 1.5 - 0.25j, -2: 0.125 + 1j}
        assert wiener.read_element_csv(wiener.element_to_csv(f)) == f

    def test_csv_header_required(self):
        with pytest.raises(ValueError, match="header"):
            wiener.read_element_csv("deg,val\n1,2\n")

    def test_json_shape(self):
        import json

        f = {1: 0.5 + 0j, -1: 0.5 + 0j}
        data = json.loads(wiener.element_to_json(f))
        assert data == {"-1": [0.5, 0.0], "1": [0.5, 0.0]}

    def test_parse_inline(self):
        f = wiener.parse_inline("1:0.5,-1:0.5")
        assert f == COS

    def test_parse_inline_complex_coeff(self):
        f = wiener.parse_inline("0:1+2j,2:-0.5")
        assert f == {0: 1 + 2j, 2: -0.5 + 0j}

    def test_parse_inline_rejects_garbage(self):
        with pytest.raises(ValueError):
            wiener.parse_inline("nonsense")
