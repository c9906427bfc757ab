import math

import numpy as np
import pytest

from specrad import fekete
from specrad.algebra import (
    DEFAULT_PROBE_DEPTH,
    invert_near,
    neumann_inverse,
    power_norms,
    resolvent,
    spectral_radius_upper,
    telescope_check,
)
from specrad.errors import BudgetExceeded, NotConvergent, Singular
from specrad.matrix import MatrixAlgebra
from specrad.wiener import WienerAlgebra

ALG2 = MatrixAlgebra(2)
NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
SWAPISH = np.array([[0, 2], [0.5, 0]], dtype=complex)  # squares to the identity


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


class TestPowerNorms:
    def test_identity_roots_are_one(self):
        rep = power_norms(ALG2, ALG2.one, 16)
        assert rep.root == [1.0] * 16
        assert rep.value == [1.0] * 16

    def test_nilpotent(self):
        rep = power_norms(ALG2, NILPOTENT, 6)
        assert rep.value == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert rep.certified_upper == 0.0

    def test_alternating_norms(self):
        rep = power_norms(ALG2, SWAPISH, 10)
        for k, v in enumerate(rep.value, start=1):
            expected = 2.0 if k % 2 else 1.0
            assert v == pytest.approx(expected, rel=1e-12)
        assert rep.root[1] == pytest.approx(1.0, rel=1e-12)

    def test_zero_element(self):
        rep = power_norms(ALG2, ALG2.zero, 4)
        assert rep.value == [0.0] * 4

    @pytest.mark.parametrize("entry", [1e308, math.inf])
    def test_overflowed_norm_stays_inf(self, entry):
        # the row sum overflows; 1/inf = 0 must not zero the later powers,
        # and an inf entry must not be scaled by 0 into nan
        big = np.array([[entry, entry], [0, entry]], dtype=complex)
        with np.errstate(over="ignore"):  # numpy warns on the 2e308 row sum
            rep = power_norms(ALG2, big, 4)
        assert rep.value == rep.root == [math.inf] * 4
        assert rep.certified_upper == math.inf

    def test_norm_axiom_violation_detected(self):
        class Broken(MatrixAlgebra):
            def norm(self, x):
                return 0.0

        with pytest.raises(ValueError, match="norm axioms"):
            power_norms(Broken(2), NILPOTENT, 4)

    def test_value_sequence_is_submultiplicative(self):
        rng = np.random.default_rng(7)
        for kind in ("inf", "one"):
            for _ in range(8):
                n = int(rng.integers(1, 5))
                alg = MatrixAlgebra(n, kind)
                rep = power_norms(alg, random_matrix(rng, n), 24)
                s = fekete.PrefixSequence(tuple(rep.value))
                assert fekete.check_submultiplicative(s) == []

    @pytest.mark.parametrize("kind", ["inf", "one"])
    def test_value_column_matches_raw_power_norms(self, kind):
        rng = np.random.default_rng(11)
        x = random_matrix(rng, 3)
        alg = MatrixAlgebra(3, kind)
        rep = power_norms(alg, x, 12)
        for k in range(1, 13):
            raw = alg.norm(np.linalg.matrix_power(x, k))
            assert abs(rep.value[k - 1] - raw) <= 1e-9 * raw


class TestSpectralRadiusUpper:
    def test_identity(self):
        assert spectral_radius_upper(ALG2, ALG2.one, 20) == 1.0

    def test_nilpotent(self):
        assert spectral_radius_upper(ALG2, NILPOTENT, 2) == 0.0

    def test_swapish_bracket(self):
        upper = spectral_radius_upper(ALG2, SWAPISH, 64)
        assert 1.0 <= upper <= 2.0 ** (1.0 / 63.0)

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for _ in range(12):
            n = int(rng.integers(1, 5))
            alg = MatrixAlgebra(n)
            x = random_matrix(rng, n)
            alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lhs = spectral_radius_upper(alg, alpha * x, 24)
            rhs = abs(alpha) * spectral_radius_upper(alg, x, 24)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_homogeneity_tight_for_real_scalars(self):
        rng = np.random.default_rng(5)
        alg = MatrixAlgebra(3)
        x = rng.uniform(-1, 1, (3, 3)).astype(complex)
        scaled = power_norms(alg, 4.0 * x, 20).value
        base = power_norms(alg, x, 20).value
        for k, (s, b) in enumerate(zip(scaled, base), start=1):
            assert s == pytest.approx(4.0**k * b, rel=1e-13)

    def test_commuting_product_bound(self):
        # x, y polynomials in one matrix commute; the oracle radius of x*y
        # stays below the product of the certified bounds
        from specrad.matrix import oracle_radius

        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(2, 5))
            alg = MatrixAlgebra(n)
            m = random_matrix(rng, n)
            cx = rng.uniform(-1, 1, 3)
            cy = rng.uniform(-1, 1, 3)
            x = cx[0] * alg.one + cx[1] * m + cx[2] * (m @ m)
            y = cy[0] * alg.one + cy[1] * m + cy[2] * (m @ m)
            bound = spectral_radius_upper(alg, x, 32) * spectral_radius_upper(
                alg, y, 32
            )
            assert oracle_radius(x @ y) <= bound + 1e-9


class TestNeumannInverse:
    def test_zero_gives_identity(self):
        assert np.array_equal(neumann_inverse(ALG2, ALG2.zero), ALG2.one)

    def test_scalar_half(self):
        y = neumann_inverse(ALG2, 0.5 * ALG2.one, tol=1e-12)
        assert np.allclose(y, 2.0 * ALG2.one, rtol=1e-11)

    def test_norm_above_one_but_power_contractive(self):
        x = np.array([[0, 1.5], [0.1, 0]], dtype=complex)
        assert ALG2.norm(x) == 1.5
        assert ALG2.norm(x @ x) == pytest.approx(0.15)
        y = neumann_inverse(ALG2, x, tol=1e-10)
        assert ALG2.norm((ALG2.one - x) @ y - ALG2.one) <= 1e-10

    def test_identity_not_convergent(self):
        with pytest.raises(NotConvergent, match="no k <= 32"):
            neumann_inverse(ALG2, ALG2.one)

    @pytest.mark.parametrize("tol", [0.0, math.inf, math.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        # an infinite tol would pass I - I off as invertible
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            neumann_inverse(ALG2, ALG2.one, tol=tol)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            neumann_inverse(ALG2, 0.999 * ALG2.one, tol=1e-12, max_terms=50)

    def test_nilpotent_exact_finite_sum(self):
        y = neumann_inverse(ALG2, NILPOTENT, tol=1e-15)
        assert np.array_equal(y, ALG2.one + NILPOTENT)

    def test_convergence_implies_powers_below_one(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            alg = MatrixAlgebra(n)
            x = random_matrix(rng, n)
            x = x * (rng.uniform(0.2, 0.95) / alg.norm(x))
            neumann_inverse(alg, x, tol=1e-10)
            values = power_norms(alg, x, 32).value
            assert all(v < 1.0 for v in values[10:])


class CountingMatrixAlgebra(MatrixAlgebra):
    def __init__(self, n):
        super().__init__(n)
        self.muls = 0

    def mul(self, x, y):
        self.muls += 1
        return super().mul(x, y)


class TestNeumannProductForm:
    def test_slow_decay_takes_logarithmically_many_products(self):
        alg = CountingMatrixAlgebra(2)
        q, tol = 0.9995, 1e-10
        x = q * np.array([[0, 1j], [1, 0]])
        y = neumann_inverse(alg, x, tol=tol)
        assert alg.norm((alg.one - x) @ y - alg.one) <= tol
        # the tail bound with k = 1 asks for about 6.1e4 terms
        n_terms = math.ceil(math.log(tol * (1 - q)) / math.log(q))
        assert alg.muls <= DEFAULT_PROBE_DEPTH + 2 * math.ceil(math.log2(n_terms)) + 2

    def test_tight_tolerance_met_or_refused(self):
        rng = np.random.default_rng(0)
        alg = MatrixAlgebra(8)
        tol = 1e-15
        for _ in range(50):
            x = random_matrix(rng, 8)
            x = x * (0.999 / alg.norm(x))
            try:
                y = neumann_inverse(alg, x, tol=tol)
            except NotConvergent:
                continue
            assert alg.norm((alg.one - x) @ y - alg.one) <= tol

    def test_unattainable_tolerance_refused(self):
        x = np.array([[0, 1.5], [0.1, 0]], dtype=complex)
        with pytest.raises(NotConvergent, match="residual"):
            neumann_inverse(ALG2, x, tol=1e-18)

    def test_fast_decay_takes_few_products(self):
        # the squarings certify convergence themselves: no separate probe
        rng = np.random.default_rng(5)
        tol = 1e-10
        for n in (4, 8, 16, 32):
            alg = CountingMatrixAlgebra(n)
            x = random_matrix(rng, n)
            x = x * (0.5 / alg.norm(x))
            y = neumann_inverse(alg, x, tol=tol)
            assert alg.muls <= 12
            assert alg.norm((alg.one - x) @ y - alg.one) <= tol
            assert alg.norm(y - np.linalg.inv(alg.one - x)) <= tol

    def test_stop_rule_bounds_the_inverse_error(self):
        # r^1024 = 1e-11 meets tol/2, but the error y t (e - t)^{-1} is about
        # 1e-11 / (1 - r) = 4e-10: the tail bound must ask for x^2048
        r = math.exp(math.log(1e-11) / 1024)
        y = neumann_inverse(ALG2, r * ALG2.one, tol=1e-10)
        assert ALG2.norm(y - ALG2.one / (1 - r)) <= 1e-10

    def test_budget_counts_terms(self):
        # 0.5 * I at tol 1e-10 needs 64 terms: at 32, q = 0.5^32 = 2.3e-10 > tol/2
        x = 0.5 * ALG2.one
        assert np.allclose(neumann_inverse(ALG2, x, max_terms=64), 2 * ALG2.one)
        with pytest.raises(BudgetExceeded, match="32 terms"):
            neumann_inverse(ALG2, x, max_terms=63)

    def test_budget_prediction_waits_for_probe_depth(self):
        # q = norm(x^2) = 0.99999 alone would predict 2^23 terms, but
        # norm(x^4) = 0.4375: the prediction starts at x^32
        x = np.array([[0.5, 0.74999], [0, 0.5]], dtype=complex)
        y = neumann_inverse(ALG2, x)
        assert ALG2.norm(y - np.linalg.inv(ALG2.one - x)) <= 1e-10

    def test_non_finite_entry_not_convergent(self):
        with pytest.raises(NotConvergent, match="no k <= 32"):
            neumann_inverse(ALG2, np.full((2, 2), np.nan, dtype=complex))


class TestInvertNear:
    def test_zero_perturbation_returns_inverse(self):
        x = 2.0 * ALG2.one
        x_inv = 0.5 * ALG2.one
        result = invert_near(ALG2, x_inv, x, x, tol=1e-12)
        assert np.allclose(result, x_inv, rtol=1e-12)

    def test_reduces_to_neumann_at_identity(self):
        rng = np.random.default_rng(2)
        z = random_matrix(rng, 2)
        z = z * (0.6 / ALG2.norm(z))
        via_perturbation = invert_near(ALG2, ALG2.one, ALG2.one, ALG2.one - z, 1e-12)
        via_series = neumann_inverse(ALG2, z, tol=1e-12)
        assert np.allclose(via_perturbation, via_series, rtol=1e-10)

    def test_triangular_example(self):
        x = 2.0 * ALG2.one
        x_inv = 0.5 * ALG2.one
        y = np.array([[2, 0.1], [0, 2]], dtype=complex)
        tol = 1e-12
        result = invert_near(ALG2, x_inv, x, y, tol=tol)
        closed_form = np.array([[0.5, -0.025], [0, 0.5]], dtype=complex)
        assert np.allclose(result, closed_form, atol=1e-11)
        assert ALG2.norm(y @ result - ALG2.one) <= 10 * tol

    def test_margin_violation_rejected(self):
        x = ALG2.one
        y = ALG2.one + np.array([[0, 1.5], [0, 0]])
        with pytest.raises(ValueError, match="perturbation too large"):
            invert_near(ALG2, ALG2.one, x, y, 1e-10)


class TestResolvent:
    def test_zero_element(self):
        r = resolvent(ALG2, ALG2.zero, 2.0, tol=1e-12)
        assert np.allclose(r, 0.5 * ALG2.one, rtol=1e-12)

    def test_nilpotent_closed_form(self):
        r = resolvent(ALG2, NILPOTENT, 1.0, tol=1e-12)
        assert np.allclose(r, np.array([[1, 1], [0, 1]]), atol=1e-12)

    def test_identity_at_its_spectrum_is_singular(self):
        with pytest.raises(Singular):
            resolvent(ALG2, ALG2.one, 1.0)

    def test_neumann_path_without_direct_solver(self):
        alg = WienerAlgebra()
        f = alg.element({1: 0.5 + 0j})
        lam = 2.0
        r = resolvent(alg, f, lam, tol=1e-12)
        shifted = alg.sub(alg.scale(lam, alg.one), f)
        assert alg.norm(alg.sub(alg.mul(shifted, r), alg.one)) <= 1e-12

    def test_neumann_path_requires_radius_margin(self):
        alg = WienerAlgebra()
        with pytest.raises(NotConvergent, match="radius bound"):
            resolvent(alg, alg.element({1: 1.0 + 0j}), 0.5)

    def test_neumann_path_refuses_lambda_zero(self):
        with pytest.raises(NotConvergent, match="radius bound"):
            resolvent(WienerAlgebra(), WienerAlgebra.element({1: 0.5 + 0j}), 0)

    def test_neumann_path_probes_only_when_not_converging(self):
        # the series' own squarings certify convergence: no separate
        # 32-power radius probe (31 products) before the Neumann sum
        class Counting(WienerAlgebra):
            muls = 0

            def mul(self, x, y):
                Counting.muls += 1
                return super().mul(x, y)

        resolvent(Counting(), Counting.element({1: 0.5 + 0j}), 2.0)
        assert Counting.muls <= 10

    def test_nan_lambda_fails_the_residual_check(self):
        with pytest.raises(Singular, match="residual nan"):
            resolvent(ALG2, ALG2.one, complex("nan"))


class TestTelescope:
    def test_n_zero_is_exact(self):
        rng = np.random.default_rng(9)
        assert telescope_check(ALG2, random_matrix(rng, 2), 0) == 0.0

    def test_identity_is_exact(self):
        assert telescope_check(ALG2, ALG2.one, 7) == 0.0

    def test_random_small_defect(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            alg = MatrixAlgebra(3)
            x = random_matrix(rng, 3)
            assert telescope_check(alg, x, 8) <= 1e-12

