import contextlib
import hashlib
import json
import math
import sys
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import _mp_eigenvalues

from specrad import matrix, reports
from specrad.algebra import DEFAULT_PROBE_DEPTH, power_norms, spectral_radius_upper
from specrad.errors import BudgetExceeded, Singular
from specrad.reports import fmt17

NILPOTENT = np.array([[0, 1], [0, 0]], dtype=complex)
SWAPISH = np.array([[0, 2], [0.5, 0]], dtype=complex)


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


class _Chain(matrix.MatrixAlgebra):
    """MatrixAlgebra without its own power loop: power_norms runs the
    generic chain on its mul and norm, the reference for _power_logs."""

    power_logs = None


class TestNorms:
    def test_identity_norm_is_exactly_one(self):
        for n in (1, 2, 5):
            eye = np.eye(n, dtype=complex)
            assert matrix.inf_norm(eye) == 1.0
            assert matrix.one_norm(eye) == 1.0

    def test_row_and_column_sums(self):
        a = np.array([[1, -2], [3j, 0]], dtype=complex)
        assert matrix.inf_norm(a) == 3.0
        assert matrix.one_norm(a) == 4.0

    def test_submultiplicative_and_triangle(self):
        rng = np.random.default_rng(13)
        for kind, norm in matrix.NORMS.items():
            for _ in range(25):
                n = int(rng.integers(1, 6))
                x, y = random_matrix(rng, n), random_matrix(rng, n)
                assert norm(x @ y) <= norm(x) * norm(y) * (1 + 1e-12)
                assert norm(x + y) <= norm(x) + norm(y) + 1e-12
                alpha = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
                assert norm(alpha * x) == pytest.approx(abs(alpha) * norm(x), rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 12), st.sampled_from(sorted(matrix.SUM_AXIS)), st.data())
    def test_ufunc_reductions_match_sum_and_max(self, c, d, kind, data):
        # past 8 entries numpy sums rows pairwise; nan, inf and -0.0 pass through
        part = st.one_of(st.floats(-4, 4), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]))
        a = data.draw(arrays(np.complex128, (c, d, d), elements=st.builds(complex, part, part)))
        want = np.abs(a).sum(axis=matrix.SUM_AXIS[kind]).max(axis=-1)
        got = matrix._norms(a, kind)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_algebra_refuses_dimension_zero(self):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            matrix.MatrixAlgebra(0)

    def test_algebra_refuses_an_unknown_norm(self):
        with pytest.raises(ValueError, match=r"norm_kind must be one of \['inf', 'one'\]"):
            matrix.MatrixAlgebra(2, "fro")


class TestDirectInverse:
    def test_identity(self):
        assert np.array_equal(matrix.direct_inverse(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        inv = matrix.direct_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), rtol=1e-15)

    def test_unitriangular(self):
        inv = matrix.direct_inverse(np.array([[1, 1], [0, 1]], dtype=complex))
        assert np.allclose(inv, np.array([[1, -1], [0, 1]]), atol=1e-15)

    def test_singular_rank_deficient(self):
        with pytest.raises(Singular, match="pivot"):
            matrix.direct_inverse(np.array([[1, 1], [1, 1]], dtype=complex))

    def test_zero_matrix(self):
        with pytest.raises(Singular):
            matrix.direct_inverse(np.zeros((3, 3)))

    def test_tiny_pivot_below_threshold(self):
        with pytest.raises(Singular, match="pivot"):
            matrix.direct_inverse(np.diag([1.0, 1e-13]))

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.inf, math.nan])
    def test_tol_must_be_positive_and_finite(self, tol):
        # a tol of inf passed every residual; a negative one read as Singular
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            matrix.direct_inverse(np.eye(2), tol=tol)

    def test_unknown_norm_kind_is_refused_by_name(self):
        # by name, as MatrixAlgebra and the stacked power loop refuse it
        with pytest.raises(ValueError, match=r"norm_kind must be one of \['inf', 'one'\]"):
            matrix.direct_inverse(np.eye(2), norm_kind="two")

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_pivot_floor_stays_finite_when_the_norm_overflows(self, norm_kind):
        # norm(a) is 2e308 = inf, but both pivots are 1e308
        a = np.array([[1e308, 1e308], [0, 1e308]], dtype=complex)
        floor = matrix._pivot_floors(a[None], norm_kind)[0]
        assert floor == 2e296
        inv = matrix.direct_inverse(a, norm_kind=norm_kind)
        assert np.allclose(inv, [[1e-308, -1e-308], [0, 1e-308]], rtol=1e-15, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 9),
        st.sampled_from(sorted(matrix.NORMS)),
        st.integers(0, 2**32 - 1),
    )
    def test_a_stack_inverts_each_member_as_its_own_call(self, c, n, norm_kind, seed):
        # diagonally dominant members, scaled across the float range
        rng = np.random.default_rng(seed)
        scales = 10.0 ** rng.integers(-300, 300, (c, 1, 1))
        stack = (random_matrix(rng, n) + (2.0 + n) * np.eye(n)) * scales
        got = matrix.direct_inverse(stack, norm_kind=norm_kind)
        want = np.stack([matrix.direct_inverse(x, norm_kind=norm_kind) for x in stack])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_a_singular_member_raises_its_own_pivot_message(self):
        stack = np.array([np.eye(2), [[1, 1], [1, 1]], np.diag([1.0, 1e-13])], dtype=complex)
        with pytest.raises(Singular) as alone:
            matrix.direct_inverse(stack[1])
        with pytest.raises(Singular) as stacked:
            matrix.direct_inverse(stack)
        assert str(alone.value).startswith("pivot magnitude")
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(2, 2, 3), (0, 2, 2), (2, 0, 0)])
    def test_a_stack_of_non_square_matrices_is_refused(self, shape):
        with pytest.raises(ValueError, match=r"stack of square matrices, got shape"):
            matrix.direct_inverse(np.ones(shape))

    def test_an_unknown_norm_kind_is_refused_on_a_stack(self):
        with pytest.raises(ValueError, match=r"norm_kind must be one of \['inf', 'one'\]"):
            matrix.direct_inverse(np.stack([np.eye(2)] * 3), norm_kind="two")

    @settings(max_examples=30, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 3),
            elements=st.floats(min_value=-1, max_value=1, allow_nan=False),
        )
    )
    def test_residual_contract_on_dominant_matrices(self, a):
        x = a.astype(complex) + (2.0 + matrix.inf_norm(a)) * np.eye(3)
        inv = matrix.direct_inverse(x, tol=1e-10)
        assert matrix.inf_norm(x @ inv - np.eye(3)) <= 1e-10


class TestEigenOracle:
    def test_nilpotent(self):
        assert matrix.eigen_oracle(NILPOTENT) == [0, 0]

    def test_swapish(self):
        roots = matrix.eigen_oracle(SWAPISH)
        assert roots[0] == pytest.approx(-1.0, abs=1e-12)
        assert roots[1] == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_complex(self):
        roots = matrix.eigen_oracle(np.diag([3.0, -1.0 + 2j]))
        assert roots[0] == pytest.approx(-1.0 + 2j, abs=1e-12)
        assert roots[1] == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize(
        "a, message",
        [
            # the triangular path returned inf as an eigenvalue
            ([[math.inf, 1], [0, 1]], r"matrix entry \(1, 1\) is not finite: inf"),
            ([[1, 2], [complex(3, math.nan), 4]], r"matrix entry \(2, 1\) is not finite: 3\+nanj"),
        ],
        ids=["triangular-inf", "nan"],
    )
    def test_refuses_a_non_finite_entry(self, a, message):
        with pytest.raises(ValueError, match=message):
            matrix.eigen_oracle(a)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_cyclic_permutation_past_four(self, n):
        # every eigenvalue is an n-th root of unity; the oracle stopped at n = 4
        a = np.roll(np.eye(n), 1, axis=1)
        assert matrix.oracle_radius(a) == pytest.approx(1.0, rel=0, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_triangular_diagonal(self, n):
        rng = np.random.default_rng(29 + n)
        for _ in range(20):
            a = np.triu(random_matrix(rng, n))
            got = matrix.eigen_oracle(a)
            want = sorted(np.diag(a), key=lambda z: (z.real, z.imag))
            for g, w in zip(got, want):
                assert g == pytest.approx(w, abs=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_trace_and_determinant_consistency(self, n):
        rng = np.random.default_rng(37 + n)
        for _ in range(20):
            a = random_matrix(rng, n)
            roots = matrix.eigen_oracle(a)
            assert sum(roots) == pytest.approx(np.trace(a), abs=1e-8)
            prod = 1.0 + 0j
            for z in roots:
                prod *= z
            assert prod == pytest.approx(np.linalg.det(a), abs=1e-8)

    def test_backward_error_small(self):
        # each lambda is an exact eigenvalue of a matrix within sigma_min of A
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            a = random_matrix(rng, n)
            for lam in matrix.eigen_oracle(a):
                sigma_min = np.linalg.svd(lam * np.eye(n) - a, compute_uv=False)[-1]
                assert sigma_min <= 1e-12 * max(1.0, matrix.inf_norm(a))


class TestOracleAccuracy:
    """The oracle against 50-digit eigenvalues, at any scale of the entries."""

    def check(self, a):
        got = matrix.eigen_oracle(a)
        assert all(type(z) is complex for z in got)
        want = _mp_eigenvalues(a)
        radius = max(abs(z) for z in want)
        assert abs(matrix.oracle_radius(a) - radius) <= 1e-13 * radius
        for z in want:
            assert min(abs(z - g) for g in got) <= 1e-13 * radius

    @pytest.mark.parametrize("scale", [1.0, 1e100, 1e-100, 1e200, 1e-200])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_scaled(self, n, scale):
        rng = np.random.default_rng(59 + n)
        self.check(scale * random_matrix(rng, n))

    @pytest.mark.parametrize(
        "a",
        [
            # the characteristic polynomial underflowed to radius 0, lost the
            # small eigenvalue of [[1, 2], [3, 4]], and overflowed to inf
            1e-200 * np.array([[0, 1], [1, 0]]),
            1e-200 * np.array([[1, 2], [3, 4]]),
            1e200 * np.array([[0, 1], [1, 0]]),
        ],
    )
    def test_characteristic_polynomial_failures(self, a):
        self.check(a)


class TestSpectralMapping:
    def test_identity(self):
        for n in (2, 3, 5):
            assert matrix.spectral_mapping_check(np.eye(3), n)

    def test_swapish_squares_to_identity(self):
        assert matrix.spectral_mapping_check(SWAPISH, 2)

    def test_diagonal_fourth_power(self):
        assert matrix.spectral_mapping_check(np.diag([1j, 2.0]), 4)

    def test_seeded_random(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            a = random_matrix(rng, int(rng.integers(1, 5)))
            for n in (2, 3, 5):
                assert matrix.spectral_mapping_check(a, n)

    def test_rounding_fails_a_zero_tolerance(self):
        # the eigenvalues of A^3 and the cubes of those of A differ by rounding
        assert not matrix.spectral_mapping_check([[1, 2], [3, 4]], 3, tol=0.0)

    def test_refuses_a_power_past_the_float_range(self):
        # matrix_power warned twice, then eigvals raised LinAlgError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^A\^2 has an entry past the float range$"):
                matrix.spectral_mapping_check([[1e200, 1], [1, 0]], 2)

    def test_refuses_power_zero(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            matrix.spectral_mapping_check(np.eye(2), 0)


class TestGridSpec:
    def test_span_past_the_float_range_is_refused(self):
        with pytest.raises(BudgetExceeded, match="axis"):
            matrix.GridSpec(-1e308, 1e308, 0, 0, 1)

    def test_too_many_points_refused_before_any_is_laid_out(self):
        with pytest.raises(BudgetExceeded, match="MAX_GRID_CELLS"):
            matrix.GridSpec(0, 1, 0, 0, 1e-300)

    def test_cell_budget_boundary(self):
        side = 2**10 - 1  # 1024 points per axis
        grid = matrix.GridSpec(0, side, 0, side, 1)
        assert len(grid.re_points()) * len(grid.im_points()) == matrix.MAX_GRID_CELLS
        with pytest.raises(BudgetExceeded):
            matrix.GridSpec(0, side + 1, 0, side, 1)


def noninvertible(scan):
    return scan.cells[~scan.invertible].tolist()


class TestSpectrumScan:
    def test_zero_matrix_flags_origin_only(self):
        grid = matrix.GridSpec(-1, 1, -1, 1, 0.5)
        scan = matrix.spectrum_scan(np.zeros((2, 2)), grid)
        assert noninvertible(scan) == [0j]

    def test_diagonal_spectrum_on_grid(self):
        grid = matrix.GridSpec(0, 3, -0.5, 0.5, 0.5)
        scan = matrix.spectrum_scan(np.diag([1.0, 2.0]), grid)
        assert sorted(z.real for z in noninvertible(scan)) == [1.0, 2.0]
        assert all(z.imag == 0 for z in noninvertible(scan))

    def test_swapish_spectrum_near_plus_minus_one(self):
        grid = matrix.GridSpec(-1.5, 1.5, 0, 0, 0.25)
        scan = matrix.spectrum_scan(SWAPISH, grid)
        assert sorted(z.real for z in noninvertible(scan)) == [-1.0, 1.0]

    def test_outside_norm_always_invertible(self):
        rng = np.random.default_rng(53)
        a = random_matrix(rng, 3)
        bound = matrix.inf_norm(a)
        grid = matrix.GridSpec(-2 * bound, 2 * bound, 0, 0, bound / 2)
        scan = matrix.spectrum_scan(a, grid)
        outside = np.abs(scan.cells) > bound
        assert scan.invertible[outside].all()

    def test_matches_oracle_within_one_step(self):
        step = 0.25
        grid = matrix.GridSpec(-2, 2, -2, 2, step)
        scan = matrix.spectrum_scan(SWAPISH, grid)
        eigs = matrix.eigen_oracle(SWAPISH)
        for lam in noninvertible(scan):
            assert min(abs(lam - mu) for mu in eigs) <= step

    def test_modulus_past_the_float_range_is_outside_the_bound(self):
        # abs() of this lambda raised OverflowError in the per-cell scan
        grid = matrix.GridSpec(1.5e308, 1.5e308, 1.5e308, 1.5e308, 1)
        scan = matrix.spectrum_scan(np.array([[0.5]]), grid)
        assert scan.to_csv() == "re,im,invertible,margin\n1.5e+308,1.5e+308,true,inf\n"

    def test_csv_schema(self):
        grid = matrix.GridSpec(0, 0.5, 0, 0, 0.5)
        text = matrix.spectrum_scan(np.zeros((1, 1)), grid).to_csv()
        lines = text.splitlines()
        assert lines[0] == "re,im,invertible,margin"
        assert lines[1] == "0,0,false,0"


# --- certified eigenvalue disks ----------------------------------------------------


def kahan(n, theta=1.2):
    """Kahan's upper triangular matrix diag(s^0, ..., s^(n-1)) (I - c T), with T
    the strict upper triangle of ones, s = sin(theta) and c = cos(theta)."""
    s, c = math.sin(theta), math.cos(theta)
    return np.diag(s ** np.arange(n)) @ (np.eye(n) - c * np.triu(np.ones((n, n)), 1))


def in_a_disk(z, disks) -> bool:
    """Whether z lies in one of the disks, decided exactly in Fractions."""
    centres, r = disks
    z = complex(z)
    return any(
        (Fraction(z.real) - Fraction(w.real)) ** 2 + (Fraction(z.imag) - Fraction(w.imag)) ** 2
        <= Fraction(r) ** 2
        for w in centres.tolist()
    )


# a guess (w, V) and an inverse R of V that are off on purpose, each with a
# matrix whose eigenvalues, its diagonal, are exact
WRONG_GUESSES = {
    # A V - V diag(w) rounds to half its exact value, 2^-53 for 2^-52: the
    # eigenvalue 1 + 2^-52 lies in the disk only with the product rounding terms
    "rounded-residual": ([[1 + 2**-52]], [1.0], [[1 - 2**-53]], None),
    # R = inv(V) / 2, so ||F|| = 1/2: the eigenvalues 1 and 2 lie in the disks
    # only with the factor 1 / (1 - ||F||)
    "half-inverse": (np.diag([1.0, 2.0]), [1 + 2**-10, 2 + 2**-10], np.eye(2), 0.5 * np.eye(2)),
}

# recorded before the scan had disks: where _eigen_disks proves none, every
# cell inside the radius bound is eliminated, as then
FALLBACK_MATRICES = {"jordan-32": 0.5 * np.eye(32) + np.eye(32, k=1), "kahan-64": kahan(64)}
FALLBACK_SCAN_SHA256 = {
    "jordan-32": "2837812fcd3c36b2d1c06338a7ff9619c70ec66887779320ba1b848c04d1db3a",
    "kahan-64": "97d9684acdc864654433a32d08ecd0671b0b822e65ae7e45604ee1e09029d6bb",
}


class TestEigenDisks:
    @pytest.mark.parametrize("kind", ["diagonal", "upper", "lower"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 32])
    def test_exact_eigenvalues_of_triangular_matrices(self, n, kind):
        rng = np.random.default_rng(n)
        a = random_matrix(rng, n)
        a = {"diagonal": np.diag(np.diag(a)), "upper": np.triu(a), "lower": np.tril(a)}[kind]
        disks = matrix._eigen_disks(a)
        assert all(in_a_disk(z, disks) for z in np.diag(a))

    def test_exact_eigenvalues_of_kahans_matrix(self):
        # non-normal, so its disks are wide, but at n = 32 they are proved
        a = kahan(32).astype(complex)
        disks = matrix._eigen_disks(a)
        assert 1e-5 < disks[1] < 1e-3
        assert all(in_a_disk(z, disks) for z in np.diag(a))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_50_digit_eigenvalues_of_random_matrices(self, n):
        rng = np.random.default_rng(71 + n)
        for _ in range(5):
            a = random_matrix(rng, n)
            centres, r = matrix._eigen_disks(a)
            assert r < 1e-12
            with mpmath.workdps(50):
                for z in _mp_eigenvalues(a):
                    assert min(abs(z - mpmath.mpc(w)) for w in centres.tolist()) <= r

    @pytest.mark.parametrize("name", sorted(WRONG_GUESSES))
    def test_a_wrong_guess_still_gives_disks_that_hold(self, monkeypatch, name):
        a, w, v, r = WRONG_GUESSES[name]
        a, w, v = (np.array(x, dtype=complex) for x in (a, w, v))
        monkeypatch.setattr(np.linalg, "eig", lambda x: (w, v))
        if r is not None:
            monkeypatch.setattr(np.linalg, "inv", lambda x: np.array(r, dtype=complex))
        disks = matrix._eigen_disks(a)
        assert all(in_a_disk(z, disks) for z in np.diag(a))

    def test_a_singular_guess_proves_nothing(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eig", lambda x: (np.zeros(2), np.zeros((2, 2))))
        assert matrix._eigen_disks(np.eye(2, dtype=complex)) is None

    @pytest.mark.parametrize("name", sorted(FALLBACK_SCAN_SHA256))
    def test_non_normal_matrices_fall_back_to_elimination(self, name):
        a = FALLBACK_MATRICES[name]
        assert matrix._eigen_disks(a.astype(complex)) is None
        text = matrix.spectrum_scan(a, matrix.GridSpec(-2, 2, -2, 2, 0.25)).to_csv()
        assert hashlib.sha256(text.encode()).hexdigest() == FALLBACK_SCAN_SHA256[name]


# reference writers with one format call per entry part; the row-template
# writers must match them byte for byte, signs of zeros and nans included
EDGE_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308, 1.5, -0.1,
]


def _format_complex(z):
    re, im = complex(z).real, complex(z).imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return "%s%s%sj" % ("%.17g" % re, sign, "%.17g" % abs(im))


def _per_entry_csv(a):
    return "\n".join(",".join(_format_complex(z) for z in row) for row in a) + "\n"


def _json_number(x):
    # strict JSON has no inf or nan: those are written as strings
    return "%.17g" % x if math.isfinite(x) else '"%.17g"' % x


def _per_entry_json(a):
    rows = [", ".join("[%s, %s]" % (_json_number(z.real), _json_number(z.imag)) for z in row)
            for row in a]
    return "[\n" + ",\n".join("  [%s]" % r for r in rows) + "\n]\n"


class TestMatrixIO:
    def test_csv_round_trip(self):
        rng = np.random.default_rng(59)
        a = random_matrix(rng, 3)
        back = matrix.read_matrix_csv(matrix.matrix_to_csv(a))
        assert np.array_equal(back, a)

    def test_json_round_trip(self):
        rng = np.random.default_rng(61)
        a = random_matrix(rng, 4)
        back = matrix.read_matrix_json(matrix.matrix_to_json(a))
        assert np.array_equal(back, a)

    def test_parse_plain_tokens(self):
        a = matrix.read_matrix_csv("1+0j,2-1j\n0+0j,3+4j\n")
        assert a[0, 1] == 2 - 1j
        assert a[1, 1] == 3 + 4j

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix.read_matrix_csv("1+0j,2+0j\n3+0j\n")

    def test_csv_skips_blank_lines(self):
        a = matrix.read_matrix_csv("1+0j,0+0j\n\n  \n0+0j,1+0j\n")
        assert np.array_equal(a, np.eye(2))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: arrays(
                np.float64, (n, n, 2), elements=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
            )
        )
    )
    def test_writers_match_the_per_entry_writers(self, parts):
        # (re, im) pairs as complex entries, with every bit of both parts kept
        a = parts.view(np.complex128)[..., 0]
        assert matrix.matrix_to_csv(a) == _per_entry_csv(a)
        assert matrix.matrix_to_json(a) == _per_entry_json(a)


    @staticmethod
    def _non_finite(n):
        a = np.eye(n, dtype=complex)
        a[0, 0], a[1, 0], a[-1, -1] = math.inf, complex(1, math.nan), complex(-math.inf, -0.0)
        return a

    @pytest.mark.parametrize("n", [2, 40])
    def test_json_of_non_finite_entries_is_strict(self, n):
        # both take the column route: 40 x 40 by its size, 2 x 2 by its inf and nan
        a = self._non_finite(n)

        def refuse(constant):
            raise ValueError("non-strict JSON constant %s" % constant)

        data = json.loads(matrix.matrix_to_json(a), parse_constant=refuse)
        assert data[0][0] == ["inf", 0] and data[1][0] == [1, "nan"]
        assert data[-1][-1] == ["-inf", -0.0] and data[0][1] == [0, 0]

    def test_small_json_of_non_finite_entries_is_unchanged(self):
        # the digest was recorded before the route rule moved into reports.table_blocks
        text = matrix.matrix_to_json(self._non_finite(2))
        digest = "dc49af65374bf3fd3fbe1375ee6364acb0de13a5e5ad73b3a01ea49bc763a471"
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(32, 40).flatmap(
            lambda n: arrays(
                np.float64, (n, n, 2), elements=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
            )
        )
    )
    def test_column_route_writers_match_the_per_entry_writers(self, parts):
        a = parts.view(np.complex128)[..., 0]
        assert matrix.matrix_to_csv(a) == _per_entry_csv(a)
        assert matrix.matrix_to_json(a) == _per_entry_json(a)

    def test_spectrum_csv_routes_agree(self):
        rng = np.random.default_rng(7)
        cells = rng.standard_normal(1500) + 1j * rng.standard_normal(1500)
        cells[:6] = [0.0, complex(-0.0, 1e-300), complex(5e-324, -1e17), 1e16, complex(0.5, -0.0), 2**-25]
        margin = np.concatenate([[math.inf, -0.0, math.nan], rng.standard_normal(1497) * 1e-9])
        grid = matrix.SpectrumGrid(cells, rng.random(1500) < 0.5, margin)
        with mock.patch.object(reports, "COLUMN_ROUTE_SIZE", 2**62):
            want = grid.to_csv()
        assert grid.to_csv() == want
        assert want.count("\n") == 1501


# --- the batched kernel against the per-cell loop it replaced ---------------------
# The references below are the one-matrix Gauss-Jordan loop, direct_inverse and
# spectrum_scan as they were before elimination was batched; the scan skips the
# cells outside _eigen_disks' disks, as spectrum_scan does, but tests each one
# on its own.  The batched code must agree with them bit for bit: flags,
# margins, inverses and messages.


def _reference_gauss_inverse(a, pivot_floor):
    n = a.shape[0]
    aug = np.hstack([a.astype(complex, copy=True), np.eye(n, dtype=complex)])
    min_pivot = math.inf
    # as in _gauss_inverse: a subnormal pivot overflows its row to inf
    with np.errstate(all="ignore"):
        for col in range(n):
            rows = np.abs(aug[col:, col])
            best = col + int(np.argmax(rows))
            pivot_mag = float(abs(aug[best, col]))
            if pivot_mag < pivot_floor or pivot_mag == 0.0:
                return None, pivot_mag
            min_pivot = min(min_pivot, pivot_mag)
            if best != col:
                aug[[col, best]] = aug[[best, col]]
            aug[col] = aug[col] / aug[col, col]
            for r in range(n):
                if r != col and aug[r, col] != 0:
                    aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:], min_pivot


def _reference_direct_inverse(a, tol=1e-10, norm_kind="inf"):
    a = matrix.as_matrix(a)
    norm = matrix.NORMS[norm_kind]
    floor = matrix.PIVOT_RTOL * norm(a)
    inv, min_pivot = _reference_gauss_inverse(a, floor)
    if inv is None:
        raise Singular("pivot magnitude %.6g below threshold %.6g" % (min_pivot, floor))
    residual = norm(a @ inv - np.eye(a.shape[0]))
    if residual > tol:
        raise Singular(
            "inverse residual %.6g exceeds tol %.6g (min pivot %.6g)" % (residual, tol, min_pivot)
        )
    return inv


def _reference_scan_csv(rows):
    """The CSV of (lam, invertible, margin) rows, three fmt17 calls per line."""
    lines = ["re,im,invertible,margin"]
    for lam, invertible, margin in rows:
        lines.append(
            "%s,%s,%s,%s"
            % (fmt17(lam.real), fmt17(lam.imag), "true" if invertible else "false", fmt17(margin))
        )
    return "\n".join(lines) + "\n"


def _reference_spectrum_scan(a, grid, norm_kind="inf"):
    """The CSV of spectrum_scan(a, grid, norm_kind), one cell at a time."""
    a = matrix.as_matrix(a)
    n = a.shape[0]
    norm = matrix.NORMS[norm_kind]
    upper = spectral_radius_upper(_Chain(n, norm_kind), a, DEFAULT_PROBE_DEPTH)
    upper *= 1.0 + 1e-12
    disks = matrix._eigen_disks(a)
    eye = np.eye(n, dtype=complex)
    rows = []
    for i in range(len(grid.re_points())):
        for j in range(len(grid.im_points())):
            lam = complex(grid.re_min + i * grid.step, grid.im_min + j * grid.step)
            if abs(lam) > upper:
                rows.append((lam, True, abs(lam) - upper))
                continue
            if disks is not None:
                centres, r = disks
                gap = min(abs(lam - complex(w)) for w in centres) * matrix.DISTANCE_DOWN
                if gap > r:
                    rows.append((lam, True, gap - r))
                    continue
            shifted = lam * eye - a
            inv, pivot = _reference_gauss_inverse(shifted, matrix.PIVOT_RTOL * norm(shifted))
            rows.append((lam, inv is not None, pivot))
    return _reference_scan_csv(rows)


def same_bits(x, y) -> bool:
    """Equal arrays, telling -0.0 from 0.0; any nan matches any nan."""
    x, y = np.asarray(x).view(float), np.asarray(y).view(float)
    nan_x, nan_y = np.isnan(x), np.isnan(y)
    return (
        x.shape == y.shape
        and np.array_equal(nan_x, nan_y)
        and np.array_equal(x[~nan_x], y[~nan_y])
        and np.array_equal(np.signbit(x[~nan_x]), np.signbit(y[~nan_y]))
    )


def direct_inverse_outcome(direct_inverse, a, norm_kind):
    try:
        return "inverse", direct_inverse(a, norm_kind=norm_kind)
    except Singular as exc:
        return "Singular", str(exc)


# eigenvalues of diagonal and triangular inputs sit on points of SCAN_GRID
SCAN_STEP = 0.25
SCAN_GRID = matrix.GridSpec(-1.5, 1.5, -1.5, 1.5, SCAN_STEP)
on_grid = st.builds(complex, st.integers(-6, 6), st.integers(-6, 6)).map(lambda z: z * SCAN_STEP)
entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def scan_inputs(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "diagonal", "upper", "lower", "zero"]))
    if kind == "zero":
        a = np.zeros((n, n), dtype=complex)
    elif kind == "dense":
        a = draw(arrays(np.complex128, (n, n), elements=entries))
    else:
        a = np.diag(draw(st.lists(on_grid, min_size=n, max_size=n)))
        off = draw(arrays(np.complex128, (n, n), elements=entries))
        a += {"diagonal": 0, "upper": np.triu(off, 1), "lower": np.tril(off, -1)}[kind]
    return a, draw(st.sampled_from(sorted(matrix.NORMS)))


BLOCK_ROWS = matrix.SCAN_BLOCK_ENTRIES  # a whole number of the CSV writer's blocks of rows


def no_disks():
    """A scan in which _eigen_disks proves no disk, so that every cell inside
    the radius bound is eliminated."""
    return mock.patch.object(matrix, "_eigen_disks", lambda a: None)


def assert_scan_matches_reference(a, grid, norm_kind="inf"):
    """spectrum_scan against the per-cell reference, with its disks and without."""
    for context in (contextlib.nullcontext(), no_disks()):
        with context:
            want = _reference_spectrum_scan(a, grid, norm_kind)
            assert matrix.spectrum_scan(a, grid, norm_kind).to_csv() == want


class TestBatchedElimination:
    @settings(max_examples=60, deadline=None)
    @given(scan_inputs(), st.just(SCAN_GRID))
    @example((np.array([[2.22507386e-311 + 0j]]), "inf"), SCAN_GRID)  # 1 / pivot overflows
    @example((np.zeros((2, 2)), "inf"), matrix.GridSpec(-0.0, 0.5, -0.0, 0.5, 0.25))
    @example((np.diag([-0.5, 0.0]), "one"), matrix.GridSpec(-1.0, -0.0, -0.0, -0.0, 0.5))
    @example((np.array([[8e307, 8e307], [8e307, -8e307]]), "inf"), SCAN_GRID)
    @example((np.array([[1e308, 0], [7e307j, 1e308]]), "one"),
             matrix.GridSpec(-1e300, 1e300, -1e300, 1e300, 1e300))
    def test_scan_matches_per_cell_elimination(self, case, grid):
        a, norm_kind = case
        assert_scan_matches_reference(a, grid, norm_kind)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    @pytest.mark.parametrize("n", [16, 32])
    def test_scan_matches_at_benchmark_sizes(self, n, norm_kind):
        rng = np.random.default_rng(n)
        a = random_matrix(rng, n)
        a /= matrix.inf_norm(a)
        grid = matrix.GridSpec(-1.0, 1.0, -1.0, 1.0, 2.0 / 19)
        assert_scan_matches_reference(a, grid, norm_kind)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("n", [4, 16, 32])
    def test_scan_across_a_block_edge(self, n, offset):
        # one grid row of block + offset cells, all inside the radius bound 4;
        # the triangular matrix has eigenvalues on three of its points
        count = max(1, matrix.SCAN_BLOCK_ENTRIES // (n * n)) + offset
        grid = matrix.GridSpec(-1.0, 1.0, 0.0, 0.0, 2.0 / (count - 1))
        points = grid.re_points()
        assert len(points) == count
        rng = np.random.default_rng(count)
        a = np.triu(random_matrix(rng, n), 1)
        a[np.diag_indices(n)] = [4.0, points[0], points[count // 2], points[-1]] * (n // 4)
        for context in (contextlib.nullcontext(), no_disks()):
            with context:
                scan = matrix.spectrum_scan(a, grid)
                assert scan.to_csv() == _reference_spectrum_scan(a, grid)
                assert len(noninvertible(scan)) == 3

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 40).flatmap(
            lambda c: st.tuples(
                arrays(np.float64, (c, 3), elements=st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())),
                arrays(np.bool_, c),
            )
        )
    )
    @example((np.full((BLOCK_ROWS, 3), -0.0), np.zeros(BLOCK_ROWS, dtype=bool)))
    @example((np.full((BLOCK_ROWS + 1, 3), math.nan), np.ones(BLOCK_ROWS + 1, dtype=bool)))
    def test_writer_matches_the_per_cell_writer(self, columns):
        # signed zeros, nan and inf in every column, and blocks of rows past one
        parts, flags = columns
        cells = parts[:, :2].copy().view(np.complex128)[:, 0]
        scan = matrix.SpectrumGrid(cells, flags, parts[:, 2].copy())
        want = _reference_scan_csv(zip(cells.tolist(), flags.tolist(), parts[:, 2].tolist()))
        assert scan.to_csv() == want

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 32),
        st.sampled_from(["dense", "upper", "duplicate-row", "zero-column", "tiny-pivot"]),
        st.sampled_from(sorted(matrix.NORMS)),
        st.integers(0, 2**32 - 1),
    )
    def test_direct_inverse_matches_the_row_loop(self, n, kind, norm_kind, seed):
        rng = np.random.default_rng(seed)
        a = random_matrix(rng, n)
        if kind == "upper":
            a = np.triu(a) + 2 * np.eye(n)
        elif kind == "duplicate-row":
            a[-1] = a[0]
        elif kind == "zero-column":
            a[:, rng.integers(n)] = 0
        elif kind == "tiny-pivot":
            a = np.diag(rng.uniform(0.5, 1.0, n) * 10.0 ** -rng.integers(0, 16, n))
        got = direct_inverse_outcome(matrix.direct_inverse, a, norm_kind)
        want = direct_inverse_outcome(_reference_direct_inverse, a, norm_kind)
        assert got[0] == want[0]
        if got[0] == "Singular":
            assert got[1] == want[1]
        else:
            assert same_bits(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: arrays(
                np.complex128,
                st.tuples(st.integers(1, 5), st.just(n), st.just(n)),
                elements=st.sampled_from(
                    [0j, 1, -1, 2j, 0.5 - 0.5j, 3e-13, math.inf, -math.inf, math.nan, complex(math.inf, 1)]
                ),
            )
        ),
        st.sampled_from([0.0, 1e-12, 0.5, math.nan]),
    )
    def test_kernel_matches_the_row_loop_on_non_finite_input(self, stack, floor):
        # the row loop skips a row with a zero in the pivot column, keeps its
        # margin on a nan pivot and fails a cell on its first small pivot
        floors = np.full(len(stack), floor)
        ok, margin, _ = matrix._gauss_inverse(stack, floors)
        ok_full, margin_full, solution = matrix._gauss_inverse(
            stack, floors, np.broadcast_to(np.eye(stack.shape[1], dtype=complex), stack.shape)
        )
        assert np.array_equal(ok, ok_full) and same_bits(margin, margin_full)
        for i, a in enumerate(stack):
            inv, pivot = _reference_gauss_inverse(a, floor)
            assert ok[i] == (inv is not None)
            assert same_bits(margin[i], pivot)
            if inv is not None:
                assert same_bits(solution[i], inv)


# --- stacked power tables against the chain, one matrix at a time --------------

def _columns(report):
    return repr(report.value), repr(report.root), repr(report.running_min)


def _reference_power_norms(x, n):
    return power_norms(_Chain(x.shape[0]), matrix.as_matrix(x), n)


def _assert_stacked_matches(mats, n):
    reports = matrix.stacked_power_norms(mats, n)
    assert len(reports) == len(mats)
    for x, report in zip(mats, reports):
        assert _columns(report) == _columns(_reference_power_norms(x, n))


_BIG = sys.float_info.max / math.sqrt(2.0)
STACK_EDGE_CASES = {
    "zero": np.zeros((3, 3), dtype=complex),
    "nilpotent": NILPOTENT,
    "subnormal norm": np.array([[1e-310, 2e-310j], [0, 3e-310]]),
    "norm past the float range": np.array([[1e308, 1e308], [0, 1e308]]),
    "norm overflows at k = 3": np.array([[_BIG * (1 + 1j)]]),
    "product overflows": np.array([[sys.float_info.max]]),
    "nan entry": np.array([[0.5, math.nan], [0.25, 0.5j]]),
}


class TestStackedPowerNorms:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(n), st.just(n), st.just(2)),
                elements=st.floats(-1e3, 1e3, allow_nan=False),
            )
        ),
        st.integers(1, 40),
        st.booleans(),
    )
    def test_matches_power_norms(self, parts, n, real):
        # a real matrix is taken as the complex matrix it equals
        mats = list(parts[..., 0] if real else parts.view(np.complex128)[..., 0])
        _assert_stacked_matches(mats, n)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(1, 5).flatmap(
                lambda n: arrays(np.float64, (n, n, 2), elements=st.floats(-2, 2, allow_nan=False))
            ),
            min_size=1,
            max_size=8,
        ),
    )
    def test_mixed_dimensions_keep_input_order(self, parts):
        mats = [p.view(np.complex128)[..., 0] for p in parts]
        _assert_stacked_matches(mats, 12)

    @pytest.mark.parametrize("name", sorted(STACK_EDGE_CASES))
    def test_edge_cases_leave_the_stack(self, name):
        # each case among ordinary matrices of its own dimension, so the
        # stack keeps running after the case leaves it
        x = STACK_EDGE_CASES[name]
        rng = np.random.default_rng(3)
        d = x.shape[0]
        mats = [random_matrix(rng, d), x, random_matrix(rng, d), random_matrix(rng, d + 1)]
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            reports = matrix.stacked_power_norms(mats, 6)
        with warnings.catch_warnings(record=True) as direct:
            warnings.simplefilter("always")
            wants = [_reference_power_norms(m, 6) for m in mats]
        assert list(map(_columns, reports)) == list(map(_columns, wants))
        # the stacked loop adds no warning of its own
        assert [str(w.message) for w in stacked] == [str(w.message) for w in direct]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="n >= 1"):
            matrix.stacked_power_norms([NILPOTENT], 0)
        assert matrix.stacked_power_norms([], 4) == []


# --- the one matrix power loop, both norms -----------------------------------------

def _reference_power_norms_of(x, n, norm_kind):
    return power_norms(_Chain(x.shape[0], norm_kind), matrix.as_matrix(x), n)


def _tables_and_warnings(run):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = run()
    return list(map(_columns, reports)), [str(w.message) for w in caught]


def _assert_one_loop_matches(mats, n, norm_kind):
    got = _tables_and_warnings(lambda: matrix.stacked_power_norms(mats, n, norm_kind))
    want = _tables_and_warnings(
        lambda: [_reference_power_norms_of(x, n, norm_kind) for x in mats])
    assert got == want


class TestOnePowerLoop:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda n: arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(n), st.just(n), st.just(2)),
                elements=st.floats(-1e3, 1e3, allow_nan=False),
            )
        ),
        st.integers(1, 40),
        st.sampled_from(sorted(matrix.NORMS)),
    )
    def test_matches_power_norms(self, parts, n, norm_kind):
        # one matrix or several, each dimension as one stack
        mats = list(parts.view(np.complex128)[..., 0])
        _assert_one_loop_matches(mats, n, norm_kind)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.integers(1, 5).flatmap(
                lambda n: arrays(np.float64, (n, n, 2), elements=st.floats(-2, 2, allow_nan=False))
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(sorted(matrix.NORMS)),
    )
    def test_mixed_dimensions_keep_input_order(self, parts, norm_kind):
        mats = [p.view(np.complex128)[..., 0] for p in parts]
        _assert_one_loop_matches(mats, 12, norm_kind)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    @pytest.mark.parametrize("name", sorted(STACK_EDGE_CASES))
    def test_edge_case_alone_runs_the_chain(self, name, norm_kind):
        _assert_one_loop_matches([STACK_EDGE_CASES[name]], 6, norm_kind)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    @pytest.mark.parametrize("name", sorted(STACK_EDGE_CASES))
    def test_edge_case_among_others_leaves_the_stack(self, name, norm_kind):
        x = STACK_EDGE_CASES[name]
        rng = np.random.default_rng(5)
        d = x.shape[0]
        mats = [random_matrix(rng, d), x, random_matrix(rng, d), random_matrix(rng, d + 1)]
        _assert_one_loop_matches(mats, 6, norm_kind)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_layout_other_than_c_matches(self, norm_kind):
        # a transposed view sums its first norm in another order than a C copy;
        # at d >= 8 numpy's pairwise row sums can round differently
        rng = np.random.default_rng(11)
        mats = [random_matrix(rng, d).T for d in (8, 12, 16, 16)]
        _assert_one_loop_matches(mats, 20, norm_kind)

    def test_unknown_norm_kind_is_refused(self):
        with pytest.raises(ValueError, match="norm_kind must be one of"):
            matrix.stacked_power_norms([NILPOTENT], 4, "fro")


class TestCOrder:
    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_views_run_as_their_c_copies_in_the_stack(self, norm_kind, monkeypatch):
        # at d >= 8 numpy's pairwise sums over a transposed view can round
        # otherwise than over a C copy; as_matrix makes the C copy first
        rng = np.random.default_rng(11)
        views = [random_matrix(rng, d).T for d in (8, 12, 16, 16, 24, 32)]
        norm = matrix.NORMS[norm_kind]
        for x in views:
            assert not x.flags.c_contiguous
            assert norm(x) == norm(np.ascontiguousarray(x))
        want = [r.to_csv() for r in matrix.stacked_power_norms(
            [np.ascontiguousarray(x) for x in views], 20, norm_kind)]

        def refuse(*args):
            raise AssertionError("a view left the stacked loop for power_norms")

        monkeypatch.setattr(matrix, "power_norms", refuse)
        assert [r.to_csv() for r in matrix.stacked_power_norms(views, 20, norm_kind)] == want


# --- blocked power tables past POWER_BLOCK rows --------------------------------------

def _mp_roots(x, n, norm_kind):
    """norm(x^k)^(1/k), k = 1..n, at 50 digits."""
    with mpmath.workdps(50):
        rows = [[mpmath.mpc(z) for z in row] for row in x.tolist()]
        cols = list(zip(*rows))
        power, roots = rows, []
        for k in range(1, n + 1):
            if k > 1:
                power = [[mpmath.fdot(row, col) for col in cols] for row in power]
            lines = power if norm_kind == "inf" else zip(*power)
            norm = max(mpmath.fsum(abs(z) for z in line) for line in lines)
            roots.append(norm ** (mpmath.mpf(1) / k))
        return roots


def _root_error(report, want):
    """Largest relative error of the roots past the first block."""
    pairs = list(zip(report.root, want))[matrix.POWER_BLOCK :]
    return max(float(abs(got - root) / root) for got, root in pairs)


# nilpotent: x^70 = 0
SHIFT_70 = np.diag(np.full(69, 0.9), k=1)
# power_norms' columns on SHIFT_70 at n = 4000, in either norm, as printed by the
# loop that multiplied every row after the zero power
SHIFT_70_COLUMNS_SHA256 = "4fe3f096373e56968b245c452604bb8f97323fa42595ceb69139a95b7c5dc24a"


class _CountingAlgebra(_Chain):
    """The chain on MatrixAlgebra, counting its products."""

    products = 0

    def mul(self, x, y):
        self.products += 1
        return super().mul(x, y)


class TestBlockedPowerTables:
    def test_block_covers_every_certificate(self):
        # the spectrum bound, the battery and the README's --n 64 read chain rows only
        assert matrix.POWER_BLOCK >= max(DEFAULT_PROBE_DEPTH, 64)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8).flatmap(
            lambda d: arrays(
                np.float64,
                st.tuples(st.integers(1, 3), st.just(d), st.just(d), st.just(2)),
                elements=st.floats(-1e3, 1e3, allow_nan=False),
            )
        ),
        st.integers(65, 200),
        st.sampled_from(sorted(matrix.NORMS)),
    )
    def test_first_block_matches_power_norms(self, parts, n, norm_kind):
        mats = list(parts.view(np.complex128)[..., 0])
        for x, report in zip(mats, matrix.stacked_power_norms(mats, n, norm_kind)):
            want = _reference_power_norms_of(x, n, norm_kind)
            assert len(report) == n
            block = slice(matrix.POWER_BLOCK)
            assert repr(report.value[block]) == repr(want.value[block])
            assert repr(report.root[block]) == repr(want.root[block])
            assert repr(report.running_min[block]) == repr(want.running_min[block])

    def test_no_less_accurate_than_the_chain(self):
        # roots past the first block against 50 digits: each draw within
        # 2^-50 of the chain's error, and no worse than it on average
        rng = np.random.default_rng(2024)
        blocked, chained = [], []
        for i in range(24):
            d, n = int(rng.integers(1, 7)), int(rng.integers(65, 301))
            norm_kind = sorted(matrix.NORMS)[i % 2]
            x = random_matrix(rng, d)
            want = _mp_roots(x, n, norm_kind)
            blocked.append(_root_error(matrix.stacked_power_norms([x], n, norm_kind)[0], want))
            chained.append(_root_error(_reference_power_norms_of(x, n, norm_kind), want))
            assert blocked[-1] <= chained[-1] + 2.0**-50, (d, n, norm_kind)
        assert sum(blocked) <= sum(chained)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_zero_norm_in_a_later_block_runs_power_norms(self, norm_kind):
        # x^70 = 0: the second block's products vanish from k = 70
        x = SHIFT_70
        _assert_one_loop_matches([x], 200, norm_kind)
        report = matrix.stacked_power_norms([x], 200, norm_kind)[0]
        assert report.value[68] > 0.0 and set(report.value[69:]) == {0.0}
        # in a stack with two others past the first block, each column is as alone
        rng = np.random.default_rng(70)
        mats = [random_matrix(rng, 70), x, random_matrix(rng, 70)]
        alone = [matrix.stacked_power_norms([m], 200, norm_kind)[0] for m in mats]
        together = matrix.stacked_power_norms(mats, 200, norm_kind)
        assert list(map(_columns, together)) == list(map(_columns, alone))

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_power_norms_stops_at_a_zero_power(self, norm_kind):
        # x^70 = 0, so every later row reads 0 without a product
        alg = _CountingAlgebra(70, norm_kind)
        report = power_norms(alg, matrix.as_matrix(SHIFT_70), 4000)
        assert alg.products <= 70
        digest = hashlib.sha256("\n".join(_columns(report)).encode()).hexdigest()
        assert digest == SHIFT_70_COLUMNS_SHA256

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    def test_power_norms_is_the_blocked_table(self, norm_kind):
        # the API and the CLI give one table, past the first block too
        a = random_matrix(np.random.default_rng(1), 8)
        alg = matrix.MatrixAlgebra(8, norm_kind)
        want = matrix.stacked_power_norms([a], 1000, norm_kind)[0]
        assert _columns(power_norms(alg, a, 1000)) == _columns(want)
        assert _columns(power_norms(_Chain(8, norm_kind), a, 1000)) != _columns(want)

    @pytest.mark.parametrize("norm_kind", sorted(matrix.NORMS))
    @pytest.mark.parametrize("n", [65, 130, 300])
    def test_table_does_not_depend_on_the_others(self, n, norm_kind):
        rng = np.random.default_rng(n)
        mats = [random_matrix(rng, 5) for _ in range(3)]
        alone = [matrix.stacked_power_norms([x], n, norm_kind)[0] for x in mats]
        together = matrix.stacked_power_norms(mats, n, norm_kind)
        assert list(map(_columns, together)) == list(map(_columns, alone))
