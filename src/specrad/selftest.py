"""Deterministic invariant battery backing the `selftest` subcommand.

Each check exercises one contract of the library on seeded random data
and returns True/False; the runner prints one PASS/FAIL line per check
plus a summary count.  Identical seeds produce byte-identical output.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import fekete, matrix, shift, wiener
from .algebra import neumann_inverse, telescope_check
from .errors import NotConvergent

SLACK = 1e-9


def _random_matrix(rng, n):
    x = np.empty((n, n), complex)
    x.real, x.imag = rng.uniform(-1, 1, (2, n, n))  # the stream of the real, then imaginary parts
    return x


def _random_wiener(rng, deg):
    # the stream of one (re, im) draw per degree, lowest first, as complex pairs
    coeffs = rng.uniform(-1, 1, (2 * deg + 1, 2)).view(complex).ravel().tolist()
    return wiener.clean(dict(zip(range(-deg, deg + 1), coeffs)))


def check_fekete_generator(rng) -> bool:
    for _ in range(20):
        c = rng.uniform(-1.0, 1.0)
        d = rng.uniform(0.0, 1.0)
        seq = fekete.subadd_sequence(c, d, 40)
        try:
            upper, _ = fekete.limit_bracket(seq)
        except ValueError:  # the prefix is not submultiplicative
            return False
        if upper < math.exp(c) * (1 - SLACK):
            return False
    return True


def check_fekete_power_bound(rng) -> bool:
    for _ in range(20):
        a = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 40).values
        for k in range(1, 14):
            for p in range(1, len(a) // k + 1):
                if a[p * k - 1] > a[k - 1] ** p * (1 + SLACK):
                    return False
    return True


@lru_cache(maxsize=None)
def _division_triples(length: int):
    """The triples n = p*k + r with 1 <= r < k <= n <= length, in the order
    of increasing k, then p, then r: the k - 1 and p of each (k, p) pair,
    and, per triple, the index of its pair and the indices n - 1 and r."""
    ks, ps, pair, n, r = [], [], [], [], []
    for k in range(2, length + 1):
        for p in range(1, (length - 1) // k + 1):
            rs = range(1, min(k, length - p * k + 1))
            pair += [len(ks)] * len(rs)
            n += range(p * k, p * k + len(rs))
            r += rs
            ks.append(k - 1)
            ps.append(p)
    indices = [np.array(index, np.intp) for index in (pair, n, r)]
    for index in indices:
        index.flags.writeable = False  # shared by every later call
    return (tuple(ks), tuple(ps), *indices)


def check_fekete_division_bound(rng) -> bool:
    # a_n <= a_k^p * a_1^r for n = p*k + r, every triple in one comparison
    with np.errstate(all="ignore"):  # a product past the float range is inf, as in Python
        for _ in range(20):
            a = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 40).values
            ks, ps, pair, n, r = _division_triples(len(a))
            a1_pow = np.array([a[0] ** e for e in range(len(a))])
            ak_pow = np.array(list(map(pow, map(a.__getitem__, ks), ps)))
            if (np.array(a)[n] > ak_pow[pair] * a1_pow[r] * (1 + SLACK)).any():
                return False
    return True


def check_fekete_convolution(rng) -> bool:
    for _ in range(10):
        sa = fekete.subadd_sequence(rng.uniform(-0.5, 0.5), rng.uniform(0, 0.5), 30)
        sb = fekete.subadd_sequence(rng.uniform(-0.5, 0.5), rng.uniform(0, 0.5), 30)
        c = fekete.binomial_convolve(sa, sb, 30)
        if fekete.check_submultiplicative(c):
            return False
    return True


def check_matrix_norm_axioms(rng) -> bool:
    for kind in ("inf", "one"):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            alg = matrix.MatrixAlgebra(n, kind)
            if alg.norm(alg.one) != 1.0:
                return False
            x, y = _random_matrix(rng, n), _random_matrix(rng, n)
            if alg.norm(x @ y) > alg.norm(x) * alg.norm(y) * (1 + SLACK):
                return False
            if alg.norm(x + y) > alg.norm(x) + alg.norm(y) + SLACK:
                return False
    return True


def check_power_roots_submultiplicative(rng) -> bool:
    xs = [_random_matrix(rng, int(rng.integers(1, 5))) for _ in range(10)]
    for report in matrix.stacked_power_norms(xs, 24):
        seq = fekete.PrefixSequence(report._value)
        if fekete.check_submultiplicative(seq, tol_rel=1e-6):
            return False
    return True


def check_radius_homogeneity(rng) -> bool:
    mats, alphas = [], []
    for _ in range(10):
        n = int(rng.integers(1, 5))
        x = _random_matrix(rng, n)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        mats += [alpha * x, x, np.eye(n, dtype=complex)]
        alphas.append(alpha)
    uppers = [r.certified_upper for r in matrix.stacked_power_norms(mats, 16)]
    for alpha, lhs, upper, unit in zip(alphas, uppers[0::3], uppers[1::3], uppers[2::3]):
        rhs = abs(alpha) * upper
        if abs(lhs - rhs) > 1e-12 * max(1.0, rhs):
            return False
        if unit != 1.0:
            return False
    return True


def check_neumann_residual(rng) -> bool:
    xs = []
    for _ in range(10):
        x = _random_matrix(rng, int(rng.integers(1, 5)))
        xs.append(x * (rng.uniform(0.1, 0.9) / matrix.inf_norm(x)))
    for x in xs:
        alg = matrix.MatrixAlgebra(x.shape[0], "inf")
        y = neumann_inverse(alg, x, tol=1e-11)
        if alg.norm((alg.one - x) @ y - alg.one) > 1e-11:
            return False
    # convergence necessity: high power norms must drop below 1
    for report in matrix.stacked_power_norms(xs, 24):
        if not (report._value[8:] < 1.0).all():
            return False
    try:
        neumann_inverse(matrix.MatrixAlgebra(2), np.eye(2, dtype=complex))
    except NotConvergent:
        return True
    return False


def check_telescope(rng) -> bool:
    for _ in range(10):
        n = int(rng.integers(1, 4))
        alg = matrix.MatrixAlgebra(n, "inf")
        x = _random_matrix(rng, n)
        if telescope_check(alg, x, 8) > 1e-10:
            return False
    return True


def check_oracle_vs_gelfand(rng) -> bool:
    xs = [_random_matrix(rng, int(rng.integers(1, 5))) for _ in range(20)]
    for x, report in zip(xs, matrix.stacked_power_norms(xs, 32)):
        if matrix.oracle_radius(x) > report.certified_upper + SLACK:
            return False
    return True


def check_matrix_inverse(rng) -> bool:
    by_dim: dict[int, list[np.ndarray]] = {}
    for _ in range(20):
        n = int(rng.integers(1, 5))
        by_dim.setdefault(n, []).append(_random_matrix(rng, n))
    # the matrices of each dimension are inverted as one (c, n, n) stack
    for n, xs in by_dim.items():
        eye = np.eye(n)
        x = np.stack(xs)
        x += (2.0 + matrix._norms(x, "inf"))[:, None, None] * eye
        inv = matrix.direct_inverse(x, tol=1e-10)
        if (matrix._norms(x @ inv - eye, "inf") > 1e-10).any():
            return False
    return True


def check_wiener_domination(rng) -> bool:
    for _ in range(20):
        f = _random_wiener(rng, int(rng.integers(1, 5)))
        l1 = wiener.l1_norm(f)
        if wiener.sup_norm(f, 512).grid_max > l1 + 1e-12:
            return False
        theta = rng.uniform(0, 2 * math.pi)
        rmin = wiener.wiener_spectral_radius(f, 16).certified_upper
        if abs(wiener.evaluate(f, theta)) > rmin + SLACK:
            return False
        if rmin > l1 + SLACK:
            return False
    return True


def check_wiener_commutative(rng) -> bool:
    for _ in range(20):
        f = _random_wiener(rng, int(rng.integers(1, 5)))
        g = _random_wiener(rng, int(rng.integers(1, 5)))
        fg = wiener.multiply(f, g)
        if fg != wiener.multiply(g, f):
            return False
        if wiener.l1_norm(fg) > wiener.l1_norm(f) * wiener.l1_norm(g) * (1 + SLACK):
            return False
    return True


def check_shift_attainment(rng) -> bool:
    t = shift.harmonic_weights(0.5, 1.0, 200)
    # power_norm_formula(t, l) for l = 1..39: the same prefix sums of logs
    formulas = shift.shift_limit_experiment(t, 39)._value
    for power in (1, 3, 10, 25):
        for p in (1.0, 2.0, math.inf):
            attained, ratio = shift.op_norm_empirical(
                t, power, p, trials=20, seed=int(rng.integers(0, 2**32))
            )
            formula = float(formulas[power - 1])
            if abs(attained - formula) > 1e-12 * max(attained, formula):
                return False
            if ratio > attained * (1 + 1e-12):
                return False
    return not fekete.check_submultiplicative(fekete.PrefixSequence(formulas))


CHECKS = [
    ("fekete-generator-submultiplicative", check_fekete_generator),
    ("fekete-power-bound", check_fekete_power_bound),
    ("fekete-division-bound", check_fekete_division_bound),
    ("fekete-convolution-closure", check_fekete_convolution),
    ("matrix-norm-axioms", check_matrix_norm_axioms),
    ("power-roots-submultiplicative", check_power_roots_submultiplicative),
    ("radius-homogeneity-and-unit", check_radius_homogeneity),
    ("neumann-residual-and-necessity", check_neumann_residual),
    ("telescoping-identity", check_telescope),
    ("oracle-below-gelfand-bound", check_oracle_vs_gelfand),
    ("matrix-inverse-residual", check_matrix_inverse),
    ("wiener-domination-chain", check_wiener_domination),
    ("wiener-commutative-submultiplicative", check_wiener_commutative),
    ("shift-attainment-and-contraction", check_shift_attainment),
]


def run_selftest(seed: int, out) -> bool:
    passed = 0
    for index, (name, fn) in enumerate(CHECKS):
        ok = fn(np.random.default_rng([seed, index]))
        passed += ok
        out.write("%s %s\n" % ("PASS" if ok else "FAIL", name))
    out.write("selftest: %d/%d checks passed\n" % (passed, len(CHECKS)))
    return passed == len(CHECKS)
