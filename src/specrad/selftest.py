"""Deterministic invariant battery backing the `selftest` subcommand.

Each check exercises one contract of the library on seeded random data
and returns True/False; the runner prints one PASS/FAIL line per check
plus a summary count.  Identical seeds produce byte-identical output.
"""

from __future__ import annotations

import math

import numpy as np

from . import fekete, matrix, shift, wiener
from .algebra import neumann_inverse, telescope_check
from .errors import NotConvergent

SLACK = 1e-9


def _random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def _random_wiener(rng, deg):
    return wiener.clean(
        {
            j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for j in range(-deg, deg + 1)
        }
    )


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
        seq = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 40)
        a = seq.values
        for k in range(1, 14):
            for p in range(1, len(a) // k + 1):
                if a[p * k - 1] > a[k - 1] ** p * (1 + SLACK):
                    return False
    return True


def check_fekete_division_bound(rng) -> bool:
    for _ in range(20):
        seq = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 40)
        a = seq.values
        length = len(a)
        a1_pow = [a[0] ** r for r in range(length)]
        # n = p*k + r with 1 <= r < k, in increasing n for each k
        for k in range(2, length + 1):
            for p in range(1, (length - 1) // k + 1):
                ak_pow = a[k - 1] ** p
                for r in range(1, min(k, length - p * k + 1)):
                    if a[p * k + r - 1] > ak_pow * a1_pow[r] * (1 + SLACK):
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
        seq = fekete.PrefixSequence(report.value)
        if fekete.check_submultiplicative(seq, tol_rel=1e-6):
            return False
    return True


def check_radius_homogeneity(rng) -> bool:
    mats, alphas = [], []
    for _ in range(10):
        n = int(rng.integers(1, 5))
        x = _random_matrix(rng, n)
        alpha = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if alpha == 0:
            continue
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
        if not all(v < 1.0 for v in report.value[8:]):
            return False
    try:
        neumann_inverse(matrix.MatrixAlgebra(2), np.eye(2, dtype=complex))
        return False
    except NotConvergent:
        pass
    return True


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
    for _ in range(20):
        n = int(rng.integers(1, 5))
        x = _random_matrix(rng, n)
        x = x + (2.0 + matrix.inf_norm(x)) * np.eye(n)
        inv = matrix.direct_inverse(x, tol=1e-10)
        if matrix.inf_norm(x @ inv - np.eye(n)) > 1e-10:
            return False
    return True


def check_wiener_domination(rng) -> bool:
    for _ in range(20):
        f = _random_wiener(rng, int(rng.integers(1, 5)))
        est = wiener.sup_norm(f, 512)
        if est.grid_max > wiener.l1_norm(f) + 1e-12:
            return False
        theta = rng.uniform(0, 2 * math.pi)
        rmin = wiener.wiener_spectral_radius(f, 16).certified_upper
        if abs(wiener.evaluate(f, theta)) > rmin + SLACK:
            return False
        if rmin > wiener.l1_norm(f) + SLACK:
            return False
    return True


def check_wiener_commutative(rng) -> bool:
    for _ in range(20):
        f = _random_wiener(rng, int(rng.integers(1, 5)))
        g = _random_wiener(rng, int(rng.integers(1, 5)))
        if wiener.multiply(f, g) != wiener.multiply(g, f):
            return False
        if wiener.l1_norm(wiener.multiply(f, g)) > wiener.l1_norm(f) * wiener.l1_norm(
            g
        ) * (1 + SLACK):
            return False
    return True


def check_shift_attainment(rng) -> bool:
    t = shift.harmonic_weights(0.5, 1.0, 200)
    for power in (1, 3, 10, 25):
        for p in (1.0, 2.0, math.inf):
            attained, ratio = shift.op_norm_empirical(
                t, power, p, trials=20, seed=int(rng.integers(0, 2**32))
            )
            formula = shift.power_norm_formula(t, power)
            if abs(attained - formula) > 1e-12 * max(attained, formula):
                return False
            if ratio > attained * (1 + 1e-12):
                return False
    seq = fekete.PrefixSequence(
        tuple(shift.power_norm_formula(t, l) for l in range(1, 40))
    )
    return not fekete.check_submultiplicative(seq)


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
