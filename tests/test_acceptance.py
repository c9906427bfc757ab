"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Seeds are fixed; nothing here is tuned per case.
"""

import math
import subprocess
import sys
import time

import numpy as np

from specrad import fekete, matrix, shift, wiener
from specrad.algebra import (
    invert_near,
    neumann_inverse,
    power_norms,
    spectral_radius_upper,
)
from specrad.errors import NotConvergent
from specrad.matrix import MatrixAlgebra

MASTER_SEED = 20260809


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    print("ACCEPT %-34s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    return ok


def random_matrix(rng, n):
    return rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))


def test_01_fekete_limit():
    t0 = time.perf_counter()
    seq = fekete.PrefixSequence(tuple(float(j + 1) for j in range(1, 1001)))
    upper, _ = fekete.limit_bracket(seq)
    elapsed = time.perf_counter() - t0
    ok = 1.0 <= upper <= 1.0070 and elapsed < 1.0
    assert verdict(
        "01-fekete-limit", ok, "upper=%.7f time=%.3fs" % (upper, elapsed)
    )


def test_02_fekete_zero_absorption():
    rng = np.random.default_rng(MASTER_SEED)
    cases = [
        fekete.PrefixSequence((1, 1, 1, 1, 0, 0, 0, 0)),
        fekete.PrefixSequence((2, 4, 8, 0, 0, 0)),
    ]
    for _ in range(10):
        base = fekete.subadd_sequence(rng.uniform(-1, 1), rng.uniform(0, 1), 30)
        cut = int(rng.integers(2, 30))
        values = base.values[:cut] + (0.0,) * (30 - cut)
        cases.append(fekete.PrefixSequence(values))
    ok = all(fekete.limit_bracket(s)[0] == 0.0 for s in cases)
    assert verdict("02-zero-absorption", ok, "%d prefixes" % len(cases))


def test_03_gelfand_vs_oracle():
    rng = np.random.default_rng(MASTER_SEED)
    t0 = time.perf_counter()
    sound = True
    close_enough = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        a = random_matrix(rng, n)
        alg = MatrixAlgebra(n)
        report = power_norms(alg, a, 64)
        radius = matrix.oracle_radius(a)
        # running_min at row k equals the bound for every depth N = k <= 64
        if any(m < radius - 1e-9 for m in report.running_min):
            sound = False
        gap = report.certified_upper - radius
        if gap <= 0.05 * max(1.0, radius):
            close_enough += 1
    elapsed = time.perf_counter() - t0
    ok = sound and close_enough >= 95 and elapsed < 10.0
    assert verdict(
        "03-gelfand-vs-oracle",
        ok,
        "sound=%s close=%d/100 time=%.2fs" % (sound, close_enough, elapsed),
    )


def test_04_neumann_residual():
    alg = MatrixAlgebra(2)
    x = np.array([[0, 1.5], [0.1, 0]], dtype=complex)
    y = neumann_inverse(alg, x, tol=1e-10)
    residual = alg.norm((alg.one - x) @ y - alg.one)
    refused = False
    try:
        neumann_inverse(alg, alg.one)
    except NotConvergent:
        refused = True
    ok = residual <= 1e-10 and refused
    assert verdict(
        "04-neumann-residual", ok, "residual=%.3g refused=%s" % (residual, refused)
    )


def test_05_perturbation_inversion():
    rng = np.random.default_rng(MASTER_SEED + 1)
    tol = 1e-10
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        alg = MatrixAlgebra(n)
        base = random_matrix(rng, n)
        x = base + (2.0 + alg.norm(base)) * np.eye(n)
        x_inv = matrix.direct_inverse(x, tol=tol)
        margin = 1.0 / alg.norm(x_inv)
        direction = random_matrix(rng, n)
        y = x + direction * (0.45 * margin / alg.norm(direction))
        result = invert_near(alg, x_inv, x, y, tol=tol)
        worst = max(worst, alg.norm(y @ result - alg.one))
    ok = worst <= 10 * tol
    assert verdict("05-perturbation-inverse", ok, "worst residual=%.3g" % worst)


def test_06_spectral_mapping():
    rng = np.random.default_rng(MASTER_SEED + 2)
    ok = True
    for _ in range(100):
        a = random_matrix(rng, int(rng.integers(1, 5)))
        for n in (2, 3, 5):
            if not matrix.spectral_mapping_check(a, n):
                ok = False
    assert verdict("06-spectral-mapping", ok, "100 matrices x n in {2,3,5}")


def test_07_seminorm_on_commuting_pairs():
    rng = np.random.default_rng(MASTER_SEED + 3)
    triangle_ok = True
    product_ok = True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        alg = MatrixAlgebra(n)
        m = random_matrix(rng, n)
        cx = rng.uniform(-1, 1, 3)
        cy = rng.uniform(-1, 1, 3)
        x = cx[0] * alg.one + cx[1] * m + cx[2] * (m @ m)
        y = cy[0] * alg.one + cy[1] * m + cy[2] * (m @ m)
        ux = spectral_radius_upper(alg, x, 32)
        uy = spectral_radius_upper(alg, y, 32)
        if matrix.oracle_radius(x + y) > ux + uy + 1e-9:
            triangle_ok = False
        if matrix.oracle_radius(x @ y) > ux * uy + 1e-9:
            product_ok = False
    ok = triangle_ok and product_ok
    assert verdict(
        "07-commuting-seminorm",
        ok,
        "triangle=%s product=%s" % (triangle_ok, product_ok),
    )


def test_08_binomial_convolution():
    rng = np.random.default_rng(MASTER_SEED + 4)
    ok = True
    for _ in range(50):
        ca, da = rng.uniform(-1, 1), rng.uniform(0, 0.15)
        cb, db = rng.uniform(-1, 1), rng.uniform(0, 0.15)
        a = fekete.subadd_sequence(ca, da, 30)
        b = fekete.subadd_sequence(cb, db, 30)
        c = fekete.binomial_convolve(a, b, 30)
        if fekete.check_submultiplicative(c):
            ok = False
        upper, _ = fekete.limit_bracket(c)
        if upper > (math.exp(ca) + math.exp(cb)) * 1.05:
            ok = False
    assert verdict("08-binomial-convolution", ok, "50 generator pairs, N=30")


def test_09_wiener_convergence():
    # (a) roots of (z + 1/z)/2 stay at 1 (machine-exact l1 norms)
    cos = {1: 0.5 + 0j, -1: 0.5 + 0j}
    roots = wiener.wiener_spectral_radius(cos, 64).root
    exact_ok = all(abs(r - 1.0) <= 1e-12 for r in roots)

    # (b) 64-step running min lands within 5% of the certified sup bracket
    rng = np.random.default_rng(MASTER_SEED + 5)
    t0 = time.perf_counter()
    close_enough = 0
    for _ in range(100):
        deg = int(rng.integers(1, 5))
        f = wiener.clean(
            {
                j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for j in range(-deg, deg + 1)
            }
        )
        rmin = wiener.wiener_spectral_radius(f, 64).certified_upper
        mid = wiener.sup_norm(f).midpoint
        if abs(rmin - mid) <= 0.05 * mid:
            close_enough += 1
    elapsed = time.perf_counter() - t0
    ok = exact_ok and close_enough >= 95 and elapsed < 10.0
    assert verdict(
        "09-wiener-convergence",
        ok,
        "cos-exact=%s close=%d/100 time=%.2fs" % (exact_ok, close_enough, elapsed),
    )


def test_10_homomorphism_bound():
    rng = np.random.default_rng(MASTER_SEED + 6)
    ok = True
    for _ in range(200):
        deg = int(rng.integers(1, 5))
        f = wiener.clean(
            {
                j: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for j in range(-deg, deg + 1)
            }
        )
        theta = rng.uniform(0, 2 * math.pi)
        rmin = wiener.wiener_spectral_radius(f, 32).certified_upper
        if abs(wiener.evaluate(f, theta)) > rmin + 1e-9:
            ok = False
        if rmin > wiener.l1_norm(f) + 1e-9:
            ok = False
    assert verdict("10-homomorphism-bound", ok, "200 (f, theta) pairs")


def test_11_weighted_shift():
    t0 = time.perf_counter()
    t = shift.harmonic_weights(0.5, 1.0, 4000)
    exact_ok = True
    for power in range(1, 51):
        formula = shift.power_norm_formula(t, power)
        for p in (1.0, 2.0, math.inf):
            attained, _ = shift.op_norm_empirical(t, power, p, trials=3)
            if abs(attained - formula) > 1e-12 * max(attained, formula):
                exact_ok = False
    final_root = shift.shift_limit_experiment(t, 2000).root[-1]
    elapsed = time.perf_counter() - t0
    ok = exact_ok and abs(final_root - 0.5) <= 0.01 and elapsed < 5.0
    assert verdict(
        "11-weighted-shift",
        ok,
        "exact=%s root@2000=%.4f time=%.2fs" % (exact_ok, final_root, elapsed),
    )


def test_12_determinism(tmp_path):
    nilpotent = tmp_path / "nilpotent2.csv"
    nilpotent.write_text("0+0j,1+0j\n0+0j,0+0j\n")
    commands = [
        ["selftest"],
        ["fekete", "--gen", "poly:1", "--n", "1000"],
        ["power", "--matrix", str(nilpotent), "--n", "8"],
        ["wiener", "--f", "1:0.5,-1:0.5", "--n", "64"],
    ]
    identical = True
    for cmd in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "specrad", "--seed", "0"] + cmd,
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        if runs[0] != runs[1]:
            identical = False
    # sanity: the example outputs carry the documented values
    fekete_out = subprocess.run(
        [sys.executable, "-m", "specrad", "fekete", "--gen", "poly:1", "--n", "1000"],
        capture_output=True,
        check=True,
    ).stdout.decode()
    final_min = float(fekete_out.splitlines()[-1].split(",")[3])
    content_ok = abs(final_min - 1.006932) < 1e-6
    ok = identical and content_ok
    assert verdict(
        "12-determinism", ok, "identical=%s content=%s" % (identical, content_ok)
    )
