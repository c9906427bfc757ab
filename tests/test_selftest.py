"""Every battery check can fail: each test breaks the contract one check
guards, by replacing the library call it checks, and asserts that the check
returns False.  The battery's digests see only PASS lines, so without these
a check whose FAIL branch could no longer be reached would go unnoticed.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from specrad import fekete, matrix, selftest, shift, wiener
from specrad.errors import NotConvergent
from specrad.reports import build_report

REAL = SimpleNamespace(
    subadd_sequence=fekete.subadd_sequence,
    stacked_power_norms=matrix.stacked_power_norms,
    inf_norm=matrix.inf_norm,
    direct_inverse=matrix.direct_inverse,
    neumann_inverse=selftest.neumann_inverse,
    sup_norm=wiener.sup_norm,
    wiener_spectral_radius=wiener.wiener_spectral_radius,
    multiply=wiener.multiply,
    op_norm_empirical=shift.op_norm_empirical,
)


def _check(name):
    """The check of CHECKS called name, and its rng as run_selftest seeds it at seed 0."""
    names = [n for n, _ in selftest.CHECKS]
    return selftest.CHECKS[names.index(name)][1], np.random.default_rng([0, names.index(name)])


def _not_submultiplicative(c, d, n):
    # a_j = exp(c j - d sqrt(j)): a_(pk) > a_k^p for d > 0 and p > 1
    return fekete.PrefixSequence(tuple(math.exp(c * j - d * math.sqrt(j)) for j in range(1, n + 1)),
                                 has_unit_head=True)


def _never_refuses(alg, x, tol=1e-10, **kwargs):
    try:
        return REAL.neumann_inverse(alg, x, tol, **kwargs)
    except NotConvergent:
        return alg.zero


def _unclipped_sup(f, m):
    # grid_max four times too large: above l1, as sup |f| >= l1 / sqrt(terms) and terms <= 9
    estimate = REAL.sup_norm(f, m)
    return dataclasses.replace(estimate, grid_max=4.0 * estimate.grid_max)


def _shift_norms(attained_factor, ratio_of_attained=None):
    # op_norm_empirical with its attained norm, or its best ratio, off
    def op_norm_empirical(*args, **kwargs):
        attained, ratio = REAL.op_norm_empirical(*args, **kwargs)
        if ratio_of_attained is not None:
            ratio = ratio_of_attained * attained
        return attained_factor * attained, ratio
    return op_norm_empirical


# each break: the check it fails, then the module, class or mapping, the
# attribute or key it replaces, and the replacement
BREAKS = {
    "generator-limit-below-e^c": (
        "fekete-generator-submultiplicative", fekete, "subadd_sequence",
        lambda c, d, n: REAL.subadd_sequence(c - 1.0, d, n)),
    "power-bound": (
        "fekete-power-bound", fekete, "subadd_sequence", _not_submultiplicative),
    "convolution-closure": (
        "fekete-convolution-closure", fekete, "binomial_convolve",
        lambda a, b, n: fekete.PrefixSequence((1.0, 3.0), has_unit_head=True)),
    "norm-of-unit": (
        "matrix-norm-axioms", matrix.NORMS, "inf", lambda x: 2.0 * REAL.inf_norm(x)),
    "norm-of-product": (
        "matrix-norm-axioms", matrix.NORMS, "inf",
        lambda x: float(np.abs(np.asarray(x)).max())),  # the largest entry: not submultiplicative
    "norm-of-sum": (
        "matrix-norm-axioms", matrix.NORMS, "inf", lambda x: REAL.inf_norm(x) ** 2),
    "power-roots": (
        "power-roots-submultiplicative", matrix, "stacked_power_norms",
        lambda mats, n: [build_report([0.0, math.log(3.0)], "norm") for _ in mats]),
    "radius-homogeneity": (
        "radius-homogeneity-and-unit", matrix, "stacked_power_norms",
        lambda mats, n: [SimpleNamespace(certified_upper=r.certified_upper**2)
                         for r in REAL.stacked_power_norms(mats, n)]),
    "radius-of-unit": (
        "radius-homogeneity-and-unit", matrix, "stacked_power_norms",
        lambda mats, n: [SimpleNamespace(certified_upper=2.0 * r.certified_upper)
                         for r in REAL.stacked_power_norms(mats, n)]),
    "neumann-residual": (
        "neumann-residual-and-necessity", selftest, "neumann_inverse",
        lambda alg, x, tol=1e-10, **kwargs: alg.one),
    "neumann-necessity": (
        "neumann-residual-and-necessity", matrix, "stacked_power_norms",
        lambda mats, n: [build_report([0.0] * n, "norm") for _ in mats]),
    "neumann-refusal": (
        "neumann-residual-and-necessity", selftest, "neumann_inverse", _never_refuses),
    "telescope": (
        "telescoping-identity", matrix.MatrixAlgebra, "mul",
        lambda self, x, y: (x @ y) * (1.0 + 1e-6)),
    "oracle-above-bound": (
        "oracle-below-gelfand-bound", matrix, "stacked_power_norms",
        lambda mats, n: REAL.stacked_power_norms([x / 2 for x in mats], n)),
    "inverse-residual": (
        "matrix-inverse-residual", matrix, "direct_inverse",
        lambda x, tol=1e-10: REAL.direct_inverse(x, tol) * (1.0 + 1e-8)),
    "grid-max-above-l1": (
        "wiener-domination-chain", wiener, "sup_norm", _unclipped_sup),
    "evaluation-above-radius": (
        "wiener-domination-chain", wiener, "wiener_spectral_radius",
        lambda f, n: REAL.wiener_spectral_radius(wiener.scale(0.25, f), n)),
    "radius-above-l1": (
        "wiener-domination-chain", wiener, "wiener_spectral_radius",
        lambda f, n: REAL.wiener_spectral_radius(wiener.scale(4.0, f), n)),
    "commutativity": (
        "wiener-commutative-submultiplicative", wiener, "multiply",
        lambda f, g: wiener.add(REAL.multiply(f, g), f)),
    "l1-submultiplicative": (
        "wiener-commutative-submultiplicative", wiener, "multiply",
        lambda f, g: wiener.scale(8.0, REAL.multiply(f, g))),
    "shift-attainment": (
        "shift-attainment-and-contraction", shift, "op_norm_empirical",
        _shift_norms(1.5)),
    "shift-contraction": (
        "shift-attainment-and-contraction", shift, "op_norm_empirical",
        _shift_norms(1.0, ratio_of_attained=2.0)),
    "shift-power-norms": (
        "shift-attainment-and-contraction", fekete, "check_submultiplicative",
        lambda seq, tol_rel=fekete.DEFAULT_TOL_REL: [(1, 1)]),
}


@pytest.mark.parametrize("broken", sorted(BREAKS))
def test_broken_contract_fails_its_check(monkeypatch, broken):
    name, target, attr, replacement = BREAKS[broken]
    if isinstance(target, dict):
        monkeypatch.setitem(target, attr, replacement)
    else:
        monkeypatch.setattr(target, attr, replacement)
    check, rng = _check(name)
    assert check(rng) is False


def test_every_check_but_one_has_a_break():
    # fekete-division-bound has its own exact tests in test_fekete.py
    broken = {name for name, *_ in BREAKS.values()}
    assert broken == {n for n, _ in selftest.CHECKS} - {"fekete-division-bound"}
