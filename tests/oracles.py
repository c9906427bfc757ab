"""Exact and independent oracles shared by the test modules.

Each is a slow, plainly written definition that a kernel of specrad must
match: the exact l1 norm of a nonnegative Wiener element, the dict-loop
Wiener product, the Wiener engine instance on the public dict functions,
the exact l1 residual of a Wiener reciprocal, 30-digit samples of a
Wiener element on a circle grid and 50-digit matrix eigenvalues.
"""

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from specrad import wiener
from specrad.algebra import Algebra
from specrad.errors import BudgetExceeded


def _exact_l1(f) -> Fraction:
    """The exact l1 norm of an element with nonnegative real coefficients."""
    return sum(Fraction(v.real) for v in f.values())


def _reference_multiply(f, g):
    """The dict-loop product the array kernel replaced, kept as its oracle."""

    def span(h):
        return max(h) - min(h) + 1 if h else 0

    def content_key(h):
        return (len(h), tuple(sorted((k, v.real, v.imag) for k, v in h.items())))

    f, g = wiener.clean(f), wiener.clean(g)
    if not f or not g:
        return {}
    if span(f) + span(g) - 1 > wiener.COEFF_CAP:
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
        return wiener.multiply(x, y)

    def norm(self, x) -> float:
        return wiener.l1_norm(x)

    def is_zero(self, x) -> bool:
        return all(v == 0 for v in x.values())


def _exact_residual_l1(f, y) -> Fraction:
    """The l1 norm of f*y - 1 from exact products and sums, each modulus
    rounded up to a multiple of 2^-2148 (floats are multiples of 2^-1074)."""
    def fixed(z):
        return int(Fraction(z.real) * 2**1074), int(Fraction(z.imag) * 2**1074)

    def ceil_sqrt(n):
        return math.isqrt(n - 1) + 1 if n else 0

    out = {0: (-(2**2148), 0)}
    for j, u in f.items():
        ur, ui = fixed(u)
        for k, v in y.items():
            vr, vi = fixed(v)
            re, im = out.get(j + k, (0, 0))
            out[j + k] = (re + ur * vr - ui * vi, im + ur * vi + ui * vr)
    return Fraction(sum(ceil_sqrt(re * re + im * im) for re, im in out.values()), 2**2148)


def _mp_eigenvalues(a):
    """Eigenvalues of a at 50 digits; mpmath.eig returns a tuple for n = 1."""
    with mpmath.workdps(50):
        values = mpmath.eig(mpmath.matrix(a.tolist()), left=False, right=False)
    return values[0] if isinstance(values, tuple) else values


@lru_cache(maxsize=None)
def _mp_unit_roots(grid_size):
    """e^{2 pi i r / M} for r = 0..M-1 at 30 digits."""
    with mpmath.workdps(30):
        return tuple(mpmath.expjpi(mpmath.mpf(2 * r) / grid_size) for r in range(grid_size))


def _mp_grid_samples(f, grid_size):
    """|f| at the M = grid_size circle points 2 pi j / M at 30 digits.  The
    phase of degree k at point j is the unit root of r = j * k mod M, taken
    in exact integers, so any degree is sampled at its true phase."""
    roots = _mp_unit_roots(grid_size)
    with mpmath.workdps(30):
        terms = [(k, mpmath.mpc(v)) for k, v in f.items()]
        return [
            abs(mpmath.fsum(v * roots[j * k % grid_size] for k, v in terms))
            for j in range(grid_size)
        ]
