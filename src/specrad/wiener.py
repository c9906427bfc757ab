"""Wiener-algebra elements: absolutely summable Laurent coefficient maps.

An element is a finite dict {degree: complex coefficient}, negative
degrees allowed; it stands for the circle function
f(e^{i*theta}) = sum_j a_j e^{i*j*theta}.  The norm is the coefficient
l1 sum, multiplication is coefficient convolution, and evaluation at any
circle point is a nonzero algebra homomorphism.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .algebra import Algebra, neumann_inverse, power_norms
from .errors import BudgetExceeded, NotConvergent
from .reports import RootReport, or_inf

Element = dict[int, complex]

COEFF_CAP = 10**6
DEFAULT_GRID = 4096


def clean(coeffs) -> Element:
    """Canonical element: int degrees, complex values, zero entries pruned."""
    out: Element = {}
    for k, v in coeffs.items():
        z = complex(v)
        if z != 0:
            out[int(k)] = z
    return out


def _terms(f: Element):
    """Degrees and complex128 coefficients of the nonzero terms of f.

    Degrees are int64, or Python ints (dtype object) when one does not fit.
    """
    try:
        degrees = np.fromiter(f, np.int64, len(f))
    except OverflowError:
        degrees = np.fromiter(f, object, len(f))
    coeffs = np.fromiter(f.values(), np.complex128, len(f))
    keep = coeffs.astype(bool)  # nonzero, NaN included
    return degrees[keep], coeffs[keep]


def _element(degrees, coeffs) -> Element:
    """The element with the nonzero entries of ``coeffs``, at the matching
    entries of the int iterable ``degrees``."""
    keep = coeffs.astype(bool)
    return dict(zip(compress(degrees, keep.tolist()), coeffs[keep].tolist()))


# --- kernels on trimmed arrays -----------------------------------------------
#
# A trimmed element is a pair (lo, a): a 1-D complex128 array a whose entry i
# is the coefficient of degree lo + i.  lo is a Python int, so degrees past
# 64 bits work; neither end of a holds an exact zero (NaN counts as
# nonzero); the empty array is the zero element.

_EMPTY = np.zeros(0, np.complex128)


def _span(degrees) -> int:
    return int(degrees.max()) - int(degrees.min()) + 1 if degrees.size else 0


def _check_span(span: int, cap: int) -> None:
    if span > cap:
        raise BudgetExceeded(
            "product support span %d exceeds coefficient cap %d" % (span, cap)
        )


def _trimmed(lo: int, a):
    """(lo, a) without the zero entries at either end of a."""
    if a.size and a[0] and a[-1]:
        return lo, a
    nonzero = np.flatnonzero(a)  # NaN included
    if not nonzero.size:
        return 0, _EMPTY
    return lo + int(nonzero[0]), a[nonzero[0] : nonzero[-1] + 1]


def _laurent(degrees, coeffs):
    """Trimmed element of the nonzero terms that ``_terms`` returns."""
    if not coeffs.size:
        return 0, _EMPTY
    lo = int(degrees.min())
    a = np.zeros(_span(degrees), np.complex128)
    a[(degrees - lo).astype(np.intp)] = coeffs
    return lo, a


def _as_dict(x) -> Element:
    lo, a = x
    return _element(range(lo, lo + a.size), a)


def _content_key(lo: int, a):
    """Sorted (degree, re, im) items of the nonzero terms, by count first."""
    nonzero = np.flatnonzero(a)
    degrees = [lo + i for i in nonzero.tolist()]
    items = tuple(zip(degrees, a.real[nonzero].tolist(), a.imag[nonzero].tolist()))
    return (len(items), items)


def _convolve(x, y, cap: int):
    """Product of trimmed elements: coefficient convolution, trimmed.

    np.convolve puts the longer operand first; for operands of equal
    span the order is canonicalized before convolving, so that x*y and
    y*x are the same float computation, making commutativity exact
    coefficient-wise.  Raises BudgetExceeded when the product span would
    exceed ``cap``.
    """
    (lo_x, a), (lo_y, b) = x, y
    if not a.size or not b.size:
        return 0, _EMPTY
    _check_span(a.size + b.size - 1, cap)
    if a.size == b.size and _content_key(lo_y, b) < _content_key(lo_x, a):
        a, b = b, a
    return _trimmed(lo_x + lo_y, np.convolve(a, b))


def _scale(alpha: complex, a):
    """alpha * a entrywise, rounded as Python's complex product
    (ar*vr - ai*vi) + (ar*vi + ai*vr)j; inf and nan stay as silent as in
    Python's arithmetic.  For a finite nonzero real alpha (imaginary part
    +0.0), numpy's complex multiply differs from it only in the sign of a
    part whose nonzero product underflows to zero, as it fuses a multiply
    and an add; it is used unless a nonzero part became zero, which a
    factor of modulus 1 or more never makes."""
    alpha = complex(alpha)
    ar, ai = alpha.real, alpha.imag
    parts = a.view(np.float64)
    if ai == 0 and math.copysign(1.0, ai) > 0 and 0 < abs(ar) < math.inf:
        with np.errstate(invalid="ignore", over="ignore"):
            out = a * ar
        if abs(ar) >= 1 or not ((out.view(np.float64) == 0) > (parts == 0)).any():
            return out
    pairs = parts.reshape(-1, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        out = pairs * ar + pairs[:, ::-1] * np.array([-ai, ai])
    return out.view(np.complex128).reshape(-1)


def _l1(a) -> float:
    # np.hypot rounds as abs(complex) does; np.abs does not.  fsum is
    # exactly rounded, so zero entries and the order change no bit, but
    # the order sets its speed: in degree order the moduli of a power
    # climb through hundreds of orders of magnitude and fall again, and
    # fsum keeps about 200 partials on a span of 3217; sorted descending,
    # a dozen.  The sort is in place, on the array hypot made, and fsum
    # reads that array through a memoryview, with no list in between.
    with np.errstate(over="ignore"):
        moduli = np.hypot(a.real, a.imag)
    moduli[::-1].sort()
    try:
        return math.fsum(memoryview(moduli))
    except OverflowError:
        # past the float range; fsum raises before it reports a nan term
        return math.nan if np.isnan(moduli).any() else math.inf


# --- the dict API ------------------------------------------------------------


def multiply(f: Element, g: Element, cap: int = COEFF_CAP) -> Element:
    """Coefficient convolution (f*g)_k = sum_j f_j g_{k-j}.

    Exactly commutative coefficient-wise (see ``_convolve``).  Raises
    BudgetExceeded when the output support span would exceed ``cap``,
    before either operand is laid out as an array.
    """
    (df, cf), (dg, cg) = _terms(f), _terms(g)
    if not cf.size or not cg.size:
        return {}
    _check_span(_span(df) + _span(dg) - 1, cap)
    return _as_dict(_convolve(_laurent(df, cf), _laurent(dg, cg), cap))


def add(f: Element, g: Element) -> Element:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0j) + v
    return clean(out)


def scale(alpha: complex, f: Element) -> Element:
    return _element(f, _scale(alpha, np.fromiter(f.values(), np.complex128, len(f))))


def l1_norm(f: Element) -> float:
    """sum of |a_j| (exact rounded sum, order-independent)."""
    return _l1(np.fromiter(f.values(), np.complex128, len(f)))


def evaluate(f: Element, theta: float) -> complex:
    """f at the circle point e^{i*theta}: sum a_j e^{i*j*theta}.

    This is a nonzero algebra homomorphism, so its modulus is bounded by
    every power-norm root of f.  Terms are summed in degree order with
    exact rounded partial sums, so equal elements evaluate identically.
    """
    terms = [v * cmath.exp(1j * k * theta) for k, v in sorted(f.items())]
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


class WienerAlgebra(Algebra):
    """The Wiener algebra as an engine instance on trimmed (lo, array)
    elements; ``element`` and ``as_dict`` convert from and to dicts at the
    API, and ``add`` goes through the dict ``add``, keeping its signed zeros."""

    def __init__(self, cap: int = COEFF_CAP):
        self.cap = cap

    @staticmethod
    def element(f: Element):
        return _laurent(*_terms(f))

    as_dict = staticmethod(_as_dict)

    @property
    def one(self):
        return 0, np.ones(1, np.complex128)

    @property
    def zero(self):
        return 0, _EMPTY

    def add(self, x, y):
        return self.element(add(_as_dict(x), _as_dict(y)))

    def scale(self, alpha, x):
        return _trimmed(x[0], _scale(alpha, x[1]))

    def mul(self, x, y):
        return _convolve(x, y, self.cap)

    def norm(self, x) -> float:
        return _l1(x[1])

    def is_zero(self, x) -> bool:
        return not x[1].size


class _DictWiener(WienerAlgebra):
    """WienerAlgebra on the API's dicts, for an element wider than the cap:
    its products go through ``multiply``, which refuses them before any array."""

    element = as_dict = staticmethod(lambda f: f)
    one, zero = property(lambda self: {0: 1.0 + 0j}), property(lambda self: {})
    add, scale, norm = staticmethod(add), staticmethod(scale), staticmethod(l1_norm)

    def mul(self, x, y):
        return multiply(x, y, self.cap)

    def is_zero(self, x) -> bool:
        return not any(x.values())


def _engine(f: Element, cap: int) -> WienerAlgebra:
    """The instance for a clean f: on arrays when its span fits ``cap``, else on dicts."""
    return (WienerAlgebra if not f or max(f) - min(f) < cap else _DictWiener)(cap)


@dataclass(frozen=True)
class SupEstimate:
    """Certified bracket for the sup of |f| over the circle.

    grid_max, the max of |f| over the sampling grid, is a lower bound for
    the sup up to float rounding.  upper is grid_max plus the derivative
    bound certified_upper_error = (pi/M) * sum |j*a_j| for grid size M and
    a bound on the rounding of the samples, rounded up, and clipped at the
    l1 norm rounded outward (``l1_norm`` rounds to nearest); both are at
    least the sup."""

    grid_max: float
    certified_upper_error: float
    upper: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.grid_max, self.upper)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.grid_max + self.upper)


def sup_norm(f: Element, grid_size: int = DEFAULT_GRID) -> SupEstimate:
    """Sample |f| on an equispaced circle grid and certify the sup bracket."""
    if grid_size < 8:
        raise ValueError("grid_size must be >= 8")
    f = clean(f)
    if not f:
        return SupEstimate(0.0, 0.0, 0.0)
    l1 = l1_norm(f)
    degrees, values = zip(*sorted(f.items()))
    # e^{2 pi i j k / M} depends on k mod M only: take the remainder k' in
    # [-M/2, M/2), in exact integers, so a huge degree keeps its phase
    half = grid_size // 2
    degs = np.array([(k + half) % grid_size - half for k in degrees], dtype=float)
    coeffs = np.array(values, dtype=complex)
    theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
    samples = np.abs(np.exp(1j * np.outer(theta, degs)) @ coeffs)
    # |f| <= l1 pointwise; any float excess in the samples is rounding noise
    grid_max = min(float(samples.max()), l1)
    # D = sum |k a_k|; past the float range it reads inf, leaving upper at l1
    moment = or_inf(math.fsum, (abs(k * v) for k, v in f.items()))
    err = (math.pi / grid_size) * moment
    # Rounding in the samples, bounded a priori (u = 2**-53, n terms): each
    # circle point is within pi/M of an exact grid point theta_j, |f| is
    # D-Lipschitz, and err is at most pi u D low.  The samples approximate
    # f(theta_j): k' is exact as a float, the computed theta_j is within
    # 6 pi u of theta_j, and the phase theta_j * k' rounds by 2 pi u |k'|,
    # so e^{i theta_j k'} is within 8 pi u |k'| <= 8 pi u |k|: in all
    # 9 pi u D < 29 u D.  exp and abs cost 2u l1 each, the complex dot
    # product sqrt(2) gamma_{n+2} l1 (Higham, Accuracy and Stability of
    # Numerical Algorithms, 3.6), with gamma_{n+2} <= 1.01 (n + 2) u.  The
    # constants leave room for rounding the bound and the first sum;
    # nextafter covers the second.
    rounding = 2.0**-53 * (37 * moment + (3 * len(f) + 12) * l1)
    grid_up = math.nextafter(grid_max + err + rounding, math.inf)
    # the sign of the exact remainder says whether l1 was rounded down
    l1_up = l1
    if math.isfinite(l1) and math.fsum([-l1, *map(abs, f.values())]) > 0:
        l1_up = math.nextafter(l1, math.inf)
    return SupEstimate(grid_max, err, min(grid_up, l1_up))


def wiener_spectral_radius(
    f: Element, n: int, cap: int = COEFF_CAP
) -> RootReport:
    """Roots of the l1 norms of f^k for k = 1..n; the running minimum
    converges to the sup norm of f (downward, being an upper bound at
    every k).  The powers are carried as trimmed arrays, except for an f
    whose own support span exceeds ``cap``: that f runs as a dict, and
    its first product raises BudgetExceeded."""
    f = clean(f)
    alg = _engine(f, cap)
    return power_norms(alg, alg.element(f), n)


def wiener_inverse(f: Element, tol: float = 1e-10, cap: int = COEFF_CAP) -> Element:
    """Reciprocal in the Wiener algebra with l1 residual below tol.

    Factors f = c * (e - g) with c the degree-0 coefficient, widening the
    plain norm(f - e) < 1 hypothesis, then runs the Neumann series on g.
    Raises NotConvergent when no power g^k, k <= 32, has l1 norm below
    1; the factorization needs a nonzero degree-0 coefficient to
    start.  The series is summed by repeated squaring until its tail bound
    meets ``tol``, so the partial sum's support doubles with each step;
    ``cap`` bounds the support span of every product (BudgetExceeded),
    alongside the term budget of neumann_inverse.
    """
    f = clean(f)
    c = f.get(0, 0j)
    if c == 0:
        raise NotConvergent(
            "degree-0 coefficient is zero; cannot factor f = c*(e - g)"
        )
    g = {k: -v / c for k, v in f.items() if k != 0}
    alg = _engine(add({0: 1.0 + 0j}, g), cap)  # by the first partial sum's span
    return scale(1.0 / c, alg.as_dict(neumann_inverse(alg, alg.element(g), tol)))


# --- I/O -------------------------------------------------------------------

def parse_inline(spec: str) -> Element:
    """Parse 'deg:coeff,deg:coeff' pairs; coefficients in complex syntax, finite."""
    out: Element = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        deg_text, _, coeff_text = chunk.partition(":")
        if not coeff_text:
            raise ValueError("expected deg:coeff, got %r" % chunk)
        deg, coeff = int(deg_text), complex(coeff_text)
        if not cmath.isfinite(coeff):
            raise ValueError("coefficient of degree %d is not finite: %r" % (deg, coeff_text))
        out[deg] = coeff
    return clean(out)
