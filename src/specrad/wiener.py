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
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress

import numpy as np

from .algebra import Algebra, neumann_inverse, power_norms
from .errors import BudgetExceeded, NotConvergent
from .reports import UNIT_ROUNDOFF, RootReport, or_inf, round_up

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


# --- kernels on trimmed arrays -----------------------------------------------
#
# A trimmed element is a pair (lo, a): a 1-D complex128 array a whose entry i
# is the coefficient of degree lo + i.  lo is a Python int, so degrees past
# 64 bits work; neither end of a holds an exact zero (NaN counts as
# nonzero); the empty array is the zero element.

_EMPTY = np.zeros(0, np.complex128)


def _span(degrees) -> int:
    return int(degrees.max()) - int(degrees.min()) + 1 if degrees.size else 0


def _check_span(span: int) -> None:
    if span > COEFF_CAP:
        raise BudgetExceeded(
            "product support span %d exceeds coefficient cap %d" % (span, COEFF_CAP)
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


def _content_key(lo: int, a):
    """Sorted (degree, re, im) items of the nonzero terms, by count first."""
    nonzero = np.flatnonzero(a)
    degrees = [lo + i for i in nonzero.tolist()]
    items = tuple(zip(degrees, a.real[nonzero].tolist(), a.imag[nonzero].tolist()))
    return (len(items), items)


def _convolve(x, y):
    """Product of nonzero trimmed elements: coefficient convolution, trimmed.

    numpy's convolve puts the longer operand first; for operands of equal
    span the order is canonicalized before convolving, so that x*y and
    y*x are the same float computation, making commutativity exact
    coefficient-wise.  Raises BudgetExceeded when the product span would
    exceed COEFF_CAP.
    """
    (lo_x, a), (lo_y, b) = x, y
    _check_span(a.size + b.size - 1)
    if a.size == b.size and _content_key(lo_y, b) < _content_key(lo_x, a):
        a, b = b, a
    return _trimmed(lo_x + lo_y, np.convolve(a, b))


# Arrays of at least this many moduli are summed by _split_sum, shorter
# ones by sort + fsum.  Sort + fsum grows from about 1 us at 8 moduli;
# the split costs about 6 us up to 512.  On the moduli of power tables
# their times crossed between 190 and 250 moduli (2 vCPU Xeon, numpy
# 2.4.6), and whole tables ran equally fast with the route at 128, 192
# or 256.  At 192, the short tables of the selftest (up to 129 moduli)
# stay on fsum.
SPLIT_SUM_SIZE = 192


def _split_sum(x) -> float | None:
    """math.fsum(x) for a 1-D float64 array of moduli (entries >= 0), bit
    for bit, decided in a few numpy passes; None where it is not decided.

    The split of Rump, Ogita and Oishi (Accurate floating-point summation,
    part I, SIAM J. Sci. Comput. 31, 2008).  The maximum t lies in
    [2^(e-1), 2^e); with 2^c > 2m for the size m and sigma = 2^(e+c),
    each q = (x + sigma) - sigma and r = x - q is exact.  Every q is a
    multiple of 2^(e+c-52) in [0, 2^e], so Q = sum q < 2^(e+c-1) is
    exact in any order.  Each |r| <= 2^(e+c-53), so numpy's sum R of
    the r, in whatever order, is within gamma_(m-1) m 2^(e+c-53) <=
    B = m^2 2^(e+c-106) of its exact value.  The exact sum lies in
    [Q + R - B, Q + R + B] and rounding to nearest is monotone, so when
    fsum rounds both ends alike, that is fsum(x).  None also where t is
    0, inf or nan, where e + c leaves [-916, 1022] (sigma, 2 sigma and B
    must be normal floats) and for m >= 2^26 (m^2 must be exact).
    """
    m = x.size
    t = float(np.maximum.reduce(x)) if m else 0.0
    if not 0 < t < math.inf or m >= 2**26:
        return None
    ec = math.frexp(t)[1] + (2 * m).bit_length()
    if not -916 <= ec <= 1022:
        return None
    sigma = math.ldexp(1.0, ec)
    q = np.add(x, sigma)
    q -= sigma
    sum_q, sum_r = np.add.reduce(q), np.add.reduce(np.subtract(x, q, out=q))
    bound = math.ldexp(m * m, ec - 106)
    low = math.fsum((sum_q, sum_r, -bound))
    return low if low == math.fsum((sum_q, sum_r, bound)) else None


def _moduli_sum(moduli) -> float:
    """math.fsum(moduli) for a 1-D float64 array of moduli, which it may
    reorder in place.  A finite sum of nonnegative terms is the same in
    any order, bit for bit; past the float range, or with an inf or nan
    modulus, this is fsum's inf, nan or OverflowError on the moduli sorted
    descending.

    _split_sum decides arrays of SPLIT_SUM_SIZE moduli or more; the rest,
    and whatever it leaves undecided, go to fsum.  The order changes no
    bit of a finite sum, but it sets fsum's speed: in degree order the
    moduli of a power climb through hundreds of orders of magnitude and
    fall again, and fsum keeps about 200 partials on a span of 3217;
    sorted descending, a dozen.  The sort is in place, and fsum reads the
    array through a memoryview, with no list in between.
    """
    if moduli.size >= SPLIT_SUM_SIZE:
        total = _split_sum(moduli)
        if total is not None:
            return total
    moduli[::-1].sort()
    return math.fsum(memoryview(moduli))


def _l1(a) -> float:
    """The l1 norm of a complex128 array, exactly rounded: _moduli_sum of
    its moduli, inf past the float range and nan with a nan entry.
    np.hypot rounds as abs(complex) does; np.abs does not."""
    with np.errstate(over="ignore"):
        moduli = np.hypot(a.real, a.imag)
    try:
        return _moduli_sum(moduli)
    except OverflowError:
        # past the float range; fsum raises before it reports a nan term
        return math.nan if np.isnan(moduli).any() else math.inf


# --- the dict API ------------------------------------------------------------


def multiply(f: Element, g: Element) -> Element:
    """Coefficient convolution (f*g)_k = sum_j f_j g_{k-j}.

    Exactly commutative coefficient-wise (see ``_convolve``).  Raises
    BudgetExceeded when the output support span would exceed COEFF_CAP,
    before either operand is laid out as an array.
    """
    (df, cf), (dg, cg) = _terms(f), _terms(g)
    if not cf.size or not cg.size:
        return {}
    _check_span(_span(df) + _span(dg) - 1)
    lo, a = _convolve(_laurent(df, cf), _laurent(dg, cg))
    keep = a.astype(bool)  # nonzero, NaN included
    return dict(zip(compress(range(lo, lo + a.size), keep.tolist()), a[keep].tolist()))


def add(f: Element, g: Element) -> Element:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0j) + v
    return clean(out)


def scale(alpha: complex, f: Element) -> Element:
    """alpha * f: Python's complex product on each coefficient, zeros pruned."""
    alpha = complex(alpha)
    return {k: z for k, v in f.items() if (z := alpha * complex(v))}


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
    """The Wiener algebra as an engine instance on the API's clean dicts,
    through the dict functions; ``mul`` is ``multiply``, which refuses a
    product past COEFF_CAP before laying out any array.  Trimmed arrays
    live only inside the kernels and ``_power_logs``."""

    add, scale, norm = staticmethod(add), staticmethod(scale), staticmethod(l1_norm)

    @property
    def one(self):
        return {0: 1.0 + 0j}

    @property
    def zero(self):
        return {}

    def mul(self, x, y):
        return multiply(x, y)

    def is_zero(self, x) -> bool:
        return not any(x.values())

    def power_logs(self, x, n: int):
        return _power_logs(x, n)


@dataclass(frozen=True)
class SupEstimate:
    """Certified bracket for the sup of |f| over the circle.

    grid_max, the max of |f| over the sampling grid, is a lower bound for
    the sup up to float rounding.  upper is grid_max plus the derivative
    bound certified_upper_error = (pi/M) * sum |j*a_j| for grid size M and
    a bound on the rounding of the samples, rounded up, and clipped at an
    upper bound of the exact l1 norm (``l1_norm`` rounds to nearest); both
    are at least the sup."""

    grid_max: float
    certified_upper_error: float
    upper: float

    @property
    def interval(self) -> tuple[float, float]:
        return (self.grid_max, self.upper)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.grid_max + self.upper)


@lru_cache(maxsize=4)
def _unit_roots(grid_size: int):
    """The read-only table e^{2 pi i r / M}, r = 0..M-1, for grid size M."""
    roots = np.exp(1j * (2.0 * math.pi * np.arange(grid_size) / grid_size))
    roots.flags.writeable = False  # shared by every later call
    return roots


def sup_norm(f: Element, grid_size: int = DEFAULT_GRID) -> SupEstimate:
    """Sample |f| on an equispaced circle grid and certify the sup bracket.
    grid_size is an integer >= 8 (a numpy integer too)."""
    m = operator.index(grid_size) if hasattr(type(grid_size), "__index__") else 0
    if m < 8:
        raise ValueError("grid_size must be an integer >= 8, got %r" % (grid_size,))
    f = clean(f)
    if not f:
        return SupEstimate(0.0, 0.0, 0.0)
    l1 = l1_norm(f)
    degrees, values = zip(*sorted(f.items()))
    # the phase of degree k at point j is the table's e^{2 pi i r / M}, r = (j * (k mod M))
    # mod M in exact integers (M^2 < 2^63): a huge degree keeps its phase
    residues = np.array([k % m for k in degrees], dtype=np.int64)
    phases = _unit_roots(m)[np.outer(np.arange(m), residues) % m]
    with np.errstate(over="ignore", invalid="ignore"):  # inf samples near the float max
        samples = np.abs(phases @ np.array(values, dtype=complex))
    # |f| <= l1 pointwise; any float excess in the samples is rounding noise
    grid_max = min(float(samples.max()), l1)
    # D = sum |k a_k|; past the float range it reads inf, leaving upper at l1
    moment = or_inf(math.fsum, (abs(k * v) for k, v in f.items()))
    err = (math.pi / m) * moment
    # Rounding in the samples, bounded a priori (n terms, in the model of reports):
    # each circle point is within pi/M of a grid point theta_j, |f| is D-Lipschitz,
    # and err is at most pi u D low.  The samples approximate f(theta_j): a table
    # entry exp(i t), with t = 2 pi r / M computed within 6 pi u, is within
    # 6 pi u + 2u < 22u of its unit root, inside 8 pi u |k| for every k != 0 mod M,
    # and exactly 1 for k = 0 mod M: in all 9 pi u D < 29 u D.  abs costs 2u l1, the
    # complex dot product sqrt(2) gamma_{n+2} l1 <= 1.01 sqrt(2) (n + 2) u l1.  The
    # constants leave room for rounding the bound and the first sum; round_up, the second.
    rounding = UNIT_ROUNDOFF * (37 * moment + (3 * len(f) + 12) * l1)
    grid_up = round_up(grid_max + err + rounding)
    # the exact l1 is at most the sum of the moduli rounded up (hypot is within an
    # ulp, and exact with a zero part), which the sign of its remainder rounds up
    l1_up = l1
    if math.isfinite(l1):
        up = [round_up(abs(v)) if v.real and v.imag else abs(v) for v in f.values()]
        l1_up = or_inf(math.fsum, up)
        if l1_up < math.inf and math.fsum([-l1_up, *up]) > 0:
            l1_up = round_up(l1_up)
    return SupEstimate(grid_max, err, min(grid_up, l1_up))


def _power_logs(f: Element, n: int) -> list[float] | None:
    """The log column of norm(f^k), k = 1..n >= 1, for a clean f, bit for
    bit as power_norms' generic chain on WienerAlgebra(), or None where the
    loop cannot match the chain, which then gives the table: for an f whose
    nonzero terms span more than COEFF_CAP degrees (it is never laid out;
    a zero term does not widen the span, as in multiply), once a norm
    leaves the normal range (zero, subnormal, inf or nan), where the chain
    refuses, stops, rescales or warns, and once a rescale zeroes a part.

    f is laid out as a trimmed array x, and each step fuses mul, norm and
    scale on trimmed arrays.  The product is multiply's kernel: _convolve
    for the first product, whose equal spans need its canonical order, for
    a direction trimmed back to the span of x and for a product past
    COEFF_CAP, which it refuses.  Once the direction d is longer than x
    (so x has two or more terms), np.convolve(d, x) is numpy's correlate
    kernel on (d, x reversed); so is np.correlate(d, conj(x reversed)), as
    np.correlate conjugates its second operand, with the taps conj(x
    reversed) laid out once, and _trimmed runs only where an end is zero.
    The norm is _l1's: _moduli_sum of the moduli, which _split_sum decides
    on long powers.  The scale is numpy's complex multiply by the real
    1/norm, in place on each step's own product (never on x), which
    fuses a multiply and an add, so it differs from scale's Python
    product only in the sign of a part whose nonzero product underflows
    to zero; with a normal norm every part is finite, so that
    shows as fewer nonzero parts.  A factor c above 1/2 underflows no
    part: a nonzero part p has |p| >= 2^-1074, so |p * c| > 2^-1075 rounds
    to a nonzero, while at exactly 1/2, 5e-324 * 0.5 ties to 0.  So the
    parts are counted only for norms of 2 and more.
    """
    degrees, coeffs = _terms(f)
    if _span(degrees) > COEFF_CAP:
        return None
    lo_x, a = x = _laurent(degrees, coeffs)
    taps = np.conj(a[::-1])
    lo, w = lo_x, a.copy()  # rescaled in place, as every later product is
    normal, hi = sys.float_info.min, sys.float_info.max
    count, hypot, correlate = np.count_nonzero, np.hypot, np.correlate
    norms = []
    with np.errstate(all="ignore"):
        for k in range(n):
            if k:  # w is the direction
                if a.size < w.size and a.size + w.size - 1 <= COEFF_CAP:
                    lo, w = lo + lo_x, correlate(w, taps, "full")
                    if not (w[0] and w[-1]):
                        lo, w = _trimmed(lo, w)
                else:
                    lo, w = _convolve((lo, w), x)
            try:
                nw = _moduli_sum(hypot(w.real, w.imag))
            except OverflowError:
                return None
            if not normal <= nw <= hi:
                return None
            norms.append(nw)
            inv = 1.0 / nw
            parts = count(w.view(float)) if inv <= 0.5 else None
            w *= inv
            if parts is not None and count(w.view(float)) != parts:
                return None
    return list(accumulate(map(math.log, norms)))


def wiener_spectral_radius(f: Element, n: int) -> RootReport:
    """power_norms(WienerAlgebra(), f, n): the running minimum of the
    roots converges to the sup norm of f (downward, being an upper bound
    at every k).  An f whose own support span exceeds COEFF_CAP runs on
    the dict, and its first product raises BudgetExceeded."""
    return power_norms(WienerAlgebra(), clean(f), n)


def wiener_inverse(f: Element, tol: float = 1e-10) -> Element:
    """Reciprocal in the Wiener algebra with l1 residual below tol.

    Factors f = c * (e - g) with c the degree-0 coefficient, widening the
    plain norm(f - e) < 1 hypothesis, then runs the Neumann series on g.
    Raises NotConvergent when no power g^k, k <= 32, has l1 norm below
    1; the factorization needs a nonzero degree-0 coefficient to
    start.  The series is summed by repeated squaring until its tail bound
    meets ``tol``, so the partial sum's support doubles with each step;
    COEFF_CAP bounds the support span of every product (BudgetExceeded),
    alongside the term budget of neumann_inverse.  NotConvergent is also
    raised when a coefficient of the reciprocal passes the float range
    (a tiny c), as no float element then meets the residual contract.
    """
    f = clean(f)
    c = f.get(0, 0j)
    if c == 0:
        raise NotConvergent(
            "degree-0 coefficient is zero; cannot factor f = c*(e - g)"
        )
    g = {k: -v / c for k, v in f.items() if k != 0}
    y = scale(1.0 / c, neumann_inverse(WienerAlgebra(), g, tol))
    if not all(map(cmath.isfinite, y.values())):
        raise NotConvergent(
            "reciprocal has a coefficient past the float range (1/c = %r)" % (1.0 / c)
        )
    return y


# --- I/O -------------------------------------------------------------------

def parse_inline(spec: str) -> Element:
    """Parse 'deg:coeff,deg:coeff' pairs, each degree once; finite complex coefficients."""
    out: Element = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        deg_text, _, coeff_text = chunk.partition(":")
        if not coeff_text:
            raise ValueError("expected deg:coeff, got %r" % chunk)
        deg, coeff = int(deg_text), complex(coeff_text)
        if not cmath.isfinite(coeff):
            raise ValueError("coefficient of degree %d is not finite: %r" % (deg, coeff_text))
        if deg in out:
            raise ValueError("degree %d appears twice" % deg)
        out[deg] = coeff
    return clean(out)
