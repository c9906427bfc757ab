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
from .reports import RootReport, csv_rows, fmt17

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


def identity() -> Element:
    return {0: 1.0 + 0j}


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


def _content_key(degrees, coeffs):
    items = tuple(sorted(zip(degrees.tolist(), coeffs.real.tolist(), coeffs.imag.tolist())))
    return (len(items), items)


def multiply(f: Element, g: Element, cap: int = COEFF_CAP) -> Element:
    """Coefficient convolution (f*g)_k = sum_j f_j g_{k-j}.

    np.convolve puts the longer operand first; for operands of equal
    support span the order is canonicalized before convolving, so that
    multiply(f, g) and multiply(g, f) are the same float computation,
    making commutativity exact coefficient-wise.  Raises BudgetExceeded
    when the output support span would exceed ``cap``.
    """
    (df, cf), (dg, cg) = _terms(f), _terms(g)
    if not cf.size or not cg.size:
        return {}
    lo_f, lo_g = int(df.min()), int(dg.min())
    span_f, span_g = int(df.max()) - lo_f + 1, int(dg.max()) - lo_g + 1
    span = span_f + span_g - 1
    if span > cap:
        raise BudgetExceeded(
            "product support span %d exceeds coefficient cap %d" % (span, cap)
        )
    arr_f = np.zeros(span_f, np.complex128)
    arr_f[(df - lo_f).astype(np.intp)] = cf
    arr_g = np.zeros(span_g, np.complex128)
    arr_g[(dg - lo_g).astype(np.intp)] = cg
    if span_f == span_g and _content_key(dg, cg) < _content_key(df, cf):
        arr_f, arr_g = arr_g, arr_f
    base = lo_f + lo_g
    return _element(range(base, base + span), np.convolve(arr_f, arr_g))


def add(f: Element, g: Element) -> Element:
    out = dict(f)
    for k, v in g.items():
        out[k] = out.get(k, 0j) + v
    return clean(out)


def scale(alpha: complex, f: Element) -> Element:
    # Python's complex product (ar*vr - ai*vi) + (ar*vi + ai*vr)j on the
    # (re, im) pairs: numpy's complex multiply rounds differently
    alpha = complex(alpha)
    pairs = np.fromiter(f.values(), np.complex128, len(f)).view(np.float64).reshape(-1, 2)
    with np.errstate(invalid="ignore", over="ignore"):
        out = pairs * alpha.real + pairs[:, ::-1] * np.array([-alpha.imag, alpha.imag])
    return _element(f, out.view(np.complex128).reshape(-1))


def l1_norm(f: Element) -> float:
    """sum of |a_j| (exact rounded sum, order-independent)."""
    coeffs = np.fromiter(f.values(), np.complex128, len(f))
    # np.hypot rounds as abs(complex) does; np.abs does not
    with np.errstate(over="ignore"):
        return math.fsum(np.hypot(coeffs.real, coeffs.imag).tolist())


def evaluate(f: Element, theta: float) -> complex:
    """f at the circle point e^{i*theta}: sum a_j e^{i*j*theta}.

    This is a nonzero algebra homomorphism, so its modulus is bounded by
    every power-norm root of f.  Terms are summed in degree order with
    exact rounded partial sums, so equal elements evaluate identically.
    """
    re = math.fsum((v * cmath.exp(1j * k * theta)).real for k, v in sorted(f.items()))
    im = math.fsum((v * cmath.exp(1j * k * theta)).imag for k, v in sorted(f.items()))
    return complex(re, im)


class WienerAlgebra(Algebra):
    """The Wiener algebra as an engine instance; elements are coefficient dicts."""

    def __init__(self, cap: int = COEFF_CAP):
        self.cap = cap

    @property
    def one(self) -> Element:
        return identity()

    @property
    def zero(self) -> Element:
        return {}

    def add(self, x, y):
        return add(x, y)

    def scale(self, alpha, x):
        return scale(alpha, x)

    def mul(self, x, y):
        return multiply(x, y, cap=self.cap)

    def norm(self, x) -> float:
        return l1_norm(x)

    def is_zero(self, x) -> bool:
        return all(v == 0 for v in x.values())


@dataclass(frozen=True)
class SupEstimate:
    """Certified bracket for the sup of |f| over the circle.

    grid_max is the max of |f| over the sampling grid and is a lower
    bound for the sup; the certified upper end adds the derivative bound
    (pi/M) * sum |j*a_j| for grid size M, clipped at the l1 norm (which
    dominates the sup outright).  The bracket is exact up to float
    rounding in the samples (~1e-15 relative).
    """

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
    degs = np.array(sorted(f), dtype=float)
    coeffs = np.array([f[int(d)] for d in degs])
    theta = 2.0 * math.pi * np.arange(grid_size) / grid_size
    samples = np.abs(np.exp(1j * np.outer(theta, degs)) @ coeffs)
    # |f| <= l1 pointwise; any float excess in the samples is rounding noise
    grid_max = min(float(samples.max()), l1)
    err = (math.pi / grid_size) * math.fsum(abs(k * v) for k, v in f.items())
    return SupEstimate(grid_max, err, min(grid_max + err, l1))


def wiener_spectral_radius(
    f: Element, n: int, cap: int = COEFF_CAP
) -> RootReport:
    """Roots of the l1 norms of f^k for k = 1..n; the running minimum
    converges to the sup norm of f (downward, being an upper bound at
    every k)."""
    return power_norms(WienerAlgebra(cap), clean(f), n)


def wiener_inverse(f: Element, tol: float = 1e-10, cap: int = COEFF_CAP) -> Element:
    """Reciprocal in the Wiener algebra with l1 residual below tol.

    Factors f = c * (e - g) with c the degree-0 coefficient, widening the
    plain norm(f - e) < 1 hypothesis, then runs the Neumann series on g.
    Raises NotConvergent when no probed power of g has l1 norm below 1;
    the factorization needs a nonzero degree-0 coefficient to start.
    The series is summed by repeated squaring, so its support rounds up
    to a power of two and ``cap`` can be reached up to 2x sooner than
    the term count of the tail bound suggests.
    """
    f = clean(f)
    c = f.get(0, 0j)
    if c == 0:
        raise NotConvergent(
            "degree-0 coefficient is zero; cannot factor f = c*(e - g)"
        )
    g = {k: -v / c for k, v in f.items() if k != 0}
    series = neumann_inverse(WienerAlgebra(cap), g, tol)
    return scale(1.0 / c, series)


# --- I/O -------------------------------------------------------------------

def element_to_csv(f: Element) -> str:
    lines = ["degree,re,im"]
    for k in sorted(clean(f)):
        v = f[k]
        lines.append("%d,%s,%s" % (k, fmt17(v.real), fmt17(v.imag)))
    return "\n".join(lines) + "\n"


def read_element_csv(text: str) -> Element:
    """Parse `degree,re,im` rows (header required; a repeated degree keeps its last row)."""
    rows = csv_rows(text, "degree,re,im")
    return clean({int(k): complex(float(re), float(im)) for k, re, im in rows})


def element_to_json(f: Element) -> str:
    f = clean(f)
    rows = [
        '"%d": [%s, %s]' % (k, fmt17(f[k].real), fmt17(f[k].imag)) for k in sorted(f)
    ]
    return "{" + ", ".join(rows) + "}\n"


def parse_inline(spec: str) -> Element:
    """Parse 'deg:coeff,deg:coeff' pairs; coefficients in complex syntax."""
    out: Element = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        deg_text, _, coeff_text = chunk.partition(":")
        if not coeff_text:
            raise ValueError("expected deg:coeff, got %r" % chunk)
        out[int(deg_text)] = complex(coeff_text)
    return clean(out)
