"""Generic engine over a unital normed algebra instance.

Every operation here is parameterized over an :class:`Algebra` supplying
add / scale / mul / norm plus the identity and zero elements, so the same
code drives dense matrices and Wiener-algebra elements.  High powers are
carried in renormalized form (unit-norm direction plus accumulated log
magnitude) so that norm(x^k) can be reported for k far beyond the point
where the raw power would overflow or underflow.
"""

from __future__ import annotations

import abc
import math
from typing import Any

from .errors import BudgetExceeded, NotConvergent
from .reports import RootReport, build_report

DEFAULT_PROBE_DEPTH = 32  # must stay a power of two: neumann_inverse squares up to it
DEFAULT_MAX_TERMS = 2**20


class Algebra(abc.ABC):
    """Operations a concrete unital normed algebra must supply.

    Instances are expected to satisfy norm(one) == 1, absolute
    homogeneity, the triangle inequality, and submultiplicativity
    norm(mul(x, y)) <= norm(x) * norm(y).  Elements are treated as
    immutable values; no operation may mutate its inputs.
    """

    @property
    @abc.abstractmethod
    def one(self) -> Any: ...

    @property
    @abc.abstractmethod
    def zero(self) -> Any: ...

    @abc.abstractmethod
    def add(self, x, y): ...

    @abc.abstractmethod
    def scale(self, alpha, x): ...

    @abc.abstractmethod
    def mul(self, x, y): ...

    @abc.abstractmethod
    def norm(self, x) -> float: ...

    @abc.abstractmethod
    def is_zero(self, x) -> bool:
        """Structural test for the zero element (not norm-based)."""

    def sub(self, x, y):
        return self.add(x, self.scale(-1.0, y))


_TWO_600 = 2.0**600


def _normalize(alg: Algebra, w):
    """(w / norm(w), log norm(w)): (zero, -inf) for a zero w and (zero, inf)
    for a norm past the float range.  When 1/norm(w) overflows (a
    subnormal norm), w and its norm are first scaled up by an exact power
    of two."""
    nw = alg.norm(w)
    if nw == 0.0:
        if not alg.is_zero(w):
            raise ValueError("norm(x) = 0 for a nonzero x: instance violates the norm axioms")
        return alg.zero, -math.inf
    if nw == math.inf:
        return alg.zero, math.inf
    inv = 1.0 / nw
    if inv == math.inf:
        w, inv = alg.scale(_TWO_600, w), 1.0 / (nw * _TWO_600)
    return alg.scale(inv, w), math.log(nw)


def power_norms(alg: Algebra, x, n: int) -> RootReport:
    """Table of norm(x^k), its k-th root, and the running minimum, k = 1..n.

    x^k is carried as a unit-norm direction and log norm(x^k) (-inf for
    a zero power).  The value sequence is submultiplicative (up to
    roundoff), so the running minimum is a certified upper bound for the
    limit of the roots and hence for the spectral radius.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    direction, log_norm = _normalize(alg, x)
    logs = [log_norm]
    for _ in range(n - 1):
        if -math.inf < log_norm < math.inf:  # a zero, overflowed or nan power stays as it is
            direction, log_w = _normalize(alg, alg.mul(direction, x))
            log_norm += log_w
        logs.append(log_norm)
    return build_report(logs, value_header="norm")


def spectral_radius_upper(alg: Algebra, x, n: int) -> float:
    """min over k <= n of norm(x^k)^(1/k): certified spectral radius bound."""
    return power_norms(alg, x, n).certified_upper


def neumann_inverse(alg: Algebra, x, tol: float = 1e-10, max_terms: int = DEFAULT_MAX_TERMS):
    """Inverse of (e - x) as the truncated geometric series sum of x^j.

    The partial sums y = sum_{j<2^m} x^j are formed in product form,
    y <- y + y t with t = x^(2^m), one squaring and one product per
    doubling.  Since (e - x) y = e - t, the squarings certify convergence
    themselves: once q = norm(t) < 1, the truncation error y t (e - t)^{-1}
    has norm at most norm(y) q / (1 - q), and the loop stops when that
    bound and q are both at most tol / 2.  A t that is exactly zero
    (nilpotent x) leaves the exact finite sum.

    When the squaring that reaches x^DEFAULT_PROBE_DEPTH has no q < 1
    (nan included), the powers x^1 .. x^DEFAULT_PROBE_DEPTH are probed,
    and NotConvergent is raised if none has norm below 1.
    BudgetExceeded is raised when the next doubling would pass
    ``max_terms`` terms, and from x^DEFAULT_PROBE_DEPTH on also when
    q^(2^j), the submultiplicative bound for norm(x^(2^j terms)), reaches
    tol / 2 only past ``max_terms`` terms, so a refusal costs a few
    products, not the whole budget.  The residual norm((e - x) y - e) is measured at
    the end, and NotConvergent is raised when it exceeds ``tol`` (rounding
    can defeat a tolerance near machine precision), so a returned y meets
    its contract.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % tol)
    y = alg.add(alg.one, x)
    t = x
    terms = 2  # y = sum_{j<terms} x^j, and t becomes x^terms below
    while True:
        t = alg.mul(t, t)
        if alg.is_zero(t):
            return y  # (e - x) y = e exactly
        q = alg.norm(t)
        bound = alg.norm(y) * q / (1.0 - q) if q < 1.0 else math.inf
        if max(q, bound) <= tol / 2:
            break
        # once norm(x^DEFAULT_PROBE_DEPTH) < 1, every later q is below 1 too
        if terms == DEFAULT_PROBE_DEPTH and not q < 1.0:
            upper = spectral_radius_upper(alg, x, DEFAULT_PROBE_DEPTH)
            if not upper < 1.0:
                raise NotConvergent(
                    "no k <= %d has norm(x^k) < 1 (certified radius bound "
                    "min norm(x^k)^(1/k) = %.6g)" % (DEFAULT_PROBE_DEPTH, upper)
                )
        need = 2 * terms
        if terms >= DEFAULT_PROBE_DEPTH and tol / 2 < q < 1.0:
            # smallest j with q^(2^j) <= tol / 2 is at least 1 here
            need = terms * 2 ** math.ceil(math.log2(math.log(tol / 2) / math.log(q)))
        if need > max_terms:
            raise BudgetExceeded(
                "tail bound %.6g after %d terms (q=%.6g) asks for %d terms, "
                "past max_terms=%d" % (bound, terms, q, need, max_terms)
            )
        y = alg.add(y, alg.mul(y, t))
        terms *= 2
    residual = alg.norm(alg.sub(alg.mul(alg.sub(alg.one, x), y), alg.one))
    if not residual <= tol:
        raise NotConvergent(
            "residual norm((e - x) y - e) = %.6g exceeds tol %.6g "
            "(terms=%d, q=%.6g, tail bound=%.6g)" % (residual, tol, terms, q, bound)
        )
    return y


def invert_near(alg: Algebra, x_inv, x, y, tol: float = 1e-10):
    """Inverse of y from a known inverse of a nearby x.

    Requires the open-set margin norm(y - x) < 1 / norm(x_inv); then
    y = x (e + x^{-1} (y - x)) reduces the problem to a Neumann series in
    -x^{-1}(y - x).  The result satisfies norm(y * result - e) <= 10*tol
    for moderately conditioned x.
    """
    inv_norm = alg.norm(x_inv)
    if inv_norm == 0.0:
        raise ValueError("x_inv has norm 0 and cannot be an inverse")
    delta = alg.sub(y, x)
    margin = alg.norm(delta)
    if margin * inv_norm >= 1.0:
        raise ValueError(
            "perturbation too large: norm(y - x) = %.6g >= 1/norm(x_inv) = %.6g"
            % (margin, 1.0 / inv_norm)
        )
    w = alg.scale(-1.0, alg.mul(x_inv, delta))
    series = neumann_inverse(alg, w, tol)
    return alg.mul(series, x_inv)


def resolvent(alg: Algebra, x, lam: complex, tol: float = 1e-10):
    """(lam*e - x)^{-1} via the instance's direct solver or a Neumann series.

    A direct solver is used whenever the instance provides one (raising
    Singular at spectrum points).  Otherwise the factorization
    lam*e - x = lam*(e - x/lam) reduces the job to a Neumann series, which
    refuses x/lam when its certified radius bound is not below 1.
    """
    direct = getattr(alg, "direct_inverse", None)
    if direct is not None:
        shifted = alg.sub(alg.scale(lam, alg.one), x)
        return direct(shifted, tol)
    if lam == 0:
        raise NotConvergent("|lambda| = 0 is not above the certified radius bound")
    series = neumann_inverse(alg, alg.scale(1.0 / lam, x), tol)
    return alg.scale(1.0 / lam, series)


def telescope_check(alg: Algebra, x, n: int) -> float:
    """Defect of the telescoping identity (e - x) * sum_{j<=n} x^j = e - x^{n+1}.

    Both the left- and right-factored forms are evaluated; the larger of
    the two defect norms is returned.  It should sit at machine scale
    (growing roughly linearly in n) for any element.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    partial = alg.one
    term = alg.one
    for _ in range(n):
        term = alg.mul(term, x)
        partial = alg.add(partial, term)
    x_next = alg.mul(term, x)  # x^{n+1}
    rhs = alg.sub(alg.one, x_next)
    e_minus_x = alg.sub(alg.one, x)
    left = alg.norm(alg.sub(alg.mul(e_minus_x, partial), rhs))
    right = alg.norm(alg.sub(alg.mul(partial, e_minus_x), rhs))
    return max(left, right)
