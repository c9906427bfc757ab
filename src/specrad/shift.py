"""Weighted shift operator on finitely supported sequences.

With nonincreasing weights alpha_1 >= alpha_2 >= ..., the operator
(T x)_j = alpha_j * x_{j+1} has operator norm of T^l equal to the product
of the first l weights, in every l^p norm: the window product starting at
j = 1 dominates every later window, and the basis vector e_{l+1} attains
it.  The l-th roots of those products are geometric means of the weights
and converge to the tail weight, the infimum.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .reports import RootReport, build_report, csv_rows, float_tuple, map_floats


@dataclass(frozen=True)
class WeightedShift:
    """Nonincreasing weight prefix; the weight is constant past the prefix.
    ``array`` holds the weights as a read-only float64 array, built once;
    it takes no part in ==, hash or repr."""

    weights: tuple[float, ...]
    array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights, w = float_tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "array", w)
        if not weights:
            raise ValueError("need at least one weight")
        # the first weight that is negative or NaN, or above the one before it
        wrong = ~(w >= 0.0)
        wrong[1:] |= w[1:] > w[:-1]
        if wrong.any():
            i = int(wrong.argmax())
            if not weights[i] >= 0.0:
                raise ValueError("weight alpha_%d = %r is negative or NaN" % (i + 1, weights[i]))
            raise ValueError(
                "weights must be nonincreasing: alpha_%d = %r > alpha_%d = %r"
                % (i + 1, weights[i], i, weights[i - 1])
            )

    @property
    def tail(self) -> float:
        """The constant continuation value, which is also the weight infimum."""
        return self.weights[-1]


@dataclass(frozen=True)
class FiniteVector:
    """Finitely supported sequence (indices >= 1) with an attached p-norm."""

    values: dict[int, complex]
    p: float

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError("p must be in [1, inf]")
        vals = {}
        for j, v in self.values.items():
            if int(j) < 1:
                raise ValueError("indices start at 1, got %r" % (j,))
            z = complex(v)
            if z != 0:
                vals[int(j)] = z
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        """The p-norm, as _p_norm takes it."""
        return _p_norm(self.values.values(), self.p)


def _p_norm(values, p: float) -> float:
    """The p-norm of a vector whose nonzero entries are the complex
    ``values``: nan with a nan modulus, in any order, and inf past the
    float range.  When the sum of m^p overflows or falls below the normal
    range, it is taken relative to the largest modulus M, as
    M * fsum((m/M)^p)^(1/p)."""
    try:
        mags = list(map(abs, values))
    except OverflowError:
        # abs(complex) raises past the float range, and for a nan part while
        # errno holds an earlier caught ERANGE; hypot does not, and the norm
        # is then inf or nan, whatever the other moduli round to
        mags = [math.hypot(z.real, z.imag) for z in values]
    if p != math.inf:
        try:
            total = math.fsum(m**p for m in mags)
        except OverflowError:  # float pow and fsum raise past the float range
            total = None
        # a normal sum keeps its bits; an inf or nan modulus gives an inf or nan sum
        if total is not None and not total < sys.float_info.min:
            return total ** (1.0 / p)
    if any(map(math.isnan, mags)):  # max skips a nan unless it comes first
        return math.nan
    big = max(mags, default=0.0)
    if p == math.inf or big == math.inf:
        return big
    return big * math.fsum((m / big) ** p for m in mags) ** (1.0 / p)


def unit_vector(j: int, p: float) -> FiniteVector:
    return FiniteVector({j: 1.0 + 0j}, p)


def _window_product(shift: WeightedShift, j: int, power: int) -> float:
    """alpha_j * ... * alpha_{j+power-1}, the tail weight standing in past
    the prefix; math.prod multiplies left to right in doubles, from 1."""
    weights, stored = shift.weights, len(shift.weights)
    window = weights[j - 1 : j + power - 1]
    if j + power - 1 > stored:
        window += (shift.tail,) * (j + power - 1 - max(j - 1, stored))
    return math.prod(window)


def _shifted(values: dict[int, complex], power: int, products) -> dict[int, complex]:
    """The nonzero entries of T^l x for the nonzero entries ``values`` of x:
    (T^l x)_j = products[j] * x_{j+l}, where products[j] is the window
    product alpha_j..alpha_{j+l-1} for every j >= 1 that an entry reaches."""
    out: dict[int, complex] = {}
    for m, v in values.items():
        j = m - power
        if j < 1:
            continue  # shifted off the front
        coeff = products[j]
        if coeff != 0.0:
            z = coeff * v
            if z != 0:
                out[j] = z
    return out


def apply_power(shift: WeightedShift, x: FiniteVector, power: int) -> FiniteVector:
    """T^l x, computed directly: (T^l x)_j = (prod of alpha_j..alpha_{j+l-1}) * x_{j+l}."""
    if power < 1:
        raise ValueError("power must be >= 1")
    products = {m - power: _window_product(shift, m - power, power) for m in x.values if m > power}
    return FiniteVector(_shifted(x.values, power, products), x.p)


def power_norm_formula(shift: WeightedShift, power: int) -> float:
    """Operator norm of T^l: the product of the first l weights.

    Evaluated as the exponential of summed logs (a zero weight gives 0),
    since thousands of sub-unit factors underflow a direct product.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    return math.exp(_log_products(shift, power)[-1])


def _log_products(shift: WeightedShift, max_power: int) -> np.ndarray:
    """log of the product of the first l weights, for l = 1..max_power: the
    sums of math.log of the weights, added left to right."""
    # the weights are nonincreasing: the positive ones lead, and past the
    # first zero weight every product is 0, log -inf
    w = shift.array
    stored = np.count_nonzero(w[:max_power])
    positive = max_power if stored == w.size else stored  # the tail weight past the prefix
    logs = np.full(max_power, -math.inf)
    logs[:stored] = map_floats(math.log, shift.weights[:stored])
    if positive > stored:
        logs[stored:positive] = math.log(shift.tail)
    logs[:positive] = np.add.accumulate(logs[:positive])
    return logs


def op_norm_empirical(
    shift: WeightedShift,
    power: int,
    p: float,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Attained operator norm of T^l plus the best random Rayleigh-type ratio.

    The basis vector e_{l+1} is extremal (the leading window product
    dominates when weights are nonincreasing), so ``attained`` equals the
    product formula.  ``max_random_ratio`` samples random finitely
    supported vectors and never exceeds attained beyond float rounding.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    attained = apply_power(shift, unit_vector(power + 1, p), power).norm()
    # the window products of every j = m - power that a trial index m < power + 40 reaches
    products = {j: _window_product(shift, j, power) for j in range(1, 40)}
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        size = int(rng.integers(1, 12))
        indices = rng.integers(1, power + 40, size=size).tolist()
        # one draw of 2*size normals is the stream of 2*size single draws
        parts = rng.standard_normal(2 * size).tolist()
        x = dict(zip(indices, map(complex, parts[0::2], parts[1::2])))
        if 0 in x.values():  # a zero entry is no entry, as in FiniteVector
            x = {j: v for j, v in x.items() if v != 0}
        nx = _p_norm(x.values(), p)
        if nx == 0.0:
            continue
        tx = _shifted(x, power, products)
        best = max(best, _p_norm(tx.values(), p) / nx)
    return attained, best


def shift_limit_experiment(shift: WeightedShift, max_power: int) -> RootReport:
    """Roots of the power-norm products for l = 1..max_power.

    The roots are geometric means of the leading weights; their running
    minimum converges to the tail weight, which is the infimum of the
    (nonincreasing) weight sequence.
    """
    if max_power < 1:
        raise ValueError("max_power must be >= 1")
    return build_report(_log_products(shift, max_power), value_header="norm")


# --- closed-form weight families ------------------------------------------

def harmonic_weights(a: float, b: float, m: int) -> WeightedShift:
    """alpha_j = a + b/j, decaying toward a; needs a, b >= 0."""
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0 for nonnegative nonincreasing weights")
    a, b = float(a), float(b)
    with np.errstate(over="ignore"):  # a + b/j past the float range is inf, as in Python
        weights = a + b / np.arange(1, m + 1)
    weights.setflags(write=False)
    return WeightedShift(weights)


# --- CSV interface ----------------------------------------------------------

def read_weights_csv(text: str) -> WeightedShift:
    """Parse `j,alpha` rows (header required, j must run 1..M in order)."""
    return WeightedShift(tuple(float(w) for _, w in csv_rows(text, "j,alpha")))
