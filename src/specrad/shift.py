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
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat, takewhile

import numpy as np

from .reports import RootReport, build_report, csv_rows


@dataclass(frozen=True)
class WeightedShift:
    """Nonincreasing weight prefix; the weight is constant past the prefix."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        if not self.weights:
            raise ValueError("need at least one weight")
        prev = math.inf
        for i, w in enumerate(self.weights):
            if not w >= 0.0:
                raise ValueError("weight alpha_%d = %r is negative or NaN" % (i + 1, w))
            if w > prev:
                raise ValueError(
                    "weights must be nonincreasing: alpha_%d = %r > alpha_%d = %r"
                    % (i + 1, w, i, prev)
                )
            prev = w

    @property
    def tail(self) -> float:
        """The constant continuation value, which is also the weight infimum."""
        return self.weights[-1]

    def weight(self, j: int) -> float:
        """alpha_j for j >= 1, constant at the last stored value beyond the prefix."""
        if j < 1:
            raise ValueError("weight indices start at 1")
        return self.weights[min(j, len(self.weights)) - 1]


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
        """The p-norm.  When the sum of |x_j|^p overflows or falls below the
        normal range, it is taken relative to the largest modulus M, as
        M * fsum((|x_j|/M)^p)^(1/p)."""
        if not self.values:
            return 0.0
        mags = [abs(v) for v in self.values.values()]
        p = self.p
        if p == math.inf:
            return max(mags)
        try:
            total = math.fsum(m**p for m in mags)
        except OverflowError:  # float pow and fsum raise past the float range
            total = None
        # a normal sum keeps its bits; an inf or nan modulus gives an inf or nan sum
        if total is not None and not total < sys.float_info.min:
            return total ** (1.0 / p)
        big = max(mags)
        if big == math.inf:
            return big
        return big * math.fsum((m / big) ** p for m in mags) ** (1.0 / p)


def unit_vector(j: int, p: float) -> FiniteVector:
    return FiniteVector({j: 1.0 + 0j}, p)


def apply_power(shift: WeightedShift, x: FiniteVector, power: int) -> FiniteVector:
    """T^l x, computed directly: (T^l x)_j = (prod of alpha_j..alpha_{j+l-1}) * x_{j+l}."""
    if power < 1:
        raise ValueError("power must be >= 1")
    weights, stored = shift.weights, len(shift.weights)
    out: dict[int, complex] = {}
    for m, v in x.values.items():
        j = m - power
        if j < 1:
            continue  # shifted off the front
        # alpha_j..alpha_{m-1}, the tail weight standing in past the prefix;
        # math.prod multiplies left to right in doubles, from 1
        window = weights[j - 1 : m - 1]
        if m - 1 > stored:
            window += (shift.tail,) * (m - 1 - max(j - 1, stored))
        coeff = math.prod(window)
        if coeff != 0.0:
            out[j] = coeff * v
    return FiniteVector(out, x.p)


def power_norm_formula(shift: WeightedShift, power: int) -> float:
    """Operator norm of T^l: the product of the first l weights.

    Evaluated as the exponential of summed logs (a zero weight gives 0),
    since thousands of sub-unit factors underflow a direct product.
    """
    if power < 1:
        raise ValueError("power must be >= 1")
    return math.exp(_log_products(shift, power)[-1])


def _log_products(shift: WeightedShift, max_power: int) -> list[float]:
    """log of the product of the first l weights, for l = 1..max_power."""
    # alpha_1..alpha_L up to the first zero weight, past which (weights are
    # nonincreasing) every weight is zero and every product is 0, log -inf
    positive = takewhile((0.0).__lt__, chain(shift.weights, repeat(shift.tail)))
    logs = list(accumulate(map(math.log, islice(positive, max_power)), initial=0.0))
    del logs[0]
    logs += [-math.inf] * (max_power - len(logs))
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
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        size = int(rng.integers(1, 12))
        indices = rng.integers(1, power + 40, size=size).tolist()
        # one draw of 2*size normals is the stream of 2*size single draws
        parts = rng.standard_normal(2 * size).tolist()
        x = FiniteVector(dict(zip(indices, map(complex, parts[0::2], parts[1::2]))), p)
        nx = x.norm()
        if nx == 0.0:
            continue
        best = max(best, apply_power(shift, x, power).norm() / nx)
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

def constant_weights(c: float, m: int) -> WeightedShift:
    return WeightedShift((c,) * m)


def harmonic_weights(a: float, b: float, m: int) -> WeightedShift:
    """alpha_j = a + b/j, decaying toward a; needs a, b >= 0."""
    if a < 0 or b < 0:
        raise ValueError("need a, b >= 0 for nonnegative nonincreasing weights")
    return WeightedShift(tuple([a + b / j for j in range(1, m + 1)]))


# --- CSV interface ----------------------------------------------------------

def read_weights_csv(text: str) -> WeightedShift:
    """Parse `j,alpha` rows (header required, j must run 1..M in order)."""
    return WeightedShift(tuple(float(w) for _, w in csv_rows(text, "j,alpha")))
