"""Engine for submultiplicative sequences.

A nonnegative sequence a_1, a_2, ... is submultiplicative when
a_{j+l} <= a_j * a_l for every j, l >= 1.  The k-th roots a_k^{1/k} of
such a sequence converge to the infimum of all the roots, so any finite
prefix certifies an upper bound for the limit: the minimum root seen so
far.  A prefix can never certify a lower bound, because the infimum may
be approached only at unseen indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .reports import FMT17, RootReport, build_report, csv_rows, or_inf

DEFAULT_TOL_REL = 1e-9


class BadEntry(ValueError):
    """A prefix entry name_j that is negative or NaN."""

    def __init__(self, j: int, value: float, name: str = "a"):
        super().__init__("entry %s_%d = %r is negative or NaN" % (name, j, value))
        self.j, self.value = j, value


@dataclass(frozen=True)
class PrefixSequence:
    """Finite prefix a_1..a_N of a nonnegative sequence.

    ``has_unit_head`` marks the convention that an implicit a_0 = 1
    precedes the stored entries.  Index 1 always maps to values[0];
    the head is never stored as an array entry.
    """

    values: tuple[float, ...]
    has_unit_head: bool = False

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(float, self.values)))
        for i, v in enumerate(self.values):
            if not v >= 0.0:  # also rejects NaN
                raise BadEntry(i + 1, v)

    def __len__(self) -> int:
        return len(self.values)

    def a(self, j: int) -> float:
        """Entry a_j, with a_0 = 1 under the unit-head convention."""
        if j == 0:
            if not self.has_unit_head:
                raise ValueError("a_0 requested but has_unit_head is not set")
            return 1.0
        return self.values[j - 1]


def check_submultiplicative(
    seq: PrefixSequence, tol_rel: float = DEFAULT_TOL_REL
) -> list[tuple[int, int]]:
    """Return all pairs (j, l), j <= l, with a_{j+l} > a_j * a_l * (1 + tol_rel).

    An empty result means the prefix is consistent with being the start
    of a submultiplicative sequence.  The relative tolerance absorbs
    representation error in user-supplied floating data; (l, j) mirrors
    are omitted since the product a_j * a_l is symmetric.
    """
    a = seq.values
    n = len(a)
    violations = []
    for j in range(1, n // 2 + 1):
        for l in range(j, n - j + 1):
            if a[j + l - 1] > a[j - 1] * a[l - 1] * (1.0 + tol_rel):
                violations.append((j, l))
    return violations


def _logs(values) -> list[float]:
    """log of each nonnegative entry, -inf for a zero entry."""
    log, neg_inf = math.log, -math.inf
    return [log(v) if v > 0.0 else neg_inf for v in values]


def root_report(seq: PrefixSequence) -> RootReport:
    """Roots a_k^(1/k) with their running minimum, row per k.

    Roots are evaluated as exp(log(a_k)/k) so that large k neither
    overflows nor underflows; a_k = 0 maps to root 0.
    """
    return build_report(_logs(seq.values), value_header="value", values=seq.values)


def limit_bracket(
    seq: PrefixSequence, tol_rel: float = DEFAULT_TOL_REL
) -> tuple[float, float]:
    """Certified upper bound and heuristic estimate for lim a_k^(1/k).

    The upper bound is the minimum root over the prefix, rigorous because
    the limit equals the infimum over *all* indices.  The estimate is the
    last root, a heuristic with no certificate attached.  Raises
    ValueError when the prefix violates submultiplicativity, since the
    bracket is meaningless then.
    """
    violations = check_submultiplicative(seq, tol_rel)
    if violations:
        j, l = violations[0]
        raise ValueError(
            "prefix is not submultiplicative: a_%d > a_%d * a_%d (first of %d violations)"
            % (j + l, j, l, len(violations))
        )
    report = root_report(seq)
    return report.certified_upper, report.root[-1]


_CONVOLVE_BLOCK = 32  # output rows per block: under 2 MB of temporaries at n = 1000


def binomial_convolve(a: PrefixSequence, b: PrefixSequence, n_out: int) -> PrefixSequence:
    """Binomial convolution c_n = sum_j C(n,j) * a_j * b_{n-j} for n = 1..n_out.

    Both inputs must carry the unit head (a_0 = b_0 = 1) and reach length
    n_out.  Terms are combined through log-scale binomial coefficients and
    a max-pivot exponential sum, so c_n stays finite well past the point
    where direct evaluation of C(n,j) overflows.  The sum is math.fsum,
    exactly rounded whatever the term order; terms go to it in descending
    order, where it keeps the fewest partials.  The output carries the
    implied c_0 = 1 as its unit head.
    """
    if n_out < 1:
        raise ValueError("n_out must be >= 1")
    if not (a.has_unit_head and b.has_unit_head):
        raise ValueError("binomial_convolve requires has_unit_head on both inputs")
    if len(a) < n_out or len(b) < n_out:
        raise ValueError(
            "prefixes too short: need %d terms, have %d and %d" % (n_out, len(a), len(b))
        )

    # log a_j, log b_j for j = 0..n_out (head included); -inf marks a zero entry
    log_a = np.array([0.0] + _logs(a.values[:n_out]))
    log_b = np.array([0.0] + _logs(b.values[:n_out]))
    # accumulated log-factorials: lf[n] = log(n!)
    lf = np.array(list(accumulate(map(math.log, range(1, n_out + 1)), initial=0.0)))

    exp, fsum = math.exp, math.fsum
    out = []
    for first in range(1, n_out + 1, _CONVOLVE_BLOCK):
        # term (n, j) of the rows n in this block at column j, for j <= n
        n = np.arange(first, min(first + _CONVOLVE_BLOCK, n_out + 1))[:, None]
        j = np.arange(n[-1, 0] + 1)
        k = n - j
        skip = k < 0
        k[skip] = 0
        la, lb = log_a[j], log_b[k]
        skip |= (la == -math.inf) | (lb == -math.inf)
        # the same left-to-right IEEE adds as lf[n] - lf[j] - lf[n-j] + la + lb
        t = lf[n] - lf[j]
        t -= lf[k]
        with np.errstate(invalid="ignore"):  # -inf + inf at skipped terms
            t += la
            t += lb
        t[skip] = -math.inf
        t = np.sort(t, axis=1)[:, ::-1]  # descending, skipped terms last
        counts = (j.size - np.count_nonzero(skip, axis=1)).tolist()
        pivots = t[:, 0].tolist()
        with np.errstate(invalid="ignore"):  # inf - inf when a term is inf
            t = t - t[:, :1]
        for row, count, pivot in zip(t, counts, pivots):
            # exp(pivot) overflows only when c_n, at least exp(pivot), does
            out.append(or_inf(exp, pivot) * fsum(map(exp, row[:count].tolist())) if count else 0.0)
    return PrefixSequence(tuple(out), has_unit_head=True)


def max_sum_bound(t: list[float]) -> tuple[float, float, bool]:
    """Max, sum, and whether max <= sum <= m * max holds for nonnegative t."""
    if not t:
        raise ValueError("max_sum_bound needs at least one entry")
    for v in t:
        if not v >= 0.0:
            raise ValueError("entries must be nonnegative, got %r" % (v,))
    m = max(t)
    s = or_inf(math.fsum, t)  # fsum raises when a partial sum overflows
    return m, s, m <= s <= len(t) * m


# --- closed-form generator families -------------------------------------
# A value past the float range reads inf.

def poly_sequence(c: float, n: int) -> PrefixSequence:
    """a_j = (j+1)^c; submultiplicative for c >= 0 with limit 1."""
    return PrefixSequence(
        tuple(map(or_inf, repeat(pow), map(float, range(2, n + 2)), repeat(c))),
        has_unit_head=True,
    )


def geometric_sequence(r: float, n: int) -> PrefixSequence:
    """a_j = r^j; roots are constantly r."""
    if r < 0:
        raise ValueError("ratio must be nonnegative")
    return PrefixSequence(
        tuple(map(or_inf, repeat(pow), repeat(float(r)), range(1, n + 1))), has_unit_head=True
    )


def subadd_sequence(c: float, d: float, n: int) -> PrefixSequence:
    """a_j = exp(c*j + d*sqrt(j)) with d >= 0; limit of the roots is e^c.

    Submultiplicative because sqrt is subadditive, which makes this an
    inexhaustible randomized test family with a known limit.
    """
    if d < 0:
        raise ValueError("d must be >= 0 (sqrt term must stay subadditive)")
    exp, sqrt = math.exp, math.sqrt
    return PrefixSequence(
        tuple([or_inf(exp, c * j + d * sqrt(j)) for j in range(1, n + 1)]), has_unit_head=True
    )


# --- CSV interface -------------------------------------------------------

def sequence_to_csv(seq: PrefixSequence) -> str:
    row = "%d," + FMT17
    lines = ["k,value"]
    lines += [row % kv for kv in enumerate(seq.values, start=1)]
    return "\n".join(lines) + "\n"


def read_sequence_csv(text: str) -> PrefixSequence:
    """Parse `k,value` rows (header required, k must run 1..N in order)."""
    return PrefixSequence(tuple(float(v) for _, v in csv_rows(text, "k,value")))
