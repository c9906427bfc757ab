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
from functools import lru_cache
from itertools import accumulate, repeat

import numpy as np

from .reports import Floats, RootReport, build_report, csv_rows, or_inf, table_blocks

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
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        v = np.fromiter(values, np.float64, len(values))
        if not v.min(initial=0.0) >= 0.0:  # also rejects NaN, which min returns
            i = int((~(v >= 0.0)).argmax())
            raise BadEntry(i + 1, values[i])

    def __len__(self) -> int:
        return len(self.values)


_PAIR_BLOCK = 1 << 15  # pairs per block: about 1.5 MB of temporaries
_CACHED_N = 40  # prefixes up to this length reuse their pair indices


def _pairs(n: int, j0: int, j1: int):
    """Index arrays j, l, j + l of the pairs j <= l <= n - j with
    j0 <= j < j1, in the order of increasing j, then l."""
    j = np.arange(j0, j1)
    counts = n - 2 * j + 1
    j = np.repeat(j, counts)
    l = np.arange(j.size) - np.repeat(np.cumsum(counts) - counts, counts) + j
    return j, l, j + l


@lru_cache(maxsize=None)
def _cached_pairs(n: int):
    pairs = _pairs(n, 1, n // 2 + 1)
    for index in pairs:
        index.flags.writeable = False  # shared by every later call
    return (pairs,)


def _pair_blocks(n: int):
    """_pairs over every row j, in blocks of at most _PAIR_BLOCK pairs (or
    one row, when a row has more)."""
    if n <= _CACHED_N:
        return _cached_pairs(n)
    rows = max(1, _PAIR_BLOCK // n)
    return (_pairs(n, j0, min(j0 + rows, n // 2 + 1)) for j0 in range(1, n // 2 + 1, rows))


def check_submultiplicative(
    seq: PrefixSequence, tol_rel: float = DEFAULT_TOL_REL
) -> list[tuple[int, int]]:
    """Return all pairs (j, l), j <= l, with a_{j+l} > a_j * a_l * (1 + tol_rel).

    An empty result means the prefix is consistent with being the start
    of a submultiplicative sequence.  The relative tolerance absorbs
    representation error in user-supplied floating data; (l, j) mirrors
    are omitted since the product a_j * a_l is symmetric.  Pairs come in
    the order of increasing j, then l.  The comparisons run in numpy over
    blocks of pairs, the same IEEE products as (a_j * a_l) * (1 + tol_rel)
    in Python, so the extra memory stays bounded as n grows.
    """
    a = np.array((0.0,) + seq.values)  # a[j] is a_j
    factor = 1.0 + tol_rel
    violations = []
    with np.errstate(all="ignore"):  # inf products and inf * 0, silent as in Python
        for j, l, jl in _pair_blocks(len(seq.values)):
            hit = np.flatnonzero(a[jl] > a[j] * a[l] * factor)
            violations += zip(j[hit].tolist(), l[hit].tolist())
    return violations


def _logs(values) -> list[float]:
    """log of each nonnegative entry, -inf for a zero entry."""
    log, neg_inf = math.log, -math.inf
    return [log(v) if v > 0.0 else neg_inf for v in values]


def root_report(seq: PrefixSequence) -> RootReport:
    """Roots a_k^(1/k) with their running minimum, row per k.

    Roots are evaluated as exp(log(a_k)/k) so that large k neither
    overflows nor underflows; a_k = 0 maps to root 0.  Raises ValueError
    for an empty prefix, which certifies no bound.
    """
    if not seq.values:
        raise ValueError("need at least one entry, got an empty prefix")
    return build_report(_logs(seq.values), value_header="value", values=seq.values)


def limit_bracket(
    seq: PrefixSequence, tol_rel: float = DEFAULT_TOL_REL
) -> tuple[float, float]:
    """Certified upper bound and heuristic estimate for lim a_k^(1/k).

    The upper bound is the minimum root over the prefix, rigorous because
    the limit equals the infimum over *all* indices.  The estimate is the
    last root, a heuristic with no certificate attached.  Raises
    ValueError when the prefix is empty or violates submultiplicativity,
    since the bracket is meaningless then.
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
# A value past the float range reads inf; a negative length n is refused.

def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError("prefix length must be >= 0, got %d" % n)


def _mapped(f, *args) -> PrefixSequence:
    """The prefix of f over the zipped sequences args, with unit head.
    float pow and math.exp raise past the float range: only then does each
    entry go through or_inf."""
    try:
        values = tuple(map(f, *args))
    except OverflowError:
        values = tuple(map(or_inf, repeat(f), *args))
    return PrefixSequence(values, has_unit_head=True)


def poly_sequence(c: float, n: int) -> PrefixSequence:
    """a_j = (j+1)^c; submultiplicative for c >= 0 with limit 1."""
    _check_length(n)
    return _mapped(pow, list(map(float, range(2, n + 2))), [c] * n)


def geometric_sequence(r: float, n: int) -> PrefixSequence:
    """a_j = r^j; roots are constantly r."""
    _check_length(n)
    if r < 0:
        raise ValueError("ratio must be nonnegative")
    return _mapped(pow, [float(r)] * n, range(1, n + 1))


def subadd_sequence(c: float, d: float, n: int) -> PrefixSequence:
    """a_j = exp(c*j + d*sqrt(j)) with d >= 0; limit of the roots is e^c.

    Submultiplicative because sqrt is subadditive, which makes this an
    inexhaustible randomized test family with a known limit.
    """
    _check_length(n)
    if d < 0:
        raise ValueError("d must be >= 0 (sqrt term must stay subadditive)")
    sqrt = math.sqrt
    return _mapped(math.exp, [c * j + d * sqrt(j) for j in range(1, n + 1)])


# --- CSV and JSON interface ----------------------------------------------

def sequence_to_csv(seq: PrefixSequence) -> str:
    n = len(seq.values)
    return "k,value\n" + "".join(table_blocks(n, [range(1, n + 1), ",", Floats(seq.values), "\n"]))


def sequence_to_json(seq: PrefixSequence) -> str:
    """The rows of sequence_to_csv as one line of {"k", "value"} objects."""
    n = len(seq.values)
    fields = ['{"k": ', range(1, n + 1), ', "value": ', Floats(seq.values), "}, "]
    return "[" + "".join(table_blocks(n, fields, quote=True))[:-2] + "]\n"


def read_sequence_csv(text: str) -> PrefixSequence:
    """Parse `k,value` rows (header required, k must run 1..N in order)."""
    return PrefixSequence(tuple(float(v) for _, v in csv_rows(text, "k,value")))
