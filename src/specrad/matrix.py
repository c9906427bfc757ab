"""Dense complex square matrices as the concrete noncommutative instance.

Only the induced infinity norm (max row sum) and induced 1-norm (max
column sum) are offered: both give the identity norm exactly 1, which the
engine assumes throughout.  The Frobenius norm would not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .algebra import DEFAULT_PROBE_DEPTH, Algebra, power_norms, spectral_radius_upper
from .errors import BudgetExceeded, Singular
from .reports import (FMT17, UNIT_ROUNDOFF, Choice, Floats, RootReport, build_report, fmt17,
                      gamma_k, round_up, table_blocks)

PIVOT_RTOL = 1e-12
# a scan eliminates its cells in stacks of about this many entries, 256 KB,
# and tests them against its eigenvalue disks this many distances at a time;
# stacks four times larger cost 12% more peak memory in a matrix workload
SCAN_BLOCK_ENTRIES = 2**14
# a spectrum grid holds at most this many cells: scanning that many for a
# 1 x 1 matrix takes 6 s and 370 MB (2 cores, numpy 2.4.6)
MAX_GRID_CELLS = 2**20
# power tables run their first this many rows as power_norms' generic chain, bit
# for bit, and each later block of this many rows as one batched product; it
# must stay >= DEFAULT_PROBE_DEPTH, so the spectrum bound and the battery read
# first-block rows only, and >= 64, so the README's `power --n 64` keeps its digests
POWER_BLOCK = 64


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex, order="C")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("expected a square matrix, got shape %r" % (m.shape,))
    return m


# the axis each norm sums over: rows for inf, columns for one; negative, so
# one formula serves a matrix, a (c, d, d) stack and an (r, c, d, d) block
SUM_AXIS = {"inf": -1, "one": -2}


def _norms(a: np.ndarray, kind: str) -> np.ndarray:
    """NORMS[kind] of each matrix over the last two axes of a, bit for bit;
    the ufunc reductions themselves, without ndarray.sum's and .max's wrappers."""
    return np.maximum.reduce(np.add.reduce(np.absolute(a), SUM_AXIS[kind]), -1)


def inf_norm(a) -> float:
    """Induced infinity norm: max absolute row sum."""
    return float(_norms(as_matrix(a), "inf"))


def one_norm(a) -> float:
    """Induced 1-norm: max absolute column sum."""
    return float(_norms(as_matrix(a), "one"))


NORMS = {"inf": inf_norm, "one": one_norm}


class MatrixAlgebra(Algebra):
    """n x n complex matrices under a chosen induced norm."""

    def __init__(self, n: int, norm_kind: str = "inf"):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if norm_kind not in NORMS:
            raise ValueError("norm_kind must be one of %s" % sorted(NORMS))
        self.n = n
        self.norm_kind = norm_kind
        self._norm = NORMS[norm_kind]

    @property
    def one(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)

    @property
    def zero(self) -> np.ndarray:
        return np.zeros((self.n, self.n), dtype=complex)

    def add(self, x, y):
        return x + y

    def scale(self, alpha, x):
        return alpha * x

    def mul(self, x, y):
        return x @ y

    def norm(self, x) -> float:
        return self._norm(x)

    def is_zero(self, x) -> bool:
        return bool((np.asarray(x) == 0).all())

    def power_logs(self, x, n: int):
        return _power_logs(as_matrix(x)[None], n, SUM_AXIS[self.norm_kind])[0]

    def direct_inverse(self, x, tol: float = 1e-10):
        return direct_inverse(x, tol, norm_kind=self.norm_kind)


def _gauss_inverse(stack: np.ndarray, floors: np.ndarray, rhs: np.ndarray | None = None):
    """Partial-pivot elimination of a stack of matrices, all at once.

    ``stack`` is (c, n, n) and ``floors`` holds one pivot floor per
    matrix.  A matrix fails at the first pivot whose magnitude is below
    its floor or exactly zero; its margin is that magnitude.  Otherwise
    the margin is its smallest pivot magnitude.  Returns (ok, margin,
    solution), with per-matrix arrays ok and margin.

    Without ``rhs`` only the rows below each pivot are updated, since
    neither the rows above nor a right-hand block change a pivot, and
    solution is None.  With a (c, n, m) ``rhs`` this is Gauss-Jordan
    on [stack | rhs], and solution is stack^-1 rhs for the cells that
    are ok.  Either way each entry goes through the same operations as
    in a one-matrix row loop, so the pivots are bit-identical to it.
    """
    c, n, _ = stack.shape
    full = rhs is not None
    work = np.concatenate((stack, rhs), axis=2) if full else stack.copy()
    cells = np.arange(c)
    ok = np.ones(c, dtype=bool)
    margin = np.full(c, math.inf)
    # cells that have failed are still eliminated, through inf and nan
    with np.errstate(all="ignore"):
        for col in range(n):
            best = col + np.abs(work[:, col:, col]).argmax(axis=1)
            prow = work[cells, best]
            p = prow[:, col, None]
            # np.hypot rounds as the scalar abs() does; np.abs of an array may not
            mag = np.hypot(p.real, p.imag)[:, 0]
            # fmin skips a nan pivot, as min() does; a failing pivot is below
            # every earlier one, so it becomes the margin and is then frozen
            np.fmin(margin, mag, out=margin, where=ok)
            ok &= ~((mag < floors) | (mag == 0.0))
            work[cells, best] = work[:, col]
            work[:, col] = prow = prow / p
            if full:
                rows = work
                f = work[:, :, col, None].copy()
                f[:, col] = 0  # the pivot row itself
            else:
                rows = work[:, col + 1 :, col + 1 :]
                f = work[:, col + 1 :, col, None]
                prow = prow[:, col + 1 :]
            # a row with an exact zero in the pivot column is left as it is
            np.subtract(rows, f * prow[:, None, :], out=rows, where=f != 0)
    return ok, margin, work[:, :, n:] if full else None


def _pivot_floors(stack: np.ndarray, norm_kind: str) -> np.ndarray:
    """PIVOT_RTOL * norm(m) for each matrix m of a (c, n, n) stack.

    Where that norm overflows, the floor is norm(PIVOT_RTOL * m), which
    is finite for finite entries; a finite floor keeps every bit.
    """
    with np.errstate(over="ignore"):
        floors = PIVOT_RTOL * _norms(stack, norm_kind)
    big = np.isinf(floors)
    if big.any():
        floors[big] = _norms(stack[big] * PIVOT_RTOL, norm_kind)
    return floors


# --- certified eigenvalue disks ------------------------------------------------

# a computed distance times this, rounded, is below the exact distance:
# the two part differences and hypot err by at most (1 + u)(1 + 2u)
DISTANCE_DOWN = 1.0 - 8 * UNIT_ROUNDOFF


def _eigen_disks(a: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Disks that hold every eigenvalue of the d x d matrix a: their centres
    w and one radius r, with every eigenvalue of a within r of some w_i; or
    None where no such r is proved.

    LAPACK's eig gives (w, V), a guess that is not trusted.  With R = inv(V),
    E = A V - V diag(w) and F = I - R V, in the infinity norm: if ||F|| < 1,
    then R V is invertible, so V is, with ||V^-1|| <= ||R|| / (1 - ||F||).
    As V^-1 A V = diag(w) + V^-1 E, by Bauer-Fike every eigenvalue of A
    lies within ||V^-1 E|| <= r = ||R|| ||E|| / (1 - ||F||) of some w_i.
    A bad guess only gives a large r, or ||F|| >= 1.

    Rounding, in the standard model of reports (u, gamma_k, round_up): each
    entry of E and F is a sum of d + 1 products (I's entry counting as
    one), so it errs by at most sqrt(2) gamma_(d+2) times the sum of the
    moduli of its products; summed over a row, by sqrt(2) gamma_(d+2)
    ||V|| (||A|| + max|w|) for E and sqrt(2) gamma_(d+2) (||R|| ||V|| + 1)
    for F.  A computed norm sums d moduli, each within an ulp (2u), in
    d - 1 sums, so the exact norm is at most 1 + gamma_(d+1) times it.
    Products and moduli that underflow err by at most 2^-1074 each,
    (d + 1)^2 2^-1072 over a row, which is added to every norm.  Each
    scalar step is rounded up with round_up, 1 - ||F|| down.  None on a
    LinAlgError, a non-finite entry or a non-finite r.
    """
    d = a.shape[0]
    try:
        w, v = np.linalg.eig(a)
        r = np.linalg.inv(v)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        e = a @ v - v * w
        f = np.eye(d) - r @ v
        rows = [np.hypot(x.real, x.imag).sum(axis=-1).max() for x in (a, v, r, e, f)]
        w_max = float(np.hypot(w.real, w.imag).max())
    grow, tiny = round_up(1.0 + gamma_k(d + 1)), round_up((d + 1) ** 2 * 2.0**-1072)
    na, nv, nr, ne, nf = (round_up(round_up(float(x) * grow) + tiny) for x in rows)
    g = round_up(round_up(math.sqrt(2.0)) * gamma_k(d + 2))
    e_err = round_up(g * round_up(nv * round_up(na + round_up(w_max * grow))))
    f_err = round_up(g * round_up(round_up(nr * nv) + 1.0))
    ne, nf = round_up(ne + round_up(e_err + tiny)), round_up(nf + round_up(f_err + tiny))
    if not nf < 1.0:  # also a nan
        return None
    radius = round_up(round_up(nr * ne) / math.nextafter(1.0 - nf, 0.0))
    return (w, radius) if math.isfinite(radius) else None


def direct_inverse(a, tol: float = 1e-10, norm_kind: str = "inf") -> np.ndarray:
    """Matrix inverse by partial-pivot elimination, with a residual contract,
    of one matrix or of each matrix of a (c, n, n) stack, all at once: a
    matrix is a stack of one, and each member's inverse and message are
    bit-identical to its own call's.

    Raises Singular when a pivot falls below 1e-12 * norm(a) (a
    scale-invariant cutoff, finite when the norm overflows; see
    _pivot_floors) or when the computed inverse fails the
    residual bound norm(a @ inv - I) <= tol, with the message of the first
    member to fail: a pivot before any residual.  ValueError for a tol
    outside (0, inf), for a shape that is neither a square matrix nor
    such a stack and for an unknown norm_kind.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % tol)
    a = np.asarray(a, dtype=complex, order="C")
    if a.ndim != 3:
        stack = as_matrix(a)[None]
    elif a.shape[0] and a.shape[1] == a.shape[2] >= 1:
        stack = a
    else:
        raise ValueError("expected a (c, n, n) stack of square matrices, got shape %r"
                         % (a.shape,))
    if norm_kind not in NORMS:
        raise ValueError("norm_kind must be one of %s" % sorted(NORMS))
    floors = _pivot_floors(stack, norm_kind)
    eye = np.eye(stack.shape[1], dtype=complex)
    ok, margin, inv = _gauss_inverse(stack, floors, eye[None].repeat(len(stack), 0))
    if not all(ok):
        i = ok.argmin()  # the first member that failed
        raise Singular("pivot magnitude %.6g below threshold %.6g" % (margin[i], floors[i]))
    residual = _norms(stack @ inv - eye, norm_kind)
    within = residual <= tol  # False for a nan
    if not all(within):
        i = within.argmin()
        raise Singular(
            "inverse residual %.6g exceeds tol %.6g (min pivot %.6g)"
            % (residual[i], tol, margin[i])
        )
    return inv if a.ndim == 3 else inv[0]


# --- power tables of matrix stacks ----------------------------------------

@np.errstate(all="ignore")
def _power_logs(stack: np.ndarray, n: int, axis: int) -> list[list[float] | None]:
    """The log column of norm(x^k), k = 1..n, for each matrix x of a
    (c, d, d) stack, with sums over ``axis`` (SUM_AXIS), or None, with no
    numpy warning, for a matrix whose norm leaves the normal range.

    Rows 1..B, B = POWER_BLOCK, are power_norms' generic chain bit for
    bit, all matrices at once; ``powers`` keeps their unit-norm directions
    D_k = x^k / norm(x^k).  Block j = 1, 2, ... is one batched product
    D_(Bj) @ powers, whose i-th matrix is x^(Bj+i) / (norm(x^(Bj))
    norm(x^i)); so log norm(x^(Bj+i)) is the sum of those two logs and
    the log of that matrix's norm.  Such a row rests on j + i dependent
    products, not Bj + i: it agrees with the chain within rounding,
    and measured closer to 50-digit powers.  Each matrix of a batched
    product is its own product, so no column depends on the other
    matrices.  The loop stops after a block that leaves no matrix in range.
    """
    block = min(n, POWER_BLOCK)
    powers = np.empty((block,) + stack.shape, stack.dtype)
    mags, sums = np.empty(powers.shape), np.empty(powers.shape[:-1])
    norms, recip = np.empty(powers.shape[:2]), np.empty((len(stack), 1, 1))
    absolute, add, divide, matmul = np.absolute, np.add.reduce, np.divide, np.matmul
    maximum, multiply = np.maximum.reduce, np.multiply
    lo, hi = sys.float_info.min, sys.float_info.max
    mag, row, inv = mags[0], sums[0], recip[:, 0, 0]
    powers[0] = stack
    for k, (w, nw) in enumerate(zip(powers, norms)):
        if k:
            matmul(prev, stack, out=w)
        absolute(w, out=mag)
        add(mag, axis, out=row)
        maximum(row, -1, out=nw)
        divide(1.0, nw, out=inv)
        prev = multiply(recip, w, out=w)  # the scalar first, as MatrixAlgebra.scale
    ok = ((norms >= lo) & (norms <= hi)).all(axis=0)  # a nan fails both
    logs = [list(accumulate(map(math.log, col))) if good else None
            for good, col in zip(ok.tolist(), norms.T.tolist())]
    if n == block or not ok.any():
        return logs
    first = [None if col is None else col[:] for col in logs]
    head, lead, products = powers[-1], np.empty_like(stack), np.empty_like(powers)
    for start in range(block, n, block):
        r = min(block, n - start)
        w = matmul(head, powers[:r], out=products[:r])
        absolute(w, out=mags[:r])
        add(mags[:r], axis, out=sums[:r])
        nws = maximum(sums[:r], -1, out=norms[:r])
        ok &= ((nws >= lo) & (nws <= hi)).all(axis=0)
        for i, (good, col) in enumerate(zip(ok.tolist(), nws.T.tolist())):
            if good:
                base = logs[i][-1]
                logs[i] += [base + li + lw for li, lw in zip(first[i], map(math.log, col))]
            else:
                logs[i] = None
        if not ok.any():
            break
        divide(1.0, nws[-1], out=inv)
        head = multiply(recip, w[-1], out=lead)  # D_(B(j+1)) for the next block
    return logs


def stacked_power_norms(mats, n: int, norm_kind: str = "inf") -> list[RootReport]:
    """power_norms(MatrixAlgebra(d, norm_kind), x, n) for each x in mats, in
    order: the matrices of each dimension run as one (c, d, d) stack through
    _power_logs, and no row depends on the other matrices.  A matrix whose
    norm is 0, subnormal, inf or nan at some step runs through power_norms
    alone, with its numpy warnings.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if norm_kind not in NORMS:
        raise ValueError("norm_kind must be one of %s" % sorted(NORMS))
    mats = [as_matrix(x) for x in mats]
    by_dim: dict[int, list[int]] = {}
    for i, x in enumerate(mats):
        by_dim.setdefault(x.shape[0], []).append(i)
    logs: dict[int, list[float] | None] = {}
    for index in by_dim.values():
        stack = np.stack([mats[i] for i in index])
        logs.update(zip(index, _power_logs(stack, n, SUM_AXIS[norm_kind])))
    return [power_norms(MatrixAlgebra(x.shape[0], norm_kind), x, n) if logs.get(i) is None
            else build_report(logs[i], value_header="norm") for i, x in enumerate(mats)]


# --- eigenvalue oracle (independent of the power-norm machinery) ---------

def eigen_oracle(a) -> list[complex]:
    """Eigenvalues of a square matrix, sorted by (re, im).

    Shares no code with the power-norm machinery it cross-checks:
    triangular matrices read their diagonal exactly, and any other matrix
    gets LAPACK's eigensolver (numpy.linalg.eigvals), backward stable at
    any scale: each value is off by about eps * norm * its condition.
    A non-finite entry is refused with a ValueError that names it.
    """
    a = _finite_matrix(a)
    if (a == np.triu(a)).all() or (a == np.tril(a)).all():
        values = np.diag(a)
    else:
        values = np.linalg.eigvals(a)
    return sorted(values.tolist(), key=lambda z: (z.real, z.imag))


def oracle_radius(a) -> float:
    """Spectral radius from the eigenvalue oracle."""
    return max((abs(z) for z in eigen_oracle(a)), default=0.0)


def spectral_mapping_check(a, n: int, tol: float = 1e-6) -> bool:
    """Each oracle eigenvalue lambda of A has lambda^n among the oracle
    eigenvalues of A^n, within tol * max(1, |lambda|^n).  An A^n past the
    float range is refused with a ValueError."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    eig_a = eigen_oracle(a)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.linalg.matrix_power(as_matrix(a), n)
    if not np.isfinite(power).all():
        raise ValueError("A^%d has an entry past the float range" % n)
    eig_an = eigen_oracle(power)
    for lam in eig_a:
        target = lam**n
        allowance = tol * max(1.0, abs(target))
        if not any(abs(target - mu) <= allowance for mu in eig_an):
            return False
    return True


# --- spectrum grid scan ---------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Rectangular lambda grid: [re_min, re_max] x [im_min, im_max], spacing step.

    The point counts are fixed on construction, which raises BudgetExceeded
    for a grid of more than MAX_GRID_CELLS points, before any is laid out.
    Point i of an axis is lo + i * step.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    step: float
    _counts: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max", "step"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError("%s must be finite, got %r" % (name, value))
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ValueError("empty grid range")
        counts = []
        for lo, hi in ((self.re_min, self.re_max), (self.im_min, self.im_max)):
            steps = (hi - lo) / self.step + 1e-9  # inf when the span or ratio overflows
            if steps == math.inf:
                raise BudgetExceeded("grid axis [%r, %r] at step %r has more points "
                                     "than a float can count" % (lo, hi, self.step))
            counts.append(int(math.floor(steps)) + 1)
        if counts[0] * counts[1] > MAX_GRID_CELLS:
            raise BudgetExceeded("grid of %.6g x %.6g points exceeds MAX_GRID_CELLS=%d"
                                 % (counts[0], counts[1], MAX_GRID_CELLS))
        object.__setattr__(self, "_counts", tuple(counts))

    def re_points(self) -> np.ndarray:
        return self.re_min + np.arange(self._counts[0]) * self.step

    def im_points(self) -> np.ndarray:
        return self.im_min + np.arange(self._counts[1]) * self.step


@dataclass
class SpectrumGrid:
    """A scan as row-major columns (re ascending outer, im ascending inner):
    each lambda, whether lambda*I - A is invertible, and its margin.  The
    margin is the smallest absolute pivot of an eliminated cell, the
    certificate slack |lambda| - radius_bound of a cell skipped by the bound,
    or the distance to the nearest eigenvalue disk of a cell skipped by the
    disks: the distance to the nearest centre, rounded down, minus r.
    """

    cells: np.ndarray
    invertible: np.ndarray
    margin: np.ndarray

    def csv_blocks(self):
        """Yield the CSV: its header, then the blocks of table_blocks, one row per cell."""
        yield "re,im,invertible,margin\n"
        yield from table_blocks(len(self.cells), [
            Floats(self.cells.real), ",", Floats(self.cells.imag), ",",
            Choice(("false", "true"), self.invertible), ",", Floats(self.margin), "\n"])

    def to_csv(self) -> str:
        """The whole CSV as one string."""
        return "".join(self.csv_blocks())


def spectrum_scan(a, grid: GridSpec, norm_kind: str = "inf") -> SpectrumGrid:
    """Classify every grid point as resolvent or spectrum candidate.

    Cells with |lambda| above the certified radius bound are marked
    invertible without elimination, and so are the cells outside every
    disk of _eigen_disks, where it proves some: their distance to each
    centre, rounded down (DISTANCE_DOWN), exceeds the disk radius r.  The rest are
    eliminated in blocks of about SCAN_BLOCK_ENTRIES matrix entries, a
    stack of lambda*I - A at a time, without the identity half: a cell is
    noninvertible when a pivot falls below 1e-12 * norm(lambda*I - A), as
    in direct_inverse.  Their flags and margins are bit-identical to
    eliminating each cell on its own.
    """
    a = as_matrix(a)
    n = a.shape[0]
    upper = spectral_radius_upper(MatrixAlgebra(n, norm_kind), a, DEFAULT_PROBE_DEPTH)
    # the bound is computed through exp/log and may sit an ulp below
    # the true radius: inflate before using it to skip elimination
    upper *= 1.0 + 1e-12
    re, im = grid.re_points(), grid.im_points()
    # part by part, so each cell is complex(re, im) with no arithmetic
    cells = np.empty((re.size, im.size), dtype=complex)
    cells.real, cells.imag = re[:, None], im
    cells = cells.ravel()
    # np.hypot rounds as abs(complex) does; np.abs of an array may not.  A
    # modulus past the float range reads inf, above every bound
    with np.errstate(over="ignore"):
        radius = np.hypot(cells.real, cells.imag)
    invertible = radius > upper
    margin = radius - upper
    inside = np.flatnonzero(~invertible)
    disks = _eigen_disks(a) if inside.size else None
    if disks is not None:
        centres, r = disks
        block, near = max(1, SCAN_BLOCK_ENTRIES // n), []
        for start in range(0, inside.size, block):
            index = inside[start : start + block]
            lams = cells[index, None]
            with np.errstate(over="ignore"):
                gap = np.hypot(lams.real - centres.real, lams.imag - centres.imag)
            gap = gap.min(axis=1) * DISTANCE_DOWN
            far = gap > r
            invertible[index[far]], margin[index[far]] = True, gap[far] - r
            near.append(index[~far])
        inside = np.concatenate(near) if near else inside
    eye = np.eye(n, dtype=complex)
    block = max(1, SCAN_BLOCK_ENTRIES // (n * n))
    for start in range(0, inside.size, block):
        index = inside[start : start + block]
        stack = cells[index][:, None, None] * eye - a
        invertible[index], margin[index], _ = _gauss_inverse(stack, _pivot_floors(stack, norm_kind))
    return SpectrumGrid(cells, invertible, margin)


# --- I/O -------------------------------------------------------------------

# one complex entry as re+imj, as matrix_to_csv writes it, for _finite_matrix's
# message: "%+" signs the imaginary part, "+" for nan; adding 0.0 to it turns
# -0.0 into 0.0 and changes nothing else
_CSV_CELL = FMT17 + FMT17.replace("%", "%+", 1) + "j"


def matrix_to_csv(a) -> str:
    """One line per row, each entry written as _CSV_CELL writes it."""
    a = as_matrix(a)
    n, z = a.shape[0], a.ravel()
    last = ([False] * (n - 1) + [True]) * n
    fields = [Floats(z.real), Floats(z.imag + 0.0, plus=True), "j", Choice((",", "\n"), last)]
    return "".join(table_blocks(z.size, fields))


def _finite_matrix(rows) -> np.ndarray:
    """as_matrix(rows), refusing a non-finite entry."""
    m = as_matrix(rows)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0].tolist()
        z = complex(m[i, j])
        text = fmt17(z.real) if z.imag == 0 else _CSV_CELL % (z.real, z.imag + 0.0)
        raise ValueError("matrix entry (%d, %d) is not finite: %s" % (i + 1, j + 1, text))
    return m


def read_matrix_csv(text: str) -> np.ndarray:
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        rows.append([complex(tok.strip().replace(" ", "")) for tok in ln.split(",")])
    if not rows:
        raise ValueError("empty matrix input")
    return _finite_matrix(rows)


def read_matrix(text: str) -> np.ndarray:
    """A matrix file: JSON when its first non-blank character is "[", CSV otherwise."""
    return read_matrix_json(text) if text.lstrip().startswith("[") else read_matrix_csv(text)


def matrix_to_json(a) -> str:
    """One [re, im] pair per entry, both written by FMT17; inf and nan are
    quoted, as json17 writes them."""
    a = as_matrix(a)
    n, z = a.shape[0], a.ravel()
    # each entry ends with the opening of the next; the last one's is trimmed
    last = ([False] * (n - 1) + [True]) * n
    fields = [Floats(z.real), ", ", Floats(z.imag), Choice(("], [", "]],\n  [["), last)]
    return "[\n  [[" + "".join(table_blocks(z.size, fields, quote=True))[:-6] + "\n]\n"


def read_matrix_json(text: str) -> np.ndarray:
    """Rows of [re, im] cells, each exactly two JSON numbers.  A cell must
    unpack into two values, and complex() refuses every JSON value but a
    number or a boolean; with no string left in the text, a "true" or
    "false" in it can only be a boolean."""
    import json

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON matrix input nested too deeply") from None
    try:
        rows = [[complex(re, im) for re, im in row] for row in data]
        if "true" in text or "false" in text:
            raise TypeError("true and false are not numbers")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError("expected a JSON array of rows of [re, im] pairs: %s" % exc) from None
    return _finite_matrix(rows)
