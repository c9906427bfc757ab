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

from .algebra import DEFAULT_PROBE_DEPTH, Algebra, power_norms
from .errors import BudgetExceeded, Singular
from .reports import FMT17, RootReport, build_report, fmt17

PIVOT_RTOL = 1e-12
# a scan eliminates its cells in stacks of about this many entries, 256 KB,
# and writes its CSV in blocks of this many rows; stacks four times larger
# cost 12% more peak memory in a matrix workload
SCAN_BLOCK_ENTRIES = 2**14
# a spectrum grid holds at most this many cells: scanning that many for a
# 1 x 1 matrix takes 6 s and 370 MB (2 cores, numpy 2.4.6)
MAX_GRID_CELLS = 2**20
# power tables run their first this many rows as power_norms does, bit for
# bit, and each later block of this many rows as one batched product; it must
# stay >= DEFAULT_PROBE_DEPTH, so the spectrum bound and the battery read
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
    """NORMS[kind] of each matrix over the last two axes of a, bit for bit."""
    return np.abs(a).sum(axis=SUM_AXIS[kind]).max(axis=-1)


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


def direct_inverse(a, tol: float = 1e-10, norm_kind: str = "inf") -> np.ndarray:
    """Matrix inverse by partial-pivot elimination, with a residual contract.

    Raises Singular when a pivot falls below 1e-12 * norm(a) (a
    scale-invariant cutoff, finite when the norm overflows; see
    _pivot_floors) or when the computed inverse fails the
    residual bound norm(a @ inv - I) <= tol; ValueError for a tol outside (0, inf).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite, got %r" % tol)
    a = as_matrix(a)
    norm = MatrixAlgebra(a.shape[0], norm_kind).norm
    floors = _pivot_floors(a[None], norm_kind)
    eye = np.eye(a.shape[0], dtype=complex)
    ok, margin, inv = _gauss_inverse(a[None], floors, eye[None])
    min_pivot, inv = margin[0], inv[0]
    if not ok[0]:
        raise Singular(
            "pivot magnitude %.6g below threshold %.6g" % (min_pivot, floors[0])
        )
    residual = norm(a @ inv - eye)
    if not residual <= tol:
        raise Singular(
            "inverse residual %.6g exceeds tol %.6g (min pivot %.6g)"
            % (residual, tol, min_pivot)
        )
    return inv


# --- power tables of matrix stacks ----------------------------------------

def _power_logs(stack: np.ndarray, n: int, axis: int) -> list[list[float] | None]:
    """The log column of norm(x^k), k = 1..n, for each matrix x of a
    (c, d, d) stack, with sums over ``axis`` (SUM_AXIS), or None for a
    matrix whose norm leaves the normal range at some step.

    Rows 1..B, B = POWER_BLOCK, are power_norms' loop bit for bit, all
    matrices at once; ``powers`` keeps their unit-norm directions
    D_k = x^k / norm(x^k).  Block j = 1, 2, ... is one batched product
    D_(Bj) @ powers, whose i-th matrix is x^(Bj+i) / (norm(x^(Bj))
    norm(x^i)); so log norm(x^(Bj+i)) is the sum of those two logs and
    the log of that matrix's norm.  Such a row rests on j + i dependent
    products, not Bj + i: it agrees with power_norms within rounding,
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
    """power_norms(MatrixAlgebra(d, norm_kind), as_matrix(x), n) for each x
    in mats, in order: the one power loop for matrix tables.

    Each x is taken as complex, as MatrixAlgebra holds it (a real x runs
    complex products).  The matrices of each dimension run as one
    (c, d, d) stack through _power_logs, on preallocated buffers.  Rows
    1..POWER_BLOCK are bit-identical to power_norms; later rows come from
    block products, within rounding of power_norms.  Every row of a
    matrix is independent of the other matrices passed.  A matrix with a
    norm of 0, below the normal range (where power_norms rescales), inf
    or nan at some step runs through power_norms itself, with its numpy
    warnings.  as_matrix gives C order, so a transposed view runs as its
    C copy, whose norms both paths sum in one order.
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
    with np.errstate(all="ignore"):
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
    margin is the smallest absolute pivot of an eliminated cell, or the
    certificate slack |lambda| - radius_bound of a cell skipped by the bound.
    """

    cells: np.ndarray
    invertible: np.ndarray
    margin: np.ndarray

    def to_csv(self) -> str:
        """One row per cell, written SCAN_BLOCK_ENTRIES rows at a time."""
        row = "%s,%s,%%s,%s\n" % (FMT17, FMT17, FMT17)
        blocks = ["re,im,invertible,margin\n"]
        for start in range(0, len(self.cells), SCAN_BLOCK_ENTRIES):
            part = slice(start, start + SCAN_BLOCK_ENTRIES)
            lams = self.cells[part]
            flags = np.where(self.invertible[part], "true", "false")
            rows = zip(lams.real.tolist(), lams.imag.tolist(), flags.tolist(),
                       self.margin[part].tolist())
            blocks.append("".join([row % r for r in rows]))
        return "".join(blocks)


def spectrum_scan(a, grid: GridSpec, norm_kind: str = "inf") -> SpectrumGrid:
    """Classify every grid point as resolvent or spectrum candidate.

    Cells with |lambda| above the certified radius bound are marked
    invertible without elimination.  The rest are eliminated in blocks
    of about SCAN_BLOCK_ENTRIES matrix entries, a stack of lambda*I - A
    at a time, without the identity half: a cell is noninvertible when a
    pivot falls below 1e-12 * norm(lambda*I - A), as in direct_inverse.
    Flags and margins are bit-identical to eliminating each cell on its
    own.
    """
    a = as_matrix(a)
    n = a.shape[0]
    upper = stacked_power_norms([a], DEFAULT_PROBE_DEPTH, norm_kind)[0].certified_upper
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
    eye = np.eye(n, dtype=complex)
    block = max(1, SCAN_BLOCK_ENTRIES // (n * n))
    for start in range(0, inside.size, block):
        index = inside[start : start + block]
        stack = cells[index][:, None, None] * eye - a
        invertible[index], margin[index], _ = _gauss_inverse(stack, _pivot_floors(stack, norm_kind))
    return SpectrumGrid(cells, invertible, margin)


# --- I/O -------------------------------------------------------------------

# one complex entry as re+imj: "%+" signs the imaginary part, "+" for nan;
# the writers add 0.0 to it, which turns -0.0 into 0.0 and changes nothing else
_CSV_CELL = FMT17 + FMT17.replace("%", "%+", 1) + "j"


def _rows(template: str, real: np.ndarray, imag: np.ndarray) -> list[str]:
    """Each row as template % (re, im, re, im, ...) over its entries."""
    n = real.shape[0]
    pairs = np.stack((real, imag), axis=-1).reshape(n, 2 * n).tolist()
    return [template % tuple(row) for row in pairs]


def matrix_to_csv(a) -> str:
    """One line per row, each entry written by _CSV_CELL."""
    a = as_matrix(a)
    rows = _rows(",".join([_CSV_CELL] * a.shape[0]), a.real, a.imag + 0.0)
    return "\n".join(rows) + "\n"


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
    """One [re, im] pair per entry, both written by FMT17."""
    a = as_matrix(a)
    cell = "[%s, %s]" % (FMT17, FMT17)
    rows = _rows("  [%s]" % ", ".join([cell] * a.shape[0]), a.real, a.imag)
    return "[\n" + ",\n".join(rows) + "\n]\n"


def read_matrix_json(text: str) -> np.ndarray:
    import json

    data = json.loads(text)
    try:
        rows = [[complex(cell[0], cell[1]) for cell in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValueError("expected a JSON array of rows of [re, im] pairs: %s" % exc) from None
    return _finite_matrix(rows)
