"""Dense complex square matrices as the concrete noncommutative instance.

Only the induced infinity norm (max row sum) and induced 1-norm (max
column sum) are offered: both give the identity norm exactly 1, which the
engine assumes throughout.  The Frobenius norm would not.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import accumulate, compress

import numpy as np

from .algebra import DEFAULT_PROBE_DEPTH, Algebra, power_norms, spectral_radius_upper
from .errors import BudgetExceeded, Singular, Unsupported
from .reports import FMT17, RootReport, build_report, fmt17

PIVOT_RTOL = 1e-12
# a scan eliminates its cells in stacks of about this many entries, 256 KB;
# stacks four times larger cost 12% more peak memory in a matrix workload
SCAN_BLOCK_ENTRIES = 2**14
ORACLE_MAX_DIM = 4
# a spectrum grid holds at most this many cells: scanning that many for a
# 1 x 1 matrix takes 6 s and 370 MB (2 cores, numpy 2.4.6)
MAX_GRID_CELLS = 2**20


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError("expected a square matrix, got shape %r" % (m.shape,))
    return m


def inf_norm(a) -> float:
    """Induced infinity norm: max absolute row sum."""
    return float(np.abs(as_matrix(a)).sum(axis=1).max())


def one_norm(a) -> float:
    """Induced 1-norm: max absolute column sum."""
    return float(np.abs(as_matrix(a)).sum(axis=0).max())


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


def _stack_norms(stack: np.ndarray, norm_kind: str) -> np.ndarray:
    """NORMS[norm_kind](m) for each matrix m of a (c, n, n) stack, bit for bit."""
    # row sums for the inf norm, column sums for the 1-norm, as NORMS
    return np.abs(stack).sum(axis=2 if norm_kind == "inf" else 1).max(axis=1)


def _pivot_floors(stack: np.ndarray, norm_kind: str) -> np.ndarray:
    """PIVOT_RTOL * norm(m) for each matrix m of a (c, n, n) stack.

    Where that norm overflows, the floor is norm(PIVOT_RTOL * m), which
    is finite for finite entries; a finite floor keeps every bit.
    """
    with np.errstate(over="ignore"):
        floors = PIVOT_RTOL * _stack_norms(stack, norm_kind)
    big = np.isinf(floors)
    if big.any():
        floors[big] = _stack_norms(stack[big] * PIVOT_RTOL, norm_kind)
    return floors


def direct_inverse(a, tol: float = 1e-10, norm_kind: str = "inf") -> np.ndarray:
    """Matrix inverse by partial-pivot elimination, with a residual contract.

    Raises Singular when a pivot falls below 1e-12 * norm(a) (a
    scale-invariant cutoff, finite when the norm overflows; see
    _pivot_floors) or when the computed inverse fails the
    residual bound norm(a @ inv - I) <= tol.
    """
    a = as_matrix(a)
    norm = NORMS[norm_kind]
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

def stacked_power_norms(mats, n: int) -> list[RootReport]:
    """power_norms(MatrixAlgebra(d), as_matrix(x), n) for each x in mats, in order.

    Each x is taken as a complex matrix, as MatrixAlgebra holds them: a
    real x runs complex products, which power_norms on the real array
    itself would not.  The matrices of each dimension d run as one
    (c, d, d) stack through the renormalized loop of power_norms: a
    batched product, the inf norm of each matrix, its scale by 1/norm
    and math.log of the norm.  Each entry goes through the operations of
    the one-matrix loop, so every report is bit-identical to power_norms.
    A matrix whose norm at some step is 0, below the normal range (where
    power_norms rescales), inf or nan leaves the stack and runs through
    power_norms itself, which also emits any numpy warning that matrix
    raises there.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mats = [as_matrix(x) for x in mats]
    reports: list[RootReport | None] = [None] * len(mats)
    by_dim: dict[int, list[int]] = {}
    for i, x in enumerate(mats):
        by_dim.setdefault(x.shape[0], []).append(i)
    for index in by_dim.values():
        x = np.stack([mats[i] for i in index])
        direction = x
        steps = []  # steps[k][j]: the log that power_norms adds at step k + 1 for matrix j
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(n):
                if k:
                    direction = direction @ x
                norms = _stack_norms(direction, "inf")
                ok = (norms >= sys.float_info.min) & (norms <= sys.float_info.max)
                if not ok.all():
                    keep = ok.tolist()
                    index = list(compress(index, keep))
                    steps = [list(compress(row, keep)) for row in steps]
                    direction, x, norms = direction[ok], x[ok], norms[ok]
                direction = direction * (1.0 / norms)[:, None, None]
                steps.append(list(map(math.log, norms.tolist())))
        for i, logs in zip(index, zip(*steps)):
            reports[i] = build_report(list(accumulate(logs)), value_header="norm")
    for i, report in enumerate(reports):
        if report is None:
            x = mats[i]
            reports[i] = power_norms(MatrixAlgebra(x.shape[0]), x, n)
    return reports


# --- eigenvalue oracle (independent of the power-norm machinery) ---------

def charpoly(a) -> list[complex]:
    """Coefficients of det(lambda*I - A) in ascending powers, monic."""
    a = as_matrix(a)
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    coeffs: list[complex] = [0j] * (n + 1)
    coeffs[n] = 1.0 + 0j
    m = np.zeros_like(a)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        m = a @ m + c * eye
        c = -np.trace(a @ m) / k
        coeffs[n - k] = c
    return coeffs


def _peval(p: list[complex], z: complex) -> tuple[complex, complex]:
    """Horner evaluation of p and p' at z (ascending coefficients)."""
    val = 0j
    dval = 0j
    for c in reversed(p):
        dval = dval * z + val
        val = val * z + c
    return val, dval


def _polish(p: list[complex], z: complex) -> complex:
    best = z
    best_val = abs(_peval(p, z)[0])
    for _ in range(50):
        val, dval = _peval(p, z)
        if dval == 0:
            break
        z = z - val / dval
        v = abs(_peval(p, z)[0])
        if v < best_val:
            best, best_val = z, v
        else:
            break
    return best


def _poly_roots(p: list[complex]) -> list[complex]:
    # companion-matrix roots are backward stable; Newton polishing on p
    # itself then tightens each root's residual
    return [_polish(p, complex(z)) for z in np.roots(p[::-1])]


def eigen_oracle(a) -> list[complex]:
    """Eigenvalues of a small matrix via its characteristic polynomial.

    Restricted to n <= 4 so the oracle stays independent of the
    power-norm machinery it cross-checks: triangular matrices read their
    diagonal exactly, and any other matrix gets companion-matrix roots
    of its characteristic polynomial (numpy.roots), each polished by
    Newton steps on that polynomial.  Accuracy is about 1e-8 on
    well-conditioned desk-scale inputs; repeated eigenvalues of a full
    matrix sit at the rootfinding conditioning floor (~eps^(1/m)).
    """
    a = as_matrix(a)
    if a.shape[0] > ORACLE_MAX_DIM:
        raise Unsupported("eigen_oracle supports n <= %d only" % ORACLE_MAX_DIM)
    if (a == np.triu(a)).all() or (a == np.tril(a)).all():
        roots = [complex(z) for z in np.diag(a)]
    else:
        roots = _poly_roots(charpoly(a))
    return sorted(roots, key=lambda z: (z.real, z.imag))


def oracle_radius(a) -> float:
    """Spectral radius from the eigenvalue oracle (n <= 4)."""
    return max((abs(z) for z in eigen_oracle(a)), default=0.0)


def spectral_mapping_check(a, n: int, tol: float = 1e-6) -> bool:
    """Each oracle eigenvalue lambda of A has lambda^n among the oracle
    eigenvalues of A^n, within tol * max(1, |lambda|^n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    eig_a = eigen_oracle(a)
    eig_an = eigen_oracle(np.linalg.matrix_power(as_matrix(a), n))
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

    def _points(self, lo: float, count: int) -> list[float]:
        return [lo + i * self.step for i in range(count)]

    def re_points(self) -> list[float]:
        return self._points(self.re_min, self._counts[0])

    def im_points(self) -> list[float]:
        return self._points(self.im_min, self._counts[1])


@dataclass(frozen=True)
class ScanCell:
    """One grid point: invertibility of lambda*I - A and its margin.

    For eliminated cells the margin is the smallest absolute pivot; for
    cells certified invertible from the radius bound without elimination
    it is the certificate slack |lambda| - radius_bound.
    """

    lam: complex
    invertible: bool
    margin: float


@dataclass
class SpectrumGrid:
    spec: GridSpec
    cells: list[ScanCell]

    def noninvertible(self) -> list[complex]:
        return [c.lam for c in self.cells if not c.invertible]

    def to_csv(self) -> str:
        lines = ["re,im,invertible,margin"]
        for c in self.cells:
            lines.append(
                "%s,%s,%s,%s"
                % (
                    fmt17(c.lam.real),
                    fmt17(c.lam.imag),
                    "true" if c.invertible else "false",
                    fmt17(c.margin),
                )
            )
        return "\n".join(lines) + "\n"


def spectrum_scan(a, grid: GridSpec, norm_kind: str = "inf") -> SpectrumGrid:
    """Classify every grid point as resolvent or spectrum candidate.

    Cells with |lambda| above the certified radius bound are marked
    invertible without elimination.  The rest are eliminated in blocks
    of about SCAN_BLOCK_ENTRIES matrix entries, a stack of lambda*I - A
    at a time, without the identity half: a cell is noninvertible when a
    pivot falls below 1e-12 * norm(lambda*I - A), as in direct_inverse.
    Flags and margins are bit-identical to eliminating each cell on its
    own.  Cells are emitted row-major: re ascending outer, im ascending
    inner.
    """
    a = as_matrix(a)
    n = a.shape[0]
    upper = spectral_radius_upper(MatrixAlgebra(n, norm_kind), a, DEFAULT_PROBE_DEPTH)
    # the bound is computed through exp/log and may sit an ulp below
    # the true radius: inflate before using it to skip elimination
    upper *= 1.0 + 1e-12
    lams = [complex(re, im) for re in grid.re_points() for im in grid.im_points()]
    inside = [lam for lam in lams if not abs(lam) > upper]
    eye = np.eye(n, dtype=complex)
    block = max(1, SCAN_BLOCK_ENTRIES // (n * n))
    eliminated = []
    for start in range(0, len(inside), block):
        stack = np.array(inside[start : start + block])[:, None, None] * eye - a
        ok, margin, _ = _gauss_inverse(stack, _pivot_floors(stack, norm_kind))
        eliminated += zip(ok.tolist(), margin.tolist())
    results = iter(eliminated)
    cells = []
    for lam in lams:
        if abs(lam) > upper:
            cells.append(ScanCell(lam, True, abs(lam) - upper))
        else:
            cells.append(ScanCell(lam, *next(results)))
    return SpectrumGrid(grid, cells)


# --- I/O -------------------------------------------------------------------

def format_complex(z: complex) -> str:
    re, im = complex(z).real, complex(z).imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return "%s%s%sj" % (fmt17(re), sign, fmt17(abs(im)))


def _rows(template: str, real: np.ndarray, imag: np.ndarray) -> list[str]:
    """Each row as template % (re, im, re, im, ...) over its entries."""
    n = real.shape[0]
    pairs = np.stack((real, imag), axis=-1).reshape(n, 2 * n).tolist()
    return [template % tuple(row) for row in pairs]


def matrix_to_csv(a) -> str:
    """One line per row, each entry written as format_complex writes it."""
    a = as_matrix(a)
    # "%+" signs the imaginary part as format_complex does, "+" for nan;
    # adding 0.0 turns -0.0 into 0.0 and changes no other entry
    cell = FMT17 + FMT17.replace("%", "%+", 1) + "j"
    rows = _rows(",".join([cell] * a.shape[0]), a.real, a.imag + 0.0)
    return "\n".join(rows) + "\n"


def _finite_matrix(rows) -> np.ndarray:
    """as_matrix(rows) for file input, refusing a non-finite entry."""
    m = as_matrix(rows)
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0].tolist()
        z = complex(m[i, j])
        text = fmt17(z.real) if z.imag == 0 else format_complex(z)
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
