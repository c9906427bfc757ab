"""Dense complex square matrices as the concrete noncommutative instance.

Only the induced infinity norm (max row sum) and induced 1-norm (max
column sum) are offered: both give the identity norm exactly 1, which the
engine assumes throughout.  The Frobenius norm would not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DEFAULT_PROBE_DEPTH, Algebra, spectral_radius_upper
from .errors import Singular, Unsupported
from .reports import fmt17

PIVOT_RTOL = 1e-12
ORACLE_MAX_DIM = 4


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


def _gauss_inverse(a: np.ndarray, pivot_floor: float):
    """Gaussian elimination with partial pivoting on [a | I].

    Returns (inverse, min_abs_pivot); the inverse is None when the best
    available pivot falls below ``pivot_floor`` (or is exactly zero), in
    which case min_abs_pivot is that failing pivot's magnitude.
    """
    n = a.shape[0]
    aug = np.hstack([a.astype(complex, copy=True), np.eye(n, dtype=complex)])
    min_pivot = math.inf
    for col in range(n):
        rows = np.abs(aug[col:, col])
        best = col + int(np.argmax(rows))
        pivot_mag = float(abs(aug[best, col]))
        if pivot_mag < pivot_floor or pivot_mag == 0.0:
            return None, pivot_mag
        min_pivot = min(min_pivot, pivot_mag)
        if best != col:
            aug[[col, best]] = aug[[best, col]]
        aug[col] = aug[col] / aug[col, col]
        for r in range(n):
            if r != col and aug[r, col] != 0:
                aug[r] = aug[r] - aug[r, col] * aug[col]
    return aug[:, n:], min_pivot


def direct_inverse(a, tol: float = 1e-10, norm_kind: str = "inf") -> np.ndarray:
    """Matrix inverse by partial-pivot elimination, with a residual contract.

    Raises Singular when a pivot falls below 1e-12 * norm(a) (a
    scale-invariant cutoff) or when the computed inverse fails the
    residual bound norm(a @ inv - I) <= tol.
    """
    a = as_matrix(a)
    norm = NORMS[norm_kind]
    floor = PIVOT_RTOL * norm(a)
    inv, min_pivot = _gauss_inverse(a, floor)
    if inv is None:
        raise Singular(
            "pivot magnitude %.6g below threshold %.6g" % (min_pivot, floor)
        )
    residual = norm(a @ inv - np.eye(a.shape[0]))
    if residual > tol:
        raise Singular(
            "inverse residual %.6g exceeds tol %.6g (min pivot %.6g)"
            % (residual, tol, min_pivot)
        )
    return inv


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
    """Rectangular lambda grid: [re_min, re_max] x [im_min, im_max], spacing step."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    step: float

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.re_max < self.re_min or self.im_max < self.im_min:
            raise ValueError("empty grid range")

    def _points(self, lo: float, hi: float) -> list[float]:
        count = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        return [lo + i * self.step for i in range(count)]

    def re_points(self) -> list[float]:
        return self._points(self.re_min, self.re_max)

    def im_points(self) -> list[float]:
        return self._points(self.im_min, self.im_max)


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
    invertible without elimination; the rest get a partial-pivot
    elimination of lambda*I - A, declaring noninvertibility when a pivot
    falls below 1e-12 * norm(lambda*I - A).  Cells are emitted row-major:
    re ascending outer, im ascending inner.
    """
    a = as_matrix(a)
    n = a.shape[0]
    norm = NORMS[norm_kind]
    upper = spectral_radius_upper(MatrixAlgebra(n, norm_kind), a, DEFAULT_PROBE_DEPTH)
    # the bound is computed through exp/log and may sit an ulp below
    # the true radius: inflate before using it to skip elimination
    upper *= 1.0 + 1e-12
    eye = np.eye(n, dtype=complex)
    cells = []
    for re in grid.re_points():
        for im in grid.im_points():
            lam = complex(re, im)
            if abs(lam) > upper:
                cells.append(ScanCell(lam, True, abs(lam) - upper))
                continue
            shifted = lam * eye - a
            inv, pivot = _gauss_inverse(shifted, PIVOT_RTOL * norm(shifted))
            cells.append(ScanCell(lam, inv is not None, pivot))
    return SpectrumGrid(grid, cells)


# --- I/O -------------------------------------------------------------------

def format_complex(z: complex) -> str:
    re, im = complex(z).real, complex(z).imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return "%s%s%sj" % (fmt17(re), sign, fmt17(abs(im)))


def matrix_to_csv(a) -> str:
    a = as_matrix(a)
    lines = [",".join(format_complex(z) for z in row) for row in a]
    return "\n".join(lines) + "\n"


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
    a = as_matrix(a)
    row_texts = []
    for row in a:
        cells = ", ".join("[%s, %s]" % (fmt17(z.real), fmt17(z.imag)) for z in row)
        row_texts.append("  [%s]" % cells)
    return "[\n" + ",\n".join(row_texts) + "\n]\n"


def read_matrix_json(text: str) -> np.ndarray:
    import json

    data = json.loads(text)
    try:
        rows = [[complex(cell[0], cell[1]) for cell in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise ValueError("expected a JSON array of rows of [re, im] pairs: %s" % exc) from None
    return _finite_matrix(rows)
