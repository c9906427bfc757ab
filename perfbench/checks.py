"""Independent output checks for every op the benchmark sends.

Each checker reads the text a subcommand printed and tests it against a
reference computed here with numpy and math only; nothing in this file
imports specrad, so a defect in the library cannot hide itself in its own
check.  A checker returns None when the output is right and a one-line
problem description otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Slack for the reference computations themselves: numpy's eigenvalues and
# circle samples carry their own rounding, of order n * eps relative to the
# operand norm.  The certified bounds on these inputs sit far above it.
REF_RTOL = 1e-12
EPS = 2.0**-52


def parse_table(text: str, fmt: str, value_key: str) -> list[tuple[int, float, float, float]]:
    """Rows (k, value, root, running_min) of a CSV or JSON convergence table."""
    if fmt == "json":
        return [
            (int(r["k"]), float(r[value_key]), float(r["root"]), float(r["running_min"]))
            for r in json.loads(text)
        ]
    lines = text.splitlines()
    if lines[0] != "k,%s,root,running_min" % value_key:
        raise ValueError("bad header %r" % lines[0])
    rows = []
    for line in lines[1:]:
        k, value, root, running = line.split(",")
        rows.append((int(k), float(value), float(root), float(running)))
    return rows


def parse_sequence(text: str, fmt: str) -> list[float]:
    """Values of a `k,value` sequence, checking that k runs 1..N."""
    if fmt == "json":
        pairs = [(int(r["k"]), float(r["value"])) for r in json.loads(text)]
    else:
        lines = text.splitlines()
        if lines[0] != "k,value":
            raise ValueError("bad header %r" % lines[0])
        pairs = [(int(k), float(v)) for k, v in (ln.split(",") for ln in lines[1:])]
    if [k for k, _ in pairs] != list(range(1, len(pairs) + 1)):
        raise ValueError("indices do not run 1..N")
    return [v for _, v in pairs]


def parse_matrix(text: str, fmt: str) -> np.ndarray:
    if fmt == "json":
        return np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])
    return np.array([[complex(tok) for tok in ln.split(",")] for ln in text.splitlines()])


def induced_norm(a: np.ndarray, kind: str) -> float:
    return float(np.abs(a).sum(axis=1 if kind == "inf" else 0).max())


def table_problem(rows, n: int) -> str | None:
    """Shared contract of every root table: k = 1..n, running_min is the
    running minimum of the roots, hence nonincreasing."""
    if [r[0] for r in rows] != list(range(1, n + 1)):
        return "expected rows k = 1..%d, got %d rows" % (n, len(rows))
    running = math.inf
    for k, _, root, running_min in rows:
        running = min(running, root)
        if running_min != running:
            return "running_min at k=%d is %r, minimum of roots is %r" % (k, running_min, running)
    return None


def relative_gap(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), 1e-300)


# --- per-subcommand checks ------------------------------------------------


def check_power(text: str, fmt: str, n: int, a: np.ndarray) -> str | None:
    rows = parse_table(text, fmt, "norm")
    problem = table_problem(rows, n)
    if problem:
        return problem
    radius = float(np.abs(np.linalg.eigvals(a)).max())
    upper = rows[-1][3]
    if upper < radius - REF_RTOL * induced_norm(a, "inf"):
        return "certified_upper %r below numpy spectral radius %r" % (upper, radius)
    return None


def circle_max(coeffs: dict[int, complex], samples: int = 4096) -> float:
    degrees = np.array(sorted(coeffs), dtype=float)
    values = np.array([coeffs[int(d)] for d in degrees])
    theta = 2.0 * math.pi * np.arange(samples) / samples
    return float(np.abs(np.exp(1j * np.outer(theta, degrees)) @ values).max())


def check_wiener(text: str, n: int, coeffs: dict[int, complex], roots_exactly_one: bool) -> str | None:
    rows = parse_table(text, "csv", "norm")
    problem = table_problem(rows, n)
    if problem:
        return problem
    if roots_exactly_one and any(r[2] != 1.0 for r in rows):
        bad = next(r for r in rows if r[2] != 1.0)
        return "root at k=%d is %r, expected exactly 1" % (bad[0], bad[2])
    sampled = circle_max(coeffs)
    l1 = math.fsum(abs(v) for v in coeffs.values())
    upper = rows[-1][3]
    if upper < sampled - REF_RTOL * l1:
        return "certified_upper %r below sampled circle max %r" % (upper, sampled)
    return None


def check_inverse(text: str, fmt: str, shifted: np.ndarray, tol: float, norm_kind: str) -> str | None:
    """Residual contract ||shifted @ Y - I|| <= tol for Y = shifted^-1."""
    y = parse_matrix(text, fmt)
    if y.shape != shifted.shape:
        return "inverse has shape %r, expected %r" % (y.shape, shifted.shape)
    eye = np.eye(shifted.shape[0])
    residual = induced_norm(shifted @ y - eye, norm_kind)
    if not residual <= tol:
        return "residual %.6g exceeds tol %.6g" % (residual, tol)
    return None


def check_spectrum(text: str, a: np.ndarray, cells: int) -> str | None:
    lines = text.splitlines()
    if lines[0] != "re,im,invertible,margin":
        return "bad header %r" % lines[0]
    if len(lines) - 1 != cells:
        return "%d cells, expected %d" % (len(lines) - 1, cells)
    radius = float(np.abs(np.linalg.eigvals(a)).max())
    outside = radius * (1.0 + 1e-9) + REF_RTOL
    for line in lines[1:]:
        re, im, invertible, _ = line.split(",")
        if invertible not in ("true", "false"):
            return "bad invertible flag %r" % invertible
        if invertible == "false" and abs(complex(float(re), float(im))) > outside:
            return "cell %s%+sj outside the spectral radius %r marked singular" % (re, im, radius)
    return None


def check_fekete(text: str, fmt: str, logs: list[float]) -> str | None:
    """Values and roots of a generated prefix, given its natural logs."""
    rows = parse_table(text, fmt, "value")
    problem = table_problem(rows, len(logs))
    if problem:
        return problem
    for (k, value, root, _), lv in zip(rows, logs):
        want = math.exp(lv) if lv < 709.0 else math.inf
        want_root = math.exp(lv / k)
        if relative_gap(value, want) > 1e-12 or relative_gap(root, want_root) > 1e-12:
            return "row k=%d: value %r root %r, expected %r and %r" % (k, value, root, want, want_root)
    return None


def check_convolve(text: str, fmt: str, r: float, s: float, n: int) -> str | None:
    """c_k of two geometric sequences is (r + s)^k.

    The library sums log-factorials one term at a time, so log k! carries
    up to k * eps/2 * log k! of rounding (the recursive-summation bound), and
    every term's exponent adds k * (|log r| + |log s|) of magnitude.  The
    tolerance is twice that a priori bound, to cover the rounding of the
    input logs, exp and fsum as well; with r, s in [0.5, 0.9] the largest
    error seen over 30 pairs at n = 1000 is 0.23 of it.
    """
    values = parse_sequence(text, fmt)
    if len(values) != n:
        return "%d values, expected %d" % (len(values), n)
    spread = abs(math.log(r)) + abs(math.log(s))
    for k, value in enumerate(values, start=1):
        want = math.pow(r + s, k)
        tol = 2 * k * EPS * (math.lgamma(k + 1) + k * spread + 1.0)
        if relative_gap(value, want) > tol:
            return "c_%d = %r, expected (r+s)^k = %r" % (k, value, want)
    return None


def check_shift(text: str, fmt: str, weights: np.ndarray, l: int) -> str | None:
    """Roots are the geometric means of the leading weights."""
    rows = parse_table(text, fmt, "norm")
    problem = table_problem(rows, l)
    if problem:
        return problem
    tail = np.full(max(l - len(weights), 0), weights[-1])
    logs = np.log(np.concatenate([weights, tail])[:l])
    # cumulative sums are exact enough here: compare at 1e-11 relative
    means = np.exp(np.cumsum(logs) / np.arange(1, l + 1))
    for (k, _, root, _), want in zip(rows, means):
        if relative_gap(root, float(want)) > 1e-11:
            return "root at l=%d is %r, geometric mean is %r" % (k, root, float(want))
    return None


def check_selftest(text: str) -> str | None:
    lines = text.splitlines()
    if not lines or len(lines) < 2:
        return "empty selftest output"
    for line in lines[:-1]:
        if not line.startswith("PASS "):
            return "selftest line %r" % line
    total = len(lines) - 1
    if lines[-1] != "selftest: %d/%d checks passed" % (total, total):
        return "selftest summary %r" % lines[-1]
    return None
