"""Seeded op mixes for the four workloads.

A workload is a function that builds a list of ops, each an argv for
``specrad.cli.main`` plus the check for its output: at least 100 ops besides
the known-defect probes.  The op
templates (subcommand, sizes, formats) are fixed, so every seed costs about
the same; the seed only draws the entries of matrices, elements and
generator parameters, and the order of the ops.  Files the ops need are
written into the run's work directory before timing starts.

Template counts are chosen so that the p50 and p90 ranks fall inside a
group of same-cost ops on every workload, not on the edge between two
groups, which would make the percentile jump from run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# ROADMAP items that the seed code is known to violate.  Ops that probe them
# are split off by run.py: sent once, untimed, and reported apart from the
# workload's own ops, which are all expected to pass.
ITEM2 = "item-2: neumann residual above tol"
ITEM3 = "item-3: report overflow or underflow at high powers"


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int, str], str | None]
    known_defect: str | None = None


def _expect(code: int, text: str, want_code: int, check) -> str | None:
    if code != want_code:
        return "exit code %r, expected %d" % (code, want_code)
    return check(text) if check else None


def op(kind, argv, check=None, want_code=0, known_defect=None) -> Op:
    return Op(kind, argv, partial(_expect, want_code=want_code, check=check), known_defect)


def _inverse_or_refusal(code: int, text: str, check) -> str | None:
    """A tolerance at machine precision may be met, or refused with exit 2."""
    if code == 2 and not text:
        return None
    return _expect(code, text, 0, check)


def _random_matrix(rng, n: int, norm: float) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a * (norm / checks.induced_norm(a, "inf"))


def _phase_permutation(rng, n: int, q: float) -> np.ndarray:
    p = np.zeros((n, n), dtype=complex)
    p[np.arange(n), rng.permutation(n)] = np.exp(2j * math.pi * rng.random(n))
    return q * p


def _format_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return "%r%s%rj" % (re, "-" if im < 0 else "+", abs(im))


def write_matrix(path: Path, a: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        rows = ["[%s]" % ", ".join("[%r, %r]" % (float(z.real), float(z.imag)) for z in row) for row in a]
        path.write_text("[%s]\n" % ",\n".join(rows))
    else:
        path.write_text("".join(",".join(_format_complex(z) for z in row) + "\n" for row in a))
    return str(path)


# --- matrix-engine ----------------------------------------------------------


def matrix_engine(rng, workdir: Path) -> list[Op]:
    ops: list[Op] = []
    count = iter(range(10_000))

    def matrix_file(a):
        i = next(count)
        fmt = ("csv", "json")[i % 2]
        return write_matrix(workdir / ("m%d.%s" % (i, fmt)), a, fmt)

    def out_format(i):
        return ("csv", "json")[i % 2]

    # power tables: 8 ops, 25-150 ms.  Spectral radii stay in [0.5, 1.1] so
    # that norm(x^4000) is a finite float; overflow at high powers (ROADMAP
    # item 3) is probed on report-tables.
    for i, (n, powers) in enumerate((n, k) for n in (4, 8, 16, 32) for k in (1000, 4000)):
        a = _random_matrix(rng, n, 1.0)
        a *= rng.uniform(0.5, 1.1) / np.abs(np.linalg.eigvals(a)).max()
        fmt, norm = out_format(i), ("inf", "one")[(i // 2) % 2]
        argv = ["--format", fmt, "power", "--matrix", matrix_file(a), "--n", str(powers), "--norm", norm]
        ops.append(op("power", argv, partial(checks.check_power, fmt=fmt, n=powers, a=a)))

    # slow-decay Neumann series, the tail: 12 ops at q = 0.999 (about 0.25 s,
    # 3 * 10^4 products) hold the p90 rank; 2 at q = 0.998 (half that)
    for i, q in enumerate([0.999] * 12 + [0.998] * 2):
        n = (4, 8)[i % 2]
        x = _phase_permutation(rng, n, q)
        fmt = out_format(i // 2)
        argv = ["--format", fmt, "neumann", "--matrix", matrix_file(x)]
        check = partial(checks.check_inverse, fmt=fmt, shifted=np.eye(n) - x, tol=1e-10, norm_kind="inf")
        ops.append(op("neumann-slow", argv, check))

    # fast-decay Neumann series: 48 ops, 2-10 ms
    for i in range(48):
        n = (4, 8, 16, 32)[i % 4]
        x = _random_matrix(rng, n, rng.uniform(0.3, 0.7))
        fmt, norm = out_format(i // 4), ("inf", "one")[i % 2]
        argv = ["--format", fmt, "neumann", "--matrix", matrix_file(x), "--norm", norm]
        check = partial(checks.check_inverse, fmt=fmt, shifted=np.eye(n) - x, tol=1e-10, norm_kind=norm)
        ops.append(op("neumann-fast", argv, check))

    # residual-contract probes: 8x8 at norm 0.999 with tol 1e-15
    for i in range(8):
        x = _random_matrix(rng, 8, 0.999)
        argv = ["neumann", "--matrix", matrix_file(x), "--tol", "1e-15"]
        check = partial(checks.check_inverse, fmt="csv", shifted=np.eye(8) - x, tol=1e-15, norm_kind="inf")
        ops.append(Op("neumann-probe", argv, partial(_inverse_or_refusal, check=check), ITEM2))

    # resolvents by direct elimination: 28 ops
    for i in range(28):
        n = (4, 8, 16, 32)[i % 4]
        x = _random_matrix(rng, n, 1.0)
        lam = complex(*(float(v) for v in rng.uniform(-1.0, 1.0, 2)))
        lam = 2.0 * lam / abs(lam)
        fmt = out_format(i // 4)
        argv = ["--format", fmt, "resolvent", "--matrix", matrix_file(x), "--lam", repr(lam)]
        check = partial(checks.check_inverse, fmt=fmt, shifted=lam * np.eye(n) - x, tol=1e-10, norm_kind="inf")
        ops.append(op("resolvent", argv, check))

    # spectrum scans: 40 x 40 cells over the square of half-width 2U, where U
    # is the power-norm radius bound from 32 powers.  About pi/16 of the cells
    # lie within U, where the certificate cannot skip the elimination; the
    # share is fixed by geometry, so the cost of a scan does not depend on
    # how far U sits above the spectral radius for the drawn matrix.
    for n in (16, 32):
        a = _random_matrix(rng, n, 1.0)
        powers = [np.linalg.matrix_power(a, k) for k in range(1, 33)]
        bound = min(checks.induced_norm(p, "inf") ** (1.0 / k) for k, p in enumerate(powers, 1))
        half, step = 2.0 * bound, 4.0 * bound / 39
        grid = ["--re-min", repr(-half), "--re-max", repr(half),
                "--im-min", repr(-half), "--im-max", repr(half), "--step", repr(step)]
        argv = ["spectrum", "--matrix", matrix_file(a)] + grid
        ops.append(op("spectrum", argv, partial(checks.check_spectrum, a=a, cells=1600)))

    # inputs whose right answer is exit 2: divergent series, singular shifts
    for i in range(2):
        x = _phase_permutation(rng, 4, 1.5)
        ops.append(op("neumann-divergent", ["neumann", "--matrix", matrix_file(x)], want_code=2))
        t = np.triu(_random_matrix(rng, 4, 1.0))
        lam = complex(t[2, 2])
        argv = ["resolvent", "--matrix", matrix_file(t), "--lam", repr(lam)]
        ops.append(op("resolvent-singular", argv, want_code=2))
    return ops


# --- report-tables -----------------------------------------------------------


def _wiener_op(n: int, coeffs: dict[int, complex], exactly_one: bool = False, known_defect=None) -> Op:
    spec = ",".join("%d:%r" % (d, coeffs[d].real if coeffs[d].imag == 0 else coeffs[d]) for d in sorted(coeffs))
    check = partial(checks.check_wiener, n=n, coeffs=coeffs, roots_exactly_one=exactly_one)
    return op("wiener", ["wiener", "--f=" + spec, "--n", str(n)], check, known_defect=known_defect)


def _fekete_gen(rng, kind: str, n: int):
    """Generator spec and the natural logs of its first n values.  Ratios
    and rates keep every value a normal float; the out-of-range cases are
    the item-3 probes below."""
    ks = range(1, n + 1)
    if kind == "poly":
        c = float(rng.uniform(0.5, 3.0))
        return "poly:%r" % c, [c * math.log(j + 1) for j in ks]
    if kind == "geom":
        r = float(rng.uniform(0.97, 0.999))
        return "geom:%r" % r, [j * math.log(r) for j in ks]
    c, d = float(rng.uniform(-0.02, 0.02)), float(rng.uniform(0.0, 1.0))
    return "subadd:%r,%r" % (c, d), [c * j + d * math.sqrt(j) for j in ks]


def _fekete_op(rng, i: int, n: int) -> Op:
    fmt = ("csv", "json")[i % 2]
    gen, logs = _fekete_gen(rng, ("poly", "geom", "subadd")[i % 3], n)
    argv = ["--format", fmt, "fekete", "--gen", gen, "--n", str(n)]
    return op("fekete", argv, partial(checks.check_fekete, fmt=fmt, logs=logs))


def _convolve_op(fmt: str, r: float, s: float, n: int, known_defect=None) -> Op:
    argv = ["--format", fmt, "convolve", "--a", "geom:%r" % r, "--b", "geom:%r" % s, "--n", str(n)]
    return op("convolve", argv, partial(checks.check_convolve, fmt=fmt, r=r, s=s, n=n),
              known_defect=known_defect)


def _shift_op(rng, i: int, m: int, l: int) -> Op:
    fmt = ("csv", "json")[i % 2]
    a, b = float(rng.uniform(0.3, 0.9)), float(rng.uniform(0.1, 1.0))
    argv = ["--format", fmt, "shift", "--weights", "harmonic:%r,%r" % (a, b), "--m", str(m), "--l", str(l)]
    return op("shift", argv, partial(checks.check_shift, fmt=fmt, weights=a + b / np.arange(1, m + 1), l=l))


def report_tables(rng, workdir: Path) -> list[Op]:
    # Ratios r, s >= 0.5 keep r^1000 a normal float.  convolve --n 1000 and
    # the JSON tables of length 20000 sit at the top; the 14 CSV tables of
    # length 20000 hold the p90 rank; 30 shift --l 2000 tables hold the p50
    # rank among the smaller ones.
    def ratios():
        return (float(v) for v in rng.uniform(0.5, 0.9, 2))

    ops = [_convolve_op(fmt, *ratios(), 1000) for fmt in ("csv", "json")]
    ops += [_fekete_op(rng, 1, 20000), _shift_op(rng, 1, 40000, 20000)]  # JSON
    ops += [_fekete_op(rng, 2 * i, 20000) for i in range(7)]  # CSV
    ops += [_shift_op(rng, 0, 40000, 20000) for _ in range(7)]
    for i in range(10):
        ops += [_fekete_op(rng, i, 1000), _fekete_op(rng, i + 1, 1000), _fekete_op(rng, i, 5000)]
        ops += [_convolve_op(("csv", "json")[i % 2], *ratios(), n) for n in (100, 100, 300)]
        ops += [_shift_op(rng, i, 4000, 2000), _shift_op(rng, i + 1, 4000, 2000), _shift_op(rng, i, 10000, 5000)]
    ops += [_shift_op(rng, i, 4000, 2000) for i in range(10)]

    # ROADMAP item 3: high powers that overflow or underflow at the seed
    ops.append(_wiener_op(1100, {0: 2 + 0j}, known_defect=ITEM3))
    weights = 2.0 + 1.0 / np.arange(1, 1101)
    ops.append(op("shift", ["shift", "--weights", "harmonic:2,1", "--l", "1100"],
                  partial(checks.check_shift, fmt="csv", weights=weights, l=1100), known_defect=ITEM3))
    for r, n in ((1e300, 3), (0.5, 1100)):
        logs = [j * math.log(r) for j in range(1, n + 1)]
        ops.append(op("fekete", ["fekete", "--gen", "geom:%r" % r, "--n", str(n)],
                      partial(checks.check_fekete, fmt="csv", logs=logs), known_defect=ITEM3))
    ops.append(_convolve_op("csv", 0.2, 0.3, 1000, known_defect=ITEM3))
    d = np.diag([2.0, 1.0]).astype(complex)
    path = write_matrix(workdir / "diag21.csv", d, "csv")
    ops.append(op("power", ["power", "--matrix", path, "--n", "1100"],
                  partial(checks.check_power, fmt="csv", n=1100, a=d), known_defect=ITEM3))
    return ops


# --- wiener-laurent ------------------------------------------------------------

# (n, nonzero coefficients, degree span, ops): the cost of `wiener --n n`
# grows with n^2 times the span, so both are fixed per template and the seed
# only draws where the support sits in [-8, 8], its inner degrees and the
# coefficients.  About 8 s for all 99 templated ops; n = 64 and 96 make up
# most of them, so that every op runs at least twice in a 20 s run, and no
# single op of more than a second decides ops_per_s.  With
# the two cosine ops, 101 ops: the p50 rank falls inside the 14 ops at
# n = 64 with span 12, and the p90 rank inside the 12 ops of 175-200 ms
# (n = 128 span 8, n = 192 span 4, n = 96 span 16).
LAURENT_TEMPLATES = [
    (64, 2, 2, 13), (64, 4, 6, 12), (64, 8, 12, 14), (64, 12, 16, 13),
    (96, 3, 4, 10), (96, 6, 10, 10), (96, 12, 16, 4),
    (128, 2, 2, 8), (128, 5, 8, 6), (128, 12, 16, 3),
    (192, 3, 4, 2),
    (256, 2, 2, 4),
]


def _laurent(rng, k: int, span: int) -> dict[int, complex]:
    """k nonzero coefficients on degrees lo..lo+span within [-8, 8], both
    ends included, with l1 norm in [0.8, 1.5]: f^256 stays a normal float.
    For k > 2 the degrees include lo + 1, so that the powers of f fill
    every degree of their span; a support on every other degree would
    halve the cost of the op.  The moduli lie within a factor 1.25 of each
    other, so no coefficient of the normalized powers underflows: a support
    that shrinks, or subnormal arithmetic, would make the cost depend on
    the seed."""
    lo = int(rng.integers(-8, 9 - span))
    inner = rng.choice(np.arange(lo + 2, lo + span), k - 3, replace=False) if k > 2 else []
    degrees = sorted([lo, lo + span] + ([lo + 1] if k > 2 else []) + [int(d) for d in inner])
    values = rng.uniform(0.8, 1.0, k) * np.exp(2j * math.pi * rng.random(k))
    values *= rng.uniform(0.8, 1.5) / np.abs(values).sum()
    return {d: complex(v) for d, v in zip(degrees, values)}


def wiener_laurent(rng, workdir: Path) -> list[Op]:
    ops = [_wiener_op(n, _laurent(rng, k, span))
           for n, k, span, count in LAURENT_TEMPLATES for _ in range(count)]
    # the README's Wiener example, whose roots are all exactly 1
    cosine = {-1: 0.5 + 0j, 1: 0.5 + 0j}
    ops += [_wiener_op(n, cosine, exactly_one=True) for n in (64, 128)]
    return ops


# --- selftest-battery ------------------------------------------------------------


def selftest_battery(rng, workdir: Path) -> list[Op]:
    """The seeded invariant battery over 100 seeds: tiny operands and
    thousands of calls across matrix, wiener, fekete, shift and algebra,
    where per-call overhead rules."""
    return [op("selftest", ["--seed", str(int(s)), "selftest"], checks.check_selftest)
            for s in rng.integers(0, 2**31, 100)]


WORKLOADS = {
    "matrix-engine": matrix_engine,
    "wiener-laurent": wiener_laurent,
    "report-tables": report_tables,
    "selftest-battery": selftest_battery,
}


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's ops for `seed`, in seeded random order."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[workload](rng, workdir)
    return [ops[i] for i in rng.permutation(len(ops))]
