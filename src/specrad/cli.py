"""Command-line front end: every experiment as a reproducible subcommand.

All randomness is driven by the --seed flag, every number is emitted with
17 significant digits, and nothing time- or environment-dependent reaches
the output, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import fekete, matrix, selftest, shift, wiener
from .algebra import DEFAULT_MAX_TERMS, neumann_inverse, power_norms, resolvent
from .errors import BudgetExceeded, NotConvergent, Singular

SEQUENCE_GENERATORS = "poly:c | geom:r | subadd:c,d"
# work budgets of the length options, checked before anything is laid out: a
# table of more than MAX_ROWS rows, or a convolve --n whose n^2 pair sums pass
# MAX_PAIR_SUMS, is refused with BudgetExceeded.  Both sit far above every size
# in use (20000 rows, convolve --n 1000); at MAX_ROWS the slowest table,
# wiener --f 0:0.5, takes about 21 s (2 vCPUs)
MAX_ROWS = 10**6
MAX_PAIR_SUMS = 10**8


def _check_rows(option: str, n: int) -> None:
    if n > MAX_ROWS:
        raise BudgetExceeded("%s %d exceeds the row budget MAX_ROWS=%d" % (option, n, MAX_ROWS))


def _parse_sequence_gen(spec: str, n: int, option: str | None = None) -> fekete.PrefixSequence:
    """The prefix of an inline generator.  With an `option` such as "b",
    an error names the option and the entry, as in "--b SPEC: entry b_1"."""
    kind, _, args = spec.partition(":")
    try:
        if kind == "poly":
            return fekete.poly_sequence(float(args), n)
        if kind == "geom":
            return fekete.geometric_sequence(float(args), n)
        if kind == "subadd":
            c_text, d_text = args.split(",")
            return fekete.subadd_sequence(float(c_text), float(d_text), n)
    except ValueError as exc:
        if option is None:
            raise ValueError("bad generator arguments %r: %s" % (spec, exc)) from exc
        if isinstance(exc, fekete.BadEntry):
            exc = fekete.BadEntry(exc.j, exc.value, option)
        raise ValueError("--%s %s: %s" % (option, spec, exc)) from None
    raise ValueError("unknown sequence generator %r (use %s)" % (spec, SEQUENCE_GENERATORS))


def _parse_weights(spec: str, m: int) -> shift.WeightedShift:
    """The weights of an inline generator; a malformed spec is named with
    its option, as in "--weights harmonic:1: ..."."""
    kind, _, args = spec.partition(":")
    if kind != "harmonic":
        raise ValueError("unknown weight generator %r (use harmonic:a,b)" % spec)
    try:
        a, b = map(float, args.split(","))
    except ValueError:
        raise ValueError("--weights %s: expected harmonic:a,b with two numbers" % spec) from None
    return shift.harmonic_weights(a, b, m)


def _emit(args, text) -> None:
    """Write a string, or each string of an iterable in turn, to --out or stdout."""
    parts = [text] if isinstance(text, str) else text
    if args.out:
        with open(args.out, "w") as out:
            out.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _report_text(args, report) -> str:
    return report.to_json() if args.format == "json" else report.to_csv()


def _matrix_text(args, m) -> str:
    return matrix.matrix_to_json(m) if args.format == "json" else matrix.matrix_to_csv(m)


def _finite_tol(args) -> float:
    # a nan or inf tol would pass every residual check
    if not math.isfinite(args.tol):
        raise ValueError("--tol must be finite, got %r" % args.tol)
    return args.tol


def run_fekete(args) -> int:
    if (args.gen is None) == (args.input is None):
        raise ValueError("provide exactly one of --gen or --input")
    if args.gen is not None:
        if args.n < 1:
            raise ValueError("need n >= 1")
        _check_rows("--n", args.n)
        seq = _parse_sequence_gen(args.gen, args.n)
    else:
        seq = fekete.read_sequence_csv(Path(args.input).read_text())
    _emit(args, _report_text(args, fekete.root_report(seq)))
    return 0


def run_convolve(args) -> int:
    if args.n > 0 and args.n * args.n > MAX_PAIR_SUMS:
        raise BudgetExceeded("--n %d takes %d pair sums, over the budget MAX_PAIR_SUMS=%d"
                             % (args.n, args.n * args.n, MAX_PAIR_SUMS))
    a = _parse_sequence_gen(args.a, args.n, "a")
    b = _parse_sequence_gen(args.b, args.n, "b")
    for name, spec, seq in (("a", args.a, a), ("b", args.b, b)):
        bad = np.flatnonzero(~np.isfinite(seq.array))
        if bad.size:
            j = int(bad[0]) + 1
            raise ValueError("--%s %s: entry %s_%d = %r is not finite"
                             % (name, spec, name, j, seq.values[j - 1]))
    c = fekete.binomial_convolve(a, b, args.n)
    write = fekete.sequence_to_json if args.format == "json" else fekete.sequence_to_csv
    _emit(args, write(c))
    return 0


def run_power(args) -> int:
    _check_rows("--n", args.n)
    a = matrix.read_matrix(Path(args.matrix).read_text())
    alg = matrix.MatrixAlgebra(a.shape[0], args.norm)
    _emit(args, _report_text(args, power_norms(alg, a, args.n)))
    return 0


def run_neumann(args) -> int:
    a = matrix.read_matrix(Path(args.matrix).read_text())
    alg = matrix.MatrixAlgebra(a.shape[0], args.norm)
    inv = neumann_inverse(alg, a, tol=_finite_tol(args), max_terms=args.max_terms)
    _emit(args, _matrix_text(args, inv))
    return 0


def run_resolvent(args) -> int:
    try:
        lam = complex(args.lam.replace(" ", ""))
    except ValueError:
        raise ValueError("--lam must be a complex number, got %r" % args.lam) from None
    if not cmath.isfinite(lam):
        raise ValueError("--lam must be finite, got %r" % args.lam)
    tol = _finite_tol(args)
    a = matrix.read_matrix(Path(args.matrix).read_text())
    alg = matrix.MatrixAlgebra(a.shape[0], args.norm)
    _emit(args, _matrix_text(args, resolvent(alg, a, lam, tol=tol)))
    return 0


def run_spectrum(args) -> int:
    a = matrix.read_matrix(Path(args.matrix).read_text())
    spec = matrix.GridSpec(args.re_min, args.re_max, args.im_min, args.im_max, args.step)
    _emit(args, matrix.spectrum_scan(a, spec, norm_kind=args.norm).csv_blocks())
    return 0


def run_wiener(args) -> int:
    _check_rows("--n", args.n)
    f = wiener.parse_inline(args.f)
    _emit(args, _report_text(args, wiener.wiener_spectral_radius(f, args.n)))
    return 0


def run_shift(args) -> int:
    if args.l < 1:
        raise ValueError("need l >= 1")
    _check_rows("--l", args.l)
    if args.m < 0:  # --m 0 means "default to --l"
        raise ValueError("need m >= 0")
    if args.weights_file:
        t = shift.read_weights_csv(Path(args.weights_file).read_text())
    elif args.weights:
        # weights past --l never reach the table, so they are not built
        t = _parse_weights(args.weights, min(args.m or args.l, args.l))
    else:
        raise ValueError("shift needs --weights or --weights-file")
    _emit(args, _report_text(args, shift.shift_limit_experiment(t, args.l)))
    return 0


def run_selftest(args) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be >= 0, got %d" % args.seed)
    buffer = io.StringIO()
    ok = selftest.run_selftest(args.seed, buffer)
    _emit(args, buffer.getvalue())
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, so main reports them as one line with
    exit code 1; argparse itself would print the usage and exit 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The specrad argument parser, built once per process and shared by
    every later call, so callers must not modify it.  parse_args keeps no
    state between calls: each one starts a new namespace with every
    default and the subcommand's handler."""
    parser = _Parser(
        prog="specrad",
        description="Convergence tables, certified spectral-radius bounds, and "
        "series inverses for matrices, Wiener-algebra elements, and weighted shifts.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    parser.add_argument("--out", default=None, help="write output to FILE instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # the options of every matrix subcommand, and those of the two inverses
    matrix_args = argparse.ArgumentParser(add_help=False)
    matrix_args.add_argument("--matrix", required=True, help="matrix file (CSV re+imj or JSON)")
    matrix_args.add_argument("--norm", choices=sorted(matrix.NORMS), default="inf")
    inverse_args = argparse.ArgumentParser(add_help=False, parents=[matrix_args])
    inverse_args.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("fekete", help="root/running-min table for a sequence prefix")
    p.add_argument("--gen", help="inline generator: %s" % SEQUENCE_GENERATORS)
    p.add_argument("--input", help="CSV file with header k,value")
    p.add_argument("--n", type=int, default=64, help="prefix length for --gen")
    p.set_defaults(handler=run_fekete)

    p = sub.add_parser("convolve", help="binomial convolution of two generated prefixes")
    p.add_argument("--a", required=True, help="generator for the first sequence")
    p.add_argument("--b", required=True, help="generator for the second sequence")
    p.add_argument("--n", type=int, default=30)
    p.set_defaults(handler=run_convolve)

    p = sub.add_parser("power", parents=[matrix_args],
                       help="power-norm convergence table for a matrix")
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(handler=run_power)

    p = sub.add_parser("neumann", parents=[inverse_args],
                       help="geometric-series inverse of (I - X)")
    p.add_argument("--max-terms", type=int, default=DEFAULT_MAX_TERMS)
    p.set_defaults(handler=run_neumann)

    p = sub.add_parser("resolvent", parents=[inverse_args], help="(lambda I - X)^(-1)")
    p.add_argument("--lam", required=True, help="complex scalar, e.g. 2 or 1+0.5j")
    p.set_defaults(handler=run_resolvent)

    p = sub.add_parser("spectrum", parents=[matrix_args],
                       help="grid scan for noninvertible lambda I - X")
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.set_defaults(handler=run_spectrum)

    p = sub.add_parser("wiener", help="l1 power-norm roots of a Laurent element")
    p.add_argument("--f", required=True, help="deg:coeff pairs, e.g. '1:0.5,-1:0.5'")
    p.add_argument("--n", type=int, default=64)
    p.set_defaults(handler=run_wiener)

    p = sub.add_parser("shift", help="weighted-shift power-norm root table")
    p.add_argument("--weights", help="weight generator harmonic:a,b")
    p.add_argument("--weights-file", help="CSV file with header j,alpha")
    p.add_argument("--m", type=int, default=0, help="weight prefix length (default: L)")
    p.add_argument("--l", type=int, default=64, help="maximum power")
    p.set_defaults(handler=run_shift)

    p = sub.add_parser("selftest", help="run the seeded invariant battery")
    p.set_defaults(handler=run_selftest)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; exit code 0, 1 for bad input or usage (one
    `error:` line), 2 when a certificate fails.  The parser is built on the
    first call in a process and reused, so a caller that runs main many
    times in process pays for it once."""
    try:
        args = build_parser().parse_args(argv)
        # overflow and invalid results are refused or reported as inf or
        # nan by the library, so numpy's warnings add nothing
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (NotConvergent, Singular, BudgetExceeded) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
