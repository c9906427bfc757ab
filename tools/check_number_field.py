"""Check reports.number_field against CPython's formatting, value by value.

Every value is written three ways: "%.17g", "%+.17g" and json17 (quoted inf
and nan).  The values are seeded random float64 bit patterns (every sign,
exponent and significand is as likely as any other, so subnormals, inf and
nan come up too), then every form boundary: each power of ten with the 8
floats on either side of it, the floats on either side of 10^k (1 - 10^-17 / 2),
where 17 digits round up to 18, each power of two, and the largest subnormal
and smallest normal numbers.  The first mismatch is printed and the exit code
is 1; with none, the last line counts the values checked.

    PYTHONPATH=src python tools/check_number_field.py --count 2000000 --seed 0

2 * 10^6 values take about 10 s on a 2-vCPU Xeon.
"""

import argparse
import math
import sys
import time

import numpy as np

from specrad.reports import json17, number_field

# values per number_field call: its temporaries take about 600 bytes a value
_CHUNK = 65536


def boundaries() -> np.ndarray:
    """The form boundaries of the module docstring, with both signs."""
    values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308]
    for k in range(-324, 309):
        for ten in (float("1e%d" % k), float("9.99999999999999995e%d" % (k - 1))):
            x = ten
            for _ in range(8):
                x = math.nextafter(x, -math.inf)
                values.append(x)
            x = ten
            for _ in range(9):
                values.append(x)
                x = math.nextafter(x, math.inf)
    values += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    x = np.array(values)
    return np.concatenate([x, -x])


def matches(x: np.ndarray) -> bool:
    """Whether number_field writes every value of x as CPython does; the
    first value it writes otherwise is printed."""
    values = x.tolist()
    for plus, quote, write in ((False, False, "%.17g".__mod__), (True, False, "%+.17g".__mod__),
                               (False, True, json17)):
        field = number_field(x, plus, quote)
        rows = np.empty((x.size, field.shape[1] + 1), np.uint8)
        rows[:, :-1] = field
        rows[:, -1] = 10
        got = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
        want = list(map(write, values))
        if got != want:
            i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
            print("mismatch at %r (bits %016x), plus=%s quote=%s: %r, CPython %r"
                  % (values[i], x[i : i + 1].view(np.uint64)[0], plus, quote, got[i], want[i]))
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=2_000_000, help="random bit patterns")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    checked = 0
    for lo in range(0, args.count, _CHUNK):
        size = min(_CHUNK, args.count - lo)
        if not matches(rng.integers(0, 2**64, size, dtype=np.uint64).view(np.float64)):
            return 1
        checked += size
    edges = boundaries()
    if not matches(edges):
        return 1
    checked += edges.size
    print("number_field matches CPython on %d values (x3 formats) in %.1f s"
          % (checked, time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
