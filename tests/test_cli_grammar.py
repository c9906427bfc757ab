"""A grammar fuzzer for the command line: no argv ends in a traceback.

Each subcommand draws its options from hostile tokens (nan, inf, 1e309,
5e-324, -0.0, empty and malformed terms) and from files that are missing,
ragged, binary, header-only or malformed JSON.  main must return 0, 1 or
2, and a nonzero exit writes exactly one stderr line, which names the
error.  Sizes stay small, and the draws are derandomized, so each run
takes the same few hundred argvs.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad.cli import main

# valid tokens, and hostile ones: non-finite, out of range, subnormal,
# signed zero, empty and malformed
NUMBERS = ["0", "1", "0.5", "-1", "2", "-0.25"]
BAD_NUMBERS = ["nan", "inf", "-inf", "1e309", "5e-324", "-0.0", "1e300", "1e-300", "", "abc",
               "1,2", "1+2j"]
COUNTS = ["1", "3", "8", "64"]
BAD_COUNTS = ["0", "-1", "", "nan", "1e309", "5e-324", "-0.0", "x", "999999999999"]
DEGREES = ["0", "1", "-1", "3", "-8"]
BAD_DEGREES = ["2000000", "100000000000000000000", "", "x", "1.5", "-0"]
COEFFS = ["0.5", "1", "-0.25", "0.5j", "1-1j", "0.3+0.1j"]
BAD_COEFFS = BAD_NUMBERS + ["1e309j", "nanj", "0"]

# name -> file content; "missing" is a path that is never written
FILES = {
    "matrix.csv": "0.5+0j,0.25+0.1j\n0+0j,-0.25+0j\n",
    "matrix.json": "[[[0.5, 0], [0.25, 0.1]], [[0, 0], [-0.25, 0]]]\n",
    "unit.csv": "1+0j\n",
    "nan.csv": "nan,0\n0,1\n",
    "ragged.csv": "1,2\n3\n",
    "empty.csv": "",
    "blank.csv": "\n\n",
    "binary": b"\xff\xfe\x00\x81specrad\x00",
    "header.csv": "k,value\n",
    "object.json": '[[{"0": 1, "1": 2}]]',
    "three.json": "[[[1, 2, 3]]]",
    "bool.json": "[[[true, false]]]",
    "deep.json": "[" * 100000 + "]" * 100000,
    "nan.json": "[[[NaN, 0]]]",
    "bigint.json": "[[[1%s, 0]]]" % ("0" * 400),
    "ragged.json": "[[[1, 0]], [[1, 0], [2, 0]]]",
    "sequence.csv": "k,value\n1,2\n2,4\n3,8\n",
    "sequence-ragged.csv": "k,value\n1\n2,4,5\n",
    "sequence-gap.csv": "k,value\n1,2\n3,8\n",
    "sequence-nan.csv": "k,value\n1,nan\n2,inf\n",
    "weights.csv": "j,alpha\n1,1\n2,0.5\n3,0.25\n",
    "weights-header.csv": "j,alpha\n",
    "weights-rising.csv": "j,alpha\n1,0.5\n2,1\n",
    "weights-negative.csv": "j,alpha\n1,-1\n2,-2\n",
}
MATRICES = ["matrix.csv", "matrix.json", "unit.csv"]
BAD_MATRICES = ["nan.csv", "ragged.csv", "empty.csv", "blank.csv", "binary", "header.csv",
                "object.json", "three.json", "bool.json", "deep.json", "nan.json",
                "bigint.json", "ragged.json", "missing"]
BAD_SEQUENCES = ["sequence-ragged.csv", "sequence-gap.csv", "sequence-nan.csv", "header.csv",
                 "empty.csv", "binary", "matrix.csv", "missing"]
BAD_WEIGHTS = ["weights-header.csv", "weights-rising.csv", "weights-negative.csv",
               "sequence.csv", "empty.csv", "binary", "missing"]

# one stderr line per nonzero exit: "error: ..." for bad input (exit 1), the
# failed certificate's name for exit 2
ERROR_LINE = {1: re.compile(r"error: [^\n]*\n"),
              2: re.compile(r"(NotConvergent|Singular|BudgetExceeded): [^\n]*\n")}


def _tokens(tokens):
    return tokens if isinstance(tokens, st.SearchStrategy) else st.sampled_from(tokens)


def _pair(first, second):
    return st.builds("{},{}".format, _tokens(first), _tokens(second))


def _generators(numbers, kinds=("poly", "geom", "subadd")):
    return st.one_of(st.builds("{}:{}".format, st.sampled_from(kinds), _tokens(numbers)),
                     st.builds("subadd:{}".format, _pair(numbers, numbers)))


def _wiener_spec(degrees, coeffs, extra=()):
    term = st.builds("{}:{}".format, _tokens(degrees), _tokens(coeffs))
    if extra:
        term = st.one_of(term, st.sampled_from(extra))
    return st.lists(term, min_size=1, max_size=4).map(",".join)


def _option(name, valid, hostile, tenths=7):
    """An option given in `tenths` of ten draws, its token hostile in one of four."""
    return name, _tokens(valid), _tokens(hostile), tenths


def _options(paths):
    """Per subcommand, its options as _option tuples."""
    def files(names):
        return st.sampled_from(names).map(paths.get)

    matrix = [_option("--matrix", files(MATRICES), files(BAD_MATRICES), 9),
              _option("--norm", ["inf", "one"], ["two", ""], 5)]
    tol = _option("--tol", ["1e-10", "1e-3", "0.5"], BAD_NUMBERS + ["0", "-1"], 5)
    bounds = [_option(name, low, BAD_NUMBERS, 9)
              for name, low in (("--re-min", ["-1", "-2", "-0.5"]), ("--re-max", ["0.5", "1", "2"]),
                                ("--im-min", ["-1", "0"]), ("--im-max", ["0", "1"]))]
    return {
        "fekete": [_option("--gen", _generators(NUMBERS),
                           st.one_of(_generators(BAD_NUMBERS, ("poly", "geom", "bogus", "")),
                                     st.sampled_from(["poly", "subadd:1", "geom:1,2"]))),
                   _option("--input", files(["sequence.csv"]), files(BAD_SEQUENCES), 3),
                   _option("--n", COUNTS, BAD_COUNTS)],
        "convolve": [_option("--a", _generators(NUMBERS), _generators(BAD_NUMBERS), 9),
                     _option("--b", _generators(NUMBERS), _generators(BAD_NUMBERS), 9),
                     _option("--n", COUNTS, BAD_COUNTS)],
        "power": matrix + [_option("--n", COUNTS, BAD_COUNTS)],
        "neumann": matrix + [tol, _option("--max-terms", ["2", "64", "1000"], BAD_COUNTS, 5)],
        "resolvent": matrix + [tol, _option("--lam", ["2", "1+0.5j", "0", "0.5", "-0.25"],
                                            BAD_COEFFS, 9)],
        "spectrum": matrix + bounds
        + [_option("--step", ["0.5", "0.25", "1"], BAD_NUMBERS + ["0", "-1"], 9)],
        "wiener": [_option("--f", _wiener_spec(DEGREES, COEFFS),
                           _wiener_spec(DEGREES + BAD_DEGREES, COEFFS + BAD_COEFFS,
                                        ["", " ", ":", "0", "0:1:2"]), 9),
                   _option("--n", COUNTS, BAD_COUNTS)],
        "shift": [_option("--weights", st.builds("harmonic:{}".format, _pair(NUMBERS, NUMBERS)),
                          st.one_of(st.builds("harmonic:{}".format,
                                              _pair(NUMBERS + BAD_NUMBERS, BAD_NUMBERS)),
                                    st.sampled_from(["harmonic:", "harmonic:1", "geom:1,1"]))),
                  _option("--weights-file", files(["weights.csv"]), files(BAD_WEIGHTS), 3),
                  _option("--m", COUNTS, BAD_COUNTS, 3), _option("--l", COUNTS, BAD_COUNTS)],
        "selftest": [],
    }


@st.composite
def argvs(draw, subcommand, paths):
    """Global options, the subcommand, then its options, each given or left
    out and sometimes hostile, as --name=token; sometimes a stray token."""
    outs = [paths["out"], paths["dir"], paths["missing-dir"]]
    options = [_option("--seed", ["0", "1", "7"], BAD_COUNTS, 3),
               _option("--format", ["csv", "json"], ["xml", ""], 5),
               _option("--out", [paths["out"]], outs, 1)]
    # the odds come from a Random seeded by the draw: hypothesis's own
    # choices favour the first value, which would spoil most options
    odds = draw(st.randoms(use_true_random=True)).random
    argv = []
    for group in (options, _options(paths)[subcommand]):
        for name, valid, hostile, tenths in group:
            if odds() < tenths / 10:
                argv.append(name + "=" + draw(hostile if odds() < 0.25 else valid))
        if group is options:
            argv.append(subcommand)
    if odds() < 0.1:
        stray = draw(st.sampled_from(["--n", "--bogus", "-", "--", "extra", "--matrix="]))
        argv.insert(int(odds() * (len(argv) + 1)), stray)
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("grammar")
    out = {}
    for name, content in FILES.items():
        path = root / name
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        out[name] = str(path)
    out["missing"] = str(root / "missing.csv")
    out["out"] = str(root / "out.txt")
    out["dir"] = str(root)
    out["missing-dir"] = str(root / "no" / "out.txt")
    return out


# selftest runs the seeded battery (about 0.1 s a seed); the rest are small
EXAMPLES = {"selftest": 6}


@pytest.mark.parametrize("subcommand", sorted(_options({})))
def test_no_argv_ends_in_a_traceback(subcommand, paths):
    @settings(max_examples=EXAMPLES.get(subcommand, 40), derandomize=True, deadline=None,
              database=None)
    @given(argvs(subcommand, paths))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code:
            assert ERROR_LINE[code].fullmatch(err.getvalue()), (argv, err.getvalue())

    run()
